"""Exhaustive spectrum search against frozen values and the naive oracle."""
from __future__ import annotations

import pytest

from edgemagic import (
    BudgetExceededError,
    complement,
    em_spectrum,
    first_em_labeling,
    first_sem_labeling,
    is_perfect_em,
    is_perfect_sem,
    is_super_edge_magic,
    mk_complete_bipartite,
    mk_crown,
    mk_cycle,
    mk_star_with_loop,
    sem_spectrum,
    valence_of,
)
from naive import CORPUS, WIDE_CORPUS, naive_valences

# Frozen from a one-off brute-force enumeration over all labelings.
FROZEN_EM = {
    "k2": [6],
    "p3": [8, 9, 10],
    "p4": [11, 12, 13],
    "c3": [9, 10, 11, 12],
    "c4": [12, 13, 14, 15],
    "k13": [10, 12, 14],
    "k11l": [6, 7, 8, 9],
    "k12l": [8, 9, 10, 11, 12, 13],
    "loop1": [4, 5],
    "digon": [],
}
FROZEN_SEM = {
    "k2": [6],
    "p3": [8, 9],
    "p4": [11],
    "c3": [9],
    "c4": [],
    "k13": [10, 12],
    "k11l": [6, 7],
    "k12l": [8, 9, 10],
    "loop1": [4],
    "digon": [],
}


def test_em_spectra_match_frozen_values():
    for name, G in CORPUS.items():
        assert list(em_spectrum(G).achieved) == FROZEN_EM[name], name


def test_sem_spectra_match_frozen_values():
    for name, G in CORPUS.items():
        assert list(sem_spectrum(G).achieved) == FROZEN_SEM[name], name


def test_backtracking_agrees_with_naive_enumeration():
    for name, G in CORPUS.items():
        assert list(em_spectrum(G).achieved) == naive_valences(G, "em"), name
        assert list(sem_spectrum(G).achieved) == naive_valences(G, "sem"), name


def test_witnesses_carry_their_claimed_valence():
    for name, G in WIDE_CORPUS.items():
        rep = em_spectrum(G)
        for k, w in rep.witnesses.items():
            assert valence_of(G, w) == k, name
        rep = sem_spectrum(G)
        for k, w in rep.witnesses.items():
            assert is_super_edge_magic(G, w) == k, name


def test_achieved_valences_stay_inside_the_interval():
    for name, G in WIDE_CORPUS.items():
        for rep in (em_spectrum(G), sem_spectrum(G)):
            assert all(k in rep.interval for k in rep.achieved), name


def test_em_spectra_are_complement_symmetric():
    for name, G in WIDE_CORPUS.items():
        rep = em_spectrum(G)
        mirror = {3 * (G.p + G.q + 1) - k for k in rep.achieved}
        assert mirror == set(rep.achieved), name


def test_complementing_a_witness_achieves_the_mirror_valence():
    G = mk_cycle(4)
    rep = em_spectrum(G)
    for k, w in rep.witnesses.items():
        assert valence_of(G, complement(G, w)) == 3 * 9 - k


def test_perfect_flags():
    assert is_perfect_em(mk_cycle(4))
    assert is_perfect_sem(mk_star_with_loop(2))
    # interval [10,14] but only {10,12,14} achieved
    assert not is_perfect_em(mk_complete_bipartite(1, 3))
    # empty interval: vacuously perfect
    assert is_perfect_sem(mk_cycle(4))


def test_k33_em_spectrum_frozen():
    rep = em_spectrum(mk_complete_bipartite(3, 3))
    assert list(rep.achieved) == [20, 22, 26, 28]
    assert not rep.perfect


def test_cap_refusal_is_loud():
    crown = mk_crown(4, 2)
    with pytest.raises(BudgetExceededError):
        em_spectrum(crown)
    with pytest.raises(BudgetExceededError):
        first_em_labeling(crown)
    with pytest.raises(BudgetExceededError):
        sem_spectrum(crown, cap=23)


def test_first_labeling_returns_smallest_valence():
    G = mk_cycle(4)
    k, f = first_em_labeling(G)
    assert k == 12 and valence_of(G, f) == 12
    assert first_sem_labeling(G) is None
    k, f = first_sem_labeling(mk_star_with_loop(2))
    assert k == 8 and is_super_edge_magic(mk_star_with_loop(2), f) == 8


def test_star_with_loop_sem_spectra_are_perfect():
    for n in range(1, 7):
        G = mk_star_with_loop(n)
        rep = sem_spectrum(G)
        assert rep.perfect
        assert len(rep.achieved) == n + 1
        assert list(rep.achieved) == list(rep.interval.values())
        assert rep.achieved[0] == 2 * n + 4
