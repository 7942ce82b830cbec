"""Exhaustive spectrum search against frozen values and the naive oracle."""
from __future__ import annotations

import hashlib
import re
import sys
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgemagic import (
    BudgetExceededError,
    Decomposition,
    Graph,
    TotalLabeling,
    bipartition,
    build_s2n,
    complement,
    em_spectrum,
    first_em_labeling,
    first_sem_labeling,
    is_super_edge_magic,
    mk_complete_bipartite,
    mk_crown,
    mk_cycle,
    mk_star_with_loop,
    sem_spectrum,
    valence_of,
)
from edgemagic.search import _search
from naive import CORPUS, WIDE_CORPUS, naive_least_witness, naive_valences, twin_classes

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


def _mirror(G: Graph, kind: str) -> int:
    return 3 * (G.p + G.q + 1) if kind == "em" else 4 * G.p + G.q + 3


def _dual(G: Graph, w: TotalLabeling, kind: str) -> TotalLabeling:
    if kind == "em":
        return complement(G, w)
    return TotalLabeling(
        tuple(G.p + 1 - x for x in w.vertex_labels),
        tuple(2 * G.p + G.q + 1 - x for x in w.edge_labels),
    )


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


def test_sem_spectra_are_dual_symmetric():
    for name, G in WIDE_CORPUS.items():
        rep = sem_spectrum(G)
        mirror = {_mirror(G, "sem") - k for k in rep.achieved}
        assert mirror == set(rep.achieved), name


def test_sem_dual_of_a_witness_achieves_the_mirror_valence():
    G = mk_star_with_loop(3)
    rep = sem_spectrum(G)
    assert len(rep.achieved) == 4
    for k, w in rep.witnesses.items():
        assert is_super_edge_magic(G, _dual(G, w, "sem")) == _mirror(G, "sem") - k


def test_perfect_flags():
    assert em_spectrum(mk_cycle(4)).perfect
    assert sem_spectrum(mk_star_with_loop(2)).perfect
    # interval [10,14] but only {10,12,14} achieved
    assert not em_spectrum(mk_complete_bipartite(1, 3)).perfect
    # empty interval: vacuously perfect
    assert sem_spectrum(mk_cycle(4)).perfect


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


def test_known_witnesses_are_rechecked_like_found_ones():
    # C4's edge magic window is 12..15 and its mirror 27: the lower half
    # 12, 13 takes known[k], or the complement of known[27 - k]
    G = mk_cycle(4)
    found = em_spectrum(G).witnesses
    assert dict(_search(G, "em", 16, {15: found[15]})[1]) == {
        **found, 12: complement(G, found[15]), 15: found[15]
    }
    for known in ({12: found[13]}, {15: found[14]}):
        with pytest.raises(RuntimeError, match="search produced a bad witness for valence 12"):
            list(_search(G, "em", 16, known)[1])


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


# Frozen from the search before it mirrored spectra and bounded partial
# labelings: neither may change the first witness found at a searched
# valence.  The K3,3 hit also seeds the `repro s2-k33` labeling.
FROZEN_FIRST = {
    ("em", "k33"): (20, (1, 2, 3, 4, 8, 12), (15, 11, 7, 14, 10, 6, 13, 9, 5)),
    ("em", "k25"): (21, (1, 2, 3, 6, 9, 12, 15), (17, 14, 11, 8, 5, 16, 13, 10, 7, 4)),
    ("em", "crown33"): (
        27,
        (1, 2, 3, 5, 7, 9, 10, 11, 12, 4, 6, 8),
        (24, 22, 23, 21, 19, 17, 15, 14, 13, 20, 18, 16),
    ),
    ("sem", "k33"): None,
    ("sem", "k25"): None,
    ("sem", "crown33"): (
        27,
        (1, 2, 3, 5, 7, 9, 10, 11, 12, 4, 6, 8),
        (24, 22, 23, 21, 19, 17, 15, 14, 13, 20, 18, 16),
    ),
}


def test_first_witnesses_are_frozen():
    graphs = {
        "k33": mk_complete_bipartite(3, 3),
        "k25": mk_complete_bipartite(2, 5),
        "crown33": mk_crown(3, 3),
    }
    for (kind, name), want in FROZEN_FIRST.items():
        first = first_em_labeling if kind == "em" else first_sem_labeling
        hit = first(graphs[name], cap=26)
        got = None if hit is None else (hit[0], hit[1].vertex_labels, hit[1].edge_labels)
        assert got == want, (kind, name)


# Frozen before the search broke twin symmetry, which may not change a
# spectrum or a searched witness.  Neither graph has a super edge magic
# labeling: q > 2p - 3.
FROZEN_BIPARTITE = {
    ("em", "k34"): (
        [24, 25, 26, 27, 28, 29, 31, 32, 33, 34, 35, 36],
        (24, (1, 2, 3, 4, 8, 12, 16), (19, 15, 11, 7, 18, 14, 10, 6, 17, 13, 9, 5)),
    ),
    ("em", "k26"): (
        [24, 25, 28, 29, 30, 31, 32, 33, 34, 35, 38, 39],
        (24, (1, 2, 3, 6, 9, 12, 15, 18), (20, 17, 14, 11, 8, 5, 19, 16, 13, 10, 7, 4)),
    ),
    ("sem", "k34"): ([], None),
    ("sem", "k26"): ([], None),
}
BIPARTITE_WITNESSES_SHA256 = "496c3bd6c1826c1a8970af0c67d04998f3e4fd4e99ec7e3fccb900074480eb4f"


def test_k34_and_k26_spectra_and_first_hits_are_frozen():
    graphs = {"k34": mk_complete_bipartite(3, 4), "k26": mk_complete_bipartite(2, 6)}
    digest = hashlib.sha256()
    for (kind, name), (achieved, first_hit) in FROZEN_BIPARTITE.items():
        spectrum, first = (
            (em_spectrum, first_em_labeling) if kind == "em" else (sem_spectrum, first_sem_labeling)
        )
        rep = spectrum(graphs[name], cap=40)
        assert list(rep.achieved) == achieved, (kind, name)
        for k, w in rep.witnesses.items():
            digest.update(f"{kind} {name} {k} {w.vertex_labels} {w.edge_labels}\n".encode())
        hit = first(graphs[name], cap=26)
        got = None if hit is None else (hit[0], hit[1].vertex_labels, hit[1].edge_labels)
        assert got == first_hit, (kind, name)
    assert digest.hexdigest() == BIPARTITE_WITNESSES_SHA256


# Frozen before the search cut nodes where a placed vertex can no longer
# pair off its open edges, which may not change a spectrum or a searched
# witness; the cut's hardest cases: hubs whose open edges the bound
# barely restricts.  K2,5 with a pendant has no super edge magic
# labeling: q > 2p - 3.
FROZEN_HUBS = {
    ("em", "crown33"): (
        list(range(27, 49)),
        (27, (1, 2, 3, 5, 7, 9, 10, 11, 12, 4, 6, 8), (24, 22, 23, 21, 19, 17, 15, 14, 13, 20, 18, 16)),
    ),
    ("em", "k25pendant"): (
        list(range(23, 38)),
        (23, (1, 2, 5, 3, 10, 13, 15, 4), (17, 19, 12, 9, 7, 16, 18, 11, 8, 6, 14)),
    ),
    ("sem", "crown33"): (
        list(range(27, 37)),
        (27, (1, 2, 3, 5, 7, 9, 10, 11, 12, 4, 6, 8), (24, 22, 23, 21, 19, 17, 15, 14, 13, 20, 18, 16)),
    ),
    ("sem", "k25pendant"): ([], None),
}
HUB_WITNESSES_SHA256 = "b2f81595556be2c2f356d7506cd0c6c04d727903e67f64809bb41fe1ada81726"


def test_crown_and_pendant_spectra_and_first_hits_are_frozen():
    k25pendant = Graph(8, mk_complete_bipartite(2, 5).edges + ((3, 8),))
    graphs = {"crown33": (mk_crown(3, 3), 40), "k25pendant": (k25pendant, 26)}
    digest = hashlib.sha256()
    for (kind, name), (achieved, first_hit) in FROZEN_HUBS.items():
        spectrum, first = (
            (em_spectrum, first_em_labeling) if kind == "em" else (sem_spectrum, first_sem_labeling)
        )
        G, cap = graphs[name]
        rep = spectrum(G, cap=cap)
        assert list(rep.achieved) == achieved, (kind, name)
        for k, w in rep.witnesses.items():
            digest.update(f"{kind} {name} {k} {w.vertex_labels} {w.edge_labels}\n".encode())
        hit = first(G, cap=26)
        got = None if hit is None else (hit[0], hit[1].vertex_labels, hit[1].edge_labels)
        assert got == first_hit, (kind, name)
    assert digest.hexdigest() == HUB_WITNESSES_SHA256


# Frozen before the pair count took in placed vertices with one unplaced
# neighbour left, which may not change a spectrum or a searched witness;
# the graphs whose search trees that changes: cycles, crowns with one
# pendant per cycle vertex, and the spider with three legs of length 2.
# Even cycles have no super edge magic labeling.
SPIDER222 = Graph(7, ((1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7)))
FROZEN_SINGLE_OPEN = {
    ("em", "c7"): (
        list(range(19, 27)),
        (19, (1, 4, 2, 5, 6, 3, 7), (14, 13, 12, 8, 10, 9, 11)),
    ),
    ("em", "c8"): (
        list(range(22, 30)),
        (22, (1, 5, 7, 4, 3, 6, 2, 12), (16, 10, 11, 15, 13, 14, 8, 9)),
    ),
    ("em", "c12"): (
        list(range(32, 44)),
        (
            32,
            (1, 7, 2, 8, 3, 9, 4, 10, 5, 14, 6, 15),
            (24, 23, 22, 21, 20, 19, 18, 17, 13, 12, 11, 16),
        ),
    ),
    ("em", "crown51"): (
        list(range(24, 40)),
        (24, (1, 3, 5, 2, 4, 8, 7, 6, 10, 9), (20, 16, 17, 18, 19, 15, 14, 13, 12, 11)),
    ),
    ("em", "crown41"): (
        list(range(20, 32)),
        (20, (1, 3, 2, 6, 5, 8, 7, 4), (16, 15, 12, 13, 14, 9, 11, 10)),
    ),
    ("em", "spider222"): (
        list(range(18, 25)),
        (18, (2, 3, 7, 4, 5, 6, 1), (13, 8, 12, 9, 10, 11)),
    ),
    ("sem", "c7"): ([19], (19, (1, 4, 2, 5, 6, 3, 7), (14, 13, 12, 8, 10, 9, 11))),
    ("sem", "c8"): ([], None),
    ("sem", "c12"): ([], None),
    ("sem", "crown51"): (
        list(range(24, 30)),
        (24, (1, 3, 5, 2, 4, 8, 7, 6, 10, 9), (20, 16, 17, 18, 19, 15, 14, 13, 12, 11)),
    ),
    ("sem", "crown41"): (
        list(range(20, 24)),
        (20, (1, 3, 2, 6, 5, 8, 7, 4), (16, 15, 12, 13, 14, 9, 11, 10)),
    ),
    ("sem", "spider222"): ([18, 19], (18, (2, 3, 7, 4, 5, 6, 1), (13, 8, 12, 9, 10, 11))),
}
SINGLE_OPEN_WITNESSES_SHA256 = "263cac20d540a8a50728786972c8f4b9e22a1d286d61e5c1a591ed0e7a1824f6"


def test_cycle_crown_and_spider_spectra_and_first_hits_are_frozen():
    graphs = {
        "c7": mk_cycle(7),
        "c8": mk_cycle(8),
        "c12": mk_cycle(12),
        "crown51": mk_crown(5, 1),
        "crown41": mk_crown(4, 1),
        "spider222": SPIDER222,
    }
    digest = hashlib.sha256()
    for (kind, name), (achieved, first_hit) in FROZEN_SINGLE_OPEN.items():
        spectrum, first = (
            (em_spectrum, first_em_labeling) if kind == "em" else (sem_spectrum, first_sem_labeling)
        )
        rep = spectrum(graphs[name], cap=40)
        assert list(rep.achieved) == achieved, (kind, name)
        for k, w in rep.witnesses.items():
            digest.update(f"{kind} {name} {k} {w.vertex_labels} {w.edge_labels}\n".encode())
        hit = first(graphs[name], cap=40)
        got = None if hit is None else (hit[0], hit[1].vertex_labels, hit[1].edge_labels)
        assert got == first_hit, (kind, name)
    assert digest.hexdigest() == SINGLE_OPEN_WITNESSES_SHA256


# The split doubling of P3 at n = 2 (the benchmark's S2(P3,2)): a double
# star and two isolated vertices.  Once both centres are placed, the
# bigger centre's open edges often take every free pair of their sum and
# the other centre must pair off among the labels left.  Frozen before
# the pair count recounted after such a tight centre.
DOUBLED_P3 = Graph(9, ((1, 2), (2, 3), (1, 6), (2, 5), (1, 9), (2, 8)))
FROZEN_DOUBLED_P3 = {
    "em": (list(range(17, 32)), (17, (2, 1, 3, 10, 4, 6, 15, 5, 7), (14, 13, 9, 12, 8, 11))),
    "sem": (list(range(19, 27)), (19, (3, 1, 5, 6, 7, 2, 9, 8, 4), (15, 13, 14, 11, 12, 10))),
}
DOUBLED_P3_WITNESSES_SHA256 = "74ecb3529423ce55af6d97383d2f072a0caae62e044e037ade34d1242c825b58"


def test_doubled_p3_spectra_and_first_hits_are_frozen():
    digest = hashlib.sha256()
    for kind, (achieved, first_hit) in FROZEN_DOUBLED_P3.items():
        spectrum, first = (
            (em_spectrum, first_em_labeling) if kind == "em" else (sem_spectrum, first_sem_labeling)
        )
        rep = spectrum(DOUBLED_P3)
        assert list(rep.achieved) == achieved, kind
        for k, w in rep.witnesses.items():
            digest.update(f"{kind} {k} {w.vertex_labels} {w.edge_labels}\n".encode())
        k, w = first(DOUBLED_P3)
        assert (k, w.vertex_labels, w.edge_labels) == first_hit, kind
    assert digest.hexdigest() == DOUBLED_P3_WITNESSES_SHA256


def _complete(n: int) -> Graph:
    return Graph(n, tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)))


# Frozen before the search checked degree congruences and cut at the
# middle valence, which may not change a spectrum or a searched witness.
# K4 has no edge magic labeling: its degrees are odd and p = 4 (mod 8).
FROZEN_COMPLETE = {
    ("em", "k4"): ([], None),
    ("sem", "k4"): ([], None),
    ("em", "k5"): ([18, 24, 30], (18, (1, 2, 3, 5, 9), (15, 14, 12, 8, 13, 11, 7, 10, 6, 4))),
    ("sem", "k5"): ([], None),
    ("em", "k6"): (
        [25, 29, 37, 41],
        (25, (1, 3, 4, 5, 9, 14), (21, 20, 19, 15, 10, 18, 17, 13, 8, 16, 12, 7, 11, 6, 2)),
    ),
    ("sem", "k6"): ([], None),
}
COMPLETE_WITNESSES_SHA256 = "73e9bc2bae7630df678b821ba8f47de56e977ac2f6fbb0ca0e5ac0806a6109db"


def test_complete_graph_spectra_and_first_hits_are_frozen():
    digest = hashlib.sha256()
    for (kind, name), (achieved, first_hit) in FROZEN_COMPLETE.items():
        G = _complete(int(name[1:]))
        spectrum, first = (
            (em_spectrum, first_em_labeling) if kind == "em" else (sem_spectrum, first_sem_labeling)
        )
        rep = spectrum(G, cap=21)
        assert list(rep.achieved) == achieved, (kind, name)
        for k, w in rep.witnesses.items():
            digest.update(f"{kind} {name} {k} {w.vertex_labels} {w.edge_labels}\n".encode())
        hit = first(G, cap=21)
        got = None if hit is None else (hit[0], hit[1].vertex_labels, hit[1].edge_labels)
        assert got == first_hit, (kind, name)
    assert digest.hexdigest() == COMPLETE_WITNESSES_SHA256
    assert em_spectrum(_complete(4)).achieved == ()


def test_middle_valence_witness_is_least_under_duality_and_twin_swaps():
    # The witness at the self-dual valence c/2 is the least vertex-label
    # tuple in plan order (degree descending, then index) among all its
    # labelings, so no dual of it, with the first vertex v0 traded for a
    # twin or not, is smaller.
    graphs = dict(WIDE_CORPUS)
    graphs.update(
        (f"k{m}{n}", mk_complete_bipartite(m, n))
        for m in range(1, 4) for n in range(m, 7) if m + n + m * n <= 14
    )
    checked = 0
    for name, G in graphs.items():
        deg = G.degrees()
        order = sorted(range(1, G.p + 1), key=lambda v: (-deg[v - 1], v))
        v0 = order[0]
        mates = next((c for c in twin_classes(G) if v0 in c), [v0])
        for kind, spectrum in (("em", em_spectrum), ("sem", sem_spectrum)):
            c = _mirror(G, kind)
            w = spectrum(G).witnesses.get(c // 2) if c % 2 == 0 else None
            if w is None:
                continue
            dual = _dual(G, w, kind).vertex_labels
            for u in mates:
                swapped = {v0: dual[u - 1], u: dual[v0 - 1]}
                other = [swapped.get(v, dual[v - 1]) for v in order]
                assert [w.vertex_labels[v - 1] for v in order] <= other, (name, kind, u)
                checked += 1
    assert checked > 10


def test_isolated_vertices_add_no_recursion_depth():
    # 1098 isolated vertices take the free labels least first, after the
    # search has placed the one edge; one recursion level each would
    # exceed the interpreter's recursion limit
    G = Graph(1100, ((1, 2),))
    v, w = first_em_labeling(G, cap=5000)
    assert (v, w.vertex_labels, w.edge_labels) == (6, (1, 2, *range(4, 1102)), (3,))
    v, w = first_sem_labeling(G, cap=5000)
    assert (v, w.vertex_labels, w.edge_labels) == (1104, tuple(range(1, 1101)), (1101,))


def _nested(depth: int, call):
    """call() under depth + 1 frames of this function."""
    return call() if depth == 0 else _nested(depth - 1, call)


def test_the_depth_refusal_names_the_limit_and_the_frames_in_use():
    # the search takes one frame per vertex of positive degree on top of
    # the caller's, so where it is refused depends on the caller's stack;
    # K1,n with n at the limit is refused from any stack
    limit = sys.getrecursionlimit()
    G = mk_complete_bipartite(1, limit)
    in_use = []
    for extra in (0, 60):
        with pytest.raises(BudgetExceededError) as info:
            _nested(extra, lambda: first_em_labeling(G, cap=3 * limit))
        match = re.fullmatch(
            rf"refusing exhaustive search: depth {limit + 1} \(vertices of positive degree\)"
            rf" does not fit in the interpreter's recursion limit of {limit}"
            r" with (\d+) frames already in use",
            str(info.value),
        )
        assert match, str(info.value)
        in_use.append(int(match[1]))
    assert in_use[1] - in_use[0] == 60


# Corner cases of the remainder's weights, deg(v) - 1 for edge magic and
# deg(v) minus the least degree for super edge magic labelings: a lone
# loop beside isolated vertices (edge magic: the isolated vertices weigh
# -1 and each unforced edge 0); isolated vertices beside several edges;
# trees and a star whose last vertices weigh 0, so that the last weighted
# vertex takes the one label the remainder leaves; and regular graphs,
# where every super edge magic weight is 0.
WEIGHT_CORNERS = [
    ("loop beside 1 isolated", Graph(2, ((1, 1),)), ("em", "sem")),
    ("loop beside 6 isolated", Graph(7, ((1, 1),)), ("em", "sem")),
    ("triangle beside 2 isolated", Graph(5, ((2, 3), (3, 4), (4, 2))), ("em", "sem")),
    ("P4 beside 1 isolated", Graph(5, ((1, 2), (2, 3), (3, 4))), ("em", "sem")),
    ("K1,3", mk_complete_bipartite(1, 3), ("em", "sem")),
    ("fork", Graph(5, ((1, 2), (1, 3), (1, 4), (4, 5))), ("em", "sem")),
    ("P5", Graph(5, ((1, 2), (2, 3), (3, 4), (4, 5))), ("em", "sem")),
    ("C3", mk_cycle(3), ("em", "sem")),
    ("C4", mk_cycle(4), ("em", "sem")),
    ("C5", mk_cycle(5), ("sem",)),
]


@pytest.mark.parametrize("G, kinds", [c[1:] for c in WEIGHT_CORNERS], ids=[c[0] for c in WEIGHT_CORNERS])
def test_weight_corner_cases_match_the_oracles(G, kinds):
    for kind in kinds:
        spectrum, first = (em_spectrum, first_em_labeling) if kind == "em" else (sem_spectrum, first_sem_labeling)
        rep = spectrum(G)
        naive = naive_valences(G, kind)
        assert list(rep.achieved) == naive, kind
        hit = first(G)
        assert (None if hit is None else hit[0]) == (naive[0] if naive else None), kind
        deg = G.degrees()
        order = sorted(range(1, G.p + 1), key=lambda v: (-deg[v - 1], v))
        for k in range(rep.interval.lo, _mirror(G, kind) // 2 + 1):
            w = rep.witnesses.get(k)
            got = None if w is None else tuple(w.vertex_labels[v - 1] for v in order)
            assert got == naive_least_witness(G, kind, k), (kind, k)


def test_lower_half_spectrum_witness_is_frozen():
    # 2 * 25 < 3 * (8 + 8 + 1), so valence 25 of C8 is searched, not mirrored
    w = em_spectrum(mk_cycle(8)).witnesses[25]
    assert (w.vertex_labels, w.edge_labels) == (
        (1, 8, 2, 12, 9, 13, 5, 14),
        (16, 15, 11, 4, 3, 7, 6, 10),
    )


# Property tests over random multigraphs.  derandomize fixes the examples,
# so every run checks the same graphs.
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def multigraphs(draw, max_labels: int) -> Graph:
    """Graphs with at least one edge and p+q <= max_labels; loops and
    parallel edges allowed, isolated vertices too."""
    p = draw(st.integers(1, max_labels - 1))
    vertex = st.integers(1, p)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=max_labels - p))
    return Graph(p, tuple(edges))


@DETERMINISTIC
@given(multigraphs(8))
def test_random_multigraph_spectra_match_naive_enumeration(G):
    assert list(em_spectrum(G).achieved) == naive_valences(G, "em")
    assert list(sem_spectrum(G).achieved) == naive_valences(G, "sem")


@DETERMINISTIC
@given(multigraphs(12))
def test_upper_half_witnesses_are_duals_of_the_lower_half(G):
    for kind, spectrum, recheck in (
        ("em", em_spectrum, valence_of),
        ("sem", sem_spectrum, is_super_edge_magic),
    ):
        rep = spectrum(G)
        c = _mirror(G, kind)
        assert {c - k for k in rep.achieved} == set(rep.achieved)
        for k, w in rep.witnesses.items():
            assert recheck(G, w) == k
            if 2 * k > c:
                assert w == _dual(G, rep.witnesses[c - k], kind)


@st.composite
def twin_rich_multigraphs(draw) -> Graph:
    """Graphs with p+q <= 9 and p <= 5, so that the naive oracle stays
    fast, full of false twins: stars, some with a loop at the center or a
    pendant on one leaf, K_m,n with pendants, doublings of K2, and small
    multigraphs with duplicated vertices beside loops on vertices that
    are not duplicated."""
    family = draw(st.sampled_from(("star", "bipartite", "doubling", "looped")))
    if family == "star":
        m = draw(st.integers(1, 4))
        edges = [(1, leaf) for leaf in range(2, m + 2)]
        edges += [(1, 1)] * draw(st.integers(0, 1)) + [(2, m + 2)] * draw(st.integers(0, 1))
        G = Graph(max(v for e in edges for v in e), tuple(edges))
    elif family == "bipartite":
        m, n = draw(st.integers(1, 2)), draw(st.integers(1, 3))
        K = mk_complete_bipartite(m, n)
        ends = draw(st.lists(st.integers(1, m + n), max_size=2))
        G = Graph(K.p + len(ends), K.edges + tuple((v, K.p + i) for i, v in enumerate(ends, 1)))
    elif family == "doubling":
        K2 = Graph(2, ((1, 2),))
        part1 = draw(st.sampled_from((frozenset(), frozenset({1}))))
        d = Decomposition(K2, part1, frozenset({1}) - part1)
        G = build_s2n(K2, bipartition(K2), d, 1).graph
    else:
        b = draw(st.integers(1, 3))
        vertex = st.integers(1, b)
        base = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=3))
        edges = list(base)
        p = b
        for v in draw(st.lists(vertex, max_size=3)):
            if (v, v) not in base:
                p += 1
                edges += [(p, w if u == v else u) for u, w in base if v in (u, w)]
        G = Graph(p, tuple(edges))
    assume(G.p + G.q <= 9 and G.p <= 5)
    return G


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(twin_rich_multigraphs())
def test_twin_rich_spectra_match_naive_and_witnesses_order_twins(G):
    classes = twin_classes(G)
    for kind, spectrum in (("em", em_spectrum), ("sem", sem_spectrum)):
        rep = spectrum(G)
        assert list(rep.achieved) == naive_valences(G, kind)
        for k, w in rep.witnesses.items():
            if 2 * k <= _mirror(G, kind):
                for twins in classes:
                    labels = [w.vertex_labels[v - 1] for v in twins]
                    assert labels == sorted(labels), (kind, k, twins)


def _meets_root_congruence(G: Graph, kind: str, k: int) -> bool:
    """Whether valence k meets the congruence that summing the edge
    equation over all q edges gives.  Every label is used once, so for
    edge magic labelings q*k - (p+q)(p+q+1)/2 = sum over v of
    (deg(v) - 1) * f(v); for super edge magic ones the vertex labels are
    1..p and, with d the degree of vertex 1,
    q*k - (p+1 + ... + p+q) - d * p(p+1)/2 = sum over v of (deg(v) - d) * f(v).
    Either way the gcd g of the weights divides the left side, which is 0
    when g is."""
    p, q, deg = G.p, G.q, G.degrees()
    if kind == "em":
        g = gcd(*(d - 1 for d in deg))
        rest = q * k - (p + q) * (p + q + 1) // 2
    else:
        g = gcd(*(d - deg[0] for d in deg))
        rest = q * k - sum(range(p + 1, p + q + 1)) - deg[0] * p * (p + 1) // 2
    return rest % g == 0 if g else rest == 0


@st.composite
def congruent_multigraphs(draw) -> Graph:
    """Graphs with p+q <= 9 and p <= 5 whose degrees are all odd or all
    congruent to 1 modulo 3 or 4: multigraphs with such degrees, loops
    allowed, odd-regular ones among them, some with one more vertex of
    any degree; stars with a loop at the center, which are the crowns of
    a loop (a crown on a cycle has 12 labels or more, beyond the naive
    oracle, and one on a digon repeats an edge); and K_m,n with m and n
    of equal parity."""
    family = draw(st.sampled_from(("congruent", "looped star", "bipartite")))
    if family == "congruent":
        m = draw(st.integers(2, 4))
        degrees = draw(st.lists(st.integers(0, 1).map(lambda a: 1 + m * a), min_size=2, max_size=5))
        if draw(st.booleans()):
            degrees = [degrees[0]] * len(degrees)
        # one vertex off the residue class leaves a larger gcd deeper down
        degrees += draw(st.lists(st.integers(0, 4), max_size=1))
        assume(sum(degrees) % 2 == 0)
        stubs = draw(st.permutations([v for v, d in enumerate(degrees, 1) for _ in range(d)]))
        G = Graph(len(degrees), tuple(zip(stubs[::2], stubs[1::2])))
        # a repeated edge leaves no labeling, a case multigraphs covers
        assume(len(set(G.edges)) == G.q)
    elif family == "looped star":
        G = mk_star_with_loop(draw(st.integers(1, 3)))
    else:
        m, n = draw(st.sampled_from(((1, 1), (1, 3), (2, 2))))
        G = mk_complete_bipartite(m, n)
    assume(G.p + G.q <= 9 and G.p <= 5)
    return G


@DETERMINISTIC
@given(st.one_of(multigraphs(8), congruent_multigraphs()))
def test_naive_valences_meet_the_root_congruence(G):
    for kind, spectrum, first in (
        ("em", em_spectrum, first_em_labeling),
        ("sem", sem_spectrum, first_sem_labeling),
    ):
        naive = naive_valences(G, kind)
        assert all(_meets_root_congruence(G, kind, k) for k in naive), kind
        assert list(spectrum(G).achieved) == naive, kind
        hit = first(G)
        assert (None if hit is None else hit[0]) == (naive[0] if naive else None), kind


@st.composite
def hub_rich_graphs(draw) -> Graph:
    """Graphs with p+q <= 9 and p <= 5, so that the naive oracle stays
    fast, built around vertices of high degree: spiders, caterpillars,
    double stars and stars with a loop at the center or pendants on
    leaves, with their vertices renumbered so that plan order ties fall
    either way."""
    family = draw(st.sampled_from(("spider", "caterpillar", "double star", "star")))
    if family == "spider":
        edges, p = [], 1
        for length in draw(st.lists(st.integers(1, 2), min_size=1, max_size=4)):
            for step in range(length):
                p += 1
                edges.append((1 if step == 0 else p - 1, p))
    elif family == "caterpillar":
        spine = draw(st.integers(2, 3))
        edges = [(i, i + 1) for i in range(1, spine)]
        p = spine
        for v in draw(st.lists(st.integers(1, spine), min_size=1, max_size=3)):
            p += 1
            edges.append((v, p))
    elif family == "double star":
        a, b = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        edges = [(1, 2)] + [(1, 2 + i) for i in range(1, a + 1)]
        edges += [(2, 2 + a + j) for j in range(1, b + 1)]
        p = 2 + a + b
    else:
        m = draw(st.integers(2, 4))
        edges = [(1, leaf) for leaf in range(2, m + 2)]
        p = m + 1
        if draw(st.booleans()):
            edges.append((1, 1))
        else:
            for leaf in draw(st.lists(st.integers(2, m + 1), max_size=2, unique=True)):
                p += 1
                edges.append((leaf, p))
    perm = draw(st.permutations(range(1, p + 1)))
    G = Graph(p, tuple((perm[u - 1], perm[v - 1]) for u, v in edges))
    assume(G.p + G.q <= 9 and G.p <= 5)
    return G


@st.composite
def late_neighbour_graphs(draw) -> Graph:
    """Graphs with p <= 5, so that the naive oracle stays fast (p+q <= 9
    on paths, 10 on unicyclic graphs), in which a placed vertex's last
    unplaced neighbour comes two or more depths after it, so that one
    open edge waits there: cycles C3-C5 with up to two pendants, and
    paths, with their vertices renumbered so that plan order ties fall
    either way."""
    if draw(st.booleans()):
        m = draw(st.integers(3, 5))
        edges = [(i, i % m + 1) for i in range(1, m + 1)]
        p = m
        for v in draw(st.lists(st.integers(1, m), max_size=min(2, 5 - m))):
            p += 1
            edges.append((v, p))
    else:
        p = draw(st.integers(2, 5))
        edges = [(i, i + 1) for i in range(1, p)]
    perm = draw(st.permutations(range(1, p + 1)))
    return Graph(p, tuple((perm[u - 1], perm[v - 1]) for u, v in edges))


@st.composite
def closing_graphs(draw) -> Graph:
    """Graphs with p+q <= 10 and p <= 6 that reach the closing depth, the
    first at which every edge has a placed end, with labels left for
    several placed vertices: K2,n and K3,n with up to two pendants, and
    stars with a loop at the center, each beside 0-2 isolated vertices
    (an isolated vertex may take any free label for edge magic
    labelings, only a vertex label for super edge magic ones), with
    their vertices renumbered so that plan order ties fall either way."""
    if draw(st.booleans()):
        m, n = draw(st.integers(2, 3)), draw(st.integers(1, 2))
        edges = [(i, m + j) for i in range(1, m + 1) for j in range(1, n + 1)]
        p = m + n
        for v in draw(st.lists(st.integers(1, m + n), max_size=2)):
            p += 1
            edges.append((v, p))
    else:
        m = draw(st.integers(1, 4))
        edges = [(1, leaf) for leaf in range(2, m + 2)] + [(1, 1)]
        p = m + 1
    p += draw(st.integers(0, 2))
    assume(p + len(edges) <= 10 and p <= 6)
    perm = draw(st.permutations(range(1, p + 1)))
    return Graph(p, tuple((perm[u - 1], perm[v - 1]) for u, v in edges))


@settings(derandomize=True, database=None, deadline=None, max_examples=135)
@given(st.one_of(hub_rich_graphs(), late_neighbour_graphs(), closing_graphs()))
def test_lower_half_witnesses_are_the_least_in_plan_order(G):
    # the search returns, at each searched valence, the least vertex-label
    # tuple in plan order, so every exact cut must keep that labeling
    deg = G.degrees()
    order = sorted(range(1, G.p + 1), key=lambda v: (-deg[v - 1], v))
    for kind, spectrum in (("em", em_spectrum), ("sem", sem_spectrum)):
        rep = spectrum(G)
        c = _mirror(G, kind)
        for k in range(rep.interval.lo, c // 2 + 1):
            w = rep.witnesses.get(k)
            got = None if w is None else tuple(w.vertex_labels[v - 1] for v in order)
            assert got == naive_least_witness(G, kind, k), (kind, k)
