"""Product construction, factor keys, induced labelings, crown tables."""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgemagic import (
    ArcAssignment,
    CYCLE4_EM_LABELINGS,
    Digraph,
    LabeledDigraph,
    TotalLabeling,
    crown_iso_from_cycle_product,
    crown_iso_from_star_product,
    directed_cycle_order,
    edges_match_under,
    em_factor_key,
    em_spectrum,
    extend_vertex_labeling,
    induced_labeling_from_em_factors,
    induced_labeling_from_sem_factors,
    induced_sums,
    is_super_edge_magic,
    mk_crown,
    mk_cycle,
    normalize_by_labels,
    orient_cycle,
    predicted_valences,
    sem_factor_key,
    star_loop_labeling,
    star_product_valences,
    tensor_product,
    underlying,
    valence_count_floor,
    valence_of,
)
from naive import naive_kronecker


def _small_digraphs(p: int, max_arcs: int, allow_empty: bool) -> list[Digraph]:
    pairs = [(u, v) for u in range(1, p + 1) for v in range(1, p + 1)]
    lo = 0 if allow_empty else 1
    out = []
    for k in range(lo, max_arcs + 1):
        for combo in itertools.combinations(pairs, k):
            out.append(Digraph(p, combo))
    return out


def test_constant_product_matches_kronecker_oracle():
    outers = _small_digraphs(2, 2, allow_empty=False) + [orient_cycle(3)]
    members = (
        _small_digraphs(1, 1, allow_empty=True)
        + _small_digraphs(2, 2, allow_empty=True)
        + [orient_cycle(5), Digraph(5, ((1, 1), (2, 3), (5, 4)))]
    )
    for D in outers:
        for M in members:
            P = tensor_product(D, [M] * len(D.arcs))
            assert P.p == D.p * M.p
            assert len(P.arcs) == len(D.arcs) * len(M.arcs)
            assert set(P.arcs) == naive_kronecker(D.p, list(D.arcs), M.p, list(M.arcs))


def test_product_keeps_multiarcs():
    D = Digraph(2, ((1, 2),))
    M = Digraph(2, ((1, 2), (1, 2)))
    P = tensor_product(D, [M])
    assert P.arcs == ((1, 4), (1, 4))


def test_product_with_distinct_members_per_arc():
    D = Digraph(2, ((1, 2), (2, 1)))
    M1 = Digraph(2, ((1, 1),))
    M2 = Digraph(2, ((2, 1), (1, 2)))
    P = tensor_product(D, [M1, M2])
    # arc 1 fiber: (1,1) over (1,2); arc 2 fibers: (2,1) then (1,2) over (2,1)
    assert P.arcs == ((1, 3), (4, 1), (3, 2))
    assert P.p == 4


def test_product_input_errors():
    D = Digraph(2, ((1, 2),))
    with pytest.raises(ValueError):
        tensor_product(Digraph(3, ()), [])
    with pytest.raises(ValueError):
        tensor_product(D, [])
    with pytest.raises(ValueError):
        tensor_product(D, [Digraph(2, ()), Digraph(2, ())])
    D2 = Digraph(2, ((1, 2), (2, 1)))
    with pytest.raises(ValueError):
        tensor_product(D2, [Digraph(2, ()), Digraph(3, ())])


def test_normalize_by_labels_sorts_vertices_by_label():
    star = star_loop_labeling(2, 2)
    norm, newidx = normalize_by_labels(star)
    # center had label 2, so it moves to index 2; leaves to 1 and 3
    assert newidx == (2, 1, 3)
    assert norm.labeling.vertex_labels == (1, 2, 3)
    assert norm.digraph.arcs == ((2, 2), (2, 1), (2, 3))
    # edge labels ride along untouched
    assert norm.labeling.edge_labels == star.labeling.edge_labels


def test_normalized_sem_member_has_index_equal_to_label():
    for n in (1, 2, 3):
        for r in range(1, n + 2):
            norm, _ = normalize_by_labels(star_loop_labeling(n, r))
            assert norm.labeling.vertex_labels == tuple(range(1, n + 2))


def test_sem_factor_key_is_vertex_count_and_least_sum():
    for n in (1, 2, 3, 4):
        for r in range(1, n + 2):
            assert sem_factor_key(star_loop_labeling(n, r)) == (n + 1, r + 1)


def test_sem_factor_key_rejects_wrong_shape_and_kind():
    path = Digraph(3, ((1, 2), (2, 3)))
    lab = TotalLabeling((1, 3, 2), (5, 4))
    with pytest.raises(ValueError):
        sem_factor_key(LabeledDigraph(path, lab))  # q != p
    cyc = orient_cycle(4)
    with pytest.raises(ValueError):
        sem_factor_key(LabeledDigraph(cyc, CYCLE4_EM_LABELINGS[0]))  # not super


def test_em_factor_key_fields():
    member = LabeledDigraph(orient_cycle(4), CYCLE4_EM_LABELINGS[0])
    assert em_factor_key(member) == (4, 12, frozenset({1, 2, 3, 6}))
    bad = TotalLabeling((1, 2, 3, 4), (5, 6, 7, 8))
    with pytest.raises(ValueError):
        em_factor_key(LabeledDigraph(orient_cycle(4), bad))


def test_mixed_member_keys_are_rejected():
    cyc = LabeledDigraph(orient_cycle(4), CYCLE4_EM_LABELINGS[0])
    members = ArcAssignment(
        (star_loop_labeling(2, 1),) * 3 + (star_loop_labeling(2, 2),)
    )
    with pytest.raises(ValueError, match="share a key"):
        induced_labeling_from_sem_factors(cyc, members)


def test_empty_assignments_name_the_arc_count():
    cyc = LabeledDigraph(orient_cycle(4), CYCLE4_EM_LABELINGS[0])
    with pytest.raises(ValueError, match="need one member per arc: 4 arcs, 0 members"):
        induced_labeling_from_sem_factors(cyc, ArcAssignment(()))
    with pytest.raises(ValueError, match="need one member per arc: 3 arcs, 0 members"):
        induced_labeling_from_em_factors(star_loop_labeling(2, 1), ArcAssignment(()))


def test_star_loop_labeling_shape_and_valence():
    for n in (1, 2, 3, 5):
        for r in range(1, n + 2):
            star = star_loop_labeling(n, r)
            G = underlying(star.digraph)
            assert star.digraph.arcs[0] == (1, 1)
            assert star.labeling.vertex_labels[0] == r
            sums = sorted(induced_sums(G, star.labeling.vertex_labels))
            assert sums == list(range(r + 1, r + n + 2))
            assert is_super_edge_magic(G, star.labeling) == 2 * n + 3 + r
    with pytest.raises(ValueError):
        star_loop_labeling(0, 1)
    with pytest.raises(ValueError):
        star_loop_labeling(2, 4)


def test_cycle4_table_covers_the_whole_spectrum():
    c4 = mk_cycle(4)
    assert [valence_of(c4, L) for L in CYCLE4_EM_LABELINGS] == [12, 13, 14, 15]


def test_orient_cycle_matches_edge_order():
    D = orient_cycle(4)
    assert D.arcs == ((1, 2), (2, 3), (3, 4), (4, 1))
    assert underlying(D).edges == mk_cycle(4).edges
    with pytest.raises(ValueError):
        orient_cycle(2)


def test_directed_cycle_order_walks_the_arcs():
    assert directed_cycle_order(orient_cycle(5)) == [1, 2, 3, 4, 5]
    shuffled = Digraph(4, ((3, 1), (1, 4), (4, 2), (2, 3)))
    assert directed_cycle_order(shuffled) == [1, 4, 2, 3]
    with pytest.raises(ValueError):
        directed_cycle_order(Digraph(3, ((1, 2), (2, 3))))
    with pytest.raises(ValueError):
        directed_cycle_order(Digraph(2, ((1, 2), (1, 2))))
    with pytest.raises(ValueError):
        directed_cycle_order(Digraph(4, ((1, 2), (2, 1), (3, 4), (4, 3))))


def test_cycle_outer_induced_labeling_valence_formula():
    for L in CYCLE4_EM_LABELINGS:
        outer = LabeledDigraph(orient_cycle(4), L)
        v = valence_of(mk_cycle(4), L)
        for n in (1, 2, 3):
            for r in range(1, n + 2):
                star = star_loop_labeling(n, r)
                ind = induced_labeling_from_sem_factors(
                    outer, ArcAssignment.constant(star, 4)
                )
                assert ind.valence == (n + 1) * (v - 2) + r + 1
                assert valence_of(underlying(ind.product), ind.labeling) == ind.valence


def test_cycle_outer_product_is_super_when_outer_is():
    g = extend_vertex_labeling(mk_cycle(3), (1, 2, 3))
    assert is_super_edge_magic(mk_cycle(3), g) == 9
    outer = LabeledDigraph(orient_cycle(3), g)
    star = star_loop_labeling(2, 2)
    ind = induced_labeling_from_sem_factors(outer, ArcAssignment.constant(star, 3))
    prod = underlying(ind.product)
    assert is_super_edge_magic(prod, ind.labeling) == ind.valence == 3 * (9 - 2) + 3


def test_star_outer_induced_labeling_valence_formula():
    for L in CYCLE4_EM_LABELINGS:
        member = LabeledDigraph(orient_cycle(4), L)
        v = valence_of(mk_cycle(4), L)
        for n in (1, 2, 3):
            for r in range(1, n + 2):
                outer = star_loop_labeling(n, r)
                ind = induced_labeling_from_em_factors(
                    outer, ArcAssignment.constant(member, n + 1)
                )
                assert ind.valence == 8 * (n + r - 1) + v
                assert valence_of(underlying(ind.product), ind.labeling) == ind.valence


def test_star_outer_requires_super_square_outer():
    member = LabeledDigraph(orient_cycle(4), CYCLE4_EM_LABELINGS[0])
    path = Digraph(3, ((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        induced_labeling_from_em_factors(
            LabeledDigraph(path, TotalLabeling((1, 3, 2), (5, 4))),
            ArcAssignment.constant(member, 2),
        )


def test_cycle_outer_requires_edge_magic_outer():
    skew = TotalLabeling((1, 2, 3, 4), (5, 6, 7, 8))
    with pytest.raises(ValueError):
        induced_labeling_from_sem_factors(
            LabeledDigraph(orient_cycle(4), skew),
            ArcAssignment.constant(star_loop_labeling(1, 1), 4),
        )


def test_crown_iso_maps_products_onto_crowns():
    crown = mk_crown(4, 2)
    star = star_loop_labeling(2, 2)
    norm, _ = normalize_by_labels(star)
    P = tensor_product(orient_cycle(4), [norm.digraph] * 4)
    assert edges_match_under(underlying(P), crown, crown_iso_from_cycle_product(4, 2, 2))

    ncyc, _ = normalize_by_labels(
        LabeledDigraph(orient_cycle(4), CYCLE4_EM_LABELINGS[1])
    )
    star_outer = star_loop_labeling(2, 1)
    P2 = tensor_product(star_outer.digraph, [ncyc.digraph] * 3)
    assert edges_match_under(
        underlying(P2), crown, crown_iso_from_star_product(4, 2, ncyc.digraph)
    )


def test_crown_valence_table_is_the_full_interval():
    crown = mk_crown(4, 2)
    table = star_product_valences(4, 2, CYCLE4_EM_LABELINGS)
    assert sorted(table) == list(range(28, 48))
    for k, lab in table.items():
        assert valence_of(crown, lab) == k


def test_all_centers_flag_changes_nothing_for_the_crown_table():
    default = star_product_valences(4, 2, CYCLE4_EM_LABELINGS)
    widened = star_product_valences(4, 2, CYCLE4_EM_LABELINGS, all_centers=True)
    assert set(default) == set(widened)


def test_predicted_valences_match_the_constructed_table():
    c4 = mk_cycle(4)
    predicted = predicted_valences(c4, 2, (12, 13, 14, 15))
    assert predicted == set(range(28, 48))
    assert predicted == set(star_product_valences(4, 2, CYCLE4_EM_LABELINGS))
    widened = predicted_valences(c4, 2, (12, 13, 14, 15), all_centers=True)
    assert widened >= predicted


def test_valence_count_floor_cases():
    c4 = mk_cycle(4)
    # spread 3 < (12 - 10) * 2, so every achieved valence earns n + 3 products
    assert valence_count_floor(c4, 2, (12, 13, 14, 15)) == 20
    # spread too wide: only the guaranteed interleave plus two outliers
    assert valence_count_floor(c4, 2, (12, 17)) == 3 * 2 + 2
    assert valence_count_floor(c4, 1, ()) == 0


def test_cycle_outer_blocks_for_distinct_valences_do_not_collide():
    achieved = (12, 13, 14, 15)
    for n in (1, 2, 3, 4):
        for v, w in zip(achieved, achieved[1:]):
            assert (n + 1) * (v - 2) + (n + 2) < (n + 1) * (w - 2) + 2


def test_star_outer_extremes_bracket_the_cycle_outer_block():
    total = 8  # vertices plus edges of the 4-cycle
    for n in (1, 2, 3, 4):
        for v in (12, 13, 14, 15):
            low = total * n + v
            high = total * 2 * n + v
            block = [(n + 1) * (v - 2) + r + 1 for r in range(1, n + 2)]
            assert low < min(block)
            assert max(block) < high



# Property tests of both closed-form valences over random factor keys.
# derandomize fixes the examples, so every run checks the same inputs.
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=60)
# (m, valence) -> an edge magic labeling of the m-cycle, m = 3..5
CYCLE_WITNESSES = {
    (m, k): w for m in (3, 4, 5) for k, w in em_spectrum(mk_cycle(m)).witnesses.items()
}


def _reversed_some(draw, D: Digraph) -> Digraph:
    """D with a random subset of its arcs reversed: same underlying graph."""
    flips = draw(st.lists(st.booleans(), min_size=D.q, max_size=D.q))
    return Digraph(D.p, tuple((v, u) if flip else (u, v) for (u, v), flip in zip(D.arcs, flips)))


@DETERMINISTIC
@given(st.sampled_from(sorted(CYCLE_WITNESSES)), st.integers(1, 3), st.data())
def test_star_member_valence_formula_over_random_keys(cycle, n, data):
    # outer: an edge magic cycle; members: looped stars of key (n+1, r+1),
    # each arc with its own orientation of the spokes
    (m, v), r = cycle, data.draw(st.integers(1, n + 1))
    outer = LabeledDigraph(_reversed_some(data.draw, orient_cycle(m)), CYCLE_WITNESSES[cycle])
    star = star_loop_labeling(n, r)
    members = tuple(
        LabeledDigraph(_reversed_some(data.draw, star.digraph), star.labeling) for _ in range(m)
    )
    ind = induced_labeling_from_sem_factors(outer, ArcAssignment(members))
    expected = (n + 1) * (v - 3) + (r + 1) + (n + 1)
    assert ind.valence == expected == valence_of(underlying(ind.product), ind.labeling)


@DETERMINISTIC
@given(st.integers(1, 3), st.sampled_from(sorted(CYCLE_WITNESSES)), st.data())
def test_cycle_member_valence_formula_over_random_keys(n, cycle, data):
    # outer: a super edge magic looped star; members: edge magic cycles of
    # key (m, k, vertex label set), each arc with its own orientation
    (m, k), r = cycle, data.draw(st.integers(1, n + 1))
    outer = star_loop_labeling(n, r)
    members = tuple(
        LabeledDigraph(_reversed_some(data.draw, orient_cycle(m)), CYCLE_WITNESSES[cycle])
        for _ in range(n + 1)
    )
    ind = induced_labeling_from_em_factors(outer, ArcAssignment(members))
    kmin = min(induced_sums(underlying(outer.digraph), outer.labeling.vertex_labels))
    expected = (m + m) * (kmin + (n + 1) - 3) + k
    assert ind.valence == expected == valence_of(underlying(ind.product), ind.labeling)
