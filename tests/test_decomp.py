"""Edge splits, split doublings, the product isomorphism, obstruction reports."""
from __future__ import annotations

import hashlib
import re
from dataclasses import astuple

import pytest

from edgemagic import (
    ArcAssignment,
    Bipartition,
    BudgetExceededError,
    Decomposition,
    Digraph,
    Graph,
    InvalidLabelingError,
    LabeledDigraph,
    TotalLabeling,
    bipartition,
    build_s2n,
    complement,
    edges_match_under,
    em_spectrum,
    enumerate_2_decompositions,
    extend_vertex_labeling,
    first_em_labeling,
    induced_labeling_from_sem_factors,
    induced_s2n_labeling,
    is_super_edge_magic,
    mk_complete_bipartite,
    mk_crown,
    mk_cycle,
    normalize_by_labels,
    obstruction_report,
    orient_cycle,
    orient_for_decomposition,
    s2n_iso_map,
    sem_factor_key,
    sem_spectrum,
    star_loop_labeling,
    tensor_product,
    transport,
    valence_of,
    verify_s2n_iso,
)
from edgemagic import decomp, products
from naive import WIDE_CORPUS, through_member_map

P3 = Graph(3, ((1, 2), (2, 3)))
P4 = Graph(4, ((1, 2), (2, 3), (3, 4)))
K33 = mk_complete_bipartite(3, 3)


def _h_degrees(G: Graph, part: frozenset[int]) -> list[int]:
    degs = [0] * (G.p + 1)
    for i in part:
        u, v = G.edges[i - 1]
        degs[u] += 1
        degs[v] += 1
    return degs


def test_decomposition_coerces_and_validates():
    d = Decomposition(P3, {1})
    assert type(d.part1) is frozenset and d.part1 == {1}
    assert type(d.part2) is frozenset and d.part2 == {2}
    assert Decomposition(P3, frozenset()).part2 == {1, 2}
    assert Decomposition(K33, frozenset(range(1, 10))).part2 == frozenset()
    for bad in ({0}, {P3.q + 1}, {"1"}):
        with pytest.raises(ValueError, match=r"^edge indices must lie in 1\.\.2$"):
            Decomposition(P3, bad)


def test_enumeration_counts_and_order():
    c3 = mk_cycle(3)
    splits = list(enumerate_2_decompositions(c3))
    assert len(splits) == 6
    assert splits[0].part1 == frozenset({1})
    assert len(list(enumerate_2_decompositions(c3, include_empty=True))) == 8
    assert len(list(enumerate_2_decompositions(mk_cycle(4)))) == 14
    assert len(list(enumerate_2_decompositions(mk_cycle(4), include_empty=True))) == 16
    assert list(enumerate_2_decompositions(Graph(2, ((1, 2),)))) == []
    with pytest.raises(BudgetExceededError):
        list(enumerate_2_decompositions(K33, cap=8))


def test_orientation_follows_the_split():
    c4 = mk_cycle(4)
    bip = bipartition(c4)
    alternating = Decomposition(c4, frozenset({1, 3}))
    assert orient_for_decomposition(c4, bip, alternating).arcs == orient_cycle(4).arcs
    one_way = Decomposition(c4, frozenset({1, 2, 3, 4}))
    D = orient_for_decomposition(c4, bip, one_way)
    assert all(u in bip.X and v in bip.Y for u, v in D.arcs)
    assert Graph(D.p, D.arcs).edges == c4.edges


def test_orientation_input_errors():
    c4 = mk_cycle(4)
    bip = bipartition(c4)
    foreign = Decomposition(P3, frozenset({1}))
    with pytest.raises(ValueError):
        orient_for_decomposition(c4, bip, foreign)
    d = Decomposition(c4, frozenset({1, 3}))
    with pytest.raises(ValueError):
        orient_for_decomposition(c4, Bipartition({1, 2}, {3, 4}), d)


def test_doubling_sizes():
    bip = bipartition(K33)
    d = Decomposition(K33, frozenset(range(1, 10)) - {1, 5, 9})
    one = build_s2n(K33, bip, d, 1)
    assert (one.graph.p, one.graph.q) == (12, 18)
    two = build_s2n(K33, bip, d, 2)
    assert (two.graph.p, two.graph.q) == (18, 27)
    c4 = mk_cycle(4)
    dc = Decomposition(c4, frozenset({1, 3}))
    s = build_s2n(c4, bipartition(c4), dc, 1)
    assert (s.graph.p, s.graph.q) == (8, 8)


def test_doubling_degree_invariants():
    cases = [
        (K33, frozenset(range(1, 10)) - {1, 5, 9}),
        (mk_cycle(4), frozenset({1, 3})),
        (P4, frozenset({2})),
    ]
    for G, part1 in cases:
        bip = bipartition(G)
        d = Decomposition(G, part1)
        h1 = _h_degrees(G, d.part1)
        h2 = _h_degrees(G, d.part2)
        for n in (1, 2, 3):
            s = build_s2n(G, bip, d, n)
            degs = s.graph.degrees()
            base_degs = G.degrees()
            for v in range(1, G.p + 1):
                gain = h1[v] if v in bip.X else h2[v]
                assert degs[v - 1] == base_degs[v - 1] + n * gain
                mirror = h2[v] if v in bip.X else h1[v]
                for k in range(1, n + 1):
                    assert degs[s.copy_index(v, k) - 1] == mirror


def test_doubling_roles_and_copy_index():
    bip = bipartition(K33)
    d = Decomposition(K33, frozenset(range(1, 10)) - {1, 5, 9})
    s = build_s2n(K33, bip, d, 1)
    assert s.roles[:6] == (("x", 0),) * 3 + (("y", 0),) * 3
    assert s.roles[6:] == (("x", 1),) * 3 + (("y", 1),) * 3
    assert s.copy_index(1, 1) == 7
    assert s.copy_index(4, 1) == 10
    two = build_s2n(K33, bip, d, 2)
    assert two.copy_index(2, 2) == 14
    with pytest.raises(ValueError):
        s.copy_index(1, 0)
    with pytest.raises(ValueError):
        s.copy_index(1, 2)
    for v in (0, 7):
        with pytest.raises(ValueError):
            s.copy_index(v, 1)


def test_build_input_errors():
    bip = bipartition(P3)
    d = Decomposition(P3, frozenset({1}))
    with pytest.raises(ValueError):
        build_s2n(P3, bip, d, 0)
    digon = Graph(2, ((1, 2), (1, 2)))
    dd = Decomposition(digon, frozenset({1}))
    with pytest.raises(ValueError):
        build_s2n(digon, bipartition(digon), dd, 1)
    c4 = mk_cycle(4)
    with pytest.raises(ValueError):
        build_s2n(c4, bipartition(c4), d, 1)
    with pytest.raises(ValueError):
        build_s2n(P3, Bipartition({1, 2}, {3}), d, 1)
    # refused before any edge is built: 3 * (333333 + 1) is just above 10**6
    for n in (333333, 10**9):
        with pytest.raises(ValueError, match="vertices"):
            build_s2n(P3, bip, d, n)


def test_product_isomorphism_on_small_suite():
    suite = [Graph(2, ((1, 2),)), P3, P4, mk_cycle(4), mk_complete_bipartite(2, 3)]
    for G in suite:
        bip = bipartition(G)
        for d in enumerate_2_decompositions(G, include_empty=True):
            for n in (1, 2):
                assert verify_s2n_iso(G, bip, d, n)
    bip = bipartition(K33)
    d = Decomposition(K33, frozenset(range(1, 10)) - {1, 5, 9})
    for n in (1, 2, 3):
        assert verify_s2n_iso(K33, bip, d, n)


def test_iso_map_rejects_a_perturbed_copy():
    bip = bipartition(P3)
    d = Decomposition(P3, frozenset({1}))
    s = build_s2n(P3, bip, d, 1)
    D = orient_for_decomposition(P3, bip, d)
    star = Digraph(2, ((1, 1), (1, 2)))
    prod = tensor_product(D, (star,) * P3.q)
    assert edges_match_under(prod, s.graph, s2n_iso_map(s))
    # reroute the last cross edge to the wrong copy vertex
    bad = Graph(s.graph.p, s.graph.edges[:-1] + ((2, 4),))
    assert not edges_match_under(prod, bad, s2n_iso_map(s))


def _copy_index_map(s):
    """s2n_iso_map's map, each copy vertex found by S2nGraph.copy_index."""
    c = s.n + 1
    return {
        c * (a - 1) + i: s.copy_index(a, i - 1) if i > 1 else a
        for a in range(1, s.base.p + 1)
        for i in range(1, c + 1)
    }


def test_iso_map_matches_the_copy_index_map():
    for G in (P3, P4, mk_complete_bipartite(1, 3), mk_cycle(4)):
        bip = bipartition(G)
        for d in enumerate_2_decompositions(G, include_empty=True):
            for n in (1, 2, 3):
                s = build_s2n(G, bip, d, n)
                assert list(s2n_iso_map(s).items()) == list(_copy_index_map(s).items())


def test_induced_labeling_hits_the_valence_formula():
    bip = bipartition(P3)
    d = Decomposition(P3, frozenset({1}))
    for v, f in em_spectrum(P3).witnesses.items():
        for n in (1, 2):
            for r in range(1, n + 2):
                s, lab, val = induced_s2n_labeling(P3, bip, d, n, f, r)
                assert val == (n + 1) * (v - 2) + r + 1
                assert valence_of(s.graph, lab) == val


def test_induced_labeling_keeps_the_super_property():
    bip = bipartition(P3)
    d = Decomposition(P3, frozenset({2}))
    f = extend_vertex_labeling(P3, (1, 3, 2))
    assert is_super_edge_magic(P3, f) == 9
    for r in (1, 2):
        s, lab, val = induced_s2n_labeling(P3, bip, d, 1, f, r)
        assert is_super_edge_magic(s.graph, lab) == val == 2 * 7 + r + 1


def test_induced_labeling_rejects_non_magic_bases():
    bip = bipartition(P3)
    d = Decomposition(P3, frozenset({1}))
    with pytest.raises(ValueError):
        induced_s2n_labeling(P3, bip, d, 1, TotalLabeling((1, 2, 3), (4, 5)), 1)


def test_induced_labeling_names_its_refusals(monkeypatch):
    bip = bipartition(P3)
    d = Decomposition(P3, frozenset({1}))
    with pytest.raises(ValueError, match="base labeling is not edge magic"):
        induced_s2n_labeling(P3, bip, d, 1, TotalLabeling((1, 2, 3), (4, 5)), 1)
    with pytest.raises(InvalidLabelingError):
        induced_s2n_labeling(P3, bip, d, 1, TotalLabeling((1, 2, 3), (4,)), 1)
    # the base is checked first, then the copy count, then the center label
    _, f = first_em_labeling(P3)
    for n, r, err in (
        (0, 1, "need at least one copy"),
        (0, 0, "need at least one copy"),
        (1, 0, r"center label must lie in 1\.\.2"),
        (1, 3, r"center label must lie in 1\.\.2"),
        (2, 4, r"center label must lie in 1\.\.3"),
    ):
        with pytest.raises(ValueError, match=err):
            induced_s2n_labeling(P3, bip, d, n, f, r)
    with pytest.raises(ValueError, match="base labeling is not edge magic"):
        induced_s2n_labeling(P3, bip, d, 0, TotalLabeling((1, 2, 3), (4, 5)), 0)
    # a super edge magic base must give vertex labels 1..p on the doubling
    f = extend_vertex_labeling(P3, (1, 3, 2))
    labels = decomp._s2n_labels
    monkeypatch.setattr(decomp, "_s2n_labels", lambda s, f, r: complement(s.graph, labels(s, f, r)))
    with pytest.raises(RuntimeError, match="lost the vertex label range"):
        induced_s2n_labeling(P3, bip, d, 1, f, 1)


def test_induced_labeling_refuses_a_wrong_fiber_map(monkeypatch):
    bip = bipartition(P3)
    d = Decomposition(P3, frozenset({1}))
    _, f = first_em_labeling(P3)
    # a bijection that swaps two originals no longer matches the edges
    swapped = lambda s: {**s2n_iso_map(s), 1: 2, 3: 1}  # noqa: E731
    monkeypatch.setattr("edgemagic.decomp.s2n_iso_map", swapped)
    with pytest.raises(RuntimeError, match="does not match"):
        induced_s2n_labeling(P3, bip, d, 1, f, 1)


def test_induced_labeling_composes_once_and_renumbers_nothing(monkeypatch):
    made = []

    def counted(D, members):
        made.append(D)
        return tensor_product(D, members)

    def refused(member):
        raise AssertionError("normalize_by_labels called")

    monkeypatch.setattr(decomp, "tensor_product", counted)
    monkeypatch.setattr(products, "normalize_by_labels", refused)
    for G in (P3, P4, mk_cycle(4)):
        bip = bipartition(G)
        fs = list(em_spectrum(G).witnesses.values())
        for n in (1, 2):
            for d in enumerate_2_decompositions(G):
                for r in range(1, n + 2):
                    made.clear()
                    s, _, _ = induced_s2n_labeling(G, bip, d, n, fs[0], r)
                    assert made == [s.orientation]


def _s2n_labeling_oracle(G, bip, d, n, f, r):
    """The doubling labeling built through the public functions: f
    induced on the orientation composed with the star normalized by its
    labels, whose center then sits at fiber position r, and transported
    along the as-built fiber map read through the star's renumbering."""
    s = build_s2n(G, bip, d, n)
    outer = LabeledDigraph(orient_for_decomposition(G, bip, d), f)
    star = star_loop_labeling(n, r)
    ind = induced_labeling_from_sem_factors(outer, ArcAssignment.constant(star, G.q))
    iso = through_member_map(s2n_iso_map(s), normalize_by_labels(star)[1])
    return s, transport(ind.product, ind.labeling, iso, s.graph), ind.valence


def test_induced_labeling_matches_the_public_function_oracle():
    # every split, every edge magic and super edge magic witness and
    # every center of four small bases at one and two copies
    cases = 0
    for G in (P4, mk_complete_bipartite(1, 3), mk_cycle(4), mk_complete_bipartite(2, 3)):
        bip = bipartition(G)
        fs = list(em_spectrum(G).witnesses.values()) + list(sem_spectrum(G).witnesses.values())
        for n in (1, 2):
            for d in enumerate_2_decompositions(G):
                for f in fs:
                    for r in range(1, n + 2):
                        got = induced_s2n_labeling(G, bip, d, n, f, r)
                        assert got == _s2n_labeling_oracle(G, bip, d, n, f, r)
                        cases += 1
    # (splits, witnesses): P4 (6, 4), K1,3 (6, 5), C4 (14, 4), K2,3 (62, 7),
    # each at 2 + 3 centers
    assert cases == 5 * (6 * 4 + 6 * 5 + 14 * 4 + 62 * 7)


def _star_composition_labeling(s, f, r):
    """The paper's route to the doubling's labeling: the split's
    orientation composed with the star with loop of center label r, the
    product labeled by the super edge magic member rule and carried onto
    the doubling along the fiber map, the star composed as built."""
    star = star_loop_labeling(s.n, r)
    product = tensor_product(s.orientation, (star.digraph,) * s.base.q)
    members = (star,) * s.base.q
    ind = products._sem_induced(product, f, valence_of(s.base, f), sem_factor_key(star), members)
    return transport(product, ind.labeling, s2n_iso_map(s), s.graph), ind.valence


def test_closed_form_labeling_is_the_star_composition_labeling(monkeypatch):
    # every split, every edge magic and super edge magic witness and every
    # center of five small bases at one to three copies
    cases = 0
    for G in (P3, P4, mk_complete_bipartite(1, 3), mk_cycle(4), mk_complete_bipartite(2, 3)):
        bip = bipartition(G)
        fs = list(em_spectrum(G, cap=40).witnesses.values())
        fs += sem_spectrum(G, cap=40).witnesses.values()
        for n in (1, 2, 3):
            for d in enumerate_2_decompositions(G):
                for f in fs:
                    for r in range(1, n + 2):
                        s, lab, val = induced_s2n_labeling(G, bip, d, n, f, r)
                        assert (lab, val) == _star_composition_labeling(s, f, r)
                        if is_super_edge_magic(G, f) is not None:
                            assert sorted(lab.vertex_labels) == list(range(1, s.graph.p + 1))
                        cases += 1
    # (splits, witnesses): P3 (2, 5), P4 (6, 4), K1,3 (6, 5), C4 (14, 4),
    # K2,3 (62, 7), each at 2 + 3 + 4 centers
    assert cases == 9 * (2 * 5 + 6 * 4 + 6 * 5 + 14 * 4 + 62 * 7)

    # an original labeled as its first copy is refused, not returned
    labels = decomp._s2n_labels

    def one_level_off(s, f, r):
        vl = list((lab := labels(s, f, r)).vertex_labels)
        c = s.copy_index(1, 1)
        vl[0], vl[c - 1] = vl[c - 1], vl[0]
        return TotalLabeling(vl, lab.edge_labels)

    monkeypatch.setattr(decomp, "_s2n_labels", one_level_off)
    bip = bipartition(P4)
    for f in (first_em_labeling(P4)[1], extend_vertex_labeling(P4, (1, 3, 2, 4))):
        for d in enumerate_2_decompositions(P4):
            with pytest.raises(RuntimeError, match="lost its valence"):
                induced_s2n_labeling(P4, bip, d, 2, f, 2)


def test_doubling_of_a_magic_graph_is_magic():
    for G in (P4, mk_cycle(4), mk_complete_bipartite(2, 3)):
        bip = bipartition(G)
        v, f = first_em_labeling(G)
        d = next(enumerate_2_decompositions(G))
        s, lab, val = induced_s2n_labeling(G, bip, d, 1, f, 1)
        assert valence_of(s.graph, lab) == val == 2 * (v - 2) + 2


def _valid_p3_instance(n: int = 1):
    bip = bipartition(P3)
    d = Decomposition(P3, frozenset({1}))
    return build_s2n(P3, bip, d, n)


def test_report_passes_on_a_true_doubling():
    s = _valid_p3_instance()
    rep = obstruction_report(s.graph, s.roles, P3, 1)
    assert rep.instance and rep.overall == "no-obstruction"
    assert (rep.magic_test, rep.sem_count_test, rep.em_count_test) == ("pass",) * 3
    assert rep.h1_edges == ((1, 2),)
    assert rep.h2_edges == ((3, 2),)
    # the doubling meets both count bounds exactly here
    assert (rep.base_em_count, rep.base_sem_count) == (3, 2)
    assert rep.star_em_count == 2 * 3 + 2
    assert rep.star_sem_count == 2 * 2


def test_report_rejects_an_extra_cross_edge_between_levels():
    bip = bipartition(P3)
    d = Decomposition(P3, frozenset({1}))
    s = build_s2n(P3, bip, d, 2)
    mut = Graph(s.graph.p, s.graph.edges + ((3, s.copy_index(2, 1)),))
    rep = obstruction_report(mut, s.roles, P3, 2)
    assert not rep.instance
    assert rep.overall == "not-an-instance"
    assert "differ between copy levels" in rep.reason


def test_report_rejects_a_repeated_cross_edge():
    s = _valid_p3_instance()
    dup = Graph(s.graph.p, s.graph.edges + (s.graph.edges[2],))
    rep = obstruction_report(dup, s.roles, P3, 1)
    assert rep.overall == "not-an-instance"
    assert "repeat" in rep.reason


def test_report_rejects_same_side_and_copy_to_copy_edges():
    s = _valid_p3_instance()
    same = Graph(s.graph.p, s.graph.edges + ((1, 3),))
    rep = obstruction_report(same, s.roles, P3, 1)
    assert rep.overall == "not-an-instance" and "side" in rep.reason
    cc = Graph(s.graph.p, s.graph.edges + ((s.copy_index(1, 1), s.copy_index(2, 1)),))
    rep = obstruction_report(cc, s.roles, P3, 1)
    assert rep.overall == "not-an-instance" and "levels" in rep.reason


def test_report_rejects_a_broken_base_level():
    s = _valid_p3_instance()
    missing = Graph(s.graph.p, s.graph.edges[1:])
    rep = obstruction_report(missing, s.roles, P3, 1)
    assert rep.overall == "not-an-instance"
    assert "level 0" in rep.reason


def test_report_flags_an_overlapping_split_spectrally():
    # H1 = H2 = all of P3: a well formed candidate, but not a split
    edges = list(P3.edges)
    cp = {1: 4, 3: 5, 2: 6}
    edges += [(x, cp[y]) for x, y in ((1, 2), (3, 2))]
    edges += [(cp[x], y) for x, y in ((1, 2), (3, 2))]
    gstar = Graph(6, tuple(edges))
    roles = (("x", 0), ("y", 0), ("x", 0), ("x", 1), ("x", 1), ("y", 1))
    rep = obstruction_report(gstar, roles, P3, 1)
    assert rep.instance
    assert rep.overall == "no-decomposition"
    assert rep.magic_test == "obstruction"
    assert rep.sem_count_test == "obstruction"
    assert rep.em_count_test == "pass"
    assert rep.star_sem_count == 0 and rep.base_sem_count == 2


def test_report_keeps_an_unsplit_but_consistent_candidate():
    # extra cross pair (1, 4) is no edge of the path, yet every level
    # shows it, so the candidate is a doubling of some other pair
    bip = bipartition(P4)
    d = Decomposition(P4, frozenset({1, 3}))
    s = build_s2n(P4, bip, d, 1)
    mut = Graph(s.graph.p, s.graph.edges + ((1, s.copy_index(4, 1)),))
    rep = obstruction_report(mut, s.roles, P4, 1)
    assert rep.instance
    assert rep.h1_edges == ((1, 2), (1, 4), (3, 4))
    assert rep.overall == "no-obstruction"


def test_report_degrades_to_inconclusive_on_budget():
    s = _valid_p3_instance()
    rep = obstruction_report(s.graph, s.roles, P3, 1, cap=4)
    assert rep.overall == "inconclusive"
    assert rep.magic_test == "inconclusive: budget"
    rep = obstruction_report(s.graph, s.roles, P3, 1, cap=6)
    assert rep.overall == "inconclusive"
    assert rep.base_em_count == 3 and rep.star_em_count is None


def test_report_vacuous_pass_when_the_base_has_no_super_labelings():
    bip = bipartition(K33)
    d = Decomposition(K33, frozenset(range(1, 10)) - {1, 5, 9})
    s = build_s2n(K33, bip, d, 1)
    rep = obstruction_report(s.graph, s.roles, K33, 1)
    assert rep.overall == "inconclusive"
    assert rep.base_sem_count == 0
    assert rep.sem_count_test == "pass"
    assert rep.magic_test == "inconclusive: budget"


def test_report_rejects_malformed_roles_and_bases():
    s = _valid_p3_instance()
    with pytest.raises(ValueError):
        obstruction_report(s.graph, s.roles[:-1], P3, 1)
    bad_side = (("z", 0),) + s.roles[1:]
    with pytest.raises(ValueError):
        obstruction_report(s.graph, bad_side, P3, 1)
    bad_level = s.roles[:-1] + (("y", 2),)
    with pytest.raises(ValueError):
        obstruction_report(s.graph, bad_level, P3, 1)
    swapped = (("y", 0),) + s.roles[1:]
    with pytest.raises(ValueError):
        obstruction_report(s.graph, swapped, P3, 1)
    with pytest.raises(ValueError):
        obstruction_report(s.graph, s.roles, mk_cycle(3), 1)
    with pytest.raises(ValueError):
        obstruction_report(s.graph, s.roles, Graph(2, ((1, 2), (1, 2))), 1)
    with pytest.raises(ValueError):
        obstruction_report(s.graph, s.roles, P3, 0)
    # a level outside the integers 0..n is refused by name, not misfiled
    s2 = _valid_p3_instance(2)
    for level in (0.5, "1", None):
        odd = (("x", level),) + s2.roles[1:]
        message = rf"^vertex 1 has undefined role \('x', {re.escape(repr(level))}\)$"
        with pytest.raises(ValueError, match=message):
            obstruction_report(s2.graph, odd, P3, 2)


# Frozen doublings and reports.  The sha256 digests were recorded from a
# reference run, so any change to the edge order, the roles, the offsets
# or to a report field (reason text included) shows up here.
FROZEN_DOUBLINGS = (56, "be4f4683a6af7450312a5240bfe577b7c1bd51251e987449e4649d261c7485ce")
FROZEN_REPORTS = (1694, "a8e2a3f6353d410fece8cf8a5e7d0795c37f36d8fa8f0670ee3c6315e27120d6")


def _candidates(s):
    """The true doubling at caps 16 and 6, its base level alone, each
    one-edge drop and repeat, and at n = 1 each one-edge addition."""
    E = s.graph.edges
    yield E, 16
    yield E, 6
    yield E[: s.base.q], 16
    for i in range(len(E)):
        yield E[:i] + E[i + 1:], 16
        yield E + (E[i],), 16
    if s.n == 1:
        for u in range(1, s.graph.p + 1):
            for v in range(u + 1, s.graph.p + 1):
                if (u, v) not in E:
                    yield E + ((u, v),), 16


def test_doublings_and_reports_are_frozen():
    doublings, reports = hashlib.sha256(), hashlib.sha256()
    counts = [0, 0]
    for G in (P3, P4, mk_cycle(4), mk_complete_bipartite(1, 3)):
        bip = bipartition(G)
        for n in (1, 2):
            for d in enumerate_2_decompositions(G):
                s = build_s2n(G, bip, d, n)
                doublings.update(repr((s.graph.p, s.graph.edges, s.roles, s.offsets)).encode())
                counts[0] += 1
                for edges, cap in _candidates(s):
                    rep = obstruction_report(Graph(s.graph.p, edges), s.roles, G, n, cap)
                    reports.update(repr(astuple(rep)).encode())
                    counts[1] += 1
    assert (counts[0], doublings.hexdigest()) == FROZEN_DOUBLINGS
    assert (counts[1], reports.hexdigest()) == FROZEN_REPORTS


# Every split of P4 at n = 2, cap 26, frozen before the search broke twin
# symmetry: part1 -> (overall, base EM and SEM counts, doubling EM and
# SEM counts).  The copies of one base vertex at the two levels are twins.
FROZEN_P4_SWEEP = {
    (1,): ("no-obstruction", 3, 1, 25, 11),
    (2,): ("no-obstruction", 3, 1, 21, 11),
    (1, 2): ("no-obstruction", 3, 1, 25, 11),
    (3,): ("no-obstruction", 3, 1, 21, 11),
    (1, 3): ("no-obstruction", 3, 1, 21, 11),
    (2, 3): ("no-obstruction", 3, 1, 21, 11),
}


def test_p4_split_sweep_at_two_copies_is_frozen():
    bip = bipartition(P4)
    got = {}
    for d in enumerate_2_decompositions(P4):
        s = build_s2n(P4, bip, d, 2)
        rep = obstruction_report(s.graph, s.roles, P4, 2, cap=26)
        got[tuple(sorted(d.part1))] = (
            rep.overall,
            rep.base_em_count,
            rep.base_sem_count,
            rep.star_em_count,
            rep.star_sem_count,
        )
    assert got == FROZEN_P4_SWEEP


# The report counts the edge magic valences with the super edge magic
# witnesses, and their complements, taken as known, so it searches only
# the valences they leave open; the public spectra search every valence.
# Both must count the same valences, and refuse the same graphs.
def _spectrum_counts(H: Graph, cap: int) -> tuple[int | None, int | None]:
    try:
        return len(em_spectrum(H, cap).achieved), len(sem_spectrum(H, cap).achieved)
    except BudgetExceededError:
        return None, None


NAMED_AT_CAP_40 = {
    "k34": mk_complete_bipartite(3, 4),
    "k26": mk_complete_bipartite(2, 6),
    "k25pendant": Graph(8, mk_complete_bipartite(2, 5).edges + ((3, 8),)),
    "crown33": mk_crown(3, 3),
    "crown41": mk_crown(4, 1),
    "crown51": mk_crown(5, 1),
    "c7": mk_cycle(7),
    "c8": mk_cycle(8),
    "c12": mk_cycle(12),
    "spider222": Graph(7, ((1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7))),
    "doubled_p3": Graph(9, ((1, 2), (2, 3), (1, 6), (2, 5), (1, 9), (2, 8))),
}


def test_report_counts_match_the_spectra_on_named_graphs():
    graphs = [(name, G, 16) for name, G in WIDE_CORPUS.items()]
    graphs += [(name, G, 40) for name, G in NAMED_AT_CAP_40.items()]
    for name, G, cap in graphs:
        assert decomp._counts(G, cap) == _spectrum_counts(G, cap), name
    # beyond the cap both counts are refused, as the spectra are
    assert decomp._counts(mk_cycle(12), 16) == (None, None) == _spectrum_counts(mk_cycle(12), 16)


def test_report_counts_match_the_spectra_on_doublings_and_perturbations():
    expected: dict[tuple[Graph, int], tuple[int | None, int | None]] = {}

    def check(H: Graph, cap: int, got: tuple[int | None, int | None]) -> None:
        if (H, cap) not in expected:
            expected[H, cap] = _spectrum_counts(H, cap)
        assert got == expected[H, cap], (H, cap)

    instances = searched = 0
    for G in (P3, P4, mk_cycle(4), mk_complete_bipartite(1, 3)):
        bip = bipartition(G)
        for n in (1, 2):
            for d in enumerate_2_decompositions(G):
                s = build_s2n(G, bip, d, n)
                for edges, cap in ((s.graph.edges, 40), *_candidates(s)):
                    H = Graph(s.graph.p, edges)
                    rep = obstruction_report(H, s.roles, G, n, cap)
                    if rep.instance:
                        check(G, cap, (rep.base_em_count, rep.base_sem_count))
                        check(H, cap, (rep.star_em_count, rep.star_sem_count))
                        instances += 1
                        searched += rep.star_em_count is not None
    # every doubling at cap 40 is counted, not refused
    assert all(c != (None, None) for (H, cap), c in expected.items() if cap == 40)
    assert (instances, searched) == (428, 290)
