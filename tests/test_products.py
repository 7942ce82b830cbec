"""Product construction, factor keys, induced labelings, crown tables."""
from __future__ import annotations

import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgemagic import (
    ArcAssignment,
    CYCLE4_EM_LABELINGS,
    Digraph,
    Graph,
    InducedProductLabeling,
    InvalidLabelingError,
    LabeledDigraph,
    TotalLabeling,
    bipartition,
    crown_iso_from_cycle_product,
    crown_iso_from_star_product,
    edges_match_under,
    em_factor_key,
    em_spectrum,
    enumerate_2_decompositions,
    extend_vertex_labeling,
    induced_labeling_from_em_factors,
    induced_labeling_from_sem_factors,
    induced_s2n_labeling,
    induced_sums,
    is_super_edge_magic,
    mk_complete_bipartite,
    mk_crown,
    mk_cycle,
    normalize_by_labels,
    orient_cycle,
    predicted_valences,
    sem_factor_key,
    star_loop_labeling,
    star_product_valences,
    tensor_product,
    transport,
    valence_count_floor,
    valence_of,
)
from edgemagic import products
from naive import naive_kronecker, through_member_map


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


@pytest.mark.parametrize(
    "labeling",
    [
        TotalLabeling((1, 2, 3), (4, 5, 6, 7, 8)),  # 3 vertices and 5 arcs
        TotalLabeling((1, 1, 2, 3), (4, 5, 6, 7)),  # label 1 twice, 8 missing
    ],
)
def test_labeled_digraph_refuses_invalid_labelings(labeling):
    with pytest.raises(InvalidLabelingError):
        LabeledDigraph(orient_cycle(4), labeling)


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


def test_mixed_member_keys_name_the_first_mismatch():
    cyc = LabeledDigraph(orient_cycle(4), CYCLE4_EM_LABELINGS[0])
    members = ArcAssignment(
        (star_loop_labeling(2, 1),) * 3 + (star_loop_labeling(2, 2),)
    )
    with pytest.raises(ValueError) as err:
        induced_labeling_from_sem_factors(cyc, members)
    assert str(err.value) == (
        "members do not share a key: member 4 has (3, 3), member 1 has (3, 2)"
    )
    c13 = LabeledDigraph(orient_cycle(4), CYCLE4_EM_LABELINGS[1])
    with pytest.raises(ValueError) as err:
        induced_labeling_from_em_factors(star_loop_labeling(2, 1), ArcAssignment((cyc, c13, cyc)))
    assert str(err.value) == (
        f"members do not share a key: member 2 has {em_factor_key(c13)}, "
        f"member 1 has {em_factor_key(cyc)}"
    )


def _not_sem_star() -> LabeledDigraph:
    """A looped star on 3 vertices whose vertex labels are 4, 5, 6."""
    return LabeledDigraph(star_loop_labeling(2, 1).digraph, TotalLabeling((4, 5, 6), (1, 2, 3)))


def _not_em_cycle() -> LabeledDigraph:
    return LabeledDigraph(orient_cycle(4), TotalLabeling((1, 2, 3, 4), (5, 6, 7, 8)))


@pytest.mark.parametrize("shared", [True, False], ids=["one-object", "equal-objects"])
def test_a_bad_member_is_named_by_its_first_arc(shared):
    # the only bad member sits at arcs 2 and 4, as one object or as two
    # equal ones; a member with another key does not mask it
    cases = (
        (
            LabeledDigraph(orient_cycle(4), CYCLE4_EM_LABELINGS[0]),
            induced_labeling_from_sem_factors,
            star_loop_labeling(2, 1),
            star_loop_labeling(2, 2),
            _not_sem_star,
            "member labeling is not super edge magic",
        ),
        (
            star_loop_labeling(3, 1),
            induced_labeling_from_em_factors,
            LabeledDigraph(orient_cycle(4), CYCLE4_EM_LABELINGS[0]),
            LabeledDigraph(orient_cycle(4), CYCLE4_EM_LABELINGS[1]),
            _not_em_cycle,
            "member labeling is not edge magic",
        ),
    )
    for outer, induce, good, other, make_bad, why in cases:
        bad2 = make_bad()
        bad4 = bad2 if shared else make_bad()
        assert bad4 == bad2 and (bad4 is bad2) == shared
        with pytest.raises(ValueError, match=f"^member 2: {why}$"):
            induce(outer, ArcAssignment((good, bad2, good, bad4)))
        with pytest.raises(ValueError, match=f"^member 4: {why}$"):
            induce(outer, ArcAssignment((good, other, good, bad4)))
        with pytest.raises(ValueError, match="share a key"):
            induce(outer, ArcAssignment((good, good, good, other)))


def test_empty_assignments_name_the_arc_count():
    cyc = LabeledDigraph(orient_cycle(4), CYCLE4_EM_LABELINGS[0])
    with pytest.raises(ValueError, match="need one member per arc: 4 arcs, 0 members"):
        induced_labeling_from_sem_factors(cyc, ArcAssignment(()))
    with pytest.raises(ValueError, match="need one member per arc: 3 arcs, 0 members"):
        induced_labeling_from_em_factors(star_loop_labeling(2, 1), ArcAssignment(()))
    arcless = LabeledDigraph(Digraph(0, ()), TotalLabeling((), ()))
    with pytest.raises(ValueError, match="product of an arcless digraph is undefined"):
        induced_labeling_from_sem_factors(arcless, ArcAssignment(()))
    # the edge magic route refuses the outer labeling before keying members
    with pytest.raises(ValueError, match="outer labeling is not super edge magic"):
        induced_labeling_from_em_factors(arcless, ArcAssignment(()))


def test_star_loop_labeling_shape_and_valence():
    for n in (1, 2, 3, 5):
        for r in range(1, n + 2):
            star = star_loop_labeling(n, r)
            G = star.digraph
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
    assert Graph(D.p, D.arcs).edges == mk_cycle(4).edges
    with pytest.raises(ValueError):
        orient_cycle(2)


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
                assert valence_of(ind.product, ind.labeling) == ind.valence


def test_cycle_outer_product_is_super_when_outer_is():
    g = extend_vertex_labeling(mk_cycle(3), (1, 2, 3))
    assert is_super_edge_magic(mk_cycle(3), g) == 9
    outer = LabeledDigraph(orient_cycle(3), g)
    star = star_loop_labeling(2, 2)
    ind = induced_labeling_from_sem_factors(outer, ArcAssignment.constant(star, 3))
    assert is_super_edge_magic(ind.product, ind.labeling) == ind.valence == 3 * (9 - 2) + 3


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
                assert valence_of(ind.product, ind.labeling) == ind.valence


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


def test_crown_iso_maps_products_onto_crowns(monkeypatch):
    crown = mk_crown(4, 2)
    star, cyc = star_loop_labeling(2, 2), orient_cycle(4)
    # the factors as built
    P = tensor_product(cyc, [star.digraph] * 4)
    assert edges_match_under(P, crown, crown_iso_from_cycle_product(4, 2))
    P2 = tensor_product(star.digraph, [cyc] * 3)
    assert edges_match_under(P2, crown, crown_iso_from_star_product(4, 2))
    # the factors renumbered by their labels
    norm, star_map = normalize_by_labels(star)
    P = tensor_product(cyc, [norm.digraph] * 4)
    iso = through_member_map(crown_iso_from_cycle_product(4, 2), star_map)
    assert edges_match_under(P, crown, iso)
    ncyc, member_map = normalize_by_labels(LabeledDigraph(cyc, CYCLE4_EM_LABELINGS[1]))
    P2 = tensor_product(star.digraph, [ncyc.digraph] * 3)
    iso = through_member_map(crown_iso_from_star_product(4, 2), member_map)
    assert edges_match_under(P2, crown, iso)
    # the crown table matches each product under its map before using it,
    # so a map with the images of vertices 1 and 2 exchanged is refused
    cycle_map = products.crown_iso_from_cycle_product

    def wrong_map(m, n):
        iso = cycle_map(m, n)
        iso[1], iso[2] = iso[2], iso[1]
        return iso

    monkeypatch.setattr(products, "crown_iso_from_cycle_product", wrong_map)
    with pytest.raises(RuntimeError, match="^product does not match the target under the stated map$"):
        star_product_valences(4, 2, CYCLE4_EM_LABELINGS)


def test_crown_maps_are_frozen():
    # both routes' maps for m = 3..7 and n = 1..5; another automorphism of
    # the crown would move the transported labelings, so the maps
    # themselves are pinned
    h = hashlib.sha256()
    for m in range(3, 8):
        for n in range(1, 6):
            h.update(repr(sorted(crown_iso_from_cycle_product(m, n).items())).encode())
            h.update(repr(sorted(crown_iso_from_star_product(m, n).items())).encode())
    assert h.hexdigest() == "afd044113d6bf2eac126477df943555d65fd99ef10e42f4c973cb3b92dd6502c"


def test_induced_labeling_verifies_itself_on_construction():
    cyc = LabeledDigraph(orient_cycle(4), CYCLE4_EM_LABELINGS[0])
    ind = induced_labeling_from_sem_factors(
        cyc, ArcAssignment.constant(star_loop_labeling(1, 1), 4)
    )
    assert ind == InducedProductLabeling(ind.product, ind.labeling, ind.valence)
    with pytest.raises(RuntimeError, match="induced labeling failed verification"):
        InducedProductLabeling(ind.product, ind.labeling, ind.valence + 1)


def test_crown_valence_table_is_the_full_interval():
    crown = mk_crown(4, 2)
    table = star_product_valences(4, 2, CYCLE4_EM_LABELINGS)
    assert sorted(table) == list(range(28, 48))
    for k, lab in table.items():
        assert valence_of(crown, lab) == k


def test_crown_table_composes_twice_per_call(monkeypatch):
    outers, made, matched, checked = [], [], [], []

    def counted(D, members):
        outers.append(D)
        made.append(tensor_product(D, members))
        return made[-1]

    def counted_match(src, f, iso, dst):
        matched.append(src)
        return transport(src, f, iso, dst)

    def counted_valence(G, f):
        checked.append(G)
        return valence_of(G, f)

    monkeypatch.setattr(products, "tensor_product", counted)
    monkeypatch.setattr(products, "transport", counted_match)
    monkeypatch.setattr(products, "valence_of", counted_valence)
    for m, n in ((3, 1), (3, 3), (4, 2), (4, 3), (5, 1), (5, 2)):
        witnesses = tuple(em_spectrum(mk_cycle(m)).witnesses.values())
        star = star_loop_labeling(n, 1).digraph
        for labelings in ((), witnesses[:1], witnesses):
            for calls in (outers, made, matched, checked):
                calls.clear()
            star_product_valences(m, n, labelings)
            # one product and one crown match per route, whatever the
            # labelings and centers
            assert outers == [orient_cycle(m), star]
            assert matched == made
            # and one valence check on the cycle per cycle labeling
            assert checked.count(orient_cycle(m)) == len(labelings)


def _crown_table_oracle(m, n, labelings):
    """The crown table built through the public functions: each labeling
    induced on a product of normalized factors at every star center, then
    transported along the as-built crown map read through the member's
    renumbering.
    The star route composes the labeling rotated to put its least vertex
    label on vertex 1, the crown automorphism image the library picks."""
    crown, cyc = mk_crown(m, n), orient_cycle(m)
    found = {}
    for L in labelings:
        member = LabeledDigraph(cyc, L)
        vl, el = L.vertex_labels, L.edge_labels
        s = vl.index(min(vl))
        rotated = LabeledDigraph(cyc, TotalLabeling(vl[s:] + vl[:s], el[s:] + el[:s]))
        for r in range(1, n + 2):
            star = star_loop_labeling(n, r)
            ind = induced_labeling_from_sem_factors(member, ArcAssignment.constant(star, m))
            iso = through_member_map(crown_iso_from_cycle_product(m, n), normalize_by_labels(star)[1])
            found.setdefault(ind.valence, transport(ind.product, ind.labeling, iso, crown))
        for r in range(1, n + 2):
            ind = induced_labeling_from_em_factors(
                star_loop_labeling(n, r), ArcAssignment.constant(rotated, n + 1)
            )
            iso = through_member_map(crown_iso_from_star_product(m, n), normalize_by_labels(rotated)[1])
            found.setdefault(ind.valence, transport(ind.product, ind.labeling, iso, crown))
    return found


def _dihedral_images(L: TotalLabeling):
    """L moved by every rotation and reflection of its cycle: vertex
    v -> m+1-v sends edge i to edge m-i and edge m to itself."""
    vl, el = L.vertex_labels, L.edge_labels
    for v, e in ((vl, el), (vl[::-1], el[-2::-1] + el[-1:])):
        for s in range(len(v)):
            yield TotalLabeling(v[s:] + v[:s], e[s:] + e[:s])


def test_crown_tables_match_the_public_function_oracle():
    # each image alone, so no labeling's entries are shadowed, then the
    # witness lists, which fix which labeling wins
    tables = 0
    for m in range(3, 8):
        witnesses = list(em_spectrum(mk_cycle(m)).witnesses.values())
        images = [image for w in witnesses for image in _dihedral_images(w)]
        for n in (1, 2, 3):
            for labelings in [[L] for L in images] + [witnesses]:
                table = star_product_valences(m, n, labelings)
                expected = _crown_table_oracle(m, n, labelings)
                assert list(table.items()) == list(expected.items())
                tables += 1
    # per n: 280 images of the 26 witnesses, and 5 witness lists
    assert tables == 3 * (280 + 5)


def test_crown_table_refuses_bad_cycle_labelings():
    good = CYCLE4_EM_LABELINGS[0]
    skew = TotalLabeling((1, 2, 3, 4), (5, 6, 7, 8))
    with pytest.raises(ValueError, match="cycle labeling is not edge magic"):
        star_product_valences(4, 2, (good, skew))
    with pytest.raises(InvalidLabelingError):
        star_product_valences(4, 2, (good, TotalLabeling((1, 2, 3), (4, 5, 6))))
    # each labeling is checked in turn: the first bad one is the one refused
    with pytest.raises(InvalidLabelingError):
        star_product_valences(4, 2, (TotalLabeling((1, 2, 3), (4, 5, 6)), skew))


def _extreme_center_valences(m, n, achieved):
    """The crown valences with the star route cut to r in {1, n+1}."""
    cycle = {(n + 1) * (v - 2) + r + 1 for v in achieved for r in range(1, n + 2)}
    return cycle | {2 * m * (n + r - 1) + v for v in achieved for r in (1, n + 1)}


def test_interior_star_centers_add_nothing_to_the_c4_crown_table():
    table = star_product_valences(4, 2, CYCLE4_EM_LABELINGS)
    assert set(table) == _extreme_center_valences(4, 2, (12, 13, 14, 15)) == set(range(28, 48))


def test_interior_star_centers_reach_crown_5_4_valences():
    crown = mk_crown(5, 4)
    table = star_product_valences(5, 4, list(em_spectrum(mk_cycle(5)).witnesses.values()))
    for k in (67, 69, 84, 86):
        # 2*5*(4+r-1) + v at r = 2 and 3, with v in {14, 16}
        assert valence_of(crown, table[k]) == k


def test_predicted_valences_match_the_constructed_table():
    c4 = mk_cycle(4)
    predicted = predicted_valences(c4, 2, (12, 13, 14, 15))
    assert predicted == set(range(28, 48))
    assert predicted == set(star_product_valences(4, 2, CYCLE4_EM_LABELINGS))
    # no star has fewer than one leaf, so no valence is promised for one
    with pytest.raises(ValueError, match="need at least one leaf"):
        predicted_valences(c4, 0, (12,))
    widened = 0
    for m in range(3, 8):
        spectrum = em_spectrum(mk_cycle(m))
        witnesses, achieved = list(spectrum.witnesses.values()), list(spectrum.witnesses)
        for n in range(1, 6):
            table = set(star_product_valences(m, n, witnesses))
            assert table == predicted_valences(mk_cycle(m), n, achieved)
            widened += table != _extreme_center_valences(m, n, achieved)
    # the interior star centers add valences to crown(4,5), (5,3), (5,4),
    # (5,5), (6,5) and (7,5)
    assert widened == 6


def test_crown_table_builds_one_labeling_per_entry(monkeypatch):
    built, realize = [], products._realize

    def counted(ind, target, route):
        built.append(ind.valence)
        return realize(ind, target, route)

    monkeypatch.setattr(products, "_realize", counted)
    for m in (3, 4, 5, 6):
        witnesses = list(em_spectrum(mk_cycle(m)).witnesses.values())
        for n in (1, 2, 3, 5):
            built.clear()
            table = star_product_valences(m, n, witnesses)
            assert built == list(table)
    # a route that sends two crown vertices to each other's positions is
    # caught when the carried labeling is re-checked on the crown
    route = products._route

    def misrouted(product, target, iso):
        r = route(product, target, iso)
        vl = list(r.vertex_labels)
        vl[0], vl[1] = vl[1], vl[0]
        return TotalLabeling(tuple(vl), r.edge_labels)

    monkeypatch.setattr(products, "_route", misrouted)
    with pytest.raises(RuntimeError, match="^transported labeling lost its valence$"):
        star_product_valences(4, 2, CYCLE4_EM_LABELINGS)


def test_valence_count_floor_cases():
    c4 = mk_cycle(4)
    # spread 3 < (12 - 10) * 2, so every achieved valence earns n + 3 products
    assert valence_count_floor(c4, 2, (12, 13, 14, 15)) == 20
    # spread too wide: only the guaranteed interleave plus two outliers
    assert valence_count_floor(c4, 2, (12, 17)) == 3 * 2 + 2
    # a repeated valence counts once: one base valence reaches at most
    # len(predicted_valences(c4, 2, (12,))) == 6 valences
    assert valence_count_floor(c4, 2, (12, 12)) == valence_count_floor(c4, 2, (12,)) == 5
    assert valence_count_floor(c4, 1, ()) == 0
    for n in (0, -1):
        with pytest.raises(ValueError, match="need at least one leaf"):
            valence_count_floor(c4, n, (12, 13))


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


def _arc_by_arc_sem(outer: LabeledDigraph, members, k: int):
    """Product and labeling of the SEM-member composition,
    rebuilt arc by arc with each member normalized on its own; k is the
    members' least induced sum."""
    norms = [normalize_by_labels(M)[0] for M in members]
    product = tensor_product(outer.digraph, [nm.digraph for nm in norms])
    pm, f = members[0].digraph.p, outer.labeling
    vl = [pm * (f.vertex_labels[a] - 1) + i for a in range(outer.digraph.p) for i in range(1, pm + 1)]
    el = [
        pm * (f.edge_labels[t] - 1) + k + pm - (i + j)
        for t, nm in enumerate(norms)
        for i, j in nm.digraph.arcs
    ]
    return product, TotalLabeling(tuple(vl), tuple(el))


def _arc_by_arc_em(outer: LabeledDigraph, members):
    """The same for the EM-member composition over an SEM outer digraph."""
    norms = [normalize_by_labels(M)[0] for M in members]
    product = tensor_product(outer.digraph, [nm.digraph for nm in norms])
    first = norms[0]
    total, g = first.digraph.p + first.digraph.q, outer.labeling.vertex_labels
    smax = max(g[x - 1] + g[y - 1] for x, y in outer.digraph.arcs)
    vl = [total * (g[i] - 1) + x for i in range(outer.digraph.p) for x in first.labeling.vertex_labels]
    el = [
        total * (smax - g[x - 1] - g[y - 1]) + e
        for (x, y), nm in zip(outer.digraph.arcs, norms)
        for e in nm.labeling.edge_labels
    ]
    return product, TotalLabeling(tuple(vl), tuple(el))


def test_constant_assignments_match_the_arc_by_arc_reference():
    cyc = LabeledDigraph(orient_cycle(4), CYCLE4_EM_LABELINGS[1])
    star = star_loop_labeling(2, 2)
    ind = induced_labeling_from_sem_factors(cyc, ArcAssignment.constant(star, 4))
    assert (ind.product, ind.labeling) == _arc_by_arc_sem(cyc, (star,) * 4, 3)
    ind = induced_labeling_from_em_factors(star, ArcAssignment.constant(cyc, 3))
    assert (ind.product, ind.labeling) == _arc_by_arc_em(star, (cyc,) * 3)


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
    assert ind.valence == expected == valence_of(ind.product, ind.labeling)
    assert (ind.product, ind.labeling) == _arc_by_arc_sem(outer, members, r + 1)


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
    kmin = min(induced_sums(outer.digraph, outer.labeling.vertex_labels))
    expected = (m + m) * (kmin + (n + 1) - 3) + k
    assert ind.valence == expected == valence_of(ind.product, ind.labeling)
    assert (ind.product, ind.labeling) == _arc_by_arc_em(outer, members)


# Crown tables and split-doubling labelings, frozen from a reference run
# so that a faster construction must build byte-identical outputs:
# (tables, s2n labelings, sha256).
FROZEN_CONSTRUCT = (5, 1578, "2630cac5ef0407b1ca348e1ff0be127a9ba5bdae4bbb8607be07a3f5fc5bc0d2")


def test_crown_tables_and_s2n_labelings_are_frozen():
    digest, counts = hashlib.sha256(), [0, 0]
    for m, n in ((3, 5), (4, 3), (5, 2), (6, 2), (4, 2)):
        witnesses = list(em_spectrum(mk_cycle(m)).witnesses.values())
        table = star_product_valences(m, n, witnesses)
        digest.update(repr(sorted(table.items())).encode())
        counts[0] += 1
    bases = (
        Graph(4, ((1, 2), (2, 3), (3, 4))),
        mk_complete_bipartite(1, 3),
        mk_cycle(4),
        mk_complete_bipartite(2, 3),
    )
    for G in bases:
        bip = bipartition(G)
        witnesses = list(em_spectrum(G).witnesses.values())
        for d in enumerate_2_decompositions(G):
            for f in witnesses:
                for r in (1, 2, 3):
                    s, lab, val = induced_s2n_labeling(G, bip, d, 2, f, r)
                    digest.update(repr((s.graph, lab, val)).encode())
                    counts[1] += 1
    assert (*counts, digest.hexdigest()) == FROZEN_CONSTRUCT
