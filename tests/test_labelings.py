"""Total labelings: verification, extension, complement, transport, text."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgemagic import (
    Digraph,
    Graph,
    InvalidLabelingError,
    ParseError,
    TotalLabeling,
    check_total_labeling,
    check_vertex_labeling,
    complement,
    edges_match_under,
    extend_vertex_labeling,
    format_labeling,
    induced_sums,
    is_super_edge_magic,
    mk_cycle,
    parse_labeling,
    transport,
    valence_of,
)

C4 = mk_cycle(4)
# valence 12 example: vertices 1,6,2,3 around the cycle
ALPHA = TotalLabeling((1, 6, 2, 3), (5, 4, 7, 8))


def test_total_labeling_exposes_lookups():
    assert ALPHA.p == 4 and ALPHA.q == 4


def test_total_labeling_refuses_non_integer_labels():
    assert TotalLabeling((True, 2), (3,)).vertex_labels == (1, 2)
    for bad in (1.5, 2.0, Fraction(2), "2"):
        with pytest.raises(TypeError):
            TotalLabeling((1, bad, 3), (4, 5))
        with pytest.raises(TypeError):
            TotalLabeling((1, 2, 3), (4, bad))


def test_check_total_labeling_accepts_bijections_only():
    check_total_labeling(C4, ALPHA)
    with pytest.raises(InvalidLabelingError):
        check_total_labeling(C4, TotalLabeling((1, 1, 2, 3), (5, 4, 7, 8)))
    with pytest.raises(InvalidLabelingError):
        check_total_labeling(C4, TotalLabeling((1, 6, 2), (5, 4, 7, 8)))
    with pytest.raises(InvalidLabelingError):
        check_total_labeling(C4, TotalLabeling((1, 6, 2, 9), (5, 4, 7, 8)))


def _sorted_reference(G, f):
    """The refusal message of a bijection check that sorts the labels, or
    None when it accepts."""
    if f.p != G.p or f.q != G.q:
        return f"labeling shape ({f.p} vertices, {f.q} edges) does not match graph ({G.p}, {G.q})"
    total = G.p + G.q
    if sorted(f.vertex_labels + f.edge_labels) != list(range(1, total + 1)):
        return f"labels are not a bijection onto 1..{total}"
    return None


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.data())
def test_check_total_labeling_refuses_what_sorting_refuses(data):
    p = data.draw(st.integers(0, 4))
    q = data.draw(st.integers(0, 4 if p else 0))  # p = q = 0 included
    G = Graph(p, ((1, 1),) * q)
    n = p + q
    # repeats, 0, negatives and labels above p+q, beside true bijections
    label = st.integers(-2, n + 2)
    labels = data.draw(st.one_of(st.permutations(range(1, n + 1)), st.lists(label, min_size=n, max_size=n)))
    cut = data.draw(st.sampled_from((p, p - 1, p + 1)))  # sometimes the wrong shape
    f = TotalLabeling(tuple(labels[: max(cut, 0)]), tuple(labels[max(cut, 0) :]))
    expected = _sorted_reference(G, f)
    if expected is None:
        check_total_labeling(G, f)
    else:
        with pytest.raises(InvalidLabelingError) as got:
            check_total_labeling(G, f)
        assert str(got.value) == expected


def test_check_vertex_labeling():
    check_vertex_labeling(C4, (2, 1, 4, 3))
    with pytest.raises(InvalidLabelingError):
        check_vertex_labeling(C4, (1, 2, 3, 5))
    with pytest.raises(InvalidLabelingError):
        check_vertex_labeling(C4, (1, 2, 3))


def test_valence_of_constant_and_nonconstant():
    assert valence_of(C4, ALPHA) == 12
    ident = TotalLabeling((1, 2, 3, 4), (5, 6, 7, 8))
    assert valence_of(C4, ident) is None


def test_valence_of_counts_loop_endpoint_twice():
    loop = Graph(1, ((1, 1),))
    assert valence_of(loop, TotalLabeling((1,), (2,))) == 4
    assert valence_of(loop, TotalLabeling((2,), (1,))) == 5


def test_valence_of_edgeless_graph_is_none():
    assert valence_of(Graph(2, ()), TotalLabeling((1, 2), ())) is None


def test_is_super_edge_magic_requires_low_vertex_labels():
    p3 = Graph(3, ((1, 2), (2, 3)))
    sem = TotalLabeling((1, 3, 2), (5, 4))
    assert is_super_edge_magic(p3, sem) == 9
    assert valence_of(p3, sem) == 9
    # magic but vertex labels exceed p
    assert is_super_edge_magic(C4, ALPHA) is None


def test_induced_sums_follow_edge_order():
    assert induced_sums(C4, (1, 6, 2, 3)) == (7, 8, 5, 4)


def test_extend_vertex_labeling_builds_the_unique_completion():
    p3 = Graph(3, ((1, 2), (2, 3)))
    f = extend_vertex_labeling(p3, (1, 3, 2))
    assert f is not None
    assert is_super_edge_magic(p3, f) == 9
    # sums 4 and 5: edge with the larger sum gets the smaller label
    assert f.edge_labels == (5, 4)
    g = extend_vertex_labeling(p3, (2, 1, 3))
    assert g is not None and is_super_edge_magic(p3, g) == 8
    assert extend_vertex_labeling(C4, (1, 2, 3, 4)) is None


def test_complement_flips_labels_and_valence():
    comp = complement(C4, ALPHA)
    assert comp.vertex_labels == (8, 3, 7, 6)
    assert valence_of(C4, comp) == 3 * (4 + 4 + 1) - 12


def test_complement_of_loop_labeling():
    loop = Graph(1, ((1, 1),))
    f = TotalLabeling((1,), (2,))
    assert valence_of(loop, complement(loop, f)) == 3 * 3 - 4


def test_transport_carries_labels_along_isomorphism():
    G = mk_cycle(4)
    H = Graph(4, ((2, 1), (3, 2), (4, 3), (1, 4)))
    moved = transport(G, ALPHA, {1: 1, 2: 2, 3: 3, 4: 4}, H)
    assert valence_of(H, moved) == 12
    rotated = transport(G, ALPHA, {1: 2, 2: 3, 3: 4, 4: 1}, G)
    assert valence_of(G, rotated) == 12
    assert rotated.vertex_labels == (3, 1, 6, 2)


def test_transport_rejects_non_edge_preserving_maps():
    G = mk_cycle(4)
    H = Graph(4, ((1, 2), (2, 3), (3, 4), (2, 4)))
    for dst, vertex_map in (
        (H, {1: 1, 2: 2, 3: 3, 4: 4}),
        (G, {1: 1, 2: 2, 3: 1, 4: 4}),  # not a bijection
    ):
        with pytest.raises(ValueError):
            transport(G, ALPHA, vertex_map, dst)


def test_transport_refuses_non_integer_maps():
    G = Graph(2, ((1, 2),))
    f = TotalLabeling((1, 2), (3,))
    for vertex_map in ({1: 1, "a": 2}, {1: 1, 2: "b"}, {1: 1.0, 2: 2}):
        with pytest.raises(ValueError, match="does not carry"):
            transport(G, f, vertex_map, G)


def test_transport_refuses_parallel_pairs():
    distinct = "transport needs pairwise distinct edge pairs on both sides"
    f = TotalLabeling((1, 2, 3), (4, 5, 6))
    triangle = Graph(3, ((1, 2), (2, 3), (1, 3)))
    ident = {1: 1, 2: 2, 3: 3}
    # a repeated edge in a graph source, listed both ways round
    with pytest.raises(ValueError, match=distinct):
        transport(Graph(3, ((1, 2), (2, 3), (2, 1))), f, ident, triangle)
    # arcs u->v and v->u are one unordered pair, refused the same way
    with pytest.raises(ValueError, match=distinct):
        transport(Digraph(3, ((1, 2), (2, 3), (2, 1))), f, ident, triangle)
    # a repeated edge in the target
    with pytest.raises(ValueError, match=distinct):
        transport(triangle, f, ident, Graph(3, ((1, 2), (2, 3), (2, 3))))
    # arcs with distinct unordered pairs transport as the triangle does
    assert transport(Digraph(3, ((2, 1), (3, 2), (1, 3))), f, ident, triangle) == f


def test_parse_labeling_round_trip_and_errors():
    text = format_labeling(ALPHA)
    assert parse_labeling(text, 4, 4) == ALPHA
    with pytest.raises(ParseError):
        parse_labeling("v 1\n", 4, 4)
    with pytest.raises(ParseError):
        parse_labeling("x 1 2\n", 4, 4)
    with pytest.raises(ParseError):
        parse_labeling("v 5 1\n", 4, 4)
    with pytest.raises(ParseError):
        parse_labeling("v 1 1\nv 1 2\n", 4, 4)
    with pytest.raises(ParseError):
        parse_labeling("v 1 1\nv 2 2\nv 3 3\nv 4 4\ne 1 5\ne 2 6\ne 3 7\n", 4, 4)


# derandomize fixes the examples, so every run checks the same inputs.
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def relabeled_graphs(draw):
    """A graph with distinct endpoint pairs (loops allowed), the digraph
    whose arcs are the drawn pairs, a total labeling of both, and a vertex
    bijection onto a copy whose edge list is renamed along the bijection
    and listed in another order."""
    p = draw(st.integers(1, 7))
    vertex = st.integers(1, p)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=10, unique_by=lambda e: frozenset(e)))
    src = Graph(p, tuple(pairs))
    arcs = Digraph(p, tuple(pairs))
    labels = draw(st.permutations(range(1, p + src.q + 1)))
    f = TotalLabeling(tuple(labels[:p]), tuple(labels[p:]))
    image = draw(st.permutations(range(1, p + 1)))
    vertex_map = {v: image[v - 1] for v in range(1, p + 1)}
    order = draw(st.permutations(src.edges))
    dst = Graph(p, tuple((vertex_map[u], vertex_map[v]) for u, v in order))
    return src, arcs, f, vertex_map, dst


@DETERMINISTIC
@given(relabeled_graphs())
def test_transport_there_and_back_is_the_identity(case):
    src, arcs, f, vertex_map, dst = case
    g = transport(src, f, vertex_map, dst)
    assert all(g.vertex_labels[vertex_map[v] - 1] == f.vertex_labels[v - 1] for v in vertex_map)
    assert valence_of(dst, g) == valence_of(src, f)
    back = {w: v for v, w in vertex_map.items()}
    assert transport(dst, g, back, src) == f
    # the drawn pairs read as arcs give every answer the graph gives
    assert transport(arcs, f, vertex_map, dst) == g
    assert valence_of(arcs, f) == valence_of(src, f)
    assert induced_sums(arcs, f.vertex_labels) == induced_sums(src, f.vertex_labels)
    for m in (vertex_map, {v: v for v in vertex_map}):
        assert edges_match_under(arcs, dst, m) == edges_match_under(src, dst, m)
