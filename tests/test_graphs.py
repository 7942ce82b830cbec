"""Graph and digraph containers, builders, bipartition, text round trips."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgemagic import (
    Bipartition,
    Digraph,
    Graph,
    ParseError,
    bipartition,
    check_bipartition,
    edges_match_under,
    format_digraph,
    format_graph,
    mk_complete_bipartite,
    mk_crown,
    mk_cycle,
    mk_star_with_loop,
    parse_digraph,
    parse_graph,
)


def test_edges_are_stored_smaller_endpoint_first():
    G = Graph(4, ((3, 1), (2, 4), (2, 2)))
    assert G.edges == ((1, 3), (2, 4), (2, 2))
    assert G.q == 3


def test_out_of_range_endpoints_rejected():
    with pytest.raises(ValueError):
        Graph(2, ((1, 3),))
    with pytest.raises(ValueError):
        Digraph(2, ((0, 1),))
    with pytest.raises(ValueError):
        Graph(-1, ())


def test_non_integer_endpoints_rejected():
    for bad in (1.9, 2.0, Fraction(2), "2"):
        with pytest.raises(TypeError):
            Graph(3, ((bad, 2), (2, 3)))
        with pytest.raises(TypeError):
            Digraph(3, ((2, 3), (1, bad)))
    for bad in (2.5, 3.0, Fraction(3), "3"):
        with pytest.raises(TypeError):
            Graph(bad, ((1, 2),))
        with pytest.raises(TypeError):
            Digraph(bad, ())


def _two_pass(p, pairs, what):
    """The endpoint check and the smaller-endpoint-first normalisation as
    two passes: the checked pairs as given, then in edge order."""
    if p < 0:
        raise ValueError("vertex count must be nonnegative")
    out = []
    for u, v in pairs:
        if not (1 <= u <= p and 1 <= v <= p):
            raise ValueError(f"{what} ({u}, {v}) out of range for p={p}")
        out.append((u, v))
    return tuple(out), tuple((u, v) if u <= v else (v, u) for u, v in out)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(-1, 5), st.data())
def test_one_pass_pairs_match_the_two_pass_normalisation(p, data):
    # endpoints one beyond either end of 1..p, loops and reversed pairs
    end = st.integers(-1, max(p, 0) + 1)
    pairs = tuple(data.draw(st.lists(st.tuples(end, end), max_size=8)))
    for make, what, field, which in ((Graph, "edge", "edges", 1), (Digraph, "arc", "arcs", 0)):
        try:
            expected = _two_pass(p, pairs, what)[which]
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                make(p, pairs)
            assert str(got.value) == str(exc)
        else:
            assert getattr(make(p, pairs), field) == expected


def test_degree_counts_loops_twice():
    G = Graph(2, ((1, 1), (1, 2)))
    assert G.degrees() == (3, 1)


def test_is_simple_rejects_loops_and_parallel_edges():
    assert Graph(3, ((1, 2), (2, 3))).is_simple()
    assert not Graph(2, ((1, 1),)).is_simple()
    assert not Graph(2, ((1, 2), (2, 1))).is_simple()


def test_mk_cycle_shape():
    G = mk_cycle(5)
    assert G.p == 5 and G.q == 5
    assert G.edges[0] == (1, 2)
    assert G.edges[-1] == (1, 5)
    assert all(d == 2 for d in G.degrees())
    with pytest.raises(ValueError):
        mk_cycle(2)


def test_mk_star_with_loop_shape():
    G = mk_star_with_loop(3)
    assert G.p == 4 and G.q == 4
    assert G.degrees() == (5, 1, 1, 1)
    assert G.edges[-1] == (1, 1)
    with pytest.raises(ValueError):
        mk_star_with_loop(0)


def test_mk_crown_shape():
    G = mk_crown(4, 2)
    assert G.p == 12 and G.q == 12
    # cycle block first, then pendant blocks of 2 per cycle vertex
    assert G.edges[:4] == ((1, 2), (2, 3), (3, 4), (1, 4))
    assert G.edges[4:6] == ((1, 5), (1, 6))
    assert G.degrees()[:4] == (4, 4, 4, 4)
    assert set(G.degrees()[4:]) == {1}
    with pytest.raises(ValueError):
        mk_crown(2, 1)
    with pytest.raises(ValueError):
        mk_crown(3, 0)


def test_mk_complete_bipartite_shape():
    G = mk_complete_bipartite(2, 3)
    assert G.p == 5 and G.q == 6
    assert G.edges == ((1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5))
    assert G.degrees() == (3, 3, 2, 2, 2)
    with pytest.raises(ValueError, match="both sides must be nonempty"):
        mk_complete_bipartite(0, 3)


def test_bipartition_sides_split_every_edge():
    G = mk_complete_bipartite(3, 3)
    b = bipartition(G)
    assert b is not None
    assert b.X == frozenset({1, 2, 3})
    assert b.Y == frozenset({4, 5, 6})
    assert check_bipartition(G, b)


def test_bipartition_handles_isolated_vertices_and_components():
    G = Graph(5, ((1, 2), (3, 4)))
    b = bipartition(G)
    assert b is not None
    assert check_bipartition(G, b)
    assert 1 in b.X and 3 in b.X and 5 in b.X


def test_bipartition_rejects_odd_cycles_and_loops():
    assert bipartition(mk_cycle(5)) is None
    assert bipartition(Graph(1, ((1, 1),))) is None


def test_check_bipartition_rejects_bad_witness():
    G = Graph(3, ((1, 2), (2, 3)))
    assert not check_bipartition(G, Bipartition(frozenset({1, 2}), frozenset({3})))
    assert not check_bipartition(G, Bipartition(frozenset({1}), frozenset({3})))


def test_bipartition_sides_must_be_disjoint():
    with pytest.raises(ValueError):
        Bipartition(frozenset({1, 2}), frozenset({2, 3}))


def test_edges_match_under_identity_and_relabel():
    G = mk_cycle(4)
    ident = {v: v for v in range(1, 5)}
    assert edges_match_under(G, G, ident)
    rotated = {1: 2, 2: 3, 3: 4, 4: 1}
    assert edges_match_under(G, G, rotated)
    H = Graph(4, ((1, 2), (2, 3), (3, 4), (2, 4)))
    assert not edges_match_under(G, H, ident)


def test_edges_match_under_requires_bijection():
    G = mk_cycle(4)
    assert not edges_match_under(G, G, {1: 1, 2: 1, 3: 3, 4: 4})
    assert not edges_match_under(G, G, {1: 1, 2: 2, 3: 3})
    assert not edges_match_under(G, Graph(5, G.edges), {v: v for v in range(1, 5)})


def test_edges_match_under_refuses_non_integer_maps():
    G = Graph(2, ((1, 2),))
    for vertex_map in ({1: 1, "a": 2}, {1: 1, 2: "b"}, {1: 1.0, 2: 2}, {1.0: 1, 2: 2}):
        assert not edges_match_under(G, G, vertex_map)
    # True reads as 1, as it does in Graph
    assert edges_match_under(G, G, {True: 2, 2: True})


def test_edges_match_under_counts_multiplicities():
    ident2, ident3, swap = {1: 1, 2: 2}, {1: 1, 2: 2, 3: 3}, {1: 2, 2: 1}
    doubled = Graph(3, ((1, 2), (1, 2), (2, 3)))
    assert edges_match_under(doubled, doubled, ident3)
    assert edges_match_under(doubled, Graph(3, ((2, 3), (3, 1), (1, 3))), {1: 1, 2: 3, 3: 2})
    assert not edges_match_under(Graph(3, ((1, 2), (1, 2))), Graph(3, ((1, 2), (2, 3))), ident3)
    # same edge set, different multiplicities
    assert not edges_match_under(doubled, Graph(3, ((1, 2), (2, 3), (2, 3))), ident3)
    looped = Graph(2, ((1, 1), (1, 2)))
    assert edges_match_under(looped, Graph(2, ((2, 2), (1, 2))), swap)
    assert not edges_match_under(looped, Graph(2, ((2, 2), (1, 2))), ident2)
    two_loops = Graph(2, ((1, 1), (1, 1), (1, 2)))
    assert not edges_match_under(two_loops, Graph(2, ((1, 1), (1, 2), (1, 2))), ident2)
    # a digraph's u->v and v->u are the unordered pair twice
    both_ways = Digraph(2, ((1, 2), (2, 1)))
    assert edges_match_under(both_ways, Graph(2, ((1, 2), (1, 2))), ident2)
    assert edges_match_under(both_ways, Graph(2, ((1, 2), (1, 2))), swap)
    assert not edges_match_under(both_ways, Graph(2, ((1, 2), (2, 2))), ident2)
    looped_both = Digraph(2, ((1, 2), (2, 1), (2, 2)))
    assert edges_match_under(looped_both, Graph(2, ((2, 2), (1, 2), (2, 1))), ident2)
    assert not edges_match_under(looped_both, Graph(2, ((1, 2), (2, 2), (2, 2))), ident2)


def test_parse_graph_round_trip():
    text = "# comment\np 4\n\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n"
    G = parse_graph(text)
    assert G == mk_cycle(4)
    assert parse_graph(format_graph(G)) == G


def test_parse_digraph_round_trip():
    D = Digraph(3, ((1, 2), (3, 1)))
    assert parse_digraph(format_digraph(D)) == D


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_graph("p 3\ne 1\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_graph("e 1 2\n")
    with pytest.raises(ParseError):
        parse_graph("p 3\na 1 2\n")
    with pytest.raises(ParseError):
        parse_digraph("p 3\ne 1 2\n")
    # vertex counts above 10**6 are refused at their header, before any use
    for text in ("p 1000001\n", "# huge\np 1000000000000000000\ne 1 2\n", "p -1\n"):
        with pytest.raises(ParseError, match="vertex count") as err:
            parse_graph(text)
        assert err.value.line == text.count("\n", 0, text.index("p")) + 1
    with pytest.raises(ParseError) as err:
        parse_digraph("p 3\n\n# comment\na 1 2\nv 1 1\n")
    assert err.value.line == 5


def test_fields_are_ascii_digits_after_an_optional_minus():
    # '+', '_' and other scripts' digits in a comment leave the fields alone
    G = parse_graph("# K2 +1 edge, 1_0 or ٣ vertices\np 007\ne 1 2\n")
    assert (G.p, G.edges) == (7, ((1, 2),))
    with pytest.raises(ParseError, match="endpoint out of range"):
        parse_graph("p 3\ne -1 2\n")
    # each is an integer to int(), and each line here is refused for it
    for text in ("p +3\n", "p 3\ne 1 0_2\n", "# +\np 3\ne ١ 2\n", "p 3\ne 1 ２\n"):
        with pytest.raises(ParseError, match="fields must be integers") as err:
            parse_graph(text)
        assert err.value.line == text.count("\n")
