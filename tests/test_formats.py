"""parse ∘ format is the identity on every text format, combined files too."""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from edgemagic import (
    Digraph,
    Graph,
    LabeledDigraph,
    TotalLabeling,
    format_digraph,
    format_graph,
    format_labeling,
    parse_digraph,
    parse_graph,
    parse_labeling,
)
from edgemagic.cli import _labeled_digraph

# derandomize fixes the examples, so every run checks the same inputs.
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def labeled_pairs(draw) -> tuple[int, tuple[tuple[int, int], ...], TotalLabeling]:
    """A vertex count, pairs on it (loops and repeated pairs allowed) and a
    total labeling of the vertices and pairs."""
    p = draw(st.integers(0, 9))
    vertex = st.integers(1, max(p, 1))
    pairs = tuple(draw(st.lists(st.tuples(vertex, vertex), max_size=12 if p else 0)))
    labels = draw(st.permutations(range(1, p + len(pairs) + 1)))
    return p, pairs, TotalLabeling(tuple(labels[:p]), tuple(labels[p:]))


@DETERMINISTIC
@given(labeled_pairs())
def test_graphs_and_digraphs_read_back_unchanged(case):
    p, pairs, _ = case
    G, D = Graph(p, pairs), Digraph(p, pairs)
    assert parse_graph(format_graph(G)) == G
    assert parse_digraph(format_digraph(D)) == D


@DETERMINISTIC
@given(labeled_pairs())
def test_labelings_read_back_unchanged(case):
    _, _, f = case
    assert parse_labeling(format_labeling(f), f.p, f.q) == f


@DETERMINISTIC
@given(labeled_pairs())
def test_combined_labeled_digraphs_read_back_unchanged(case):
    p, pairs, f = case
    D = Digraph(p, pairs)
    want = LabeledDigraph(D, f)
    assert _labeled_digraph(format_digraph(D) + format_labeling(f)) == want
    assert _labeled_digraph(format_labeling(f) + "\n# the digraph\n" + format_digraph(D)) == want
