"""Total labelings of graphs and the magic-valence checks built on them.

A total labeling assigns the labels 1..p+q bijectively to the p vertices and
q edges of a graph.  It is edge magic when every edge e = uv satisfies
f(u) + f(e) + f(v) = k for one constant k, the valence; a loop at v counts
its endpoint twice, contributing 2 f(v) + f(e).  A super edge magic labeling
is an edge magic labeling whose vertex labels are exactly 1..p.

The text format is one labeling per file: ``v <vertex> <label>`` and
``e <edge-index> <label>`` lines, with ``#`` comments allowed.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from operator import index

from .errors import InvalidLabelingError, ParseError
from .graphs import Digraph, Graph, _pairs, _records, edges_match_under

__all__ = [
    "TotalLabeling",
    "check_total_labeling",
    "check_vertex_labeling",
    "valence_of",
    "is_super_edge_magic",
    "induced_sums",
    "extend_vertex_labeling",
    "complement",
    "transport",
    "parse_labeling",
    "format_labeling",
]


@dataclass(frozen=True)
class TotalLabeling:
    """Labels for the vertices and edges of a graph, addressed by position."""

    vertex_labels: tuple[int, ...]
    edge_labels: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertex_labels", tuple(map(index, self.vertex_labels)))
        object.__setattr__(self, "edge_labels", tuple(map(index, self.edge_labels)))

    @property
    def p(self) -> int:
        return len(self.vertex_labels)

    @property
    def q(self) -> int:
        return len(self.edge_labels)


def check_total_labeling(G: Graph | Digraph, f: TotalLabeling) -> None:
    """Raise InvalidLabelingError unless f is a bijection onto 1..p+q for G;
    only G's counts are read, so a digraph is checked as it stands."""
    if f.p != G.p or f.q != G.q:
        raise InvalidLabelingError(
            f"labeling shape ({f.p} vertices, {f.q} edges) does not match graph ({G.p}, {G.q})"
        )
    total = G.p + G.q
    if sorted(f.vertex_labels + f.edge_labels) != list(range(1, total + 1)):
        raise InvalidLabelingError(f"labels are not a bijection onto 1..{total}")


def check_vertex_labeling(G: Graph | Digraph, g: Sequence[int]) -> None:
    """Raise InvalidLabelingError unless g is a bijection of the vertices onto 1..p."""
    if len(g) != G.p or sorted(g) != list(range(1, G.p + 1)):
        raise InvalidLabelingError(f"vertex labels are not a bijection onto 1..{G.p}")


def valence_of(G: Graph | Digraph, f: TotalLabeling) -> int | None:
    """The constant edge sum of f on G, or None when the sums differ; a
    digraph's arc i is edge i, its direction ignored.

    Invalid labelings (wrong shape, not a bijection) raise rather than
    returning None, so callers can tell "not magic" from "not a labeling".
    Graphs without edges have no valence.
    """
    check_total_labeling(G, f)
    vl, el = f.vertex_labels, f.edge_labels
    sums = {vl[u - 1] + vl[v - 1] + el[i] for i, (u, v) in enumerate(_pairs(G))}
    return sums.pop() if len(sums) == 1 else None


def is_super_edge_magic(G: Graph | Digraph, f: TotalLabeling) -> int | None:
    """The valence of f when f is edge magic with vertex labels 1..p, else None."""
    k = valence_of(G, f)
    if k is None or sorted(f.vertex_labels) != list(range(1, G.p + 1)):
        return None
    return k


def induced_sums(G: Graph | Digraph, g: Sequence[int]) -> tuple[int, ...]:
    """Endpoint label sums g(u) + g(v), one per edge in edge order."""
    if len(g) != G.p:
        raise InvalidLabelingError(f"expected {G.p} vertex labels, got {len(g)}")
    return tuple(g[u - 1] + g[v - 1] for u, v in _pairs(G))


def extend_vertex_labeling(G: Graph | Digraph, g: Sequence[int]) -> TotalLabeling | None:
    """Complete a vertex labeling to a super edge magic labeling if possible.

    Works when the endpoint sums are q distinct consecutive integers: the
    edge whose sum is s then gets label p + q + min_sum - s, which makes
    every edge add up to p + q + min_sum.  Returns None when the sums do not
    form such a run.
    """
    check_vertex_labeling(G, g)
    if G.q == 0:
        return None
    sums = induced_sums(G, g)
    lo = min(sums)
    if sorted(sums) != list(range(lo, lo + G.q)):
        return None
    base = G.p + G.q + lo
    return TotalLabeling(tuple(g), tuple(base - s for s in sums))


def complement(G: Graph, f: TotalLabeling) -> TotalLabeling:
    """Replace every label x by p + q + 1 - x.

    Applying this to an edge magic labeling of valence k gives another edge
    magic labeling, of valence 3(p + q + 1) - k.
    """
    check_total_labeling(G, f)
    c = G.p + G.q + 1
    return TotalLabeling(
        tuple(c - x for x in f.vertex_labels),
        tuple(c - x for x in f.edge_labels),
    )


def transport(
    src: Graph | Digraph, f: TotalLabeling, vertex_map: Mapping[int, int], dst: Graph
) -> TotalLabeling:
    """Carry a labeling of src over to dst along a vertex bijection.

    The edges match through edges_match_under, one to one, a digraph's
    arcs as unordered pairs.  Both sides must have pairwise distinct
    unordered endpoint pairs (loops are fine; parallel edges and arcs
    u->v beside v->u are not) so the edge correspondence is unambiguous.
    """
    check_total_labeling(src, f)
    pairs = _pairs(src)
    distinct = len({(u, v) if u <= v else (v, u) for u, v in pairs}) == src.q
    if not distinct or len(set(dst.edges)) != dst.q:
        raise ValueError("transport needs pairwise distinct edge pairs on both sides")
    if not edges_match_under(src, dst, vertex_map):
        raise ValueError("vertex_map does not carry the source's edges onto the target's")
    pos = {e: i for i, e in enumerate(dst.edges)}
    vl = [0] * dst.p
    for v in range(1, src.p + 1):
        vl[vertex_map[v] - 1] = f.vertex_labels[v - 1]
    el = [0] * dst.q
    for i, (u, v) in enumerate(pairs):
        a, b = vertex_map[u], vertex_map[v]
        el[pos[(a, b) if a <= b else (b, a)]] = f.edge_labels[i]
    return TotalLabeling(tuple(vl), tuple(el))


def _labeling(records: Iterable[tuple[int, str, tuple[int, ...]]], p: int, q: int) -> TotalLabeling:
    """The labeling spelled by 'v' and 'e' records for p vertices and q edges."""
    vl: dict[int, int] = {}
    el: dict[int, int] = {}
    for ln, head, (idx, lab) in records:
        bound, store = (p, vl) if head == "v" else (q, el)
        if not 0 < idx <= bound:
            raise ParseError(f"index {idx} out of range 1..{bound}", ln)
        if idx in store:
            raise ParseError(f"duplicate assignment for {head} {idx}", ln)
        store[idx] = lab
    if len(vl) != p or len(el) != q:
        raise ParseError(f"labeling must cover all {p} vertices and all {q} edges")
    if sorted([*vl.values(), *el.values()]) != list(range(1, p + q + 1)):
        raise ParseError(f"labels are not a bijection onto 1..{p + q}")
    return TotalLabeling(tuple(vl[i] for i in range(1, p + 1)), tuple(el[i] for i in range(1, q + 1)))


def parse_labeling(text: str, p: int, q: int) -> TotalLabeling:
    """Parse a labeling file for a graph with p vertices and q edges.

    Every vertex and edge index must be assigned exactly once and the labels
    must form a bijection onto 1..p+q.
    """
    return _labeling(_records(text, ("v", "e")), p, q)


def format_labeling(f: TotalLabeling) -> str:
    lines = [f"v {v} {lab}" for v, lab in enumerate(f.vertex_labels, 1)]
    lines.extend(f"e {i} {lab}" for i, lab in enumerate(f.edge_labels, 1))
    return "\n".join(lines) + "\n"
