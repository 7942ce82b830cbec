"""Core graph types: finite multigraphs and digraphs on vertex set {1, ..., p}.

Loops (u == v) and repeated edges are allowed throughout.  Edges are kept in
a fixed order so that a labeling can address edge i by its position; every
index in this package (vertices, edges, arcs) is 1-based.

The text format is one construct per file: a line ``p <int>`` followed by one
``e <u> <v>`` line per edge (``a <u> <v>`` for digraph arcs).  Lines starting
with ``#`` and blank lines are ignored, and any other unknown line is refused;
``_records`` reads this grammar for labelings and the CLI's files too.  An
integer field is a run of ASCII digits 0-9, after a ``-`` if negative; the
other spellings ``int()`` takes (``+2``, ``1_0``, digits of other scripts)
are refused.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from operator import index

from .errors import ParseError

__all__ = [
    "Graph",
    "Digraph",
    "Bipartition",
    "mk_cycle",
    "mk_star_with_loop",
    "mk_crown",
    "mk_complete_bipartite",
    "bipartition",
    "check_bipartition",
    "edges_match_under",
    "parse_graph",
    "parse_digraph",
    "format_graph",
    "format_digraph",
]


def _checked_pairs(p: int, pairs: Iterable[tuple[int, int]], what: str) -> tuple[tuple[int, int], ...]:
    if p < 0:
        raise ValueError("vertex count must be nonnegative")
    out = []
    for pair in pairs:
        u, v = pair
        u, v = index(u), index(v)
        if not (1 <= u <= p and 1 <= v <= p):
            raise ValueError(f"{what} ({u}, {v}) out of range for p={p}")
        out.append((u, v))
    return tuple(out)


@dataclass(frozen=True)
class Graph:
    """Undirected multigraph with an ordered edge list of unordered pairs.

    Each pair is stored with the smaller endpoint first; the list order is
    the edge numbering (edge i is ``edges[i-1]``).
    """

    p: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", index(self.p))
        pairs = _checked_pairs(self.p, self.edges, "edge")
        object.__setattr__(self, "edges", tuple((u, v) if u <= v else (v, u) for u, v in pairs))

    @property
    def q(self) -> int:
        return len(self.edges)

    def degrees(self) -> tuple[int, ...]:
        d = [0] * (self.p + 1)
        for u, v in self.edges:
            d[u] += 1
            d[v] += 1
        return tuple(d[1:])

    def is_simple(self) -> bool:
        """True when the graph has no loops and no repeated edges."""
        return all(u != v for u, v in self.edges) and len(set(self.edges)) == self.q


@dataclass(frozen=True)
class Digraph:
    """Directed multigraph; arcs are ordered pairs in a stable list order."""

    p: int
    arcs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", index(self.p))
        object.__setattr__(self, "arcs", _checked_pairs(self.p, self.arcs, "arc"))

    @property
    def q(self) -> int:
        return len(self.arcs)


@dataclass(frozen=True)
class Bipartition:
    """Two stable sets covering the vertices of a bipartite graph."""

    X: frozenset[int]
    Y: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "X", frozenset(self.X))
        object.__setattr__(self, "Y", frozenset(self.Y))
        if self.X & self.Y:
            raise ValueError("bipartition sides must be disjoint")


def mk_cycle(m: int) -> Graph:
    """Cycle on vertices 1..m in order, edge i joining i and i+1 (mod m)."""
    if m < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(m, tuple((i, i % m + 1) for i in range(1, m + 1)))


def mk_star_with_loop(n: int) -> Graph:
    """Star with n leaves plus one loop at the center.

    Vertex 1 is the center; edge k (k <= n) joins the center to leaf k+1 and
    the final edge is the loop.  The center has degree n + 2.
    """
    if n < 1:
        raise ValueError("need at least one leaf")
    edges = [(1, k + 1) for k in range(1, n + 1)]
    edges.append((1, 1))
    return Graph(n + 1, tuple(edges))


def mk_crown(m: int, n: int) -> Graph:
    """Cycle of length m with n pendant vertices hung on every cycle vertex.

    Vertices 1..m form the cycle; vertex m + (i-1)*n + j is the j-th pendant
    of cycle vertex i.  Cycle edges come first, then pendant edges grouped by
    cycle vertex.
    """
    if m < 3 or n < 1:
        raise ValueError("need m >= 3 and n >= 1")
    edges = [(i, i % m + 1) for i in range(1, m + 1)]
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            edges.append((i, m + (i - 1) * n + j))
    return Graph(m * (n + 1), tuple(edges))


def mk_complete_bipartite(s: int, t: int) -> Graph:
    """Complete bipartite graph with sides 1..s and s+1..s+t."""
    if s < 1 or t < 1:
        raise ValueError("both sides must be nonempty")
    edges = tuple((i, s + j) for i in range(1, s + 1) for j in range(1, t + 1))
    return Graph(s + t, edges)


def bipartition(G: Graph) -> Bipartition | None:
    """Deterministic 2-coloring of G, or None when G is not bipartite.

    Components are processed in vertex order and each component's smallest
    vertex lands on side X, so vertex 1 is always on side X.  Loops make a
    graph non-bipartite.
    """
    side = [0] * (G.p + 1)
    adj: list[list[int]] = [[] for _ in range(G.p + 1)]
    for u, v in G.edges:
        if u == v:
            return None
        adj[u].append(v)
        adj[v].append(u)
    for root in range(1, G.p + 1):
        if side[root]:
            continue
        side[root] = 1
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if side[w] == 0:
                    side[w] = -side[u]
                    queue.append(w)
                elif side[w] == side[u]:
                    return None
    X = frozenset(v for v in range(1, G.p + 1) if side[v] == 1)
    Y = frozenset(v for v in range(1, G.p + 1) if side[v] == -1)
    return Bipartition(X, Y)


def check_bipartition(G: Graph, b: Bipartition) -> bool:
    """True when b covers the vertices of G and every edge crosses sides."""
    if b.X | b.Y != frozenset(range(1, G.p + 1)):
        return False
    for u, v in G.edges:
        if (u in b.X) == (v in b.X):
            return False
    return True


def _pairs(G: Graph | Digraph) -> tuple[tuple[int, int], ...]:
    """Endpoint pairs in order: a digraph's arcs, a graph's edges."""
    return G.arcs if isinstance(G, Digraph) else G.edges


def edges_match_under(src: Graph | Digraph, dst: Graph, vertex_map: Mapping[int, int]) -> bool:
    """True when vertex_map is a bijection carrying src's edge multiset (arcs unordered) onto dst's."""
    if src.p != dst.p or src.q != dst.q:
        return False
    if sorted(vertex_map) != list(range(1, src.p + 1)):
        return False
    if sorted(vertex_map.values()) != list(range(1, dst.p + 1)):
        return False
    mapped = sorted(
        [(a, b) if (a := vertex_map[u]) <= (b := vertex_map[v]) else (b, a) for u, v in _pairs(src)]
    )
    return mapped == sorted(dst.edges)


# The most vertices a 'p' header or a split doubling may ask for; larger
# counts would only size lists until memory runs out.
_MAX_VERTICES = 10**6

_NOT_AN_INTEGER = "fields must be integers: ASCII digits 0-9, after a '-' if negative"


def _records(text: str, heads: tuple[str, ...]) -> Iterator[tuple[int, str, tuple[int, ...]]]:
    """The line grammar of every input file: yields (line number from 1,
    directive, integer fields) for each line that is not blank or a '#'
    comment.  The directive is one of heads, or "" when heads is empty;
    'p' takes one field, the vertex count, refused above _MAX_VERTICES
    before anything is sized by it, and every other directive two.  A
    field is ASCII digits, after a '-' if negative.
    """
    allowed = frozenset(heads)
    width = 3 if heads else 2  # tokens on a line other than 'p'
    # int() also reads '+', '_' between digits and non-ASCII digits, and
    # without them exactly an optional '-' and ASCII digits; so the fields
    # are checked line by line only when the text holds one of them (in a
    # comment, perhaps).  str.isascii() reads a flag the string keeps
    suspect = not text.isascii() or "+" in text or "_" in text
    for ln, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        head = parts[0] if heads else ""
        if heads and head not in allowed:
            raise ParseError(f"unknown directive {head!r} (expected {'/'.join(heads)})", ln)
        if len(parts) != (2 if head == "p" else width):
            raise ParseError(f"expected {1 if head == 'p' else 2} integer field(s)", ln)
        if suspect:
            spelled = parts[1] if head == "p" else parts[-2] + parts[-1]
            if not spelled.isascii() or "+" in spelled or "_" in spelled:
                raise ParseError(_NOT_AN_INTEGER, ln)
        try:
            values = (int(parts[1]),) if head == "p" else (int(parts[-2]), int(parts[-1]))
        except ValueError:
            raise ParseError(_NOT_AN_INTEGER, ln) from None
        if head == "p" and not 0 <= values[0] <= _MAX_VERTICES:
            raise ParseError(f"vertex count must lie in 0..{_MAX_VERTICES}", ln)
        yield ln, head, values


def _construct(records: Iterable[tuple[int, str, tuple[int, ...]]], directive: str):
    """The vertex count and endpoint pairs of 'p' and directive records."""
    p: int | None = None
    pairs: list[tuple[int, ...]] = []
    for ln, head, fields in records:
        if head == "p":
            if p is not None:
                raise ParseError("duplicate p line", ln)
            p = fields[0]
        elif p is None:
            raise ParseError(f"{directive!r} line before the p line", ln)
        elif 0 < fields[0] <= p and 0 < fields[1] <= p:
            pairs.append(fields)
        else:
            raise ParseError(f"endpoint out of range 1..{p}", ln)
    if p is None:
        raise ParseError("missing 'p' line")
    return p, pairs


def parse_graph(text: str) -> Graph:
    """Parse the undirected text format ('p' line, then 'e <u> <v>' lines)."""
    return Graph(*_construct(_records(text, ("p", "e")), "e"))


def parse_digraph(text: str) -> Digraph:
    """Parse the directed text format ('p' line, then 'a <u> <v>' lines)."""
    return Digraph(*_construct(_records(text, ("p", "a")), "a"))


def format_graph(G: Graph) -> str:
    lines = [f"p {G.p}"]
    lines.extend(f"e {u} {v}" for u, v in G.edges)
    return "\n".join(lines) + "\n"


def format_digraph(D: Digraph) -> str:
    lines = [f"p {D.p}"]
    lines.extend(f"a {u} {v}" for u, v in D.arcs)
    return "\n".join(lines) + "\n"
