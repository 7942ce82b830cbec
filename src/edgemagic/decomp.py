"""Split doublings of bipartite graphs and the duality tests they support.

Start from a simple bipartite graph with stable parts X and Y, split its
edge set into two parts, and pick a copy count n.  The split doubling
(s2n for short, split to n copies) keeps the original vertices and adds n
fresh copies of each.  Original edges stay.  An edge in the first part
additionally joins its X endpoint to every copy of its Y endpoint; an
edge in the second part joins every copy of its X endpoint to the Y
endpoint.

Orient first-part edges from X to Y and second-part edges the other way,
and the doubling becomes the tensor style composition of that orientation
with a star with loop on n leaves.  Each edge magic labeling f of the
base graph, of valence v, and each star center label r in 1..n+1 then
give an edge magic labeling of the doubling, of valence (n+1)(v-2)+r+1,
without any search: the composition's labeling carried along
s2n_iso_map, which induced_s2n_labeling writes in closed form.

The implication runs backwards too: a graph presented as a split doubling
must reach at least as many valences as the composition guarantees, so a
shortfall certifies that no edge split of the base graph produces it.
obstruction_report runs those tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import BudgetExceededError
from .graphs import (
    _MAX_VERTICES,
    Bipartition,
    Digraph,
    Graph,
    bipartition,
    check_bipartition,
    edges_match_under,
)
from .labelings import TotalLabeling, valence_of
from .products import tensor_product
from .search import DEFAULT_CAP, _search

__all__ = [
    "Decomposition",
    "check_decomposition",
    "enumerate_2_decompositions",
    "orient_for_decomposition",
    "S2nGraph",
    "build_s2n",
    "s2n_iso_map",
    "verify_s2n_iso",
    "induced_s2n_labeling",
    "ObstructionReport",
    "obstruction_report",
]


def check_decomposition(G: Graph, part1: frozenset[int], part2: frozenset[int]) -> bool:
    """True when part1 and part2 split the edge indices 1..q of G exactly."""
    full = frozenset(range(1, G.q + 1))
    return (part1 | part2) == full and not (part1 & part2)


@dataclass(frozen=True)
class Decomposition:
    """An ordered split of a graph's edge set into two index parts.

    Parts may be empty; edge indices are 1-based positions in base.edges.
    """

    base: Graph
    part1: frozenset[int]
    part2: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "part1", frozenset(self.part1))
        object.__setattr__(self, "part2", frozenset(self.part2))
        if not check_decomposition(self.base, self.part1, self.part2):
            raise ValueError("parts must split the edge indices exactly")


def enumerate_2_decompositions(
    G: Graph, include_empty: bool = False, cap: int = 20
) -> Iterator[Decomposition]:
    """All ordered splits of G's edge set into two parts, one per subset.

    Subsets are emitted in increasing binary order, bit i-1 of the mask
    placing edge i in the first part.  Splits with an empty part are
    skipped unless include_empty is set, giving 2^q - 2 splits by default
    and 2^q with the flag.  Refuses graphs with more than cap edges.
    """
    if G.q > cap:
        raise BudgetExceededError(
            f"refusing to enumerate 2^{G.q} splits: q exceeds cap {cap}"
        )
    full = frozenset(range(1, G.q + 1))
    for mask in range(2 ** G.q):
        part1 = frozenset(i for i in full if mask >> (i - 1) & 1)
        if not include_empty and (not part1 or len(part1) == G.q):
            continue
        yield Decomposition(G, part1, full - part1)


def orient_for_decomposition(G: Graph, bip: Bipartition, d: Decomposition) -> Digraph:
    """Orient G's edges by part: first part X to Y, second part Y to X.

    Arc i is the oriented version of edge i, so edge order is preserved.
    """
    if d.base != G:
        raise ValueError("decomposition belongs to a different graph")
    if not check_bipartition(G, bip):
        raise ValueError("not a bipartition of this graph")
    arcs = []
    for i, (u, v) in enumerate(G.edges, start=1):
        x, y = (u, v) if u in bip.X else (v, u)
        arcs.append((x, y) if i in d.part1 else (y, x))
    return Digraph(G.p, tuple(arcs))


@dataclass(frozen=True)
class S2nGraph:
    """A split doubling with its orientation and vertex roles.

    orientation is the split's orient_for_decomposition digraph, which
    the doubling composes with a star.  Vertices 1..p are the originals;
    copy block k occupies k*p+1 .. (k+1)*p, X copies (sorted) before Y
    copies.  Edges start with the base edges in order, then for each
    copy level k the level's cross edges in base edge order.  roles holds
    one (side, level) pair per vertex, level 0 meaning original;
    offsets[v-1] is the position of original v's copy in every block.
    """

    base: Graph
    orientation: Digraph
    n: int
    graph: Graph
    roles: tuple[tuple[str, int], ...]
    offsets: tuple[int, ...]

    def copy_index(self, v: int, k: int) -> int:
        """The vertex holding copy k of original vertex v, k in 1..n."""
        if not 1 <= k <= self.n:
            raise ValueError(f"copy level must lie in 1..{self.n}")
        if not 1 <= v <= self.base.p:
            raise ValueError(f"original vertex must lie in 1..{self.base.p}")
        return k * self.base.p + self.offsets[v - 1]


def _check_copies(p: int, n: int) -> None:
    """Refuse a copy count that builds no doubling of a p-vertex graph."""
    if n < 1:
        raise ValueError("need at least one copy")
    if p * (n + 1) > _MAX_VERTICES:
        raise ValueError(f"the doubling would have {p * (n + 1)} vertices, above {_MAX_VERTICES}")


def build_s2n(G: Graph, bip: Bipartition, d: Decomposition, n: int) -> S2nGraph:
    """Construct the split doubling of G for the given split and copy count.

    The doubling is the split's orientation composed with a star: at each
    copy level k, arc a -> b of orient_for_decomposition adds the edge
    from original a to copy k of b.
    """
    _check_copies(G.p, n)
    if not G.is_simple():
        raise ValueError("doubling needs a simple graph")
    D = orient_for_decomposition(G, bip, d)
    xs, ys = sorted(bip.X), sorted(bip.Y)
    offsets = [0] * G.p
    for i, v in enumerate(xs + ys, start=1):
        offsets[v - 1] = i
    edges = G.edges + tuple((a, k * G.p + offsets[b - 1]) for k in range(1, n + 1) for a, b in D.arcs)
    roles = [("x", 0) if v in bip.X else ("y", 0) for v in range(1, G.p + 1)]
    for k in range(1, n + 1):
        roles += [("x", k)] * len(xs) + [("y", k)] * len(ys)
    return S2nGraph(
        base=G,
        orientation=D,
        n=n,
        graph=Graph(G.p * (n + 1), edges),
        roles=tuple(roles),
        offsets=tuple(offsets),
    )


def s2n_iso_map(s: S2nGraph) -> dict[int, int]:
    """Vertex bijection from the star composition onto the doubling.

    The composition of the split orientation with the (n+1)-vertex star
    with loop, center at vertex 1, numbers its vertices (n+1)*(a-1) + i
    for original vertex a and fiber position i.  Fiber position 1 carries
    the originals and position i > 1 copy level i-1.
    """
    p, c = s.base.p, s.n + 1
    # copy level k of a is vertex k*p + offsets[a-1]
    return {
        c * (a - 1) + i: (i - 1) * p + off if i > 1 else a
        for a, off in enumerate(s.offsets, 1)
        for i in range(1, c + 1)
    }


def verify_s2n_iso(G: Graph, bip: Bipartition, d: Decomposition, n: int) -> bool:
    """Check that the doubling really is the star composition in disguise.

    Both graphs read the split only through its orientation: the doubling
    adds one cross edge per arc and copy level, the composition goes
    through tensor_product with the looped star, and the explicit vertex
    bijection between them is tested edge by edge.
    """
    return _is_star_composition(build_s2n(G, bip, d, n))


def _is_star_composition(s: S2nGraph) -> bool:
    star = Digraph(s.n + 1, tuple((1, j) for j in range(1, s.n + 2)))
    prod = tensor_product(s.orientation, (star,) * s.base.q)
    return edges_match_under(prod, s.graph, s2n_iso_map(s))


def _s2n_labels(s: S2nGraph, f: TotalLabeling, r: int) -> TotalLabeling:
    """induced_s2n_labeling's labels, unchecked; g[k] is the star's label
    at fiber position k+1."""
    c = s.n + 1
    g = (r, *(k if k < r else k + 1 for k in range(1, c)))
    blocks = [c * (x - 1) for x in f.vertex_labels]
    # every copy block lists the originals in offset order
    copies = [blocks[a] for a in sorted(range(s.base.p), key=s.offsets.__getitem__)]
    vertex_labels = [b + r for b in blocks]
    for y in g[1:]:
        vertex_labels += [b + y for b in copies]
    return TotalLabeling(vertex_labels, [c * x + 1 - y for y in g for x in f.edge_labels])


def induced_s2n_labeling(
    G: Graph,
    bip: Bipartition,
    d: Decomposition,
    n: int,
    f: TotalLabeling,
    r: int,
) -> tuple[S2nGraph, TotalLabeling, int]:
    """Edge magic labeling of the doubling induced by one of the base graph.

    f must be an edge magic labeling of G of valence v, and r in 1..n+1
    the star's center label; the star's leaf k is labeled g_k = k below r
    and k+1 from r on.  Original a gets (n+1)*(f(a)-1) + r, its copy k
    (n+1)*(f(a)-1) + g_k, base edge t (n+1)*f(t) + 1 - r and the level k
    cross edge of arc t (n+1)*f(t) + 1 - g_k: the star composition's
    labeling carried along s2n_iso_map(s), of valence
    (n+1)*(v-2) + r + 1.  The doubling is proved to be that composition
    and the labeling is checked on it; when f is super edge magic so is
    the labeling.  Returns the doubling, the labeling, its valence.
    """
    v = valence_of(G, f)
    if v is None:
        raise ValueError("base labeling is not edge magic")
    s = build_s2n(G, bip, d, n)
    if not 1 <= r <= n + 1:
        raise ValueError(f"center label must lie in 1..{n + 1}")
    if not _is_star_composition(s):
        raise RuntimeError("the doubling does not match the star composition")
    lab = _s2n_labels(s, f, r)
    if sorted(f.vertex_labels) == list(range(1, G.p + 1)):
        if sorted(lab.vertex_labels) != list(range(1, s.graph.p + 1)):
            raise RuntimeError("the doubling's labeling lost the vertex label range")
    valence = (n + 1) * (v - 2) + r + 1
    if valence_of(s.graph, lab) != valence:
        raise RuntimeError("the doubling's labeling lost its valence")
    return s, lab, valence


@dataclass(frozen=True)
class ObstructionReport:
    """Outcome of testing a claimed split doubling against its base graph.

    instance records whether the candidate has the doubling shape at all
    for the given roles; when it does not, reason says why and every test
    is None.  h1_edges and h2_edges are the cross edges read off the
    candidate, as base vertex pairs (X endpoint first).  The three tests
    are each "pass", "obstruction" or "inconclusive: budget"; an
    obstruction certifies that no edge split of the base graph produces
    the candidate.  overall is one of "not-an-instance",
    "no-decomposition", "inconclusive" and "no-obstruction".
    """

    instance: bool
    n: int
    overall: str
    reason: str | None = None
    h1_edges: tuple[tuple[int, int], ...] | None = None
    h2_edges: tuple[tuple[int, int], ...] | None = None
    base_em_count: int | None = None
    base_sem_count: int | None = None
    star_em_count: int | None = None
    star_sem_count: int | None = None
    magic_test: str | None = None
    sem_count_test: str | None = None
    em_count_test: str | None = None


def _not_an_instance(n: int, reason: str) -> ObstructionReport:
    return ObstructionReport(instance=False, n=n, overall="not-an-instance", reason=reason)


def _counts(H: Graph, cap: int) -> tuple[int | None, int | None]:
    """How many edge magic and super edge magic valences H reaches, or
    (None, None) when a search is refused.  Every super edge magic
    labeling is edge magic with the same valence, so the edge magic search
    takes the super edge magic witnesses, and their complements, as known
    and searches only the valences they leave open."""
    try:
        sem = dict(_search(H, "sem", cap)[1])
        return sum(1 for _ in _search(H, "em", cap, sem)[1]), len(sem)
    except BudgetExceededError:
        return None, None


def obstruction_report(
    Gstar: Graph,
    roles: Sequence[tuple[str, int]],
    G: Graph,
    n: int,
    cap: int = DEFAULT_CAP,
) -> ObstructionReport:
    """Test whether Gstar can be a split doubling of G with the given roles.

    roles assigns each Gstar vertex a side ("x" or "y") and a copy level
    (0 for original); within one side and level, vertices correspond to
    the sorted base side by rank.  The structural pass extracts the two
    cross edge families and rejects anything the doubling never builds.
    A structurally valid candidate is then tested against what the star
    composition guarantees for every true split: the doubling of an edge
    magic graph stays edge magic (likewise super edge magic), reaches at
    least (n+1) times as many super edge magic valences, and at least
    (n+1) times as many edge magic valences plus two.  Tests whose
    hypothesis fails (a base graph with no labelings of that kind) pass
    vacuously; searches beyond cap leave a test inconclusive.
    """
    if n < 1:
        raise ValueError("need at least one copy")
    bip = bipartition(G)
    if bip is None or not G.is_simple():
        raise ValueError("base graph must be simple and bipartite")
    if len(roles) != Gstar.p:
        raise ValueError(f"need one role per vertex: {Gstar.p} vertices, {len(roles)} roles")
    classes: dict[tuple[str, int], list[int]] = {}
    for w, (side, k) in enumerate(roles, start=1):
        if side not in ("x", "y") or not 0 <= k <= n:
            raise ValueError(f"vertex {w} has undefined role ({side!r}, {k})")
        classes.setdefault((side, k), []).append(w)
    # to_base[w]: the side, copy level and base vertex that w stands for
    to_base: dict[int, tuple[str, int, int]] = {}
    for k in range(n + 1):
        for side, base in (("x", sorted(bip.X)), ("y", sorted(bip.Y))):
            members = classes.get((side, k), [])
            if len(members) != len(base):
                raise ValueError(f"role classes at level {k} do not match the base sides")
            to_base.update((w, (side, k, b)) for w, b in zip(members, base))

    # cross[part, k]: level k's cross edges as base pairs; a first-part edge
    # leaves an original X vertex, a second-part edge a copy of one
    base_pairs: list[tuple[int, int]] = []
    cross: dict[tuple[str, int], list[tuple[int, int]]] = {
        (part, k): [] for part in ("first", "second") for k in range(1, n + 1)
    }
    for u, v in Gstar.edges:
        x, y = to_base[u], to_base[v]
        if x[0] == y[0]:
            return _not_an_instance(n, f"edge {{{u}, {v}}} stays on side {x[0]}")
        if x[0] == "y":
            x, y = y, x
        (_, kx, bx), (_, ky, by) = x, y
        if kx and ky:
            return _not_an_instance(n, f"edge {{{u}, {v}}} joins copy levels {kx} and {ky}")
        if kx == ky == 0:
            base_pairs.append((bx, by))
        else:
            cross["second" if kx else "first", kx + ky].append((bx, by))

    expected = sorted((u, v) if u in bip.X else (v, u) for u, v in G.edges)
    if sorted(base_pairs) != expected:
        return _not_an_instance(n, "level 0 does not reproduce the base graph")
    h1 = sorted(set(cross["first", 1]))
    h2 = sorted(set(cross["second", 1]))
    for k in range(1, n + 1):
        for part, canon in (("first", h1), ("second", h2)):
            seen = cross[part, k]
            if len(seen) != len(set(seen)):
                return _not_an_instance(
                    n, f"{part} part cross edges repeat a pair at copy level {k}"
                )
            if sorted(seen) != canon:
                return _not_an_instance(n, f"{part} part cross edges differ between copy levels")

    base_em, base_sem = _counts(G, cap)
    star_em, star_sem = _counts(Gstar, cap)
    budget = "inconclusive: budget"
    rank = ("pass", budget, "obstruction")

    def test(base: int | None, star: int | None, scale: int, extra: int = 0) -> str:
        # every true split reaches star >= scale * base + extra
        if base == 0:
            return "pass"
        if base is None or star is None:
            return budget
        return "pass" if star >= scale * base + extra else "obstruction"

    magic_test = max(test(base_em, star_em, 0, 1), test(base_sem, star_sem, 0, 1), key=rank.index)
    sem_count_test = test(base_sem, star_sem, n + 1)
    em_count_test = test(base_em, star_em, n + 1, 2)
    tests = (magic_test, sem_count_test, em_count_test)
    overall = ("no-obstruction", "inconclusive", "no-decomposition")[max(map(rank.index, tests))]
    return ObstructionReport(
        instance=True,
        n=n,
        h1_edges=tuple(h1),
        h2_edges=tuple(h2),
        base_em_count=base_em,
        base_sem_count=base_sem,
        star_em_count=star_em,
        star_sem_count=star_sem,
        magic_test=magic_test,
        sem_count_test=sem_count_test,
        em_count_test=em_count_test,
        overall=overall,
    )
