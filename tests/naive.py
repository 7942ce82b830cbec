"""Brute force reference implementations used only by the test suite.

Everything here enumerates permutations directly and shares no code with
the package, so agreement between the two is meaningful evidence.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from edgemagic import (
    Graph,
    mk_complete_bipartite,
    mk_crown,
    mk_cycle,
    mk_star_with_loop,
)

# Small graphs (p+q <= 8) for oracle equivalence; includes a loop and a
# parallel pair so the multigraph paths stay covered.
CORPUS: dict[str, Graph] = {
    "k2": Graph(2, ((1, 2),)),
    "p3": Graph(3, ((1, 2), (2, 3))),
    "p4": Graph(4, ((1, 2), (2, 3), (3, 4))),
    "c3": mk_cycle(3),
    "c4": mk_cycle(4),
    "k13": mk_complete_bipartite(1, 3),
    "k11l": mk_star_with_loop(1),
    "k12l": mk_star_with_loop(2),
    "loop1": Graph(1, ((1, 1),)),
    "digon": Graph(2, ((1, 2), (1, 2))),
}

# Larger graphs still inside the default search cap (p+q <= 16).
WIDE_CORPUS: dict[str, Graph] = {
    **CORPUS,
    "c5": mk_cycle(5),
    "c6": mk_cycle(6),
    "k23": mk_complete_bipartite(2, 3),
    "k33": mk_complete_bipartite(3, 3),
    "k14l": mk_star_with_loop(4),
    "crown31": mk_crown(3, 1),
}


def naive_valences(G: Graph, kind: str) -> list[int]:
    """All magic valences of G by full enumeration; kind is 'em' or 'sem'."""
    p, q = G.p, G.q
    total = p + q
    out: set[int] = set()
    pools = (
        permutations(range(1, p + 1))
        if kind == "sem"
        else permutations(range(1, total + 1), p)
    )
    for vl in pools:
        if kind == "sem":
            rest = list(range(p + 1, total + 1))
        else:
            rest = sorted(set(range(1, total + 1)) - set(vl))
        sums = [vl[u - 1] + vl[v - 1] for u, v in G.edges]
        for k in range(min(rest) + min(sums), max(rest) + max(sums) + 1):
            if sorted(k - s for s in sums) == rest:
                out.add(k)
    return sorted(out)


def naive_least_witness(G: Graph, kind: str, k: int) -> tuple[int, ...] | None:
    """The least vertex-label tuple, read in plan order (degree descending,
    then index), among the labelings of valence k; None when there is none.
    The tuples are enumerated in increasing order, so the first that
    completes to a labeling of valence k is the least."""
    p, q = G.p, G.q
    total = p + q
    deg = G.degrees()
    order = sorted(range(1, p + 1), key=lambda v: (-deg[v - 1], v))
    pool = range(1, (p if kind == "sem" else total) + 1)
    for labels in permutations(pool, p):
        f = dict(zip(order, labels))
        rest = set(range(p + 1, total + 1)) if kind == "sem" else set(range(1, total + 1)) - set(labels)
        if sorted(k - f[u] - f[v] for u, v in G.edges) == sorted(rest):
            return labels
    return None


def twin_classes(G: Graph) -> list[list[int]]:
    """Classes of two or more loopless vertices whose adjacency rows (edge
    multiplicities to every vertex) are equal, each in increasing order."""
    rows = [[0] * (G.p + 1) for _ in range(G.p + 1)]
    for u, v in G.edges:
        rows[u][v] += 1
        rows[v][u] += u != v
    classes: dict[tuple[int, ...], list[int]] = {}
    for v in range(1, G.p + 1):
        if not rows[v][v]:
            classes.setdefault(tuple(rows[v]), []).append(v)
    return [c for c in classes.values() if len(c) > 1]


def naive_interval_extremes(G: Graph, kind: str) -> tuple[Fraction, Fraction]:
    """Exact rational extremes of the average edge sum over all labelings."""
    p, q = G.p, G.q
    total = p + q
    deg = G.degrees()
    vals: list[Fraction] = []
    if kind == "sem":
        extra = sum(range(p + 1, total + 1))
        for vl in permutations(range(1, p + 1)):
            s = sum(deg[i] * vl[i] for i in range(p)) + extra
            vals.append(Fraction(s, q))
    else:
        for perm in permutations(range(1, total + 1)):
            vl, el = perm[:p], perm[p:]
            s = sum(deg[i] * vl[i] for i in range(p)) + sum(el)
            vals.append(Fraction(s, q))
    return min(vals), max(vals)


def naive_kronecker(D_p: int, D_arcs: list[tuple[int, int]],
                    M_p: int, M_arcs: list[tuple[int, int]]) -> set[tuple[int, int]]:
    """Arc set of the Kronecker product as a set of linearized pairs."""
    out = set()
    for a, b in D_arcs:
        for i, j in M_arcs:
            out.add((M_p * (a - 1) + i, M_p * (b - 1) + j))
    return out


def through_member_map(iso: dict[int, int], member_map) -> dict[int, int]:
    """iso, a vertex map of a product of members as built, read on the
    product of the same members each renumbered by member_map, entry i-1
    the new index of member vertex i."""
    b = len(member_map)
    return {b * ((x - 1) // b) + member_map[(x - 1) % b]: y for x, y in iso.items()}


def _center_code(p: int, edges) -> str:
    """AHU string of the tree rooted at its center; for a tree with two
    centers, the lesser of the two strings.  Equal strings mean
    isomorphic trees."""
    adj: list[list[int]] = [[] for _ in range(p + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    deg = [len(a) for a in adj]
    layer, left = [v for v in range(1, p + 1) if deg[v] <= 1], p
    # peel the leaves off, layer by layer, down to one or two centers
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            deg[v] = 0
            for w in adj[v]:
                deg[w] -= 1
                if deg[w] == 1:
                    nxt.append(w)
        layer = nxt

    def code(v: int, parent: int) -> str:
        return "(" + "".join(sorted(code(w, v) for w in adj[v] if w != parent)) + ")"

    return min(code(c, 0) for c in layer)


def all_trees(p_max: int) -> dict[int, list[Graph]]:
    """Every tree on p = 1..p_max vertices, one per isomorphism class:
    each tree on p-1 vertices grows a leaf p at each of its vertices, and
    a grown tree is kept when its center code is new."""
    out = {1: [Graph(1, ())]}
    for p in range(2, p_max + 1):
        seen: dict[str, Graph] = {}
        for T in out[p - 1]:
            for v in range(1, p):
                edges = (*T.edges, (v, p))
                seen.setdefault(_center_code(p, edges), Graph(p, edges))
        out[p] = list(seen.values())
    return out

