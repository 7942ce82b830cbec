"""Independent checks of edgemagic outputs.

Nothing here imports edgemagic or calls its verifiers.  Graphs are plain
``(p, edges)`` pairs with 1-based vertices; labelings are read only
through their ``vertex_labels`` and ``edge_labels`` attributes.  Every
fact the benchmark asserts about an output is recomputed here from first
principles: bijections and edge sums, the rearrangement pairing behind
the valence window, the two duality symmetries, the closed-form product
valences, the Kronecker arc multiset, the split doubling edge set, and
every spectrum and least valence: by brute-force enumeration for small
graphs, by a backtracking search of the checker's own beyond them.
"""
from __future__ import annotations

import math
from collections import Counter, deque
from fractions import Fraction
from itertools import permutations


class CheckFailed(AssertionError):
    """An output of the program does not pass an independent check."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def norm(edges) -> list[tuple[int, int]]:
    return [(u, v) if u <= v else (v, u) for u, v in edges]


def degrees(p: int, edges) -> list[int]:
    d = [0] * (p + 1)
    for u, v in edges:
        d[u] += 1
        d[v] += 1
    return d[1:]


def magic_valence(p: int, edges, vl, el, sem: bool = False) -> int:
    """The constant edge sum of a total labeling; fails unless it is one.

    Checks that the labels are a bijection onto 1..p+q and, with sem,
    that the vertices carry exactly 1..p.  A loop counts its vertex twice.
    """
    vl, el = list(vl), list(el)
    q = len(edges)
    require(len(vl) == p and len(el) == q, f"labeling shape {len(vl)}+{len(el)} != {p}+{q}")
    require(sorted(vl + el) == list(range(1, p + q + 1)), "labels are not a bijection onto 1..p+q")
    if sem:
        require(sorted(vl) == list(range(1, p + 1)), "vertex labels are not 1..p")
    sums = {vl[u - 1] + vl[v - 1] + el[i] for i, (u, v) in enumerate(edges)}
    require(len(sums) == 1, f"edge sums are not constant: {sorted(sums)[:4]}")
    return sums.pop()


def labels_of(f) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(f.vertex_labels), tuple(f.edge_labels)


def window(p: int, edges, kind: str) -> tuple[Fraction, Fraction]:
    """Rational valence extremes by the rearrangement pairing.

    q*k is the degree-weighted vertex label sum plus the edge label sum;
    pairing the heaviest weights with the smallest labels gives the
    minimum, with the largest labels the maximum.
    """
    q = len(edges)
    deg = sorted(degrees(p, edges), reverse=True)
    if kind == "sem":
        weights, labels, const = deg, list(range(1, p + 1)), sum(range(p + 1, p + q + 1))
    else:
        weights, labels, const = sorted(deg + [1] * q, reverse=True), list(range(1, p + q + 1)), 0
    lo = sum(w * x for w, x in zip(weights, labels)) + const
    hi = sum(w * x for w, x in zip(weights, reversed(labels))) + const
    return Fraction(lo, q), Fraction(hi, q)


def int_window(p: int, edges, kind: str) -> tuple[int, int]:
    lo, hi = window(p, edges, kind)
    return math.ceil(lo), math.floor(hi)


def mirror(p: int, q: int, kind: str) -> int:
    """k + mirror(k) is constant under the complement (em) or SEM dual."""
    return 3 * (p + q + 1) if kind == "em" else 4 * p + q + 3


def brute_spectrum(p: int, edges, kind: str) -> list[int]:
    """All valences by enumerating every vertex labeling.

    For each injective vertex labeling the edge labels are whatever is
    left; a valence exists when the q values k - (g(u) + g(v)) are
    exactly those labels, which fixes k by the sum.
    """
    q = len(edges)
    total = p + q
    found: set[int] = set()
    pool = range(1, p + 1) if kind == "sem" else range(1, total + 1)
    full = set(range(1, total + 1))
    for g in permutations(pool, p):
        rest = full.difference(g)
        sums = [g[u - 1] + g[v - 1] for u, v in edges]
        num = sum(rest) + sum(sums)
        if num % q:
            continue
        k = num // q
        if sorted(k - s for s in sums) == sorted(rest):
            found.add(k)
    return sorted(found)


def closing_order(p: int, edges) -> tuple[list[int], list[list[int]]]:
    """Maximum-cardinality order: each next vertex has the most edges to the
    vertices already placed (then the highest degree, then the least
    number), so edge labels are forced as early as possible.  Also returns,
    per position, the other endpoints of the edges that position closes."""
    deg = degrees(p, edges)
    adj: list[list[int]] = [[] for _ in range(p + 1)]
    for u, v in edges:
        adj[u].append(v)
        if u != v:
            adj[v].append(u)
    links = [0] * (p + 1)
    order: list[int] = []
    left = set(range(1, p + 1))
    while left:
        v = max(left, key=lambda w: (links[w], deg[w - 1], -w))
        left.remove(v)
        order.append(v)
        for w in adj[v]:
            links[w] += 1
    pos = {v: i for i, v in enumerate(order)}
    closes: list[list[int]] = [[] for _ in order]
    for u, v in edges:
        first, last = sorted((u, v), key=pos.__getitem__)
        closes[pos[last]].append(first)
    return order, closes


def find_labeling(p: int, edges, kind: str, k: int) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """A labeling of valence k, by backtracking over vertex labels, or None.

    Placing a vertex forces the label k - g(u) - g(v) of every edge it
    closes; a branch dies when a forced label is out of range or taken.
    When every vertex is placed, the p+q labels are distinct and in
    1..p+q, so they are a bijection.
    """
    total = p + len(edges)
    order, closes = closing_order(p, edges)
    vmax, emin = (p, p + 1) if kind == "sem" else (total, 1)
    used = [False] * (total + 1)
    g = [0] * (p + 1)

    def place(i: int) -> bool:
        if i == p:
            return True
        v, ends = order[i], closes[i]
        for x in range(1, vmax + 1):
            if used[x]:
                continue
            used[x] = True
            g[v] = x
            forced: list[int] = []
            for u in ends:
                e = k - x - g[u]
                if e < emin or e > total or used[e]:
                    break
                used[e] = True
                forced.append(e)
            else:
                if place(i + 1):
                    return True
            for e in forced:
                used[e] = False
            used[x] = False
        return False

    if not place(0):
        return None
    vl = tuple(g[1:])
    return vl, tuple(k - vl[u - 1] - vl[v - 1] for u, v in edges)


def exact_spectrum(p: int, edges, kind: str) -> list[int]:
    """All valences by find_labeling over the lower half of the integer
    window; the upper half follows by the duality k <-> mirror - k."""
    lo, hi = int_window(p, edges, kind)
    c = mirror(p, len(edges), kind)
    low = [k for k in range(lo, c // 2 + 1) if k <= hi and find_labeling(p, edges, kind, k) is not None]
    return sorted(set(low) | {c - k for k in low})


def least_valence(p: int, edges, kind: str) -> int | None:
    lo, hi = int_window(p, edges, kind)
    return next((k for k in range(lo, hi + 1) if find_labeling(p, edges, kind, k) is not None), None)


def check_spectrum(p: int, edges, kind: str, rep, expect: list[int]) -> None:
    """Witnesses, interval, symmetry and completeness of a report."""
    q = len(edges)
    lo_r, hi_r = window(p, edges, kind)
    iv = rep.interval
    require(iv.raw_min == lo_r and iv.raw_max == hi_r, f"{kind} window {iv.raw_min}..{iv.raw_max} != {lo_r}..{hi_r}")
    require((iv.lo, iv.hi) == (math.ceil(lo_r), math.floor(hi_r)), f"{kind} interval ends")
    achieved = list(rep.achieved)
    require(achieved == sorted(rep.witnesses), "achieved differs from the witness keys")
    for k, f in rep.witnesses.items():
        vl, el = labels_of(f)
        require(magic_valence(p, edges, vl, el, sem=(kind == "sem")) == k, f"{kind} witness for {k}")
        require(iv.lo <= k <= iv.hi, f"{kind} valence {k} outside the interval")
    c = mirror(p, q, kind)
    require(sorted(c - k for k in achieved) == achieved, f"{kind} spectrum is not symmetric about {c}/2")
    require(rep.perfect == (len(achieved) == max(0, iv.hi - iv.lo + 1)), "perfect flag")
    require(achieved == expect, f"{kind} spectrum {achieved} != checker's {expect}")


def check_first(p: int, edges, kind: str, hit, least: int | None) -> None:
    """A first-hit result: None exactly when the checker finds no labeling,
    otherwise a valid witness of the checker's least valence."""
    if hit is None:
        require(least is None, f"first {kind} missed, the checker's least valence is {least}")
        return
    k, f = hit
    vl, el = labels_of(f)
    require(magic_valence(p, edges, vl, el, sem=(kind == "sem")) == k, f"first {kind} witness for {k}")
    require(k == least, f"first {kind} valence {k}, the checker's least is {least}")


def bipartite_sides(p: int, edges) -> tuple[frozenset[int], frozenset[int]]:
    """2-coloring with the least vertex of each component on side X."""
    adj: list[list[int]] = [[] for _ in range(p + 1)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    side = [0] * (p + 1)
    for root in range(1, p + 1):
        if side[root]:
            continue
        side[root] = 1
        todo = deque([root])
        while todo:
            u = todo.popleft()
            for w in adj[u]:
                if not side[w]:
                    side[w] = -side[u]
                    todo.append(w)
                require(side[w] != side[u], "graph is not bipartite")
    return (frozenset(v for v in range(1, p + 1) if side[v] == 1),
            frozenset(v for v in range(1, p + 1) if side[v] == -1))


def doubling(p: int, edges, part1, n: int) -> tuple[int, list[tuple[int, int]], list[tuple[str, int]]]:
    """The split doubling, built straight from its definition.

    Copy k of vertex v is k*p + its rank in (sorted X, then sorted Y).  A
    first-part edge xy adds x to every copy of y; a second-part edge adds
    every copy of x to y.
    """
    X, Y = bipartite_sides(p, edges)
    rank = {v: i for i, v in enumerate(sorted(X) + sorted(Y), start=1)}
    out = list(edges)
    for k in range(1, n + 1):
        for i, (u, v) in enumerate(edges, start=1):
            x, y = (u, v) if u in X else (v, u)
            out.append((x, k * p + rank[y]) if i in part1 else (k * p + rank[x], y))
    roles = [("x" if v in X else "y", 0) for v in range(1, p + 1)]
    for k in range(1, n + 1):
        roles += [("x", k)] * len(X) + [("y", k)] * len(Y)
    return p * (n + 1), out, roles


def cross_pairs(p: int, edges, part) -> list[tuple[int, int]]:
    """Edges of one split part as (X endpoint, Y endpoint), sorted."""
    X, _ = bipartite_sides(p, edges)
    return sorted((u, v) if u in X else (v, u) for i, (u, v) in enumerate(edges, start=1) if i in part)


def crown(m: int, n: int) -> tuple[int, list[tuple[int, int]]]:
    """Cycle 1..m with n pendants per cycle vertex, pendants numbered after."""
    edges = [(i, i % m + 1) for i in range(1, m + 1)]
    edges += [(i, m + (i - 1) * n + j) for i in range(1, m + 1) for j in range(1, n + 1)]
    return m * (n + 1), edges


def same_edges(a, b, what: str) -> None:
    require(Counter(norm(a)) == Counter(norm(b)), f"{what}: edge multisets differ")


def kronecker(outer_arcs, members) -> Counter:
    """Arc multiset of the composition with member vertices ranked by label.

    members holds one (arcs, vertex_labels) pair per outer arc; member
    vertex v sits at fiber position rank(label of v).
    """
    pm = len(members[0][1])
    arcs: Counter = Counter()
    for (a, b), (marcs, mvl) in zip(outer_arcs, members):
        rank = {v: r for r, v in enumerate(sorted(range(1, pm + 1), key=lambda v: mvl[v - 1]), start=1)}
        for i, j in marcs:
            arcs[(pm * (a - 1) + rank[i], pm * (b - 1) + rank[j])] += 1
    return arcs


def min_sum(edges, vl) -> int:
    return min(vl[u - 1] + vl[v - 1] for u, v in edges)


def sem_product_valence(p_m: int, outer_valence: int, k: int) -> int:
    """SEM members of common key (p_m, k) composed into an EM outer digraph."""
    return p_m * (outer_valence - 3) + k + p_m


def em_product_valence(p_m: int, q_m: int, s_max: int, sigma: int) -> int:
    """EM members of common key (q_m, sigma, label set) composed into an SEM outer digraph."""
    return (p_m + q_m) * (s_max - 2) + sigma


def crown_valences(m: int, n: int, cycle_valences, star_centers) -> set[int]:
    """Closed forms of the two crown routes: (n+1)(v-2)+r+1 with the cycle
    outer, (p+q)(n+r-1)+v with the star outer, p+q = 2m for the cycle."""
    out = {(n + 1) * (v - 2) + r + 1 for v in cycle_valences for r in range(1, n + 2)}
    out |= {2 * m * (n + r - 1) + v for v in cycle_valences for r in star_centers}
    return out


def doubling_valence(n: int, v: int, r: int) -> int:
    return (n + 1) * (v - 2) + r + 1


def check_obstruction(rep, n: int, base, part1, part2, base_counts, star_counts, true_doubling: bool) -> None:
    """An obstruction report against the recomputed cross edges and counts.

    base_counts and star_counts are the checker's (em, sem) spectrum sizes
    of the base and of the candidate.  The verdicts are recomputed from
    the counts, and a true split doubling must never be reported as having
    no decomposition.
    """
    p, edges = base
    require(rep.instance is True, f"not an instance: {rep.reason}")
    require(list(rep.h1_edges) == cross_pairs(p, edges, part1), "h1 cross edges")
    require(list(rep.h2_edges) == cross_pairs(p, edges, part2), "h2 cross edges")
    require((rep.base_em_count, rep.base_sem_count) == base_counts, "base spectrum counts")
    em0, sem0 = base_counts
    em1, sem1 = rep.star_em_count, rep.star_sem_count
    require((em1, sem1) == star_counts, f"candidate counts {em1}, {sem1} != checker's {star_counts}")
    magic = "obstruction" if (em0 > 0 and em1 == 0) or (sem0 > 0 and sem1 == 0) else "pass"
    semt = "pass" if sem0 == 0 or sem1 >= (n + 1) * sem0 else "obstruction"
    emt = "pass" if em0 == 0 or em1 >= (n + 1) * em0 + 2 else "obstruction"
    require((rep.magic_test, rep.sem_count_test, rep.em_count_test) == (magic, semt, emt),
            "verdicts do not follow from the counts")
    overall = "no-decomposition" if "obstruction" in (magic, semt, emt) else "no-obstruction"
    require(rep.overall == overall, f"overall {rep.overall} != {overall}")
    if true_doubling:
        require(overall != "no-decomposition", "a true split doubling was reported undecomposable")
