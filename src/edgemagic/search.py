"""Exhaustive spectrum search for edge magic and super edge magic labelings.

For each candidate valence k the search assigns vertex labels one vertex
at a time, highest degree first.  The moment both endpoints of an edge
are labeled, the edge label is forced to k minus the endpoint sum, so
edges never branch; a forced label outside the range or already in use
prunes the branch.  Assigning all p vertices therefore pins all q edge
labels, and the used-set discipline guarantees the result is a bijection
onto 1..p+q.

Six exact devices keep the search small.

Mirror.  Every spectrum is symmetric about the middle of its rational
window.  Replacing each label x by p+q+1-x turns an edge magic labeling
of valence k into one of valence 3(p+q+1)-k; replacing a vertex label x
by p+1-x and an edge label x by 2p+q+1-x turns a super edge magic one of
valence k into one of valence 4p+q+3-k.  Those sums c are exactly
raw_min + raw_max of the window, so only the valences k with 2k <= c are
searched, and the witness reported for c-k is the dual of the witness
found for k.

Bound.  Summing the edge equation over all q edges gives q*k = sum of
deg(v) * f(v) over the vertices + the sum of the edge labels.  Once some
vertices are placed, the unknown part of that sum belongs to the unplaced
vertices, weighted by their degrees (a loop counts twice), and to the
edges not yet forced, weighted 1, and these take exactly the free labels.
Pairing the weights in descending order with the free labels ascending,
and then descending, gives its least and greatest values (the
rearrangement extremes of intervals._extremes).  A partial labeling whose
remainder, q*k minus the known part, falls outside them cannot be
completed and is cut before the next vertex is placed.  For super edge
magic labelings the edge labels are p+1..p+q, a constant sum taken off
q*k once at the root, and only the free vertex labels take weights.  The
bound only cuts branches without a completion and leaves the order of
the search alone, so each searched valence yields the same first witness
as the search without it.

Twins.  Labels are tried in ascending order and every cut above removes
only branches without a completion, so the witness found for a valence
is the least vertex-label tuple, read in plan order, among all its
labelings (the edge labels follow from the vertex labels).  Call two
loopless vertices twins when they have the same neighbour multiset; they
are then not adjacent, since either would be its own neighbour.
Swapping the labels of twins u and v, and the labels of each edge uw
with those of a matched edge vw, keeps every edge sum, so the valence,
and keeps the set of vertex labels, so a super edge magic labeling stays
one.  If u comes before v and f(u) > f(v), the swap gives a smaller
tuple, so the least one increases along every twin class.  The search
therefore starts each vertex's labels just above its previous twin's
label, which cuts only labelings it would never return.  Looped vertices
are left out: two of them with the same neighbour multiset are adjacent,
and the swap must then also trade their loops and keep the edges between
them, an argument not made here; nor are adjacent vertices with the same
closed neighbourhood used.

Congruence.  Each label 1..p+q is used once, so the labels sum to
T = (p+q)(p+q+1)/2 and the summed edge equation reads
q*k - T = sum of (deg(v) - 1) * f(v) over the vertices.  At depth i the
unplaced vertices U and the edges not yet forced take exactly the free
labels, so the remainder minus the sum of the free labels equals the sum
of (deg(v) - 1) * f(v) over U, and the gcd g_i of those weights must
divide it.  For super edge magic labelings U takes exactly the free
vertex labels; with d the degree of any vertex of U, the remainder minus
d times their sum equals the sum of (deg(v) - d) * f(v) over U, and g_i
is the gcd of the degree differences within U.  The moduli are computed
once per graph for every depth, isolated vertices included (an isolated
vertex has edge magic weight -1, so g_i = 1 while one is unplaced).
g_i = 0 says the weighted sum is 0, which the bound already enforces,
and g_i = 1 cuts nothing, so only larger moduli are checked.  Placing
the vertex v at depth i - 1 with label x moves that residue by v's
weight times x, a multiple of g_(i-1); so where g_i equals g_(i-1), the
residue modulo g_i is the one already checked at a shallower depth and
the check is skipped.  At the root the edge magic check reads
q*k = T (mod g_0): the degrees of K4 are all 3, so g_0 = 2 and 6k - 55
is odd, and no valence is searched, the parity argument for odd-regular
graphs with p = 4 (mod 8) of Craft and Tesar (Discrete Math. 1999); the
odd valences of K3,3 fall the same way.  The cut removes only branches
without a completion, so no witness changes.

Middle.  At the self-dual valence k = c/2 the dual of a witness is a
witness of the same valence, and so is that dual composed with the swap
of the first vertex v0 of the plan and one of its twins u (or with no
swap), since the twin swap keeps every edge sum.  With flip = p+q+1 for
edge magic and p+1 for super edge magic labelings, that labeling gives
v0 the label flip - f(u) (flip - f(v0) without the swap).  The witness
the search returns is the least tuple, and v0 comes first in it, so
f(v0) <= flip - f(v0), that is f(v0) <= flip // 2, and
f(u) <= flip - f(v0) for every twin u.  At that one valence the search
stops the label loops of v0 and of its twins there: the cut removes only
labelings the search would never return, so no witness changes.  The
first cap needs only the duality, so it holds when v0 has a loop too.

Pairs.  Take a vertex c placed before depth i with r >= 2 distinct
unplaced neighbours.  Each such neighbour w and its edge cw will take two
labels that are free now and sum to s = k - f(c), and distinct
neighbours take distinct labels, so the free labels must hold r disjoint
pairs {a, s-a} with a < s-a (the pair argument of Kotzig and Rosa,
Canad. Math. Bull. 1970, used as forward checking is: Haralick and
Elliott, Artif. Intell. 1980).  Two different pairs with the same sum
share no label, so it is enough to count them.  For super edge magic
labelings f(w) is a vertex label, at most p, and f(cw) an edge label,
above p, so each pair is counted once, by its label at most p; for edge
magic labelings the free labels x whose partner s-x is free count each
pair twice and s/2 once more when it is free, and a count of 2u or
2u+1 reaches 2r exactly when u >= r.  When the free labels hold exactly
r such pairs for c, every one of them is used by c's open edges, so no
other vertex or edge can take their labels: another such vertex b must
then find one pair for each unplaced neighbour it does not share with c
among the labels that are left (its own edges and those neighbours take
no label of c's pairs).  A node where some such c or b falls short has
no completion and is cut once the bound passes, so no witness changes.
The vertices c, their r and, for each other b at the same depth, b's
unshared count are planned once per graph for every depth, with one
integer bitmask of later neighbours per vertex; at a node the free
labels are read as two integers, one of them byte-reversed, each vertex
checked costs one shift, one and, and one bit count, and the recount
after a tight c removes its pairs with two more ands.

Every witness, mirrored ones included, is re-verified before it is
reported.  The search is exact and deterministic but exponential, so
instances are refused beyond a size cap instead of silently running
forever, and so is a search deeper than the recursion limit allows.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import gcd
from operator import mul
from typing import Callable, Iterator, Mapping

from .errors import BudgetExceededError
from .graphs import Graph
from .intervals import IntervalReport, em_interval, sem_interval
from .labelings import TotalLabeling, complement, is_super_edge_magic, valence_of

__all__ = [
    "DEFAULT_CAP",
    "SpectrumReport",
    "em_spectrum",
    "sem_spectrum",
    "first_em_labeling",
    "first_sem_labeling",
    "is_perfect_em",
    "is_perfect_sem",
]

DEFAULT_CAP = 16


@dataclass(frozen=True)
class SpectrumReport:
    """Searched valences of one kind ('em' or 'sem') for one graph.

    Witnesses for valences above the middle of the window are the duals
    of the witnesses for their mirror valences below it.
    """

    kind: str
    interval: IntervalReport
    achieved: tuple[int, ...]
    witnesses: Mapping[int, TotalLabeling]
    perfect: bool


def _witness_finder(G: Graph, kind: str, mirror: int) -> Callable[[int], TotalLabeling | None]:
    """Plan the search once per graph and return the search for one valence.

    The plan holds the vertex order (degree descending, index ascending),
    for each position the other ends of the edges forced there and the
    previous twin, the bound's weights for each depth, largest first, the
    congruence modulus for each depth, 0 where it needs no check, and the
    positions of the first vertex and of its twins, which the middle cut
    bounds at the valence mirror / 2, and for each depth the placed
    vertices whose open edges the pair count checks, each with what the
    others still need when its own pairs are all spoken for.
    The unplaced degrees are a slice of the order; zero degrees add
    nothing to the bound and are left out of its weights.
    Once every vertex of nonzero degree is placed, every edge is forced
    and there is nothing left to bound or to search: the isolated
    vertices, last in the order, take the free labels least first, which
    is what the search would give them, so they add no recursion depth.
    One call per vertex of nonzero degree checks the congruence, the bound
    and the pairs on the remainder and labels passed down, then places
    the vertex; the witness's edge labels are derived once, at the end,
    as k - f(u) - f(v).
    """
    p, q = G.p, G.q
    total = p + q
    sem = kind == "sem"
    deg = G.degrees()
    order = sorted(range(1, p + 1), key=lambda v: (-deg[v - 1], v))
    degs = [deg[v - 1] for v in order]
    pos = {v: i for i, v in enumerate(order)}
    finishers: list[list[int]] = [[] for _ in order]
    for u, v in G.edges:
        later, other = (u, v) if pos[u] >= pos[v] else (v, u)
        finishers[pos[later]].append(other)
    vmax = p if sem else total
    flip = vmax + 1
    emin = p + 1 if sem else 1
    live = sum(1 for d in degs if d)
    nbrs: list[list[int]] = [[] for _ in range(p + 1)]
    for u, v in G.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    # twin[i]: the last vertex before order[i] with the same neighbour
    # multiset, both loopless; 0, whose label reads as 0, when there is none.
    # v0_class: the positions of order[0] and of its twins
    last: dict[tuple[int, ...], int] = {}
    twin = [0] * live
    v0_class = {0}
    for i, v in enumerate(order[:live]):
        if v not in nbrs[v]:
            key = tuple(sorted(nbrs[v]))
            twin[i] = last.get(key, 0)
            last[key] = v
            if twin[i] and pos[twin[i]] in v0_class:
                v0_class.add(i)
    unforced = q
    weights: list[list[int]] = []
    for i in range(live):
        weights.append(degs[i:live] + ([] if sem else [1] * unforced))
        unforced -= len(finishers[i])
    # gcds[i]: the gcd of deg(v) - base over the vertices v unplaced at
    # depth i, isolated ones included; moduli[i] keeps it where it exceeds
    # 1 and differs from gcds[i - 1], and is 0 elsewhere
    base = degs[-1] if sem else 1
    gcds = [0] * (p + 1)
    for i in reversed(range(p)):
        gcds[i] = gcd(gcds[i + 1], degs[i] - base)
    moduli = [g if g > 1 and g != prev else 0 for prev, g in zip([1] + gcds, gcds[:live])]
    # ahead[j]: bit i is set when order[i], i > j, is a neighbour of order[j]
    ahead = [0] * live
    for i, w in enumerate(order[:live]):
        for c in set(nbrs[w]):
            if pos[c] < i:
                ahead[pos[c]] |= 1 << i
    # opens[i]: the positions j of the vertices placed before depth i with
    # at least two distinct neighbours unplaced there
    opens: list[list[int]] = [[] for _ in range(live)]
    for j, later in enumerate(ahead):
        if later:
            # through the depth of the second-last of those neighbours
            for i in range(j + 1, (later ^ 1 << later.bit_length() - 1).bit_length()):
                opens[i].append(j)
    # pairs[i]: (c, need, others) for c = order[j], j in opens[i], need its
    # number of unplaced neighbours counted once for super edge magic
    # labelings and twice for edge magic ones; others: (b, need) for the
    # other vertices of opens[i], counting only their unplaced neighbours
    # that are not c's
    per = 1 if sem else 2
    pairs: list[list[tuple[int, int, tuple[tuple[int, int], ...]]]] = []
    for i, row in enumerate(opens):
        pairs.append([])
        for j in row:
            others = []
            for l in row:
                rest = ((ahead[l] & ~ahead[j]) >> i).bit_count()
                if rest:
                    others.append((order[l], per * rest))
            pairs[i].append((order[j], per * (ahead[j] >> i).bit_count(), tuple(others)))
    # free[:vcut] holds the labels a neighbour may take, free[ecut:] those
    # its edge may take
    vcut, ecut = (p + 1, p + 1) if sem else (total + 1, 0)
    width = 8 * total
    from_bytes = int.from_bytes
    labels = range(vmax + 1)  # SEM: compress(labels, free) stops at p
    fixed = sum(range(p + 1, total + 1)) if sem else 0

    def find(k: int) -> TotalLabeling | None:
        # free[x] is 1 while label x is unused; 0 is no label
        free = bytearray([0]) + bytearray([1]) * total
        vfree, efree = memoryview(free)[:vcut], memoryview(free)[ecut:]
        lift = 8 * k
        # vlab[0] = 0 marks no twin; only vertices placed earlier are read
        vlab = [0] * (p + 1)
        middle = 2 * k == mirror

        def place(i: int, rest: int) -> bool:
            # rest: q*k less the placed deg(v) * f(v) and the known edge labels
            if i == live:
                for v, lab in zip(order[live:], compress(labels, free)):
                    vlab[v] = lab
                return True
            left = list(compress(labels, free))
            if moduli[i] and (rest - base * sum(left)) % moduli[i]:
                return False
            w = weights[i]
            if not sum(map(mul, w, left)) <= rest <= sum(map(mul, w, reversed(left))):
                return False
            if pairs[i]:
                # label x is bit 8x of fwd, and its partner k - f(c) - x
                # is bit 8x of back >> 8f(c)
                fwd = from_bytes(vfree, "little")
                back = from_bytes(efree, "big") << lift >> width
                for c, need, others in pairs[i]:
                    f = vlab[c]
                    m = fwd & (back >> 8 * f)
                    n = m.bit_count()
                    if n < need:
                        return False
                    if n < need + per and others:
                        # c's open edges take every pair m holds; the
                        # others must find theirs among the labels left.
                        # Bit 4(k - f) is label (k - f)/2 when that is an
                        # integer: it pairs with itself, so it stays free
                        m &= ~(1 << 4 * (k - f))
                        rfwd, rback = fwd & ~m, back & ~(m << 8 * f)
                        for b, nb in others:
                            if (rfwd & (rback >> 8 * vlab[b])).bit_count() < nb:
                                return False
            v, d = order[i], degs[i]
            top = vmax
            if middle and i in v0_class:
                top = flip - vlab[order[0]] if i else flip // 2
            for lab in range(vlab[twin[i]] + 1, top + 1):
                if not free[lab]:
                    continue
                free[lab] = 0
                vlab[v] = lab
                forced: list[int] = []
                for other in finishers[i]:
                    e = k - lab - vlab[other]
                    if e < emin or e > total or not free[e]:
                        break
                    free[e] = 0
                    forced.append(e)
                else:
                    if place(i + 1, rest - d * lab - (0 if sem else sum(forced))):
                        return True
                for e in forced:
                    free[e] = 1
                free[lab] = 1
            return False

        try:
            if not place(0, q * k - fixed):
                return None
        except RecursionError:
            raise BudgetExceededError(
                f"refusing exhaustive search: depth {live} (vertices of positive degree)"
                " exceeds the interpreter's recursion limit"
            ) from None
        return TotalLabeling(tuple(vlab[1:]), tuple(k - vlab[u] - vlab[v] for u, v in G.edges))

    return find


def _sem_dual(G: Graph, f: TotalLabeling) -> TotalLabeling:
    """Vertex label x to p+1-x and edge label x to 2p+q+1-x: a super edge
    magic labeling of valence k becomes one of valence 4p+q+3-k."""
    return TotalLabeling(
        tuple(G.p + 1 - x for x in f.vertex_labels),
        tuple(2 * G.p + G.q + 1 - x for x in f.edge_labels),
    )


def _search(
    G: Graph, kind: str, cap: int
) -> tuple[IntervalReport, Iterator[tuple[int, TotalLabeling]]]:
    """Refuse graphs beyond the cap, then return the candidate interval and
    a lazy stream of (valence, witness) hits in increasing valence, each
    witness re-verified before it is yielded.

    Only the lower half of the interval is searched; the upper half is
    streamed afterwards as the duals of the lower hits.
    """
    if G.p + G.q > cap:
        raise BudgetExceededError(
            f"refusing exhaustive search: p+q = {G.p + G.q} exceeds cap {cap}"
        )
    interval = sem_interval(G) if kind == "sem" else em_interval(G)
    recheck = is_super_edge_magic if kind == "sem" else valence_of
    dual = _sem_dual if kind == "sem" else complement
    # exactly 3(p+q+1) for EM and 4p+q+3 for SEM
    mirror = int(interval.raw_min + interval.raw_max)
    find = _witness_finder(G, kind, mirror)

    def verified(k: int, w: TotalLabeling) -> tuple[int, TotalLabeling]:
        if recheck(G, w) != k:
            raise RuntimeError(f"search produced a bad witness for valence {k}")
        return k, w

    def hits() -> Iterator[tuple[int, TotalLabeling]]:
        lower: list[tuple[int, TotalLabeling]] = []
        for k in interval.values():
            if 2 * k > mirror:
                break
            w = find(k)
            if w is not None:
                lower.append((k, w))
                yield verified(k, w)
        for k, w in reversed(lower):
            if 2 * k < mirror:
                yield verified(mirror - k, dual(G, w))

    return interval, hits()


def _spectrum(G: Graph, kind: str, cap: int) -> SpectrumReport:
    interval, hits = _search(G, kind, cap)
    witnesses = dict(hits)
    return SpectrumReport(
        kind=kind,
        interval=interval,
        achieved=tuple(witnesses),
        witnesses=witnesses,
        perfect=len(witnesses) == interval.size,
    )


def em_spectrum(G: Graph, cap: int = DEFAULT_CAP) -> SpectrumReport:
    """Every achievable edge magic valence of G, with one witness each.

    The lower half of the rational-bound interval is searched and the upper
    half is filled with complements of its witnesses; each witness is
    re-verified before it is reported.  Graphs with p+q beyond the cap raise
    BudgetExceededError.
    """
    return _spectrum(G, "em", cap)


def sem_spectrum(G: Graph, cap: int = DEFAULT_CAP) -> SpectrumReport:
    """Every achievable super edge magic valence of G, with one witness each.

    Identical to em_spectrum except vertices draw labels from 1..p only, so
    forced edge labels must land in p+1..p+q, and the upper half is filled
    with super edge magic duals instead of complements.
    """
    return _spectrum(G, "sem", cap)


def first_em_labeling(G: Graph, cap: int = DEFAULT_CAP) -> tuple[int, TotalLabeling] | None:
    """The edge magic labeling of G with the smallest valence, or None.

    Scans valence candidates in increasing order and stops at the first
    hit, so it is much cheaper than em_spectrum when only existence or a
    single witness matters.  A miss is known once the lower half of the
    interval is exhausted.
    """
    return next(_search(G, "em", cap)[1], None)


def first_sem_labeling(G: Graph, cap: int = DEFAULT_CAP) -> tuple[int, TotalLabeling] | None:
    """The super edge magic labeling of G with the smallest valence, or None."""
    return next(_search(G, "sem", cap)[1], None)


def is_perfect_em(G: Graph, cap: int = DEFAULT_CAP) -> bool:
    """True when every integer in the edge magic candidate interval is achieved.

    Vacuously true when the interval is empty.
    """
    return em_spectrum(G, cap).perfect


def is_perfect_sem(G: Graph, cap: int = DEFAULT_CAP) -> bool:
    """True when every integer in the super edge magic candidate interval is achieved.

    Vacuously true when the interval is empty (such graphs admit no super
    edge magic labeling at all).
    """
    return sem_spectrum(G, cap).perfect
