"""Exhaustive spectrum search for edge magic and super edge magic labelings.

For each candidate valence k the search assigns vertex labels one vertex
at a time, highest degree first.  The moment both endpoints of an edge
are labeled, the edge label is forced to k minus the endpoint sum, so
edges never branch; a forced label outside the range or already in use
prunes the branch.  Assigning all p vertices therefore pins all q edge
labels, and the used-set discipline guarantees the result is a bijection
onto 1..p+q.

Seven exact devices keep the search small.

Mirror.  Every spectrum is symmetric about the middle of its rational
window.  Replacing each label x by p+q+1-x turns an edge magic labeling
of valence k into one of valence 3(p+q+1)-k; replacing a vertex label x
by p+1-x and an edge label x by 2p+q+1-x turns a super edge magic one of
valence k into one of valence 4p+q+3-k.  Those sums c are exactly
raw_min + raw_max of the window, so only the valences k with 2k <= c are
searched, and the witness reported for c-k is the dual of the witness
found for k.

Extreme labels.  Write N = p+q, i for the number of isolated vertices
and l = 1 when G has a loop, l = 0 otherwise.  An edge magic labeling
has no valence below N - i + 3 - l: the isolated vertices hold only i
labels, so one of N - i, ..., N, say L, lies in the triple of some edge;
a non-loop edge adds two distinct labels to it, at least 1 + 2, and a
loop adds at least 2 (a vertex label twice, or L on the vertex and the
loop's label at least 1, with 2L + 1 >= L + 2).  With neither loops nor
isolated vertices that is the floor N + 3 of
intervals.trivial_valence_bounds.  A super edge magic labeling of
valence k gives the q edges the sums f(u) + f(v) = k - p - q, ...,
k - p - 1; a non-loop edge sum is at least 1 + 2 and a loop sum at least
2, so k >= N + 3 - l.

A simple graph without isolated vertices or triangles reaches N + 3 only
when it is a star, that is when one vertex u meets every edge.  Let
k = N + 3; such a graph that is not a star has two edges without a
common end, so N >= 6.  Every label lies in some edge triple.  The
triple of N is {N, 1, 2} and that of N - 1 is {N - 1, 1, 3}, so label 1
lies in two triples and is a vertex label, say of u.  For 2j < N - 2 the
triple of N - j is {N - j, 1, j + 2}, an edge at u, by induction on j:
otherwise its other two labels a < b, a >= 2, sum to j + 3, so both lie
among 2, ..., j + 1, in the triples of edges at u; an edge label lies in
one triple only, so both are vertex labels, of two neighbours of u, and
the edge labeled N - j joins them in a triangle.  Those triples hold
every label but 1 and, for even N, m = (N + 2)/2, whose own triple
cannot hold 1 (it would be {1, m, m}).  So every edge label but m lies
on an edge at u, and every vertex label but 1 and m on a neighbour of u.
A vertex labeled m has no edge: its edge's label would lie on an edge at
u, which would put m in a triple at u.  An edge labeled m joins two
vertices labeled neither 1 nor m, two neighbours of u: a triangle.
Hence every edge meets u.  A super edge magic labeling is an edge magic
one, so for such a graph the floor of both kinds is N + 4.

Each lower-half valence below its floor is a miss without a search (the
upper half, the duals of the lower hits, needs no test of its own), and
the search is planned only when the first valence that needs one
arrives.  The floors differ from N + 3 only by the terms above, so they
are read only when the window starts at N + 3 or below, and the triangle
test, one neighbour-set intersection per edge, runs last, after the
loop, isolated-vertex and star tests.  The super edge magic floor passes
the middle (4p+q+3)/2 of the window when q > 2p - 3 + 2l, so such a
graph, K3,5 among them, builds no plan: the bound q <= 2p - 3 of
Enomoto, Llado, Nakamigawa and Ringel (SUT J. Math. 1998) for loopless
graphs.  Where the floor is N + 4 it passes the middle already when
q > 2p - 5, so K_{m,n} with m, n >= 2, where q - (2p - 5) is
(m - 2)(n - 2) + 1, builds no plan either: K_{m,n} is super edge magic
only when min(m, n) = 1.

Remainder.  Each label 1..p+q is used once, so the labels sum to
T = (p+q)(p+q+1)/2, and summing the edge equation over all q edges gives
q*k - T = sum of (deg(v) - 1) * f(v) over the vertices (Kotzig and Rosa,
Canad. Math. Bull. 1970; a loop counts twice in deg(v)).  A super edge
magic labeling puts 1..p on the vertices and p+1..p+q on the edges, so
with b the least degree, q*k - (p+1 + ... + p+q) - b*p(p+1)/2 = sum of
(deg(v) - b) * f(v).  With base = 1 for edge magic and b for super edge
magic labelings, the search starts from that left side and placing v
with label x takes (deg(v) - base) * x off it, so at depth i the
remainder it passes down is the sum of (deg(v) - base) * f(v) over the
unplaced vertices U, whichever labels the forced edges took.  Three
checks read it.

The bound.  The vertices of U take free labels: for super edge magic
labelings exactly the free vertex labels, for edge magic ones those of
the free labels that the edges not yet forced, weight 0, leave over.  Pairing the
weights in descending order with the free labels ascending, and then
descending, gives the least and greatest values of the sum (the
rearrangement extremes of intervals._extremes); a remainder outside them
cannot be made up and the node is cut.  A free label paired with no
weight counts 0, so trailing zero weights are left out; only an edge
magic graph with isolated vertices, weight -1 each, lists a weight for
every free label: its unplaced degrees less 1, a 0 per unforced edge and
a -1 per isolated vertex.  Both extremes are read lazily from the two ends of the free
labels, with no list built per node, and only where two or more weights
are left.  With one left, the last weighted vertex below tries only the
label the remainder names, a free label only where the bound holds, and
that label leaves 0; so with none left the remainder is 0 already, as is
a root's with no weights (its window holds only the valence making it 0).

The congruence.  The gcd g_i of the weights of U must divide the
remainder.  The moduli are computed once per graph for every depth,
isolated vertices included (edge magic weight -1, so g_i = 1 while one
is unplaced).  g_i = 0 says the weighted sum is 0, which it already is
(see the bound), and g_i = 1 cuts nothing, so only larger moduli are
checked.  Placing the vertex v at depth i - 1 with label x moves the
remainder by v's weight times x, a multiple of g_(i-1); so where g_i
equals g_(i-1), the residue modulo g_i is the one already checked at a
shallower depth and the check is skipped.  At the root the edge magic
check reads q*k = T (mod g_0): the degrees of K4 are all 3, so g_0 = 2
and 6k - 55 is odd, and no valence is searched, the parity argument for
odd-regular graphs with p = 4 (mod 8) of Craft and Tesar (Discrete Math.
1999); the odd valences of K3,3 fall the same way.

The last weighted vertex.  When no vertex after v has a nonzero weight,
the remainder left after v must be 0, so v takes the one label
remainder / (deg(v) - base), if that is an integer inside v's range, and
the search tries it alone, if it is free, instead of looping over the
free labels.  An
isolated vertex weighs -1 for edge magic labelings, so there this holds
only for graphs without one.

The three checks cut only branches without a completion and leave the order of
the search alone, so each searched valence yields the same first witness
as the search without them.

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

Pairs.  Take a vertex c placed before depth i with r >= 1 distinct
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
no label of c's pairs).  None of this needs a second neighbour: at
r = 1 the one open edge cw still takes a pair, since f(w) and f(cw) are
distinct labels, and when the free labels hold just that pair, w and cw
take both its labels, so the recount stands as it does for larger r.  A
node where some such c or b falls short has no completion and is cut, so
no witness changes.
The vertices c, their r and, for each other b at the same depth, b's
unshared count are planned once per graph for every depth: c is listed
from the depth after its own through that of its last neighbour, with
one integer bitmask of later neighbours per vertex, shifted one place
per depth.  The free labels travel down the search as two integers with
one bit per label: fwd holds bit x for each free label x a neighbour
may take, and back bit k - y for each free label y up to k that its
edge may take (none above k: with isolated vertices a valence can be
p+q or less).  A child's pair is its parent's with the bits of the
vertex label placed and of the edge labels it forces cleared.  Label a
is in c's pair mask m = fwd & (back >> f(c)) when a and k - f(c) - a
are both free, so each vertex checked costs one shift, one and, and one
bit count, and the recount after a tight c removes its pairs with two
more ands.  The label (k - f(c))/2, when that is an integer, pairs with
itself and is taken by no open edge of c, so the recount keeps it free.

Homes.  Pairs asks whether the free labels can serve every open edge;
this cut asks the dual question, whether every free label can still be
used.  The labeling is a bijection, so the completion uses each free
label.  From the closing depth on, the first depth at which every edge
has a placed end, no two unplaced vertices are adjacent and none has a
loop, so each open edge joins a placed vertex c to an unplaced w, and
each unplaced vertex of positive degree has such an edge.  A free label
y then goes to an open edge cw, whose other end takes a = k - f(c) - y,
free now, or, for edge magic labelings only, to an unplaced vertex w of
positive degree, whose edge to a placed neighbour c takes a =
k - f(c) - y, free now; or to an isolated vertex.  In the first two
roles a and y = k - f(c) - a are both free, so a is in c's pair mask
m, the set Pairs counts (in the second role a is an edge label and y a
vertex label, which m does not tell apart for edge magic labelings).
Reading the labels as back does, y at bit k - y, that is bit
f(c) + a of m shifted up by f(c); so the union of those shifted
masks over the vertices c that Pairs lists must hold every bit of back,
every free label up to k, and a node where it misses one has no
completion and is cut, so no witness changes.  Two gates keep the
third role out.  For super edge magic labelings back holds only edge
labels, which no vertex takes, so the check stands with isolated
vertices too; for edge magic labelings an isolated vertex may take any
free label, so a graph with one is not checked.  Free labels above k
are not in back: no open edge or vertex of positive degree can take
them either, and the check leaves them be, as it does the free vertex
labels of a super edge magic labeling: checking those too cuts almost
no node that the edge labels leave.  The masks are the ones the
Pairs loop builds, so from the closing depth on each vertex it checks
costs one more shift and one or, and the node one comparison; before
that depth the check costs a depth test per node and a flag test per
vertex checked.

At each node the congruence is checked first, one modulo, then the
pairs, a few integer operations per vertex checked, then from the
closing depth on the homes, from the pairs' masks, and the bound last,
two dot products over the free labels where two or more weights are
left; every cut is exact, so the order sets only what a node costs, not
which nodes are visited.

Known witnesses.  The private _search may be handed labelings of its
kind already in hand, keyed by valence: a lower valence k then takes the
one for k, or the dual of the one for c-k, and is not searched.  The
obstruction reports hand the edge magic search the super edge magic
witnesses, since each is an edge magic labeling of the same valence; the
public spectra and first labelings hand it nothing, so their witnesses
stay the least ones.

Every witness, mirrored and known ones included, is re-verified before
it is reported.  The search is exact and deterministic but exponential, so
instances are refused beyond a size cap instead of silently running
forever, and so is a search deeper than the recursion limit allows on
top of the frames its caller already uses.  The cap is checked before
anything else; the depth only when a valence is searched, so a graph
whose whole lower half lies below its floor is answered at any depth.
"""
from __future__ import annotations

import sys
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
    for each position the other ends of the edges forced there, the
    previous twin and the vertex's weight deg(v) - base, for each depth
    the bound's weights, largest first (a slice of the vertex weights
    unless isolated vertices weigh -1), and the congruence modulus, 0
    where it needs no check, the positions of the first vertex and of its
    twins, which the middle cut bounds at the valence mirror / 2, and for
    each depth the placed vertices whose open edges the pair count checks,
    each with what the others still need when its own pairs are all
    spoken for, and the closing depth, the first at which every edge has
    a placed end, from which on the homes of the free labels are checked
    (never, for edge magic labelings of a graph with an isolated vertex),
    and each label's bit in fwd; find adds each label's bit in back,
    which depends on the valence.  Once every vertex of nonzero degree is
    placed, every edge is forced and there is nothing left to bound or to
    search: the isolated vertices, last in the order, take the free
    labels least first, which is what the search would give them, so they
    add no recursion depth.
    One call per vertex of nonzero degree takes the remainder and the
    free labels as the bitmasks fwd and back from its parent, checks the
    congruence, the pairs, the homes and, where two or more weights are
    left, the bound (where none is, the remainder is 0 already), then places
    the vertex: on its one possible label when it is the last vertex with
    a weight (its depth's weights are that weight alone), else on each
    free label in its range in turn, handing each child the masks with
    the labels it placed and forced cleared; the witness's edge labels
    are derived once, at the end, as k - f(u) - f(v).
    """
    p, q = G.p, G.q
    total = p + q
    sem = kind == "sem"
    deg = G.degrees()
    # the sort is stable, so vertices of equal degree keep index order
    order = sorted(range(1, p + 1), key=lambda v: -deg[v - 1])
    degs = [deg[v - 1] for v in order]
    pos = [0] * (p + 1)
    for i, v in enumerate(order):
        pos[v] = i
    finishers: list[list[int]] = [[] for _ in order]
    for u, v in G.edges:
        if pos[u] < pos[v]:
            u, v = v, u
        finishers[pos[u]].append(v)
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
    # base: 1 for edge magic labelings and the least degree for super edge
    # magic ones; steps[i]: the weight deg(v) - base of v = order[i] in the
    # remainder
    base = degs[-1] if sem else 1
    steps = [d - base for d in degs]
    # settled: super edge magic, or no isolated vertex to take any free label
    settled = sem or live == p
    # weights[i]: deg(v) - base over the vertices v unplaced at depth i,
    # largest first; an edge magic graph with isolated vertices also
    # weighs each unforced edge 0 and each isolated vertex -1; elsewhere
    # the weights are at least 0 and descending, and the trailing zeros are
    # left out, so each depth's weights are a slice of steps
    if settled:
        nonzero = p - steps.count(0)
        weights = [steps[i:nonzero] for i in range(live)]
    else:
        unforced, weights = q, []
        for i in range(live):
            weights.append(steps[i:live] + [0] * unforced + [-1] * (p - live))
            unforced -= len(finishers[i])
    # gcds[i]: the gcd of deg(v) - base over the vertices v unplaced at
    # depth i, isolated ones included; moduli[i] keeps it where it exceeds
    # 1 and differs from gcds[i - 1], and is 0 elsewhere
    gcds = [0] * (p + 1)
    for i in reversed(range(p)):
        gcds[i] = gcd(gcds[i + 1], steps[i])
    moduli = [g if g > 1 and g != prev else 0 for prev, g in zip([1] + gcds, gcds[:live])]
    # ahead[j]: bit i is set when order[i], i > j, is a neighbour of order[j]
    ahead = [0] * live
    for i, ends in enumerate(finishers):
        for c in ends:
            if pos[c] < i:
                ahead[pos[c]] |= 1 << i
    # pairs[i]: (c, need, others) for each vertex c placed before depth i
    # with a neighbour unplaced there, need its number of unplaced
    # neighbours counted once for super edge magic labelings and twice for
    # edge magic ones; others: (b, need) for the other such vertices,
    # counting only their unplaced neighbours that are not c's.  row holds
    # those vertices at depth i, each with the bitmask of its neighbours
    # unplaced there, bit 0 for order[i]
    per = 1 if sem else 2
    pairs: list[list[tuple[int, int, list[tuple[int, int]]]]] = []
    row: list[tuple[int, int]] = []
    for i in range(live):
        row = [(c, later >> 1) for c, later in row if later > 1]
        if i and ahead[i - 1]:
            row.append((order[i - 1], ahead[i - 1] >> i))
        here = []
        for c, mine in row:
            others = []
            for b, theirs in row:
                rest = theirs & ~mine
                if rest:
                    others.append((b, per * rest.bit_count()))
            here.append((c, per * mine.bit_count(), others))
        pairs.append(here)
    # close: the first depth at which every edge has a placed end, that is
    # from which no two unplaced vertices are adjacent and none has a loop;
    # the homes are checked from there on.  For edge magic labelings an
    # isolated vertex may take any free label, so with one close stays at
    # live, past every depth with pairs
    close = live
    if settled:
        while close and not ahead[close - 1] and order[close - 1] not in nbrs[order[close - 1]]:
            close -= 1
    # fwd holds bit x for each free label x below flip, the labels a
    # neighbour may take; back holds bit k - y for each free label y from
    # emin up to k, the labels its edge may take
    # fbit[x]: the bit of label x in fwd, 0 for no label and from flip on
    fbit = [1 << x if 0 < x < flip else 0 for x in range(total + 1)]
    labels = range(vmax + 1)  # SEM: compress(labels, free) stops at p
    downs = range(vmax, -1, -1)
    # the root remainder is q*k - fixed: T = 1 + ... + (p+q) for edge magic
    # labelings (base 1), p+1 + ... + p+q plus base * (1 + ... + p) for
    # super edge magic ones
    fixed = sum(range(p + 1, total + 1)) + base * p * (p + 1) // 2

    def find(k: int) -> TotalLabeling | None:
        # free[x] is 1 while label x is unused; 0 is no label
        free = bytearray([0]) + bytearray([1]) * total
        vfree = memoryview(free)[:flip]
        # bbit[y]: the bit of label y in back, none above k, since with
        # isolated vertices a valence can be p+q or less
        bbit = [1 << k - y if emin <= y <= k else 0 for y in range(total + 1)]
        # vlab[0] = 0 marks no twin; only vertices placed earlier are read
        vlab = [0] * (p + 1)
        middle = 2 * k == mirror

        def place(i: int, rest: int, fwd: int, back: int) -> bool:
            # rest: the sum of (deg(v) - base) * f(v) that the unplaced
            # vertices v must make up; fwd, back: the free labels
            if i == live:
                for v, lab in zip(order[live:], compress(labels, free)):
                    vlab[v] = lab
                return True
            if moduli[i] and rest % moduli[i]:
                return False
            if pairs[i]:
                homes = i >= close
                home = 0
                for c, need, others in pairs[i]:
                    # label x is bit x of fwd, and its partner k - f - x
                    # is bit x of back >> f
                    f = vlab[c]
                    m = fwd & (back >> f)
                    n = m.bit_count()
                    if n < need:
                        return False
                    if homes:
                        # label k - f - a of each pair {a, k - f - a} in m,
                        # at bit f + a as back holds it
                        home |= m << f
                    if n < need + per and others:
                        # c's open edges take every pair m holds; the
                        # others must find theirs among the labels left.
                        # Label (k - f)/2, when that is an integer, pairs
                        # with itself, so it stays free
                        if (k - f) % 2 == 0:
                            m &= ~(1 << (k - f) // 2)
                        rfwd, rback = fwd & ~m, back & ~(m << f)
                        for b, nb in others:
                            if (rfwd & (rback >> vlab[b])).bit_count() < nb:
                                return False
                if homes and home != back:
                    # a free label up to k that no open edge or unplaced
                    # vertex can take
                    return False
            w = weights[i]
            if len(w) > 1:
                if not (
                    sum(map(mul, w, compress(labels, free)))
                    <= rest
                    <= sum(map(mul, w, compress(downs, reversed(vfree))))
                ):
                    return False
            v, step = order[i], steps[i]
            lo, top = vlab[twin[i]] + 1, vmax
            if middle and i in v0_class:
                top = flip - vlab[order[0]] if i else flip // 2
            if len(w) == 1:
                # no later vertex weighs anything, so the remainder left
                # after v must be 0: v's one label is a free label, which
                # the bound would have let through, or there is none
                lab, off = divmod(rest, step)
                tries = range(lab, lab + 1) if not off and lo <= lab <= top else ()
            else:
                tries = range(lo, top + 1)
            for lab in tries:
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
                    # each label placed or forced was free, so its bits,
                    # where it has any, are set: xor clears them
                    cfwd, cback = fwd ^ fbit[lab], back ^ bbit[lab]
                    for e in forced:
                        cfwd ^= fbit[e]
                        cback ^= bbit[e]
                    if place(i + 1, rest - step * lab, cfwd, cback):
                        return True
                for e in forced:
                    free[e] = 1
                free[lab] = 1
            return False

        try:
            if not place(0, q * k - fixed, sum(fbit), sum(bbit)):
                return None
        except RecursionError:
            raise BudgetExceededError(
                f"refusing exhaustive search: depth {live} (vertices of positive degree)"
                " does not fit in the interpreter's recursion limit of"
                f" {sys.getrecursionlimit()} with {_frames_in_use()} frames already in use"
            ) from None
        return TotalLabeling(tuple(vlab[1:]), tuple(k - vlab[u] - vlab[v] for u, v in G.edges))

    return find


def _frames_in_use() -> int:
    """The frames on the caller's stack, this function's own left out."""
    frame, n = sys._getframe(1), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


def _sem_dual(G: Graph, f: TotalLabeling) -> TotalLabeling:
    """Vertex label x to p+1-x and edge label x to 2p+q+1-x: a super edge
    magic labeling of valence k becomes one of valence 4p+q+3-k."""
    return TotalLabeling(
        tuple(G.p + 1 - x for x in f.vertex_labels),
        tuple(2 * G.p + G.q + 1 - x for x in f.edge_labels),
    )


def _valence_floor(G: Graph, kind: str) -> int:
    """The least valence the extreme labels allow: p+q+3 less 1 when G
    has a loop and, for edge magic labelings, less the number of
    isolated vertices; p+q+4, for both kinds, when G is simple,
    triangle-free and not a star and has no isolated vertex (the
    argument is under "Extreme labels" in the module docstring).  A star
    here is a graph with a vertex that meets every edge."""
    deg = G.degrees()
    loop = any(u == v for u, v in G.edges)
    floor = G.p + G.q + 3 - loop
    isolated = deg.count(0)
    # loopless, so a vertex of degree q meets every edge: a star
    if not (loop or isolated) and max(deg) < G.q and G.is_simple():
        nbrs: list[set[int]] = [set() for _ in range(G.p + 1)]
        for u, v in G.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        if all(nbrs[u].isdisjoint(nbrs[v]) for u, v in G.edges):
            return floor + 1
    return floor if kind == "sem" else floor - isolated


def _search(
    G: Graph, kind: str, cap: int, known: Mapping[int, TotalLabeling] = {}
) -> tuple[IntervalReport, Iterator[tuple[int, TotalLabeling]]]:
    """Refuse graphs beyond the cap, then return the candidate interval and
    a lazy stream of (valence, witness) hits in increasing valence, each
    witness re-verified before it is yielded.

    Only the lower half of the interval is searched; the upper half is
    streamed afterwards as the duals of the lower hits.  known maps
    valences to labelings of this kind already in hand: a lower valence k
    takes known[k], or the dual of known[mirror - k], instead of a search,
    so its witness need not be the least one.  A lower valence below the
    extreme-label floor is a miss without a search, and the search is
    planned only when the first valence that needs one arrives.
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
    # the floor differs from p+q+3 by at most the loop and isolated-vertex
    # terms below it and the triangle-free term above it, so a window that
    # starts above p+q+3 need not read it
    floor = _valence_floor(G, kind) if interval.lo <= G.p + G.q + 3 else interval.lo
    find: Callable[[int], TotalLabeling | None] | None = None

    def verified(k: int, w: TotalLabeling) -> tuple[int, TotalLabeling]:
        if recheck(G, w) != k:
            raise RuntimeError(f"search produced a bad witness for valence {k}")
        return k, w

    def hits() -> Iterator[tuple[int, TotalLabeling]]:
        nonlocal find
        lower: list[tuple[int, TotalLabeling]] = []
        for k in interval.values():
            if 2 * k > mirror:
                break
            if k in known:
                w = known[k]
            elif mirror - k in known:
                w = dual(G, known[mirror - k])
            elif k < floor:
                continue
            else:
                if find is None:
                    find = _witness_finder(G, kind, mirror)
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
