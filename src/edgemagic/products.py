"""Tensor style digraph composition and the labelings it induces.

The composition takes an outer digraph and one member digraph per arc,
all members sharing a vertex count.  Vertices of the result are pairs of
an outer vertex and a member vertex, flattened to integers; each outer
arc contributes one product arc per arc of its member.  Assigning every
arc the same member gives the classical tensor (Kronecker) product.

Two kinds of labeled members make the composition respect edge magic
structure:

* super edge magic members with as many arcs as vertices and a common
  smallest induced sum.  Composing any edge magic labeled digraph with
  them yields an edge magic product, super edge magic when the outer
  labeling is.
* edge magic members with a common arc count, common valence and a
  common vertex label set.  Composing a super edge magic labeled digraph
  that has as many arcs as vertices with them also yields an edge magic
  product.

Both induced labelings key, check and normalize each distinct member
once per call, so equal members on many arcs cost one check, and every
induced labeling verifies its closed-form valence when it is built.

Each choice of inputs produces one valence, and a crown graph is such a
product in two ways: a directed cycle composed with stars with loops, or
a star with loop composed with cycle copies, whose crown map is the
first one's with the factors swapped.  The two routes reach different
valence ranges, which is how the crown valence tables are assembled.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .graphs import Digraph, Graph, mk_crown
from .labelings import (
    TotalLabeling,
    check_total_labeling,
    extend_vertex_labeling,
    induced_sums,
    is_super_edge_magic,
    transport,
    valence_of,
)

__all__ = [
    "LabeledDigraph",
    "ArcAssignment",
    "InducedProductLabeling",
    "CYCLE4_EM_LABELINGS",
    "tensor_product",
    "normalize_by_labels",
    "sem_factor_key",
    "em_factor_key",
    "induced_labeling_from_sem_factors",
    "induced_labeling_from_em_factors",
    "star_loop_labeling",
    "orient_cycle",
    "crown_iso_from_cycle_product",
    "crown_iso_from_star_product",
    "star_product_valences",
    "predicted_valences",
    "valence_count_floor",
]


@dataclass(frozen=True)
class LabeledDigraph:
    """A digraph carrying a total labeling, arc i labeled as edge i."""

    digraph: Digraph
    labeling: TotalLabeling

    def __post_init__(self) -> None:
        check_total_labeling(self.digraph, self.labeling)


@dataclass(frozen=True)
class ArcAssignment:
    """One labeled member digraph per outer arc, in arc order.

    Arc i of the outer digraph composes with members[i-1].
    """

    members: tuple[LabeledDigraph, ...]

    @classmethod
    def constant(cls, member: LabeledDigraph, arcs: int) -> "ArcAssignment":
        """Assign the same member to every one of `arcs` arcs."""
        return cls((member,) * arcs)


@dataclass(frozen=True)
class InducedProductLabeling:
    """A product digraph plus the labeling induced from its factors.

    member_maps records, per outer arc, the renumbering applied to that
    arc's member before composing: entry v-1 holds the new index of
    member vertex v.  Construction checks the valence on product's arcs.
    """

    product: Digraph
    labeling: TotalLabeling
    valence: int
    member_maps: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if valence_of(self.product, self.labeling) != self.valence:
            raise RuntimeError("induced labeling failed verification")


# Four edge magic labelings of the 4-cycle, one per valence; 12..15 is
# the entire edge magic spectrum of C4.
CYCLE4_EM_LABELINGS: tuple[TotalLabeling, ...] = (
    TotalLabeling((1, 6, 2, 3), (5, 4, 7, 8)),
    TotalLabeling((1, 5, 2, 8), (7, 6, 3, 4)),
    TotalLabeling((1, 8, 4, 7), (5, 2, 3, 6)),
    TotalLabeling((8, 3, 7, 6), (4, 5, 2, 1)),
)


def tensor_product(D: Digraph, members: Sequence[Digraph]) -> Digraph:
    """Compose D with one member digraph per arc.

    Vertex (a, i), for an outer vertex a and a member vertex i, becomes
    integer pm*(a-1) + i where pm is the shared member vertex count.
    Outer arc (a, b) with member arcs (i, j) contributes product arcs
    (pm*(a-1)+i, pm*(b-1)+j), listed by outer arc then member arc.
    """
    if not D.arcs:
        raise ValueError("product of an arcless digraph is undefined")
    if len(members) != len(D.arcs):
        raise ValueError(
            f"need one member per arc: {len(D.arcs)} arcs, {len(members)} members"
        )
    pm = members[0].p
    if any(M.p != pm for M in members):
        raise ValueError("members must share a vertex count")
    arcs: list[tuple[int, int]] = []
    for (a, b), M in zip(D.arcs, members):
        base_a, base_b = pm * (a - 1), pm * (b - 1)
        for i, j in M.arcs:
            arcs.append((base_a + i, base_b + j))
    return Digraph(D.p * pm, tuple(arcs))


def normalize_by_labels(member: LabeledDigraph) -> tuple[LabeledDigraph, tuple[int, ...]]:
    """Renumber vertices so index order matches vertex label order.

    Returns the renumbered labeled digraph and the renumbering, entry
    v-1 holding the new index of old vertex v.  Arc order is preserved
    and edge labels stay put.  Under a super edge magic labeling the new
    index of every vertex equals its label.
    """
    labels = member.labeling.vertex_labels
    order = sorted(range(1, member.digraph.p + 1), key=lambda v: labels[v - 1])
    newidx = [0] * member.digraph.p
    for rank, v in enumerate(order, start=1):
        newidx[v - 1] = rank
    arcs = tuple((newidx[u - 1], newidx[v - 1]) for u, v in member.digraph.arcs)
    relabeled = LabeledDigraph(
        Digraph(member.digraph.p, arcs),
        TotalLabeling(tuple(sorted(labels)), member.labeling.edge_labels),
    )
    return relabeled, tuple(newidx)


def sem_factor_key(member: LabeledDigraph) -> tuple[int, int]:
    """Vertex count and smallest induced sum of a super edge magic member.

    The member must have as many arcs as vertices.  Two members compose
    interchangeably in induced_labeling_from_sem_factors exactly when
    their keys agree.
    """
    D = member.digraph
    if D.q != D.p:
        raise ValueError("member needs as many arcs as vertices")
    if is_super_edge_magic(D, member.labeling) is None:
        raise ValueError("member labeling is not super edge magic")
    return (D.p, min(induced_sums(D, member.labeling.vertex_labels)))


def em_factor_key(member: LabeledDigraph) -> tuple[int, int, frozenset[int]]:
    """Arc count, valence and vertex label set of an edge magic member.

    Two members compose interchangeably in
    induced_labeling_from_em_factors exactly when their keys agree.
    """
    v = valence_of(member.digraph, member.labeling)
    if v is None:
        raise ValueError("member labeling is not edge magic")
    return (member.digraph.q, v, frozenset(member.labeling.vertex_labels))


def _common_key(D: Digraph, assignment: ArcAssignment, key_fn):
    """The key every member shares, given one member per arc of D, and
    each arc's member normalized by its labels.

    Equal members are keyed, checked and normalized once per call; the
    first bad arc is the one an error names.
    """
    if len(assignment.members) != len(D.arcs):
        raise ValueError(
            f"need one member per arc: {len(D.arcs)} arcs, {len(assignment.members)} members"
        )
    if not D.arcs:
        raise ValueError("product of an arcless digraph is undefined")
    done: dict[LabeledDigraph, tuple] = {}
    keyed = []
    for t, M in enumerate(assignment.members, start=1):
        entry = done.get(M)
        if entry is None:
            try:
                entry = done[M] = (key_fn(M), normalize_by_labels(M))
            except ValueError as exc:
                raise ValueError(f"member {t}: {exc}") from None
        keyed.append(entry)
    key = keyed[0][0]
    for t, (k, _) in enumerate(keyed, start=1):
        if k != key:
            raise ValueError(
                f"members do not share a key: member {t} has {k}, member 1 has {key}"
            )
    return key, [nm for _, nm in keyed]


def induced_labeling_from_sem_factors(
    outer: LabeledDigraph, assignment: ArcAssignment
) -> InducedProductLabeling:
    """Edge magic labeling of an edge magic digraph composed with super
    edge magic members of common key (p, k).

    Outer vertex label blocks carry the member vertex labels and outer
    edge label blocks absorb the member sums, so the result is a
    bijection with constant valence p*(v - 3) + k + p for outer valence
    v.  The result is super edge magic whenever the outer labeling is.
    """
    D = outer.digraph
    (p_m, k), normalized = _common_key(D, assignment, sem_factor_key)
    v = valence_of(D, outer.labeling)
    if v is None:
        raise ValueError("outer labeling is not edge magic")
    product = tensor_product(D, [nm.digraph for nm, _ in normalized])
    f = outer.labeling
    vlabs = [0] * product.p
    for a in range(1, D.p + 1):
        base_val = p_m * (f.vertex_labels[a - 1] - 1)
        base_idx = p_m * (a - 1)
        for i in range(1, p_m + 1):
            vlabs[base_idx + i - 1] = base_val + i
    elabs: list[int] = []
    for t in range(len(D.arcs)):
        base = p_m * (f.edge_labels[t] - 1) + k + p_m
        nm, _ = normalized[t]
        # normalized member vertices are named by their labels
        for i, j in nm.digraph.arcs:
            elabs.append(base - (i + j))
    labeling = TotalLabeling(tuple(vlabs), tuple(elabs))
    valence = p_m * (v - 3) + k + p_m
    return InducedProductLabeling(product, labeling, valence, tuple(m for _, m in normalized))


def induced_labeling_from_em_factors(
    outer: LabeledDigraph, assignment: ArcAssignment
) -> InducedProductLabeling:
    """Edge magic labeling of a super edge magic digraph with as many
    arcs as vertices composed with edge magic members of common key
    (q, sigma, vertex label set).

    Outer vertex labels index the vertex blocks and the outer induced
    sums index the edge blocks from the top down; either block kind is
    filled with the member labels themselves.  The valence comes out as
    (pm + q)*(smax - 2) + sigma where smax is the largest outer sum.
    """
    D = outer.digraph
    if D.q != D.p:
        raise ValueError("outer digraph needs as many arcs as vertices")
    if is_super_edge_magic(D, outer.labeling) is None:
        raise ValueError("outer labeling is not super edge magic")
    (q_m, sigma, vset), normalized = _common_key(D, assignment, em_factor_key)
    p_m = len(vset)
    total = p_m + q_m
    g = outer.labeling.vertex_labels
    smax = max(induced_sums(D, g))
    product = tensor_product(D, [nm.digraph for nm, _ in normalized])
    common = sorted(vset)
    vlabs = [0] * product.p
    for i in range(1, D.p + 1):
        base_val = total * (g[i - 1] - 1)
        base_idx = p_m * (i - 1)
        for a in range(1, p_m + 1):
            vlabs[base_idx + a - 1] = base_val + common[a - 1]
    elabs: list[int] = []
    for t, (x, y) in enumerate(D.arcs):
        base = total * (smax - (g[x - 1] + g[y - 1]))
        nm, _ = normalized[t]
        for el in nm.labeling.edge_labels:
            elabs.append(base + el)
    labeling = TotalLabeling(tuple(vlabs), tuple(elabs))
    valence = total * (smax - 2) + sigma
    return InducedProductLabeling(product, labeling, valence, tuple(m for _, m in normalized))


def star_loop_labeling(n: int, r: int) -> LabeledDigraph:
    """Super edge magic star with n leaves plus a loop, center labeled r.

    Vertex 1 is the center and the loop is the first arc.  Labels
    1..n+1 go to the center (label r) and to the leaves in ascending
    order, which makes the induced sums the run r+1 .. r+n+1.  The
    unique super edge magic extension has valence 2*n + 3 + r, and the
    member key is (n+1, r+1).
    """
    if n < 1:
        raise ValueError("need at least one leaf")
    if not 1 <= r <= n + 1:
        raise ValueError(f"center label must lie in 1..{n + 1}")
    D = Digraph(n + 1, tuple((1, j) for j in range(1, n + 2)))
    leaf_labels = [x for x in range(1, n + 2) if x != r]
    f = extend_vertex_labeling(D, (r, *leaf_labels))
    if f is None:
        raise RuntimeError("star with loop sums were not consecutive")
    return LabeledDigraph(D, f)


def orient_cycle(m: int) -> Digraph:
    """The directed cycle 1 -> 2 -> ... -> m -> 1; arc i matches edge i
    of mk_cycle(m)."""
    if m < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Digraph(m, tuple((i, i % m + 1) for i in range(1, m + 1)))


def _fiber_map(
    p: int, n: int, center: int, copy_of: Callable[[int, int], int]
) -> dict[int, int]:
    """Vertex map for an outer digraph on p vertices composed with
    (n+1)-vertex star members: product vertex (n+1)*(a-1) + i goes to a
    when fiber position i is `center`, and otherwise to copy_of(a, j),
    the other positions taking copies j = 1..n in order."""
    iso: dict[int, int] = {}
    for a in range(1, p + 1):
        for i in range(1, n + 2):
            src = (n + 1) * (a - 1) + i
            iso[src] = a if i == center else copy_of(a, i if i < center else i - 1)
    return iso


def crown_iso_from_cycle_product(m: int, n: int, center: int) -> dict[int, int]:
    """Vertex map onto mk_crown(m, n) for the cycle-composed-with-stars
    product.

    Assumes the outer digraph is orient_cycle(m) and every member is the
    renumbered star with loop whose center index is `center`.  Fiber
    position `center` carries the cycle; copy j of cycle vertex a is
    pendant j of the previous cycle vertex.
    """
    return _fiber_map(m, n, center, lambda a, j: m + ((a - 2) % m) * n + j)


def crown_iso_from_star_product(m: int, n: int, member_map: Sequence[int]) -> dict[int, int]:
    """Vertex map onto mk_crown(m, n) for the star-composed-with-cycles
    product.

    Assumes the outer digraph is the star with loop on n+1 vertices with
    the loop at vertex 1 and that every arc carries orient_cycle(m)
    renumbered by member_map, as normalize_by_labels returns it.  With
    the factors swapped this is the center-1 cycle product, its cycle
    read from the vertex renumbered 1.
    """
    cyc = crown_iso_from_cycle_product(m, n, 1)
    start = member_map.index(1)
    return {
        m * (s - 1) + member_map[v - 1]: cyc[(n + 1) * ((v - 1 - start) % m) + s]
        for s in range(1, n + 2)
        for v in range(1, m + 1)
    }


def _realize(ind: InducedProductLabeling, target: Graph, iso: dict[int, int]) -> TotalLabeling:
    """Carry an induced labeling onto target along iso, which transport
    matches edge by edge, re-checking that the valence survives."""
    try:
        lab = transport(ind.product, ind.labeling, iso, target)
    except ValueError:
        raise RuntimeError("product does not match the target under the stated map") from None
    if valence_of(target, lab) != ind.valence:
        raise RuntimeError("transported labeling lost its valence")
    return lab


def star_product_valences(
    m: int, n: int, cycle_labelings: Sequence[TotalLabeling], all_centers: bool = False
) -> dict[int, TotalLabeling]:
    """Edge magic labelings of mk_crown(m, n), one per reachable valence,
    built through both product routes.

    Every entry of cycle_labelings must be an edge magic labeling of the
    length-m cycle; valences repeat across routes, and the first labeling
    found for a valence wins.  With the cycle as the outer factor and
    center label r the valence is (n+1)*(v-2) + r + 1, r running over
    1..n+1.  With the star as the outer factor it is 2*m*(n+r-1) + v;
    that route uses only the extreme centers r in {1, n+1}, which is
    where it adds valences the first route cannot reach, unless
    all_centers is set.
    """
    crown = mk_crown(m, n)
    cyc = orient_cycle(m)
    star_centers = range(1, n + 2) if all_centers else (1, n + 1)
    stars = {r: star_loop_labeling(n, r) for r in range(1, n + 2)}
    found: dict[int, TotalLabeling] = {}
    for L in cycle_labelings:
        cycle_member = LabeledDigraph(cyc, L)
        if valence_of(cyc, L) is None:
            raise ValueError("cycle labeling is not edge magic")
        for r, star in stars.items():
            ind = induced_labeling_from_sem_factors(
                cycle_member, ArcAssignment.constant(star, m)
            )
            lab = _realize(ind, crown, crown_iso_from_cycle_product(m, n, r))
            found.setdefault(ind.valence, lab)
        star_iso = crown_iso_from_star_product(m, n, normalize_by_labels(cycle_member)[1])
        for r in star_centers:
            ind = induced_labeling_from_em_factors(
                stars[r], ArcAssignment.constant(cycle_member, n + 1)
            )
            found.setdefault(ind.valence, _realize(ind, crown, star_iso))
    return found


def predicted_valences(
    G: Graph, n: int, achieved: Sequence[int], all_centers: bool = False
) -> set[int]:
    """Valences the two product rules promise for G composed with stars
    with loops on n leaves, given the achieved edge magic valences of G.

    The cycle-outer rule contributes (n+1)*(v-2)+r+1 for every achieved v
    and every center r in 1..n+1; the star-outer rule contributes
    (p+q)*(n+r-1)+v, by default only for the extreme centers r in
    {1, n+1} (all_centers widens it).  No labelings are built here; use
    the induced labeling functions for witnesses.
    """
    total = G.p + G.q
    star_centers = range(1, n + 2) if all_centers else (1, n + 1)
    out: set[int] = set()
    for v in achieved:
        for r in range(1, n + 2):
            out.add((n + 1) * (v - 2) + r + 1)
        for r in star_centers:
            out.add(total * (n + r - 1) + v)
    return out


def valence_count_floor(G: Graph, n: int, achieved: Sequence[int]) -> int:
    """Guaranteed number of distinct valences of the composition of G
    with stars with loops on n leaves, from the achieved valences of G.

    The base floor is (n+1)*|achieved| + 2: the cycle-outer rule yields
    (n+1) strictly interleaved valences per achieved value, and the
    star-outer rule at the extreme centers lands strictly below and
    strictly above all of them.  When the spread satisfies
    max - min < (min - (p+q+2))*n the two rules interleave per value and
    the floor rises to (n+3)*|achieved|.  Returns 0 for no valences.
    """
    if not achieved:
        return 0
    lo, hi = min(achieved), max(achieved)
    if hi - lo < (lo - (G.p + G.q + 2)) * n:
        return (n + 3) * len(achieved)
    return (n + 1) * len(achieved) + 2
