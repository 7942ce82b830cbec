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
The crown pipeline composes the factors as built, so it makes one
product and one checked crown map per route and call; every crown
labeling is verified on its product and re-verified on the crown.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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

    Construction checks the valence on product's arcs.
    """

    product: Digraph
    labeling: TotalLabeling
    valence: int

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


def _check_one_member_per_arc(D: Digraph, members: int) -> None:
    if not D.arcs:
        raise ValueError("product of an arcless digraph is undefined")
    if members != len(D.arcs):
        raise ValueError(f"need one member per arc: {len(D.arcs)} arcs, {members} members")


def tensor_product(D: Digraph, members: Sequence[Digraph]) -> Digraph:
    """Compose D with one member digraph per arc.

    Vertex (a, i), for an outer vertex a and a member vertex i, becomes
    integer pm*(a-1) + i where pm is the shared member vertex count.
    Outer arc (a, b) with member arcs (i, j) contributes product arcs
    (pm*(a-1)+i, pm*(b-1)+j), listed by outer arc then member arc.
    """
    _check_one_member_per_arc(D, len(members))
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

    Returns the renumbered labeled digraph and the renumbering newidx,
    entry v-1 the new index of old vertex v.  Arc order is preserved and
    edge labels stay put; under a super edge magic labeling every new
    index equals its label.  A map iso taking b-vertex members as built
    (crown_iso_from_cycle_product, crown_iso_from_star_product,
    s2n_iso_map) carries the product of members all renumbered by newidx
    as {b*((x-1)//b) + newidx[(x-1)%b]: y for x, y in iso.items()}.
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
    _check_one_member_per_arc(D, len(assignment.members))
    # keyed on plain tuples: the dataclasses' own hash and eq cost three frames
    done: dict[tuple, tuple] = {}
    keyed = []
    for t, M in enumerate(assignment.members, start=1):
        plain = (M.digraph.p, M.digraph.arcs, M.labeling.vertex_labels, M.labeling.edge_labels)
        entry = done.get(plain)
        if entry is None:
            try:
                entry = done[plain] = (key_fn(M), normalize_by_labels(M)[0])
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
    key, normalized = _common_key(D, assignment, sem_factor_key)
    v = valence_of(D, outer.labeling)
    if v is None:
        raise ValueError("outer labeling is not edge magic")
    product = tensor_product(D, [nm.digraph for nm in normalized])
    return _sem_induced(product, outer.labeling, v, key, normalized)


def _sem_induced(
    product: Digraph,
    f: TotalLabeling,
    v: int,
    key: tuple[int, int],
    members: Sequence[LabeledDigraph],
) -> InducedProductLabeling:
    """The label arithmetic of induced_labeling_from_sem_factors: f of
    valence v on the outer digraph, members of key (p_m, k), one per arc,
    and their product, all checked by the caller.  The members must give
    each vertex index the same label."""
    p_m, k = key
    g = members[0].labeling.vertex_labels
    vlabs = [p_m * (x - 1) + y for x in f.vertex_labels for y in g]
    elabs: list[int] = []
    for t, M in enumerate(members):
        base = p_m * (f.edge_labels[t] - 1) + k + p_m
        lab = M.labeling.vertex_labels
        elabs.extend([base - lab[i - 1] - lab[j - 1] for i, j in M.digraph.arcs])
    labeling = TotalLabeling(tuple(vlabs), tuple(elabs))
    valence = p_m * (v - 3) + k + p_m
    return InducedProductLabeling(product, labeling, valence)


def _em_induced(
    product: Digraph,
    D: Digraph,
    g: Sequence[int],
    key: tuple[int, int, frozenset[int]],
    members: Sequence[LabeledDigraph],
) -> InducedProductLabeling:
    """The label arithmetic of induced_labeling_from_em_factors, read as
    _sem_induced's: g the super edge magic vertex labels of D and members
    of key (q_m, sigma, vertex label set)."""
    q_m, sigma, vset = key
    total = len(vset) + q_m
    smax = max(induced_sums(D, g))
    h = members[0].labeling.vertex_labels
    vlabs = [total * (x - 1) + y for x in g for y in h]
    elabs: list[int] = []
    for (x, y), M in zip(D.arcs, members):
        base = total * (smax - (g[x - 1] + g[y - 1]))
        elabs.extend([base + el for el in M.labeling.edge_labels])
    labeling = TotalLabeling(tuple(vlabs), tuple(elabs))
    valence = total * (smax - 2) + sigma
    return InducedProductLabeling(product, labeling, valence)


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
    key, normalized = _common_key(D, assignment, em_factor_key)
    product = tensor_product(D, [nm.digraph for nm in normalized])
    return _em_induced(product, D, outer.labeling.vertex_labels, key, normalized)


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


def crown_iso_from_cycle_product(m: int, n: int) -> dict[int, int]:
    """Vertex map onto mk_crown(m, n) for the cycle-composed-with-stars
    product.

    Assumes the outer digraph is orient_cycle(m) and every member is the
    star with loop as star_loop_labeling builds it, center at vertex 1.
    Fiber position 1 carries the cycle; position i > 1 of cycle vertex a
    is pendant i-1 of the previous cycle vertex.
    """
    iso: dict[int, int] = {}
    for a in range(1, m + 1):
        for i in range(1, n + 2):
            iso[(n + 1) * (a - 1) + i] = a if i == 1 else m + ((a - 2) % m) * n + i - 1
    return iso


def crown_iso_from_star_product(m: int, n: int) -> dict[int, int]:
    """Vertex map onto mk_crown(m, n) for the star-composed-with-cycles
    product.

    Assumes the outer digraph is the star with loop on n+1 vertices with
    the loop at vertex 1 and that every arc carries orient_cycle(m).
    This is crown_iso_from_cycle_product with the factors swapped.
    """
    cyc, c = crown_iso_from_cycle_product(m, n), n + 1
    return {m * (s - 1) + v: cyc[c * (v - 1) + s] for s in range(1, c + 1) for v in range(1, m + 1)}


def _route(product: Digraph, target: Graph, iso: dict[int, int]) -> TotalLabeling:
    """Where each vertex and edge of target comes from in product along
    iso: the transport of the labeling that numbers product's vertices
    1..p and its edges p+1..p+q.  A mismatch is a fault of the stated
    map, not of the input."""
    p = product.p
    positions = TotalLabeling(range(1, p + 1), range(p + 1, p + product.q + 1))
    try:
        return transport(product, positions, iso, target)
    except ValueError:
        raise RuntimeError("product does not match the target under the stated map") from None


def _realize(ind: InducedProductLabeling, target: Graph, route: TotalLabeling) -> TotalLabeling:
    """ind's labeling carried onto target along a _route from its
    product, once its valence is re-checked there."""
    # position x of product holds label read(x)
    read = (0, *ind.labeling.vertex_labels, *ind.labeling.edge_labels).__getitem__
    lab = TotalLabeling(tuple(map(read, route.vertex_labels)), tuple(map(read, route.edge_labels)))
    if valence_of(target, lab) != ind.valence:
        raise RuntimeError("transported labeling lost its valence")
    return lab


def star_product_valences(
    m: int, n: int, cycle_labelings: Sequence[TotalLabeling]
) -> dict[int, TotalLabeling]:
    """Edge magic labelings of mk_crown(m, n), one per reachable valence,
    built through both product routes at every center label r in 1..n+1.

    Every entry of cycle_labelings must be an edge magic labeling of the
    length-m cycle; valences repeat across routes, and the first labeling
    found for a valence wins.  With the cycle as the outer factor the
    valence is (n+1)*(v-2) + r + 1; with the star as the outer factor it
    is 2*m*(n+r-1) + v.  Each candidate's valence is looked up in the
    table before anything is built, so no valence is built twice.

    Neither route renumbers its factors: every star_loop_labeling(n, r)
    has the same digraph, and each cycle labeling is rotated to put its
    least vertex label on vertex 1.  So each route's product and crown
    map are built and matched once per call, and each labeling kept is
    verified on its product and again on the crown.
    """
    crown = mk_crown(m, n)
    cyc = orient_cycle(m)
    stars = {r: star_loop_labeling(n, r) for r in range(1, n + 2)}
    # every star_loop_labeling(n, r) has this digraph: center 1, loop first
    star = stars[1].digraph
    star_members = [(sem_factor_key(S), (S,) * m) for S in stars.values()]
    cycle_product = tensor_product(cyc, (star,) * m)
    cycle_route = _route(cycle_product, crown, crown_iso_from_cycle_product(m, n))
    star_product = tensor_product(star, (cyc,) * (n + 1))
    star_route = _route(star_product, crown, crown_iso_from_star_product(m, n))
    found: dict[int, TotalLabeling] = {}
    for L in cycle_labelings:
        v = valence_of(cyc, L)
        if v is None:
            raise ValueError("cycle labeling is not edge magic")
        for r, (key, members) in enumerate(star_members, start=1):
            if (n + 1) * (v - 2) + r + 1 not in found:
                ind = _sem_induced(cycle_product, L, v, key, members)
                found[ind.valence] = _realize(ind, crown, cycle_route)
        vl, el = L.vertex_labels, L.edge_labels
        s = vl.index(min(vl))
        rotated = LabeledDigraph(cyc, TotalLabeling(vl[s:] + vl[:s], el[s:] + el[:s]))
        # em_factor_key(rotated), unchecked: rotation keeps L's valence and labels
        key, members = (m, v, frozenset(vl)), (rotated,) * (n + 1)
        for r, S in stars.items():
            if 2 * m * (n + r - 1) + v not in found:
                ind = _em_induced(star_product, star, S.labeling.vertex_labels, key, members)
                found[ind.valence] = _realize(ind, crown, star_route)
    return found


def predicted_valences(G: Graph, n: int, achieved: Sequence[int]) -> set[int]:
    """Valences the two product rules promise for G composed with stars
    with loops on n leaves, given the achieved edge magic valences of G.

    For every achieved v and every center r in 1..n+1 the cycle-outer
    rule contributes (n+1)*(v-2)+r+1 and the star-outer rule
    (p+q)*(n+r-1)+v.  No labelings are built here; use the induced
    labeling functions for witnesses.
    """
    if n < 1:
        raise ValueError("need at least one leaf")
    total = G.p + G.q
    out: set[int] = set()
    for v in achieved:
        for r in range(1, n + 2):
            out.update(((n + 1) * (v - 2) + r + 1, total * (n + r - 1) + v))
    return out


def valence_count_floor(G: Graph, n: int, achieved: Sequence[int]) -> int:
    """Guaranteed number of distinct valences of the composition of G
    with stars with loops on n leaves, from the achieved valences of G.

    The base floor is (n+1)*|achieved| + 2: the cycle-outer rule yields
    (n+1) strictly interleaved valences per achieved value, and the
    star-outer rule at the extreme centers lands strictly below and
    strictly above all of them.  When the spread satisfies
    max - min < (min - (p+q+2))*n the two rules interleave per value and
    the floor rises to (n+3)*|achieved|, counting distinct values.
    Returns 0 for no valences.
    """
    if n < 1:
        raise ValueError("need at least one leaf")
    achieved = set(achieved)
    if not achieved:
        return 0
    lo, hi = min(achieved), max(achieved)
    if hi - lo < (lo - (G.p + G.q + 2)) * n:
        return (n + 3) * len(achieved)
    return (n + 1) * len(achieved) + 2
