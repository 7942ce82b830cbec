"""
Split doublings and what they reveal about edge splits
======================================================

Splitting the edge set of a bipartite graph into two parts and adding
one fresh copy of every vertex yields the split doubling: first part
edges also reach the copies of their right endpoint, second part edges
reach the copies of their left endpoint.  The doubling is secretly a
product, and that identity moves labelings in one direction and
decomposition obstructions in the other.
"""

# a path on four vertices, split into outer edges and the middle edge
from edgemagic import Graph, bipartition, Decomposition, build_s2n

path = Graph(4, ((1, 2), (2, 3), (3, 4)))
sides = bipartition(path)
print("sides:", sorted(sides.X), "and", sorted(sides.Y))

split = Decomposition(path, frozenset({1, 3}))
doubled = build_s2n(path, sides, split, 1)
print("doubling:", doubled.graph.p, "vertices,", doubled.graph.q, "edges")
print("edges:", doubled.graph.edges)

# the doubling equals the composition of the split orientation with a
# two-vertex star with loop; the package checks that equality edge by edge
from edgemagic import verify_s2n_iso

print("product identity holds:", verify_s2n_iso(path, sides, split, 1))

# any edge magic labeling of the base graph therefore lifts to the
# doubling with a predictable valence, no search involved
from edgemagic import first_em_labeling, induced_s2n_labeling, valence_of

v, f = first_em_labeling(path)
print("base valence:", v)
for center in (1, 2):
    s, lab, val = induced_s2n_labeling(path, sides, split, 1, f, center)
    print("lifted valence with center", center, ":", val, "checked:", valence_of(s.graph, lab))

# every split of every small bipartite graph obeys the identity
from edgemagic import enumerate_2_decompositions, mk_cycle

cycle = mk_cycle(4)
verdicts = [
    verify_s2n_iso(cycle, bipartition(cycle), d, 2)
    for d in enumerate_2_decompositions(cycle)
]
print("4-cycle splits verified:", sum(verdicts), "of", len(verdicts))

# the implication reverses: a graph claiming to be a doubling must reach
# at least as many valences as the lift guarantees.  Here both parts
# hold all of the path's edges, the parts overlap, and the claimed
# doubling has no super edge magic labeling at all while the path has
# two, which certifies that those parts split nothing
from edgemagic import obstruction_report

p3 = Graph(3, ((1, 2), (2, 3)))
edges = list(p3.edges)
edges += [(1, 6), (3, 6)]
edges += [(4, 2), (5, 2)]
candidate = Graph(6, tuple(edges))
roles = (("x", 0), ("y", 0), ("x", 0), ("x", 1), ("x", 1), ("y", 1))
report = obstruction_report(candidate, roles, p3, 1)
print("verdict:", report.overall)
print("super count test:", report.sem_count_test,
      "(doubling reaches", report.star_sem_count, "super valences, base has", report.base_sem_count, ")")
