"""
Intervals, searched spectra and perfect graphs
==============================================

Sorting the endpoint sums against the largest and smallest edge labels
bounds the average edge sum from both sides, giving an exact rational
window no valence can leave.  Exhaustive search then shows which
integers inside the window are actually reached.
"""

# the window arithmetic is exact: fractions in, integer bounds out
from edgemagic import mk_cycle, em_interval, sem_interval

cycle = mk_cycle(4)
window = em_interval(cycle)
print("raw bounds:", window.raw_min, "to", window.raw_max)
print("integer window:", window.lo, "..", window.hi)

# search confirms every value in the window is achieved: the 4-cycle is
# perfect for edge magic labelings
from edgemagic import em_spectrum, sem_spectrum

report = em_spectrum(cycle)
print("achieved:", list(report.achieved), "perfect:", report.perfect)

# the super window of the same graph is empty, so no super edge magic
# labeling exists; its raw bounds squeeze to a single non-integer point
swindow = sem_interval(cycle)
print("super raw bounds:", swindow.raw_min, "to", swindow.raw_max)
print("super achieved:", list(sem_spectrum(cycle).achieved))

# stars with a loop at the center are perfect on the super side for
# every leaf count; each new leaf adds one more valence
from edgemagic import mk_star_with_loop

for n in range(1, 5):
    star = mk_star_with_loop(n)
    rep = sem_spectrum(star)
    print("leaves", n, "-> super valences", list(rep.achieved), "perfect", rep.perfect)

# not every graph fills its window: the star with three leaves skips
# every second value
from edgemagic import mk_complete_bipartite

claw = mk_complete_bipartite(1, 3)
rep = em_spectrum(claw)
print("three-leaf star window", list(rep.interval.values()), "achieved", list(rep.achieved))

# each achieved valence comes with a witness labeling, re-checkable at
# any time
from edgemagic import valence_of

for k, w in rep.witnesses.items():
    print("witness for", k, ":", w.vertex_labels, w.edge_labels, "->", valence_of(claw, w))
