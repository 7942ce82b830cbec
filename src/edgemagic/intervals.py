"""Exact rational bounds on the achievable magic valences of a graph.

Summing the edge equation f(u) + f(e) + f(v) = k over all q edges shows
that q*k equals the degree-weighted sum of the vertex labels plus the sum
of the edge labels.  Ranging over bijections therefore pins k between two
rational extremes, which the rearrangement inequality yields in closed
form: pair the largest weights with the smallest labels for the minimum
and with the largest labels for the maximum.

Two regimes are covered.  For super edge magic labelings the vertex labels
are exactly 1..p and the edge labels contribute the fixed block
p+1..p+q.  For plain edge magic labelings all of 1..p+q is in play, with
every edge label carrying weight 1.  Integer candidates inside the
rational extremes form the (possibly empty) candidate interval.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph

__all__ = ["IntervalReport", "sem_interval", "em_interval", "trivial_valence_bounds"]


@dataclass(frozen=True)
class IntervalReport:
    """Integer candidate range [lo, hi] with the exact rational extremes."""

    lo: int
    hi: int
    raw_min: Fraction
    raw_max: Fraction

    @property
    def empty(self) -> bool:
        return self.lo > self.hi

    @property
    def size(self) -> int:
        return 0 if self.empty else self.hi - self.lo + 1

    def values(self) -> range:
        return range(self.lo, self.hi + 1)

    def __contains__(self, k: int) -> bool:
        return self.lo <= k <= self.hi


def _extremes(weights: list[int], labels: list[int], constant: int, q: int) -> tuple[Fraction, Fraction]:
    w = sorted(weights, reverse=True)
    lo = sum(a * b for a, b in zip(w, labels)) + constant
    hi = sum(a * b for a, b in zip(w, reversed(labels))) + constant
    return Fraction(lo, q), Fraction(hi, q)


def sem_interval(G: Graph) -> IntervalReport:
    """Candidate valences for super edge magic labelings of G."""
    if G.q == 0:
        raise ValueError("a graph without edges has no valence")
    edge_block = sum(range(G.p + 1, G.p + G.q + 1))
    raw_min, raw_max = _extremes(list(G.degrees()), list(range(1, G.p + 1)), edge_block, G.q)
    return IntervalReport(math.ceil(raw_min), math.floor(raw_max), raw_min, raw_max)


def em_interval(G: Graph) -> IntervalReport:
    """Candidate valences for edge magic labelings of G."""
    if G.q == 0:
        raise ValueError("a graph without edges has no valence")
    weights = list(G.degrees()) + [1] * G.q
    raw_min, raw_max = _extremes(weights, list(range(1, G.p + G.q + 1)), 0, G.q)
    return IntervalReport(math.ceil(raw_min), math.floor(raw_max), raw_min, raw_max)


def trivial_valence_bounds(G: Graph) -> tuple[int, int]:
    """Crude bounds (p+q+3, 2(p+q)) on edge magic valences.

    Both bounds come from locating extreme labels inside an edge triple:
    the triple holding label p+q also holds two labels of at least 1 and 2,
    and the triple holding label 1 is capped by the two largest labels.
    They hold only when every label sits in some triple of three
    distinct positions, so loops (which repeat a vertex) can beat them by
    one and isolated vertices (which join no triple) by one each.  The
    function returns the formula values regardless; the floors the
    search applies, for both kinds, are under "Extreme labels" in the
    search module's docstring.
    """
    if G.q == 0:
        raise ValueError("valence bounds need at least one edge")
    total = G.p + G.q
    return total + 3, 2 * total
