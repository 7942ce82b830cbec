"""Exhaustive spectrum search for edge magic and super edge magic labelings.

For each candidate valence k in the rational-bound interval the search
assigns vertex labels one vertex at a time, highest degree first.  The
moment both endpoints of an edge are labeled, the edge label is forced to
k minus the endpoint sum, so edges never branch; a forced label outside
the range or already in use prunes the branch.  Assigning all p vertices
therefore pins all q edge labels, and the used-set discipline guarantees
the result is a bijection onto 1..p+q.

The search is exact and deterministic but exponential, so instances are
refused beyond a size cap instead of silently running forever.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import BudgetExceededError
from .graphs import Graph
from .intervals import IntervalReport, em_interval, sem_interval
from .labelings import TotalLabeling, is_super_edge_magic, valence_of

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
    """Searched valences of one kind ('em' or 'sem') for one graph."""

    kind: str
    interval: IntervalReport
    achieved: tuple[int, ...]
    witnesses: Mapping[int, TotalLabeling]
    perfect: bool


def _assignment_order(G: Graph) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """Vertex order (degree descending, index ascending) plus, for each
    position, the edges whose labels become forced at that point."""
    order = sorted(range(1, G.p + 1), key=lambda v: (-G.degree(v), v))
    pos = {v: i for i, v in enumerate(order)}
    finishers: list[list[tuple[int, int]]] = [[] for _ in order]
    for i, (u, v) in enumerate(G.edges):
        later, other = (u, v) if pos[u] >= pos[v] else (v, u)
        finishers[pos[later]].append((i, other))
    return order, finishers


def _find_witness(G: Graph, k: int, kind: str) -> TotalLabeling | None:
    p, q = G.p, G.q
    total = p + q
    order, finishers = _assignment_order(G)
    vmax = p if kind == "sem" else total
    emin = p + 1 if kind == "sem" else 1
    used = bytearray(total + 2)
    vlab: dict[int, int] = {}
    elab = [0] * q

    def place(i: int) -> bool:
        if i == p:
            return True
        v = order[i]
        for lab in range(1, vmax + 1):
            if used[lab]:
                continue
            used[lab] = 1
            vlab[v] = lab
            forced: list[int] = []
            ok = True
            for ei, other in finishers[i]:
                e = k - lab - vlab[other]
                if e < emin or e > total or used[e]:
                    ok = False
                    break
                used[e] = 1
                elab[ei] = e
                forced.append(e)
            if ok and place(i + 1):
                return True
            for e in forced:
                used[e] = 0
            used[lab] = 0
            del vlab[v]
        return False

    if not place(0):
        return None
    return TotalLabeling(tuple(vlab[v] for v in range(1, p + 1)), tuple(elab))


def _search(
    G: Graph, kind: str, cap: int
) -> tuple[IntervalReport, Iterator[tuple[int, TotalLabeling]]]:
    """Refuse graphs beyond the cap, then return the candidate interval and
    a lazy stream of (valence, witness) hits in increasing valence, each
    witness re-verified before it is yielded."""
    if G.p + G.q > cap:
        raise BudgetExceededError(
            f"refusing exhaustive search: p+q = {G.p + G.q} exceeds cap {cap}"
        )
    interval = sem_interval(G) if kind == "sem" else em_interval(G)
    recheck = is_super_edge_magic if kind == "sem" else valence_of

    def hits() -> Iterator[tuple[int, TotalLabeling]]:
        for k in interval.values():
            w = _find_witness(G, k, kind)
            if w is None:
                continue
            if recheck(G, w) != k:
                raise RuntimeError(f"search produced a bad witness for valence {k}")
            yield k, w

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

    Candidates are scanned over the rational-bound interval; each witness is
    re-verified before it is reported.  Graphs with p+q beyond the cap raise
    BudgetExceededError.
    """
    return _spectrum(G, "em", cap)


def sem_spectrum(G: Graph, cap: int = DEFAULT_CAP) -> SpectrumReport:
    """Every achievable super edge magic valence of G, with one witness each.

    Identical to em_spectrum except vertices draw labels from 1..p only, so
    forced edge labels must land in p+1..p+q.
    """
    return _spectrum(G, "sem", cap)


def first_em_labeling(G: Graph, cap: int = DEFAULT_CAP) -> tuple[int, TotalLabeling] | None:
    """The edge magic labeling of G with the smallest valence, or None.

    Scans valence candidates in increasing order and stops at the first
    hit, so it is much cheaper than em_spectrum when only existence or a
    single witness matters.
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
