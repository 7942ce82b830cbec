"""Span recorder for the traced benchmark run.

The program itself is never asked to trace.  Instead each public function
listed in LAYERS is replaced, under every edgemagic module attribute that
holds it, by a wrapper that records one span (name, start, end, parent)
per call.  Spans stay in memory; the benchmark writes them out at the end
and derives the per-layer metrics from them.  A span's self time is its
duration minus the durations of its direct children; calls are strictly
nested in one thread, so the children never overlap.
"""
from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field

from checker import int_window

# metric group -> (module, function names).  Groups of one layer share the
# layer prefix; a span belongs to the group of the function it wraps.
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "search": ("search", ("em_spectrum", "sem_spectrum", "first_em_labeling", "first_sem_labeling")),
    "intervals": ("intervals", ("em_interval", "sem_interval")),
    "labelings.verify": ("labelings", ("valence_of", "is_super_edge_magic", "check_total_labeling")),
    "labelings.transport": ("labelings", ("transport",)),
    "graphs.iso": ("graphs", ("edges_match_under",)),
    "graphs.parse": ("graphs", ("parse_graph", "parse_digraph")),
    "graphs.format": ("graphs", ("format_graph", "format_digraph")),
    "products.compose": ("products", ("tensor_product",)),
    "products.induce": ("products", ("induced_labeling_from_sem_factors", "induced_labeling_from_em_factors")),
    "decomp.iso_verify": ("decomp", ("verify_s2n_iso",)),
    "decomp.induce": ("decomp", ("induced_s2n_labeling",)),
    "decomp.obstruction": ("decomp", ("obstruction_report",)),
    "cli": ("cli", ("main",)),
}
# enumerate_2_decompositions is a generator: its yields are counted, not timed.
SPLITS = ("decomp", "enumerate_2_decompositions")

# Per-layer metric names with their units, in report order.
METRICS: dict[str, str] = {
    "search.calls": "count", "search.ms": "ms", "search.candidates": "count",
    "search.found": "count", "search.ms_per_candidate": "ms",
    "intervals.calls": "count", "intervals.ms": "ms",
    "labelings.verify_calls": "count", "labelings.verify_ms": "ms",
    "labelings.transport_calls": "count", "labelings.transport_ms": "ms",
    "graphs.iso_calls": "count", "graphs.iso_ms": "ms", "graphs.parse_ms": "ms", "graphs.format_ms": "ms",
    "products.compose_calls": "count", "products.compose_ms": "ms", "products.induce_calls": "count",
    "products.induce_self_ms": "ms", "products.labels_built": "count",
    "decomp.splits": "count", "decomp.iso_verify_ms": "ms", "decomp.induce_ms": "ms",
    "decomp.obstruction_calls": "count", "decomp.obstruction_self_ms": "ms",
    "cli.commands": "count", "cli.ms": "ms", "cli.self_ms": "ms", "cli.cert_bytes": "bytes",
    "trace.overhead_pct": "%",
}


@dataclass
class Span:
    group: str
    name: str
    start: float
    parent: int
    end: float = 0.0
    child_s: float = 0.0
    # factor to reference speed, set for the spans of one query at a time
    scale: float = 1.0
    # group-specific facts read off the call: candidates, found, labels
    facts: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return (self.end - self.start) * self.scale

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s * self.scale


class Recorder:
    """Collects spans while installed; install() and remove() swap wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def rescale(self, first: int, scale: float) -> None:
        """Scale the spans recorded from index first on (one query's spans)."""
        for s in self.spans[first:]:
            s.scale = scale

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _wrap(self, group: str, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(group, name, 0.0, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(idx)
            span.start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if span.parent >= 0:
                    spans[span.parent].child_s += span.end - span.start
            _note(span, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_splits(self, fn):
        def counted(*args, **kwargs):
            for d in fn(*args, **kwargs):
                self.count("decomp.splits")
                yield d

        counted.__wrapped__ = fn
        return counted

    def install(self, package) -> None:
        """Replace each listed function under every edgemagic module name bound to it.

        Modules that are not loaded (edgemagic.cli outside the cli workload)
        are skipped; their layer does not run.
        """
        prefix = package.__name__
        mods = [m for k, m in list(sys.modules.items()) if k == prefix or k.startswith(prefix + ".")]
        targets = {}
        for group, (mod, names) in LAYERS.items():
            module = sys.modules.get(f"{prefix}.{mod}")
            for name in names if module is not None else ():
                fn = getattr(module, name)
                targets[id(fn)] = (fn, self._wrap(group, name, fn))
        fn = getattr(sys.modules[f"{prefix}.{SPLITS[0]}"], SPLITS[1])
        targets[id(fn)] = (fn, self._wrap_splits(fn))
        for m in mods:
            for attr, val in list(vars(m).items()):
                hit = targets.get(id(val))
                if hit is not None and hit[0] is val:
                    self._saved.append((m, attr, val))
                    setattr(m, attr, hit[1])

    def remove(self) -> None:
        for m, attr, val in reversed(self._saved):
            setattr(m, attr, val)
        self._saved.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "group": s.group, "start": s.start,
                                     "end": s.end, "parent": s.parent, "scale": s.scale, "self": s.self_s,
                                     **s.facts}) + "\n")

    def total_s(self) -> float:
        """Duration of the root spans, which every self time adds up to."""
        return sum(s.dur for s in self.spans if s.parent < 0)

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, averaged per pass over the pool.

        Calls and time count only the outermost span of a group (valence_of
        inside is_super_edge_magic is one verification, not two); self
        times subtract every child span, whatever its group.
        """
        calls: dict[str, int] = {}
        ms: dict[str, float] = {}
        self_ms: dict[str, float] = {}
        facts: dict[str, int] = {}
        spans = self.spans
        for s in spans:
            self_ms[s.group] = self_ms.get(s.group, 0.0) + s.self_s * 1e3
            p = s.parent
            while p >= 0 and spans[p].group != s.group:
                p = spans[p].parent
            if p >= 0:
                continue
            calls[s.group] = calls.get(s.group, 0) + 1
            ms[s.group] = ms.get(s.group, 0.0) + s.dur * 1e3
            for k, v in s.facts.items():
                facts[k] = facts.get(k, 0) + v
        c = lambda g: calls.get(g, 0)  # noqa: E731
        t = lambda g: ms.get(g, 0.0)  # noqa: E731
        cand = facts.get("candidates", 0)
        raw = {
            "search.calls": c("search"), "search.ms": t("search"), "search.candidates": cand,
            "search.found": facts.get("found", 0),
            "search.ms_per_candidate": t("search") / cand if cand else 0.0,
            "intervals.calls": c("intervals"), "intervals.ms": t("intervals"),
            "labelings.verify_calls": c("labelings.verify"), "labelings.verify_ms": t("labelings.verify"),
            "labelings.transport_calls": c("labelings.transport"), "labelings.transport_ms": t("labelings.transport"),
            "graphs.iso_calls": c("graphs.iso"), "graphs.iso_ms": t("graphs.iso"),
            "graphs.parse_ms": t("graphs.parse"), "graphs.format_ms": t("graphs.format"),
            "products.compose_calls": c("products.compose"), "products.compose_ms": t("products.compose"),
            "products.induce_calls": c("products.induce"), "products.induce_self_ms": self_ms.get("products.induce", 0.0),
            "products.labels_built": facts.get("labels", 0),
            "decomp.splits": self.counts.get("decomp.splits", 0),
            "decomp.iso_verify_ms": t("decomp.iso_verify"), "decomp.induce_ms": t("decomp.induce"),
            "decomp.obstruction_calls": c("decomp.obstruction"),
            "decomp.obstruction_self_ms": self_ms.get("decomp.obstruction", 0.0),
            "cli.commands": c("cli"), "cli.ms": t("cli"), "cli.self_ms": self_ms.get("cli", 0.0),
            "cli.cert_bytes": self.counts.get("cli.cert_bytes", 0),
        }
        out = {}
        for k, v in raw.items():
            # ms_per_candidate is already a ratio; everything else is per pass
            out[k] = v if k == "search.ms_per_candidate" else v / passes
        return out


def _note(span: Span, args, out) -> None:
    """Facts read off a finished call, from outside: how many valences the
    search scanned and found, and how many labels a product carries."""
    if span.group == "search":
        G = args[0]
        kind = "sem" if span.name.startswith(("sem", "first_sem")) else "em"
        if span.name.endswith("spectrum"):
            span.facts = {"candidates": out.interval.size, "found": len(out.achieved)}
        else:
            lo, hi = int_window(G.p, G.edges, kind)
            scanned = max(0, hi - lo + 1) if out is None else out[0] - lo + 1
            span.facts = {"candidates": scanned, "found": 0 if out is None else 1}
    elif span.group == "products.induce":
        span.facts = {"labels": out.labeling.p + out.labeling.q}
