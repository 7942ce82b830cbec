"""Benchmark of edgemagic through its public API.

    python3 bench/run.py --workload spectrum --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  One process, one thread.  A set-up imports edgemagic afresh,
builds the workload's pool of queries from the seed (finding set-up
witnesses with the program where the pool needs them) and runs a warm-up
pass.  The pool is then replayed in a seeded order, whole passes at a
time, until --seconds have passed and at least MIN_QUERIES queries have
completed.  Each query is timed from outside and its output is checked
by checker.py, which shares no code with edgemagic.

End-to-end metrics (--trace 0), in reference-speed time:

  query_ms_p50, query_ms_p90  median and 90th percentile, over the pool's
                              queries, of each query's median cost; the
                              pool is the whole population of queries, so
                              the percentile is the inclusive one
  queries_per_s               pool size / sum of those costs
  setup_s                     median of SETUPS set-ups, one before the
                              timed passes and the rest spread between them
  peak_rss_mb                 peak resident memory of the process

Reference speed: the shared 2-CPU machine this was tuned on runs the same
code up to twice as slowly for a minute and more at a time, so plain
wall times of identical runs spread by 30% and more.  A fixed reference
computation (the checker's brute-force EM spectrum of C4, pure Python
like the program) runs before every query and after the last one; a
query's wall time is divided by the mean of its two neighbouring
reference times and multiplied by REF_S, the reference's time on the
uncontended machine.  Ratios to the reference held within 3% while wall
times doubled.  The plain wall figures go to stderr beside them.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced passes, per pass over the pool and at reference
speed, plus trace.overhead_pct; spans are written to bench/out/.  Exit code 0 on a
completed run, 2 when the source tree or the arguments are unusable.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans
import workloads
from checker import CheckFailed, brute_spectrum

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUPS = 9
MIN_QUERIES = 100
REF_GRAPH = (4, ((1, 2), (2, 3), (3, 4), (1, 4)))
# best time of the reference computation on the uncontended machine
# the benchmark was tuned on (2 CPUs, Python 3.11)
REF_S = 2.4e-3
WORKLOADS = ("spectrum", "first_hit", "construct", "cli")


def _reference() -> float:
    """Wall time of one run of the fixed reference computation."""
    t0 = time.perf_counter()
    brute_spectrum(*REF_GRAPH, "em")
    return time.perf_counter() - t0


def _fresh_import():
    """Import edgemagic from scratch, so every set-up pays the import."""
    for name in [m for m in sys.modules if m == "edgemagic" or m.startswith("edgemagic.")]:
        del sys.modules[name]
    return importlib.import_module("edgemagic")


class Setups:
    """Builds the pool; every build is timed and the last one is kept."""

    def __init__(self, workload: str, seed: int) -> None:
        self.build = getattr(workloads, f"build_{workload}")
        self.workload = workload
        self.seed = seed
        self.times: list[float] = []
        self.wall: list[float] = []
        self.dirs: list[str] = []

    def run(self):
        workdir = tempfile.mkdtemp(prefix=f"{self.workload}-", dir=OUT)
        self.dirs.append(workdir)
        refs = [_reference() for _ in range(3)]
        t0 = time.perf_counter()
        api = _fresh_import()
        pool = self.build(api, random.Random(self.seed), workloads.Refs(), workdir)
        for q in pool:
            if q.warm:
                q.run()
        wall = time.perf_counter() - t0
        refs += [_reference() for _ in range(3)]
        self.wall.append(wall)
        self.times.append(wall * REF_S / statistics.median(refs))
        return api, pool

    def cleanup(self) -> None:
        for d in self.dirs:
            shutil.rmtree(d, ignore_errors=True)


class Tally:
    """Outcomes of the timed passes and each query's costs."""

    def __init__(self, order) -> None:
        self.order = order
        # per query: reference-speed costs and plain wall times, in seconds
        self.costs: list[list[float]] = [[] for _ in order]
        self.wall: list[list[float]] = [[] for _ in order]
        self.completed = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reported: set[str] = set()

    def run_pass(self, rec=None) -> float:
        """Run every query once between reference runs; return the pass's
        query cost (checks and reference runs excluded).

        With a span recorder, the spans of each query are scaled to
        reference speed like the query itself.
        """
        busy = 0.0
        ref_before = _reference()
        for i, q in enumerate(self.order):
            self.attempted += 1
            first_span = len(rec.spans) if rec is not None else 0
            t0 = time.perf_counter()
            try:
                out = q.run()
            except Exception:
                busy += time.perf_counter() - t0
                self.failed += 1
                self._report(q.label, traceback.format_exc())
                ref_before = _reference()
                continue
            dt = time.perf_counter() - t0
            ref_after = _reference()
            scale = REF_S * 2 / (ref_before + ref_after)
            busy += dt * scale
            self.completed += 1
            self.costs[i].append(dt * scale)
            self.wall[i].append(dt)
            ref_before = ref_after
            if rec is not None:
                rec.rescale(first_span, scale)
                rec.count("cli.cert_bytes", getattr(out, "cert_bytes", 0))
            try:
                q.check(out)
            except CheckFailed as exc:
                self.failed += 1
                self.wrong += 1
                self._report(q.label, f"check failed: {exc}")
        return busy

    def _report(self, label: str, text: str) -> None:
        if label not in self.reported:
            self.reported.add(label)
            print(f"query {label}: {text}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "edgemagic" / "__init__.py").is_file():
        print(f"error: no edgemagic source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    setups = Setups(args.workload, args.seed)
    try:
        api, pool = setups.run()
        order = list(pool)
        random.Random(f"order-{args.seed}").shuffle(order)
        gc.collect()
        tally = Tally(order)
        if args.trace:
            metrics = _traced(api, tally, args)
        else:
            metrics = _untraced(tally, setups, args)
    finally:
        setups.cleanup()
    print(f"{args.workload} seed {args.seed}: {tally.attempted} queries, {tally.failed} failed", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


def _untraced(tally: Tally, setups: Setups, args) -> dict:
    start = time.perf_counter()
    while True:
        tally.run_pass()
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and tally.completed >= MIN_QUERIES:
            break
        # the remaining set-ups are spread over the run, between passes,
        # so that their median does not rest on one stretch of machine speed
        if len(setups.times) < SETUPS and elapsed >= args.seconds * len(setups.times) / SETUPS:
            setups.run()
            gc.collect()
    while len(setups.times) < SETUPS:
        setups.run()
    cost_ms = sorted(statistics.median(c) * 1e3 for c in tally.costs if c)
    ranked = sorted((statistics.median(c), statistics.median(w), q.label)
                    for c, w, q in zip(tally.costs, tally.wall, tally.order) if c)
    print("cost ms (wall ms): " + " ".join(f"{label}={c * 1e3:.1f} ({w * 1e3:.1f})" for c, w, label in ranked),
          file=sys.stderr)
    wall_ms = sorted(statistics.median(w) * 1e3 for w in tally.wall if w)
    print(f"plain wall: queries_per_s {len(wall_ms) / sum(wall_ms) * 1e3:.4g}, p50 {statistics.median(wall_ms):.4g} ms, "
          f"setup median {statistics.median(setups.wall):.4g} s", file=sys.stderr)
    return {
        "queries_per_s": {"value": len(cost_ms) / (sum(cost_ms) / 1e3), "unit": "1/s"},
        "query_ms_p50": {"value": statistics.median(cost_ms), "unit": "ms"},
        "query_ms_p90": {"value": statistics.quantiles(cost_ms, n=10, method="inclusive")[8], "unit": "ms"},
        "setup_s": {"value": statistics.median(setups.times), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def _traced(api, tally: Tally, args) -> dict:
    rec = spans.Recorder()
    plain_s, traced_s, traced_passes = 0.0, 0.0, 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or traced_passes == 0:
        plain_s += tally.run_pass()
        rec.install(api)
        try:
            traced_s += tally.run_pass(rec)
        finally:
            rec.remove()
        traced_passes += 1
    rec.dump(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    values = rec.metrics(traced_passes)
    values["trace.overhead_pct"] = (traced_s / plain_s - 1.0) * 100.0
    return {k: {"value": values[k], "unit": unit} for k, unit in spans.METRICS.items()}


if __name__ == "__main__":
    sys.exit(main())
