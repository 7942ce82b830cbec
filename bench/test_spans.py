"""Tests of the benchmark's span recorder.

    python3 -m unittest discover -s bench -p "test_*.py"

Run from the root of a source checkout; edgemagic is imported from ./src.
"""
from __future__ import annotations

import contextlib
import io
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import edgemagic  # noqa: E402
import edgemagic.cli  # noqa: E402
import spans  # noqa: E402


class RecorderTest(unittest.TestCase):
    def record(self):
        rec = spans.Recorder()
        rec.install(edgemagic)
        try:
            edgemagic.em_spectrum(edgemagic.mk_cycle(5))
            edgemagic.star_product_valences(4, 2, list(edgemagic.CYCLE4_EM_LABELINGS))
            with contextlib.redirect_stdout(io.StringIO()):
                edgemagic.cli.main(["repro", "c4-crown-20"])
        finally:
            rec.remove()
        return rec

    def test_self_times_add_up_to_the_traced_total(self):
        rec = self.record()
        self.assertGreater(len(rec.spans), 10)
        total = rec.total_s()
        self.assertGreater(total, 0)
        self.assertAlmostEqual(sum(s.self_s for s in rec.spans), total, delta=1e-9 * len(rec.spans))
        self.assertTrue(all(s.self_s >= 0 for s in rec.spans))

    def test_spans_nest_across_layers(self):
        rec = self.record()
        by_name = {s.name for s in rec.spans}
        self.assertTrue({"em_spectrum", "em_interval", "valence_of", "tensor_product", "transport",
                         "edges_match_under", "main"} <= by_name)
        main = next(i for i, s in enumerate(rec.spans) if s.name == "main")
        inner = [s for s in rec.spans if s.parent == main]
        self.assertTrue(inner)
        self.assertAlmostEqual(rec.spans[main].child_s, sum(s.dur for s in inner), delta=1e-9)

    def test_remove_restores_every_name(self):
        before = edgemagic.cli.em_interval, edgemagic.products.valence_of, edgemagic.em_spectrum
        rec = spans.Recorder()
        rec.install(edgemagic)
        self.assertIsNot(edgemagic.products.valence_of, before[1])
        rec.remove()
        self.assertEqual((edgemagic.cli.em_interval, edgemagic.products.valence_of, edgemagic.em_spectrum), before)

    def test_metrics_name_every_per_layer_metric(self):
        rec = self.record()
        m = rec.metrics(1)
        self.assertEqual(set(m) | {"trace.overhead_pct"}, set(spans.METRICS))
        self.assertEqual(m["cli.commands"], 1)
        # C5 reaches 4 of the 6 integers in its EM window
        self.assertEqual((m["search.candidates"], m["search.found"]), (6, 4))


if __name__ == "__main__":
    unittest.main()
