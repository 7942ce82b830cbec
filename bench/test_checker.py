"""Tests of the checker's own search against its brute-force enumerator.

    python3 -m unittest discover -s bench -p "test_*.py"

The benchmark trusts exact_spectrum and least_valence wherever brute
force is out of reach, so they must agree with it wherever it is not.
"""
from __future__ import annotations

import random
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker as ck  # noqa: E402

SMALL = {
    "P4": (4, ((1, 2), (2, 3), (3, 4))),
    "P5": (5, ((1, 2), (2, 3), (3, 4), (4, 5))),
    "C3": (3, ((1, 2), (2, 3), (3, 1))),
    "C4": (4, ((1, 2), (2, 3), (3, 4), (4, 1))),
    "K1,3": (4, ((1, 2), (1, 3), (1, 4))),
    "K1,4": (5, ((1, 2), (1, 3), (1, 4), (1, 5))),
    "K2,2+pendant": (5, ((1, 3), (1, 4), (2, 3), (2, 4), (3, 5))),
    "K1,3+loop": (4, ((1, 2), (1, 3), (1, 4), (1, 1))),
    "P3+loop at end": (3, ((1, 2), (2, 3), (3, 3))),
    "triangle+pendant": (4, ((1, 2), (2, 3), (3, 1), (3, 4))),
    "K4-e": (4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4))),
}


def random_trees(count: int, p: int, seed: int):
    rng = random.Random(seed)
    return [(p, tuple((rng.randint(1, v - 1), v) for v in range(2, p + 1))) for _ in range(count)]


class SearchAgreesWithBruteForce(unittest.TestCase):
    def graphs(self):
        return list(SMALL.items()) + [(f"tree#{i}", g) for i, g in enumerate(random_trees(6, 5, 7))]

    def test_spectra(self):
        for name, (p, edges) in self.graphs():
            for kind in ("em", "sem"):
                with self.subTest(graph=name, kind=kind):
                    want = ck.brute_spectrum(p, edges, kind)
                    self.assertEqual(ck.exact_spectrum(p, edges, kind), want)
                    self.assertEqual(ck.least_valence(p, edges, kind), want[0] if want else None)

    def test_witnesses(self):
        for name, (p, edges) in self.graphs():
            for kind in ("em", "sem"):
                lo, hi = ck.int_window(p, edges, kind)
                for k in range(lo, hi + 1):
                    found = ck.find_labeling(p, edges, kind, k)
                    if found is not None:
                        with self.subTest(graph=name, kind=kind, k=k):
                            self.assertEqual(ck.magic_valence(p, edges, *found, sem=(kind == "sem")), k)

    def test_sem_misses_are_found(self):
        # C4 is edge magic but not super edge magic
        p, edges = SMALL["C4"]
        self.assertEqual(ck.exact_spectrum(p, edges, "sem"), [])
        self.assertIsNone(ck.least_valence(p, edges, "sem"))


if __name__ == "__main__":
    unittest.main()
