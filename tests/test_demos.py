"""The four demos and the README example run end to end, in-process, and
print pinned output.

The sha256 of each demo's stdout is frozen here, so any change to what
a demo prints fails; the README example prints what its comments say.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import re
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
README = DEMOS.parent / "README.md"

STDOUT_SHA256 = {
    "crown_valences_pipeline.py": "ab5552fab7ad0705fbd553ccedf0b96876c3e28ba951d5dc774e2b47b3314338",
    "decomposition_duality.py": "99ae0345aeff6eec7284f0934540930f2884353ccb9007cb1c668ae6e0992be5",
    "intervals_and_spectra.py": "763c9a9f78a562855db61b8129f208c3fa2002f34d7989c83090405696977b4c",
    "verify_and_complement.py": "24a29d78ca2f047f481af74be89f04162c5928c76acc60b9f3495762522293d3",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout_is_unchanged(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == STDOUT_SHA256[name]


def test_readme_example_prints_its_comments():
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert prints and all("  # " in line for line in prints)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == [line.rsplit("  # ", 1)[1] for line in prints]
