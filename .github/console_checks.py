"""End-to-end checks of the installed `edgemagic` console script.

Run from anywhere once the package is installed:

    python3 .github/console_checks.py

Each check runs one command through the `edgemagic` found on PATH, with
its input files in a temporary directory, and reads the exit code,
stdout and stderr.  The script prints one line per check and exits 1
when any check fails.
"""
from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from checker import brute_spectrum  # noqa: E402

failures: list[str] = []


def check(label: str, args: list[str], code: int = 0, error: str | None = None, **fields) -> list[str]:
    """Run `edgemagic *args` and check the exit code and that no traceback
    shows.  With error, a refusal: stdout is empty and stderr one line
    starting with error.  Otherwise the last stdout line is a certificate
    with verified true, and each of fields names a result entry with its
    expected value or a test of it.  Returns the stdout lines."""
    proc = subprocess.run(["edgemagic", *args], capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    problems = []
    if proc.returncode != code:
        problems.append(f"exit {proc.returncode}, expected {code}")
    if "Traceback" in proc.stderr:
        problems.append("a traceback on stderr")
    if error is not None:
        if proc.stdout:
            problems.append("stdout is not empty")
        if proc.stderr.count("\n") != 1 or not proc.stderr.startswith(error):
            problems.append(f"stderr is not one line starting {error!r}: {proc.stderr!r}")
    else:
        try:
            cert = json.loads(lines[-1])
        except (IndexError, ValueError):
            cert = {}
        if cert.get("verified") is not True:
            problems.append(f"no verified certificate on the last line: {lines[-1:]}")
        result = cert.get("result", {})
        for key, want in fields.items():
            if key not in result:
                problems.append(f"result {key} is missing")
            elif not (want(result[key]) if callable(want) else result[key] == want):
                problems.append(f"result {key} is {result[key]!r}")
    print(f"{'FAIL' if problems else 'ok'}: {label}: exit {proc.returncode}")
    for problem in problems:
        print(f"  {problem}")
        failures.append(f"{label}: {problem}")
    return lines


def run_checks(tmp: Path) -> None:
    def write(name: str, text: str) -> str:
        path = tmp / name
        path.write_bytes(text.encode())
        return str(path)

    for ex in ("c4-spectrum", "c4-crown-20", "k1nl-perfect", "s2-k33"):
        check(f"repro {ex}", ["repro", ex])

    # malformed files: exit 2, one error line naming the file and the line
    bad = write("bad.g", "p 2\ne 1 x\n")
    ok = write("ok.lab", "v 1 1\nv 2 2\ne 1 3\n")
    check("verify a malformed graph", ["verify", bad, ok], 2, f"error: {bad}: line 2: ")
    bad_d = write("bad.d", "p 2\na 1 2\na 2 x\nv 1 1\nv 2 2\ne 1 3\n")
    check(
        "product of a malformed combined file",
        ["product", "--mode", "spk", "--d", bad_d, "--member", bad_d],
        2,
        f"error: {bad_d}: line 3: ",
    )

    # CRLF endings, a comment line and leading zeros: read by the line rules
    crlf_g = write("crlf.g", "# a path\r\np 2\r\ne 1 02\r\n")
    crlf_lab = write("crlf.lab", "v 1 1\r\nv 2 2\r\n# the edge\r\ne 01 3\r\n")
    lines = check("verify CRLF files", ["verify", crlf_g, crlf_lab])
    if lines[:1] != ["valence 6"]:
        print(f"  first line is {lines[:1]}, expected 'valence 6'")
        failures.append("verify CRLF files: no valence 6 line")

    # a 6-vertex tree that is not a star, against the brute-force spectrum
    edges = ((1, 2), (1, 3), (2, 4), (2, 5), (5, 6))
    tree = write("tree.g", "p 6\n" + "".join(f"e {u} {v}\n" for u, v in edges))
    for kind in ("em", "sem"):
        check(
            f"{kind} spectrum of a tree",
            ["spectrum", "--kind", kind, tree],
            achieved=brute_spectrum(6, edges, kind),
        )

    # P4 and an edge magic labeling of it with valence 11
    p4 = write("P4", "p 4\ne 1 2\ne 2 3\ne 3 4\n")
    lab = write("L", "v 1 3\nv 2 1\nv 3 4\nv 4 2\ne 1 7\ne 2 6\ne 3 5\n")
    s2n = ["s2n", "--graph", p4, "--h1", "1,3", "--n", "2"]
    # valence 3*(11-2)+2+1 = 30
    check("s2n of P4 with a labeling", [*s2n, "--labeling", lab, "--center", "2"], valence=30)
    check(
        "decompose P4",
        ["decompose", "--graph", p4, "--enumerate", "--n", "2"],
        splits=6,
        verified_splits=6,
    )
    # without a labeling: 12 roles, a p line plus 9 edges
    check(
        "s2n of P4 without a labeling",
        [*s2n, "--center", "3"],
        iso_verified=True,
        roles=lambda roles: len(roles) == 12,
        graph=lambda g: (
            g.splitlines()[0] == "p 12"
            and len(g.splitlines()) == 10
            and all(e.startswith("e ") for e in g.splitlines()[1:])
        ),
    )
    check("s2n of P4 at center 4", [*s2n, "--center", "4"], 2, "error: ")
    check(
        "s2n of P4 with an edge index past q",
        ["s2n", "--graph", p4, "--h1", "1,9"],
        2,
        "error: edge indices must lie in 1..",
    )
    # the two splits with an empty part included
    check(
        "decompose P4 with empty parts",
        ["decompose", "--graph", p4, "--enumerate", "--include-empty", "--n", "1"],
        splits=8,
        verified_splits=8,
    )


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        run_checks(Path(tmp))
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
