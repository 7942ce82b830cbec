"""End to end command line tests: exit codes, certificates, file formats."""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgemagic import (
    DEFAULT_CAP,
    Decomposition,
    TotalLabeling,
    bipartition,
    em_interval,
    em_spectrum,
    first_em_labeling,
    format_graph,
    format_labeling,
    mk_complete_bipartite,
    mk_crown,
    mk_cycle,
    parse_digraph,
    parse_graph,
    valence_of,
)
from edgemagic.cli import main

C4_TEXT = "p 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n"
ALPHA_TEXT = "v 1 1\nv 2 6\nv 3 2\nv 4 3\ne 1 5\ne 2 4\ne 3 7\ne 4 8\n"
IDENTITY_TEXT = "v 1 1\nv 2 2\nv 3 3\nv 4 4\ne 1 5\ne 2 6\ne 3 7\ne 4 8\n"
# oriented 4-cycle carrying the valence 12 labeling, one combined file
CYC_D_TEXT = (
    "p 4\na 1 2\na 2 3\na 3 4\na 4 1\n"
    "v 1 1\nv 2 6\nv 3 2\nv 4 3\ne 1 5\ne 2 4\ne 3 7\ne 4 8\n"
)
# star with loop on one leaf, center labeled 1: vertices 2, arcs loop then spoke
STAR_D_TEXT = "p 2\na 1 1\na 1 2\nv 1 1\nv 2 2\ne 1 4\ne 2 3\n"


@pytest.fixture
def files(tmp_path):
    def write(name: str, text: str) -> str:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def _last_cert(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_verify_magic_labeling(files, capsys):
    code = main(["verify", files("c4.g", C4_TEXT), files("alpha.lab", ALPHA_TEXT)])
    lines, cert = _last_cert(capsys)
    assert code == 0
    assert lines[0] == "valence 12"
    assert set(cert) == {"command", "inputs", "result", "verified"}
    assert cert["command"].startswith("edgemagic verify")
    assert all(v.startswith("sha256:") for v in cert["inputs"].values())
    assert cert["result"] == {"kind": "em", "magic": True, "valence": 12}
    assert cert["verified"] is True


def test_verify_non_magic_labeling(files, capsys):
    code = main(["verify", files("c4.g", C4_TEXT), files("bad.lab", IDENTITY_TEXT)])
    lines, cert = _last_cert(capsys)
    assert code == 1
    assert lines[0] == "not magic"
    assert cert["result"] == {"kind": "em", "magic": False}


def test_verify_kind_sem(files, capsys):
    p3 = files("p3.g", "p 3\ne 1 2\ne 2 3\n")
    sem = files("p3.lab", "v 1 1\nv 2 3\nv 3 2\ne 1 5\ne 2 4\n")
    assert main(["verify", "--kind", "sem", p3, sem]) == 0
    assert capsys.readouterr().out.startswith("valence 9")
    # edge magic but the vertex labels exceed the vertex count
    code = main(
        ["verify", "--kind", "sem", files("c4.g", C4_TEXT), files("a.lab", ALPHA_TEXT)]
    )
    assert code == 1


def test_verify_rejects_malformed_input(files, capsys):
    bad = files("bad.lab", "v 1 1\nv 2 oops\n")
    code = main(["verify", files("c4.g", C4_TEXT), bad])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "line 2" in err


def test_verify_missing_file(files, capsys):
    code = main(["verify", files("c4.g", C4_TEXT), "/nonexistent/x.lab"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_interval_certificate(files, capsys):
    code = main(["interval", "--kind", "em", files("c4.g", C4_TEXT)])
    _, cert = _last_cert(capsys)
    assert code == 0
    assert cert["result"] == {"lo": 12, "hi": 15, "raw_min": "23/2", "raw_max": "31/2"}
    assert cert["verified"] is True


def test_interval_empty_is_still_verified(files, capsys):
    code = main(["interval", "--kind", "sem", files("c4.g", C4_TEXT)])
    _, cert = _last_cert(capsys)
    assert code == 0
    assert cert["result"]["lo"] == 12 and cert["result"]["hi"] == 11
    assert cert["result"]["raw_min"] == cert["result"]["raw_max"] == "23/2"


def test_interval_rejects_edgeless_graphs(files, capsys):
    code = main(["interval", "--kind", "em", files("iso.g", "p 3\n")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_spectrum_with_witness_file(files, capsys, tmp_path):
    out = str(tmp_path / "wit.json")
    code = main(
        ["spectrum", "--kind", "em", "--witnesses", out, files("c4.g", C4_TEXT)]
    )
    _, cert = _last_cert(capsys)
    assert code == 0
    assert cert["result"]["achieved"] == [12, 13, 14, 15]
    assert cert["result"]["perfect"] is True
    assert cert["result"]["interval"]["lo"] == 12
    with open(out, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert sorted(payload) == ["12", "13", "14", "15"]
    w = payload["14"]
    f = TotalLabeling(tuple(w["vertex_labels"]), tuple(w["edge_labels"]))
    assert valence_of(mk_cycle(4), f) == 14


def test_spectrum_writes_no_witnesses_when_the_recheck_fails(files, capsys, tmp_path, monkeypatch):
    out = tmp_path / "wit.json"
    monkeypatch.setattr("edgemagic.cli.valence_of", lambda G, f: None)
    code = main(["spectrum", "--kind", "em", "--witnesses", str(out), files("c4.g", C4_TEXT)])
    _, cert = _last_cert(capsys)
    assert code == 1
    assert cert["verified"] is False
    assert list(tmp_path.iterdir()) == [tmp_path / "c4.g"]


@pytest.mark.parametrize("command", ["spectrum", "repro"])
def test_spectrum_rechecks_the_interval_it_prints(files, capsys, monkeypatch, command):
    def skewed(G, cap=DEFAULT_CAP):
        rep = em_spectrum(G, cap)
        return replace(rep, interval=replace(rep.interval, raw_max=rep.interval.raw_max + 1))

    monkeypatch.setattr("edgemagic.cli.em_spectrum", skewed)
    if command == "spectrum":
        argv = ["spectrum", "--kind", "em", files("c4.g", C4_TEXT)]
    else:
        argv = ["repro", "c4-spectrum"]
    assert main(argv) == 1
    assert _last_cert(capsys)[1]["verified"] is False


def test_crown_repro_rechecks_its_interval(capsys, monkeypatch):
    def skewed(G):
        rep = em_interval(G)
        return replace(rep, raw_min=rep.raw_min - 1)

    monkeypatch.setattr("edgemagic.cli.em_interval", skewed)
    assert main(["repro", "c4-crown-20"]) == 1
    assert _last_cert(capsys)[1]["verified"] is False


def test_failed_witnesses_write_names_the_path_as_given(files, capsys, tmp_path):
    c4 = files("c4.g", C4_TEXT)
    out = str(tmp_path / "missing" / "x.json")
    code = main(["spectrum", "--kind", "em", "--witnesses", out, c4])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert repr(out) in err and ".tmp" not in err
    assert list(tmp_path.iterdir()) == [tmp_path / "c4.g"]


@pytest.mark.parametrize("spelling", ["same", "dotted", "linked"])
def test_spectrum_refuses_to_write_witnesses_over_its_input(files, capsys, tmp_path, monkeypatch, spelling):
    # the certificate's inputs digest names the bytes that were parsed, so
    # the command may not replace them; the check runs before the search
    monkeypatch.chdir(tmp_path)
    files("p3.g", "p 3\ne 1 2\ne 2 3\n")
    out = {"same": "p3.g", "dotted": "./p3.g", "linked": "p3-link.g"}[spelling]
    if spelling == "linked":
        os.link("p3.g", out)
    monkeypatch.setattr("edgemagic.cli.em_spectrum", None)
    code = main(["spectrum", "--kind", "em", "--witnesses", out, "p3.g"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {out}: the --witnesses file would overwrite the input graph\n"
    assert (tmp_path / "p3.g").read_text(encoding="utf-8") == "p 3\ne 1 2\ne 2 3\n"


def test_internal_faults_exit_with_code_three(files, capsys, monkeypatch):
    # a self-check made to fail: the search's witness re-check disagrees
    monkeypatch.setattr("edgemagic.search.valence_of", lambda G, f: None)
    code = main(["spectrum", "--kind", "em", files("c4.g", C4_TEXT)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: internal fault: RuntimeError:") and "bad witness" in err
    assert len(err.strip().splitlines()) == 1


def test_a_search_too_deep_for_the_interpreter_is_a_budget_refusal(files, capsys):
    # the search recurses once per vertex of positive degree, so the
    # 1100 vertices of K1,1099 would drive it past the recursion limit
    deep = files("deep.g", format_graph(mk_complete_bipartite(1, 1099)))
    code = main(["spectrum", "--kind", "em", "--cap", "5000", deep])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: refusing exhaustive search: depth 1100")
    assert len(err.strip().splitlines()) == 1


def test_spectrum_respects_the_cap(files, capsys):
    crown = files("crown.g", format_graph(mk_crown(4, 2)))
    code = main(["spectrum", "--kind", "em", crown])
    assert code == 2
    assert "cap" in capsys.readouterr().err


def test_product_spk_mode(files, capsys):
    code = main(
        [
            "product",
            "--mode",
            "spk",
            "--d",
            files("cyc.d", CYC_D_TEXT),
            "--member",
            files("star.d", STAR_D_TEXT),
        ]
    )
    _, cert = _last_cert(capsys)
    assert code == 0
    res = cert["result"]
    assert res["mode"] == "spk"
    assert res["predicted_valence"] == res["verified_valence"] == 22
    assert res["super"] is False
    assert cert["verified"] is True
    prod = parse_digraph(res["digraph"])
    lab = TotalLabeling(
        tuple(res["labeling"]["vertex_labels"]), tuple(res["labeling"]["edge_labels"])
    )
    assert valence_of(prod, lab) == 22


def test_product_tq_mode(files, capsys):
    code = main(
        [
            "product",
            "--mode",
            "tq",
            "--d",
            files("star.d", STAR_D_TEXT),
            "--member",
            files("cyc.d", CYC_D_TEXT),
        ]
    )
    _, cert = _last_cert(capsys)
    assert code == 0
    assert cert["result"]["predicted_valence"] == cert["result"]["verified_valence"] == 20


def test_product_assign_file(files, capsys):
    cyc = files("cyc.d", CYC_D_TEXT)
    star = files("star.d", STAR_D_TEXT)
    assign = files("assign.txt", "1 1\n2 1\n3 1\n4 1\n")
    code = main(
        ["product", "--mode", "spk", "--d", cyc, "--member", star, "--member", star,
         "--assign", assign]
    )
    assert code == 0
    _, cert = _last_cert(capsys)
    assert cert["result"]["verified_valence"] == 22


def test_product_assign_errors(files, capsys):
    cyc = files("cyc.d", CYC_D_TEXT)
    star = files("star.d", STAR_D_TEXT)
    code = main(["product", "--mode", "spk", "--d", cyc, "--member", star,
                 "--member", star])
    assert code == 2
    assert "assign" in capsys.readouterr().err
    short = files("short.txt", "1 1\n2 1\n")
    code = main(["product", "--mode", "spk", "--d", cyc, "--member", star,
                 "--assign", short])
    assert code == 2
    garbled = files("garbled.txt", "1 1\nnope\n3 1\n4 1\n")
    code = main(["product", "--mode", "spk", "--d", cyc, "--member", star,
                 "--assign", garbled])
    assert code == 2
    assert "line 2" in capsys.readouterr().err
    repeated = files("repeated.txt", "1 1\n2 1\n3 1\n4 1\n4 1\n")
    code = main(["product", "--mode", "spk", "--d", cyc, "--member", star,
                 "--assign", repeated])
    assert code == 2
    assert "line 5" in capsys.readouterr().err


def test_product_names_the_member_with_another_key(files, capsys):
    # center labeled 2: the induced sums start at 3, not 2
    star2 = files("star2.d", "p 2\na 1 1\na 1 2\nv 1 2\nv 2 1\ne 1 3\ne 2 4\n")
    code = main(["product", "--mode", "spk", "--d", files("cyc.d", CYC_D_TEXT),
                 "--member", files("star.d", STAR_D_TEXT), "--member", star2,
                 "--assign", files("assign.txt", "1 1\n2 1\n3 1\n4 2\n")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: members do not share a key: member 4 has (2, 3), member 1 has (2, 2)\n"


@pytest.mark.parametrize("mode", ["spk", "tq"])
def test_product_refuses_an_arcless_outer(files, capsys, mode):
    code = main(["product", "--mode", mode, "--d", files("e.d", "p 0\n"),
                 "--member", files("cyc.d", CYC_D_TEXT)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "text, line",
    [
        (CYC_D_TEXT + "x garbage line\n", 14),
        (CYC_D_TEXT.replace("e 4 8", "e 5 8"), 13),
        ("# labels first\n" + ALPHA_TEXT + "p 4\na 1 2\na 2 3\na 3 4\na 4 9\n", 14),
    ],
    ids=["unknown-directive", "edge-index-out-of-range", "arc-out-of-range-after-labels"],
)
def test_product_refuses_bad_lines_in_combined_files(files, capsys, text, line):
    bad = files("cyc.d", text)
    code = main(["product", "--mode", "spk", "--d", bad,
                 "--member", files("star.d", STAR_D_TEXT)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad}: line {line}:") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "name, text, argv",
    [
        ("c3.g", "p 3\ne 1 2\ne 2 3\ne 1 3\n", ["decompose", "--graph", "{}", "--enumerate"]),
        ("arc.txt", "1 1\n2 1\n3 1\n5 1\n",
         ["product", "--mode", "spk", "--d", "{cyc}", "--member", "{star}", "--assign", "{}"]),
        ("member.txt", "1 1\n2 2\n3 1\n4 1\n",
         ["product", "--mode", "spk", "--d", "{cyc}", "--member", "{star}", "--assign", "{}"]),
        ("twice.l", IDENTITY_TEXT.replace("v 2 2", "v 2 1"), ["verify", "{c4}", "{}"]),
        ("e3.g", "p 3\n", ["decompose", "--graph", "{}", "--enumerate", "--include-empty"]),
    ],
    ids=["decompose-not-bipartite", "assign-arc-out-of-range", "assign-member-out-of-range",
         "labels-not-a-bijection", "decompose-edgeless-include-empty"],
)
def test_refusals_name_the_file_as_given(files, capsys, name, text, argv):
    bad = files(name, text)
    given = {"cyc": files("cyc.d", CYC_D_TEXT), "star": files("star.d", STAR_D_TEXT),
             "c4": files("c4.g", C4_TEXT)}
    code = main([arg.format(bad, **given) for arg in argv])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad}: ") and len(err.splitlines()) == 1


def test_parse_errors_name_the_file_among_four(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    texts = {"A.d": CYC_D_TEXT, "B.d": STAR_D_TEXT, "C.d": STAR_D_TEXT + "x junk\n",
             "D.txt": "1 1\n2 2\n3 1\n4 2\n"}
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    code = main(["product", "--mode", "spk", "--d", "A.d", "--member", "B.d", "--member", "C.d",
                 "--assign", "D.txt"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: C.d: line 8: unknown directive 'x' (expected p/a/v/e)\n"
    (tmp_path / "bad.g").write_bytes(b"p 2\ne 1 2\n\xff\n")
    assert main(["interval", "--kind", "em", "bad.g"]) == 2
    assert capsys.readouterr().err.startswith("error: bad.g: 'utf-8' codec can't decode")


def test_hostile_sizes_are_refused_before_allocation(files, capsys):
    huge = files("huge.g", "p 1000000000000000000\ne 1 2\n")
    assert main(["interval", "--kind", "em", huge]) == 2
    assert capsys.readouterr().err.startswith(f"error: {huge}: line 1: vertex count")
    c4 = files("c4.g", C4_TEXT)
    assert main(["s2n", "--graph", c4, "--h1", "1,3", "--n", "1000000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "vertices" in err


def test_s2n_builds_and_verifies(files, capsys):
    k33 = files("k33.g", format_graph(mk_complete_bipartite(3, 3)))
    code = main(["s2n", "--graph", k33, "--h1", "2,3,4,6,7,8"])
    _, cert = _last_cert(capsys)
    assert code == 0
    res = cert["result"]
    assert res["iso_verified"] is True
    assert len(res["roles"]) == 12
    built = parse_graph(res["graph"])
    assert (built.p, built.q) == (12, 18)


def test_s2n_with_induced_labeling(files, capsys):
    G = mk_complete_bipartite(3, 3)
    k33 = files("k33.g", format_graph(G))
    v, f = first_em_labeling(G)
    lab = files("k33.lab", format_labeling(f))
    code = main(["s2n", "--graph", k33, "--h1", "2 3 4 6 7 8", "--labeling", lab])
    _, cert = _last_cert(capsys)
    assert code == 0
    res = cert["result"]
    assert res["valence"] == 2 * (v - 2) + 2 == 38
    assert res["super"] is False
    built = parse_graph(res["graph"])
    induced = TotalLabeling(
        tuple(res["labeling"]["vertex_labels"]), tuple(res["labeling"]["edge_labels"])
    )
    assert valence_of(built, induced) == 38
    code = main(
        ["s2n", "--graph", k33, "--h1", "2 3 4 6 7 8", "--labeling", lab,
         "--center", "2"]
    )
    _, cert = _last_cert(capsys)
    assert code == 0 and cert["result"]["valence"] == 39


def test_s2n_builds_the_doubling_once(files, capsys, monkeypatch):
    import edgemagic.cli
    import edgemagic.decomp

    calls = Counter()

    def counting(name):
        inner = getattr(edgemagic.decomp, name)

        def counted(*args):
            calls[name] += 1
            return inner(*args)

        return counted

    for name in ("build_s2n", "_is_star_composition"):
        counted = counting(name)
        monkeypatch.setattr(edgemagic.decomp, name, counted)
        monkeypatch.setattr(edgemagic.cli, name, counted)
    c4 = files("c4.g", C4_TEXT)
    lab = files("alpha.lab", ALPHA_TEXT)
    s2n = ["s2n", "--graph", c4, "--h1", "1,2", "--n", "2"]
    for argv in (s2n, [*s2n, "--labeling", lab], ["repro", "s2-k33"]):
        calls.clear()
        assert main(argv) == 0
        assert calls == {"build_s2n": 1, "_is_star_composition": 1}, argv
        cert = _last_cert(capsys)[1]
        assert cert["verified"] is True
        if argv[0] == "s2n":
            assert cert["result"]["iso_verified"] is True


def test_each_doubling_is_oriented_once(files, capsys, monkeypatch):
    import edgemagic.decomp as decomp

    calls = []
    orient = decomp.orient_for_decomposition

    def counted(*args):
        calls.append(args)
        return orient(*args)

    monkeypatch.setattr(decomp, "orient_for_decomposition", counted)
    G = mk_cycle(4)
    bip = bipartition(G)
    d = Decomposition(G, frozenset({1, 2}), frozenset({3, 4}))
    alpha = TotalLabeling((1, 6, 2, 3), (5, 4, 7, 8))
    c4 = files("c4.g", C4_TEXT)
    lab = files("alpha.lab", ALPHA_TEXT)
    runs = {
        "induced_s2n_labeling": lambda: decomp.induced_s2n_labeling(G, bip, d, 2, alpha, 1),
        "verify_s2n_iso": lambda: decomp.verify_s2n_iso(G, bip, d, 2),
        "s2n --labeling": lambda: main(["s2n", "--graph", c4, "--h1", "1,2", "--n", "2",
                                        "--labeling", lab]) == 0,
    }
    for name, run in runs.items():
        calls.clear()
        assert run(), name
        assert len(calls) == 1, (name, len(calls))


def test_s2n_input_errors(files, capsys):
    c3 = files("c3.g", "p 3\ne 1 2\ne 2 3\ne 1 3\n")
    assert main(["s2n", "--graph", c3, "--h1", "1"]) == 2
    assert "bipartite" in capsys.readouterr().err
    c4 = files("c4.g", C4_TEXT)
    assert main(["s2n", "--graph", c4, "--h1", "1,9"]) == 2
    assert main(["s2n", "--graph", c4, "--h1", "one"]) == 2
    assert main(["s2n", "--graph", c4, "--h1", " "]) == 2
    assert main(["s2n", "--graph", c4, "--h1", "1,1,2"]) == 2
    assert "twice" in capsys.readouterr().err


@pytest.mark.parametrize("center", ["99", "-3"])
def test_s2n_refuses_a_center_outside_the_star(files, capsys, center):
    c4 = files("c4.g", C4_TEXT)
    assert main(["s2n", "--graph", c4, "--h1", "1,2", "--n", "2", "--center", center]) == 2
    assert capsys.readouterr().err == "error: center label must lie in 1..3\n"
    assert main(["s2n", "--graph", c4, "--h1", "1,2", "--center", "1"]) == 0


@pytest.mark.parametrize(
    "n, err",
    [
        ("-5", "need at least one copy"),
        ("0", "need at least one copy"),
        ("2000000", "the doubling would have 4000002 vertices, above 1000000"),
    ],
)
def test_decompose_refuses_a_bad_copy_count_without_splits(files, capsys, n, err):
    k2 = files("k2.g", "p 2\ne 1 2\n")
    assert main(["decompose", "--graph", k2, "--enumerate", "--n", n]) == 2
    out, stderr = capsys.readouterr()
    assert out == "" and stderr == f"error: {err}\n"


def test_decompose_streams_verdicts(files, capsys):
    c4 = files("c4.g", C4_TEXT)
    code = main(["decompose", "--graph", c4, "--enumerate"])
    lines, cert = _last_cert(capsys)
    assert code == 0
    assert len(lines) == 15
    for line in lines[:-1]:
        row = json.loads(line)
        assert row["iso_verified"] is True
        assert sorted(row["part1"] + row["part2"]) == [1, 2, 3, 4]
    assert cert["result"] == {"splits": 14, "verified_splits": 14, "n": 1}
    assert cert["verified"] is True


def test_decompose_include_empty_and_cap(files, capsys):
    c4 = files("c4.g", C4_TEXT)
    code = main(["decompose", "--graph", c4, "--enumerate", "--include-empty"])
    lines, cert = _last_cert(capsys)
    assert code == 0
    assert cert["result"]["splits"] == 16 and len(lines) == 17
    assert main(["decompose", "--graph", c4, "--enumerate", "--cap", "3"]) == 2
    assert "cap" in capsys.readouterr().err


def test_decompose_include_empty_refuses_an_edgeless_graph(files, capsys):
    e3 = files("e3.g", "p 3\n")
    assert main(["decompose", "--graph", e3, "--enumerate", "--include-empty"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {e3}: graph has no edges, so its one split has no doubling\n"
    assert main(["decompose", "--graph", e3, "--enumerate"]) == 0
    lines, cert = _last_cert(capsys)
    assert len(lines) == 1 and cert["result"] == {"splits": 0, "verified_splits": 0, "n": 1}


@pytest.mark.parametrize(
    "example", ["c4-spectrum", "c4-crown-20", "k1nl-perfect", "s2-k33"]
)
def test_repro_examples_verify(example, capsys):
    code = main(["repro", example])
    _, cert = _last_cert(capsys)
    assert code == 0
    assert cert["verified"] is True
    assert cert["command"] == f"edgemagic repro {example}"


def test_repro_payloads(capsys):
    main(["repro", "c4-spectrum"])
    _, cert = _last_cert(capsys)
    assert cert["result"]["achieved"] == [12, 13, 14, 15]
    main(["repro", "c4-crown-20"])
    _, cert = _last_cert(capsys)
    assert cert["result"]["count"] == 20
    assert cert["result"]["valences"] == list(range(28, 48))
    main(["repro", "k1nl-perfect"])
    _, cert = _last_cert(capsys)
    assert [row["n"] for row in cert["result"]["cases"]] == [1, 2, 3, 4, 5, 6]
    assert all(row["perfect"] for row in cert["result"]["cases"])
    main(["repro", "s2-k33"])
    _, cert = _last_cert(capsys)
    assert cert["result"]["base_valence"] == 20
    assert cert["result"]["valence"] == 38


def test_usage_errors_exit_with_code_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["interval", "x.g"])  # --kind is required
    assert exc.value.code == 2


# argparse's own output at 80 columns, recorded from a parser built anew
# on every call, so a parser built once must print the same bytes.  The
# layout of help and usage text changes between Python versions.
HELP_SHA256 = {  # argv: sha256 of stdout
    "--help": "bf79c5a5dfad41ca1108cf7df38875f149e1e9ed45e1ea239f951e2d83ec07b7",
    "verify --help": "7e1b5f933e79788d05f88fbb12ae5f28e126f75116f5fec571667bac0a095df9",
    "interval --help": "d46699c173f062178799a99f81e9dc48855516570221fa6e199f712bdbdc98fa",
    "spectrum --help": "224e940d7ae52185d75cf4cd6352c89215b00ac537bf79126f46e77cfb189b93",
    "product --help": "0647344404fb3a0e90443ecc3441470bb22deb015d77d49946c07c8e837e9dcf",
    "s2n --help": "4ef8e6be11b46f280553f86b6f72f902523f6474a1b106688eed120fafe1ffb6",
    "decompose --help": "f0311f9dfe2d76f2e7516ac9dbcd98391cae8551454ed2f2c91291419ec52fa7",
    "repro --help": "d623efc300243d7d6359cc7ba8ae913e15b13b2305d6f81a18e6b12ba291d0e7",
}
TOP_USAGE = (
    "usage: edgemagic [-h]\n"
    "                 {verify,interval,spectrum,product,s2n,decompose,repro} ...\n"
)
USAGE_ERRORS = {  # argv: stderr
    "": TOP_USAGE + "edgemagic: error: the following arguments are required: subcommand\n",
    "no-such-command": TOP_USAGE + "edgemagic: error: argument subcommand: invalid choice: "
    "'no-such-command' (choose from 'verify', 'interval', 'spectrum', 'product', 's2n', "
    "'decompose', 'repro')\n",
    "interval x.g": "usage: edgemagic interval [-h] --kind {em,sem} graphfile\n"
    "edgemagic interval: error: the following arguments are required: --kind\n",
    "repro nope": "usage: edgemagic repro [-h] {c4-crown-20,c4-spectrum,k1nl-perfect,s2-k33}\n"
    "edgemagic repro: error: argument example_id: invalid choice: 'nope' (choose from "
    "'c4-crown-20', 'c4-spectrum', 'k1nl-perfect', 's2-k33')\n",
}
on_python_311 = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="argparse text recorded with Python 3.11"
)


@on_python_311
@pytest.mark.parametrize("argv", sorted(HELP_SHA256))
def test_help_stays_byte_identical(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    assert _sha256(out.encode()) == HELP_SHA256[argv]


@on_python_311
@pytest.mark.parametrize("argv", sorted(USAGE_ERRORS))
def test_usage_errors_stay_byte_identical(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err == USAGE_ERRORS[argv]


def test_main_builds_no_parser_per_call(monkeypatch, capsys):
    assert main(["repro", "c4-spectrum"]) == 0
    first = capsys.readouterr().out

    def refuse(*args, **kwargs):
        raise AssertionError("main built an argument parser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    assert main(["repro", "c4-spectrum"]) == 0
    assert capsys.readouterr().out == first


# Byte-stable certificates.  Each command runs from the directory of its
# input files and names them relatively, so the command echo is the same
# on every machine.  The sha256 of each stdout (and of the witnesses
# files) was recorded from a reference run, so a change meant to leave the
# output alone is checked byte for byte.
GOLDEN_FILES = {
    "c4.g": C4_TEXT,
    "alpha.lab": ALPHA_TEXT,
    "p4.g": "p 4\ne 1 2\ne 2 3\ne 3 4\n",
    "cyc.d": CYC_D_TEXT,
    "star.d": STAR_D_TEXT,
    "assign.txt": "# arc member\n1 1\n2 2\n\n3 1\n4 2\n",
    "k33.g": format_graph(mk_complete_bipartite(3, 3)),
    "k33.lab": "v 1 1\nv 2 2\nv 3 3\nv 4 4\nv 5 8\nv 6 12\n"
    "e 1 15\ne 2 11\ne 3 7\ne 4 14\ne 5 10\ne 6 6\ne 7 13\ne 8 9\ne 9 5\n",
}
GOLDEN = {  # name: (argv, exit code, stdout sha256, {written file: sha256})
    "verify": (
        ["verify", "c4.g", "alpha.lab"],
        0,
        "fe8ea41158dfc654b50a01dd5de3070c5eef3e8efe75ca0adb4bfe01b10560f7",
        {},
    ),
    "verify-sem": (
        ["verify", "--kind", "sem", "c4.g", "alpha.lab"],
        1,
        "e1c6965231eb35b21e545ec50009164f20815b34f6ef7be86b4c99c0a3843fdc",
        {},
    ),
    "interval-em": (
        ["interval", "--kind", "em", "c4.g"],
        0,
        "7bfe3275623fd01b4fb4d87f6bb90ec57bc0b25b4e708a669ad99faa6081f9cf",
        {},
    ),
    "interval-sem": (
        ["interval", "--kind", "sem", "c4.g"],
        0,
        "3ed75197d1fe86aa13960ce1625817cd9d797d53ad10d1cb8d686034c20f1d92",
        {},
    ),
    "spectrum-em": (
        ["spectrum", "--kind", "em", "--witnesses", "wit-em.json", "c4.g"],
        0,
        "fa1229986f77e41c47cd2ecf47ddf7b254d0f8a96fa5e67eb787167c0b29e1d1",
        {"wit-em.json": "506083793cf74e8416757cb471203a7a49aadc6b3c3b3bfbe06781a4dc09fb2b"},
    ),
    "spectrum-sem": (
        ["spectrum", "--kind", "sem", "--witnesses", "wit-sem.json", "p4.g"],
        0,
        "01e0eae0c93faa5abea57b5292098ea87648b97a447a10cd5d6e5a7fd455d2dc",
        {"wit-sem.json": "5c4a351d67714ff7db227b3f8594acb490e60ccda5c19a62658f5f7e1aa861f6"},
    ),
    "product-spk": (
        ["product", "--mode", "spk", "--d", "cyc.d", "--member", "star.d", "--member", "star.d",
         "--assign", "assign.txt"],
        0,
        "25688f6860a34fe5249c124fdbab35afebbed2afbc43fc3bebdb7c4292b25942",
        {},
    ),
    "product-tq": (
        ["product", "--mode", "tq", "--d", "star.d", "--member", "cyc.d"],
        0,
        "36faf5dac3593f8eb959b288c65e1474102ad3d04dde03781ad2a4982ad073ff",
        {},
    ),
    "s2n": (
        ["s2n", "--graph", "k33.g", "--h1", "2,3,4,6,7,8", "--n", "2", "--labeling", "k33.lab",
         "--center", "2"],
        0,
        "b174107583f1eb223bee5211f80b9f4a135772ad69e9549402a36c160778852b",
        {},
    ),
    "decompose": (
        ["decompose", "--graph", "c4.g", "--enumerate", "--n", "2"],
        0,
        "6968396493dc02ee81402d1277c9e8039df0ef34662fb46ec4be7af7fb3172ae",
        {},
    ),
    "s2n-p4": (
        ["s2n", "--graph", "p4.g", "--h1", "1,3", "--n", "2"],
        0,
        "93533fd1f79de2aa704c7fc3290885e12b0c20a0826b3d19872030d9146f5cfa",
        {},
    ),
    "s2n-c4-labeling": (
        ["s2n", "--graph", "c4.g", "--h1", "1,2", "--n", "3", "--labeling", "alpha.lab",
         "--center", "3"],
        0,
        "e556fad70f2432b3fb9f029644a9ab6314b5a506a3e6baa6c631bc3147c2a1e3",
        {},
    ),
    "repro-c4-spectrum": (
        ["repro", "c4-spectrum"],
        0,
        "9947a6fa58278e16b166d3f7c048638a9525ecfeda54e5300a1676f410540f62",
        {},
    ),
    "repro-c4-crown-20": (
        ["repro", "c4-crown-20"],
        0,
        "ec24d0609a00162801499817b73d361391436944045d4c49642fded41c8c49e0",
        {},
    ),
    "repro-k1nl-perfect": (
        ["repro", "k1nl-perfect"],
        0,
        "dc96c99c8b7d55888faeab70a3af8f9904e1aec36cf075d79c1147b67e5c2e97",
        {},
    ),
    "repro-s2-k33": (
        ["repro", "s2-k33"],
        0,
        "2e59c79d84760d44a8d48c1807af3d725e76da8354ba316dfa2e4abafee68a34",
        {},
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_certificates_stay_byte_identical(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for fname, text in GOLDEN_FILES.items():
        (tmp_path / fname).write_text(text, encoding="utf-8")
    argv, code, stdout_sha, written = GOLDEN[name]
    assert main(argv) == code
    assert _sha256(capsys.readouterr().out.encode()) == stdout_sha
    for fname, sha in written.items():
        assert _sha256((tmp_path / fname).read_bytes()) == sha


def test_one_process_gives_the_same_results_call_after_call(tmp_path, monkeypatch, capsys):
    # Each call runs once in this order and once in reverse, so each
    # variant runs both before and after the others; a value left over
    # from an earlier call (an appended --member, a --witnesses path, an
    # input digest) would change a certificate or a file.
    monkeypatch.chdir(tmp_path)
    for fname, text in GOLDEN_FILES.items():
        (tmp_path / fname).write_text(text, encoding="utf-8")
    two_members, _, two_sha, _ = GOLDEN["product-spk"]
    witnessed, _, witnessed_sha, written = GOLDEN["spectrum-em"]
    one_member = ["product", "--mode", "spk", "--d", "cyc.d", "--member", "star.d"]
    plain = ["spectrum", "--kind", "em", "c4.g"]
    bad = ["product", "--mode", "spk", "--d", "cyc.d"]  # --member is required
    inputs = {
        "product-two": ({"d", "member1", "member2", "assign"}, two_members),
        "product-one": ({"d", "member1"}, one_member),
        "spectrum-witnessed": ({"graphfile"}, witnessed),
        "spectrum-plain": ({"graphfile"}, plain),
    }
    order = ["product-two", "usage-error", "product-one", "spectrum-witnessed", "spectrum-plain"]
    wit = tmp_path / "wit-em.json"
    first: dict[str, str] = {}
    for name in order + order[::-1]:
        if name == "usage-error":
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 2
            capsys.readouterr()
            continue
        keys, argv = inputs[name]
        if name == "spectrum-plain":
            wit.write_text("left alone\n", encoding="utf-8")
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == first.setdefault(name, out)
        assert set(json.loads(out)["inputs"]) == keys
        if name == "spectrum-plain":
            assert wit.read_text(encoding="utf-8") == "left alone\n"
        if name == "spectrum-witnessed":
            assert _sha256(wit.read_bytes()) == written["wit-em.json"]
    assert _sha256(first["product-two"].encode()) == two_sha
    assert _sha256(first["spectrum-witnessed"].encode()) == witnessed_sha


# Malformed input files: lines of known and unknown directives with too
# few, too many, negative, huge or non-integer fields, mixed into graph
# and labeling files that are otherwise well formed (vertices, edges and
# labels out of range, repeated or missing), beside bytes that are not
# UTF-8.  Values stay small enough that a graph that parses is cheap to
# bound and search.
# int() reads these as 3, 10 and 2, but the file grammar refuses them
MISSPELLED = ["+3", "0_3", "1_0", "\u0663", "\uff13", "\u09e9", "\U0001d7d0"]
_FIELD = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(["1000001", str(10**18), "2.5", "x", "0x1", "-", *MISSPELLED]),
)
_LINE = st.one_of(
    st.builds(
        lambda head, fields: " ".join([head, *fields]),
        st.sampled_from(["p", "e", "v", "a", "x", "#", ""]),
        st.lists(_FIELD, max_size=4),
    ),
    st.text(max_size=8),
)


_SMALL = st.integers(-1, 7)
# a field int() still reads as the same integer, spelled as the grammar refuses
_RESPELL = st.sampled_from([
    lambda t: "+" + t,
    lambda t: "0_" + t,
    lambda t: t.translate(str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                        "\u0665\u0666\u0667\u0668\u0669")),
])


@st.composite
def _inputs(draw):
    """A graph file and a labeling file: lines for a graph of up to 7
    vertices and 6 edges and for a labeling of it, with values that may
    fall out of range or repeat and lines that may be missing, one field
    that may be respelled, and up to two malformed lines put in anywhere;
    or bytes that are not text."""
    p = draw(_SMALL)
    vertex = st.one_of(st.integers(1, max(p, 1)), _SMALL)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=6))
    graph = [f"p {p}", *(f"e {u} {v}" for u, v in edges)]
    label = st.one_of(st.integers(1, max(p, 0) + len(edges) + 1), st.integers(-1, 14))
    labeling = [f"v {i} {x}" for i, x in enumerate(draw(st.lists(label, max_size=max(p, 0))), 1)]
    labeling += [f"e {i} {x}" for i, x in enumerate(draw(st.lists(label, max_size=len(edges))), 1)]
    files = []
    for lines in (graph, draw(st.permutations(labeling))):
        lines = list(lines)
        if lines and draw(st.integers(0, 3)) == 0:
            at = draw(st.integers(0, len(lines) - 1))
            head, *fields = lines[at].split()
            j = draw(st.integers(0, len(fields) - 1))
            fields[j] = draw(_RESPELL)(fields[j])
            lines[at] = " ".join([head, *fields])
        if draw(st.booleans()):
            for at, line in draw(st.lists(st.tuples(st.integers(0, 20), _LINE), min_size=1, max_size=2)):
                lines.insert(at % (len(lines) + 1), line)
        text = "\n".join(lines).encode("utf-8", "surrogatepass")
        files.append(draw(st.binary(max_size=16)) if draw(st.integers(0, 5)) == 0 else text)
    return files


_INTEGER = re.compile(r"-?[0-9]+")


def _refused_spelling(data: bytes) -> bool:
    """True when data is not UTF-8 text, or when a line that is not blank
    or a comment has a field other than ASCII digits after an optional '-'."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return True
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0][0] != "#" and not all(map(_INTEGER.fullmatch, parts[1:])):
            return True
    return False


@settings(
    derandomize=True, database=None, deadline=None, max_examples=300,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    files=_inputs(),
    command=st.sampled_from(["verify", "interval", "spectrum", "product", "s2n", "decompose"]),
)
def test_malformed_files_exit_with_a_contract_code(tmp_path, capsys, files, command):
    graph, labeling = files
    g, lab, d = tmp_path / "g.txt", tmp_path / "lab.txt", tmp_path / "d.txt"
    g.write_bytes(graph)
    lab.write_bytes(labeling)
    # product reads a digraph and its labeling from one file, arcs on 'a' lines
    d.write_bytes(re.sub(rb"(?m)^e ", b"a ", graph) + b"\n" + labeling)
    argv, read = {
        "verify": (["verify", str(g), str(lab)], (graph, labeling)),
        "interval": (["interval", "--kind", "em", str(g)], (graph,)),
        "spectrum": (["spectrum", "--kind", "sem", "--cap", "10", str(g)], (graph,)),
        "product": (["product", "--mode", "spk", "--d", str(d), "--member", str(d)], (d.read_bytes(),)),
        "s2n": (["s2n", "--graph", str(g), "--h1", "1", "--labeling", str(lab)], (graph, labeling)),
        "decompose": (["decompose", "--graph", str(g), "--enumerate", "--cap", "6"], (graph,)),
    }[command]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    if any(map(_refused_spelling, read)):
        assert code == 2, err


@pytest.mark.parametrize("spelled", MISSPELLED)
@pytest.mark.parametrize(
    "name, text, line, argv",
    [
        ("p.g", "p {}\ne 1 2\n", 1, ["interval", "--kind", "em", "{}"]),
        ("e.g", "p 3\ne 1 2\ne 2 {}\n", 3, ["interval", "--kind", "em", "{}"]),
        ("v.l", ALPHA_TEXT.replace("v 4 3", "v 4 {}"), 4, ["verify", "{c4}", "{}"]),
        ("a.d", CYC_D_TEXT.replace("a 2 3", "a 2 {}"), 3,
         ["product", "--mode", "spk", "--d", "{}", "--member", "{star}"]),
        ("assign.txt", "1 1\n2 1\n{} 1\n4 1\n", 3,
         ["product", "--mode", "spk", "--d", "{cyc}", "--member", "{star}", "--assign", "{}"]),
        ("s2n.g", "p 3\ne 1 2\ne 2 {}\n", 3, ["s2n", "--graph", "{}", "--h1", "1"]),
        ("s2n.l", ALPHA_TEXT.replace("v 4 3", "v 4 {}"), 4,
         ["s2n", "--graph", "{c4}", "--h1", "1", "--labeling", "{}"]),
        ("dec.g", "p 3\ne 1 2\ne 2 {}\n", 3, ["decompose", "--graph", "{}", "--enumerate"]),
    ],
    ids=["graph-header", "graph-edge", "verify-labeling", "product-digraph", "product-assign",
         "s2n-graph", "s2n-labeling", "decompose-graph"],
)
def test_respelled_integers_are_refused_naming_their_line(
    files, capsys, spelled, name, text, line, argv
):
    bad = files(name, text.replace("{}", spelled))
    given = {"cyc": files("cyc.d", CYC_D_TEXT), "star": files("star.d", STAR_D_TEXT),
             "c4": files("c4.g", C4_TEXT)}
    code = main([arg.format(bad, **given) for arg in argv])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad}: line {line}: fields must be integers"), err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("h1", ["+1", "0_1", "\u0661", "1,\uff13"])
def test_edge_index_lists_share_the_file_grammar(files, capsys, h1):
    code = main(["s2n", "--graph", files("c4.g", C4_TEXT), "--h1", h1])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: edge indices must be integers: {h1!r}\n"
