"""End to end command line tests: exit codes, certificates, file formats."""
from __future__ import annotations

import json

import pytest

from edgemagic import (
    TotalLabeling,
    first_em_labeling,
    format_graph,
    format_labeling,
    mk_complete_bipartite,
    mk_crown,
    mk_cycle,
    parse_digraph,
    parse_graph,
    underlying,
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


def test_internal_faults_exit_with_code_three(files, capsys):
    # 1098 isolated vertices drive the backtracking past the recursion limit
    deep = files("deep.g", "p 1100\ne 1 2\n")
    code = main(["spectrum", "--kind", "em", "--cap", "5000", deep])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "RecursionError" in err
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
    prod = underlying(parse_digraph(res["digraph"]))
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


def test_s2n_input_errors(files, capsys):
    c3 = files("c3.g", "p 3\ne 1 2\ne 2 3\ne 1 3\n")
    assert main(["s2n", "--graph", c3, "--h1", "1"]) == 2
    assert "bipartite" in capsys.readouterr().err
    c4 = files("c4.g", C4_TEXT)
    assert main(["s2n", "--graph", c4, "--h1", "1,9"]) == 2
    assert main(["s2n", "--graph", c4, "--h1", "one"]) == 2
    assert main(["s2n", "--graph", c4, "--h1", " "]) == 2


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
