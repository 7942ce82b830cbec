"""Command line front end.

Every command prints one JSON certificate object holding the command
echo, a digest of each input file, the result payload and a verified
flag; decompose streams one JSON line per split before its closing
certificate.  The verified flag is set only after the payload has been
re-checked independently: labelings are re-verified against their graph
and intervals against the pairing identity of their rational extremes.

Exit codes: 0 when the command succeeded and any claimed property holds,
1 when a property fails (a labeling that is not magic, a mismatched
prediction, a re-check that disagrees), 2 for unusable input (parse
errors, budget refusals, unknown flags), 3 for an internal fault (a
failed self-check or exhausted memory).  Unusable
files, budget refusals and internal faults print one "error:" line on
stderr instead of a traceback.

The argument parser is built once, when the module is imported, so main
is cheap to call repeatedly in-process: each call parses into a fresh
namespace and shares nothing with the calls before it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from fractions import Fraction
from typing import Any, Callable, Sequence

from .decomp import (
    Decomposition,
    _check_copies,
    _is_star_composition,
    build_s2n,
    enumerate_2_decompositions,
    induced_s2n_labeling,
    verify_s2n_iso,
)
from .errors import EdgeMagicError, ParseError
from .graphs import (
    Digraph,
    Graph,
    _construct,
    _records,
    _respelled,
    bipartition,
    format_digraph,
    format_graph,
    mk_complete_bipartite,
    mk_crown,
    mk_cycle,
    mk_star_with_loop,
    parse_graph,
)
from .intervals import IntervalReport, em_interval, sem_interval
from .labelings import (
    TotalLabeling,
    _labeling,
    format_labeling,
    induced_sums,
    is_super_edge_magic,
    parse_labeling,
    valence_of,
)
from .products import (
    ArcAssignment,
    CYCLE4_EM_LABELINGS,
    LabeledDigraph,
    em_factor_key,
    induced_labeling_from_em_factors,
    induced_labeling_from_sem_factors,
    sem_factor_key,
    star_product_valences,
)
from .search import (
    DEFAULT_CAP,
    SpectrumReport,
    em_spectrum,
    first_em_labeling,
    sem_spectrum,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _load(args: argparse.Namespace, name: str, path: str, parse: Callable[..., Any], *extra: Any) -> Any:
    """Read an input file once and return parse(text, *extra): the sha256
    of its bytes goes into the certificate's inputs under name, so the
    digest is always that of the bytes that were parsed.  A parse error,
    or text that is not UTF-8, names the file as it was given."""
    with open(path, "rb") as fh:
        data = fh.read()
    args.inputs[name] = "sha256:" + hashlib.sha256(data).hexdigest()
    try:
        return parse(data.decode("utf-8"), *extra)
    except (ParseError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def _emit(args: argparse.Namespace, result: Any, verified: bool, holds: bool = True) -> int:
    """Print the certificate and return the exit code: 0 when the payload
    is verified and the claimed property holds, else 1."""
    cert = {
        "command": " ".join(args.argv),
        "inputs": args.inputs,
        "result": result,
        "verified": verified,
    }
    print(json.dumps(cert, sort_keys=True))
    return EXIT_OK if verified and holds else EXIT_FAIL


def _write_atomically(path: str, payload: Any) -> None:
    """Write payload as JSON through a temporary file beside the target,
    so the target holds either its old content or the whole new file."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _interval_json(rep: IntervalReport) -> dict[str, Any]:
    return {
        "lo": rep.lo,
        "hi": rep.hi,
        "raw_min": str(rep.raw_min),
        "raw_max": str(rep.raw_max),
    }


def _interval_checks(kind: str, p: int, q: int, rep: IntervalReport) -> bool:
    # Pairing the weight sequence with a label sequence and its reverse
    # makes the two extremes sum to a closed form; recomputing that form
    # from p and q alone re-verifies the rational arithmetic.
    if kind == "em":
        expected = Fraction(3 * (p + q + 1))
    else:
        block = sum(range(p + 1, p + q + 1))
        expected = 2 * (p + 1) + Fraction(2 * block, q)
    return (
        rep.raw_min + rep.raw_max == expected
        and rep.lo == math.ceil(rep.raw_min)
        and rep.hi == math.floor(rep.raw_max)
    )


def _spectrum_checks(G: Graph, rep: SpectrumReport) -> bool:
    """Re-check a spectrum: its interval against the pairing identity and
    every witness against G."""
    recheck = is_super_edge_magic if rep.kind == "sem" else valence_of
    return _interval_checks(rep.kind, G.p, G.q, rep.interval) and all(
        recheck(G, w) == k for k, w in rep.witnesses.items()
    )


def _labeling_json(f: TotalLabeling) -> dict[str, list[int]]:
    return {
        "vertex_labels": list(f.vertex_labels),
        "edge_labels": list(f.edge_labels),
    }


def _labeled_digraph(text: str) -> LabeledDigraph:
    """Parse a digraph and its labeling from one file: 'p' and 'a' lines
    build the digraph, 'v' and 'e' lines label it, in any order."""
    structure, labels = [], []
    for record in _records(text, ("p", "a", "v", "e")):
        (structure if record[1] in ("p", "a") else labels).append(record)
    D = Digraph(*_construct(structure, "a"))
    return LabeledDigraph(D, _labeling(labels, D.p, D.q))


def _assignment(text: str, members: list[LabeledDigraph], arcs: int) -> ArcAssignment:
    """The members named by the '<arc> <member>' lines of an assign file."""
    picks: dict[int, LabeledDigraph] = {}
    for ln, _, (arc, member) in _records(text, ()):
        if not (0 < arc <= arcs and 0 < member <= len(members)):
            raise ParseError("arc or member index out of range", ln)
        if arc in picks:
            raise ParseError(f"assign file names arc {arc} twice", ln)
        picks[arc] = members[member - 1]
    if len(picks) != arcs:
        raise ParseError("assign file leaves some arcs without a member")
    return ArcAssignment(tuple(picks[a] for a in range(1, arcs + 1)))


def _parse_indices(raw: str) -> frozenset[int]:
    try:
        # the integer spelling of the input files: ASCII digits, no '+' or '_'
        if _respelled(raw):
            raise ValueError
        indices = [int(tok) for tok in raw.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"edge indices must be integers: {raw!r}") from None
    if not indices:
        raise ValueError("empty edge index list")
    if len(set(indices)) != len(indices):
        raise ParseError(f"an edge index is given twice: {raw!r}")
    return frozenset(indices)


def _cmd_verify(args: argparse.Namespace) -> int:
    G = _load(args, "graphfile", args.graphfile, parse_graph)
    f = _load(args, "labelingfile", args.labelingfile, parse_labeling, G.p, G.q)
    k = is_super_edge_magic(G, f) if args.kind == "sem" else valence_of(G, f)
    print("not magic" if k is None else f"valence {k}")
    result = {"kind": args.kind, "magic": k is not None}
    if k is not None:
        result["valence"] = k
    return _emit(args, result, True, holds=k is not None)


def _cmd_interval(args: argparse.Namespace) -> int:
    G = _load(args, "graphfile", args.graphfile, parse_graph)
    rep = sem_interval(G) if args.kind == "sem" else em_interval(G)
    verified = _interval_checks(args.kind, G.p, G.q, rep)
    return _emit(args, _interval_json(rep), verified)


def _cmd_spectrum(args: argparse.Namespace) -> int:
    G = _load(args, "graphfile", args.graphfile, parse_graph)
    out = args.witnesses
    if out and os.path.exists(out) and os.path.samefile(out, args.graphfile):
        raise ValueError(f"{out}: the --witnesses file would overwrite the input graph")
    rep = (sem_spectrum if args.kind == "sem" else em_spectrum)(G, args.cap)
    verified = _spectrum_checks(G, rep)
    if out and verified:
        payload = {str(k): _labeling_json(w) for k, w in sorted(rep.witnesses.items())}
        _write_atomically(out, payload)
    result = {
        "kind": args.kind,
        "interval": _interval_json(rep.interval),
        "achieved": list(rep.achieved),
        "perfect": rep.perfect,
    }
    return _emit(args, result, verified)


def _cmd_product(args: argparse.Namespace) -> int:
    outer = _load(args, "d", args.d, _labeled_digraph)
    members = [_load(args, f"member{i}", m, _labeled_digraph) for i, m in enumerate(args.member, 1)]
    arcs = len(outer.digraph.arcs)
    if args.assign:
        assignment = _load(args, "assign", args.assign, _assignment, members, arcs)
    elif len(members) == 1:
        assignment = ArcAssignment.constant(members[0], arcs)
    else:
        raise ValueError("several members need an --assign file")

    if args.mode == "spk":
        ind = induced_labeling_from_sem_factors(outer, assignment)
        pm, k = sem_factor_key(assignment.members[0])
        outer_valence = valence_of(outer.digraph, outer.labeling)
        predicted = pm * (outer_valence - 3) + k + pm
    else:
        ind = induced_labeling_from_em_factors(outer, assignment)
        member = assignment.members[0]
        qm, sigma, _ = em_factor_key(member)
        kmin = min(induced_sums(outer.digraph, outer.labeling.vertex_labels))
        predicted = (member.digraph.p + qm) * (kmin + outer.digraph.p - 3) + sigma

    verified_valence = valence_of(ind.product, ind.labeling)
    verified = verified_valence == ind.valence == predicted
    result = {
        "mode": args.mode,
        "digraph": format_digraph(ind.product),
        "labeling": _labeling_json(ind.labeling),
        "predicted_valence": predicted,
        "verified_valence": verified_valence,
        "super": is_super_edge_magic(ind.product, ind.labeling) is not None,
    }
    return _emit(args, result, verified)


def _cmd_s2n(args: argparse.Namespace) -> int:
    G = _load(args, "graph", args.graph, parse_graph)
    bip = bipartition(G)
    if bip is None:
        raise ValueError(f"{args.graph}: graph is not bipartite")
    d = Decomposition(G, _parse_indices(args.h1))
    if args.labeling:
        f = _load(args, "labeling", args.labeling, parse_labeling, G.p, G.q)
        s, lab, val = induced_s2n_labeling(G, bip, d, args.n, f, args.center)
        # induced_s2n_labeling raises unless the doubling is the star composition
        verified = True
    else:
        s = build_s2n(G, bip, d, args.n)
        if not 1 <= args.center <= args.n + 1:
            raise ValueError(f"center label must lie in 1..{args.n + 1}")
        verified = _is_star_composition(s)
    result: dict[str, Any] = {
        "graph": format_graph(s.graph),
        "roles": [list(role) for role in s.roles],
        "iso_verified": verified,
    }
    if args.labeling:
        verified = verified and valence_of(s.graph, lab) == val
        result["labeling"] = _labeling_json(lab)
        result["valence"] = val
        result["super"] = is_super_edge_magic(s.graph, lab) is not None
    return _emit(args, result, verified)


def _cmd_decompose(args: argparse.Namespace) -> int:
    G = _load(args, "graph", args.graph, parse_graph)
    bip = bipartition(G)
    if bip is None:
        raise ValueError(f"{args.graph}: graph is not bipartite")
    if args.include_empty and G.q == 0:
        raise ValueError(f"{args.graph}: graph has no edges, so its one split has no doubling")
    _check_copies(G.p, args.n)
    count = 0
    good = 0
    for d in enumerate_2_decompositions(G, args.include_empty, args.cap):
        iso = verify_s2n_iso(G, bip, d, args.n)
        count += 1
        good += iso
        line = {
            "part1": sorted(d.part1),
            "part2": sorted(d.part2),
            "iso_verified": iso,
        }
        print(json.dumps(line, sort_keys=True))
    verified = good == count
    result = {"splits": count, "verified_splits": good, "n": args.n}
    return _emit(args, result, verified)


def _repro_c4_spectrum() -> tuple[dict[str, Any], bool]:
    G = mk_cycle(4)
    rep = em_spectrum(G)
    ok = list(rep.achieved) == [12, 13, 14, 15] and _spectrum_checks(G, rep)
    return {
        "achieved": list(rep.achieved),
        "interval": _interval_json(rep.interval),
        "perfect": rep.perfect,
    }, ok


def _repro_c4_crown_20() -> tuple[dict[str, Any], bool]:
    crown = mk_crown(4, 2)
    rep = em_interval(crown)
    found = star_product_valences(4, 2, list(CYCLE4_EM_LABELINGS))
    ok = (
        (rep.lo, rep.hi) == (28, 47)
        and _interval_checks("em", crown.p, crown.q, rep)
        and sorted(found) == list(range(28, 48))
        and all(valence_of(crown, lab) == k for k, lab in found.items())
    )
    return {
        "valences": sorted(found),
        "interval": _interval_json(rep),
        "count": len(found),
        "perfect": ok,
    }, ok


def _repro_k1nl_perfect() -> tuple[dict[str, Any], bool]:
    rows = []
    ok = True
    for n in range(1, 7):
        star = mk_star_with_loop(n)
        rep = sem_spectrum(star)
        good = (
            rep.perfect
            and len(rep.achieved) == n + 1
            and list(rep.achieved) == list(rep.interval.values())
            and _spectrum_checks(star, rep)
        )
        rows.append({"n": n, "achieved": list(rep.achieved), "perfect": rep.perfect})
        ok = ok and good
    return {"cases": rows}, ok


def _repro_s2_k33() -> tuple[dict[str, Any], bool]:
    G = mk_complete_bipartite(3, 3)
    # the second part is the perfect matching {1, 5, 9}
    d = Decomposition(G, frozenset(range(1, 10)) - {1, 5, 9})
    bip = bipartition(G)
    assert bip is not None
    hit = first_em_labeling(G)
    if hit is None:
        return {"base_valence": None}, False
    base_valence, f = hit
    # induced_s2n_labeling has proved the doubling is the star composition
    s, lab, val = induced_s2n_labeling(G, bip, d, 1, f, 1)
    ok = valence_of(s.graph, lab) == val
    return {
        "base_valence": base_valence,
        "graph": format_graph(s.graph),
        "labeling": _labeling_json(lab),
        "valence": val,
    }, ok


_REPROS = {
    "c4-spectrum": _repro_c4_spectrum,
    "c4-crown-20": _repro_c4_crown_20,
    "k1nl-perfect": _repro_k1nl_perfect,
    "s2-k33": _repro_s2_k33,
}


def _cmd_repro(args: argparse.Namespace) -> int:
    return _emit(args, *_REPROS[args.example_id]())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgemagic",
        description="Verify, bound, search and construct edge magic total labelings.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify", help="check a labeling file against a graph file")
    p.add_argument("--kind", choices=("em", "sem"), default="em")
    p.add_argument("graphfile")
    p.add_argument("labelingfile")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("interval", help="exact candidate valence interval of a graph")
    p.add_argument("--kind", choices=("em", "sem"), required=True)
    p.add_argument("graphfile")
    p.set_defaults(func=_cmd_interval)

    p = sub.add_parser("spectrum", help="all achievable valences by exhaustive search")
    p.add_argument("--kind", choices=("em", "sem"), required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--witnesses", metavar="OUT.json", help="write one witness per valence")
    p.add_argument("graphfile")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("product", help="compose labeled digraphs and label the result")
    p.add_argument("--d", required=True, metavar="FILE", help="outer digraph plus labeling")
    p.add_argument("--member", required=True, action="append", metavar="FILE",
                   help="member digraph plus labeling; repeatable")
    p.add_argument("--assign", metavar="FILE", help="lines '<arc> <member>'")
    p.add_argument("--mode", choices=("spk", "tq"), required=True)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("s2n", help="split doubling of a bipartite graph")
    p.add_argument("--graph", required=True, metavar="FILE")
    p.add_argument("--h1", required=True, metavar="INDICES",
                   help="first-part edge indices, comma or space separated")
    p.add_argument("--n", type=int, default=1, metavar="K", help="copy count")
    p.add_argument("--labeling", metavar="FILE", help="edge magic labeling of the base graph")
    p.add_argument("--center", type=int, default=1, metavar="R",
                   help="star center label for the induced labeling")
    p.set_defaults(func=_cmd_s2n)

    p = sub.add_parser("decompose", help="enumerate edge splits with doubling verdicts")
    p.add_argument("--graph", required=True, metavar="FILE")
    p.add_argument("--enumerate", action="store_true", required=True)
    p.add_argument("--include-empty", action="store_true")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--cap", type=int, default=20)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("repro", help="re-run a packaged worked example")
    p.add_argument("example_id", choices=sorted(_REPROS))
    p.set_defaults(func=_cmd_repro)

    return parser


_PARSER = _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    args = _PARSER.parse_args(raw)
    args.argv = ["edgemagic", *raw]
    args.inputs = {}
    try:
        return args.func(args)
    except (EdgeMagicError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (RuntimeError, MemoryError) as exc:
        # RuntimeError covers the self-checks
        print(f"error: internal fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
