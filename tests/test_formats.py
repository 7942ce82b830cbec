"""parse ∘ format is the identity on every text format, combined files too;
formatter output is read in one pass, and every other text as the per-line
rules read it."""
from __future__ import annotations

import re
from contextlib import ExitStack
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgemagic import (
    ArcAssignment,
    Digraph,
    Graph,
    LabeledDigraph,
    TotalLabeling,
    format_digraph,
    format_graph,
    format_labeling,
    parse_digraph,
    parse_graph,
    parse_labeling,
)
from edgemagic import graphs, labelings
from edgemagic.cli import _assignment, _labeled_digraph
from edgemagic.errors import ParseError
from test_cli import _inputs

# derandomize fixes the examples, so every run checks the same inputs.
DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def labeled_pairs(draw) -> tuple[int, tuple[tuple[int, int], ...], TotalLabeling]:
    """A vertex count, pairs on it (loops and repeated pairs allowed) and a
    total labeling of the vertices and pairs."""
    p = draw(st.integers(0, 9))
    vertex = st.integers(1, max(p, 1))
    pairs = tuple(draw(st.lists(st.tuples(vertex, vertex), max_size=12 if p else 0)))
    labels = draw(st.permutations(range(1, p + len(pairs) + 1)))
    return p, pairs, TotalLabeling(tuple(labels[:p]), tuple(labels[p:]))


@DETERMINISTIC
@given(labeled_pairs())
def test_graphs_and_digraphs_read_back_unchanged(case):
    p, pairs, _ = case
    G, D = Graph(p, pairs), Digraph(p, pairs)
    assert parse_graph(format_graph(G)) == G
    assert parse_digraph(format_digraph(D)) == D


@DETERMINISTIC
@given(labeled_pairs())
def test_labelings_read_back_unchanged(case):
    _, _, f = case
    assert parse_labeling(format_labeling(f), f.p, f.q) == f


@DETERMINISTIC
@given(labeled_pairs())
def test_combined_labeled_digraphs_read_back_unchanged(case):
    p, pairs, f = case
    D = Digraph(p, pairs)
    want = LabeledDigraph(D, f)
    assert _labeled_digraph(format_digraph(D) + format_labeling(f)) == want
    assert _labeled_digraph(format_labeling(f) + "\n# the digraph\n" + format_digraph(D)) == want


# -- the one-pass reader against the per-line rules -----------------------
#
# The graph, digraph and labeling readers read a text in one pass when the
# formatters write it back exactly, and line by line (graphs._records)
# otherwise.  With the formatters they compare against switched off
# (graphs._format and labelings.format_labeling give None), a reader
# follows the per-line rules alone: that is the reference.  Every text
# must give the same object, or the same ParseError, text and line number,
# with them switched on; formatter output must be read with _records
# switched off.  The CLI's combined and assign files are read by the
# per-line rules alone: they must give their object or a ParseError.

# three distinct members for assign files
_MEMBERS = [
    LabeledDigraph(Digraph(1), TotalLabeling((1,), ())),
    LabeledDigraph(Digraph(2), TotalLabeling((1, 2), ())),
    LabeledDigraph(Digraph(2), TotalLabeling((2, 1), ())),
]


def _line_rules_only():
    stack = ExitStack()
    stack.enter_context(mock.patch.object(graphs, "_format", lambda *_: None))
    stack.enter_context(mock.patch.object(labelings, "format_labeling", lambda *_: None))
    return stack


def _refuse_formatter_output(*_):
    raise AssertionError("formatter output was read by the per-line rules")


@DETERMINISTIC
@given(labeled_pairs())
def test_formatter_output_is_read_in_one_pass(case):
    p, pairs, f = case
    G, D = Graph(p, pairs), Digraph(p, pairs)
    with mock.patch.object(graphs, "_records", _refuse_formatter_output), \
            mock.patch.object(labelings, "_records", _refuse_formatter_output):
        assert parse_graph(format_graph(G)) == G
        assert parse_digraph(format_digraph(D)) == D
        assert parse_labeling(format_labeling(f), f.p, f.q) == f


def _outcome(read, text):
    try:
        return read(text)
    except ParseError as exc:
        return exc


def _same_as_line_rules(read, text: str):
    """What the per-line rules make of text, after checking that the
    reader gives the same: the object, or the ParseError."""
    with _line_rules_only():
        want = _outcome(read, text)
    got = _outcome(read, text)
    if isinstance(want, ParseError):
        assert isinstance(got, ParseError), (text, got)
        assert (str(got), got.line) == (str(want), want.line), text
    else:
        assert got == want, text
    return want


@st.composite
def _spelled(draw, n: int) -> str:
    """n as the grammar spells it, with leading zeros, and a '-' before 0."""
    minus = "-" if n == 0 and draw(st.booleans()) else ""
    return minus + "0" * draw(st.integers(0, 2)) + str(n)


# a form feed or U+0085 ends no line, though str.splitlines() breaks there
_NOISE = st.sampled_from(["", "  ", "\t", "# a comment", "#e 1 2", "# +1 1_0 \u0663", " # p 3",
                          "# caf\u0085 note", "\x0c"])


@st.composite
def _text(draw, rows: list[tuple]) -> str:
    """rows as lines: a directive ("" for none) and integer fields, spaced
    out and respelled, with blank and comment lines put in anywhere, LF,
    CRLF or CR endings and perhaps no final line break."""
    lines = []
    for head, *fields in rows:
        tokens = [head] * bool(head) + [draw(_spelled(x)) for x in fields]
        space = draw(st.sampled_from([" ", "  ", "\t", " \t"]))
        ends = draw(st.sampled_from(["", " "])), draw(st.sampled_from(["", " ", "\t"]))
        lines.append(ends[0] + space.join(tokens) + ends[1])
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_NOISE))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


_ONE_PASS_FORMATS = ["graph", "digraph", "labeling"]
_FORMATS = [*_ONE_PASS_FORMATS, "combined", "assign"]


def _label_rows(f: TotalLabeling) -> list[tuple]:
    return [("v", i, x) for i, x in enumerate(f.vertex_labels, 1)] + [
        ("e", i, x) for i, x in enumerate(f.edge_labels, 1)]


@st.composite
def _valid_file(draw, formats: list[str] = _FORMATS):
    """A format among formats, a reader for it, the rows of a valid file
    and the object they spell."""
    p, pairs, f = draw(labeled_pairs())
    D = Digraph(p, pairs)
    labels = draw(st.permutations(_label_rows(f)))
    fmt = draw(st.sampled_from(formats))
    if fmt in ("graph", "digraph"):
        head, read, want = ("e", parse_graph, Graph(p, pairs)) if fmt == "graph" else ("a", parse_digraph, D)
        return fmt, read, [("p", p), *((head, u, v) for u, v in pairs)], want
    if fmt == "labeling":
        return fmt, lambda text: parse_labeling(text, p, len(pairs)), labels, f
    if fmt == "combined":
        # labels anywhere, the 'p' line before the arcs, the arcs in order
        rows = [("p", p), *(("a", u, v) for u, v in pairs)]
        for row in labels:
            rows.insert(draw(st.integers(0, len(rows))), row)
        return fmt, _labeled_digraph, rows, LabeledDigraph(D, f)
    # every member named, so that one past the largest is out of range
    picks = draw(st.lists(st.integers(1, len(_MEMBERS)), min_size=len(pairs), max_size=len(pairs)))
    members = _MEMBERS[:max(picks, default=0)]
    rows = draw(st.permutations([("", a, m) for a, m in enumerate(picks, 1)]))
    want = ArcAssignment(tuple(_MEMBERS[m - 1] for m in picks))
    return fmt, lambda text: _assignment(text, members, len(pairs)), rows, want


def _changes(rows: list[tuple]):
    """Each text one change away from rows, which may break it: a field set
    to 0, to one past its own value or its column's largest, or past the
    largest vertex count allowed; a row's directive unknown; a row
    dropped, repeated or moved to the end; a 'p' line put first; or a 'p'
    line with two fields put last."""
    for at, row in enumerate(rows):
        for j in range(1, len(row)):
            top = max(other[j] for other in rows if len(other) == len(row))
            for value in sorted({0, row[j] + 1, top + 1, 10**6 + 1}):
                yield [*rows[:at], (*row[:j], value, *row[j + 1:]), *rows[at + 1:]]
        yield [*rows[:at], ("x", *row[1:]), *rows[at + 1:]]
        yield rows[:at] + rows[at + 1:]
        yield rows + [row]
        yield rows[:at] + rows[at + 1:] + [row]
    yield [("p", 1), *rows]
    yield [*rows, ("p", 1, 1)]


def _checked(fmt: str, read, text: str):
    """What read makes of text, the object or the ParseError: checked
    against the per-line rules when fmt may be read in one pass."""
    return _same_as_line_rules(read, text) if fmt in _ONE_PASS_FORMATS else _outcome(read, text)


_DIFFERENTIAL = settings(derandomize=True, database=None, deadline=None, max_examples=300,
                         suppress_health_check=[HealthCheck.too_slow])


@_DIFFERENTIAL
@given(_valid_file(_ONE_PASS_FORMATS), st.data())
def test_valid_files_get_the_line_rules_object(case, data):
    _, read, rows, want = case
    assert _same_as_line_rules(read, data.draw(_text(rows))) == want


@DETERMINISTIC
@given(_valid_file(["combined", "assign"]), st.data())
def test_valid_combined_and_assign_files_read_through_noise(case, data):
    _, read, rows, want = case
    assert read(data.draw(_text(rows))) == want


@_DIFFERENTIAL
@given(_valid_file())
def test_files_one_change_away_get_the_line_rules_outcome(case):
    fmt, read, rows, _ = case
    for changed in _changes(rows):
        _checked(fmt, read, "".join(" ".join(map(str, row)) + "\n" for row in changed))


@_DIFFERENTIAL
@given(_inputs(), st.sampled_from(_FORMATS))
def test_malformed_files_get_the_line_rules_outcome(files, fmt):
    graph, labeling = (data.decode("utf-8", "replace") for data in files)
    # counted from the text, so that some labelings and assign files fit
    p, q = len(re.findall(r"(?m)^v ", labeling)), len(re.findall(r"(?m)^e ", labeling))
    read, text = {
        "graph": (parse_graph, graph),
        "digraph": (parse_digraph, re.sub(r"(?m)^e ", "a ", graph)),
        "labeling": (lambda text: parse_labeling(text, p, q), labeling),
        "combined": (_labeled_digraph, re.sub(r"(?m)^e ", "a ", graph) + "\n" + labeling),
        "assign": (lambda text: _assignment(text, _MEMBERS, p + q), re.sub(r"(?m)^[ve] ", "", labeling)),
    }[fmt]
    _checked(fmt, read, text)
