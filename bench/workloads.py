"""The four benchmark workloads: pools of queries built from a seed.

Each builder receives the freshly imported edgemagic package, a seeded
random generator and a Refs object holding the checker's own spectra and
least valences.  It returns the pool: a list of Query objects, each one
call (or one short fixed sequence of calls) into the public API plus an
independent check of what came back.  Builders may call the program to
find set-up witnesses; everything a query returns is checked with
checker.py alone.

Costs were measured on a 2-CPU machine with Python 3.11 and chosen so
that, within one workload, queries stay within about one order of
magnitude of each other (see README.md for the figures).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import checker as ck
from checker import require


@dataclass
class Query:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    # run once in the warm-up pass at set-up
    warm: bool = False


class Refs:
    """Memo of the checker's spectra and least valences, filled lazily by
    the checks, so that each graph is searched once per run."""

    def __init__(self) -> None:
        self._memo: dict = {}

    def _memo_of(self, find, p: int, edges, kind: str):
        key = (find, p, tuple(edges), kind)
        if key not in self._memo:
            self._memo[key] = find(p, edges, kind)
        return self._memo[key]

    def spectrum(self, p: int, edges, kind: str) -> list[int]:
        # brute force enumerates P(p+q, p) vertex labelings for EM and p! for SEM
        small = p + len(edges) <= 9 if kind == "em" else p <= 8
        return self._memo_of(ck.brute_spectrum if small else ck.exact_spectrum, p, edges, kind)

    def least(self, p: int, edges, kind: str) -> int | None:
        return self._memo_of(ck.least_valence, p, edges, kind)


def _warm(pool: list[Query], *labels: str) -> None:
    for q in pool:
        q.warm = q.label in labels


def random_tree(rng: random.Random, p: int) -> tuple[tuple[int, int], ...]:
    return tuple((rng.randint(1, v - 1), v) for v in range(2, p + 1))


def random_bipartite(rng: random.Random, s: int, t: int, q: int) -> tuple[tuple[int, int], ...]:
    """A connected simple bipartite graph with sides 1..s and s+1..s+t."""
    pairs = [(x, y) for x in range(1, s + 1) for y in range(s + 1, s + t + 1)]
    while True:
        edges = sorted(rng.sample(pairs, q))
        seen, todo = {1}, [1]
        while todo:
            u = todo.pop()
            for a, b in edges:
                w = b if a == u else a if b == u else 0
                if w and w not in seen:
                    seen.add(w)
                    todo.append(w)
        if len(seen) == s + t:
            return tuple(edges)


def star_loop(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    return n + 1, tuple((1, k + 1) for k in range(1, n + 1)) + ((1, 1),)


def complete_bipartite(s: int, t: int):
    return s + t, tuple((i, s + j) for i in range(1, s + 1) for j in range(1, t + 1))


def cycle(m: int):
    return m, tuple((i, i % m + 1) for i in range(1, m + 1))


PATH3 = (3, ((1, 2), (2, 3)))
PATH4 = (4, ((1, 2), (2, 3), (3, 4)))
STAR3 = complete_bipartite(1, 3)
CYCLE4 = cycle(4)


# -- spectrum -------------------------------------------------------------

def _spectrum_query(api, refs: Refs, label: str, p: int, edges) -> Query:
    G = api.Graph(p, edges)

    def run():
        return api.em_spectrum(G), api.sem_spectrum(G)

    def check(out):
        em_rep, sem_rep = out
        ck.check_spectrum(p, edges, "em", em_rep, refs.spectrum(p, edges, "em"))
        ck.check_spectrum(p, edges, "sem", sem_rep, refs.spectrum(p, edges, "sem"))
        require(set(sem_rep.achieved) <= set(em_rep.achieved), "SEM spectrum not inside the EM spectrum")

    return Query(label, run, check)


def _obstruction_query(api, refs: Refs, label: str, base, part1: frozenset, n: int, drop: int | None) -> Query:
    """obstruction_report on the doubling of base, or on the doubling with
    cross edge number drop removed (a one-edge perturbation)."""
    p, edges = base
    q = len(edges)
    part2 = frozenset(range(1, q + 1)) - part1
    ps, star_edges, roles = ck.doubling(p, edges, part1, n)
    if drop is not None:
        star_edges = star_edges[:q + drop] + star_edges[q + drop + 1:]
        # the dropped cross edge leaves its split part at copy level 1
        i = drop + 1
        part1, part2 = part1 - {i}, part2 - {i}
    G, Gs = api.Graph(p, edges), api.Graph(ps, tuple(star_edges))

    def run():
        return api.obstruction_report(Gs, roles, G, n)

    def check(rep):
        base_counts = (len(refs.spectrum(p, edges, "em")), len(refs.spectrum(p, edges, "sem")))
        star_counts = (len(refs.spectrum(ps, star_edges, "em")), len(refs.spectrum(ps, star_edges, "sem")))
        ck.check_obstruction(rep, n, (p, edges), part1, part2, base_counts, star_counts,
                             true_doubling=drop is None)

    return Query(label, run, check)


def build_spectrum(api, rng: random.Random, refs: Refs, workdir: str) -> list[Query]:
    pool = []
    fixed = {
        "C7": cycle(7), "C8": cycle(8), "K2,4": complete_bipartite(2, 4), "K3,3": complete_bipartite(3, 3),
        "crown(4,1)": ck.crown(4, 1), "K1,5+loop": star_loop(5),
        "spider(2,2,2)": (7, ((1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7))),
        "double-star(3,3)": (7, ((1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (2, 7))),
    }
    # fixed graphs keep their edge order: it sets the order in which forced
    # edge labels are tested, and a shuffle moved C8's cost by a third
    for name, (p, edges) in fixed.items():
        pool.append(_spectrum_query(api, refs, name, p, edges))
    pool.append(_spectrum_query(api, refs, "bip(3,3,8)", 6, random_bipartite(rng, 3, 3, 8)))
    pool.append(_spectrum_query(api, refs, "bip(3,3,7)", 6, random_bipartite(rng, 3, 3, 7)))
    single = lambda q: frozenset({rng.randint(1, q)})  # noqa: E731
    pool.append(_obstruction_query(api, refs, "S2(P3,2)", PATH3, single(2), 2, None))
    pool.append(_obstruction_query(api, refs, "S2(C4,1)", CYCLE4, single(4), 1, None))
    pool.append(_obstruction_query(api, refs, "S2(K1,3,1)", STAR3, single(3), 1, None))
    # Perturbations: on C4 drop the first part's own cross edge; on K1,3 drop
    # one of the other two.  Each choice keeps the query in one cost class.
    part = single(4)
    pool.append(_obstruction_query(api, refs, "S2(C4,1)-e", CYCLE4, part, 1, min(part) - 1))
    part = single(3)
    drop = rng.choice(sorted(frozenset(range(3)) - {min(part) - 1}))
    pool.append(_obstruction_query(api, refs, "S2(K1,3,1)-e", STAR3, part, 1, drop))
    _warm(pool, "K1,5+loop", "S2(K1,3,1)")
    return pool


# -- first_hit ------------------------------------------------------------

FIRST_CAP = 26


def _first_query(api, refs: Refs, label: str, kind: str, p: int, edges) -> Query:
    G = api.Graph(p, edges)
    fn = "first_em_labeling" if kind == "em" else "first_sem_labeling"

    def run():
        return getattr(api, fn)(G, cap=FIRST_CAP)

    def check(hit):
        ck.check_first(p, edges, kind, hit, refs.least(p, edges, kind))

    return Query(label, run, check)


def relabeled(rng: random.Random, p: int, edges):
    perm = list(range(1, p + 1))
    rng.shuffle(perm)
    return tuple((perm[u - 1], perm[v - 1]) for u, v in edges)


def build_first_hit(api, rng: random.Random, refs: Refs, workdir: str) -> list[Query]:
    """Fifteen first-hit queries in three cost classes (at reference speed):
    seven at 20-45 ms, the two K2,5 queries at 78-87 ms where the median
    falls, and six at 100-360 ms.  Relabeling a complete
    bipartite graph leaves the search tree unchanged, so those copies vary
    the input without moving its cost; relabeled crowns can cost 5x more
    and are not used."""
    pool = []
    k25, k26, k27, k35 = (complete_bipartite(*st) for st in ((2, 5), (2, 6), (2, 7), (3, 5)))
    fixed = [
        ("em", "crown(5,1)", ck.crown(5, 1)), ("em", "crown(3,3)", ck.crown(3, 3)),
        ("em", "crown(4,2)", ck.crown(4, 2)), ("em", "K2,5", k25),
        ("em", "K2,5+pendant", (8, k25[1] + ((3, 8),))),
        ("sem", "K3,5", k35), ("sem", "K2,6", k26), ("sem", "K2,7", k27),
    ]
    for kind, name, (p, edges) in fixed:
        pool.append(_first_query(api, refs, f"{kind}:{name}", kind, p, edges))
    for kind, name, (p, edges) in [("em", "K2,5", k25), ("sem", "K3,5", k35), ("sem", "K2,7", k27)]:
        pool.append(_first_query(api, refs, f"{kind}:{name} relabeled", kind, p, relabeled(rng, p, edges)))
    for i in range(2):
        edges = random_bipartite(rng, 2, 6, 10)
        pool.append(_first_query(api, refs, f"em:bip(2,6,10)#{i}", "em", 8, edges))
        pool.append(_first_query(api, refs, f"sem:bip(2,6,10)#{i}", "sem", 8, edges))
    _warm(pool, "em:crown(3,3)", "sem:K2,6")
    return pool


# -- construct ------------------------------------------------------------

def _oriented(rng: random.Random, edges) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) if rng.random() < 0.5 else (v, u) for u, v in edges)


def _cycle_variant(rng: random.Random, m: int, vl, el) -> tuple[tuple, tuple, tuple]:
    """An automorphic image of a labeling of the cycle 1..m, randomly oriented.

    Vertex v takes the label of sigma(v) for a seeded rotation or
    reflection sigma, and edge {u, v} the label of {sigma(u), sigma(v)};
    the valence, edge count and vertex label set are unchanged, so the
    variant shares the product key of the original.
    """
    s, flip = rng.randrange(m), rng.random() < 0.5
    sigma = [0] + [((-(v - 1) if flip else v - 1) + s) % m + 1 for v in range(1, m + 1)]
    edges = [(i, i % m + 1) for i in range(1, m + 1)]
    pos = {frozenset(e): i for i, e in enumerate(edges)}
    nvl = tuple(vl[sigma[v] - 1] for v in range(1, m + 1))
    nel = tuple(el[pos[frozenset((sigma[u], sigma[v]))]] for u, v in edges)
    return _oriented(rng, edges), nvl, nel


def _labeled(api, arcs, vl, el):
    return api.LabeledDigraph(api.Digraph(len(vl), tuple(arcs)), api.TotalLabeling(vl, el))


def _check_product(ind, outer_arcs, members, valence: int, sem: bool) -> None:
    """Kronecker arcs, a bijective labeling and the closed-form valence."""
    arcs = ck.kronecker(outer_arcs, members)
    require(Counter(ind.product.arcs) == arcs, "product arcs differ from the Kronecker multiset")
    vl, el = ck.labels_of(ind.labeling)
    k = ck.magic_valence(ind.product.p, ind.product.arcs, vl, el, sem=sem)
    require(k == ind.valence == valence, f"product valence {k}/{ind.valence} != closed form {valence}")


def _sem_product_query(api, rng, label, outer, members) -> Query:
    """An EM outer digraph composed with SEM members of one key, mixed per arc."""
    o_arcs, o_vl, o_el = outer
    pick = [members[rng.randrange(len(members))] for _ in o_arcs]
    O = _labeled(api, o_arcs, o_vl, o_el)
    A = api.ArcAssignment(tuple(_labeled(api, *m) for m in pick))
    p_o = len(o_vl)
    v = ck.magic_valence(p_o, o_arcs, o_vl, o_el)
    m_arcs, m_vl, _ = pick[0]
    valence = ck.sem_product_valence(len(m_vl), v, ck.min_sum(m_arcs, m_vl))
    outer_sem = sorted(o_vl) == list(range(1, p_o + 1))

    def run():
        return api.induced_labeling_from_sem_factors(O, A)

    def check(ind):
        _check_product(ind, o_arcs, [(a, vl) for a, vl, _ in pick], valence, outer_sem)

    return Query(label, run, check)


def _em_product_query(api, rng, label, outer, members) -> Query:
    """An SEM outer digraph (arcs = vertices) composed with EM members of one key."""
    o_arcs, o_vl, o_el = outer
    pick = [members[rng.randrange(len(members))] for _ in o_arcs]
    O = _labeled(api, o_arcs, o_vl, o_el)
    A = api.ArcAssignment(tuple(_labeled(api, *m) for m in pick))
    m_arcs, m_vl, m_el = pick[0]
    sigma = ck.magic_valence(len(m_vl), m_arcs, m_vl, m_el)
    s_max = max(o_vl[u - 1] + o_vl[v - 1] for u, v in o_arcs)
    valence = ck.em_product_valence(len(m_vl), len(m_arcs), s_max, sigma)

    def run():
        return api.induced_labeling_from_em_factors(O, A)

    def check(ind):
        _check_product(ind, o_arcs, [(a, vl) for a, vl, _ in pick], valence, False)

    return Query(label, run, check)


def _crown_query(api, label, m: int, n: int, witnesses) -> Query:
    p, edges = ck.crown(m, n)
    cm, cedges = cycle(m)
    valences = [ck.magic_valence(cm, cedges, *ck.labels_of(f)) for f in witnesses]
    expect = ck.crown_valences(m, n, valences, (1, n + 1))
    lo, hi = ck.int_window(p, edges, "em")

    def run():
        return api.star_product_valences(m, n, witnesses)

    def check(found):
        require(set(found) == expect, f"crown({m},{n}) valences differ from the closed forms")
        for k, f in found.items():
            require(ck.magic_valence(p, edges, *ck.labels_of(f)) == k, f"crown({m},{n}) labeling for {k}")
            require(lo <= k <= hi, f"crown valence {k} outside {lo}..{hi}")

    return Query(label, run, check)


def _s2n_labeling_query(api, label, base, n: int, f) -> Query:
    """induced_s2n_labeling for every split of base and every star center."""
    p, edges = base
    G = api.Graph(p, edges)
    bip = api.bipartition(G)
    vl, el = ck.labels_of(f)
    v = ck.magic_valence(p, edges, vl, el)
    sem = sorted(vl) == list(range(1, p + 1))

    def run():
        out = []
        for d in api.enumerate_2_decompositions(G):
            for r in range(1, n + 2):
                out.append((d.part1, r, api.induced_s2n_labeling(G, bip, d, n, f, r)))
        return out

    def check(out):
        q = len(edges)
        require(len(out) == (2 ** q - 2) * (n + 1), "not every split and center was labeled")
        require(sorted(bip.X) == sorted(ck.bipartite_sides(p, edges)[0]), "bipartition sides")
        for part1, r, (s, lab, val) in out:
            ps, dedges, _ = ck.doubling(p, edges, part1, n)
            require(s.graph.p == ps, "doubling vertex count")
            ck.same_edges(s.graph.edges, dedges, "doubling")
            require(val == ck.doubling_valence(n, v, r), f"doubling valence {val}")
            require(ck.magic_valence(ps, dedges, *ck.labels_of(lab), sem=sem) == val, "doubling labeling")

    return Query(label, run, check)


def _s2n_iso_query(api, label, base, n: int) -> Query:
    """verify_s2n_iso over every split of base."""
    p, edges = base
    G = api.Graph(p, edges)
    bip = api.bipartition(G)
    q = len(edges)

    def run():
        return [(d.part1, d.part2, api.verify_s2n_iso(G, bip, d, n)) for d in api.enumerate_2_decompositions(G)]

    def check(out):
        full = frozenset(range(1, q + 1))
        require(len({a for a, _, _ in out}) == len(out) == 2 ** q - 2, "split count")
        for a, b, ok in out:
            require(a and b and a | b == full and not a & b, "not a split")
            require(ok is True, f"doubling of split {sorted(a)} is not the star composition")

    return Query(label, run, check)


# SEM unicyclic graphs on five vertices (loops allowed): members of one key
# (5, k) for the SEM-factor product are drawn from their witnesses.
UNICYCLIC5 = [
    star_loop(4)[1],
    ((1, 2), (2, 3), (3, 1), (1, 4), (1, 5)),
    ((1, 2), (2, 3), (3, 1), (1, 4), (2, 5)),
    ((1, 2), (2, 3), (3, 4), (4, 5), (1, 1)),
    ((1, 2), (2, 3), (3, 4), (4, 5), (3, 3)),
    ((1, 2), (1, 3), (1, 4), (4, 5), (1, 1)),
    cycle(5)[1],
]


def _sem_members(api, rng: random.Random) -> list[tuple]:
    """The largest group of SEM labeled, randomly oriented UNICYCLIC5 graphs
    sharing one product key (5, least endpoint sum), from the program's
    sem_spectrum witnesses."""
    by_key: dict = {}
    for edges in UNICYCLIC5:
        for f in api.sem_spectrum(api.Graph(5, edges)).witnesses.values():
            vl, el = ck.labels_of(f)
            by_key.setdefault(ck.min_sum(edges, vl), []).append((_oriented(rng, edges), vl, el))
    return max(by_key.values(), key=len)


def _cycle_images(rng: random.Random, witnesses, count: int) -> list[tuple]:
    """count automorphic images of one seeded cycle labeling: EM members of one key."""
    f = witnesses[rng.randrange(len(witnesses))]
    return [_cycle_variant(rng, len(f.vertex_labels), *ck.labels_of(f)) for _ in range(count)]


def build_construct(api, rng: random.Random, refs: Refs, workdir: str) -> list[Query]:
    pool = []
    # set-up witnesses, found by the program's own search
    cyc = {m: list(api.em_spectrum(api.mk_cycle(m)).witnesses.values()) for m in (3, 4, 5, 6)}
    sem_members = _sem_members(api, rng)

    # fixed sizes: n moves the cost by a third per pendant, and the median
    # of the pool must not move with the seed
    for m, n in ((3, 5), (4, 3), (5, 2), (6, 2)):
        pool.append(_crown_query(api, f"crown({m},{n})", m, n, cyc[m]))

    # SEM outer with arcs = vertices; EM members: automorphic images of C5 labelings
    def star_outer(n):
        star = api.star_loop_labeling(n, rng.randint(1, n + 1))
        return (_oriented(rng, star.digraph.arcs), *ck.labels_of(star.labeling))

    for i in range(3):
        pool.append(_em_product_query(api, rng, f"em-factors#{i}", star_outer(150), _cycle_images(rng, cyc[5], 6)))

    # EM outer: a product built at set-up; SEM members of one key, mixed per arc
    for i in range(3):
        members = _cycle_images(rng, cyc[5], 6)
        big = api.induced_labeling_from_em_factors(
            _labeled(api, *star_outer(40)),
            api.ArcAssignment(tuple(_labeled(api, *members[rng.randrange(6)]) for _ in range(41))))
        outer = (big.product.arcs, *ck.labels_of(big.labeling))
        pool.append(_sem_product_query(api, rng, f"sem-factors#{i}", outer, sem_members))

    bases = {"P4": PATH4, "K1,3": STAR3, "C4": CYCLE4}
    for name, base in bases.items():
        ws = list(api.em_spectrum(api.Graph(*base)).witnesses.values())
        pool.append(_s2n_labeling_query(api, f"s2n-labelings({name})", base, 2, ws[rng.randrange(len(ws))]))
    for name, base in (("K2,3", complete_bipartite(2, 3)), ("C6", cycle(6))):
        pool.append(_s2n_iso_query(api, f"s2n-iso({name})", base, 1))
    _warm(pool, *(q.label for q in pool))
    return pool


# -- cli ------------------------------------------------------------------

@dataclass
class CliResult:
    code: int
    out: str
    err: str

    @property
    def cert_bytes(self) -> int:
        lines = self.out.splitlines()
        return len(lines[-1].encode()) if lines else 0


def _graph_text(p: int, edges, directive: str = "e") -> str:
    return "".join([f"p {p}\n"] + [f"{directive} {u} {v}\n" for u, v in edges])


def _labeling_text(vl, el) -> str:
    return "".join([f"v {i} {x}\n" for i, x in enumerate(vl, 1)] + [f"e {i} {x}\n" for i, x in enumerate(el, 1)])


def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _parse_pairs(text: str, directive: str) -> tuple[int, list[tuple[int, int]]]:
    p, pairs = 0, []
    for line in text.splitlines():
        head, *rest = line.split()
        if head == "p":
            p = int(rest[0])
        else:
            require(head == directive, f"unexpected line {line!r}")
            pairs.append((int(rest[0]), int(rest[1])))
    return p, pairs


class CliPool:
    """Files written at set-up and the queries that run the CLI on them."""

    def __init__(self, api, workdir: str) -> None:
        self.api = api
        self.dir = workdir
        self.pool: list[Query] = []

    def file(self, name: str, text: str) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def add(self, label: str, argv: list[str], inputs: dict[str, str], code: int, check_result) -> None:
        """Run main(argv); expect exit code and, for codes 0 and 1, a verified
        certificate whose digests match the named input files."""
        cli = self.api.cli

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            return CliResult(rc, out.getvalue(), err.getvalue())

        def check(res: CliResult):
            require(res.code == code, f"{label}: exit {res.code}, expected {code}: {res.err.strip()}")
            if code == 2:
                lines = res.err.splitlines()
                require(res.out == "" and len(lines) == 1 and lines[0].startswith("error: "),
                        f"{label}: a refusal prints one error line and no certificate")
                return
            lines = res.out.splitlines()
            cert = json.loads(lines[-1])
            require(set(cert) == {"command", "inputs", "result", "verified"}, "certificate keys")
            require(cert["command"] == " ".join(["edgemagic", *argv]), "command echo")
            require(cert["inputs"] == {k: _sha(v) for k, v in inputs.items()}, "input digests")
            require(cert["verified"] is True, f"{label}: certificate not verified")
            check_result(cert["result"], lines[:-1])

        self.pool.append(Query(label, run, check))


def _interval_payload(p: int, edges, kind: str) -> dict:
    lo, hi = ck.window(p, edges, kind)
    return {"lo": math.ceil(lo), "hi": math.floor(hi), "raw_min": str(lo), "raw_max": str(hi)}


def _product_query(c: CliPool, rng: random.Random, mode: str, outer, members, valence: int) -> None:
    """product --mode MODE on a combined outer file, one file per member and
    a seeded --assign file; checked against the Kronecker arcs and the
    closed-form valence."""
    p, arcs, vl, el = outer
    d = c.file(f"{mode}-outer.d", _graph_text(p, arcs, "a") + _labeling_text(vl, el))
    files = [c.file(f"{mode}-member{t}.d", _graph_text(len(mvl), ma, "a") + _labeling_text(mvl, mel))
             for t, (ma, mvl, mel) in enumerate(members, 1)]
    picks = [rng.randrange(len(members)) for _ in arcs]
    assign = c.file(f"{mode}.assign", "".join(f"{t} {m + 1}\n" for t, m in enumerate(picks, 1)))
    chosen = [members[m][:2] for m in picks]

    def product_ok(res, head):
        pp, parcs = _parse_pairs(res["digraph"], "a")
        require(Counter(parcs) == ck.kronecker(arcs, chosen), "product arcs differ from the Kronecker multiset")
        lab = res["labeling"]
        got = ck.magic_valence(pp, parcs, lab["vertex_labels"], lab["edge_labels"])
        require(got == res["predicted_valence"] == res["verified_valence"] == valence, "product valence")
        require(res["super"] == (sorted(lab["vertex_labels"]) == list(range(1, pp + 1))), "super flag")

    argv = ["product", "--mode", mode, "--d", d]
    for f in files:
        argv += ["--member", f]
    inputs = {"d": d, **{f"member{t}": f for t, f in enumerate(files, 1)}, "assign": assign}
    c.add(f"product-{mode}", argv + ["--assign", assign], inputs, 0, product_ok)


def build_cli(api, rng: random.Random, refs: Refs, workdir: str) -> list[Query]:
    import edgemagic.cli  # noqa: F401  (the cli module is not imported by the package)

    c = CliPool(api, workdir)
    cyc5 = list(api.em_spectrum(api.mk_cycle(5)).witnesses.values())
    sem_members = _sem_members(api, rng)

    # a large EM labeled graph: a star with loop composed with C5 images
    n = 120
    star = api.star_loop_labeling(n, rng.randint(1, n + 1))
    members = _cycle_images(rng, cyc5, 4)
    big = api.induced_labeling_from_em_factors(
        star, api.ArcAssignment(tuple(_labeled(api, *members[rng.randrange(4)]) for _ in range(n + 1))))
    bp, bedges = big.product.p, big.product.arcs
    bvl, bel = ck.labels_of(big.labeling)
    bk = ck.magic_valence(bp, bedges, bvl, bel)
    g_big = c.file("big.g", _graph_text(bp, bedges))
    l_big = c.file("big.lab", _labeling_text(bvl, bel))
    i, j = rng.sample(range(len(bel)), 2)
    broken = list(bel)
    broken[i], broken[j] = broken[j], broken[i]
    l_broken = c.file("broken.lab", _labeling_text(bvl, broken))

    def verify_ok(res, head):
        require(head == [f"valence {bk}"] and res == {"kind": "em", "magic": True, "valence": bk}, "verify")

    def verify_not(res, head):
        require(head == ["not magic"] and res == {"kind": "em", "magic": False}, "verify of a broken labeling")

    c.add("verify", ["verify", g_big, l_big], {"graphfile": g_big, "labelingfile": l_big}, 0, verify_ok)
    c.add("verify-not-magic", ["verify", g_big, l_broken], {"graphfile": g_big, "labelingfile": l_broken}, 1,
          verify_not)

    for kind in ("em", "sem"):
        def interval_ok(res, head, want=_interval_payload(bp, bedges, kind)):
            require(res == want, "interval payload")

        c.add(f"interval-{kind}", ["interval", "--kind", kind, g_big], {"graphfile": g_big}, 0, interval_ok)

    # spectrum of a seeded small tree, checked against brute force
    for kind in ("em", "sem"):
        tp = 5
        tedges = random_tree(rng, tp)
        # the star K1,4 costs twice the other 5-vertex trees and would move the p90
        while max(ck.degrees(tp, tedges)) > 3:
            tedges = random_tree(rng, tp)
        g_t = c.file(f"tree-{kind}.g", _graph_text(tp, tedges))
        wit = os.path.join(workdir, f"wit-{kind}.json")

        def spectrum_ok(res, head, kind=kind, tedges=tedges, wit=wit):
            expect = refs.spectrum(tp, tedges, kind)
            want = _interval_payload(tp, tedges, kind)
            require(res["achieved"] == expect, f"spectrum {res['achieved']} != checker's {expect}")
            require(res["interval"] == want, "spectrum interval")
            require(res["perfect"] == (len(expect) == max(0, want["hi"] - want["lo"] + 1)), "perfect")
            with open(wit, encoding="utf-8") as fh:
                ws = json.load(fh)
            require(sorted(int(k) for k in ws) == expect, "witness file keys")
            for k, w in ws.items():
                got = ck.magic_valence(tp, tedges, w["vertex_labels"], w["edge_labels"], sem=(kind == "sem"))
                require(got == int(k), "witness file labeling")

        c.add(f"spectrum-{kind}", ["spectrum", "--kind", kind, "--witnesses", wit, g_t], {"graphfile": g_t}, 0,
              spectrum_ok)

    # product spk: EM outer (an oriented crown labeling) with mixed SEM members
    crowns = api.star_product_valences(4, 6, list(api.CYCLE4_EM_LABELINGS))
    k = rng.choice(sorted(crowns))
    cp, cedges = ck.crown(4, 6)
    outer = (cp, _oriented(rng, cedges), *ck.labels_of(crowns[k]))
    m_arcs, m_vl, _ = sem_members[0]
    _product_query(c, rng, "spk", outer, sem_members[:3], ck.sem_product_valence(5, k, ck.min_sum(m_arcs, m_vl)))

    # product tq: SEM outer (star with loop) with mixed automorphic C5 members
    tn = 30
    tstar = api.star_loop_labeling(tn, rng.randint(1, tn + 1))
    t_arcs = _oriented(rng, tstar.digraph.arcs)
    t_vl, t_el = ck.labels_of(tstar.labeling)
    s_max = max(t_vl[u - 1] + t_vl[v - 1] for u, v in t_arcs)
    tq_val = ck.em_product_valence(5, 5, s_max, ck.magic_valence(5, *members[0]))
    _product_query(c, rng, "tq", (tn + 1, t_arcs, t_vl, t_el), members[:3], tq_val)

    # s2n with an induced labeling: a seeded split of K2,3 lifted at n = 3
    sp, sedges = complete_bipartite(2, 3)
    sw = list(api.em_spectrum(api.Graph(sp, sedges)).witnesses.values())
    svl, sel = ck.labels_of(sw[rng.randrange(len(sw))])
    sv = ck.magic_valence(sp, sedges, svl, sel)
    part1 = frozenset(rng.sample(range(1, 7), rng.randint(1, 5)))
    sn, center = 3, rng.randint(1, 4)
    g_s = c.file("k23.g", _graph_text(sp, sedges))
    l_s = c.file("k23.lab", _labeling_text(svl, sel))

    def s2n_ok(res, head):
        ps, dedges, roles = ck.doubling(sp, sedges, part1, sn)
        p, edges = _parse_pairs(res["graph"], "e")
        require(p == ps, "doubling vertex count")
        ck.same_edges(edges, dedges, "s2n graph")
        require([tuple(r) for r in res["roles"]] == roles, "s2n roles")
        require(res["iso_verified"] is True, "s2n iso")
        val = ck.doubling_valence(sn, sv, center)
        lab = res["labeling"]
        require(ck.magic_valence(ps, dedges, lab["vertex_labels"], lab["edge_labels"]) == res["valence"] == val,
                "s2n valence")

    c.add("s2n", ["s2n", "--graph", g_s, "--h1", ",".join(map(str, sorted(part1))), "--n", str(sn),
                  "--labeling", l_s, "--center", str(center)], {"graph": g_s, "labeling": l_s}, 0, s2n_ok)

    # decompose --enumerate over every split of a seeded 6-edge bipartite graph
    dp, dedges0 = 6, random_bipartite(rng, 3, 3, 6)
    g_d = c.file("dec.g", _graph_text(dp, dedges0))

    def decompose_ok(res, head):
        q = len(dedges0)
        rows = [json.loads(line) for line in head]
        require(len(rows) == 2 ** q - 2 and len({tuple(r["part1"]) for r in rows}) == len(rows), "split rows")
        for r in rows:
            require(sorted(r["part1"] + r["part2"]) == list(range(1, q + 1)) and r["iso_verified"] is True,
                    "split row")
        require(res == {"splits": 2 ** q - 2, "verified_splits": 2 ** q - 2, "n": 2}, "decompose summary")

    c.add("decompose", ["decompose", "--graph", g_d, "--enumerate", "--n", "2"], {"graph": g_d}, 0, decompose_ok)

    # repro examples, checked against brute force and the closed forms
    def c4_spectrum_ok(res, head):
        p, edges = cycle(4)
        require(res["achieved"] == refs.spectrum(p, edges, "em") == [12, 13, 14, 15], "C4 spectrum")
        require(res["interval"] == _interval_payload(p, edges, "em"), "C4 window")

    def c4_crown_ok(res, head):
        p, edges = ck.crown(4, 2)
        expect = sorted(ck.crown_valences(4, 2, refs.spectrum(*cycle(4), "em"), (1, 3)))
        require(res["valences"] == expect == list(range(28, 48)) and res["count"] == 20, "crown(4,2) valences")
        require((res["interval"]["lo"], res["interval"]["hi"]) == ck.int_window(p, edges, "em") == (28, 47),
                "crown(4,2) window")

    def k1nl_ok(res, head):
        require([row["n"] for row in res["cases"]] == list(range(1, 7)), "k1nl cases")
        for row in res["cases"]:
            p, edges = star_loop(row["n"])
            lo, hi = ck.int_window(p, edges, "sem")
            expect = refs.spectrum(p, edges, "sem")
            require(row["achieved"] == expect == list(range(lo, hi + 1)) and row["perfect"] is True,
                    f"K1,{row['n']}+loop is not perfect")

    for ex, ok in (("c4-spectrum", c4_spectrum_ok), ("c4-crown-20", c4_crown_ok), ("k1nl-perfect", k1nl_ok)):
        c.add(f"repro {ex}", ["repro", ex], {}, 0, ok)

    # unusable inputs: a bad line near the end of a large file, and a graph over the cap
    lines = _graph_text(bp, bedges).splitlines(keepends=True)
    at = len(lines) - rng.randint(2, 20)
    lines[at] = "e 1 x\n"
    g_bad = c.file("bad.g", "".join(lines))
    c.add("refuse-parse", ["verify", g_bad, l_big], {}, 2, None)
    c.add("refuse-cap", ["spectrum", "--kind", "em", g_big], {}, 2, None)
    _warm(c.pool, *(q.label for q in c.pool))
    return c.pool
