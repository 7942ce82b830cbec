"""Ten end to end acceptance checks, each printing one PASS or FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines; every
check recomputes its claim from scratch and re-verifies any witness it
relies on.
"""
from __future__ import annotations

from time import perf_counter

from edgemagic import (
    ArcAssignment,
    CYCLE4_EM_LABELINGS,
    Decomposition,
    LabeledDigraph,
    bipartition,
    em_interval,
    em_spectrum,
    enumerate_2_decompositions,
    first_em_labeling,
    induced_labeling_from_em_factors,
    induced_labeling_from_sem_factors,
    induced_s2n_labeling,
    induced_sums,
    is_super_edge_magic,
    build_s2n,
    mk_complete_bipartite,
    mk_crown,
    mk_cycle,
    mk_star_with_loop,
    orient_cycle,
    sem_interval,
    sem_spectrum,
    star_loop_labeling,
    star_product_valences,
    trivial_valence_bounds,
    valence_count_floor,
    valence_of,
    verify_s2n_iso,
)
from naive import CORPUS, WIDE_CORPUS, naive_valences


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_cycle4_spectrum():
    t0 = perf_counter()
    G = mk_cycle(4)
    rep = em_spectrum(G)
    witnesses_ok = all(valence_of(G, w) == k for k, w in rep.witnesses.items())
    elapsed = perf_counter() - t0
    ok = list(rep.achieved) == [12, 13, 14, 15] and witnesses_ok and elapsed < 1.0
    _report(1, ok, f"edge magic valences of the 4-cycle are {list(rep.achieved)}, "
                   f"witnesses re-verified, {elapsed:.2f}s")


def test_criterion_02_looped_stars_are_perfect():
    t0 = perf_counter()
    ok = True
    sizes = []
    for n in range(1, 7):
        G = mk_star_with_loop(n)
        rep = sem_spectrum(G)
        interval = sem_interval(G)
        good = (
            list(rep.achieved) == list(interval.values())
            and len(rep.achieved) == n + 1
            and all(is_super_edge_magic(G, w) == k for k, w in rep.witnesses.items())
        )
        sizes.append(len(rep.achieved))
        ok = ok and good
    elapsed = perf_counter() - t0
    ok = ok and elapsed < 5.0
    _report(2, ok, f"searched super edge magic spectra of looped stars n=1..6 equal "
                   f"their intervals, sizes {sizes}, {elapsed:.2f}s")


def test_criterion_03_crown_interval():
    rep = em_interval(mk_crown(4, 2))
    ok = (rep.lo, rep.hi) == (28, 47)
    _report(3, ok, f"edge magic interval of the 2-pendant 4-crown is [{rep.lo}, {rep.hi}]")


def test_criterion_04_crown_pipeline_covers_the_interval():
    t0 = perf_counter()
    crown = mk_crown(4, 2)
    table = star_product_valences(4, 2, CYCLE4_EM_LABELINGS)
    verified = all(valence_of(crown, lab) == k for k, lab in table.items())
    elapsed = perf_counter() - t0
    ok = sorted(table) == list(range(28, 48)) and verified and elapsed < 5.0
    _report(4, ok, f"product pipeline reaches {len(table)} distinct verified valences "
                   f"covering [28, 47] without search, {elapsed:.2f}s")


def test_criterion_05_product_valence_formulas():
    checked = 0
    ok = True
    c4 = mk_cycle(4)
    for L in CYCLE4_EM_LABELINGS:
        outer = LabeledDigraph(orient_cycle(4), L)
        v = valence_of(c4, L)
        for n in (1, 2, 3):
            for r in range(1, n + 2):
                star = star_loop_labeling(n, r)
                ind = induced_labeling_from_sem_factors(
                    outer, ArcAssignment.constant(star, 4)
                )
                pm, k = n + 1, r + 1
                expected = pm * (v - 3) + k + pm
                good = ind.valence == expected == valence_of(ind.product, ind.labeling)
                ok = ok and good
                checked += 1
    for L in CYCLE4_EM_LABELINGS:
        member = LabeledDigraph(orient_cycle(4), L)
        v = valence_of(c4, L)
        for n in (1, 2):
            for r in range(1, n + 2):
                star = star_loop_labeling(n, r)
                ind = induced_labeling_from_em_factors(
                    star, ArcAssignment.constant(member, n + 1)
                )
                kmin = min(induced_sums(star.digraph, star.labeling.vertex_labels))
                expected = (4 + 4) * (kmin + (n + 1) - 3) + v
                good = ind.valence == expected == valence_of(ind.product, ind.labeling)
                ok = ok and good
                checked += 1
    ok = ok and checked >= 50
    _report(5, ok, f"both closed form valence formulas agreed on {checked} product "
                   f"instances with zero tolerance")


def test_criterion_06_count_floors():
    achieved = (12, 13, 14, 15)
    c4 = mk_cycle(4)
    table = star_product_valences(4, 2, CYCLE4_EM_LABELINGS)
    base_floor = (2 + 1) * len(achieved) + 2
    spread_ok = (max(achieved) - min(achieved)) < (min(achieved) - (8 + 2)) * 2
    strong_floor = valence_count_floor(c4, 2, achieved)
    ok = (
        len(table) >= base_floor == 14
        and spread_ok
        and strong_floor == (2 + 3) * len(achieved) == 20
        and len(table) >= strong_floor
    )
    _report(6, ok, f"reached {len(table)} valences against floors {base_floor} and "
                   f"{strong_floor}, spread condition 3 < 4 holds")


def test_criterion_07_doubling_correctness():
    t0 = perf_counter()
    suite = (
        mk_cycle(4),
        mk_cycle(6),
        mk_complete_bipartite(2, 3),
        mk_complete_bipartite(3, 3),
    )
    checked = 0
    ok = True
    for G in suite:
        bip = bipartition(G)
        v, f = first_em_labeling(G)
        for d in enumerate_2_decompositions(G):
            for n in (1, 2, 3):
                iso = verify_s2n_iso(G, bip, d, n)
                s, lab, val = induced_s2n_labeling(G, bip, d, n, f, 1)
                good = (
                    iso
                    and val == (n + 1) * (v - 2) + 2
                    and valence_of(s.graph, lab) == val
                )
                ok = ok and good
                checked += 1
    elapsed = perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(7, ok, f"{checked} doubling cases: isomorphism verified and induced "
                   f"labelings carry the predicted valence, {elapsed:.2f}s")


def test_criterion_08_doubling_count_bounds():
    G = mk_cycle(4)
    bip = bipartition(G)
    d = Decomposition(G, frozenset({1, 3}))
    s = build_s2n(G, bip, d, 1)
    base_em = len(em_spectrum(G).achieved)
    base_sem = len(sem_spectrum(G).achieved)
    star_em = len(em_spectrum(s.graph).achieved)
    star_sem = len(sem_spectrum(s.graph).achieved)
    ok = star_sem >= 2 * base_sem and star_em >= 2 * base_em + 2 == 10
    _report(8, ok, f"doubled 4-cycle reaches {star_em} edge magic valences "
                   f"(bound 10) and {star_sem} super ones (bound {2 * base_sem})")


def test_criterion_09_universal_spectrum_invariants():
    violations = []
    for name, G in WIDE_CORPUS.items():
        has_loop = any(u == v for u, v in G.edges)
        degrees = G.degrees()
        plain = not has_loop and G.q > 0 and min(degrees) >= 1
        for kind in ("em", "sem"):
            rep = (em_spectrum if kind == "em" else sem_spectrum)(G)
            for k in rep.achieved:
                if k not in rep.interval:
                    violations.append(f"{name} {kind} {k} outside interval")
                if plain:
                    lo, hi = trivial_valence_bounds(G)
                    if not lo <= k <= hi:
                        violations.append(f"{name} {kind} {k} outside counting bounds")
            if kind == "em":
                mirror = {3 * (G.p + G.q + 1) - k for k in rep.achieved}
                if mirror != set(rep.achieved):
                    violations.append(f"{name} spectrum not complement symmetric")
    ok = not violations
    _report(9, ok, "interval containment, counting bounds and complement symmetry "
                   f"hold on all {len(WIDE_CORPUS)} corpus graphs"
                   + (f"; violations: {violations}" if violations else ""))


def test_criterion_10_oracle_equivalence():
    mismatches = []
    for name, G in CORPUS.items():
        if list(em_spectrum(G).achieved) != naive_valences(G, "em"):
            mismatches.append(f"{name} em")
        if list(sem_spectrum(G).achieved) != naive_valences(G, "sem"):
            mismatches.append(f"{name} sem")
    ok = not mismatches
    _report(10, ok, f"backtracking spectra equal naive enumeration on all "
                    f"{len(CORPUS)} small graphs"
                    + (f"; mismatches: {mismatches}" if mismatches else ""))
