"""Acceptance suite: one test and one report line per criterion.

Run with ``pytest tests/test_acceptance.py -v``; the PASS/FAIL lines appear
in the terminal summary.  Expected values come from closed forms or from
independent oracles (exhaustive enumeration, subset scans, brute-force path
search) computed inside the test, never from the engine under test.
"""

import time
from itertools import product
from math import comb

from monopath.bounds import run_inequality_suite
from monopath.colorings import (
    EdgeColoring,
    check_transitivity_witness,
    color_3uniform_lower,
    color_graph_lower,
    color_kuniform_lower,
    is_transitive,
    random_coloring,
)
from monopath.counting import (
    GridBox,
    count_box_partitions,
    count_downsets,
    count_rho,
    macmahon,
)
from monopath.paths import injectivity_certificate, longest_mono, validate_path
from monopath.search import SearchBudget, exact_ramsey
from monopath.universes import build_universe
from conftest import record
from helpers import brute_box_partitions, brute_ideal_masks, brute_longest, count_antichains

BIG = 200_000_000


def _report(num: int, ok: bool, detail: str, t0: float, cap: float) -> None:
    dt = time.perf_counter() - t0
    line = f"AC{num}: {'PASS' if ok and dt < cap else 'FAIL'} ({dt:.1f}s/{cap:.0f}s) {detail}"
    record(line)
    print(line)
    assert ok, line
    assert dt < cap, line


def test_ac1_exact_formula_agreement():
    t0 = time.perf_counter()
    ok = all(count_downsets(GridBox(n, 2)) == comb(2 * n, n) for n in range(1, 9))
    ok &= all(count_downsets(GridBox(n, 3)) == macmahon(n) for n in range(1, 5))
    # frontier DP vs exhaustive enumeration of the arrays themselves
    for n in (2, 3):
        brute = brute_box_partitions((n, n), n)
        ok &= count_box_partitions((n, n), n) == brute
        ok &= count_downsets(GridBox(n, 3)) == brute
    ok &= macmahon(2) == 20 and macmahon(3) == 980
    _report(1, ok, "binomial row n<=8, MacMahon n<=4, P2(2)=20, P2(3)=980", t0, 10.0)


def _local_downset_count(d: int) -> int:
    # independent subset scan over [2]^d, sharing nothing with the package
    points = list(product((0, 1), repeat=d))
    m = len(points)
    preds = [
        sum(1 << j for j in range(m) if j != i
            and all(a <= b for a, b in zip(points[j], points[i])))
        for i in range(m)
    ]
    count = 0
    for mask in range(1 << m):
        s = mask
        good = True
        while s:
            i = (s & -s).bit_length() - 1
            if preds[i] & ~mask:
                good = False
                break
            s &= s - 1
        count += good
    return count


def test_ac2_dedekind_cross_check():
    t0 = time.perf_counter()
    expected = {2: 6, 3: 20, 4: 168, 5: 7581, 6: 7828354}
    ok = True
    for d in (2, 3, 4):
        ok &= count_downsets(GridBox(2, d)) == _local_downset_count(d) == expected[d]
    for d in (5, 6):
        box = GridBox(2, d)
        ok &= count_downsets(box) == count_antichains(box) == expected[d]
    _report(2, ok, "down-sets of [2]^d equal antichain counts, d=2..6", t0, 60.0)


def _lower_maxima(q: int, n: int) -> dict[int, int]:
    """Per-color longest paths of the 3-uniform extremal coloring, which is
    dropped on return: the largest take a few hundred MB each."""
    col = color_3uniform_lower(q, n, budget=BIG)
    return longest_mono(col, want_witnesses=False, budget=BIG).per_color_max


def test_ac3_lower_construction_has_no_long_path():
    t0 = time.perf_counter()
    ok = True
    # (2, 6) and (3, 3) sit on 924 and 980 vertices, C(924, 3) and C(980, 3)
    # edges
    cases = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (2, 6), (3, 3)]
    for q, n in cases:
        ok &= all(v <= n - 1 for v in _lower_maxima(q, n).values())
    _report(3, ok, f"per-color maxima <= n-1 for (q, n) in {cases}", t0, 300.0)


def test_ac4_upper_direction_at_q2_n2():
    t0 = time.perf_counter()
    res = exact_ramsey(3, 2, 2)
    ok = res.status == "exact" and res.value == 7
    trials = 10_000
    for seed in range(trials):
        col = random_coloring(3, 2, 7, seed=seed)
        cert = injectivity_certificate(col, 2)
        if cert.status != "path" or not validate_path(col, cert.path):
            ok = False
            break
    _report(4, ok, f"exact_ramsey(3,2,2)=7 and {trials} random 7-vertex colorings "
            "all force a length-2 path", t0, 300.0)


def test_ac5_fourth_order_at_n2():
    t0 = time.perf_counter()
    rho = count_rho(4, 2, 2)
    oracle = len(brute_ideal_masks(build_universe(3, (2, 2)).pred_masks()))
    ok = rho == oracle == 8
    scan = longest_mono(color_kuniform_lower(4, 2), want_witnesses=False)
    ok &= all(v <= 1 for v in scan.per_color_max.values())
    res = exact_ramsey(4, 2, 2, budget=SearchBudget(max_nodes=2_000_000, max_seconds=30))
    if res.status == "exact":
        ok &= res.value == rho + 1
        third = f"exact_ramsey(4,2,2)={res.value}"
    else:
        third = f"exact_ramsey(4,2,2) best-effort: {res.status} at N>={res.lower_bound}"
    _report(5, ok, f"rho_4(2)=8 by enumeration, extremal coloring path-free, {third}",
            t0, 60.0)


def test_ac6_inequality_suite_clean():
    t0 = time.perf_counter()
    rows = run_inequality_suite()
    verdicts = [r["verdict"] for r in rows]
    fails = verdicts.count("FAIL")
    ok = bool(rows) and fails == 0
    _report(6, ok, f"{len(rows)} rows: {verdicts.count('PASS')} pass, "
            f"{verdicts.count('SKIPPED')} skipped, {fails} fail", t0, 120.0)


def test_ac7_transitivity_of_constructions():
    t0 = time.perf_counter()
    ok = True
    for n in (2, 3, 4):
        ok &= is_transitive(color_graph_lower(2, n)) is True
    for q, n in [(2, 2), (2, 3), (3, 2)]:
        ok &= is_transitive(color_3uniform_lower(q, n)) is True
    # (3,3) skipped: its scan would visit the C(980,4) vertex quadruples
    res = is_transitive(color_kuniform_lower(4, 2))
    if res is True:
        fourth = "order-4 scan: transitive"
    else:
        ok &= check_transitivity_witness(color_kuniform_lower(4, 2), res)
        fourth = f"order-4 scan: witness {res} checked"
    _report(7, ok, f"graph n<=4 and 3-uniform (2,2),(2,3),(3,2) transitive; {fourth}; "
            "(3,3) skipped at C(980,4) tuples", t0, 60.0)


def test_ac8_dp_equals_exhaustive_on_all_small_colorings():
    t0 = time.perf_counter()
    ok = True
    for bits in product((1, 2), repeat=comb(5, 3)):
        col = EdgeColoring(k=3, q=2, N=5, colors=list(bits))
        if longest_mono(col, want_witnesses=False).per_color_max != brute_longest(col):
            ok = False
            break
    _report(8, ok, "all 1024 two-colorings of the 5-vertex triple system", t0, 30.0)
