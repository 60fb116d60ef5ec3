from fractions import Fraction

import pytest

from monopath import bounds
from monopath.budget import BudgetExceeded, WorkMeter
from monopath.bounds import (
    TowerScalar,
    render_rows,
    run_inequality_suite,
    tower,
    tower_bounds,
    tower_compare,
)


# --- exact tower arithmetic ------------------------------------------------------


def test_tower_folds_small_levels():
    assert tower(1, 5).as_exact() == 5
    assert tower(2, 10).as_exact() == 1024
    assert tower(3, 1).as_exact() == 4       # 2^(2^1)
    assert tower(3, 2).as_exact() == 16
    assert tower(4, 1).as_exact() == 16


def test_tower_accepts_exact_tops_only():
    with pytest.raises(TypeError):
        tower(2, 1.5)
    with pytest.raises(TypeError):
        TowerScalar(1, 0.5)
    assert tower(2, Fraction(3, 2)).top == Fraction(3, 2)
    assert tower(2, "7/2").top == Fraction(7, 2)


def test_tower_scalar_validation_and_str():
    with pytest.raises(ValueError):
        TowerScalar(0, Fraction(1))
    assert str(tower(2, 10)) == "1024"
    big = TowerScalar(3, Fraction(100_000))
    assert str(big) == "t_3(100000)"
    assert big.as_exact() is None


def test_tower_compare_same_height():
    assert tower_compare(tower(1, 5), tower(1, 7)) == "lt"
    assert tower_compare(tower(2, 3), 8) == "eq"
    assert tower_compare(9, tower(2, 3)) == "gt"


def test_tower_compare_cross_height():
    # t_2(65536) = 2^65536 against t_3(17) = 2^131072
    assert tower_compare(TowerScalar(2, Fraction(65536)), TowerScalar(3, Fraction(17))) == "lt"
    assert tower_compare(TowerScalar(3, Fraction(17)), TowerScalar(2, Fraction(65536))) == "gt"
    # equal value expressed at different heights
    assert tower_compare(TowerScalar(2, Fraction(10)), TowerScalar(1, Fraction(1024))) == "eq"
    assert tower_compare(TowerScalar(5, Fraction(2)), TowerScalar(4, Fraction(4))) == "eq"


def test_tower_compare_huge_towers_antisymmetric():
    a = TowerScalar(10, Fraction(3))
    b = TowerScalar(9, Fraction(1_000_000))
    ab, ba = tower_compare(a, b), tower_compare(b, a)
    assert {ab, ba} <= {"lt", "gt", "eq", "undecided"}
    if ab != "undecided":
        assert {"lt": "gt", "gt": "lt", "eq": "eq"}[ab] == ba


def test_tower_bounds_sandwich():
    for ts in [tower(2, 10), TowerScalar(2, Fraction(7, 2)), TowerScalar(3, Fraction(4))]:
        lo, hi = tower_bounds(ts)
        assert lo <= hi
        exact = ts.as_exact()
        if exact is not None:
            assert lo <= exact <= hi
    lo, hi = tower_bounds(TowerScalar(2, Fraction(3, 2)))
    assert lo * lo <= 8 <= hi * hi  # brackets 2^(3/2) exactly
    assert hi - lo < Fraction(1, 1000)


def test_tower_bounds_pay_for_their_square_roots():
    # 2^(3/2) to 48 bits: the roots of 2^p, p = 2048 + 48 * 2^12 down and
    # up, one unit per 64-bit word each, the same again from the memo
    ts = TowerScalar(2, Fraction(3, 2))
    for _ in range(2):
        wm = WorkMeter(10**9)
        assert tower_bounds(ts, budget=wm) == tower_bounds(ts)
        assert wm.used == 2 * ((2048 + (48 << 12)) // 64 + 1)
    wm = WorkMeter(3000)
    with pytest.raises(BudgetExceeded):
        tower_bounds(ts, budget=wm)
    assert wm.used == 3001


# --- the inequality suite ---------------------------------------------------------


def test_suite_small_grid_has_no_failures():
    rows = run_inequality_suite(d_max=2, n_max=2, k_max=4, budget=2_000_000)
    assert rows
    verdicts = {r["verdict"] for r in rows}
    assert "FAIL" not in verdicts
    assert "PASS" in verdicts


def test_suite_row_shape():
    rows = run_inequality_suite(d_max=2, n_max=2, k_max=4, budget=2_000_000)
    for r in rows:
        assert set(r) >= {"name", "statement", "params", "lhs", "rhs", "verdict"}
        assert r["verdict"] in {"PASS", "FAIL", "SKIPPED", "UNDECIDED", "INFO"}
        if r["verdict"] == "SKIPPED":
            assert r["note"]


def test_suite_has_expected_families():
    rows = run_inequality_suite(d_max=3, n_max=3, k_max=5, budget=4_000_000)
    names = {r["name"] for r in rows}
    for fam in [
        "middle-rank-lower",
        "downsets-exceed-middle-layer",
        "crude-upper",
        "ramsey3-sandwich",
        "rho-recursion",
        "ramsey-recursion",
        "tower-transform",
        "tower-difference",
        "partition-count-lower",
        "ramsey-step-upper",
        "three-color-rate",
        "middle-layer-constant",
    ]:
        assert fam in names, fam


def test_suite_info_rows_present():
    rows = run_inequality_suite(d_max=2, n_max=3, k_max=4, budget=4_000_000)
    info = [r for r in rows if r["verdict"] == "INFO"]
    assert info
    assert all(r.get("note") or r.get("lhs") for r in info)


def test_suite_deterministic_under_same_budget():
    a = run_inequality_suite(d_max=2, n_max=2, k_max=4, budget=1_000_000)
    b = run_inequality_suite(d_max=2, n_max=2, k_max=4, budget=1_000_000)
    assert a == b


def test_tight_budget_degrades_to_skips_not_failures():
    rows = run_inequality_suite(d_max=3, n_max=3, k_max=5, budget=20_000)
    assert rows
    assert all(r["verdict"] != "FAIL" for r in rows)
    assert any(r["verdict"] == "SKIPPED" for r in rows)


def test_suite_spends_at_most_twice_its_budget(monkeypatch):
    # once the pot was spent every cell still got total // 200 units, so the
    # work grew with the grid: these 1176 cells spent 8 times the budget
    spent = []

    def metered(count):
        def run(*args, budget):
            try:
                return count(*args, budget=budget)
            finally:
                spent.append(min(budget.used, budget.limit + 1))
        return run

    for name in ("count_box_partitions", "count_rho", "middle_max"):
        monkeypatch.setattr(bounds, name, metered(getattr(bounds, name)))
    total = 1000
    rows = run_inequality_suite(d_max=2, n_max=2, k_max=300, budget=total)
    assert rows and spent
    assert sum(spent) <= 2 * total + total // 8 + 1


def test_tower_difference_rows_draw_on_the_pot():
    # the square roots of the tower intervals took no unit, so a budget of 1
    # still passed every row, after about a second of isqrt
    rows = run_inequality_suite(d_max=1, n_max=1, k_max=4, budget=1)
    towers = [r for r in rows if r["name"] == "tower-difference"]
    assert len(towers) == 18
    for r in towers:
        p = r["params"]
        if p["k"] == 2 and p["a"] in ("3", "4"):  # exact values take no unit
            assert r["verdict"] == "PASS"
        else:
            assert (r["verdict"], r["note"]) == ("SKIPPED", "tower interval exceeds work budget")
    # a pot that pays for them passes them all
    rows = run_inequality_suite(d_max=1, n_max=1, k_max=4, budget=500_000)
    assert {r["verdict"] for r in rows if r["name"] == "tower-difference"} == {"PASS"}


def test_render_rows_layout():
    rows = run_inequality_suite(d_max=2, n_max=2, k_max=4, budget=1_000_000)
    text = render_rows(rows)
    lines = text.splitlines()
    assert lines[0].split()[:2] == ["name", "params"]
    assert set(lines[1]) <= {"-", " "}
    assert len(lines) == len(rows) + 2
