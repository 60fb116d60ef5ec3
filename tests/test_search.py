from dataclasses import replace

import pytest

from monopath.budget import MEMO
from monopath.colorings import EdgeColoring
from monopath.paths import longest_mono
from monopath.search import RamseyResult, SearchBudget, exact_ramsey


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=0)
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=10, max_seconds=0.0)
    SearchBudget(max_nodes=10, max_seconds=1.5)


def test_budget_rejects_nan_seconds():
    # NaN compares false with every deadline, so it once meant no limit
    with pytest.raises(ValueError, match="max_seconds must be positive"):
        SearchBudget(max_nodes=10, max_seconds=float("nan"))


def test_reverify_stays_within_the_node_cap():
    # the extremal coloring of N = 7 for (4, 2, 2) is re-verified on
    # C(7, 3) + C(7, 4) = 70 units: 51 nodes finish the search, not that
    res = exact_ramsey(4, 2, 2, budget=SearchBudget(max_nodes=51))
    assert (res.status, res.lower_bound, res.nodes) == ("budget_exhausted", 7, 29)
    assert res.extremal.N == 6
    # the largest re-verify, N = 8, takes C(8, 3) + C(8, 4) = 126 units
    assert exact_ramsey(4, 2, 2, budget=SearchBudget(max_nodes=125)).lower_bound == 8
    res = exact_ramsey(4, 2, 2, budget=SearchBudget(max_nodes=126))
    assert (res.status, res.value, res.nodes) == ("exact", 9, 51)


@pytest.mark.parametrize("k,q,n,value", [
    (2, 1, 3, 4),      # one color: n^1 + 1
    (2, 2, 2, 5),      # 2^2 + 1
    (2, 3, 2, 9),      # 2^3 + 1
    (3, 2, 2, 7),      # Dedekind count on two middle elements, plus one
    (3, 1, 2, 4),  # one color, k vertices per edge: n + k - 1 vertices force length n
    (4, 2, 2, 9),
    (5, 2, 2, 11),
    (7, 2, 2, 15),  # 3432 edges: deeper than the default recursion limit
])
def test_exact_small_numbers(k, q, n, value):
    res = exact_ramsey(k, q, n)
    assert res.status == "exact"
    assert res.value == value
    assert res.lower_bound == value
    assert res.extremal.N == value - 1


def test_exact_graph_n3():
    res = exact_ramsey(2, 2, 3, budget=SearchBudget(max_nodes=10_000_000))
    assert res.status == "exact"
    assert res.value == 10
    assert res.nodes == 3455112
    assert _digits(res.extremal) == "111222122111211222222122122111211211"


def _digits(col: EdgeColoring) -> str:
    return "".join(map(str, col.colors))


# pinned traces: the DFS visits choices in a fixed order, so node counts, lower
# bounds and extremal colorings must not move when the engines change
@pytest.mark.parametrize("k,q,n,cap,status,nodes,lower,colors", [
    (3, 2, 2, None, "exact", 16, 7, "12221221111121111212"),
    (4, 2, 2, None, "exact", 51, 9,
     "1222212221111111122111111122111222211121111111121111222112121122212121"),
    (3, 2, 3, 60_000, "budget_exhausted", 60_001, 8, "11111111121111121222111112112211221"),
    (2, 2, 4, 60_000, "budget_exhausted", 60_001, 12,
     "1111111112112221112212222222122222211122222111112212111"),
])
def test_search_trace_is_pinned(k, q, n, cap, status, nodes, lower, colors):
    budget = SearchBudget(max_nodes=cap) if cap else None
    res = exact_ramsey(k, q, n, budget=budget)
    assert (res.status, res.nodes, res.lower_bound) == (status, nodes, lower)
    assert _digits(res.extremal) == colors


def test_extremal_is_a_real_coloring():
    res = exact_ramsey(3, 2, 2)
    col = res.extremal
    assert isinstance(col, EdgeColoring)
    assert col.N == res.value - 1
    scan = longest_mono(col, want_witnesses=False)
    assert all(v <= 1 for v in scan.per_color_max.values())


def test_lower_bound_only_when_capped():
    res = exact_ramsey(3, 2, 2, n_max=6)
    assert res.status == "lower_bound_only"
    assert res.value is None
    assert res.lower_bound >= 6
    assert res.extremal.N == 6


def test_budget_exhausted_reports_progress():
    res = exact_ramsey(3, 2, 3, budget=SearchBudget(max_nodes=50))
    assert res.status == "budget_exhausted"
    assert res.value is None
    assert res.lower_bound >= 6
    assert res.nodes <= 50 + 1


def test_node_and_time_accounting():
    res = exact_ramsey(2, 2, 2)
    assert res.nodes > 0
    assert res.seconds >= 0.0


def test_deterministic():
    a = exact_ramsey(4, 2, 2)
    b = exact_ramsey(4, 2, 2)
    assert a.value == b.value == 9
    assert a.nodes == b.nodes
    assert a.extremal.colors == b.extremal.colors


def test_result_validation():
    with pytest.raises(ValueError):
        RamseyResult(status="maybe", value=None, lower_bound=1,
                     extremal=None, nodes=0, seconds=0.0)
    with pytest.raises(ValueError):
        RamseyResult(status="exact", value=None, lower_bound=1,
                     extremal=None, nodes=0, seconds=0.0)


def test_bad_arguments():
    with pytest.raises(ValueError):
        exact_ramsey(1, 2, 2)
    with pytest.raises(ValueError):
        exact_ramsey(2, 0, 2)
    with pytest.raises(ValueError):
        exact_ramsey(2, 2, 0)


# --- the process-wide memo ----------------------------------------------------


def _without_seconds(res: RamseyResult) -> RamseyResult:
    return replace(res, seconds=0.0)


@pytest.mark.parametrize("k,q,n,n_max,cap", [
    (3, 2, 2, None, None),          # exact
    (4, 2, 2, None, 51),            # budget_exhausted in a re-verify
    (4, 2, 2, None, 126),           # exact with exactly its cost
    (3, 2, 2, 6, None),             # lower_bound_only
    (3, 2, 3, None, 60_000),        # budget_exhausted
    (2, 2, 4, None, 5_000),         # budget_exhausted
])
def test_search_hit_equals_cold_result(k, q, n, n_max, cap):
    budget = SearchBudget(max_nodes=cap) if cap else None
    cold = exact_ramsey(k, q, n, n_max, budget)
    warm = exact_ramsey(k, q, n, n_max, budget)
    assert _without_seconds(warm) == _without_seconds(cold)
    assert warm.extremal.meta == cold.extremal.meta
    # every result owns its coloring: changing one changes no later result
    warm.extremal.colors[0] = 2
    warm.extremal.meta["family"] = "changed"
    again = exact_ramsey(k, q, n, n_max, budget)
    assert _without_seconds(again) == _without_seconds(cold)
    assert again.extremal.meta == cold.extremal.meta


def test_search_memo_respects_node_caps(monkeypatch):
    from monopath import search

    runs = []
    real = search._search

    def counted(*args):
        runs.append(args)
        return real(*args)

    monkeypatch.setattr(search, "_search", counted)
    exact = exact_ramsey(4, 2, 2)
    assert (exact.status, exact.nodes) == ("exact", 51)
    # any cap that covers the cost, the 51 nodes and the 126 units of the
    # largest re-verify, replays the exact result
    assert exact_ramsey(4, 2, 2, budget=SearchBudget(max_nodes=126)).value == 9
    assert len(runs) == 1
    # a smaller cap searches, and its exhausted result replays only for it
    short = exact_ramsey(4, 2, 2, budget=SearchBudget(max_nodes=51))
    assert (short.status, short.nodes) == ("budget_exhausted", 29)
    assert exact_ramsey(4, 2, 2, budget=SearchBudget(max_nodes=51)).nodes == 29
    assert len(runs) == 2
    assert exact_ramsey(4, 2, 2, budget=SearchBudget(max_nodes=50)).nodes == 29
    assert len(runs) == 3
    # the level cap is part of the key
    assert exact_ramsey(4, 2, 2, n_max=7).status == "lower_bound_only"
    assert len(runs) == 4


def test_search_with_time_limit_is_never_cached():
    timed = SearchBudget(max_nodes=10**6, max_seconds=60.0)
    first = exact_ramsey(3, 2, 2, budget=timed)
    assert len(MEMO) == 0
    second = exact_ramsey(3, 2, 2, budget=timed)
    assert _without_seconds(first) == _without_seconds(second)
    assert len(MEMO) == 0
