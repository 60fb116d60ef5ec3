import tracemalloc
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monopath import counting
from monopath.budget import MEMO, BudgetExceeded, WorkMeter
from monopath.counting import (
    GridBox,
    count_box_partitions,
    count_downsets,
    count_order_ideals,
    count_rho,
    dedekind,
    enumerate_order_ideals,
    lnn_rank_sizes,
    macmahon,
    macmahon_rect,
    middle_max,
    p1_closed,
    p1_rect,
    s_profile,
)
from helpers import (
    brute_box_partitions,
    brute_ideal_masks,
    count_antichains,
    count_antichains_exhaustive,
    grid_pred_masks,
    tuple_box_partitions,
)

# --- closed forms ---------------------------------------------------------


def test_p1_closed_is_central_binomial():
    assert [p1_closed(n) for n in range(6)] == [1, 2, 6, 20, 70, 252]


def test_p1_rect():
    assert p1_rect(2, 3) == comb(5, 2)
    assert p1_rect(0, 4) == 1
    with pytest.raises(ValueError):
        p1_rect(-1, 2)


def test_macmahon_known_values():
    assert macmahon(1) == 2
    assert macmahon(2) == 20
    assert macmahon(3) == 980
    assert macmahon(4) == 232848


def test_macmahon_rect_symmetry():
    assert macmahon_rect(2, 3, 4) == macmahon_rect(4, 2, 3) == macmahon_rect(3, 4, 2)
    assert macmahon_rect(1, 1, 5) == 6
    assert macmahon_rect(0, 3, 3) == 1


# --- frontier DP vs independent oracles ------------------------------------


@pytest.mark.parametrize(
    "shape,bound",
    [((), 4), ((3,), 2), ((2, 2), 2), ((3, 2), 3), ((2, 2, 2), 2), ((4,), 1)],
)
def test_box_partitions_against_brute_force(shape, bound):
    assert count_box_partitions(shape, bound) == brute_box_partitions(shape, bound)


@given(
    st.sampled_from(
        [(), (1,), (2,), (3,), (4,), (2, 2), (3, 2), (2, 3), (2, 2, 2), (3, 1, 2)]
    ),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_box_partitions_random_shapes(shape, bound):
    assert count_box_partitions(shape, bound) == brute_box_partitions(shape, bound)


@pytest.mark.parametrize("n", range(1, 9))
def test_downsets_dim2_closed_form(n):
    assert count_downsets(GridBox(n, 2)) == p1_closed(n)


@pytest.mark.parametrize("n", range(1, 5))
def test_downsets_dim3_is_macmahon(n):
    assert count_downsets(GridBox(n, 3)) == macmahon(n)


@pytest.mark.parametrize(
    "n,d", [(2, 2), (3, 2), (4, 2), (2, 3), (2, 4), (16, 1), (1, 5)]
)
def test_downsets_small_boxes_exhaustive(n, d):
    box = GridBox(n, d)
    if box.size <= 16:
        assert count_downsets(box) == len(brute_ideal_masks(grid_pred_masks(box)))
        assert count_antichains(box) == count_antichains_exhaustive(box)
    assert count_downsets(box) == count_antichains(box)


@pytest.mark.parametrize("n,d", [(3, 3), (2, 5), (4, 2), (5, 2), (2, 6)])
def test_downset_antichain_bijection_at_scale(n, d):
    # independent-set branching vs frontier DP: no shared machinery
    box = GridBox(n, d)
    assert count_downsets(box) == count_antichains(box)


def test_exhaustive_cap_enforced():
    with pytest.raises(ValueError, match="capped"):
        count_antichains_exhaustive(GridBox(3, 3))


def test_dedekind_numbers():
    assert [dedekind(d) for d in range(2, 7)] == [6, 20, 168, 7581, 7828354]


def test_box_partitions_budget():
    with pytest.raises(BudgetExceeded):
        count_box_partitions((4, 4, 4), 4, budget=1000)


def _metered(run, limit, used=0):
    """(outcome, value or message, units used) of run(meter) under ``limit``."""
    wm = WorkMeter(limit, "shared", used)
    try:
        return "ok", run(wm), wm.used
    except BudgetExceeded as exc:
        return "miss", str(exc), wm.used


PACKED_SHAPES = [(), (1,), (3,), (5,), (2, 2), (3, 2), (1, 4), (3, 3), (2, 2, 2), (3, 1, 2)]


@pytest.mark.parametrize("shape", PACKED_SHAPES)
def test_packed_dp_meters_like_tuple_reference(shape):
    # the packed window charges in bulk; value, units and the exact point of
    # a miss must match the per-unit tuple-window DP
    for bound in range(5):
        def packed(wm):
            return count_box_partitions(shape, bound, budget=wm)

        def reference(wm):
            return tuple_box_partitions(shape, bound, wm)

        total = _metered(reference, 10**12)[2]
        limits = {total - 1, total, total + 1, *range(0, total, max(1, total // 25))}
        for limit in sorted(limits):
            assert _metered(packed, limit) == _metered(reference, limit), (bound, limit)
        # a pooled meter that arrives part-spent
        assert _metered(packed, total, 7) == _metered(reference, total, 7)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts the runs of the frontier DP that the memo did not answer."""
    calls = []
    kernel = counting._frontier_dp

    def counted(*args):
        calls.append(args[:2])
        return kernel(*args)

    monkeypatch.setattr(counting, "_frontier_dp", counted)
    return calls


@pytest.mark.parametrize("shape", PACKED_SHAPES)
def test_memo_replays_packed_dp_exactly(shape, kernel_calls):
    # a warm call must look like the cold one: value or message, and units
    for bound in range(5):
        def packed(wm):
            return count_box_partitions(shape, bound, budget=wm)

        total = _metered(packed, 10**12)[2]
        budgets = [(total - 1, 0), (total, 0), (total + 1, 0), (total, 7)]
        cold = []
        for limit, used in budgets:
            MEMO.clear()
            cold.append(_metered(packed, limit, used))
            assert _metered(packed, limit, used) == cold[-1], (bound, limit, used)
        # the store now holds the last miss; the value is computed once more,
        # and so is the miss of room total - 1
        del kernel_calls[:]
        assert _metered(packed, 10**12)[:2] == ("ok", cold[1][1])
        for _ in range(2):
            assert [_metered(packed, limit, used) for limit, used in budgets] == cold
        assert len(kernel_calls) == (2 if shape else 0)


def test_memo_recomputes_a_miss_for_another_room(kernel_calls):
    def run(wm):
        return count_box_partitions((3, 3), 3, budget=wm)

    total = _metered(run, 10**12)[2]
    MEMO.clear()
    del kernel_calls[:]
    half = total // 2
    # (limit, used) pairs with the rooms half, half - 1, half + 5, half + 2
    calls = [(half, 0), (half - 1, 0), (half + 5, 0), (half + 3, 1)]
    warm = [_metered(run, limit, used) for limit, used in calls]
    assert [outcome for outcome, _, _ in warm] == ["miss"] * 4
    assert len(kernel_calls) == 4
    for (limit, used), got in zip(calls, warm):
        MEMO.clear()
        assert _metered(run, limit, used) == got
    # the last room is stored again: its miss replays without the kernel
    assert _metered(run, half + 3, 1) == warm[-1]
    assert len(kernel_calls) == 8
    # a value replays for any room of at least its units, but no less
    assert _metered(run, total) == ("ok", 980, total)
    assert _metered(run, total + 9, 9) == ("ok", 980, total + 9)
    assert len(kernel_calls) == 9
    assert _metered(run, total - 1)[0] == "miss"
    assert len(kernel_calls) == 10


def test_packed_dp_huge_window_misses_cheaply():
    # a window of 2^58 cells is never filled or masked: the first new state
    # already bills more than the budget
    shape = (2,) * 59
    got = _metered(lambda wm: count_box_partitions(shape, 2, budget=wm), 1000)
    assert got == _metered(lambda wm: tuple_box_partitions(shape, 2, wm), 1000)
    assert got[0] == "miss"


def test_packed_dp_pays_a_crossing_state_before_storing_it():
    # one cell of 300001 values: the state that crosses the budget stored
    # all its transitions, 44.7 MB under tracemalloc, before it billed them
    shape, bound = (300000,), 300000
    tracemalloc.start()
    try:
        got = _metered(lambda wm: count_box_partitions(shape, bound, budget=wm), 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert got == _metered(lambda wm: tuple_box_partitions(shape, bound, wm), 1000)
    assert got[0] == "miss"


# --- order ideals of arbitrary posets ---------------------------------------


def test_order_ideals_chain_and_antichain():
    # chain 0 < 1 < 2 < 3: ideals are prefixes
    chain = [0, 1, 0b11, 0b111]
    assert count_order_ideals(chain) == 5
    # antichain: every subset is an ideal
    assert count_order_ideals([0, 0, 0, 0]) == 16


def test_order_ideals_needs_linear_extension():
    with pytest.raises(ValueError, match="linear extension"):
        count_order_ideals([0b10, 0])


@given(st.integers(min_value=0, max_value=6), st.data())
@settings(max_examples=50, deadline=None)
def test_order_ideals_random_posets(m, data):
    # random DAG as predecessor masks over a linear extension
    masks = []
    for i in range(m):
        pm = data.draw(st.integers(min_value=0, max_value=(1 << i) - 1)) if i else 0
        masks.append(pm)
    brute = brute_ideal_masks(masks)
    assert count_order_ideals(masks) == len(brute)
    wm = WorkMeter(10**6)
    assert sorted(enumerate_order_ideals(masks, wm)) == brute


@given(st.integers(min_value=0, max_value=8), st.data())
@settings(max_examples=60, deadline=None)
def test_order_ideals_come_in_universe_order(m, data):
    # the universe order compares masks by their lowest differing bit, the
    # mask missing it first: ascending masks with their m bits reversed
    masks = [data.draw(st.integers(min_value=0, max_value=(1 << i) - 1)) for i in range(m)]
    ideals = enumerate_order_ideals(masks, WorkMeter(10**6))
    assert ideals == sorted(ideals, key=lambda x: int(f"{x:0{m}b}"[::-1], 2))


# --- sizes of the recursive universes ----------------------------------------


def test_rho_order2_is_grid():
    assert count_rho(2, 2, 3) == 9
    assert count_rho(2, 3, 2) == 8


def test_rho_order3_is_downset_count():
    for d in (1, 2, 3):
        for n in (1, 2, 3):
            assert count_rho(3, d, n) == count_downsets(GridBox(n, d))
    assert count_rho(3, 2, 2) == 6


def test_rho_known_small_values():
    assert count_rho(4, 2, 2) == 8
    assert count_rho(5, 2, 2) == 10
    assert count_rho(4, 2, 3) == 66


def test_rho_against_brute_ideals():
    # independent route: materialize the parent universe, scan all subsets
    from monopath.universes import build_universe

    for k, d, n in [(4, 2, 2), (5, 2, 2), (4, 1, 3), (4, 3, 2)]:
        parent = build_universe(k - 1, (n,) * d)
        assert count_rho(k, d, n) == len(brute_ideal_masks(parent.pred_masks()))


def test_rho_validation_and_budget():
    with pytest.raises(ValueError):
        count_rho(1, 2, 2)
    with pytest.raises(BudgetExceeded):
        count_rho(5, 3, 3, budget=5000)


# --- rank statistics ----------------------------------------------------------


def test_s_profile_example():
    # seven ways to write 6 as x_1 + x_2 + x_3 with every x_i in 1..3
    assert s_profile(3, 3).sizes[6 - 3] == 7
    assert middle_max(2, 2) == (3, 2)


def test_s_profile_totals_and_range():
    prof = s_profile(4, 3)
    assert prof.start == 3
    assert prof.total == 4**3
    assert len(prof.sizes) == 4 * 3 - 3 + 1


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
def test_s_profile_symmetric(n, d):
    prof = s_profile(n, d)
    assert prof.sizes == prof.sizes[::-1]
    assert prof.total == n**d
    assert prof.max_size == middle_max(n, d)[1]


def test_lnn_small():
    assert lnn_rank_sizes(1).sizes == (1, 1)
    assert lnn_rank_sizes(2).sizes == (1, 1, 2, 1, 1)


@pytest.mark.parametrize("n", range(7))
def test_lnn_total_and_symmetry(n):
    prof = lnn_rank_sizes(n)
    assert prof.total == comb(2 * n, n)
    assert prof.sizes == prof.sizes[::-1]
    assert len(prof.sizes) == n * n + 1
    assert prof.max_size == prof.sizes[n * n // 2]


def test_metered_rank_statistics_fit_their_units():
    # units are charged before a row's work, one per term the row builds
    wm = WorkMeter(10**6)
    assert s_profile(3, 2, budget=wm).sizes == (1, 2, 3, 2, 1)
    # partial sums 0..0, then 0..3, each meeting 3 next values
    assert wm.used == 1 * 3 + 4 * 3
    wm = WorkMeter(10**6)
    assert macmahon_rect(2, 3, 4, budget=wm) == macmahon_rect(4, 2, 3)
    assert wm.used == 2 * 3 * 4
    wm = WorkMeter(10**6)
    assert lnn_rank_sizes(2, budget=wm).sizes == (1, 1, 2, 1, 1)
    # rows m = 1..4 build C(m, r)_q for r = 1..min(m, 2)
    assert wm.used == 1 + (2 + 1) + (3 + 3) + (4 + 5)


@pytest.mark.parametrize("n", range(1, 5))
def test_lnn_against_enumeration(n):
    # bucket decreasing sequences in the n-box by their sum of entries
    from itertools import product

    sizes = [0] * (n * n + 1)
    for seq in product(range(n + 1), repeat=n):
        if all(a >= b for a, b in zip(seq, seq[1:])):
            sizes[sum(seq)] += 1
    assert lnn_rank_sizes(n).sizes == tuple(sizes)
