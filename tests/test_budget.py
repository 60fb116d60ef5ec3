import pytest

from monopath.budget import (
    DEFAULT_BUDGET,
    ENV_BUDGET,
    MEMO,
    BudgetExceeded,
    Memo,
    WorkMeter,
    default_budget,
    memoized,
    meter,
)
from monopath.counting import count_box_partitions


def test_charge_under_limit():
    wm = WorkMeter(10)
    for _ in range(10):
        wm.charge()
    assert wm.used == 10


def test_charge_over_limit_raises():
    wm = WorkMeter(5, label="tiny job")
    wm.charge(5)
    with pytest.raises(BudgetExceeded, match="tiny job"):
        wm.charge()


def test_charge_amount():
    wm = WorkMeter(100)
    wm.charge(99)
    wm.charge(1)
    with pytest.raises(BudgetExceeded):
        wm.charge(1)


def test_default_budget_env(monkeypatch):
    monkeypatch.delenv(ENV_BUDGET, raising=False)
    assert default_budget() == DEFAULT_BUDGET
    monkeypatch.setenv(ENV_BUDGET, "1234")
    assert default_budget() == 1234


@pytest.mark.parametrize("raw", ["zero", "-3", "0"])
def test_default_budget_env_invalid(monkeypatch, raw):
    monkeypatch.setenv(ENV_BUDGET, raw)
    with pytest.raises(ValueError):
        default_budget()


def test_meter_passthrough():
    wm = WorkMeter(7, label="outer")
    assert meter(wm, "inner") is wm
    fresh = meter(3, "inner")
    assert fresh.limit == 3
    assert fresh.label == "inner"


def test_memo_evicts_least_recently_used():
    store = Memo(3)
    for key in "abc":
        store.put(key, key.upper())
    assert store.get("a") == "A"  # now the most recently used
    store.put("d", "D")
    assert len(store) == 3
    assert store.get("b") is None
    assert [store.get(key) for key in "acd"] == ["A", "C", "D"]


def test_process_memo_stays_at_its_cap():
    for bound in range(MEMO.cap + 10):
        assert count_box_partitions((1,), bound) == bound + 1
    assert len(MEMO) == MEMO.cap
    # the oldest results were dropped, the newest are served
    assert MEMO.get(("count_box_partitions", (1,), 0)) is None
    assert MEMO.get(("count_box_partitions", (1,), MEMO.cap + 9)) is not None


def test_memoized_keeps_no_miss_of_another_meter():
    inner = WorkMeter(1, "inner")
    wm = WorkMeter(100)

    def compute():
        wm.charge(3)
        inner.charge(2)

    with pytest.raises(BudgetExceeded, match="inner"):
        memoized(("test",), wm, compute)
    assert wm.used == 3
    assert len(MEMO) == 0


def test_memoized_replays_units_and_misses():
    calls = []

    def run(limit, used=0):
        wm = WorkMeter(limit, "job", used)

        def compute():
            calls.append(limit - used)
            for _ in range(10):
                wm.charge()
            return "done"

        try:
            return memoized(("test",), wm, compute), wm.used
        except BudgetExceeded as exc:
            return str(exc), wm.used

    assert run(4) == ("job: exceeded work budget of 4 units", 5)
    assert run(4) == ("job: exceeded work budget of 4 units", 5)
    assert run(6, 2) == ("job: exceeded work budget of 6 units", 7)  # same room
    assert calls == [4]
    assert run(10) == ("done", 10)
    assert run(25, 15) == ("done", 25)
    assert run(12, 3) == ("job: exceeded work budget of 12 units", 13)  # new room
    assert calls == [4, 10, 9]
