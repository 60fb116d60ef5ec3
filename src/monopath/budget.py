"""Work budgets shared by the counting, universe, and search code, and the
process-wide memo of exact results.

Every exact computation in this package is all-or-nothing: when it would
exceed its work budget it raises :class:`BudgetExceeded` instead of
returning a truncated or approximate number.  Work units are deliberately
coarse (memo entries, enumerated structures, search nodes, edge slots);
the budget is a guard rail, not a profiler.

The deterministic engines (the frontier DP behind partition counts, Dedekind
numbers and rho_3, and the exact Ramsey search without a time limit) keep
their results in :data:`MEMO`, one bounded store per process that drops the
least recently used entry once it holds ``MEMO_ENTRIES``; the inequality
suite keeps the square-root chains of its tower endpoints there too.  A
repeat is indistinguishable from a fresh computation, because the store
replays the budget accounting unit for unit.  Each result is kept with its
cost, the units (or search nodes) it took, and the room the caller had,
``limit - used`` on entry:

* a result that fit its room is replayed for any later room of at least its
  cost: the cost is charged to the caller's meter and the value returned;
* a result that overran its room is replayed only for exactly that room,
  where charging the same overshoot raises the same ``BudgetExceeded``, with
  the caller's own meter label and limit, and leaves the same ``used``;
* any other room computes afresh.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass

DEFAULT_BUDGET = 50_000_000
ENV_BUDGET = "MONOPATH_BUDGET"
MEMO_ENTRIES = 1024


class BudgetExceeded(RuntimeError):
    """An exact computation needed more work units than allowed."""


def default_budget() -> int:
    raw = os.environ.get(ENV_BUDGET)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_BUDGET} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{ENV_BUDGET} must be positive, got {raw!r}")
    return value


@dataclass
class WorkMeter:
    """Counts abstract work units against a hard limit."""

    limit: int
    label: str = "work"
    used: int = 0

    def charge(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceeded(
                f"{self.label}: exceeded work budget of {self.limit} units"
            )

    def prepay(self, amount: int) -> None:
        """Charge ``amount`` units before the work they pay for is done.

        A budget that cannot pay for all of them is charged one unit past
        its limit, as a charge per unit would be, so ``used`` and the
        message are the same either way.
        """
        self.charge(min(amount, self.limit - self.used + 1))


def meter(budget: int | WorkMeter | None, label: str) -> WorkMeter:
    """A fresh meter; ``budget=None`` picks up the environment default.

    Passing an existing :class:`WorkMeter` returns it unchanged, so a caller
    can pool the work of several exact computations under one limit.
    """
    if isinstance(budget, WorkMeter):
        return budget
    return WorkMeter(default_budget() if budget is None else budget, label)


class Memo:
    """A store of at most ``cap`` entries that evicts the least recently used."""

    def __init__(self, cap: int):
        self.cap = cap
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        """The entry stored under ``key``, or None."""
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self._entries.move_to_end(key)
            return hit

    def put(self, key, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if len(self._entries) > self.cap:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


MEMO = Memo(MEMO_ENTRIES)


def recall(key: tuple, room: int) -> tuple | None:
    """The stored ``(value, cost)`` of ``key`` that a caller with ``room`` gets.

    That is the result that fit its room, if its cost fits this room too, or
    else the result that overran exactly this room; None when neither is
    stored.
    """
    done = MEMO.get(key)
    if done is not None and done[1] <= room:
        return done
    return MEMO.get((key, room))


def remember(key: tuple, room: int, value, cost: int) -> None:
    """Store the result of ``key`` that cost ``cost`` from ``room``."""
    MEMO.put(key if cost <= room else (key, room), (value, cost))


def memoized(key: tuple, wm: WorkMeter, compute):
    """``compute()``, which charges ``wm``, run at most once per key and room.

    ``compute`` must be a deterministic function of ``key`` that charges only
    ``wm``.  A stored result charges ``wm`` the units the computation took,
    and a stored miss raises from ``wm`` as the computation did.
    """
    room = wm.limit - wm.used
    hit = recall(key, room)
    if hit is not None:
        wm.charge(hit[1])  # raises for a stored miss
        return hit[0]
    start = wm.used
    try:
        value = compute()
    except BudgetExceeded:
        if wm.used - start > room:  # this meter ran out, not another one
            remember(key, room, None, wm.used - start)
        raise
    remember(key, room, value, wm.used - start)
    return value
