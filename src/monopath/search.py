"""Exact Ramsey-number search for monotone paths at tiny parameters.

``exact_ramsey(k, q, n)`` finds the least N such that every q-coloring of
the complete k-uniform hypergraph on N ordered vertices contains a
monochromatic monotone path of length n, by refuting the existence of a
path-free coloring via backtracking.  Satisfiable levels yield an extremal
coloring, re-verified by the path DP; the first refuted level is the value.

Two engines, both assigning edges in colex order with the first edge pinned
to color 1 (colors are interchangeable):

* n = 2: a path of length 2 occupies k+1 vertices and consists of that
  tuple's two extreme k-windows, so path-freeness is exactly a disequality
  constraint per (k+1)-subset.  DFS with unit propagation over color
  domains.

* general n: DFS that carries the longest-path DP incrementally; assigning
  an edge relaxes one window value, which is undone on backtrack, and any
  relaxation reaching n prunes the branch.

Both walk the colex window index of :mod:`monopath.subsets` for edge and
window ranks, and both keep the DFS state in lists rather than on the call
stack, so a search one level deep per edge is not bounded by the recursion
limit.

This is deliberately an oracle for the closed formulas, not a competitive
solver; hopeless parameter ranges are out of scope.
"""

from __future__ import annotations

import time
from array import array
from copy import deepcopy
from dataclasses import dataclass, replace
from math import comb

from .budget import BudgetExceeded, WorkMeter, default_budget, recall, remember
from .colorings import EdgeColoring
from .paths import longest_mono
from .subsets import window_runs


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int
    max_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        # not > 0 is also true of NaN, which no deadline compares to
        if self.max_seconds is not None and not self.max_seconds > 0:
            raise ValueError("max_seconds must be positive")


@dataclass(frozen=True)
class RamseyResult:
    """Outcome of exact_ramsey.

    status "exact": ``value`` is the least forcing N and ``extremal`` is a
    verified path-free coloring on value-1 vertices.  status
    "lower_bound_only": every level up to the ceiling was satisfiable, so
    the true value is >= ``lower_bound``.  status "budget_exhausted": the
    search stopped early; ``lower_bound`` reflects the levels finished.
    """

    status: str
    value: int | None
    lower_bound: int
    extremal: EdgeColoring | None
    nodes: int
    seconds: float

    def __post_init__(self) -> None:
        if self.status not in ("exact", "lower_bound_only", "budget_exhausted"):
            raise ValueError(f"unknown search status {self.status!r}")
        if (self.value is None) != (self.status != "exact"):
            raise ValueError("value must be set exactly for status 'exact'")


class _SearchStop(Exception):
    pass


class _Meter:
    """Shared node counter with periodic wall-clock checks; ``verified`` is
    the most units a re-verify took."""

    def __init__(self, budget: SearchBudget):
        self.nodes = 0
        self.verified = 0
        self.max_nodes = budget.max_nodes
        self.deadline = (
            None if budget.max_seconds is None else time.monotonic() + budget.max_seconds
        )

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise _SearchStop
        if self.deadline is not None and self.nodes % 2048 == 0:
            if time.monotonic() > self.deadline:
                raise _SearchStop


def _edge_ranks(big: int, k: int) -> tuple[list[int], list[int]]:
    """The front and the back window rank of every edge, in colex edge order."""
    front_rank: list[int] = []
    back_rank: list[int] = []
    w = 0
    for _, blocks in window_runs(big, k):
        for f0, m in blocks:
            front_rank.extend(range(f0, f0 + m))
            back_rank.extend([w] * m)
            w += 1
    return front_rank, back_rank


def _engine_disequality(big: int, k: int, q: int, mt: _Meter) -> array | None:
    """SAT search for n = 2: one != constraint per (k+1)-subset of vertices."""
    num_edges = comb(big, k)
    colors = [0] * num_edges
    if num_edges == 0:
        return array("B")
    front_rank, back_rank = _edge_ranks(big, k)
    # the (k+1)-subsets pair each edge j with the edges whose back window is
    # the front window of j
    into: list[list[int]] = [[] for _ in range(comb(big, k - 1))]
    for i, w in enumerate(back_rank):
        into[w].append(i)
    adj: list[list[int]] = [[] for _ in range(num_edges)]
    for j, f in enumerate(front_rank):
        for i in into[f]:
            adj[i].append(j)
            adj[j].append(i)
    full = (1 << q) - 1
    domains = [full] * num_edges
    trail: list[tuple] = []

    def propagate(var: int, color: int) -> bool:
        stack = [(var, color)]
        while stack:
            v, c = stack.pop()
            if colors[v]:
                if colors[v] != c:
                    return False
                continue
            bit = 1 << (c - 1)
            if not domains[v] & bit:
                return False
            colors[v] = c
            trail.append((0, v, 0))
            trail.append((1, v, domains[v]))
            domains[v] = bit
            for nb in adj[v]:
                if colors[nb]:
                    if colors[nb] == c:
                        return False
                    continue
                d = domains[nb]
                if d & bit:
                    trail.append((1, nb, d))
                    d &= ~bit
                    domains[nb] = d
                    if not d:
                        return False
                    if not d & (d - 1):
                        stack.append((nb, d.bit_length()))
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            kind, v, old = trail.pop()
            if kind:
                domains[v] = old
            else:
                colors[v] = 0

    # DFS over the first unassigned edge; ``decisions`` holds the open
    # choices as (edge, color, trail mark)
    decisions: list[tuple[int, int, int]] = []
    pos, c = 0, 1
    while True:
        top = 1 if pos == 0 else q
        while c <= top:
            if domains[pos] & (1 << (c - 1)):
                mt.tick()
                mark = len(trail)
                if propagate(pos, c):
                    break
                undo(mark)
            c += 1
        if c <= top:
            decisions.append((pos, c, mark))
            while pos < num_edges and colors[pos]:
                pos += 1
            if pos == num_edges:
                return array("B", colors)
            c = 1
        elif decisions:
            pos, c, mark = decisions.pop()
            undo(mark)
            c += 1
        else:
            return None


def _engine_dp(big: int, k: int, q: int, n: int, mt: _Meter) -> array | None:
    """SAT search for general n via DFS with an incremental path DP."""
    num_edges = comb(big, k)
    if num_edges == 0:
        return array("B")
    front_rank, back_rank = _edge_ranks(big, k)
    tables = [None] + [[0] * comb(big, k - 1) for _ in range(q)]
    colors = [0] * num_edges
    # the value of each edge's back window before the edge was colored
    saved = [0] * num_edges
    # edges below pos are colored; c is the next color to try at pos
    pos, c = 0, 1
    while True:
        top = 1 if pos == 0 else q
        while c <= top:
            mt.tick()
            tab = tables[c]
            cand = tab[front_rank[pos]] + 1
            if cand < n:
                break
            c += 1
        if c <= top:
            colors[pos] = c
            back = back_rank[pos]
            saved[pos] = tab[back]
            if cand > tab[back]:
                tab[back] = cand
            pos += 1
            if pos == num_edges:
                return array("B", colors)
            c = 1
        elif pos:
            pos -= 1
            c = colors[pos]
            tables[c][back_rank[pos]] = saved[pos]
            c += 1
        else:
            return None


def _level_sat(big: int, k: int, q: int, n: int, mt: _Meter) -> EdgeColoring | None:
    raw = _engine_disequality(big, k, q, mt) if n == 2 else _engine_dp(big, k, q, n, mt)
    if raw is None:
        return None
    found = EdgeColoring(
        k=k,
        q=q,
        N=big,
        colors=raw,
        meta={"family": "search-extremal", "params": {"k": k, "q": q, "n": n}},
    )
    # re-verified within the request's node cap, on a meter of its own
    wm = WorkMeter(mt.max_nodes)
    try:
        scan = longest_mono(found, want_witnesses=False, budget=wm)
    except BudgetExceeded:
        raise _SearchStop from None
    finally:
        mt.verified = max(mt.verified, wm.used)
    if scan.overall_max >= n:
        raise AssertionError("search produced a coloring the DP rejects")
    return found


def exact_ramsey(
    k: int,
    q: int,
    n: int,
    n_max: int | None = None,
    budget: SearchBudget | None = None,
) -> RamseyResult:
    """Least N forcing a monochromatic monotone path of length n, by search.

    Levels N are processed upward from the largest trivially satisfiable
    one; the first refuted level is exact.  ``n_max`` caps the levels
    attempted (None: keep going until refutation or budget).

    Without ``max_seconds`` the search is deterministic, and its results are
    kept in the process-wide memo of :mod:`monopath.budget`.  The cost of a
    result is its node count, or the units of its largest re-verify where
    those are more, since each satisfiable level is re-verified on a meter
    of ``max_nodes`` units: an exact or lower-bound result is replayed for
    any ``max_nodes`` at least its cost, an exhausted one only for the same
    ``max_nodes``.  A replayed result reports its own ``seconds`` and a fresh
    copy of the extremal coloring.
    """
    if k < 2 or q < 1 or n < 1:
        raise ValueError("need k >= 2, q >= 1, n >= 1")
    if budget is None:
        budget = SearchBudget(max_nodes=default_budget())
    t0 = time.monotonic()
    if budget.max_seconds is not None:
        return replace(_search(k, q, n, n_max, budget)[0], seconds=time.monotonic() - t0)
    key = ("exact_ramsey", k, q, n, n_max)
    hit = recall(key, budget.max_nodes)
    if hit is None:
        res, cost = _search(k, q, n, n_max, budget)
        remember(key, budget.max_nodes, res, cost)
    else:
        res = hit[0]
    return replace(res, extremal=deepcopy(res.extremal), seconds=time.monotonic() - t0)


def _search(
    k: int, q: int, n: int, n_max: int | None, budget: SearchBudget
) -> tuple[RamseyResult, int]:
    """The level-by-level search of ``exact_ramsey``, ``seconds`` left 0,
    and its cost, the least ``max_nodes`` that repeats it."""
    mt = _Meter(budget)
    best: EdgeColoring | None = None
    level = n + k - 2
    status, value = "lower_bound_only", None
    try:
        while n_max is None or level <= n_max:
            found = _level_sat(level, k, q, n, mt)
            if found is None:
                status, value = "exact", level
                break
            best = found
            level += 1
    except _SearchStop:
        # the level that ran out is the first one not finished
        status = "budget_exhausted"
    res = RamseyResult(status=status, value=value, lower_bound=level, extremal=best,
                       nodes=mt.nodes, seconds=0.0)
    return res, max(mt.nodes, mt.verified)
