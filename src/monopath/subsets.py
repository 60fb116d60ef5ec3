"""Colexicographic ranking of sorted vertex subsets, and the window index.

Edges of a complete ordered k-uniform hypergraph are stored in flat arrays
indexed by the colex rank of the edge's sorted vertex tuple,

    rank(t_0 < t_1 < ... < t_{r-1}) = sum_i C(t_i, i+1)

with 0-based vertices.  Colex order sorts subsets primarily by their last
vertex, so a dynamic program that sweeps ranks in increasing order sees
every edge ending at vertex v only after all edges ending below v.

The path DPs and the extremal builds work on (k-1)-windows b = t + (v,).
The edges (a,) + b, a < t[0], with back window b have consecutive colex
ranks, and so do their fronts (a,) + t.  Where the fronts start, and how
many there are, depend on t alone, so one block list, a (start, t[0]) pair
per (k-2)-subset t of range(N-1) in colex order, indexes every window: the
windows ending at v are the first C(v, k-2) blocks in turn, their ranks
run on from C(v, k-1), and their edges start at C(v, k) + start.  Windows
in colex order, and a upward within each, visit the edges in colex order.
``window_runs`` walks the list that way.
"""

from __future__ import annotations

from itertools import accumulate, islice
from math import comb
from typing import Iterable, Iterator


def colex_rank(t: tuple[int, ...]) -> int:
    return sum(comb(v, i + 1) for i, v in enumerate(t))


def colex_unrank(rank: int, r: int) -> tuple[int, ...]:
    """The r-subset with colex rank ``rank``, inverse of ``colex_rank``.

    Greedy from the last vertex, the largest v with C(v, r) <= rank, in a
    loop: O(last vertex + r) binomials whatever r is.
    """
    v = r - 1
    while comb(v + 1, r) <= rank:
        v += 1
    out = []
    for i in range(r, 0, -1):
        while comb(v, i) > rank:
            v -= 1
        out.append(v)
        rank -= comb(v, i)
        v -= 1
    return tuple(reversed(out))


def colex_walk(n: int, r: int) -> Iterator[list[int]]:
    """Every r-subset of range(n) in colex order, as one list changed in place.

    The successor of b raises b[i] for the first i with b[i] + 1 < b[i + 1]
    (or i = r - 1) and resets b[:i] to 0..i-1.  ``run`` is the length of the
    prefix of b that already reads 0, 1, 2, ...; there the reset changes
    nothing and i = run - 1, so the walk never scans that prefix.  A step then
    costs O(1) on average, and nothing recurses, whatever r is.
    """
    if r > n:
        return
    b = list(range(r))
    run = r
    end = n - r  # only the last subset, range(n - r, n), starts there
    while True:
        yield b
        if not r or b[0] == end:
            return
        if run:
            run -= 1
            b[run] += 1
            continue
        i = 0
        while i + 1 < r and b[i] + 1 == b[i + 1]:
            i += 1
        if i:
            b[:i] = range(i)
        run = i
        b[i] += 1


def subsets_colex(n: int, r: int) -> Iterator[tuple[int, ...]]:
    """All r-subsets of range(n) in colex order (rank order)."""
    return map(tuple, colex_walk(n, r))


def colex_blocks(n: int, r: int) -> list[tuple[int, int]]:
    """One (start, t[0]) pair per r-subset t of range(n), r >= 1, in colex order.

    ``start`` is the colex rank of (0,) + t among the (r+1)-subsets, the
    first of the t[0] consecutive ranks of (a,) + t, a < t[0].  Over all t
    in turn those runs are every (r+1)-subset, so ``start`` sums the first
    vertices before t.  One walk builds the list, in time and memory linear
    in its length for every r.
    """
    firsts = [b[0] for b in colex_walk(n, r)]
    return list(zip(accumulate(firsts, initial=0), firsts))


def window_runs(n: int, k: int) -> Iterator[tuple[int, Iterable[tuple[int, int]]]]:
    """For each last vertex v of a (k-1)-window of range(n), k >= 2, in
    order: C(v, k), where the edges ending at v start, and the blocks
    (start, m) of the windows ending at v, in colex order.

    The window t + (v,) has the incoming edges (a,) + t + (v,) at ranks
    C(v, k) + start + a and their fronts at start + a, for a < m.  At k = 2
    a window is one vertex v, with its fronts (a,), a < v, from rank 0.
    """
    if k == 2:
        return ((comb(v, 2), ((0, v),)) for v in range(n))
    blocks = colex_blocks(n - 1, k - 2)
    return ((comb(v, k), islice(blocks, comb(v, k - 2))) for v in range(k - 2, n))
