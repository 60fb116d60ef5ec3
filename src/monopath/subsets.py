"""Colexicographic ranking of sorted vertex subsets, and the window index.

Edges of a complete ordered k-uniform hypergraph are stored in flat arrays
indexed by the colex rank of the edge's sorted vertex tuple,

    rank(t_0 < t_1 < ... < t_{r-1}) = sum_i C(t_i, i+1)

with 0-based vertices.  Colex order sorts subsets primarily by their last
vertex, so a dynamic program that sweeps ranks in increasing order sees
every edge ending at vertex v only after all edges ending below v.

The path DPs work on (k-1)-windows.  The edges (a,) + b, a < b[0], with back
window b have consecutive colex ranks, and so do their front windows
(a,) + b[:-1]; ``colex_windows`` records where the two runs start, so every
path DP reads colors and window values by index arithmetic alone.  Windows in
colex order, and a upward within each, visit the edges in colex order.
"""

from __future__ import annotations

from itertools import accumulate, chain
from math import comb
from typing import Iterator


def colex_rank(t: tuple[int, ...]) -> int:
    return sum(comb(v, i + 1) for i, v in enumerate(t))


def subsets_colex(n: int, r: int) -> Iterator[tuple[int, ...]]:
    """All r-subsets of range(n) in colex order (rank order)."""
    if r == 0:
        yield ()
        return
    for last in range(r - 1, n):
        for front in subsets_colex(last, r - 1):
            yield front + (last,)


def colex_windows(n: int, k: int) -> list[tuple[int, int, int]]:
    """One (edge_rank0, front_rank0, m) triple per (k-1)-subset b of range(n).

    Triples come in colex order of b, so the list position is b's rank.  For
    a < m = b[0], the edge (a,) + b has rank edge_rank0 + a and its front
    window (a,) + b[:-1] has rank front_rank0 + a.

    The colex list for range(v) is a prefix of the list for range(n), so the
    first vertices of the j-subsets are blocks of those of the (j-1)-subsets,
    and both rank starts are prefix sums of first vertices: edge_rank0 over
    the windows before b, front_rank0 over the (k-2)-subsets before b[:-1].
    """
    if k < 2:
        raise ValueError("windows need k >= 2")
    lower, firsts = [0], list(range(n))
    for j in range(2, k):
        lower, firsts = firsts, list(
            chain.from_iterable(firsts[: comb(v, j - 1)] for v in range(j - 1, n))
        )
    lower_starts = list(accumulate(lower, initial=0))
    front_starts = chain.from_iterable(
        lower_starts[: comb(v, k - 2)] for v in range(k - 2, n)
    )
    return list(zip(accumulate(firsts, initial=0), front_starts, firsts))
