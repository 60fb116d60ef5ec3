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

from math import comb
from typing import Iterator


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


def colex_windows(n: int, k: int) -> list[tuple[int, int, int]]:
    """One (edge_rank0, front_rank0, m) triple per (k-1)-subset b of range(n).

    Triples come in colex order of b, so the list position is b's rank.  For
    a < m = b[0], the edge (a,) + b has rank edge_rank0 + a and its front
    window (a,) + b[:-1] has rank front_rank0 + a.

    Both starts follow from the colex rank sum: edge_rank0 is the rank of
    (0,) + b, the first vertices of the windows before b summed, and
    front_rank0 drops the term of the last vertex v, C(v, k), from it.  One
    walk over the windows builds the list, in time and memory linear in its
    length for every k.
    """
    if k < 2:
        raise ValueError("windows need k >= 2")
    out = []
    append = out.append
    edge0 = last = top = 0
    for b in colex_walk(n, k - 1):
        if b[-1] != last:
            last = b[-1]
            top = comb(last, k)
        m = b[0]
        append((edge0, edge0 - top, m))
        edge0 += m
    return out
