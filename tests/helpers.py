"""Brute-force oracles, deliberately sharing no machinery with the package.

Everything here scans a full search space: subsets for down-set counts,
value assignments for box partitions, vertex sequences for monotone paths.
Tiny instances only.  The one exception is ``tuple_box_partitions``, the
frontier DP with a tuple window and a charge per unit, kept as the metering
reference for the packed-window DP in :mod:`monopath.counting`.
"""

from __future__ import annotations

from itertools import combinations, product
from math import prod


def brute_box_partitions(shape: tuple[int, ...], bound: int) -> int:
    """Count arrays over ``shape`` with values 0..bound weakly decreasing per axis."""
    cells = list(product(*(range(s) for s in shape)))
    index = {c: i for i, c in enumerate(cells)}
    count = 0
    for values in product(range(bound + 1), repeat=len(cells)):
        ok = True
        for c in cells:
            for t in range(len(shape)):
                if c[t] > 0:
                    prev = c[:t] + (c[t] - 1,) + c[t + 1 :]
                    if values[index[c]] > values[index[prev]]:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            count += 1
    return count


def tuple_box_partitions(shape: tuple[int, ...], bound: int, wm) -> int:
    """The frontier DP over tuple windows, charging ``wm`` unit by unit.

    Same cell order, state order and units as ``count_box_partitions``: one
    per transition, plus the window size for every new state.
    """
    m = len(shape)
    if m == 0:
        return bound + 1
    strides = [prod(shape[t + 1 :]) for t in range(m)]
    window = strides[0]
    states: dict[tuple[int, ...], int] = {(): 1}
    for cell in product(*(range(s) for s in shape)):
        offsets = [strides[t] for t in range(m) if cell[t] > 0]
        nxt: dict[tuple[int, ...], int] = {}
        for win, cnt in states.items():
            filled = len(win)
            cap = bound
            for off in offsets:
                v = win[filled - off]
                if v < cap:
                    cap = v
            for v in range(cap + 1):
                wm.charge()
                nw = win + (v,)
                if len(nw) > window:
                    nw = nw[1:]
                if nw in nxt:
                    nxt[nw] += cnt
                else:
                    wm.charge(window)
                    nxt[nw] = cnt
        states = nxt
    return sum(states.values())


def brute_ideal_masks(pred_masks: list[int]) -> list[int]:
    """All down-set masks of a poset, by scanning every subset."""
    m = len(pred_masks)
    out = []
    for s in range(1 << m):
        rest = s
        ok = True
        while rest:
            i = (rest & -rest).bit_length() - 1
            if pred_masks[i] & ~s:
                ok = False
                break
            rest &= rest - 1
        if ok:
            out.append(s)
    return out


def brute_longest(coloring) -> dict[int, int]:
    """Per-color longest monotone path length, by extending every sequence."""
    k, q = coloring.k, coloring.q
    best = {c: 0 for c in range(1, q + 1)}

    def grow(seq: list[int], color: int) -> None:
        length = len(seq) - k + 1
        if length > best[color]:
            best[color] = length
        for v in range(seq[-1] + 1, coloring.N):
            if coloring.color_of(tuple(seq[-(k - 1) :]) + (v,)) == color:
                grow(seq + [v], color)

    for first in combinations(range(coloring.N), k):
        grow(list(first), coloring.color_of(first))
    return best


def brute_witness(coloring, color: int, length: int) -> tuple[int, ...] | None:
    """Lexicographically first vertex sequence of a monochromatic path.

    Starting edges come out of ``combinations`` in lexicographic order and
    extensions are tried in ascending order, so the first hit is the lex-min
    sequence with exactly ``length`` edges in the given color.
    """
    k = coloring.k
    want = length + k - 1

    def grow(seq: list[int]) -> tuple[int, ...] | None:
        if len(seq) == want:
            return tuple(seq)
        for v in range(seq[-1] + 1, coloring.N):
            if coloring.color_of(tuple(seq[-(k - 1) :]) + (v,)) == color:
                got = grow(seq + [v])
                if got is not None:
                    return got
        return None

    for first in combinations(range(coloring.N), k):
        if coloring.color_of(first) == color:
            got = grow(list(first))
            if got is not None:
                return got
    return None
