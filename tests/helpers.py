"""Brute-force oracles, deliberately sharing no algorithm with the package.

Everything here scans a full search space: subsets for down-set and
antichain counts, value assignments for box partitions, vertex sequences for
monotone paths.  Tiny instances only.  ``count_antichains`` is the exception
that reaches larger boxes: it counts antichains as independent sets of the
comparability graph under a work meter, sharing no machinery with the
frontier DP that counts down-sets.  Three more exceptions are kept as
metering references: ``tuple_box_partitions``, the frontier DP with a tuple
window and a charge per unit, for the packed-window DP in
:mod:`monopath.counting`; ``dict_longest_mono``, the path DP over dicts
keyed by window tuples, for the flat window-rank sweeps in
:mod:`monopath.paths`; and ``dict_label_vectors`` with
``dict_downset_labels``, the label recursion over dicts keyed by tuples,
for the label tables of :mod:`monopath.paths`, indexed by colex rank and
read off the forward tables of a path scan.  The reference's labels are
masks over whole universes and the engine's are masks over the labels that
occur one size up, so the two agree on which labels are equal or contain
one another, not bit for bit.  ``label_order_by_recursion`` decides that
containment from its definition alone, for colorings whose universes no
budget builds.  The extremal colorings have references too, for the
builds in :mod:`monopath.colorings` that reduce
the chains of all edges together, one level table at a time: ``delta_chain_colors`` reduces every edge's delta
chain on its own, and ``first_difference_colors`` compares first
differences edge by edge; ``level_step_colors`` takes one level step of
the build subset by subset.  ``pairwise_pred_masks`` tests containment
pair by pair, for ``Universe.pred_masks``, which builds the masks from
bitsets of whole columns; it and the references above decode grid
elements to points with ``grid_point`` and compare those coordinatewise,
where the engine compares threshold masks.  ``tuple_transitivity`` is the
transitivity scan that ranks every window of every tuple, charging a unit
per tuple, for the bulk-paid scan in :mod:`monopath.colorings`, and
``whole_file_load`` reads a coloring file with ``json.load`` alone, for
``EdgeColoring.load``, which reads the colors of a saved file as bytes.
"""

from __future__ import annotations

import json
from array import array
from functools import cache
from itertools import combinations, product
from math import comb, prod

from monopath.budget import meter
from monopath.colorings import EdgeColoring
from monopath.counting import GridBox
from monopath.universes import build_universe


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


def grid_pred_masks(box: GridBox) -> list[int]:
    """Cover-predecessor masks of the grid points, in ``box.points()`` order."""
    points = box.points()
    index = {p: i for i, p in enumerate(points)}
    masks = []
    for p in points:
        pm = 0
        for i, c in enumerate(p):
            if c > 1:
                pm |= 1 << index[p[:i] + (c - 1,) + p[i + 1 :]]
        masks.append(pm)
    return masks


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


def dominates(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    """True iff x_i <= y_i for every coordinate i."""
    if len(x) != len(y):
        raise ValueError(f"point dimensions differ: {len(x)} vs {len(y)}")
    return all(a <= b for a, b in zip(x, y))


_EXHAUSTIVE_CAP = 20


def count_antichains_exhaustive(box: GridBox) -> int:
    """Scan all subsets and keep the pairwise incomparable ones.  Tiny boxes only."""
    m = box.size
    if m > _EXHAUSTIVE_CAP:
        raise ValueError(f"box has {m} points; exhaustive scan capped at {_EXHAUSTIVE_CAP}")
    points = box.points()
    comp = [0] * m
    for i, x in enumerate(points):
        for j, y in enumerate(points):
            if i != j and (dominates(x, y) or dominates(y, x)):
                comp[i] |= 1 << j
    count = 0
    for s in range(1 << m):
        rest = s
        ok = True
        while rest:
            i = (rest & -rest).bit_length() - 1
            if comp[i] & s:
                ok = False
                break
            rest &= rest - 1
        if ok:
            count += 1
    return count


def count_antichains(box: GridBox, *, budget: int | None = None) -> int:
    """Antichains of [n]^d, counted as independent sets of the comparability graph.

    Branch on a vertex of maximum remaining degree (in the set / out of the
    set), memoizing on the mask of still-available vertices.  This shares no
    machinery with the frontier DP, so agreement of the two counts checks the
    down-set / antichain bijection computationally.
    """
    wm = meter(budget, f"antichain count in [{box.n}]^{box.d}")
    points = box.points()
    m = len(points)
    comp = [0] * m
    for i, x in enumerate(points):
        for j in range(i + 1, m):
            y = points[j]
            if dominates(x, y) or dominates(y, x):
                comp[i] |= 1 << j
                comp[j] |= 1 << i
    memo: dict[int, int] = {}

    def count(avail: int) -> int:
        if avail == 0:
            return 1
        cached = memo.get(avail)
        if cached is not None:
            return cached
        wm.charge()
        best, best_deg = -1, -1
        rest = avail
        while rest:
            i = (rest & -rest).bit_length() - 1
            deg = (comp[i] & avail).bit_count()
            if deg > best_deg:
                best, best_deg = i, deg
            rest &= rest - 1
        if best_deg == 0:
            result = 1 << avail.bit_count()
        else:
            without = count(avail & ~(1 << best))
            with_v = count(avail & ~((1 << best) | comp[best]))
            result = without + with_v
        memo[avail] = result
        return result

    return count((1 << m) - 1)


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
    """The colex-least vertex sequence of a monochromatic path: of all the
    sequences with exactly ``length`` edges in the given color, the one
    whose reverse is lexicographically least.  Every vertex subset of the
    right size is tried.
    """
    k = coloring.k
    best = None
    for seq in combinations(range(coloring.N), length + k - 1):
        if best is not None and seq[::-1] >= best:
            continue
        if all(coloring.color_of(seq[i : i + k]) == color for i in range(length)):
            best = seq[::-1]
    return None if best is None else best[::-1]


def _dict_forward(coloring, wm):
    """L_c per window tuple, edges swept in colex order.  Dicts default to 0."""
    vals: list[dict] = [{} for _ in range(coloring.q + 1)]
    wm.charge(coloring.num_edges)
    for edge, c in coloring.edges():
        front, back = edge[:-1], edge[1:]
        v = vals[c]
        cand = v.get(front, 0) + 1
        if cand > v.get(back, 0):
            v[back] = cand
    return vals


def _dict_witness(coloring, color, lmax, fvals: dict, wm) -> tuple[int, ...]:
    """A path of lmax edges, rebuilt backwards from L_color: from the
    colex-least window of value lmax, step back to the least a whose edge
    (a,) + w has the color and whose front is one shorter."""
    w = min((w for w, val in fvals.items() if val == lmax), key=lambda t: t[::-1])
    verts = list(w)
    for need in range(lmax - 1, -1, -1):
        for a in range(w[0]):
            wm.charge()
            front = (a,) + w[:-1]
            if coloring.color_of((a,) + w) == color and fvals.get(front, 0) == need:
                verts.insert(0, a)
                w = front
                break
        else:
            raise AssertionError("forward DP admits no predecessor")
    return tuple(verts)


def dict_longest_mono(coloring, wm, want_witnesses: bool = True):
    """(maxima, witness vertex tuples or None) by the dict-of-tuples path DP.

    Same units as ``longest_mono``: one per window, one per edge for the
    one sweep, one per candidate a a witness step examines.
    """
    q = coloring.q
    wm.charge(comb(coloring.N, coloring.k - 1))
    fvals = _dict_forward(coloring, wm)
    maxima = {c: max(fvals[c].values(), default=0) for c in range(1, q + 1)}
    if not want_witnesses:
        return maxima, None
    wits = {
        c: _dict_witness(coloring, c, maxima[c], fvals[c], wm) if maxima[c] > 0 else None
        for c in range(1, q + 1)
    }
    return maxima, wits


def dict_label_vectors(coloring, wm) -> dict:
    """C(w) for every window tuple, with the units of the label vector stage
    of ``_label_levels``: one per window and one per edge."""
    k, q, big = coloring.k, coloring.q, coloring.N
    wm.charge(comb(big, k - 1))
    fvals = _dict_forward(coloring, wm)
    return {
        w: tuple(fvals[c].get(w, 0) + 1 for c in range(1, q + 1))
        for w in combinations(range(big), k - 1)
    }


def dict_downset_labels(coloring, n: int, r: int, budget) -> dict:
    """The labels of all r-tuples, for an n that no color's longest path
    reaches, by the recursion over dicts keyed by tuples, as masks over the
    universe one level down.  On the stage meters of ``_label_levels``: one
    unit per (x, t) pair, one at a time, after the universes and the
    containment masks of the one below; ``_label_levels``, which compares
    only the labels that occur, pays at most that."""
    k, q, big = coloring.k, coloring.q, coloring.N
    wm = meter(budget, f"label vectors on {coloring.num_edges} edges")
    upper = dict_label_vectors(coloring, wm)
    if r == k - 1:
        return upper
    wm = meter(budget, "down-set label recursion")
    top = build_universe(k - 1, (n,) * q, budget=budget)
    unis = {}
    while top is not None:
        unis[top.k] = top
        top = top.parent
    box = (n,) * q
    for j in range(k - 2, r - 1, -1):
        lower = unis[k - j]
        pred = lower.pred_masks(wm)  # paid as the engine pays for its masks
        els = lower.elements
        if lower.k == 2:  # the label vectors are points: decode the grid
            pred = pairwise_pred_masks(lower, box)
            els = [grid_point(m, box) for m in els]
        pmask = [pm | 1 << i for i, pm in enumerate(pred)]
        index = {el: i for i, el in enumerate(els)}
        level = {}
        for t in combinations(range(1, big), j):
            acc = 0
            for x in range(t[0]):
                wm.charge()
                acc |= pmask[index[upper.get((x,) + t, 0)]]
            level[t] = acc
        upper = level
    return {t: upper.get(t, 0) for t in combinations(range(big), r)}


def label_order_by_recursion(coloring):
    """``within(s, t)``: whether the down-set label of tuple s lies within
    that of tuple t, for tuples of one size, from the definition alone.

    At size k - 1 the label vectors compare coordinatewise.  Below that,
    every label of (x,) + s, x < s[0], must lie under one of (y,) + t,
    y < t[0], so a tuple at vertex 0, with no such label, lies within every
    other and contains no other.  No masks and no universes; memoized per
    pair of tuples, unmetered."""
    k = coloring.k
    vectors = dict_label_vectors(coloring, meter(10**9, "label vectors"))

    @cache
    def within(s, t):
        if len(s) == k - 1:
            return all(a <= b for a, b in zip(vectors[s], vectors[t]))
        return all(any(within((x,) + s, (y,) + t) for y in range(t[0])) for x in range(s[0]))

    return within


def dict_pred_path(coloring, t: tuple[int, ...]) -> tuple[int, ...]:
    """The longest path in t's color ending with edge t, rebuilt from a
    predecessor dict that keeps the front of the first strict improvement."""
    vals: dict = {}
    preds: dict = {}
    col = coloring.color_of(t)
    for edge, c in coloring.edges():
        if c != col:
            continue
        front, back = edge[:-1], edge[1:]
        cand = vals.get(front, 0) + 1
        if cand > vals.get(back, 0):
            vals[back] = cand
            preds[back] = front
    w = t[:-1]
    seq = list(w)
    for _ in range(vals.get(w, 0)):
        w = preds[w]
        seq.insert(0, w[0])
    return tuple(seq) + (t[-1],)


def brute_monotone_arrays(shape: tuple[int, ...], bound: int) -> list[tuple[int, ...]]:
    """Flat arrays over ``shape`` with values 0..bound weakly decreasing per
    axis, in lexicographic order, by filtering every value assignment."""
    cells = list(product(*(range(s) for s in shape)))
    index = {c: i for i, c in enumerate(cells)}
    steps = [(index[c], index[c[:t] + (c[t] - 1,) + c[t + 1 :]])
             for c in cells for t in range(len(shape)) if c[t] > 0]
    return [values for values in product(range(bound + 1), repeat=len(cells))
            if all(values[i] <= values[j] for i, j in steps)]


def first_difference_colors(q: int, bounds: tuple[int, ...]) -> array:
    """The 3-uniform coloring edge by edge: the edge A < B < C gets the first
    coordinate where the index of delta(B, C) exceeds that of delta(A, B),
    else q."""
    shape = tuple(bounds[: q - 1])
    verts = brute_monotone_arrays(shape, bounds[q - 1])
    idx_tuples = list(product(*(range(1, s + 1) for s in shape)))

    def first_diff(a, b):
        return next(pos for pos, (x, y) in enumerate(zip(a, b)) if x != y)

    colors = array("B")
    for a, b, c in sorted(combinations(range(len(verts)), 3), key=lambda e: e[::-1]):
        d_ab = idx_tuples[first_diff(verts[a], verts[b])]
        d_bc = idx_tuples[first_diff(verts[b], verts[c])]
        colors.append(next((t + 1 for t in range(q - 1) if d_bc[t] > d_ab[t]), q))
    return colors


def delta_chain_colors(k: int, n: int, d: int = 2) -> array:
    """The k-uniform coloring edge by edge: reduce the edge's k structures by
    ``Universe.delta`` k-2 times, then decode the two grid points left and
    take the first coordinate where the left one is below the right one."""
    uni = build_universe(k, (n,) * d)
    els = uni.elements
    colors = array("B")
    for edge in sorted(combinations(range(uni.size), k), key=lambda e: e[::-1]):
        chain = [els[i] for i in edge]
        level = uni
        while len(chain) > 2:
            chain = [level.delta(a, b) for a, b in zip(chain, chain[1:])]
            level = level.parent
        x, y = (grid_point(m, (n,) * d) for m in chain)
        colors.append(next(t + 1 for t in range(d) if x[t] < y[t]))
    return colors


def level_step_colors(big: int, j: int, table: list, cols: list) -> list:
    """One level step of the iterated-delta build, subset by subset: the
    (j+1)-subset s of range(big) gets ``cols[table[s[1:]]][table[s[:-1]]]``,
    with ``table`` indexed by the rank of a j-subset in colex order."""
    def colex(r):
        return sorted(combinations(range(big), r), key=lambda e: e[::-1])

    rank = {t: i for i, t in enumerate(colex(j))}
    return [cols[table[rank[s[1:]]]][table[rank[s[:-1]]]] for s in colex(j + 1)]


def grid_point(mask: int, box: tuple[int, ...]) -> tuple[int, ...]:
    """The point of ``box`` a grid element stands for: coordinate i is one
    more than the set bits in its block, the n_i - 1 bits after those of
    the coordinates before it."""
    point = []
    for side in box:
        point.append(1 + (mask & (1 << side - 1) - 1).bit_count())
        mask >>= side - 1
    return tuple(point)


def pairwise_pred_masks(uni, box: tuple[int, ...]) -> list[int]:
    """Strict-containment predecessor masks of a universe over ``box``, pair
    by pair: bit j of element i's mask is set when element j < i is
    contained in it.  Grid elements are decoded and compared coordinatewise,
    the others compared as sets of their bits."""
    if uni.k == 2:
        els = [grid_point(m, box) for m in uni.elements]
        def le(a, b):
            return all(x <= y for x, y in zip(a, b))
    else:
        els = uni.elements
        def le(a, b):
            return a & ~b == 0
    masks = []
    for i, b in enumerate(els):
        pm = 0
        for j in range(i):
            if le(els[j], b):
                pm |= 1 << j
        masks.append(pm)
    return masks


def tuple_transitivity(coloring, wm):
    """The first (k+1)-tuple, in lexicographic order, whose two consecutive
    k-windows share a color that another of its k-subsets lacks; True if
    none.  One unit per tuple, charged before the tuple is looked at."""
    k = coloring.k
    for tup in combinations(range(coloring.N), k + 1):
        wm.charge()
        front = coloring.color_of(tup[:k])
        if coloring.color_of(tup[1:]) != front:
            continue
        for drop in range(1, k):
            if coloring.color_of(tup[:drop] + tup[drop + 1 :]) != front:
                return tup
    return True


def whole_file_load(path):
    """The coloring a file describes, by ``json.load`` of the whole file and
    ``EdgeColoring.from_json_dict``, or the text of the ValueError that
    ``EdgeColoring.load`` raises for it."""
    try:
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} is not valid JSON: {exc}") from exc
        return EdgeColoring.from_json_dict(data)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
