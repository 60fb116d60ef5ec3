"""Exact counting of down-sets, partitions, and related rank statistics.

The number of down-sets of the grid [n]^d equals the number of
(d-1)-dimensional arrays with entries in 0..n that are weakly decreasing
along every axis.  Two closed forms are classical:

    d = 2:  C(2n, n)                     (weakly decreasing sequences)
    d = 3:  prod_{1<=i,j,k<=n} (i+j+k-1)/(i+j+k-2)   (MacMahon's product)

For arbitrary d the count is computed by a frontier dynamic program that
scans the cells of the index box in lexicographic order and memoizes on the
sliding window of the last prod(shape[1:]) entries; every monotonicity
constraint looks back at most that far.  The window is packed into one int,
a fixed number of bits per entry, so reading a neighbour and sliding the
window are shifts and masks.  Its work units are one per transition plus the
window size per new state, billed in bulk per batch of states, and a budget
miss raises at the same unit count as billing every unit on its own would.

The grid poset itself is :class:`GridBox`.  The independent oracles these
counts are checked against, subset scans on tiny boxes and antichains
counted as independent sets of the comparability graph, live with the tests
in ``tests/helpers.py``.

Also here: the rank statistic S_n(k, d) counting compositions of k into d
parts from 1..n, rank sizes of the lattice of length-n decreasing sequences
(which follow the Gaussian binomial C(2n, n)_q), and the sizes rho_k of the
recursive down-set universes defined in :mod:`monopath.universes`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, product
from math import comb, prod
from operator import mul

from .budget import WorkMeter, memoized, meter


@dataclass(frozen=True)
class GridBox:
    """The poset [n]^d of d-tuples with entries in 1..n."""

    n: int
    d: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.d < 1:
            raise ValueError(f"box needs n >= 1 and d >= 1, got n={self.n} d={self.d}")

    @property
    def size(self) -> int:
        return self.n**self.d

    def points(self) -> list[tuple[int, ...]]:
        """All points in lexicographic order, coordinate 1 most significant."""
        return list(product(range(1, self.n + 1), repeat=self.d))


def box_text(box: tuple[int, ...]) -> str:
    """The box with these sides as text: [n]^d when all d sides are n, else
    the sides as [n_1]x[n_2]x..., so a long square box stays short."""
    if len(set(box)) == 1:
        return f"[{box[0]}]^{len(box)}"
    return "x".join(f"[{side}]" for side in box)


def box_size(box: tuple[int, ...]) -> int:
    """The box's point count, one power per distinct side: no long product."""
    return prod(side**count for side, count in Counter(box).items())


# --- closed forms -------------------------------------------------------------


def p1_closed(n: int, *, budget: int | None = None) -> int:
    """Down-sets of [n]^2: the central binomial coefficient C(2n, n).

    Units: one per factor of the product C(2n, n) = prod_i (n+i)/i.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return p1_rect(n, n, budget=budget)


def p1_rect(a: int, b: int, *, budget: int | None = None) -> int:
    """Weakly decreasing sequences of length a with entries 0..b: C(a+b, a).

    Units: one per factor of the shorter product C(a+b, min(a, b)), charged
    before the product is taken.
    """
    if a < 0 or b < 0:
        raise ValueError("sides must be >= 0")
    meter(budget, f"binomial C({a + b}, {a})").charge(min(a, b))
    return comb(a + b, a)


def macmahon_rect(a: int, b: int, c: int, *, budget: int | None = None) -> int:
    """MacMahon's box product: plane partitions inside an a x b x c box.

    Units: one per factor, charged once per value of i.
    """
    if min(a, b, c) < 0:
        raise ValueError("sides must be >= 0")
    wm = meter(budget, f"MacMahon product for the {a} x {b} x {c} box")
    value = Fraction(1)
    for i in range(1, a + 1):
        wm.charge(b * c)
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                value *= Fraction(i + j + k - 1, i + j + k - 2)
    if value.denominator != 1:
        raise AssertionError("MacMahon product did not reduce to an integer")
    return value.numerator


def macmahon(n: int, *, budget: int | None = None) -> int:
    """Plane partitions inside the n x n x n box."""
    return macmahon_rect(n, n, n, budget=budget)


# --- frontier dynamic program -------------------------------------------------


def count_box_partitions(
    shape: tuple[int, ...], bound: int, *, budget: int | None = None
) -> int:
    """Arrays over ``shape`` with entries 0..bound, weakly decreasing per axis.

    Cells are scanned in lexicographic index order.  The DP state is the
    window of the last prod(shape[1:]) values, which contains every cell a
    monotonicity constraint can reference, packed into one int at
    ``max(1, bound.bit_length())`` bits per value with the newest value in
    the low bits; a neighbour ``off`` cells back is one shift and mask away.

    Units: one per transition, plus the window size for every new state (new
    states dominate memory, so the budget bounds the frontier, not just the
    time).  They are billed in bulk, for a batch of states that together
    cannot reach the limit.  Once fewer units are left than one state can
    bill, each state is billed unit by unit through the meter, every
    transition and new state before it is stored, so a miss raises at
    exactly the unit count, and with the message, of a charge per
    transition, and holds no state it has not paid for.

    Results, budget misses included, are kept in the process-wide memo of
    :mod:`monopath.budget`, which replays their units on a repeat.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if any(s < 1 for s in shape):
        raise ValueError(f"shape entries must be >= 1, got {shape}")
    if not shape:
        return bound + 1
    wm = meter(budget, f"partition count in shape {box_text(shape)} bound {bound}")
    shape = tuple(shape)
    return memoized(("count_box_partitions", shape, bound), wm,
                    lambda: _frontier_dp(shape, bound, wm))


def _frontier_dp(shape: tuple[int, ...], bound: int, wm: WorkMeter) -> int:
    """The kernel of ``count_box_partitions`` for a non-empty shape."""
    window = box_size(shape[1:])
    per_state = (bound + 1) * (window + 1)  # the most units one state bills
    if wm.limit - wm.used < per_state:
        # index 0's one state bills more than the room holds: bill it unit
        # by unit, as the loop below would, so the miss raises before the
        # suffix products of up to d - 1 sides are formed
        for _ in range(bound + 1):
            wm.charge()
            wm.charge(window)
    m = len(shape)
    strides = list(accumulate(reversed(shape[1:]), mul, initial=1))[::-1]
    bits = max(1, bound.bit_length())
    mask = (1 << bits) - 1
    full = -1  # no value drops out of the window until it has filled
    used = wm.used
    states: dict[int, int] = {0: 1}
    # the cells in lexicographic order, by index: ``product`` of the axis
    # ranges would first store every range, memory no unit pays for
    for index in range(window * shape[0]):
        if index == window:
            full = (1 << (bits * window)) - 1
        shifts = [(strides[t] - 1) * bits for t in range(m) if index // strides[t] % shape[t]]
        nxt: dict[int, int] = {}
        get = nxt.get
        items = iter(states.items())
        left = len(states)
        while left:
            room = max(0, (wm.limit - used) // per_state)
            batch = min(room, left) or 1
            left -= batch
            size = len(nxt)
            extra = 0
            for win, cnt in islice(items, batch):
                cap = bound
                for sh in shifts:
                    v = (win >> sh) & mask
                    if v < cap:
                        cap = v
                extra += cap
                nw = (win << bits) & full
                top = nw + cap
                if not room:
                    break
                # most states make one to three transitions, and a while
                # loop is cheaper for them than building a range per state
                while nw <= top:
                    nxt[nw] = get(nw, 0) + cnt
                    nw += 1
            if room:
                used += batch + extra + window * (len(nxt) - size)
                continue
            # this one state may cross the limit: bill each transition, and
            # each new state, before it is stored
            wm.used = used
            while nw <= top:
                wm.charge()
                if nw not in nxt:
                    wm.charge(window)
                nxt[nw] = get(nw, 0) + cnt
                nw += 1
            used = wm.used
        states = nxt
    wm.used = used
    return sum(states.values())


def count_downsets(box: GridBox, *, budget: int | None = None) -> int:
    """Number of down-sets of [n]^d, via the frontier DP on column heights."""
    return count_box_partitions((box.n,) * (box.d - 1), box.n, budget=budget)


def dedekind(d: int, *, budget: int | None = None) -> int:
    """Down-sets of the Boolean lattice [2]^d (antichain counts of the cube)."""
    return count_downsets(GridBox(2, d), budget=budget)


# --- order ideals of an arbitrary finite poset --------------------------------


def count_order_ideals(
    pred_masks: list[int], *, budget: int | None = None, label: str = "order ideals"
) -> int:
    """Down-sets of a poset given by strict-predecessor bitmasks.

    Element indices must form a linear extension: every bit in pred_masks[i]
    is below i.  The DP walks elements in index order and memoizes on the
    membership pattern of the frontier (processed elements that some
    unprocessed element still lies above).
    """
    m = len(pred_masks)
    if m == 0:
        return 1
    wm = meter(budget, label)
    last_use = [-1] * m
    for i, pm in enumerate(pred_masks):
        if pm >> i:
            raise ValueError("pred_masks is not indexed by a linear extension")
        rest = pm
        while rest:
            j = (rest & -rest).bit_length() - 1
            if i > last_use[j]:
                last_use[j] = i
            rest &= rest - 1
    drops_at = [0] * m
    for j, lu in enumerate(last_use):
        drops_at[max(lu, j)] |= 1 << j
    states: dict[int, int] = {0: 1}
    active = 0
    for i in range(m):
        pm = pred_masks[i]
        bit = 1 << i
        active = (active | bit) & ~drops_at[i]
        nxt: dict[int, int] = {}
        for smask, cnt in states.items():
            wm.charge()
            out = smask & active
            if out in nxt:
                nxt[out] += cnt
            else:
                nxt[out] = cnt
            if smask & pm == pm:
                inc = (smask | bit) & active
                if inc in nxt:
                    nxt[inc] += cnt
                else:
                    nxt[inc] = cnt
        states = nxt
    return sum(states.values())


def enumerate_order_ideals(pred_masks: list[int], wm: WorkMeter) -> list[int]:
    """All down-set bitmasks of a poset given by strict-predecessor masks."""
    m = len(pred_masks)
    out: list[int] = []
    # explicit stack: recursion depth would scale with poset size
    stack = [(0, 0)]
    while stack:
        i, cur = stack.pop()
        wm.charge()
        if i == m:
            out.append(cur)
            continue
        if cur & pred_masks[i] == pred_masks[i]:
            stack.append((i + 1, cur | (1 << i)))
        stack.append((i + 1, cur))
    return out


def count_rho(k: int, d: int, n: int, *, budget=None) -> int:
    """Size of the order-k universe over [n]^d.

    Order 2 is the grid itself, n^d structures, paid one unit per 64-bit
    limb of that power before it is taken, and order 3 is its number of
    down-sets, handled by the frontier DP.  For k >= 4 the order-k structures
    are the down-sets of the order-(k-1) universe, so the count materializes
    that universe and counts its order ideals; all stages share one meter.
    """
    if k < 2:
        raise ValueError("order must be >= 2")
    if k == 3:
        return count_downsets(GridBox(n, d), budget=budget)
    wm = meter(budget, f"size of order-{k} universe (d={d}, n={n})")
    if k == 2:
        wm.charge(d * n.bit_length() // 64 + 1)  # an upper bound on n^d's 64-bit limbs
        return GridBox(n, d).size
    from .universes import build_universe

    # n^d >= 2^(d * (bits of n - 1)): a grid that plainly outgrows the room
    # ends here, before its box or its point count is formed
    room = wm.limit - wm.used
    if d * (n.bit_length() - 1) >= room.bit_length():
        wm.prepay(room + 1)
    parent = build_universe(k - 1, (n,) * d, budget=wm)
    return count_order_ideals(
        parent.pred_masks(wm),
        budget=wm,
        label=f"order ideals of order-{k - 1} universe (d={d}, n={n})",
    )


# --- rank statistics ----------------------------------------------------------


@dataclass(frozen=True)
class RankProfile:
    """Counts by rank: sizes[i] structures have rank start + i."""

    start: int
    sizes: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.sizes)

    @property
    def max_size(self) -> int:
        return max(self.sizes)


def s_profile(n: int, d: int, *, budget: int | None = None) -> RankProfile:
    """Counts of d-tuples from 1..n by coordinate sum (ranks d..dn).

    Units: one per (partial sum, next value) pair, charged once per coordinate.
    """
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    wm = meter(budget, f"rank profile of [{n}]^{d} by coordinate sum")
    ways = [1]
    for _ in range(d):
        wm.charge(len(ways) * n)
        nxt = [0] * (len(ways) + n)
        for total, cnt in enumerate(ways):
            if cnt:
                for v in range(1, n + 1):
                    nxt[total + v] += cnt
        ways = nxt
    return RankProfile(d, tuple(ways[d : d * n + 1]))


def middle_max(n: int, d: int, *, budget: int | None = None) -> tuple[int, int]:
    """(k*, M): the smallest rank attaining the largest count S_n(k, d).

    Units: those of ``s_profile``.
    """
    profile = s_profile(n, d, budget=budget)
    best = max(profile.sizes)
    k_star = profile.start + profile.sizes.index(best)
    return k_star, best


def lnn_rank_sizes(n: int, *, budget: int | None = None) -> RankProfile:
    """Rank sizes of the lattice of decreasing sequences in the n x n box.

    Sequences A_1 >= ... >= A_n with entries 0..n, ranked by sum of entries;
    the generating polynomial is the Gaussian binomial C(2n, n)_q, computed
    by the q-Pascal recurrence.  Enumeration on small n is kept as a test
    oracle.  Units: one per coefficient built, charged once per row m.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    wm = meter(budget, f"rank sizes of line partitions in the {n}-box")
    # row[r] = coefficient list of C(m, r)_q, built up in m
    row: list[list[int]] = [[1]]
    for m in range(1, 2 * n + 1):
        nxt: list[list[int]] = [[1]]
        top = min(m, n)
        # C(m, r)_q has degree r * (m - r)
        wm.charge(sum(r * (m - r) + 1 for r in range(1, top + 1)))
        for r in range(1, top + 1):
            left = row[r - 1] if r - 1 < len(row) else None
            right = row[r] if r < len(row) else None
            coeffs = list(left) if left is not None else []
            if right is not None:
                # q^r * C(m-1, r)_q
                shifted = [0] * r + right
                width = max(len(coeffs), len(shifted))
                coeffs = [
                    (coeffs[i] if i < len(coeffs) else 0)
                    + (shifted[i] if i < len(shifted) else 0)
                    for i in range(width)
                ]
            nxt.append(coeffs)
        row = nxt
    sizes = row[n] if n > 0 else [1]
    expected = n * n + 1
    if len(sizes) != expected:
        raise AssertionError("Gaussian binomial has the wrong degree")
    return RankProfile(0, tuple(sizes))
