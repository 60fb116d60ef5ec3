"""Recursive universes of order-k structures over a box.

The order-2 universe over the box [n_1] x ... x [n_d] is the grid of its
points, contained in one another via the coordinatewise order.  For k >= 3
an order-k structure is a down-set of the order-(k-1) universe, stored as a
bitmask over the parent's element list (bit i = the i-th smallest parent
element).  Because the parent list is sorted, structurally equal members
share one canonical index, and containment is a mask test.

The linear order on structures extends containment.  Points compare
lexicographically with coordinate 1 most significant.  Masks compare by
their lowest differing bit: the structure missing that parent element is
the smaller one.  Equivalently, read each mask as a 0/1 vector indexed by
the sorted parent list and compare those vectors lexicographically.

``delta`` maps a pair F, F' with F not containing F' to the smallest
element of F' \\ F, one order down; the k-uniform coloring reduces each
edge's chain of structures by it, pair by pair, until a pair of grid
points is left.  The chain of deltas preserves non-containment: if F1, F2,
F3 are successively non-containing then delta(F1, F2) is a member of F2
while delta(F2, F3) is not, and members of a down-set are closed under
containment.
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from math import comb
from operator import and_, or_

from .budget import meter
from .counting import box_size, box_text, enumerate_order_ideals


class Universe:
    """The set of all order-k structures over a box, sorted ascending."""

    def __init__(self, k, elements, parent=None):
        self.k = k
        self.elements = tuple(elements)
        self.parent = parent
        self._pred_masks: list[int] | None = None

    @property
    def size(self) -> int:
        return len(self.elements)

    def subset_le(self, a, b) -> bool:
        """a contained in b (coordinatewise for points, set-wise for masks)."""
        if self.k == 2:
            return all(x <= y for x, y in zip(a, b))
        return a & ~b == 0

    def delta(self, a, b):
        """Smallest element of b \\ a; defined when a does not contain b."""
        if self.k == 2:
            raise ValueError("delta needs structures of order >= 3")
        diff = b & ~a
        if diff == 0:
            raise ValueError("delta undefined: left structure contains right one")
        idx = (diff & -diff).bit_length() - 1
        return self.parent.elements[idx]

    def pred_masks(self, wm=None) -> list[int]:
        """Strict-containment predecessor masks over element indices.

        Built from bitsets of whole columns, one per coordinate value of the
        points or per parent element of the masks, but paid as the pairs it
        decides: one unit per pair (j, i), j <= i, paid before the build, so
        callers holding a work meter should pass it.  The cached result is
        reused, unpaid, on later calls.
        """
        if self._pred_masks is None:
            els = self.elements
            if wm is not None:
                wm.prepay(len(els) * (len(els) + 1) // 2)
            self._pred_masks = _points_below(els) if self.k == 2 else _masks_below(els)
        return self._pred_masks

    def element_json(self, el):
        """A point as a coordinate list, a mask as its sorted parent-index list."""
        return list(el) if self.k == 2 else list(_bits(el))


def _bits(mask: int):
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _points_below(points) -> list[int]:
    """Per point, the bitset of the earlier points below it coordinatewise:
    the AND, over its coordinates, of the points whose coordinate there is
    at most its own."""
    at_most = []
    for column in zip(*points):
        upto: dict[int, int] = {}
        for i, x in enumerate(column):
            upto[x] = upto.get(x, 0) | 1 << i
        below = 0
        for x in sorted(upto):
            below = upto[x] = below | upto[x]
        at_most.append(upto)
    return [reduce(and_, map(dict.__getitem__, at_most, p)) & (1 << i) - 1
            for i, p in enumerate(points)]


def _masks_below(masks) -> list[int]:
    """Per mask, the bitset of the earlier masks it contains: those holding
    none of the parent elements it lacks.  ``has[b]`` is the bitset of the
    masks that hold parent element b."""
    width = max(masks).bit_length() or 1
    # the masks' bits as one string, a row of width digits per mask, read
    # by columns: the column of bit b is every width-th digit from its own
    rows = "".join(f"{m:0{width}b}" for m in reversed(masks))
    has = [int(rows[width - 1 - b :: width], 2) for b in range(width)]
    full = (1 << width) - 1
    return [~reduce(or_, map(has.__getitem__, _bits(full & ~m)), 0) & (1 << i) - 1
            for i, m in enumerate(masks)]


def build_universe(k: int, box: tuple[int, ...], *, budget: int | None = None) -> Universe:
    """Materialize the chain of universes up to order k over the box with
    sides ``box`` and return the top one; [n]^d is the box ``(n,) * d``.

    Each universe below the top pays for its containment masks, which the
    ideals of the next order are enumerated from; a caller that needs the
    top one's masks pays for them through ``pred_masks``.  The grid's masks
    are paid before its points are built, so a budget that cannot pay for
    them stops the build before the grid takes any memory.
    """
    if k < 2:
        raise ValueError("order must be >= 2")
    box = tuple(box)
    if not box or min(box) < 1:
        raise ValueError("need d >= 1 and n >= 1")
    wm = meter(budget, f"universe of order {k} over {box_text(box)}")
    points = box_size(box)
    wm.charge(points)
    if k > 2:
        wm.prepay(comb(points + 1, 2))
    # a product of ascending ranges lists the points in lexicographic order
    uni = Universe(2, product(*(range(1, side + 1) for side in box)))
    if k > 2:
        uni.pred_masks()  # paid above
    for order in range(3, k + 1):
        ideals = enumerate_order_ideals(uni.pred_masks(wm), wm)
        width = uni.size
        keyed = []
        for m in ideals:
            wm.charge(1 + (width >> 6))
            # the mask's bits reversed, element 0 most significant
            keyed.append((int(f"{m:0{width}b}"[::-1], 2), m))
        keyed.sort()
        uni = Universe(order, [m for _, m in keyed], parent=uni)
    return uni
