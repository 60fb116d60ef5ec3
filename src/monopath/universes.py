"""Recursive universes of order-k structures over a box.

Every level is the set of down-sets of the level below, stored as bitmasks
over the lower level's element list (bit i = the i-th element).  The chain
starts one level under the grid: the order-1 level of the box [n_1] x ...
x [n_d] is its coordinate thresholds, n_i - 1 of them for coordinate i,
each coordinate's a chain, coordinate 1 first; its elements are their
coordinate numbers.  A down-set of disjoint chains takes a prefix of each,
so the order-2 level is the grid: the point p holds the first p_i - 1
thresholds of every coordinate i, and one point lies below another
coordinatewise exactly when its mask is contained in the other's.
Because each list is sorted, structurally equal members share one
canonical index, and containment is a mask test.

The linear order on structures extends containment.  Masks compare by
their lowest differing bit: the structure missing that element is the
smaller one.  Equivalently, read each mask as a 0/1 vector indexed by the
element list and compare those vectors lexicographically; on the grid that
is the lexicographic order of the points, coordinate 1 most significant.
``enumerate_order_ideals`` decides the elements in list order and leaves
each out before it puts it in, so it lists the ideals in this order.

``delta`` maps a pair F, F' with F not containing F' to the smallest
element of F' \\ F, one order down; the k-uniform coloring reduces each
edge's chain of structures by it, pair by pair, until one threshold is
left: delta of two grid points x, y is a threshold of the first coordinate
where x is below y.  The chain of deltas preserves non-containment: if
F1, F2, F3 are successively non-containing then delta(F1, F2) is a member
of F2 while delta(F2, F3) is not, and members of a down-set are closed
under containment.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate, product
from math import comb
from operator import or_

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

    def delta(self, a, b):
        """Smallest element of b \\ a; defined when a does not contain b."""
        diff = b & ~a
        if diff == 0:
            raise ValueError("delta undefined: left structure contains right one")
        idx = (diff & -diff).bit_length() - 1
        return self.parent.elements[idx]

    def pred_masks(self, wm=None) -> list[int]:
        """Strict-containment predecessor masks over element indices.

        Built from bitsets of whole columns, one per element of the level
        below, but paid as the pairs it decides: one unit per pair (j, i),
        j <= i, paid before the build, so callers holding a work meter
        should pass it.  The cached result is reused, unpaid, on later calls.
        """
        if self._pred_masks is None:
            els = self.elements
            if wm is not None:
                wm.prepay(len(els) * (len(els) + 1) // 2)
            self._pred_masks = _masks_below(els)
        return self._pred_masks

    def element_json(self, el):
        """A structure as the sorted index list of its elements one level down."""
        return list(_bits(el))


def _bits(mask: int):
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _masks_below(masks) -> list[int]:
    """Per mask, the bitset of the earlier masks it contains: those holding
    none of the parent elements it lacks.  ``has[b]`` is the bitset of the
    masks that hold parent element b."""
    if not masks:
        return []
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

    Units: one per grid point, which pays for the thresholds too, since a
    box has more points than thresholds.  Each universe below the top, from
    the grid up, pays for its containment masks, which the ideals of the
    next order are enumerated from, and the enumeration pays its own units;
    a caller that needs the top one's masks pays for them through
    ``pred_masks``.  The grid's masks are paid before its points are built,
    so a budget that cannot pay for them stops the build before the grid
    takes any memory.
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
    thresholds = Universe(1, [i for i, side in enumerate(box, 1) for _ in range(side - 1)])
    # coordinate i's values as masks of its block, in a product of ascending
    # lists, lists the points in lexicographic order
    starts = accumulate((side - 1 for side in box), initial=0)
    values = [[(1 << v) - 1 << start for v in range(side)] for start, side in zip(starts, box)]
    uni = Universe(2, map(sum, product(*values)), parent=thresholds)
    if k > 2:
        uni.pred_masks()  # paid above
    for order in range(3, k + 1):
        uni = Universe(order, enumerate_order_ideals(uni.pred_masks(wm), wm), parent=uni)
    return uni
