"""Recursive universes of order-k structures over a grid.

The order-2 universe over [n]^d is the grid itself; its structures are
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
element of F' \\ F; iterating it pairwise down a chain (``delta_star``)
lands on a grid point.  The chain of deltas preserves non-containment: if
F1, F2, F3 are successively non-containing then delta(F1, F2) is a member
of F2 while delta(F2, F3) is not, and members of a down-set are closed
under containment.  ``check_delta_chain`` verifies that property.
"""

from __future__ import annotations

from itertools import product

from .budget import meter
from .counting import enumerate_order_ideals


class Universe:
    """The set of all order-k structures over [n]^d, sorted ascending."""

    def __init__(self, k, d, n, elements, parent=None):
        self.k = k
        self.d = d
        self.n = n
        self.elements = tuple(elements)
        self.parent = parent
        self._index = {el: i for i, el in enumerate(self.elements)}
        self._pred_masks: list[int] | None = None
        self._principal_masks: list[int] | None = None

    @property
    def size(self) -> int:
        return len(self.elements)

    def index_of(self, el) -> int:
        try:
            return self._index[el]
        except KeyError:
            raise ValueError(f"not an order-{self.k} structure here: {el!r}") from None

    def subset_le(self, a, b) -> bool:
        """a contained in b (coordinatewise for points, set-wise for masks)."""
        if self.k == 2:
            return all(x <= y for x, y in zip(a, b))
        return a & ~b == 0

    def lex_compare(self, a, b) -> int:
        """-1, 0, or 1 as a precedes, equals, or follows b."""
        if self.k == 2:
            return -1 if a < b else (0 if a == b else 1)
        diff = a ^ b
        if diff == 0:
            return 0
        low = diff & -diff
        return -1 if b & low else 1

    def delta(self, a, b):
        """Smallest element of b \\ a; defined when a does not contain b."""
        if self.k == 2:
            raise ValueError("delta needs structures of order >= 3")
        diff = b & ~a
        if diff == 0:
            raise ValueError("delta undefined: left structure contains right one")
        idx = (diff & -diff).bit_length() - 1
        return self.parent.elements[idx]

    def delta_star(self, chain):
        """Iterate delta pairwise down to a single grid point.

        ``chain`` is a strictly ascending sequence of k-1 structures of this
        universe; each of the k-2 reduction steps drops one level of order.
        """
        chain = list(chain)
        if len(chain) != self.k - 1:
            raise ValueError(f"need a chain of {self.k - 1} structures, got {len(chain)}")
        level = self
        for a, b in zip(chain, chain[1:]):
            if level.lex_compare(a, b) >= 0:
                raise ValueError("chain is not strictly ascending")
        while len(chain) > 1:
            chain = [level.delta(a, b) for a, b in zip(chain, chain[1:])]
            level = level.parent
        if level.k != 2:
            raise AssertionError("delta reduction did not reach the grid")
        return chain[0]

    def check_delta_chain(self, chain) -> bool:
        """True iff the deltas of successive pairs are successively non-containing."""
        chain = list(chain)
        for a, b in zip(chain, chain[1:]):
            if self.subset_le(b, a):
                raise ValueError("chain has a containment; delta is undefined on it")
        if len(chain) < 3:
            return True
        deltas = [self.delta(a, b) for a, b in zip(chain, chain[1:])]
        par = self.parent
        return all(not par.subset_le(y, x) for x, y in zip(deltas, deltas[1:]))

    def pred_masks(self, wm=None) -> list[int]:
        """Strict-containment predecessor masks over element indices.

        Quadratic in the universe size: one unit per pair (j, i), j <= i,
        paid before the scan, so callers holding a work meter should pass
        it.  The cached result is reused, unpaid, on later calls.
        """
        if self._pred_masks is None:
            els = self.elements
            if wm is not None:
                wm.prepay(len(els) * (len(els) + 1) // 2)
            masks = []
            for i, b in enumerate(els):
                pm = 0
                # the sort order extends containment, so predecessors sit below i
                for j in range(i):
                    if self.subset_le(els[j], b):
                        pm |= 1 << j
                masks.append(pm)
            self._pred_masks = masks
        return self._pred_masks

    def principal_masks(self, wm=None) -> list[int]:
        """For each element, the mask of all elements contained in it (itself
        included).  ``wm`` pays for ``pred_masks`` if they are not cached."""
        if self._principal_masks is None:
            self._principal_masks = [
                pm | (1 << i) for i, pm in enumerate(self.pred_masks(wm))
            ]
        return self._principal_masks

    def element_json(self, el):
        """A point as a coordinate list, a mask as its sorted parent-index list."""
        if self.k == 2:
            return list(el)
        out = []
        rest = el
        while rest:
            out.append((rest & -rest).bit_length() - 1)
            rest &= rest - 1
        return out


def _mask_sort_key(mask: int, width: int) -> int:
    key = 0
    rest = mask
    while rest:
        i = (rest & -rest).bit_length() - 1
        key |= 1 << (width - 1 - i)
        rest &= rest - 1
    return key


def build_universe(k: int, d: int, n: int, *, budget: int | None = None) -> Universe:
    """Materialize the chain of universes up to order k and return the top one."""
    if k < 2:
        raise ValueError("order must be >= 2")
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    wm = meter(budget, f"universe of order {k} over [{n}]^{d}")
    wm.charge(n**d)
    points = sorted(product(range(1, n + 1), repeat=d))
    uni = Universe(2, d, n, points)
    for order in range(3, k + 1):
        ideals = enumerate_order_ideals(uni.pred_masks(wm), wm)
        width = uni.size
        keyed = []
        for m in ideals:
            wm.charge(1 + (width >> 6))
            keyed.append((_mask_sort_key(m, width), m))
        keyed.sort()
        uni = Universe(order, d, n, [m for _, m in keyed], parent=uni)
    return uni
