"""Edge colorings of ordered complete hypergraphs avoiding long monotone paths.

A monotone path of length L in the complete k-uniform hypergraph on vertices
1 < 2 < ... < N is a sequence x_1 < ... < x_{L+k-1} whose L consecutive
k-windows are all edges; length counts edges.  The colorings built here are
the extremal certificates for the lower bounds on the associated Ramsey
numbers, and all of them come from one rule.  The vertices are the order-k
structures over a box, in the universe order of :mod:`monopath.universes`,
which extends containment, from the grid's points, masks over the box's
coordinate thresholds, up.  An edge's k structures are reduced by delta,
pair by pair, k - 1 times; that leaves one threshold, of the first
coordinate where the last two grid points rise, and that coordinate is the
edge's color.  The three families are its cases:

* ``color_graph_lower``, k = 2 over [n]^q: the points in lexicographic
  order, an edge colored by the first coordinate where its ends differ.
  A color-i path raises coordinate i at every step, so none has length n.
* ``color_3uniform_lower``, k = 3 over [n_1] x ... x [n_q]: the down-sets of
  the box, that is the weakly decreasing arrays of their column heights, in
  lexicographic order.  Color i has no monotone path of length n_i.
* ``color_kuniform_lower``, k >= 3 over [n]^d, with the d coordinates as
  colors.

Colors are stored 1-based in a flat byte array indexed by the colex rank of
the sorted edge, which gives O(1) lookup and bit-exact files.  Every pass
over all the colors treats that array as bytes: the range check deletes the
allowed bytes and looks for a remainder, and a file's ``colors`` list of
single digits is written and read as one strided byte slice, the
comma-separated digits of the compact JSON text (see ``EdgeColoring.save``
and ``EdgeColoring.load``).

No build follows an edge on its own.  ``_iterated_delta`` tabulates delta
at every universe level from the top down to the grid, then reduces the
chains of all edges together, one level table per vertex count: what the
chains of the j-subsets reduce to, in colex order.  In that order the
(j+1)-subsets with one back b take their fronts from one block of the
j-subset table, the block list of :mod:`monopath.subsets`, so a block of
the next table is one ``bytes.translate`` of a block of this one.  The
last level table holds a threshold per edge, and one more translate to
their coordinates gives the colors.  The universe and the
colors are paid on one meter: units pay for the edges, every level table
entry and every delta table cell, all before they are built, so no table
grows faster than the budget.
"""

from __future__ import annotations

import json
import os
import random
import re
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, combinations
from math import comb, prod
from operator import xor

from .budget import meter
from .counting import box_size, box_text
from .subsets import colex_rank, subsets_colex, window_runs
from .universes import Universe, build_universe

ENCODING = "colex-rank-array"

# the colors 1..9 and the ASCII digits that spell them
_ONE_TO_NINE = bytes(range(1, 10))
_DIGITS = b"123456789"
_TO_DIGIT = bytes.maketrans(_ONE_TO_NINE, _DIGITS)
_FROM_DIGIT = bytes.maketrans(_DIGITS, _ONE_TO_NINE)
# how ``save`` begins a file: k, q and N, then the colors
_SAVED_HEAD = re.compile(
    rb'\{"k":\d+,"q":\d+,"N":\d+,"encoding":' + re.escape(json.dumps(ENCODING).encode())
    + rb',"colors":\['
)


def _binomial_upto(n: int, k: int, cap: int) -> int | None:
    """C(n, k) when it is at most ``cap``, else None.

    The partial values C(n, j), j <= min(k, n - k), grow with j and are at
    least 2^j, so at most log2(cap) + 1 steps run and no number larger than
    ``cap * n`` is formed.
    """
    if not 0 <= k <= n:
        return 0
    value = 1
    for j in range(1, min(k, n - k) + 1):
        value = value * (n - j + 1) // j
        if value > cap:
            return None
    return value


@dataclass
class EdgeColoring:
    """A q-coloring of all k-subsets of range(N), colex-rank indexed."""

    k: int
    q: int
    N: int
    colors: array
    labels: list | None = None
    meta: dict | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.k < 1 or self.q < 1 or self.N < 0:
            raise ValueError("need k >= 1, q >= 1, N >= 0")
        # no array in memory holds 10^100 colors; a larger C(N, k) is named
        # in the message, not computed
        expected = _binomial_upto(self.N, self.k, 10**100)
        if len(self.colors) != expected:
            shown = f"C({self.N}, {self.k})" if expected is None else expected
            raise ValueError(
                f"expected {shown} colors for N={self.N}, k={self.k}, "
                f"got {len(self.colors)}"
            )
        # delete every allowed byte: anything left is out of range
        allowed = bytes(range(1, min(self.q, 255) + 1))
        try:
            stray = bytes(self.colors).translate(None, allowed)
        except (TypeError, ValueError):  # a list entry that is no byte
            stray = True
        if stray:
            raise ValueError(f"colors must lie in 1..{self.q}")

    @property
    def num_edges(self) -> int:
        return len(self.colors)

    def color_of(self, edge: tuple[int, ...]) -> int:
        if len(edge) != self.k or any(
            edge[i] >= edge[i + 1] for i in range(self.k - 1)
        ):
            raise ValueError(f"edge must be a sorted {self.k}-tuple, got {edge}")
        if edge[-1] >= self.N or edge[0] < 0:
            raise ValueError(f"edge {edge} out of range for N={self.N}")
        return self.colors[colex_rank(edge)]

    def edges(self):
        """(edge, color) pairs in colex (rank) order."""
        for rank, edge in enumerate(subsets_colex(self.N, self.k)):
            yield edge, self.colors[rank]

    def to_json_dict(self) -> dict:
        return self._json_fields(list(self.colors))

    def _json_fields(self, colors: list) -> dict:
        out = {
            "k": self.k,
            "q": self.q,
            "N": self.N,
            "encoding": ENCODING,
            "colors": colors,
        }
        if self.labels is not None:
            out["labels"] = self.labels
        if self.meta is not None:
            out["meta"] = self.meta
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "EdgeColoring":
        return cls._from_fields(data, None)

    @classmethod
    def _from_fields(cls, data: dict, colors: array | None) -> "EdgeColoring":
        """The coloring a parsed file describes.  ``colors``, when given, was
        read from the file's bytes and stands in for ``data["colors"]``."""
        try:
            k, q, n_verts = (_integer(data, key) for key in ("k", "q", "N"))
            encoding = data["encoding"]
            listed = data["colors"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed coloring object: {exc}") from exc
        if encoding != ENCODING:
            raise ValueError(f"unknown coloring encoding {encoding!r}")
        if colors is None:
            # JSON true is no color, though array() would take it for 1
            if type(listed) is not list or not set(map(type, listed)) <= {int}:
                raise ValueError("colors must be a list of small non-negative ints")
            try:
                colors = array("B", listed)
            except OverflowError as exc:
                raise ValueError(f"colors must be small non-negative ints: {exc}") from exc
        return cls(
            k=k,
            q=q,
            N=n_verts,
            colors=colors,
            labels=data.get("labels"),
            meta=data.get("meta"),
        )

    def save(self, path) -> None:
        """Write compact JSON and a newline, through a temporary file.

        The bytes are ``json.dumps(self.to_json_dict(), separators=(",", ":"))``
        and a newline.  When every color is a single digit, the colors are not
        listed as ints: ``json.dumps`` encodes the other fields around an
        empty list, and the colors go in as the color bytes translated to
        ASCII digits, with a comma between two, filled into one byte array
        by strided slice assignment.  Otherwise the C encoder writes the
        whole list.
        """
        raw = bytes(self.colors)
        digits = not raw.translate(None, _ONE_TO_NINE)
        text = json.dumps(self._json_fields([] if digits else list(self.colors)),
                          separators=(",", ":"))
        parts = [text.encode()]
        if digits and raw:
            cut = text.index('"colors":[') + len('"colors":[')
            body = bytearray(b",") * (2 * len(raw) - 1)
            body[::2] = raw.translate(_TO_DIGIT)
            parts = [text[:cut].encode(), body, text[cut:].encode()]
        tmp = f"{path}.tmp"
        with open(tmp, "wb") as fh:
            fh.writelines(parts)
            fh.write(b"\n")
        os.replace(tmp, path)

    @classmethod
    def load(cls, path) -> "EdgeColoring":
        """Read a coloring file.

        A file laid out as ``save`` writes it with single-digit colors, that
        is ASCII starting with ``{"k":K,"q":Q,"N":N,"encoding":...,"colors":[``,
        digits 1-9 and commas up to the first "]", and ``"colors"`` nowhere
        else and no backslash anywhere, has its colors taken as one strided
        byte slice; ``json.loads`` reads the rest, with an empty list in
        their place, and the two make the coloring.  Any other file, and one
        whose rest is no valid JSON, is read by ``json.load`` as a whole, so
        a file gives the same coloring or the same error either way.
        """
        with open(path, "rb") as fh:
            raw = fh.read()
        split = _split_saved(raw)
        if split is not None:
            text, colors = split
            try:
                data = json.loads(text)
            except json.JSONDecodeError:
                pass  # reported in the words of the whole file's parse
            else:
                return cls._from_fields(data, colors)
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} is not valid JSON: {exc}") from exc
        return cls.from_json_dict(data)


def _integer(data: dict, key: str) -> int:
    """``data[key]``, which must be a JSON integer: not a bool, float or string."""
    value = data[key]
    if type(value) is not int:
        raise TypeError(f"{key} must be an integer, not {type(value).__name__}")
    return value


def _split_saved(raw: bytes) -> tuple[str, array] | None:
    """The file's text with its colors cut out, ``"colors":[]``, and the
    colors, when ``raw`` has the layout ``EdgeColoring.load`` reads fast;
    None otherwise.

    With no backslash, a key "colors" is spelled as the one ``"colors"``
    of the file, the top-level key right after the fixed head, so no other
    value can take its place.
    """
    head = _SAVED_HEAD.match(raw)
    if head is None or not raw.isascii() or b"\\" in raw or raw.count(b'"colors"') != 1:
        return None
    start = head.end()
    end = raw.find(b"]", start)
    # "d" or "d,d,...,d": an odd length, or nothing at all
    if end < 0 or (end - start) % 2 == 0 and end > start:
        return None
    digits = raw[start:end:2]
    if digits.translate(None, _DIGITS) or raw[start + 1 : end : 2].translate(None, b","):
        return None
    return (raw[:start] + raw[end:]).decode("ascii"), array("B", digits.translate(_FROM_DIGIT))


# --- the extremal constructions ------------------------------------------------


def _fit_colors(q: int) -> None:
    """Colors are stored a byte each, so a constructor takes at most 255."""
    if q > 255:
        raise ValueError(f"at most 255 colors (one byte per edge), got {q}")


def color_graph_lower(q: int, n: int, *, budget: int | None = None) -> EdgeColoring:
    """The iterated-delta coloring of the complete graph on [n]^q, k = 2.

    Units: those of ``build_universe`` and ``_iterated_delta``, on one meter.
    """
    if q < 1 or n < 1:
        raise ValueError("need q >= 1 and n >= 1")
    _fit_colors(q)
    wm = meter(budget, f"graph coloring over [{n}]^{q}")
    uni, colors = _iterated_delta(2, (n,) * q, wm)
    # point p holds p_i - 1 thresholds of coordinate i
    coords = uni.parent.elements
    labels = [[1 + [coords[t] for t in uni.element_json(m)].count(i) for i in range(1, q + 1)]
              for m in uni.elements]
    return EdgeColoring(k=2, q=q, N=uni.size, colors=colors, labels=labels,
                        meta={"family": "graph", "params": {"q": q, "n": n}})


def _first_differences(steps: list[int]) -> list[list[int]]:
    """pd[j][i], the first position where sorted elements i < j differ,
    from ``steps[j - 1]``, the first position where elements j - 1 and j do.

    That is the least step between them, so it rises with i, and row j is
    row j - 1 cut down to the newest step.
    """
    pd = [[]]
    row: list[int] = []
    for j, step in enumerate(steps, 1):
        cut = bisect_right(row, step)
        row = row[:cut] + [step] * (j - cut)
        pd.append(row)
    return pd


def color_3uniform_lower(
    q: int,
    n: int | None = None,
    *,
    bounds: tuple[int, ...] | None = None,
    budget: int | None = None,
) -> EdgeColoring:
    """The iterated-delta coloring of the complete 3-uniform hypergraph on
    the down-sets of the box [n_1] x ... x [n_q], k = 3.

    Square case: ``n`` bounds every coordinate.  Rectangular case: ``bounds``
    gives (n_1, ..., n_q) and color i admits no monotone path of length n_i.
    The labels are the down-sets' arrays of column heights, nested by axis.

    Units: those of ``build_universe`` and ``_iterated_delta``, on one meter.
    """
    if q < 2:
        raise ValueError("need q >= 2 colors")
    _fit_colors(q)
    if bounds is None:
        if n is None:
            raise ValueError("give n or bounds")
        bounds = (n,) * q
    elif n is not None:
        raise ValueError("give n or bounds, not both")
    if len(bounds) != q or any(b < 1 for b in bounds):
        raise ValueError(f"bounds must be {q} positive integers, got {bounds}")
    wm = meter(budget, f"3-uniform coloring over {box_text(bounds)}")
    uni, colors = _iterated_delta(3, bounds, wm)
    labels = [_heights(tuple(bounds), m) for m in uni.elements]
    params = {"q": q, "bounds": list(bounds)}
    if bounds == (bounds[0],) * q:
        params["n"] = bounds[0]
    return EdgeColoring(k=3, q=q, N=uni.size, colors=colors, labels=labels,
                        meta={"family": "3uniform", "params": params})


def _heights(box: tuple[int, ...], mask: int):
    """The down-set ``mask`` of ``box`` as its column heights, nested by axis.

    The grid lists the points of each slice of the first axis together, so
    a slice is one run of bits, and a column's height is its count of bits.
    """
    if len(box) == 1:
        return mask.bit_count()
    run = prod(box[1:])
    return [_heights(box[1:], mask >> (i * run) & (1 << run) - 1) for i in range(box[0])]


def _delta_columns(uni, wm) -> list[list[int]]:
    """cols[j][i] = index in the parent level of delta(els[i], els[j]), for
    every ordered pair, with the parent's size where delta is undefined.

    Each column ends with an undefined entry and one last column is all
    undefined, so an undefined index stays undefined through every later
    lookup.  One unit per pair, paid first.
    """
    els = uni.elements
    wm.charge(len(els) ** 2)
    none = uni.parent.size
    # the lowest set bit of b & ~a, where there is one
    cols = [[(diff & -diff).bit_length() - 1 if (diff := b & ~a) else none for a in els] + [none]
            for b in els]
    return cols + [[none] * (len(els) + 1)]


def color_kuniform_lower(
    k: int, n: int, d: int = 2, *, budget: int | None = None
) -> EdgeColoring:
    """The iterated-delta coloring of the complete k-uniform hypergraph on
    the order-k structures over [n]^d, k >= 3, with d colors.

    Units: those of ``build_universe`` and ``_iterated_delta``, on one meter.
    """
    if k < 3:
        raise ValueError("need k >= 3")
    _fit_colors(d)
    wm = meter(budget, f"{k}-uniform coloring over [{n}]^{d}")
    uni, colors = _iterated_delta(k, (n,) * d, wm)
    return EdgeColoring(k=k, q=d, N=uni.size, colors=colors,
                        labels=[uni.element_json(el) for el in uni.elements],
                        meta={"family": "kuniform", "params": {"k": k, "d": d, "n": n}})


def _iterated_delta(k: int, box: tuple[int, ...], wm) -> tuple[Universe, array]:
    """The order-k universe over ``box``, k >= 2, and the iterated-delta
    colors of the complete k-uniform hypergraph on its elements.

    The build tabulates delta, as an index one level down, at every level:
    the top level's ascending pairs, then every ordered pair of levels k-1
    down to the grid (a reduced chain need not ascend).  In universe order,
    delta of an ascending pair is where the two first differ, the lowest
    set bit of ``u ^ v``, so the top table is ``_first_differences``.

    Then it reduces all edges together, one vertex count at a time.  H_j
    holds, per j-subset in colex order, what j - 1 reductions leave of its
    chain, a single element: H_2 is the top table read pair by pair.  The
    chain of a (j+1)-subset (a,) + b reduces to delta of what its front
    (a,) + b[:-1] and its back b reduce to, so the block of H_{j+1} with
    back b is the block of fronts in H_j, each looked up in the column of
    H_j[b] (see ``_level_step``).  H_k holds a threshold per edge, and the
    threshold's coordinate is its color.

    Units: those of ``build_universe``, then one per edge, one per entry of
    H_2, ..., H_{k-1} and one per delta table cell, each paid first.  No
    level is smaller than the grid, so the edges and level tables are paid
    at the grid's size before any level is built, and the rest once the
    top level's size is known.
    """
    def tables(big):  # the edges, then H_2, ..., H_{k-1}
        return comb(big, k) + comb(big, 2) + sum(comb(big, j) for j in range(3, k))

    paid = tables(box_size(box))
    wm.charge(paid)
    uni = build_universe(k, box, budget=wm)
    els = uni.elements
    big = len(els)
    wm.charge(tables(big) - paid)
    ups = _first_differences([(x & -x).bit_length() - 1 for x in map(xor, els, els[1:])])
    lookups = []  # delta at levels k-1 down to 2
    level = uni.parent
    while level.parent is not None:
        lookups.append(_delta_columns(level, wm))
        level = level.parent
    table = list(chain.from_iterable(ups))
    for j, cols in enumerate(lookups, 2):
        table = _level_step(big, j, table, cols)
    # a threshold's coordinate, and color 0 for an undefined index
    coords = level.elements + (0,)
    try:
        colors = array("B", bytes(table).translate(bytes(coords[:256]).ljust(256, b"\0")))
    except ValueError:  # an index outside 0..255
        colors = array("B", map(coords.__getitem__, table))
    if b"\0" in colors.tobytes():
        raise AssertionError("delta chain lost non-containment; no rising coordinate")
    return uni, colors


def _level_step(big: int, j: int, table, cols: list[list[int]]):
    """H_{j+1} from H_j, ``table``, over the subsets of range(big).

    The (j+1)-subsets with back b = t + (v,) are (a,) + b, a < t[0], and
    their fronts (a,) + t are consecutive in H_j, the block of t in the
    window index; each front's entry x becomes ``cols[H_j[b]][x]``.  When
    the entries and the columns fit in bytes, each column is kept as a
    256-byte table (only its first 256 entries can be read), and a block is
    one ``bytes.translate``; otherwise one ``__getitem__`` per entry.
    """
    blocks = zip(chain.from_iterable(runs for _, runs in window_runs(big, j + 1)), table)
    try:
        table, cols = bytes(table), [bytes(col[:256]).ljust(256, b"\0") for col in cols]
    except ValueError:  # an entry outside 0..255
        return list(chain.from_iterable(
            map(cols[x].__getitem__, table[f0 : f0 + m]) for (f0, m), x in blocks))
    out = bytearray()
    for (f0, m), x in blocks:
        out += table[f0 : f0 + m].translate(cols[x])
    return out


def random_coloring(
    k: int, q: int, n_vertices: int, seed: int, *, budget: int | None = None
) -> EdgeColoring:
    """A uniformly random q-coloring of all k-subsets, reproducible from seed.

    Units: one per edge, charged before the build.
    """
    if k < 1 or q < 1 or n_vertices < 0:
        raise ValueError("need k >= 1, q >= 1, N >= 0")
    _fit_colors(q)
    edges = comb(n_vertices, k)
    meter(budget, f"random coloring of {edges} edges").charge(edges)
    rng = random.Random(seed)
    colors = array("B", (rng.randint(1, q) for _ in range(edges)))
    return EdgeColoring(
        k=k,
        q=q,
        N=n_vertices,
        colors=colors,
        meta={"family": "random", "params": {"seed": seed}},
    )


# --- transitivity ----------------------------------------------------------------


def is_transitive(coloring: EdgeColoring, *, budget: int | None = None):
    """Check the local consistency of consecutive same-colored edges.

    A coloring is transitive when, for every k+1 ordered vertices whose two
    consecutive k-windows share a color, all other k-subsets of those
    vertices have that color too.  Returns True, or the first violating
    (k+1)-tuple in lexicographic order.  Units: one per tuple scanned.

    The scan fixes the first k vertices p and runs the last one, v, upward.
    Every k-subset of p + (v,) other than p keeps v, and its colex rank is a
    sum fixed by p plus C(v, k); the sums come from binomial tables built
    before the scan, so a tuple costs a few lookups.  Tuples are paid for
    in bulk: each run takes what room the budget has left, and a budget
    that runs out mid-run is charged one unit past its limit, as a unit
    per tuple would be.
    """
    k, big = coloring.k, coloring.N
    wm = meter(budget, "transitivity scan")
    if big < k + 1:
        return True
    colors = coloring.colors
    # vertex i of a (k+1)-tuple lies in i .. i + span - 1.  Its rank term is
    # C(x, i + 1) while no vertex before it is dropped, C(x, i) after
    span = big - k
    kept = [[comb(i + j, i + 1) for j in range(span)] for i in range(k)]
    shifted = [[comb(i + j, i) for j in range(span)] for i in range(k + 1)]
    last = shifted[k]
    room = wm.limit - wm.used
    scanned = 0
    for p in combinations(range(big - 1), k):
        heads = list(accumulate([kept[i][x - i] for i, x in enumerate(p)], initial=0))
        lows = [shifted[i][x - i] for i, x in enumerate(p)]
        tails = list(accumulate(reversed(lows), initial=0))[::-1]
        front = colors[heads[k]]
        # p with vertex d dropped, for d = 0 (the back window) and 1..k-1
        back, *inner = (heads[d] + tails[d + 1] for d in range(k))
        lo = p[-1] + 1
        hi = min(big, lo + room - scanned)
        for v in range(lo, hi):
            c = last[v - k]
            if colors[back + c] == front:
                for base in inner:
                    if colors[base + c] != front:
                        wm.charge(scanned + v - lo + 1)
                        return p + (v,)
        scanned += hi - lo
        if hi < big:
            wm.charge(room + 1)  # the next tuple is one past the budget
    wm.charge(scanned)
    return True


def check_transitivity_witness(coloring: EdgeColoring, tup: tuple[int, ...]) -> bool:
    """Confirm that ``tup`` really violates transitivity for this coloring."""
    k = coloring.k
    if len(tup) != k + 1:
        return False
    front = coloring.color_of(tup[:k])
    back = coloring.color_of(tup[1:])
    if front != back:
        return False
    return any(
        coloring.color_of(tup[:drop] + tup[drop + 1 :]) != front
        for drop in range(1, k)
    )
