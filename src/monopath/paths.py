"""Longest monochromatic monotone path DP, label vectors, and certificates.

For a q-colored complete k-uniform hypergraph on 0 < 1 < ... < N-1 the
engine computes, per color, the exact maximum length (in edges) of a
monotone path, with an optional witness.  The DP runs over (k-1)-tuples:
the longest color-c path ending with window w satisfies

    L_c(w) = max over color-c edges {t} u w, t < min(w), of 1 + L_c(front)

and processing edges in colex order makes every front value final before it
is read.  Each sweep keeps one flat list per color, indexed by window rank,
and walks the colex window index of :mod:`monopath.subsets`: per window, the
colors of its incoming edges and the values of their front windows are two
runs of consecutive ranks, so the same loop serves every k.  A mirrored
sweep in reverse colex order yields R_c(w), the longest color-c path
starting with window w, which drives witness reconstruction: growing the
vertex sequence from the front and always taking the smallest feasible next
vertex returns the lexicographically smallest maximum-length witness.

On top of the DP sit the certificate maps.  The label vector of a window is
C(w) = (1 + L_1(w), ..., 1 + L_q(w)); when no color reaches length n these
land in the grid [n]^q.  Down-set labels extend them to shorter tuples,

    D(t) = union of principal ideals of D((x,) + t) over x < min(t),

ending with one order-k structure per vertex.  If no color reaches length
n, the vertex labels are pairwise distinct, which is the pigeonhole
certificate bounding N; a collision would contradict the DP and the
extraction walk turns it into a path longer than the DP's own maximum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .budget import meter
from .colorings import EdgeColoring
from .subsets import colex_rank, colex_walk, colex_windows, subsets_colex
from .universes import Universe, build_universe


@dataclass(frozen=True)
class MonotonePath:
    """A monochromatic monotone path; length is counted in edges."""

    k: int
    color: int
    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) < self.k:
            raise ValueError(f"need at least {self.k} vertices, got {self.vertices}")
        if any(a >= b for a, b in zip(self.vertices, self.vertices[1:])):
            raise ValueError(f"vertices must strictly increase, got {self.vertices}")

    @property
    def length(self) -> int:
        return len(self.vertices) - self.k + 1


def validate_path(coloring: EdgeColoring, path: MonotonePath) -> bool:
    """True iff every consecutive k-window of the path has the stated color."""
    if path.k != coloring.k:
        return False
    vs = path.vertices
    if vs[0] < 0 or vs[-1] >= coloring.N:
        return False
    return all(
        coloring.color_of(vs[i : i + path.k]) == path.color
        for i in range(path.length)
    )


@dataclass(frozen=True)
class PathScan:
    """Per-color maxima (and witnesses) of longest_mono.

    ``forward`` keeps the forward sweep's L_c tables, so the labels of the
    same coloring are read off them instead of a second sweep.
    """

    per_color_max: dict[int, int]
    witnesses: dict[int, MonotonePath | None] | None = None
    forward: list | None = field(default=None, compare=False, repr=False)

    @property
    def overall_max(self) -> int:
        return max(self.per_color_max.values())


def _sweep(coloring: EdgeColoring, windows, wm, reverse: bool) -> list:
    """L_c (forward) or R_c (reverse) per window rank, one flat list per color.

    The forward sweep takes the edges in colex order, so every front value
    is final before it is read; the reverse sweep takes them backwards, so
    every back value is.  One unit per edge.
    """
    colors = coloring.colors
    wm.charge(len(colors))
    tabs = [None] + [[0] * len(windows) for _ in range(coloring.q)]
    if not reverse:
        for w, (e0, f0, m) in enumerate(windows):
            for c, f in zip(colors[e0 : e0 + m], range(f0, f0 + m)):
                tab = tabs[c]
                cand = tab[f] + 1
                if cand > tab[w]:
                    tab[w] = cand
    else:
        for w in range(len(windows) - 1, -1, -1):
            e0, f0, m = windows[w]
            for c, f in zip(colors[e0 : e0 + m], range(f0, f0 + m)):
                tab = tabs[c]
                cand = tab[w] + 1
                if cand > tab[f]:
                    tab[f] = cand
    return tabs


def _lexmin_witness(coloring, color, lmax, rtab: list, wm) -> MonotonePath:
    """Grow the lex-least path of length lmax from the reverse table R_color.

    The start is the lex-least window w with R_color(w) = lmax.  One walk
    over the windows in rank order finds it, comparing the walk's one list
    in place and copying a window only when it is a new least.
    """
    k, big = coloring.k, coloring.N
    colors = coloring.colors
    least = None
    for val, b in zip(rtab, colex_walk(big, k - 1)):
        if val == lmax and (least is None or b < least):
            least = b.copy()
    w = tuple(least)
    verts = list(w)
    for need in range(lmax - 1, -1, -1):
        for v in range(w[-1] + 1, big):
            wm.charge()
            back = w[1:] + (v,)
            if colors[colex_rank(w + (v,))] == color and rtab[colex_rank(back)] == need:
                break
        else:
            raise AssertionError("reverse DP admits no continuation")
        verts.append(v)
        w = back
    return MonotonePath(k=k, color=color, vertices=tuple(verts))


def longest_mono(
    coloring: EdgeColoring, *, want_witnesses: bool = True, budget: int | None = None
) -> PathScan:
    """Exact per-color longest monotone path lengths, with lex-least witnesses.

    Witnesses are None for colors with no edge at all (maximum 0: any k-1
    vertices form a trivial path with no edges).  Units: one per window, one
    per edge for each sweep, and one per witness probe.
    """
    if coloring.k < 2:
        raise ValueError("paths need k >= 2")
    q = coloring.q
    wm = meter(budget, f"path DP on {coloring.num_edges} edges")
    # the window index, each sweep and the witness search walk every window,
    # and at wide k windows far outnumber edges: one unit each, paid first
    wm.charge(comb(coloring.N, coloring.k - 1))
    windows = colex_windows(coloring.N, coloring.k)
    fwd = _sweep(coloring, windows, wm, reverse=False)
    maxima = {c: max(fwd[c], default=0) for c in range(1, q + 1)}
    if not want_witnesses:
        return PathScan(per_color_max=maxima, forward=fwd)
    rev = _sweep(coloring, windows, wm, reverse=True)
    wits = {
        c: (
            _lexmin_witness(coloring, c, maxima[c], rev[c], wm)
            if maxima[c] > 0
            else None
        )
        for c in range(1, q + 1)
    }
    return PathScan(per_color_max=maxima, witnesses=wits, forward=fwd)


def label_vectors(
    coloring: EdgeColoring, *, budget: int | None = None, forward: list | None = None
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """C(w) = (1 + L_1(w), ..., 1 + L_q(w)) for every (k-1)-tuple w, in colex order.

    ``forward``, the forward tables of a ``longest_mono`` scan of this
    coloring, saves the sweep.  They are billed as the sweep that made them,
    unit for unit, the way a memo replay bills a stored result, so the budget
    runs out at the same point either way.
    """
    if coloring.k < 2:
        raise ValueError("label vectors need k >= 2")
    k, q, big = coloring.k, coloring.q, coloring.N
    wm = meter(budget, f"label vectors on {coloring.num_edges} edges")
    wm.charge(comb(big, k - 1))
    if forward is None:
        forward = _sweep(coloring, colex_windows(big, k), wm, reverse=False)
    else:
        wm.charge(len(coloring.colors))
    return {
        w: tuple(forward[c][i] + 1 for c in range(1, q + 1))
        for i, w in enumerate(subsets_colex(big, k - 1))
    }


class LabelEscape(ValueError):
    """A label vector left [n]^q: a monochromatic path of length >= n exists."""

    def __init__(self, window: tuple[int, ...], color: int, entry: int, n: int):
        self.window, self.color, self.entry, self.n = window, color, entry, n
        super().__init__(
            f"label entry {entry} > n={n} at window {window}, color {color}: "
            f"a color-{color} monotone path of length >= {n} exists"
        )


def _label_levels(
    coloring: EdgeColoring, n: int, r: int, budget: int | None, forward: list | None = None
) -> dict[int, dict]:
    """Down-set label tables for tuple sizes r..k-1, keyed by size.

    Size k-1 entries are grid points of [n]^q; smaller sizes are bitmasks
    over the next universe down (size j labels live in the order-(k-j+1)
    universe, stored as masks over the order-(k-j) one).  Below size k-1 a
    tuple that starts at vertex 0 has the empty label 0 and costs no unit;
    it is left out, so every stored label is paid for and the tables grow
    no faster than the budget.  Read them with ``.get(t, 0)``.  ``forward``
    goes to ``label_vectors``.
    """
    k, q, big = coloring.k, coloring.q, coloring.N
    if not 1 <= r <= k - 1:
        raise ValueError(f"tuple size must lie in 1..{k - 1}, got {r}")
    if n < 1:
        raise ValueError("need n >= 1")
    base = label_vectors(coloring, budget=budget, forward=forward)
    for w, lab in base.items():
        for c, entry in enumerate(lab, start=1):
            if entry > n:
                raise LabelEscape(w, c, entry, n)
    levels: dict[int, dict] = {k - 1: base}
    if r == k - 1:
        return levels
    wm = meter(budget, "down-set label recursion")
    unis: dict[int, Universe] = {}
    u = build_universe(k - 1, q, n, budget=budget)
    while u is not None:
        unis[u.k] = u
        u = u.parent
    for j in range(k - 2, r - 1, -1):
        lower = unis[k - j]
        pmask = lower.principal_masks()
        upper = levels[j + 1]
        lev: dict[tuple[int, ...], int] = {}
        for t in combinations(range(1, big), j):
            acc = 0
            for x in range(t[0]):
                wm.charge()
                acc |= pmask[lower.index_of(upper.get((x,) + t, 0))]
            lev[t] = acc
        levels[j] = lev
    return levels


def downset_labels(
    coloring: EdgeColoring, n: int, r: int = 1, *, budget: int | None = None
) -> dict:
    """The recursive down-set labels of all r-tuples.

    For r = k-1 the labels are grid points; otherwise each label is the
    bitmask of an order-(k-r+1) structure over the order-(k-r) universe.
    Raises LabelEscape when some color reaches a path of length n, in which
    case no such labels exist.
    """
    labels = _label_levels(coloring, n, r, budget)[r]
    if r == coloring.k - 1:
        return labels
    return {t: labels.get(t, 0) for t in combinations(range(coloring.N), r)}


@dataclass(frozen=True)
class Certificate:
    """Outcome of the pigeonhole check for a coloring and target length n.

    status "path": some color has a monotone path of length >= n (witness in
    ``path``).  status "distinct": all maxima are < n and the per-vertex
    labels are pairwise distinct, certifying N <= (universe size).  status
    "collision" cannot occur for a correct DP; it carries the colliding
    vertex pair plus a path exceeding the DP's own maximum as evidence.
    ``scan`` holds the longest_mono result, with witnesses, that decided the
    outcome.
    """

    status: str
    path: MonotonePath | None = None
    collision: tuple[int, int] | None = None
    scan: PathScan | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.status not in ("path", "distinct", "collision"):
            raise ValueError(f"unknown certificate status {self.status!r}")
        if self.status != "distinct" and self.path is None:
            raise ValueError(f"status {self.status!r} needs a witness path")


def _extract_collision_path(
    coloring: EdgeColoring, levels: dict[int, dict], u: int, v: int, budget: int | None
) -> MonotonePath:
    """Walk a label collision down to a path contradicting the forward DP."""
    k = coloring.k
    wm = meter(budget, "collision walk")
    t = (u, v)
    while len(t) < k:
        j = len(t)
        cur = levels[j].get(t, 0)
        grid_level = j == k - 1
        found = None
        for x in range(t[0]):
            wm.charge()
            other = levels[j].get((x,) + t[:-1], 0)
            if grid_level:
                ok = all(a <= b for a, b in zip(cur, other))
            else:
                ok = cur & ~other == 0
            if ok:
                found = x
                break
        if found is None:
            raise AssertionError("label collision walk found no containment step")
        t = (found,) + t
    col = coloring.color_of(t)
    windows = colex_windows(coloring.N, k)
    wm = meter(budget, "collision path rebuild")
    ltab = _sweep(coloring, windows, wm, reverse=False)[col]
    colors = coloring.colors
    seq = list(t[:-1])
    rank = colex_rank(t[:-1])
    # step back to the first front, by its new vertex a, one shorter in color col
    while ltab[rank]:
        e0, f0, m = windows[rank]
        want = ltab[rank] - 1
        a = next(a for a in range(m) if colors[e0 + a] == col and ltab[f0 + a] == want)
        seq.insert(0, a)
        rank = f0 + a
    seq.append(t[-1])
    return MonotonePath(k=k, color=col, vertices=tuple(seq))


def injectivity_certificate(
    coloring: EdgeColoring, n: int, *, budget: int | None = None
) -> Certificate:
    """Either a monochromatic path of length >= n, or distinct vertex labels.

    Realizes the pigeonhole argument: when the scan maxima all stay below n,
    the order-k labels of the N vertices are pairwise distinct, so N cannot
    exceed the number of order-k structures.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    scan = longest_mono(coloring, want_witnesses=True, budget=budget)
    for c in sorted(scan.per_color_max):
        if scan.per_color_max[c] >= n:
            return Certificate(status="path", path=scan.witnesses[c], scan=scan)
    levels = _label_levels(coloring, n, 1, budget, scan.forward)
    seen: dict = {}
    for v in range(coloring.N):
        lab = levels[1].get((v,), 0)
        if lab in seen:
            path = _extract_collision_path(coloring, levels, seen[lab], v, budget)
            return Certificate(
                status="collision", path=path, collision=(seen[lab], v), scan=scan
            )
        seen[lab] = v
    return Certificate(status="distinct", scan=scan)
