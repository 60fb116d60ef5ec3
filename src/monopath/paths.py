"""Longest monochromatic monotone path DP and pigeonhole certificates.

For a q-colored complete k-uniform hypergraph on 0 < 1 < ... < N-1 the
engine computes, per color, the exact maximum length (in edges) of a
monotone path, with an optional witness.  The DP runs over (k-1)-tuples:
the longest color-c path ending with window w satisfies

    L_c(w) = max over color-c edges {t} u w, t < min(w), of 1 + L_c(front)

and processing edges in colex order makes every front value final before it
is read.  A scan sweeps once, keeping one flat list per color, indexed by
window rank, and walks the block list of :mod:`monopath.subsets` once per
last vertex: per window, the colors of its incoming edges and the values
of their front windows are two runs of consecutive ranks, found from the
window's block and its last vertex, so the same loop serves every k.
The same L_c tables give the witnesses.  Walking back from a window, each
step takes the first front, by its new vertex, that is one shorter in the
color; from the least-ranked window holding the color's maximum that walk
returns the colex-least longest path, the one whose reversed vertex
sequence is least.

A window's incoming edges form one run, which the sweep steps through edge
by edge, reading one front value per edge.  Before that step, at k >= 3, a
window looks its run up in the memo of its front group (the windows b with
the same b[:-1], which share the run's fronts), keyed by the rank f0 of
the group's first front: the key is the colors of the run, as bytes, and
the value the rank of the first window with that f0 and run.  A nonempty
run fixes its group by f0, so its first vertex, its length and the fronts
it reads, which are final before the group's first window (an empty run,
at first vertex 0, gives 0 in every color whatever its group).  So windows
with equal keys have equal L_c for every color, and a hit copies the first
one's q values instead of taking the step.  The extremal colorings repeat
themselves: the 45,760 windows of the k = 4, n = 3 one have 2,599 distinct
keys.  At k = 2 every window has the one front group, from vertex 0, and a
run as long as its last vertex, so no key repeats and the memo is skipped.
It stores one key per distinct run of a group, at most one byte per edge
plus about 100 B per entry and a small dict per group, and is dropped when
the sweep returns.

On top of the DP sits the pigeonhole certificate.  When no color reaches
length n, the label vector of a window, C(w) = (1 + L_1(w), ..., 1 +
L_q(w)), lies in the grid [n]^q, and is read off the scan's own forward
tables.  Down-set labels extend them to shorter tuples,

    D(t) = union of principal ideals of D((x,) + t) over x < min(t),

ending with one order-k structure per vertex.  These vertex labels are
pairwise distinct, which certifies the bound on N; a collision would
contradict the DP, and the extraction walk turns it into a path longer
than the DP's own maximum, rebuilt by the walk back that gives the
witnesses.  No universe is built: a label is stored as the set of the
labels one size up that occur in this coloring and lie under it.  The
label tables are lists indexed by colex rank: in colex order the
tuples (x,) + t, x < t[0], of one t are consecutive, and over all t in
turn they are the whole level above, so each label is one OR over the
next run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import islice
from math import comb
from operator import or_

from .budget import meter
from .colorings import EdgeColoring
from .subsets import colex_rank, colex_unrank, colex_walk, window_runs
from .universes import _masks_below


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

    ``forward`` keeps the sweep's L_c tables, which the witnesses were
    rebuilt from, so the labels of the same coloring are read off them
    instead of a second sweep.
    """

    per_color_max: dict[int, int]
    witnesses: dict[int, MonotonePath | None] | None = None
    forward: list | None = field(default=None, compare=False, repr=False)

    @property
    def overall_max(self) -> int:
        return max(self.per_color_max.values())


def _sweep(coloring: EdgeColoring, wm) -> list:
    """L_c per window rank, one flat list per color.

    The edges are taken in colex order, so every front value is final before
    it is read.  One unit per edge.

    At k >= 3, a window whose front group has already met its run (the same
    color bytes) copies the values of the first window that had it; any
    other window steps edge by edge.  One dict per group, keyed by the
    run's bytes, holds that window's rank.  The units are the same either
    way.
    """
    colors = coloring.colors
    wm.charge(len(colors))
    q = coloring.q
    tabs = [None] + [[0] * comb(coloring.N, coloring.k - 1) for _ in range(q)]
    memo = coloring.k >= 3
    runs_seen: dict[int, dict] = {}
    raw = bytes(colors)
    values = tabs[1:]
    w = -1
    for top, blocks in window_runs(coloring.N, coloring.k):
        for f0, m in blocks:
            w += 1
            e0 = top + f0
            run = raw[e0 : e0 + m]
            if memo:
                seen = runs_seen.get(f0)
                if seen is None:
                    seen = runs_seen[f0] = {}
                src = seen.setdefault(run, w)
                if src != w:
                    for tab in values:
                        tab[w] = tab[src]
                    continue
            for c, f in zip(run, range(f0, f0 + m)):
                tab = tabs[c]
                cand = tab[f] + 1
                if cand > tab[w]:
                    tab[w] = cand
    return tabs


def _path_back(coloring: EdgeColoring, ltab: list, color: int, rank: int, wm) -> tuple:
    """The vertices of a longest color-``color`` path ending with the window
    of ``rank``, rebuilt from that color's forward table ``ltab``.

    Each step goes back to the first front a whose edge has the color and
    whose value is one less; every such path steps back through one, so
    from the least-ranked window of a value this is the path of that length
    whose reversed vertex sequence is least.  The window t + (v,) has its
    edges from the rank of (0,) + t + (v,) and its fronts from that of
    (0,) + t, a block of the window index.  One unit per candidate a.
    """
    colors = coloring.colors
    window = colex_unrank(rank, coloring.k - 1)
    path = window
    while ltab[rank]:
        f0 = colex_rank((0,) + window[:-1])
        e0 = f0 + comb(window[-1], coloring.k)
        want = ltab[rank] - 1
        a = next(a for a in range(window[0])
                 if colors[e0 + a] == color and ltab[f0 + a] == want)
        wm.prepay(a + 1)
        window = (a,) + window[:-1]
        path = (a,) + path
        rank = f0 + a
    return path


def longest_mono(
    coloring: EdgeColoring, *, want_witnesses: bool = True, budget: int | None = None
) -> PathScan:
    """Exact per-color longest monotone path lengths, with colex-least witnesses.

    Witnesses are None for colors with no edge at all (maximum 0: any k-1
    vertices form a trivial path with no edges).  Units: one per window, one
    per edge, and one per candidate front of a witness step.
    """
    if coloring.k < 2:
        raise ValueError("paths need k >= 2")
    q = coloring.q
    wm = meter(budget, f"path DP on {coloring.num_edges} edges")
    # the window index, the sweep and the witness starts walk every window,
    # and at wide k windows far outnumber edges: one unit each, paid first
    wm.charge(comb(coloring.N, coloring.k - 1))
    fwd = _sweep(coloring, wm)
    maxima = {c: max(fwd[c], default=0) for c in range(1, q + 1)}
    if not want_witnesses:
        return PathScan(per_color_max=maxima, forward=fwd)
    wits = {
        c: MonotonePath(k=coloring.k, color=c, vertices=_path_back(
            coloring, fwd[c], c, fwd[c].index(maxima[c]), wm))
        if maxima[c] > 0
        else None
        for c in range(1, q + 1)
    }
    return PathScan(per_color_max=maxima, witnesses=wits, forward=fwd)


def _grid_masks(indices: list, n: int, q: int) -> list[int]:
    """The points of [n]^q at ``indices`` in lexicographic order, as masks
    of coordinate thresholds over the values that occur: per coordinate one
    bit for each of its values in the points but the least, the first r set
    for the value of rank r.  One mask contains another exactly when its
    point lies coordinatewise above the other's, and the masks are at most
    q * (len(indices) - 1) bits wide whatever n is."""
    points = []
    for index in indices:
        digits = []
        for _ in range(q):  # coordinate q is the last digit
            index, digit = divmod(index, n)
            digits.append(digit)
        points.append(digits)
    masks, shift = [0] * len(points), 0
    for column in zip(*points):
        rank = {x: r for r, x in enumerate(sorted(set(column)))}
        masks = [m | (1 << rank[x]) - 1 << shift for m, x in zip(masks, column)]
        shift += len(rank) - 1
    return masks


def _label_levels(
    coloring: EdgeColoring, n: int, budget: int | None, forward: list
) -> dict[int, list]:
    """Down-set label tables for tuple sizes 1..k-1, keyed by size, as lists.

    ``forward`` holds the L_c tables of a ``longest_mono`` scan of this
    coloring whose maxima all stay below n.  They are billed as the sweep
    that made them, one unit per window and one per edge, the way a memo
    replay bills a stored result, so the budget runs out where a fresh
    sweep would.

    Size k-1 holds, per window rank, the index of its label vector in the
    grid [n]^q in lexicographic order: the mixed-radix number with digits
    L_1(w), ..., L_q(w).  Size j < k-1 holds the labels of the j-subsets t
    of range(1, N), in colex order, as bitmasks over the distinct labels
    that occur one size up, sorted ascending (bit i for the i-th smallest).
    Below the grid those include the empty label 0 of the tuples that start
    at vertex 0, which are not stored but are generators too.

    The label of t is the set of those labels that lie under the label of
    some (x,) + t, x < t[0], the union of their principal masks; one mask
    contains another exactly when the down-sets they stand for do.  In colex
    order those tuples, over all t in turn, are the level above, one run of
    t[0] after another (t[0] - 1 when the level above leaves out the tuples
    at vertex 0).  Ascending grid ranks and masks extend containment, the
    order ``_masks_below`` needs; at the grid level it reads each distinct
    label as a threshold mask over the coordinate values that occur
    (``_grid_masks``), so its width does not grow with n.

    Units: per size j, U(U + 1)/2 for the containment pairs of the U labels
    one size up, and one per (x, t) pair, C(N, j + 1), paid before the level
    is built, so every stored label is paid for.
    """
    k, q, big = coloring.k, coloring.q, coloring.N
    wm = meter(budget, f"label vectors on {coloring.num_edges} edges")
    wm.charge(comb(big, k - 1))
    wm.charge(len(coloring.colors))
    grid = forward[1]
    for tab in forward[2:]:
        grid = [g * n + v for g, v in zip(grid, tab)]
    levels: dict[int, list] = {k - 1: grid}
    wm = meter(budget, "down-set label recursion")
    upper = grid
    for j in range(k - 2, 0, -1):
        at_grid = j == k - 2
        below = sorted(set(upper) if at_grid else {0, *upper})
        wm.prepay(len(below) * (len(below) + 1) // 2 + comb(big, j + 1))
        pred = _masks_below(_grid_masks(below, n, q) if at_grid else below)
        ideal = {u: pm | 1 << i for i, (u, pm) in enumerate(zip(below, pred))}
        # below the grid the tuples at vertex 0 are not stored: each run
        # starts from the empty label's ideal instead
        unstored, empty = (0, 0) if at_grid else (1, ideal[0])
        rest = iter(upper)
        # t = b + 1 for the j-subsets b of range(N - 1), so t[0] = b[0] + 1
        firsts = (b[0] + 1 for b in colex_walk(big - 1, j))
        levels[j] = upper = [
            reduce(or_, map(ideal.__getitem__, islice(rest, x - unstored)), empty) for x in firsts
        ]
    return levels


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


def _stored_label(levels: dict[int, list], k: int, t: tuple[int, ...]):
    """The label of tuple t in the tables of ``_label_levels``, by rank."""
    if len(t) == k - 1:
        return levels[k - 1][colex_rank(t)]
    if t[0] == 0:
        return 0
    return levels[len(t)][colex_rank(tuple(v - 1 for v in t))]


def _extract_collision_path(
    coloring: EdgeColoring, levels: dict[int, list], forward: list, n: int, u: int, v: int,
    budget: int | None,
) -> MonotonePath:
    """Walk a label collision down to a path contradicting the forward DP.

    ``levels`` are the tables of ``_label_levels`` for target length n, and
    ``forward`` the L_c tables they were read off.  The path ends with the
    k-tuple the walk reaches, and the rest is rebuilt from ``forward`` by
    ``_path_back``, as the witnesses are.
    """
    k, q = coloring.k, coloring.q
    wm = meter(budget, "collision walk")
    t = (u, v)
    while len(t) < k:
        steps = [t] + [(x,) + t[:-1] for x in range(t[0])]
        labs = [_stored_label(levels, k, s) for s in steps]
        if len(t) == k - 1:  # grid labels as threshold masks: containment is one test
            labs = _grid_masks(labs, n, q)
        cur = labs[0]
        for x in range(t[0]):
            wm.charge()
            if cur & ~labs[x + 1] == 0:
                break
        else:
            raise AssertionError("label collision walk found no containment step")
        t = (x,) + t
    col = coloring.color_of(t)
    seq = _path_back(coloring, forward[col], col, colex_rank(t[:-1]), wm)
    return MonotonePath(k=k, color=col, vertices=seq + (t[-1],))


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
    levels = _label_levels(coloring, n, budget, scan.forward)
    # vertex v's label; at k >= 3 vertex 0 has the empty one, left unstored
    labels = levels[1] if coloring.k == 2 else [0] + levels[1]
    seen: dict = {}
    for v, lab in enumerate(labels):
        if lab in seen:
            path = _extract_collision_path(
                coloring, levels, scan.forward, n, seen[lab], v, budget
            )
            return Certificate(
                status="collision", path=path, collision=(seen[lab], v), scan=scan
            )
        seen[lab] = v
    return Certificate(status="distinct", scan=scan)
