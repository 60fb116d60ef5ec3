import random
import time
import tracemalloc
from array import array
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import monopath.paths as paths
from monopath.budget import BudgetExceeded, WorkMeter
from monopath.colorings import (
    EdgeColoring,
    color_3uniform_lower,
    color_graph_lower,
    color_kuniform_lower,
    random_coloring,
)
from monopath.subsets import colex_rank, colex_walk
from monopath.universes import _masks_below
from monopath.paths import (
    Certificate,
    MonotonePath,
    _extract_collision_path,
    _grid_masks,
    _label_levels,
    _stored_label,
    injectivity_certificate,
    longest_mono,
    validate_path,
)
from helpers import (
    brute_longest,
    brute_witness,
    dict_downset_labels,
    dict_label_vectors,
    dict_longest_mono,
    dict_pred_path,
    label_order_by_recursion,
)


def test_path_type_validation():
    MonotonePath(k=3, color=1, vertices=(0, 2, 5, 7))
    with pytest.raises(ValueError):
        MonotonePath(k=3, color=1, vertices=(0, 2))
    with pytest.raises(ValueError):
        MonotonePath(k=3, color=1, vertices=(0, 2, 2, 5))
    assert MonotonePath(k=3, color=1, vertices=(0, 2, 5, 7)).length == 2


def test_validate_path():
    col = color_3uniform_lower(2, 2)
    scan = longest_mono(col)
    for c, w in scan.witnesses.items():
        assert w.color == c
        assert validate_path(col, w)
    bogus = MonotonePath(k=3, color=1, vertices=(0, 1, 2, 3, 4, 5))
    assert not validate_path(col, bogus)


# --- DP against the brute-force oracle -----------------------------------------


@pytest.mark.parametrize("k,q,N,seed", [
    (2, 2, 7, 0), (2, 3, 6, 1), (3, 2, 7, 2), (3, 2, 8, 3), (3, 3, 7, 4),
    (4, 2, 8, 5), (4, 2, 9, 6), (5, 2, 9, 7),
])
def test_longest_matches_brute(k, q, N, seed):
    col = random_coloring(k, q, N, seed=seed)
    scan = longest_mono(col)
    assert scan.per_color_max == brute_longest(col)
    for c, w in scan.witnesses.items():
        if w is not None:
            assert validate_path(col, w)
            assert w.length == scan.per_color_max[c]


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=4))
@settings(max_examples=30, deadline=None)
def test_longest_matches_brute_random(seed, k):
    col = random_coloring(k, 2, k + 4, seed=seed)
    assert longest_mono(col, want_witnesses=False).per_color_max == brute_longest(col)


# the random file shapes verify-mix builds: (k, q) and N
VERIFY_MIX_SHAPES = [(3, q, big) for q in (2, 3) for big in range(8, 15)] + [
    (4, q, big) for q in (2, 3) for big in range(7, 12)]


def test_witnesses_are_colex_min():
    # the longest path whose reversed vertex sequence is least; a lex-least
    # rule gives another path on many of these colorings
    for i, (k, q, big) in enumerate(VERIFY_MIX_SHAPES * 2):
        col = random_coloring(k, q, big, seed=1000 + i)
        scan = longest_mono(col)
        for c in range(1, q + 1):
            w = scan.witnesses[c]
            if w is None:
                continue
            assert w.vertices == brute_witness(col, c, scan.per_color_max[c])


def test_witnesses_are_colex_min_graph_and_k4():
    col = color_graph_lower(2, 3)
    scan = longest_mono(col)
    for c in (1, 2):
        assert scan.witnesses[c].vertices == brute_witness(col, c, 2)
    # both colors' lex-least longest paths differ from the colex-least ones
    col = random_coloring(4, 2, 9, seed=19)
    scan = longest_mono(col)
    for c in (1, 2):
        w = scan.witnesses[c]
        assert w.vertices == brute_witness(col, c, scan.per_color_max[c])


def test_empty_coloring_scans_to_zero():
    col = EdgeColoring(k=3, q=2, N=2, colors=[])
    scan = longest_mono(col)
    assert scan.per_color_max == {1: 0, 2: 0}
    assert scan.witnesses == {1: None, 2: None}


def test_longest_budget():
    with pytest.raises(BudgetExceeded):
        longest_mono(color_3uniform_lower(2, 3), budget=50)


# --- flat sweeps against the dict-of-tuples reference ----------------------------


def _reference_cases():
    cases = [
        (f"random-k{k}-q{q}-N{big}", lambda k=k, q=q, big=big: random_coloring(
            k, q, big, seed=100 * k + 10 * q + big))
        for k in range(2, 6)
        for q in (1, 2, 3)
        for big in sorted({0, k - 2, k - 1, k, k + 1, k + 4})
    ]
    cases += [
        ("graph-q2-n3", lambda: color_graph_lower(2, 3)),
        ("graph-q3-n2", lambda: color_graph_lower(3, 2)),
        ("3uniform-q2-n3", lambda: color_3uniform_lower(2, 3)),
        ("3uniform-q3-n2", lambda: color_3uniform_lower(3, 2)),
        ("3uniform-bounds-2-4", lambda: color_3uniform_lower(2, bounds=(2, 4))),
        ("kuniform-k4-n2", lambda: color_kuniform_lower(4, 2)),
        ("kuniform-k5-n2", lambda: color_kuniform_lower(5, 2)),
    ]
    return [pytest.param(make, id=name) for name, make in cases]


def _witness_vertices(scan):
    return {c: (w.vertices if w is not None else None) for c, w in scan.witnesses.items()}


def _index_point(index, n, q):
    """The point of [n]^q at ``index`` in lexicographic order."""
    return tuple(index // n**i % n + 1 for i in reversed(range(q)))


def _label_tables(col, n, budget, forward):
    """The labels of all r-tuples, keyed by r and then by tuple, read off
    the tables of ``_label_levels``: grid points for r = k - 1, masks below."""
    k = col.k
    levels = _label_levels(col, n, budget, forward)
    tables = {}
    for r in range(1, k):
        tuples = combinations(range(col.N), r)
        if r == k - 1:
            tables[r] = {t: _index_point(_stored_label(levels, k, t), n, col.q) for t in tuples}
        else:
            tables[r] = {t: _stored_label(levels, k, t) for t in tuples}
    return tables


def _recursion_units(col, tables):
    """The units of the down-set label recursion over label tables keyed
    like ``_label_tables``: per size j < k - 1, U(U + 1)/2 for the U distinct
    labels of size j + 1, the empty one among them below the grid, and one
    per (x, t) pair, C(N, j + 1)."""
    k = col.k
    units = 0
    for j in range(1, k - 1):
        distinct = len(set(tables[j + 1].values()) | ({0} if j + 1 < k - 1 else set()))
        units += distinct * (distinct + 1) // 2 + comb(col.N, j + 1)
    return units


def _partition(labels):
    """Each tuple mapped to the first tuple with its label: equal for two
    tables of the same tuples iff they group the tuples alike."""
    first = {}
    return {t: first.setdefault(lab, t) for t, lab in labels.items()}


def _containments(labels, grid):
    """The pairs (s, t) whose labels lie within one another: points
    coordinatewise at the grid level, masks as sets below."""
    items = list(labels.items())
    if grid:
        return {(s, t) for s, a in items for t, b in items if all(map(int.__le__, a, b))}
    return {(s, t) for s, a in items for t, b in items if a & ~b == 0}


@pytest.mark.parametrize("make", _reference_cases())
def test_sweeps_match_dict_reference(make):
    col = make()
    for want in (True, False):
        wm, ref_wm = WorkMeter(10**9), WorkMeter(10**9)
        scan = longest_mono(col, want_witnesses=want, budget=wm)
        maxima, wits = dict_longest_mono(col, ref_wm, want_witnesses=want)
        assert scan.per_color_max == maxima
        assert wm.used == ref_wm.used
        if want:
            assert _witness_vertices(scan) == wits
    # the forward tables of a scan stand in for the sweep, at its units
    scan = longest_mono(col, want_witnesses=False)
    wm, ref_wm = WorkMeter(10**9), WorkMeter(10**9)
    tables = _label_tables(col, scan.overall_max + 1, wm, scan.forward)
    assert tables[col.k - 1] == dict_label_vectors(col, ref_wm)
    assert wm.used == ref_wm.used + _recursion_units(col, tables)


@pytest.mark.parametrize("make", _reference_cases())
def test_sweep_budget_miss_at_reference_units(make):
    col = make()
    total = WorkMeter(10**9)
    longest_mono(col, budget=total)
    for limit in sorted({0, 1, col.num_edges - 1, col.num_edges, total.used // 2,
                         total.used - 2, total.used - 1}):
        if not 0 <= limit < total.used:
            continue
        wm, ref_wm = WorkMeter(limit), WorkMeter(limit)
        with pytest.raises(BudgetExceeded):
            longest_mono(col, budget=wm)
        with pytest.raises(BudgetExceeded):
            dict_longest_mono(col, ref_wm)
        assert wm.used == ref_wm.used


# --- long runs and ranked labels against the dict references ---------------

# the largest N per k: runs of up to N - k + 1 edges, 16 or more at every k
WIDEST = {2: 40, 3: 30, 4: 26, 5: 20}


@st.composite
def skewed_colorings(draw):
    """Random colorings, some mostly of color 1, for long paths."""
    k = draw(st.sampled_from([3, 4, 2, 5]))
    q = draw(st.integers(min_value=1, max_value=4))
    big = draw(st.sampled_from(range(WIDEST[k], -1, -1)))
    bias = draw(st.sampled_from([0.0, 0.7, 0.97]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    colors = array("B", (1 if rng.random() < bias else rng.randint(1, q)
                         for _ in range(comb(big, k))))
    return EdgeColoring(k=k, q=q, N=big, colors=colors)


def _settle(run, budget):
    """run(budget)'s value, or its exception's type and message."""
    try:
        return run(budget)
    except BudgetExceeded as exc:
        return f"{type(exc).__name__}: {exc}"


def _check_against_references(col):
    wm, ref_wm = WorkMeter(10**9), WorkMeter(10**9)
    scan = longest_mono(col, budget=wm)
    maxima, wits = dict_longest_mono(col, ref_wm)
    assert scan.per_color_max == maxima
    assert _witness_vertices(scan) == wits
    assert wm.used == ref_wm.used
    total = wm.used

    def paths(b):
        scan = longest_mono(col, budget=b)
        return scan.per_color_max, _witness_vertices(scan)

    label = f"path DP on {col.num_edges} edges"
    for limit in (total // 2, total - 1):
        wm, ref_wm = WorkMeter(limit, label), WorkMeter(limit, label)
        assert _settle(paths, wm) == _settle(lambda b: dict_longest_mono(col, b), ref_wm)
        assert wm.used == ref_wm.used
        assert _settle(paths, limit) == _settle(
            lambda b: dict_longest_mono(col, b), WorkMeter(limit, label))
    # labels exist for the n that no color reaches
    n = scan.overall_max + 1
    k = col.k
    wm, ref_wm = WorkMeter(10**9), WorkMeter(10**9)
    tables = _label_tables(col, n, wm, scan.forward)
    assert tables[k - 1] == dict_label_vectors(col, ref_wm)
    vectors = ref_wm.used
    units = wm.used
    assert units == vectors + _recursion_units(col, tables)
    assert injectivity_certificate(col, n, budget=10**9).status == "distinct"
    # the universe-based reference, where its universes fit in its budget
    ref_wm = WorkMeter(10**5)
    if isinstance(_settle(lambda b: dict_downset_labels(col, n, 1, b), ref_wm), dict):
        assert units <= ref_wm.used
        refs = {r: dict_downset_labels(col, n, r, None) for r in range(1, k)}
        assert len(set(refs[1].values())) == col.N
        assert units == vectors + _recursion_units(col, refs)
        for r in range(1, k):
            assert _partition(tables[r]) == _partition(refs[r])
            if col.N <= 9:
                grid = r == k - 1
                assert _containments(tables[r], grid) == _containments(refs[r], grid)
    # containment from its definition, where the pairs of tuples are few
    if sum(comb(col.N, r) ** 2 for r in range(1, k)) <= 10**5:
        within = label_order_by_recursion(col)
        for r in range(1, k):
            assert _containments(tables[r], r == k - 1) == {
                (s, t) for s in tables[r] for t in tables[r] if within(s, t)}
    # a shared meter runs out before the last label; stage meters get the
    # whole budget each, and the first stage that cannot pay names the miss
    for limit in {units // 2, units - 1}:
        if limit >= units:
            continue
        wm = WorkMeter(limit)
        with pytest.raises(BudgetExceeded):
            _label_levels(col, n, wm, scan.forward)
        assert wm.used > limit
        got = _settle(lambda b: _label_levels(col, n, b, scan.forward), limit)
        if vectors > limit:
            assert got.startswith("BudgetExceeded: label vectors on ")
        elif units - vectors > limit:
            assert got.startswith("BudgetExceeded: down-set label recursion: ")
        else:
            assert isinstance(got, dict)


@given(skewed_colorings())
@settings(max_examples=40, deadline=None)
def test_sweeps_and_ranked_labels_match_references(col):
    _check_against_references(col)


# runs of at least this many edges are the long ones: a window's run has
# N - k + 1 edges at most, and the extremal 3-uniform colorings run that long
LONG_RUN = 16


@st.composite
def long_run_colorings(draw, k):
    """Random k-uniform colorings, from N < k up to runs of ``LONG_RUN``
    edges and more where C(N, k) stays small, with q = 9, more colors than
    bits in a byte, among the color counts."""
    q = draw(st.sampled_from([1, 2, 4, 9]))
    widest = max(n for n in range(k, k + LONG_RUN + 2) if comb(n, k) <= 20000)
    big = widest if draw(st.booleans()) else draw(st.integers(min_value=0, max_value=widest))
    bias = draw(st.sampled_from([0.0, 0.9]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    colors = array("B", (1 if rng.random() < bias else rng.randint(1, q)
                         for _ in range(comb(big, k))))
    return EdgeColoring(k=k, q=q, N=big, colors=colors)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_sweep_matches_dict_reference_on_both_sides_of_the_cut(k, data):
    # the cut is at LONG_RUN edges: short runs at every N, and long runs at
    # k = 3, 4 and 5 for the widest N
    col = data.draw(long_run_colorings(k))
    for want in (True, False):
        wm, ref_wm = WorkMeter(10**9), WorkMeter(10**9)
        scan = longest_mono(col, want_witnesses=want, budget=wm)
        maxima, wits = dict_longest_mono(col, ref_wm, want_witnesses=want)
        assert scan.per_color_max == maxima
        assert wm.used == ref_wm.used
        if want:
            assert _witness_vertices(scan) == wits


@pytest.mark.parametrize("k,big", [(2, 300), (3, 120)])
def test_one_color_values_past_a_byte_match_references(k, big):
    # the longest path has N - k + 1 edges: 299 at k = 2, values past a
    # byte, and 118 at k = 3, on runs of up to as many edges
    _check_against_references(EdgeColoring(k=k, q=1, N=big, colors=array("B", [1]) * comb(big, k)))


def test_nine_colors_match_references():
    # more colors than bits in a byte, on runs of up to 22 edges
    _check_against_references(random_coloring(3, 9, 24, seed=5))


@pytest.mark.parametrize("n,q,count", [(1, 3, 1), (3, 2, 9), (4, 3, 64), (257, 1, 257),
                                       (4, 3, 20), (10**6, 2, 40), (10**6, 5, 40)])
def test_grid_masks_contain_as_their_points_lie(n, q, count):
    # containment is product order, over masks as wide as the values that
    # occur, whatever n is
    rng = random.Random(n + q)
    indices = range(count) if count == n**q else {rng.randrange(n**q) for _ in range(count)}
    masks = _grid_masks(list(indices), n, q)
    points = [_index_point(i, n, q) for i in indices]
    assert max(masks).bit_length() <= q * (len(indices) - 1)
    for a, pa in zip(masks, points):
        for b, pb in zip(masks, points):
            assert (a & ~b == 0) == all(x <= y for x, y in zip(pa, pb))


@pytest.mark.parametrize("k,big", [(3, 0), (3, 1), (4, 2), (5, 3)])
def test_empty_grid_certifies_distinct_labels(k, big):
    # N < k - 1: no window, so the grid level has no label to compare
    assert _masks_below([]) == []
    col = EdgeColoring(k=k, q=2, N=big, colors=array("B"))
    assert injectivity_certificate(col, 1).status == "distinct"


@pytest.mark.parametrize("k,q,N,seed", [(2, 2, 9, 1), (2, 3, 10, 2), (3, 2, 8, 3)])
def test_collision_walk_rebuilds_first_predecessor_path(k, q, N, seed):
    # a walk that ends on the k-tuple (u, v) [k = 2] or (x0, u, v) [k = 3],
    # the latter forced by grid labels, by window rank, that contain nothing
    # but the chosen step: (u, v) has the point (2, ..., 2) of [3]^q, (x0, u)
    # the point (3, ..., 3) and every other window (1, ..., 1)
    col = random_coloring(k, q, N, seed=seed)
    forward = longest_mono(col, want_witnesses=False).forward
    n = 3
    twos = sum(n**i for i in range(q))  # the grid index of (2, ..., 2)
    for u, v in combinations(range(N), 2):
        levels = None
        t = (u, v)
        if k == 3:
            if u == 0:
                continue
            x0 = (u + v) % u
            grid = [0] * comb(N, 2)
            grid[colex_rank((u, v))] = twos
            grid[colex_rank((x0, u))] = 2 * twos
            levels = {2: grid}
            t = (x0, u, v)
        path = _extract_collision_path(col, levels, forward, n, u, v, None)
        assert path.vertices == dict_pred_path(col, t)
        assert path.color == col.color_of(t)
        assert validate_path(col, path)


# --- repeated runs against the dict reference -------------------------------


def _forward_matches_reference(col):
    """Maxima, witnesses, units and the whole forward tables, window by
    window, against the dict-of-tuples DP."""
    wm, ref_wm = WorkMeter(10**9), WorkMeter(10**9)
    scan = longest_mono(col, budget=wm)
    maxima, wits = dict_longest_mono(col, ref_wm)
    assert scan.per_color_max == maxima
    assert _witness_vertices(scan) == wits
    assert wm.used == ref_wm.used
    want = [None] * comb(col.N, col.k - 1)
    for w, vector in dict_label_vectors(col, WorkMeter(10**9)).items():
        want[colex_rank(w)] = vector
    assert [tuple(v + 1 for v in vals) for vals in zip(*scan.forward[1:])] == want


@pytest.mark.parametrize("make", [
    pytest.param(lambda: color_kuniform_lower(4, 3), id="kuniform-k4-n3"),
    pytest.param(lambda: color_3uniform_lower(2, 4), id="3uniform-q2-n4"),
])
def test_extremal_forward_tables_match_dict_reference(make):
    # most windows of these colorings repeat a run their front group has met
    _forward_matches_reference(make())


@st.composite
def repeating_colorings(draw):
    """Low-entropy colorings: the edge (a, b, ...) has color f(a mod 2, b - a)
    for a random f, a few edges flipped or none, or nearly every edge has
    color 1.  Runs then repeat within a front group, and at k >= 4 across
    the groups of one first vertex, whose fronts differ."""
    k = draw(st.sampled_from([3, 4, 5]))
    q = draw(st.integers(min_value=1, max_value=4))
    big = draw(st.integers(min_value=0, max_value=WIDEST[k]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        f = {(p, d): rng.randint(1, q) for p in (0, 1) for d in range(1, big)}
        flip = draw(st.sampled_from([0.0, 0.02]))
        colors = array("B", (rng.randint(1, q) if rng.random() < flip else f[e[0] % 2, e[1] - e[0]]
                             for e in colex_walk(big, k)))
    else:
        colors = array("B", (1 if rng.random() < 0.97 else rng.randint(1, q)
                             for _ in range(comb(big, k))))
    return EdgeColoring(k=k, q=q, N=big, colors=colors)


@given(repeating_colorings())
@settings(max_examples=40, deadline=None)
def test_repeated_runs_match_dict_reference(col):
    _forward_matches_reference(col)


# --- extremal colorings meet their bound exactly --------------------------------


@pytest.mark.parametrize("q,n", [(1, 4), (2, 3), (3, 2), (2, 4)])
def test_graph_lower_is_extremal(q, n):
    scan = longest_mono(color_graph_lower(q, n))
    assert all(scan.per_color_max[c] == n - 1 for c in range(1, q + 1))


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_3uniform_lower_is_extremal(q, n):
    scan = longest_mono(color_3uniform_lower(q, n))
    assert all(scan.per_color_max[c] == n - 1 for c in range(1, q + 1))


def test_3uniform_rectangular_bounds_per_color():
    col = color_3uniform_lower(2, bounds=(2, 4))
    scan = longest_mono(col)
    assert scan.per_color_max[1] <= 1
    assert scan.per_color_max[2] <= 3


@pytest.mark.parametrize("k,n", [(4, 2), (5, 2), (4, 3)])
def test_kuniform_lower_is_extremal(k, n):
    scan = longest_mono(color_kuniform_lower(k, n))
    assert all(scan.per_color_max[c] == n - 1 for c in (1, 2))


# --- window labels ---------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: color_graph_lower(2, 3),
    lambda: color_3uniform_lower(2, 3),
    lambda: color_kuniform_lower(4, 2),
    lambda: random_coloring(3, 2, 7, seed=1),
])
def test_label_vectors_satisfy_extension(make):
    # C(w) = 1 + L(w) per color, read off the scan's forward tables
    col = make()
    forward = longest_mono(col, want_witnesses=False).forward
    for edge, c in col.edges():
        front, back = edge[:-1], edge[1:]
        assert forward[c][colex_rank(back)] > forward[c][colex_rank(front)]


def test_label_vectors_bound_on_extremal():
    n = 3
    col = color_3uniform_lower(2, n)
    forward = longest_mono(col, want_witnesses=False).forward
    assert all(1 <= x + 1 <= n for tab in forward[1:] for x in tab)
    assert [len(tab) for tab in forward[1:]] == [comb(col.N, 2)] * 2


def test_downset_labels_distinct_on_extremal():
    col = color_3uniform_lower(2, 3)
    labs = _label_tables(col, 3, None, longest_mono(col, want_witnesses=False).forward)[1]
    assert len(labs) == col.N
    assert len(set(labs.values())) == col.N


def test_downset_labels_are_ideals():
    # a size-j label is the mask, over the distinct labels of size j + 1
    # sorted ascending (the empty one among them below the grid), of those
    # under the label of some (x,) + t, x < t[0]
    for col, n in ((color_kuniform_lower(4, 2), 2), (random_coloring(5, 3, 8, seed=2), 3)):
        k = col.k
        tables = _label_tables(col, n, None, longest_mono(col, want_witnesses=False).forward)
        for j in range(1, k - 1):
            up = tables[j + 1]
            if j + 1 == k - 1:
                basis = sorted(set(up.values()))

                def within(a, b):
                    return all(x <= y for x, y in zip(a, b))
            else:
                basis = sorted(set(up.values()) | {0})

                def within(a, b):
                    return a & ~b == 0
            for t, mask in tables[j].items():
                gens = [up[(x,) + t] for x in range(t[0])]
                assert mask == sum(1 << i for i, u in enumerate(basis)
                                   if any(within(u, g) for g in gens))


def test_stored_labels_are_paid_for():
    # one color on N = k + 1 vertices reaches every label level; a tuple that
    # starts at vertex 0 has the empty label and costs nothing, so storing
    # it would let the tables outgrow the budget.  Level j stores the
    # j-subsets of range(1, N) alone, and costs one unit per (x, t) pair
    # and one per containment pair of the labels one size up
    k = 12
    big = k + 1
    col = EdgeColoring(k=k, q=1, N=big, colors=[1] * big)
    forward = longest_mono(col, want_witnesses=False).forward
    wm = WorkMeter(10**7)
    levels = _label_levels(col, 5, wm, forward)
    tables = _label_tables(col, 5, None, forward)
    assert wm.used == comb(big, k - 1) + big + _recursion_units(col, tables)
    for j in range(1, k - 1):
        assert len(levels[j]) == comb(big - 1, j) <= comb(big, j + 1)
    with pytest.raises(BudgetExceeded):
        _label_levels(col, 5, WorkMeter(wm.used - 1), forward)
    labs = tables[3]
    assert list(labs) == list(combinations(range(k + 1), 3))
    assert labs[(0, 1, 2)] == 0 and all(labs[t] for t in labs if t[0])
    assert _partition(labs) == _partition(dict_downset_labels(col, 5, 3, None))


def test_wide_k_labels_hold_little_per_unit():
    # one color, k = 60, N = 61: level j holds C(60, j) labels, so the budget
    # stops the tables after a few levels.  Tables keyed by tuples of j
    # vertices held about 505 bytes per unit charged here
    k = 60
    col = EdgeColoring(k=k, q=1, N=k + 1, colors=array("B", [1]) * (k + 1))
    wm = WorkMeter(2 * 10**5)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            injectivity_certificate(col, 3, budget=wm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / wm.used < 50


def test_labels_over_a_grid_too_large_to_build():
    # the labels of this 6-color file live in the grid [8]^6, whose 262144
    # points would be compared pairwise, 3.4*10^10 units (48 MB when they
    # were built); only the labels that occur are compared, so the same
    # budget certifies the file
    col = random_coloring(3, 6, 12, seed=5)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        cert = injectivity_certificate(col, 8, budget=10**6)
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.status == "distinct"
    assert elapsed < 1.0
    assert peak < 5 * 10**6


# --- pigeonhole certificates ------------------------------------------------------


def test_certificate_distinct_on_extremal():
    col = color_3uniform_lower(2, 3)
    cert = injectivity_certificate(col, 3)
    assert cert.status == "distinct"
    assert cert.path is None and cert.collision is None
    assert cert.scan == longest_mono(col)


def test_certificate_path_when_crowded():
    # one vertex above the extremal size forces a monotone path of length n
    col = random_coloring(3, 2, 7, seed=42)
    cert = injectivity_certificate(col, 2)
    assert cert.status == "path"
    assert cert.path.length >= 2
    assert validate_path(col, cert.path)
    assert cert.scan == longest_mono(col)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_certificate_never_collides_above_threshold(seed):
    col = random_coloring(3, 2, 7, seed=seed)
    cert = injectivity_certificate(col, 2)
    assert cert.status == "path"
    assert validate_path(col, cert.path)
    assert cert.path.length >= 2


def test_certificate_on_k4(tmp_path):
    col = random_coloring(4, 2, 10, seed=9)
    cert = injectivity_certificate(col, 2)
    if cert.status == "path":
        assert validate_path(col, cert.path)
    else:
        assert cert.status == "distinct"
        assert longest_mono(col, want_witnesses=False).overall_max < 2


CERTIFIED = [
    pytest.param(lambda: color_3uniform_lower(2, 3), 3, id="3uniform-q2-n3"),
    pytest.param(lambda: color_3uniform_lower(3, bounds=(2, 1, 2)), 2, id="3uniform-2-1-2"),
    pytest.param(lambda: color_kuniform_lower(4, 2), 2, id="kuniform-k4-n2"),
    pytest.param(lambda: color_graph_lower(2, 3), 3, id="graph-q2-n3"),
]


@pytest.mark.parametrize("make,n", CERTIFIED)
def test_certificate_reads_labels_off_the_scan(monkeypatch, make, n):
    col = make()
    sweeps = []
    sweep = paths._sweep

    def counted(*args, **kwargs):
        sweeps.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(paths, "_sweep", counted)
    wm = WorkMeter(10**9)
    cert = injectivity_certificate(col, n, budget=wm)
    assert cert.status == "distinct"
    assert len(sweeps) == 1
    # billed as the scan, then the label stage replaying its forward sweep
    scan_wm, label_wm = WorkMeter(10**9), WorkMeter(10**9)
    forward = longest_mono(col, budget=scan_wm).forward
    _label_levels(col, n, label_wm, forward)
    assert wm.used == scan_wm.used + label_wm.used


def _outcome(run, limit):
    wm = WorkMeter(limit)
    try:
        got = run(wm)
    except BudgetExceeded as exc:
        got = str(exc)
    return got, wm.used


@pytest.mark.parametrize("make,n", CERTIFIED)
def test_certificate_runs_out_where_a_fresh_label_sweep_does(make, n):
    col = make()
    scan_wm = WorkMeter(10**9)
    longest_mono(col, budget=scan_wm)
    # the label stage charges the windows, then the sweep it reads
    labels = scan_wm.used + comb(col.N, col.k - 1)
    for limit in (labels - 1, labels, labels + col.num_edges - 1, labels + col.num_edges):

        def fresh(wm):
            _label_levels(col, n, wm, longest_mono(col, budget=wm).forward)
            return "distinct"

        got = _outcome(lambda wm: injectivity_certificate(col, n, budget=wm).status, limit)
        assert got == _outcome(fresh, limit), limit


def test_certificate_type_validation():
    with pytest.raises(ValueError):
        Certificate(status="unknown", path=None, collision=None)
