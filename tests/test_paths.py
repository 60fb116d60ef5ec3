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
from monopath.paths import (
    Certificate,
    LabelEscape,
    MonotonePath,
    _extract_collision_path,
    _label_levels,
    downset_labels,
    injectivity_certificate,
    label_vectors,
    longest_mono,
    validate_path,
)
from helpers import (
    brute_longest,
    brute_witness,
    dict_label_vectors,
    dict_longest_mono,
    dict_pred_path,
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


def test_witnesses_are_lex_min():
    for seed in range(12):
        col = random_coloring(3, 2, 7, seed=seed)
        scan = longest_mono(col)
        for c in (1, 2):
            w = scan.witnesses[c]
            if w is None:
                continue
            assert w.vertices == brute_witness(col, c, scan.per_color_max[c])


def test_witnesses_are_lex_min_graph_and_k4():
    col = color_graph_lower(2, 3)
    scan = longest_mono(col)
    for c in (1, 2):
        assert scan.witnesses[c].vertices == brute_witness(col, c, 2)
    col = random_coloring(4, 2, 9, seed=11)
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
    wm, ref_wm = WorkMeter(10**9), WorkMeter(10**9)
    assert label_vectors(col, budget=wm) == dict_label_vectors(col, ref_wm)
    assert wm.used == ref_wm.used
    # the forward tables of a scan stand in for the sweep, at its units
    wm, ref_wm = WorkMeter(10**9), WorkMeter(10**9)
    forward = longest_mono(col, want_witnesses=False).forward
    assert label_vectors(col, budget=wm, forward=forward) == dict_label_vectors(col, ref_wm)
    assert wm.used == ref_wm.used


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


@pytest.mark.parametrize("k,q,N,seed", [(2, 2, 9, 1), (2, 3, 10, 2), (3, 2, 8, 3)])
def test_collision_walk_rebuilds_first_predecessor_path(k, q, N, seed):
    # a walk that ends on the k-tuple (u, v) [k = 2] or (x0, u, v) [k = 3],
    # the latter forced by labels that contain nothing but the chosen step
    col = random_coloring(k, q, N, seed=seed)
    for u, v in combinations(range(N), 2):
        levels = None
        t = (u, v)
        if k == 3:
            if u == 0:
                continue
            x0 = (u + v) % u
            grid = {w: (0,) * q for w in combinations(range(N), 2)}
            grid[(u, v)] = (1,) * q
            grid[(x0, u)] = (2,) * q
            levels = {2: grid}
            t = (x0, u, v)
        path = _extract_collision_path(col, levels, u, v, None)
        assert path.vertices == dict_pred_path(col, t)
        assert path.color == col.color_of(t)
        assert validate_path(col, path)


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
    col = make()
    labels = label_vectors(col)
    for edge, c in col.edges():
        front, back = edge[:-1], edge[1:]
        assert labels[back][c - 1] > labels[front][c - 1]


def test_label_vectors_bound_on_extremal():
    n = 3
    col = color_3uniform_lower(2, n)
    labels = label_vectors(col)
    assert all(1 <= x <= n for lab in labels.values() for x in lab)
    assert len(labels) == len(list(combinations(range(col.N), 2)))


def test_downset_labels_distinct_on_extremal():
    col = color_3uniform_lower(2, 3)
    labs = downset_labels(col, 3, 1)
    assert len(labs) == col.N
    assert len(set(labs.values())) == col.N


def test_downset_labels_are_ideals():
    # level-j labels are masks over the order-(k-j) universe
    from monopath.universes import build_universe

    col = color_kuniform_lower(4, 2)
    for level in (1, 2):
        pred = build_universe(col.k - level, 2, 2).pred_masks()
        labs = downset_labels(col, 2, level)
        assert labs
        for mask in labs.values():
            rest = mask
            while rest:
                i = (rest & -rest).bit_length() - 1
                assert pred[i] & ~mask == 0
                rest &= rest - 1


def test_stored_labels_are_paid_for():
    # one color on N = k + 1 vertices reaches every label level; a tuple that
    # starts at vertex 0 has the empty label and costs nothing, so storing
    # it would let the tables outgrow the budget
    k = 12
    col = EdgeColoring(k=k, q=1, N=k + 1, colors=[1] * (k + 1))
    levels = _label_levels(col, 5, 1, WorkMeter(10**7))
    stored = [t for j in range(1, k - 1) for t in levels[j]]
    assert stored and all(t[0] > 0 for t in stored)
    labs = downset_labels(col, 5, 3)
    assert list(labs) == list(combinations(range(k + 1), 3))
    assert labs[(0, 1, 2)] == 0 and all(labs[t] for t in labs if t[0])


def test_downset_labels_escape():
    # a coloring with a long path pushes some window label past n
    col = random_coloring(3, 2, 12, seed=0)
    assert longest_mono(col, want_witnesses=False).overall_max > 2
    with pytest.raises(LabelEscape) as err:
        downset_labels(col, 2, 1)
    assert err.value.entry > 2


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
        sweeps.append(kwargs["reverse"])
        return sweep(*args, **kwargs)

    monkeypatch.setattr(paths, "_sweep", counted)
    wm = WorkMeter(10**9)
    cert = injectivity_certificate(col, n, budget=wm)
    assert cert.status == "distinct"
    assert sweeps == [False, True]
    # billed as the label sweep it saves: scan, then labels swept afresh
    scan_wm, label_wm = WorkMeter(10**9), WorkMeter(10**9)
    longest_mono(col, budget=scan_wm)
    _label_levels(col, n, 1, label_wm)
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
            longest_mono(col, budget=wm)
            _label_levels(col, n, 1, wm)
            return "distinct"

        got = _outcome(lambda wm: injectivity_certificate(col, n, budget=wm).status, limit)
        assert got == _outcome(fresh, limit), limit


def test_certificate_type_validation():
    with pytest.raises(ValueError):
        Certificate(status="unknown", path=None, collision=None)
