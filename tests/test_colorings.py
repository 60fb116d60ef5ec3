import io
import json
import random
import tracemalloc
from array import array
from itertools import combinations
from math import comb, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    delta_chain_colors,
    first_difference_colors,
    tuple_transitivity,
    level_step_colors,
    whole_file_load,
)
from monopath.budget import BudgetExceeded, WorkMeter
from monopath.colorings import (
    EdgeColoring,
    _level_step,
    _split_saved,
    check_transitivity_witness,
    color_3uniform_lower,
    color_graph_lower,
    color_kuniform_lower,
    is_transitive,
    random_coloring,
)
from monopath.counting import box_text, count_box_partitions, count_rho, macmahon, p1_closed
from monopath.subsets import colex_rank, subsets_colex
from monopath.universes import build_universe

# --- container behaviour ------------------------------------------------------


def test_coloring_validation():
    with pytest.raises(ValueError):
        EdgeColoring(k=3, q=2, N=4, colors=[1, 2, 3])  # wrong edge count
    with pytest.raises(ValueError):
        EdgeColoring(k=3, q=2, N=4, colors=[1, 2, 3, 5])  # color out of range
    with pytest.raises(ValueError):
        EdgeColoring(k=0, q=2, N=4, colors=[])
    # a hypergraph with fewer than k vertices has no edges but is well formed
    empty = EdgeColoring(k=3, q=2, N=2, colors=[])
    assert empty.num_edges == 0


def test_color_of_checks_edges():
    col = random_coloring(3, 2, 6, seed=0)
    with pytest.raises(ValueError):
        col.color_of((2, 1, 3))
    with pytest.raises(ValueError):
        col.color_of((0, 1))
    with pytest.raises(ValueError):
        col.color_of((0, 1, 6))
    assert col.color_of((0, 1, 2)) in (1, 2)


def test_edges_iterate_in_colex_order():
    col = random_coloring(3, 2, 7, seed=3)
    edges = [e for e, _ in col.edges()]
    assert edges == list(subsets_colex(7, 3))
    for e, c in col.edges():
        assert c == col.color_of(e)


def test_json_roundtrip(tmp_path):
    col = color_3uniform_lower(2, 2)
    path = tmp_path / "c.json"
    col.save(path)
    back = EdgeColoring.load(path)
    assert back.k == col.k and back.q == col.q and back.N == col.N
    assert back.colors == col.colors
    assert back.labels == col.labels
    raw = json.loads(path.read_text())
    assert raw["encoding"] == "colex-rank-array"


@pytest.mark.parametrize("make", [
    lambda: color_graph_lower(3, 3),
    lambda: color_3uniform_lower(3, bounds=(2, 1, 3)),
    lambda: color_3uniform_lower(2, 3),
    lambda: color_kuniform_lower(4, 2, d=2),
    lambda: color_kuniform_lower(3, 2, d=3),
    lambda: random_coloring(4, 3, 9, seed=11),
    lambda: random_coloring(3, 12, 9, seed=4),  # two-digit colors
    lambda: random_coloring(4, 2, 3, seed=1),  # N < k: no colors
    lambda: random_coloring(2, 9, 12, seed=2),  # up to 9, the last single digit
])
def test_save_writes_the_streamed_bytes(tmp_path, make):
    col = make()
    path = tmp_path / "c.json"
    col.save(path)
    text = json.dumps(col.to_json_dict(), separators=(",", ":")) + "\n"
    fh = io.StringIO()
    json.dump(col.to_json_dict(), fh, separators=(",", ":"))
    assert path.read_bytes() == text.encode() == (fh.getvalue() + "\n").encode()
    back = EdgeColoring.load(path)
    assert back == col
    assert back.meta == col.meta
    # single digits are read as bytes, anything else as JSON
    assert (_split_saved(text.encode()) is not None) == (max(col.colors, default=1) <= 9)


def _loaded(path):
    try:
        return EdgeColoring.load(path)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


SAVED = (b'{"k":2,"q":3,"N":4,"encoding":"colex-rank-array","colors":[1,2,3,1,2,3],'
         b'"labels":[[1],[2],[3],[4]],"meta":{"family":"random","params":{"seed":5}}}\n')
# (name, file bytes, whether the colors are read as bytes)
FILE_VARIANTS = [
    ("as saved", SAVED, True),
    ("no newline", SAVED.rstrip(), True),
    ("trailing whitespace", SAVED + b"  \n\n", True),
    ("no labels or meta", SAVED[: SAVED.index(b',"labels"')] + b"}", True),
    ("no colors, N < k", b'{"k":3,"q":2,"N":2,"encoding":"colex-rank-array","colors":[]}', True),
    ("color 0", SAVED.replace(b"[1,2,3,1", b"[1,0,3,1"), False),
    ("color q + 1", SAVED.replace(b"[1,2,3,1", b"[1,4,3,1"), True),
    ("multi-digit color", SAVED.replace(b"[1,2,3,1", b"[1,12,3,1"), False),
    ("multi-digit colors, q = 12", SAVED.replace(b'"q":3', b'"q":12').replace(
        b"[1,2,3,1,2,3]", b"[1,12,3,10,2,3]"), False),
    ("space after a comma", SAVED.replace(b"[1,2,", b"[1, 2,"), False),
    ("pretty-printed", json.dumps(json.loads(SAVED), indent=1).encode(), False),
    ("space in the head", SAVED.replace(b'"k":2,', b'"k": 2,'), False),
    ("keys in another order", SAVED.replace(b'"k":2,"q":3,', b'"q":3,"k":2,'), False),
    ("comma before the bracket", SAVED.replace(b"2,3],", b"2,3,],"), False),
    ("two commas", SAVED.replace(b"[1,2,", b"[1,,2,"), False),
    ("too few colors", SAVED.replace(b"[1,2,3,1,2,3]", b"[1,2,3,1,2]"), True),
    ("duplicate colors key", SAVED.replace(b'"labels"', b'"colors":[3,3,3,3,3,3],"labels"'),
     False),
    ("duplicate colors key, empty", SAVED.replace(b'"labels"', b'"colors":[],"labels"'),
     False),
    ("escaped duplicate colors key", SAVED.replace(b'"labels"', b'"\\u0063olors":[],"labels"'),
     False),
    ("duplicate k", SAVED.replace(b'"labels"', b'"k":3,"labels"'), True),
    ("duplicate encoding", SAVED.replace(b'"labels"', b'"encoding":"base64","labels"'), True),
    ("nested colors in meta", SAVED.replace(b'"family"', b'"colors":[2],"family"'), False),
    ("colors in a meta string", SAVED.replace(b'"random"', b'"colors"'), False),
    ("truncated in the colors", SAVED[:70], False),
    ("truncated after the colors", SAVED[:-20], True),
    ("trailing garbage", SAVED.rstrip() + b"x\n", True),
    ("a second object", SAVED + SAVED, False),
    ("non-UTF-8 byte", SAVED.replace(b'"random"', b'"r\xe9ndom"'), False),
    ("UTF-8 BOM", b"\xef\xbb\xbf" + SAVED, False),
    ("carriage return in a string", SAVED.replace(b'"random"', b'"ran\r\ndom"'), True),
    ("bool color", SAVED.replace(b"[1,2,", b"[1,true,"), False),
    ("float k", SAVED.replace(b'"k":2', b'"k":2.0'), False),
    ("bool k in the body", SAVED.replace(b'"labels"', b'"k":true,"labels"'), True),
    ("string N in the body", SAVED.replace(b'"labels"', b'"N":"4","labels"'), True),
    ("leading zero", SAVED.replace(b'"N":4', b'"N":04'), True),
    ("not an object", b"[1,2,3]", False),
    ("empty", b"", False),
]


@pytest.mark.parametrize("name,raw,fast", FILE_VARIANTS, ids=[v[0] for v in FILE_VARIANTS])
def test_load_matches_the_whole_file_parse(tmp_path, name, raw, fast):
    path = tmp_path / "c.json"
    path.write_bytes(raw)
    assert (_split_saved(raw) is not None) == fast
    got = _loaded(path)
    assert got == whole_file_load(path)
    if not isinstance(got, str):
        assert got.labels == whole_file_load(path).labels
        assert got.meta == whole_file_load(path).meta


@pytest.mark.parametrize("field,value", [
    ("k", "2.0"), ("k", "true"), ("k", '"2"'), ("q", "3.5"), ("q", "false"), ("N", '"4"'),
    ("N", "4e0"), ("colors", "[1,true,3,1,2,3]"), ("colors", "[1,2.0,3,1,2,3]"),
    ("colors", '[1,"2",3,1,2,3]'), ("colors", '"123123"'), ("colors", "{}"),
])
def test_load_takes_json_integers_only(tmp_path, field, value):
    # on both load paths: the compact layout and one with spaces
    doc = json.loads(SAVED)
    doc[field] = json.loads(value)
    for text in (json.dumps(doc), json.dumps(doc, separators=(",", ":"))):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="integer|ints"):
            EdgeColoring.load(path)


def test_load_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        EdgeColoring.load(path)
    path.write_text(json.dumps({"k": 3, "q": 2, "N": 6}))
    with pytest.raises(ValueError):
        EdgeColoring.load(path)
    good = color_graph_lower(2, 2).to_json_dict()
    good["encoding"] = "something-else"
    path.write_text(json.dumps(good))
    with pytest.raises(ValueError, match="encoding"):
        EdgeColoring.load(path)


# --- graph construction -------------------------------------------------------


def test_graph_lower_small_by_hand():
    # [2]^2 in lex order: (1,1) (1,2) (2,1) (2,2); first rising coordinate
    col = color_graph_lower(2, 2)
    v = [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert col.N == 4
    assert col.labels == [list(p) for p in v]
    assert col.color_of((0, 1)) == 2  # (1,1) -> (1,2): coordinate 2 rises
    assert col.color_of((0, 3)) == 1  # (1,1) -> (2,2): coordinate 1 rises
    assert col.color_of((1, 2)) == 1  # (1,2) -> (2,1): coordinate 1 rises
    assert col.color_of((2, 3)) == 2


@pytest.mark.parametrize("q,n", [(1, 3), (2, 2), (2, 4), (3, 2)])
def test_graph_lower_shape(q, n):
    col = color_graph_lower(q, n)
    assert col.k == 2 and col.q == q and col.N == n**q
    assert col.meta["params"] == {"q": q, "n": n}


# --- 3-uniform construction ---------------------------------------------------


@pytest.mark.parametrize("q,n,expect_N", [(2, 2, 6), (2, 3, 20), (3, 2, 20)])
def test_3uniform_vertex_counts(q, n, expect_N):
    col = color_3uniform_lower(q, n)
    assert col.N == expect_N
    assert col.k == 3 and col.q == q


def test_3uniform_vertices_sorted_lex():
    col = color_3uniform_lower(2, 3)
    assert col.N == p1_closed(3)
    assert col.labels == sorted(col.labels)
    # vertices are the weakly decreasing sequences in the 3-box
    for lab in col.labels:
        assert all(a >= b for a, b in zip(lab, lab[1:]))
        assert all(0 <= a <= 3 for a in lab)


def test_3uniform_q3_vertices_are_plane_partitions():
    col = color_3uniform_lower(3, 2)
    assert col.N == macmahon(2)
    for lab in col.labels:
        flat = [e for row in lab for e in row]
        assert all(0 <= e <= 2 for e in flat)


def test_3uniform_rectangular_bounds():
    col = color_3uniform_lower(2, bounds=(2, 4))
    assert col.N == 15  # C(2+4, 2) sequences of length 2 bounded by 4
    assert col.meta["params"]["bounds"] == [2, 4]
    with pytest.raises(ValueError):
        color_3uniform_lower(2, 3, bounds=(2, 4))
    with pytest.raises(ValueError):
        color_3uniform_lower(2)


# (q, bounds): square, rectangular, and one-long-axis shapes
THREE_UNIFORM_CASES = [
    (2, (2, 2)), (2, (3, 3)), (2, (4, 4)), (2, (2, 4)), (2, (4, 2)),
    (2, (5, 1)), (2, (1, 5)), (3, (2, 2, 2)), (3, (3, 1, 2)), (3, (4, 1, 1)),
    (3, (1, 1, 4)), (3, (2, 2, 1)), (4, (1, 2, 1, 2)), (4, (2, 1, 1, 2)),
    (4, (1, 1, 1, 3)), (4, (2, 1, 1, 1)),
]


@pytest.mark.parametrize("q,bounds", THREE_UNIFORM_CASES)
def test_3uniform_matches_edge_by_edge_reference(q, bounds):
    col = color_3uniform_lower(q, bounds=bounds)
    assert col.colors.tobytes() == first_difference_colors(q, bounds).tobytes()


@st.composite
def _small_boxes(draw):
    q = draw(st.integers(min_value=2, max_value=4))
    side = st.integers(min_value=1, max_value=6 - q)
    return q, tuple(draw(st.lists(side, min_size=q, max_size=q)))


@given(_small_boxes())
@settings(max_examples=40, deadline=None)
def test_3uniform_matches_edge_by_edge_reference_on_random_boxes(case):
    q, bounds = case
    shape, top = bounds[:-1], bounds[-1]
    # at most about 60 vertices, and few enough value assignments for the
    # reference, which filters all of them
    assume(count_box_partitions(shape, top) <= 60 and (top + 1) ** prod(shape) <= 10**5)
    col = color_3uniform_lower(q, bounds=bounds)
    assert col.colors.tobytes() == first_difference_colors(q, bounds).tobytes()


@pytest.mark.parametrize("top", [255, 256, 300])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_window_fill_matches_edge_by_edge_reference(k, top):
    # one level step, H_k from H_{k-1}, with table entries up to ``top``: at
    # 255 every entry and column fits in bytes and each block is one
    # translate, above it the step looks up entry by entry
    rng = random.Random(100 * k + top)
    big = 9
    table = [rng.randint(0, top) for _ in range(comb(big, k - 1))]
    table[-1] = top
    cols = [[rng.randint(0, top) for _ in range(top + 1)] for _ in range(top + 1)]
    got = _level_step(big, k - 1, table, cols)
    assert list(got) == level_step_colors(big, k - 1, table, cols)
    assert isinstance(got, bytearray) == (top < 256)
    assert len(got) == comb(big, k)


def _iterated_delta_units(k, box) -> int:
    """The units of one build over ``box``: the order-k universe's own, then
    edges, the level tables H_2, ..., H_{k-1} over the vertex subsets, and
    every ordered pair of each level below the top, down to the grid."""
    uni_wm = WorkMeter(limit=10**9)
    uni = build_universe(k, box, budget=uni_wm)
    big = uni.size
    total = uni_wm.used + comb(big, k) + sum(comb(big, j) for j in range(2, max(k, 3)))
    # the levels k-1 down to 3, then the grid, its points counted from the box
    sizes = [] if k == 2 else [prod(box)]
    level = uni.parent
    while level.k > 2:
        sizes.append(level.size)
        level = level.parent
    return total + sum(s * s for s in sizes)


def _pays_on_one_meter(build, total, label):
    """``build(budget)`` spends exactly ``total`` units, on one meter that
    names the family."""
    wm = WorkMeter(limit=total)
    build(wm)
    assert wm.used == total
    build(total)
    build(total + 1)
    with pytest.raises(BudgetExceeded) as exc:
        build(total - 1)
    assert str(exc.value) == f"{label}: exceeded work budget of {total - 1} units"


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (1, 4), (2, 1)])
def test_graph_units_per_cell(q, n):
    _pays_on_one_meter(lambda budget: color_graph_lower(q, n, budget=budget),
                       _iterated_delta_units(2, (n,) * q), f"graph coloring over [{n}]^{q}")


def test_graph_pays_its_edges_before_its_points():
    # 2^20 points pass a budget of 2*10^6, their edges do not; paid only
    # after the points existed, the build held about 200 MB of 20-tuples
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="graph coloring over"):
            color_graph_lower(20, 2, budget=2 * 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("q,bounds", [(2, (3, 3)), (3, (3, 1, 2)), (4, (1, 2, 1, 2)), (2, (1, 4))])
def test_3uniform_units_per_cell(q, bounds):
    _pays_on_one_meter(lambda budget: color_3uniform_lower(q, bounds=bounds, budget=budget),
                       _iterated_delta_units(3, bounds),
                       f"3-uniform coloring over {box_text(bounds)}")


def test_3uniform_budget():
    with pytest.raises(BudgetExceeded):
        color_3uniform_lower(3, 3, budget=10_000)


def test_3uniform_first_difference_rule_spot_check():
    col = color_3uniform_lower(2, 2)
    labs = [tuple(l) for l in col.labels]
    # (0,0) (1,0) (1,1) in colex positions 0,1,2
    a, b, c = labs.index((0, 0)), labs.index((1, 0)), labs.index((1, 1))
    a, b, c = sorted((a, b, c))
    # d((0,0),(1,0)) = 1 < d((1,0),(1,1)) = 2: rising difference, color 1
    assert col.color_of((a, b, c)) == 1
    # (0,0) (1,0) (2,0) all differ first at position 1: flat, color 2
    e = labs.index((2, 0))
    assert col.color_of(tuple(sorted((a, b, e)))) == 2


# --- k-uniform construction ----------------------------------------------------


@pytest.mark.parametrize("k,n", [(4, 2), (5, 2), (4, 3)])
def test_kuniform_vertex_counts(k, n):
    col = color_kuniform_lower(k, n)
    assert col.N == count_rho(k, 2, n)
    assert col.k == k and col.q == 2


@pytest.mark.parametrize("n", [2, 3])
def test_kuniform_k3_equals_3uniform(n):
    # q = 2..4 colors while C(N, 3) stays small: [3]^3 has 980 down-sets
    for q in range(2, 5 if n == 2 else 3):
        a = color_kuniform_lower(3, n, q)
        b = color_3uniform_lower(q, n)
        assert a.N == b.N
        assert a.colors == b.colors


# (k, n, d) with at most a few thousand edges
K_UNIFORM_CASES = [
    (3, 2, 1), (3, 4, 1), (3, 2, 2), (3, 3, 2), (3, 2, 3), (4, 3, 1), (4, 2, 2),
    (5, 2, 1), (5, 3, 1), (5, 2, 2), (6, 2, 2), (6, 3, 1), (4, 1, 2), (4, 2, 1),
]


@pytest.mark.parametrize("k,n,d", K_UNIFORM_CASES)
def test_kuniform_matches_delta_chain_reference(k, n, d):
    col = color_kuniform_lower(k, n, d)
    assert col.colors.tobytes() == delta_chain_colors(k, n, d).tobytes()


@pytest.mark.parametrize("k,n,d", [(3, 3, 2), (4, 2, 2), (5, 2, 2), (6, 2, 2), (3, 2, 3), (4, 1, 2)])
def test_kuniform_units_per_cell(k, n, d):
    _pays_on_one_meter(lambda budget: color_kuniform_lower(k, n, d, budget=budget),
                       _iterated_delta_units(k, (n,) * d), f"{k}-uniform coloring over [{n}]^{d}")


def test_kuniform_d_colors():
    col = color_kuniform_lower(3, 2, d=3)
    assert col.q == 3
    assert col.N == count_rho(3, 3, 2)


def test_kuniform_fewer_vertices_than_k_is_empty():
    col = color_kuniform_lower(4, 1)
    assert col.N == 3
    assert col.num_edges == 0


# --- random colorings -----------------------------------------------------------


def test_random_coloring_deterministic():
    a = random_coloring(3, 2, 8, seed=99)
    b = random_coloring(3, 2, 8, seed=99)
    c = random_coloring(3, 2, 8, seed=100)
    assert a.colors == b.colors
    assert a.colors != c.colors
    assert a.meta["params"]["seed"] == 99


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_random_coloring_in_range(seed):
    col = random_coloring(4, 3, 6, seed=seed)
    assert all(1 <= c <= 3 for _, c in col.edges())


# --- transitivity ----------------------------------------------------------------


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_graph_lower_transitive(q, n):
    assert is_transitive(color_graph_lower(q, n)) is True


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2)])
def test_3uniform_transitive(q, n):
    assert is_transitive(color_3uniform_lower(q, n)) is True


def test_kuniform_42_transitive():
    assert is_transitive(color_kuniform_lower(4, 2)) is True


def test_transitivity_witness_checks():
    col = random_coloring(3, 2, 7, seed=5)
    res = is_transitive(col)
    assert res is not True
    assert check_transitivity_witness(col, res)
    assert len(res) == col.k + 1
    # the front and back windows share a color, some inner window differs
    front, back = res[:-1], res[1:]
    assert col.color_of(front) == col.color_of(back)


def test_transitivity_budget():
    with pytest.raises(BudgetExceeded):
        is_transitive(color_3uniform_lower(2, 4), budget=100)


def _scan(run, limit):
    wm = WorkMeter(limit, label="scan")
    try:
        got = run(wm)
    except BudgetExceeded as exc:
        got = str(exc)
    return got, wm.used


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("seed", range(6))
def test_transitivity_matches_tuple_by_tuple_reference(k, seed):
    # mostly one color with a few edges flipped, so the first violation
    # (if any) lies deep in the scan; same tuple, same units, same miss
    rng = random.Random(10 * k + seed)
    big = k + 1 + rng.randint(0, 7 if k < 4 else 4)
    col = random_coloring(k, 3, big, seed=seed)
    if seed % 3:
        col.colors[:] = array("B", [1]) * len(col.colors)
        for _ in range(seed % 3):
            col.colors[rng.randrange(len(col.colors))] = rng.randint(2, 3)
    total = _scan(lambda wm: tuple_transitivity(col, wm), 10**9)
    assert _scan(lambda wm: is_transitive(col, budget=wm), 10**9) == total
    for limit in {0, 1, total[1] // 2, total[1] - 1, total[1], total[1] + 1}:
        assert _scan(lambda wm: is_transitive(col, budget=wm), limit) == _scan(
            lambda wm: tuple_transitivity(col, wm), limit), limit


def test_transitivity_on_a_shared_meter():
    # a scan that starts with units already spent has only the rest
    col = color_3uniform_lower(2, 3)
    wm, ref = WorkMeter(limit=5000, used=1234), WorkMeter(limit=5000, used=1234)
    with pytest.raises(BudgetExceeded):
        tuple_transitivity(col, ref)
    with pytest.raises(BudgetExceeded):
        is_transitive(col, budget=wm)
    assert wm.used == ref.used == 5001


def test_transitive_colorings_have_ordered_paths():
    # on a transitive coloring, any monochromatic (k+1)-clique window chain
    # collapses: spot-check that every consecutive pair of same-colored
    # edges sharing k-1 vertices extends to a same-colored (k+1)-tuple
    col = color_3uniform_lower(2, 2)
    for tup in combinations(range(col.N), 4):
        front = col.color_of(tup[:-1])
        back = col.color_of(tup[1:])
        if front == back:
            for i in range(1, 3):
                window = tup[:i] + tup[i + 1 :]
                assert col.color_of(window) == front
