from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monopath.budget import BudgetExceeded
from monopath.counting import GridBox, count_box_partitions, count_downsets, count_rho
from monopath.universes import build_universe
from helpers import brute_ideal_masks, grid_point, pairwise_pred_masks


def _within(a, b) -> bool:
    """Mask a contained in mask b."""
    return a & ~b == 0


def test_build_validation():
    with pytest.raises(ValueError):
        build_universe(1, (2, 2))
    with pytest.raises(ValueError):
        build_universe(3, ())
    with pytest.raises(ValueError):
        build_universe(3, (2, 0))
    with pytest.raises(BudgetExceeded):
        build_universe(4, (3, 3, 3), budget=2000)


@pytest.mark.parametrize("box", [(2, 3), (3, 2), (3, 1, 2), (1, 4), (5,)])
def test_box_universe_is_the_downsets_of_the_box(box):
    # a down-set of the box is the array of its column heights in the last
    # coordinate, and the masks sort as those arrays do, flattened
    u = build_universe(3, box)
    points = tuple(product(*(range(1, s + 1) for s in box)))
    assert tuple(grid_point(m, box) for m in u.parent.elements) == points
    assert u.size == count_box_partitions(box[:-1], box[-1])
    top = box[-1]
    heights = [[bin(m >> c & (1 << top) - 1).count("1") for c in range(0, u.parent.size, top)]
               for m in u.elements]
    assert heights == sorted(heights)
    assert len(set(map(tuple, heights))) == u.size


@pytest.mark.parametrize("k,box,text", [(3, (2, 3, 3), "[2]x[3]x[3]"), (4, (3, 3, 3), "[3]^3")])
def test_universe_meter_names_its_box(k, box, text):
    with pytest.raises(BudgetExceeded) as exc:
        build_universe(k, box, budget=10)
    assert str(exc.value) == f"universe of order {k} over {text}: exceeded work budget of 10 units"


def test_grid_universe():
    u = build_universe(2, (3, 3))
    assert u.k == 2 and u.size == 9
    assert u.parent.k == 1 and u.parent.elements == (1, 1, 2, 2)
    mask = {grid_point(m, (3, 3)): m for m in u.elements}
    assert list(mask) == sorted(mask)
    assert _within(mask[1, 2], mask[2, 2])
    assert not _within(mask[2, 1], mask[1, 3])
    assert u.delta(mask[1, 1], mask[2, 2]) == 1
    assert u.delta(mask[2, 1], mask[1, 3]) == 2
    with pytest.raises(ValueError):
        u.delta(mask[2, 2], mask[1, 2])


@pytest.mark.parametrize("box", [(5,), (1, 4), (3, 1, 2), (2, 3), (257, 1)])
def test_grid_masks_are_the_points_of_the_box(box):
    u = build_universe(2, box)
    points = [grid_point(m, box) for m in u.elements]
    assert points == list(product(*(range(1, s + 1) for s in box)))
    assert u.parent.elements == tuple(i for i, s in enumerate(box, 1) for _ in range(s - 1))
    assert u.pred_masks() == pairwise_pred_masks(u, box)
    # delta of two grid points is a threshold of the first coordinate where
    # the left one is below the right one
    for a, x in zip(u.elements, points):
        for b, y in zip(u.elements, points):
            rising = next((t for t in range(len(box)) if x[t] < y[t]), None)
            if rising is None:
                with pytest.raises(ValueError):
                    u.delta(a, b)
            else:
                assert u.delta(a, b) == rising + 1


@pytest.mark.parametrize(
    "k,d,n", [(3, 2, 2), (4, 2, 2), (5, 2, 2), (3, 2, 3), (4, 1, 3), (4, 3, 2)]
)
def test_sizes_match_counts(k, d, n):
    u = build_universe(k, (n,) * d)
    assert u.size == count_rho(k, d, n)
    assert u.parent.size == count_rho(k - 1, d, n)


def test_elements_are_exactly_parent_ideals():
    u = build_universe(4, (2, 2))
    assert sorted(u.elements) == brute_ideal_masks(u.parent.pred_masks())


@pytest.mark.parametrize("k,d,n", [(3, 2, 2), (4, 2, 2), (3, 3, 2), (4, 2, 3)])
def test_order_extends_containment(k, d, n):
    u = build_universe(k, (n,) * d)
    els = u.elements
    for i, a in enumerate(els):
        for b in els[i + 1 :]:
            # a comes earlier, so b must not be strictly contained in a
            assert not (_within(b, a) and a != b)


def test_delta_is_lex_min_of_difference():
    u = build_universe(3, (3, 3))
    par = u.parent
    for a, b in combinations(u.elements, 2):
        if _within(b, a):
            continue
        got = u.delta(a, b)
        diff = [par.elements[i] for i in range(par.size) if (b & ~a) >> i & 1]
        assert grid_point(got, (3, 3)) == min(grid_point(m, (3, 3)) for m in diff)
        assert got in diff


@pytest.mark.parametrize("k,d,n", [(3, 2, 3), (4, 2, 2), (5, 2, 2)])
def test_delta_star_lands_on_grid(k, d, n):
    # reducing an ascending chain by delta, pair by pair, keeps successive
    # members non-containing and ends on a grid point
    u = build_universe(k, (n,) * d)
    for chain in combinations(u.elements, k - 1):
        level = u
        while len(chain) > 1:
            assert all(not _within(b, a) for a, b in zip(chain, chain[1:]))
            chain = [level.delta(a, b) for a, b in zip(chain, chain[1:])]
            level = level.parent
        assert level.k == 2
        assert chain[0] in level.elements
        assert grid_point(chain[0], (n,) * d) in GridBox(n, d).points()


def test_pred_masks_match_brute_containment():
    u = build_universe(4, (2, 2))
    els = u.elements
    masks = u.pred_masks()
    for i, b in enumerate(els):
        expect = 0
        for j, a in enumerate(els):
            if j != i and _within(a, b):
                expect |= 1 << j
        assert masks[i] == expect
    # with its own bit, an element's mask is its principal ideal
    principal = [pm | 1 << i for i, pm in enumerate(masks)]
    for i, b in enumerate(els):
        assert principal[i] == sum(1 << j for j, a in enumerate(els) if _within(a, b))


@st.composite
def _ordered_boxes(draw):
    """An order 2..4 and a random box, sides of 1 included, whose universe
    stays at most a few hundred elements."""
    k = draw(st.integers(min_value=2, max_value=4))
    most = {2: 5, 3: 3, 4: 2}[k]
    box = tuple(draw(st.lists(st.integers(min_value=1, max_value=most), min_size=1, max_size=4)))
    if k > 2:
        # the order-3 universe: at most 400 down-sets, and 20 below order 4
        assume(count_box_partitions(box[:-1], box[-1]) <= (400 if k == 3 else 20))
    return k, box


@given(_ordered_boxes())
@settings(max_examples=60, deadline=None)
def test_pred_masks_match_pairwise_reference(case):
    k, box = case
    u = build_universe(k, box)
    assert u.pred_masks() == pairwise_pred_masks(u, box)


def test_rho_growth_along_n_and_k():
    # ideals only gain members as the grid or the order grows
    sizes_n = [build_universe(4, (n, n)).size for n in (1, 2, 3)]
    assert sizes_n == sorted(sizes_n)
    sizes_k = [build_universe(k, (2, 2)).size for k in (2, 3, 4, 5)]
    assert sizes_k == sorted(sizes_k)


def test_element_json_and_to_json():
    # the points (1,1) (1,2) (2,1) (2,2) hold the thresholds of their rises
    u2 = build_universe(2, (2, 2))
    assert [u2.element_json(el) for el in u2.elements] == [[], [1], [0], [0, 1]]
    u3 = build_universe(3, (2, 2))
    for el in u3.elements:
        enc = u3.element_json(el)
        assert enc == sorted(enc)
        assert sum(1 << i for i in enc) == el


@given(st.integers(min_value=2, max_value=5))
@settings(deadline=None)
def test_downset_count_consistency(k):
    # the universe route and the counting route agree at every order
    u = build_universe(k, (2, 2))
    assert u.size == count_rho(k, 2, 2)
    if k >= 3:
        assert build_universe(k - 1, (2, 2)).size == u.parent.size


def test_order3_universe_is_downsets_of_grid():
    u = build_universe(3, (3, 3))
    assert u.size == count_downsets(GridBox(3, 2))
