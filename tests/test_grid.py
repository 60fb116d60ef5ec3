"""The grid box [n]^d and the two bijections the counting oracles rest on.

Down-sets of [n]^d map one to one onto (d-1)-dimensional arrays of column
heights, weakly decreasing with entries in 0..n, which the frontier DP
counts; and onto antichains, by maximal elements one way and downward
closure the other, which ``count_antichains`` counts.  Both maps are built
here from brute-force down-sets, so a wrong model behind either count shows.
"""

from itertools import product

import pytest

from monopath.counting import GridBox, box_text, count_downsets
from helpers import (
    brute_box_partitions,
    brute_ideal_masks,
    count_antichains_exhaustive,
    dominates,
    grid_pred_masks,
)


def all_downsets(box: GridBox) -> list[frozenset[tuple[int, ...]]]:
    points = box.points()
    return [
        frozenset(p for i, p in enumerate(points) if mask >> i & 1)
        for mask in brute_ideal_masks(grid_pred_masks(box))
    ]


def test_dominates():
    assert dominates((1, 2), (1, 3))
    assert dominates((2, 2), (2, 2))
    assert not dominates((2, 1), (1, 3))
    with pytest.raises(ValueError):
        dominates((1,), (1, 2))


@pytest.mark.parametrize("box,text", [
    ((3,) * 5, "[3]^5"), ((7,), "[7]^1"), ((2, 3), "[2]x[3]"),
    ((2, 4, 4, 3), "[2]x[4]x[4]x[3]"), ((3,) * 19999, "[3]^19999"),
])
def test_box_text(box, text):
    assert box_text(box) == text


def test_box_validation():
    with pytest.raises(ValueError):
        GridBox(0, 2)
    with pytest.raises(ValueError):
        GridBox(2, 0)
    assert GridBox(3, 2).size == 9


def test_box_points_lex_sorted():
    box = GridBox(3, 2)
    pts = box.points()
    assert pts == sorted(pts)
    assert pts[0] == (1, 1)
    assert pts[-1] == (3, 3)
    assert len(pts) == box.size


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3)])
def test_downset_partition_bijection(n, d):
    box = GridBox(n, d)
    downsets = all_downsets(box)
    profiles = set()
    for s in downsets:
        heights = {idx: 0 for idx in product(range(1, n + 1), repeat=d - 1)}
        for p in s:
            heights[p[:-1]] = max(heights[p[:-1]], p[-1])
        # the heights decrease along every axis and give s back
        for idx, h in heights.items():
            for t, c in enumerate(idx):
                if c > 1:
                    assert heights[idx[:t] + (c - 1,) + idx[t + 1 :]] >= h
        assert {idx + (z,) for idx, h in heights.items() for z in range(1, h + 1)} == s
        profiles.add(tuple(heights.values()))
    # distinct down-sets give distinct profiles, and every array is reached
    assert len(profiles) == len(downsets) == brute_box_partitions((n,) * (d - 1), n)
    assert count_downsets(box) == len(downsets)


@pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2)])
def test_maximal_closure_roundtrip(n, d):
    box = GridBox(n, d)
    points = box.points()
    antichains = set()
    for s in all_downsets(box):
        top = frozenset(p for p in s if not any(p != x and dominates(p, x) for x in s))
        assert not any(x != y and dominates(x, y) for x in top for y in top)
        assert {p for p in points if any(dominates(p, x) for x in top)} == s
        antichains.add(top)
    assert len(antichains) == count_antichains_exhaustive(box)
