"""The benchmark's answer tables against brute force at small sizes.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import random
from itertools import combinations, product

import pytest

import oracles as orc


def _downsets_brute(n: int, d: int) -> int:
    points = list(product(range(n), repeat=d))
    index = {p: i for i, p in enumerate(points)}
    covers = [
        [index[p[:i] + (c - 1,) + p[i + 1 :]] for i, c in enumerate(p) if c > 0]
        for p in points
    ]
    count = 0
    for mask in range(1 << len(points)):
        if all(
            not (mask >> i) & 1 or all((mask >> j) & 1 for j in covers[i])
            for i in range(len(points))
        ):
            count += 1
    return count


@pytest.mark.parametrize(
    "n,d", [(1, 3), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 2)]
)
def test_downsets_table_matches_subset_scan(n, d):
    assert orc.downsets(n, d) == _downsets_brute(n, d)


def test_dedekind_five_by_ideal_enumeration():
    cube = sorted(product(range(2), repeat=5))
    le = lambda x, y: all(a <= b for a, b in zip(x, y))  # noqa: E731
    assert len(orc.order_ideals(cube, le)) == orc.DEDEKIND[5]


@pytest.mark.parametrize("a,b,c", [(1, 1, 3), (1, 3, 2), (2, 2, 2), (2, 3, 2), (3, 3, 1)])
def test_macmahon_matches_array_enumeration(a, b, c):
    count = 0
    for flat in product(range(c + 1), repeat=a * b):
        ok = all(
            (i == 0 or flat[(i - 1) * b + j] >= flat[i * b + j])
            and (j == 0 or flat[i * b + j - 1] >= flat[i * b + j])
            for i in range(a)
            for j in range(b)
        )
        count += ok
    assert orc.plane_partitions_in_box(a, b, c) == count


def test_downsets_of_3_4_as_chains_of_plane_partitions():
    # a down-set of [3]^4 is a decreasing chain of three plane partitions
    # in the 3 x 3 box with entries at most 3
    planes = [
        p for p in product(range(4), repeat=9)
        if all(
            (i == 0 or p[(i - 1) * 3 + j] >= p[i * 3 + j])
            and (j == 0 or p[i * 3 + j - 1] >= p[i * 3 + j])
            for i in range(3)
            for j in range(3)
        )
    ]
    assert len(planes) == orc.plane_partitions_in_box(3, 3, 3) == 980
    below = [[j for j, q in enumerate(planes) if all(x <= y for x, y in zip(q, p))]
             for p in planes]
    ways = [1] * len(planes)
    for _ in range(2):
        ways = [sum(ways[j] for j in below[i]) for i in range(len(planes))]
    assert sum(ways) == orc.DOWNSETS_3_4


def test_rho_two_k_matches_iterated_ideals():
    level = sorted(product(range(1, 3), repeat=2))
    le = lambda x, y: all(a <= b for a, b in zip(x, y))  # noqa: E731
    sizes = {2: len(level)}
    for k in range(3, 7):
        level = sorted(orc.order_ideals(level, le), key=len)
        le = frozenset.issubset
        sizes[k] = len(level)
    assert all(orc.rho(k, 2, 2) == size == 2 * k for k, size in sizes.items())


def test_rho_brute_force_agrees_with_downsets():
    assert orc.rho(4, 2, 3) == 66
    level = sorted(orc.order_ideals(sorted(product(range(1, 3), repeat=3)),
                                   lambda x, y: all(a <= b for a, b in zip(x, y))), key=len)
    assert len(level) == orc.DEDEKIND[3]
    assert len(orc.order_ideals(level, frozenset.issubset)) == orc.rho(4, 3, 2) == 84


@pytest.mark.parametrize("n", range(0, 5))
def test_gaussian_matches_area_count(n):
    counts = [0] * (n * n + 1)
    for seq in product(range(n + 1), repeat=n):
        if all(a >= b for a, b in zip(seq, seq[1:])):
            counts[sum(seq)] += 1
    assert orc.gaussian_central(n) == counts


def test_ramsey_values_match_known_small_cases():
    assert orc.ramsey_value(2, 2, 2) == 5
    assert orc.ramsey_value(3, 2, 2) == 7
    assert orc.ramsey_value(2, 2, 3) == 10
    assert orc.ramsey_value(4, 2, 2) == 9
    assert orc.ramsey_value(3, 3, 2) == 21


def _random_coloring(rng, k, q, n_vertices):
    colors = [0] * len(list(combinations(range(n_vertices), k)))
    for edge in combinations(range(n_vertices), k):
        colors[orc.colex_rank(edge)] = rng.randint(1, q)
    return colors


@pytest.mark.parametrize("k,q,n_vertices", [(2, 2, 6), (2, 3, 7), (3, 2, 7), (4, 2, 7)])
def test_longest_paths_match_exhaustive_search(k, q, n_vertices):
    rng = random.Random(k * 100 + q * 10 + n_vertices)
    colors = _random_coloring(rng, k, q, n_vertices)
    best = [0] * q
    for size in range(k, n_vertices + 1):
        for verts in combinations(range(n_vertices), size):
            for c in range(1, q + 1):
                if orc.path_is_mono(colors, k, n_vertices, c, verts):
                    best[c - 1] = max(best[c - 1], size - k + 1)
    assert orc.longest_paths(colors, k, q, n_vertices) == best


def test_colex_rank_enumerates_edges_in_order():
    edges = sorted(combinations(range(7), 3), key=lambda e: e[::-1])
    assert [orc.colex_rank(e) for e in edges] == list(range(len(edges)))


def test_transitivity_scan():
    assert orc.transitivity_violation([1] * 35, 3, 7) is None
    # color the graph edge {a, b}, a < b, by the parity of a: transitive
    colors = [0] * 15
    for a, b in combinations(range(6), 2):
        colors[orc.colex_rank((a, b))] = 1 + a % 2
    assert orc.transitivity_violation(colors, 2, 6) is None
    # recoloring {0, 3} breaks the triple 0 < 2 < 3, the first in lex order
    colors[orc.colex_rank((0, 3))] = 2
    assert orc.transitivity_violation(colors, 2, 6) == (0, 2, 3)
