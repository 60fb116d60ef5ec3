from itertools import combinations
from math import comb

from hypothesis import given
from hypothesis import strategies as st

from monopath.subsets import colex_blocks, colex_rank, colex_unrank, subsets_colex, window_runs


def test_colex_rank_small():
    assert colex_rank((0, 1, 2)) == 0
    assert colex_rank((0, 1, 3)) == 1
    assert colex_rank((2, 3, 4)) == comb(2, 1) + comb(3, 2) + comb(4, 3)


@given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=4))
def test_enumeration_matches_rank(n, r):
    seq = list(subsets_colex(n, r))
    assert len(seq) == comb(n, r)
    assert [colex_rank(t) for t in seq] == list(range(comb(n, r)))


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=4))
def test_enumeration_is_sorted_subsets(n, r):
    seq = set(subsets_colex(n, r))
    assert seq == set(combinations(range(n), r))


@given(st.integers(min_value=0, max_value=9), st.integers(min_value=1, max_value=4))
def test_colex_unrank_inverts_rank(n, r):
    for t in subsets_colex(n, r):
        assert colex_unrank(colex_rank(t), len(t)) == t


def test_colex_unrank_deeper_than_recursion_limit():
    for t in subsets_colex(1501, 1500):
        assert colex_unrank(colex_rank(t), 1500) == t


def test_colex_primary_key_is_last_vertex():
    seq = list(subsets_colex(6, 3))
    lasts = [t[-1] for t in seq]
    assert lasts == sorted(lasts)


def _check_window_runs(n, k):
    """Every window of ``window_runs(n, k)`` names its edges and fronts by rank."""
    windows = list(subsets_colex(n, k - 1))
    w = 0
    for top, blocks in window_runs(n, k):
        for start, m in blocks:
            b = windows[w]
            assert m == b[0]
            for a in range(m):
                assert colex_rank((a,) + b) == top + start + a
                assert colex_rank((a,) + b[:-1]) == start + a
            w += 1
    assert w == len(windows)


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=2, max_value=12))
def test_window_runs_match_ranks(n, k):
    _check_window_runs(n, k)


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=1, max_value=5))
def test_colex_blocks_start_the_runs_of_the_level_above(n, r):
    blocks = colex_blocks(n, r)
    subsets = list(subsets_colex(n, r))
    assert [m for _, m in blocks] == [t[0] for t in subsets]
    for (start, m), t in zip(blocks, subsets):
        assert all(colex_rank((a,) + t) == start + a for a in range(m))
    assert sum(m for _, m in blocks) == comb(n, r + 1)


def test_enumeration_deeper_than_recursion_limit():
    # one subset per left-out vertex, in colex order: the last one left out first
    seq = list(subsets_colex(1501, 1500))
    assert len(seq) == 1501
    assert seq[0] == tuple(range(1500)) and seq[-1] == tuple(range(1, 1501))
    assert all(len(t) == 1500 for t in seq)


def test_window_runs_wide_k_stay_small():
    # the windows of a 35-vertex 34-uniform hypergraph are its 595 vertex
    # pairs left out, and its block list is 561 long; no list may grow past
    # that on the way
    assert len(colex_blocks(34, 32)) == comb(34, 32)
    _check_window_runs(35, 34)
    assert list(window_runs(5, 10**9)) == []
