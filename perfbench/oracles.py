"""Expected answers and output checks computed without the engine under test.

Nothing here imports ``monopath``.  The closed forms, the Dedekind table, the
colex lookup and the small path and transitivity scans are written from the
definitions, so a benchmark request is judged by code that shares no logic
with the code that answered it.  ``tests/test_bench_oracles.py`` checks the
tables against brute force at small sizes.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb, prod

# Down-sets of the Boolean lattice [2]^d (OEIS A000372), d = 0..8.
DEDEKIND = (
    2,
    3,
    6,
    20,
    168,
    7581,
    7828354,
    2414682040998,
    56130437228687557907788,
)

# Down-sets of [3]^4, i.e. 3-dimensional partitions in the 3-box.
DOWNSETS_3_4 = 17792748


def central_binomial(n: int) -> int:
    return comb(2 * n, n)


def plane_partitions_in_box(a: int, b: int, c: int) -> int:
    """MacMahon: prod_{i<=a, j<=b} (i + j + c - 1) / (i + j - 1)."""
    pairs = [(i, j) for i in range(1, a + 1) for j in range(1, b + 1)]
    num = prod(i + j + c - 1 for i, j in pairs)
    den = prod(i + j - 1 for i, j in pairs)
    if num % den:
        raise AssertionError("MacMahon's product is not an integer")
    return num // den


def downsets(n: int, d: int) -> int:
    """Down-sets of the grid [n]^d, for the sizes this benchmark requests."""
    if d == 1:
        return n + 1
    if d == 2:
        return central_binomial(n)
    if d == 3:
        return plane_partitions_in_box(n, n, n)
    if n == 2 and d < len(DEDEKIND):
        return DEDEKIND[d]
    if (n, d) == (3, 4):
        return DOWNSETS_3_4
    raise KeyError(f"no independent value for down-sets of [{n}]^{d}")


def order_ideals(elements: list, le) -> list[frozenset]:
    """Every down-set of a finite poset, by plain recursion over the elements.

    ``elements`` must list every element after all elements below it, so
    when x is reached the membership of everything under x is decided.
    """
    below = [[y for y in elements[:i] if le(y, x)] for i, x in enumerate(elements)]
    out: list[frozenset] = []

    def walk(i: int, chosen: frozenset) -> None:
        if i == len(elements):
            out.append(chosen)
            return
        walk(i + 1, chosen)
        if all(y in chosen for y in below[i]):
            walk(i + 1, chosen | {elements[i]})

    walk(0, frozenset())
    return out


def rho(k: int, d: int, n: int) -> int:
    """Order-k structures over [n]^d: the grid, then iterated down-sets."""
    if k == 2:
        return n**d
    if k == 3:
        return downsets(n, d)
    if (d, n) == (2, 2):
        return 2 * k
    # lexicographic order extends the product order, and sorting down-sets
    # by size extends inclusion, so each level is a valid walking order
    level: list = sorted(product(range(1, n + 1), repeat=d))
    le = lambda x, y: all(a <= b for a, b in zip(x, y))  # noqa: E731
    for _ in range(3, k + 1):
        level = sorted(order_ideals(level, le), key=len)
        le = frozenset.issubset
    return len(level)


def ramsey_value(k: int, q: int, n: int) -> int:
    """Least N forcing a monochromatic monotone path of length n, where known."""
    if k == 2:
        return n**q + 1
    if k == 3:
        return downsets(n, q) + 1
    if q == 2:
        return rho(k, 2, n) + 1
    raise KeyError(f"no closed form for N_{k}({q}, {n})")


def gaussian_central(n: int) -> list[int]:
    """Coefficients of the q-binomial [2n choose n]_q.

    Uses the product prod_{i=1..n} (1 - q^(n+i)) / (1 - q^i), dividing
    polynomials exactly, a different route from the q-Pascal recurrence.
    """
    poly = [1]
    for i in range(1, n + 1):
        factor = [1] + [0] * (n + i - 1) + [-1]
        out = [0] * (len(poly) + len(factor) - 1)
        for a, x in enumerate(poly):
            if x:
                for b, y in enumerate(factor):
                    out[a + b] += x * y
        # divide by 1 - q^i
        for t in range(i, len(out)):
            out[t] += out[t - i]
        if any(out[len(out) - i :]):
            raise AssertionError("q-binomial division left a remainder")
        poly = out[: len(out) - i]
    return poly


def composition_counts(n: int, d: int) -> list[int]:
    """Counts of d-tuples from 1..n by coordinate sum, sums d..dn."""
    counts = [0] * (d * n - d + 1)
    for t in product(range(1, n + 1), repeat=d):
        counts[sum(t) - d] += 1
    return counts


# --- colorings -------------------------------------------------------------


def colex_rank(t) -> int:
    return sum(comb(v, i + 1) for i, v in enumerate(t))


def color_at(colors, edge) -> int:
    return colors[colex_rank(edge)]


def path_is_mono(colors, k: int, n_vertices: int, color: int, vertices) -> bool:
    """Every consecutive k-window of the increasing vertices has ``color``."""
    vs = list(vertices)
    if len(vs) < k or vs[0] < 0 or vs[-1] >= n_vertices:
        return False
    if any(a >= b for a, b in zip(vs, vs[1:])):
        return False
    return all(
        color_at(colors, vs[i : i + k]) == color for i in range(len(vs) - k + 1)
    )


def longest_paths(colors, k: int, q: int, n_vertices: int) -> list[int]:
    """Longest monochromatic monotone path per color, by a plain window DP.

    Edges are visited by increasing last vertex, so the value of a window is
    final before any edge extends it.
    """
    best = [dict() for _ in range(q + 1)]
    for last in range(n_vertices):
        for front in combinations(range(last), k - 1):
            edge = front + (last,)
            c = color_at(colors, edge)
            table = best[c]
            cand = table.get(front, 0) + 1
            back = edge[1:]
            if cand > table.get(back, 0):
                table[back] = cand
    return [max(best[c].values(), default=0) for c in range(1, q + 1)]


def transitivity_violation(colors, k: int, n_vertices: int):
    """The lexicographically first violating (k+1)-tuple, or None."""
    for tup in combinations(range(n_vertices), k + 1):
        c = color_at(colors, tup[:k])
        if color_at(colors, tup[1:]) != c:
            continue
        if any(color_at(colors, tup[:i] + tup[i + 1 :]) != c for i in range(1, k)):
            return tup
    return None
