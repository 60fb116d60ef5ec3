"""Tower arithmetic and the machine-checkable inequality suite.

t_h(x) is the iterated exponential: t_1(x) = x and t_h(x) = 2^(t_{h-1}(x)),
so t_3(x) = 2^(2^x).  TowerScalar holds (height, exact rational top); values
too large to materialize are compared symbolically:

* equal heights: t_h is strictly increasing, so compare tops exactly;
* unequal heights: t_a(x) = t_b(t_{a-b+1}(x)) reduces to tower-vs-rational;
* tower vs rational: materialize exactly when the integer tops stay under a
  bit guard, otherwise descend through log2 using outward-rounded rational
  bounds (log2 of a rational is an integer or irrational, so the descent
  decides every comparison that does not need more than the precision cap,
  and reports "undecided" rather than guessing past it).

Interval bounds on 2^x for rational x come from iterated integer square
roots after coarsening the fractional part to s dyadic bits, which keeps
everything in exact outward-rounded rationals: no floating point touches
any verdict.

run_inequality_suite evaluates every finitely checkable inequality of the
theory on a small grid: the middle-layer rank bound, partition-count
bounds, the 3-uniform Ramsey sandwich, the rho recursion in both forms, the
tower transform and its two-step variant, and the tower-difference rule.
It is one table of checks, each a list of (name, statement) pairs, a grid
of params, a rule that returns the sides of its rows and the note a budget
miss leaves, run in order by one loop.  Its counts and the square roots of
its tower intervals draw on one pot of work units, and once a run has spent
twice its budget every further count is a miss.  Verdicts are PASS/FAIL
(exact or outward-rounded), SKIPPED (a side is not desk-computable or
exceeds the work budget), or INFO (asymptotic rates reported, never
judged).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, isqrt, log2

from .budget import BudgetExceeded, WorkMeter, default_budget, memoized, meter
from .counting import count_box_partitions, count_rho, middle_max

_MAX_BITS = 1 << 23  # materialization guard for exact powers of two

Ordering = str  # "lt" | "eq" | "gt" | "undecided"


def _to_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("floats are not accepted; pass int, Fraction, or str")
    return Fraction(x)


@dataclass(frozen=True)
class TowerScalar:
    """t_height(top) with an exact rational top."""

    height: int
    top: Fraction

    def __post_init__(self) -> None:
        if self.height < 1:
            raise ValueError("height must be >= 1")
        object.__setattr__(self, "top", _to_fraction(self.top))

    def as_exact(self, max_bits: int = _MAX_BITS) -> Fraction | None:
        """The exact rational value, or None when it cannot materialize."""
        return _materialize(self.height, self.top, max_bits)

    def __str__(self) -> str:
        v = self.as_exact(4096)
        if v is not None:
            return _fmt_fraction(v)
        return f"t_{self.height}({_fmt_fraction(self.top)})"


def _fmt_fraction(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _materialize(h: int, top: Fraction, max_bits: int) -> Fraction | None:
    cur = top
    for _ in range(h - 1):
        if cur.denominator != 1:
            return None
        e = cur.numerator
        if abs(e) > max_bits:
            return None
        cur = Fraction(1 << e) if e >= 0 else Fraction(1, 1 << -e)
    return cur


def tower(h: int, x) -> TowerScalar:
    """t_h(x), with small integer levels folded down so tower(2,10) == 1024."""
    top = _to_fraction(x)
    while h >= 2 and top.denominator == 1 and abs(top.numerator) <= 4096:
        e = top.numerator
        top = Fraction(1 << e) if e >= 0 else Fraction(1, 1 << -e)
        h -= 1
    return TowerScalar(height=h, top=top)


def _cmp_frac(a: Fraction, b: Fraction) -> Ordering:
    return "lt" if a < b else "gt" if a > b else "eq"


def _flip(o: Ordering) -> Ordering:
    return {"lt": "gt", "gt": "lt"}.get(o, o)


def _floor_log2(y: Fraction) -> int:
    """floor(log2 y) for y > 0, exactly."""
    n, d = y.numerator, y.denominator
    m = n.bit_length() - d.bit_length()

    def at_least(e: int) -> bool:  # y >= 2^e
        return n >= d << e if e >= 0 else n << -e >= d

    while not at_least(m):
        m -= 1
    while at_least(m + 1):
        m += 1
    return m


def _log2_bounds(y: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Rationals lo <= log2(y) <= hi with hi - lo <= 2^(1-prec), outward."""
    if y <= 0:
        raise ValueError("log2 needs a positive argument")
    m = _floor_log2(y)
    if y == (Fraction(1 << m) if m >= 0 else Fraction(1, 1 << -m)):
        return Fraction(m), Fraction(m)
    z = y / (Fraction(1 << m) if m >= 0 else Fraction(1, 1 << -m))
    w = prec + 16
    num, den = z.numerator, z.denominator
    zlo = (num << w) // den
    zhi = -((-num << w) // den)
    lo_bits = hi_bits = 0
    for _ in range(prec):
        zlo = (zlo * zlo) >> w
        lo_bits <<= 1
        if zlo >> (w + 1):
            lo_bits |= 1
            zlo >>= 1
        zhi = -((-(zhi * zhi)) >> w)
        hi_bits <<= 1
        if zhi >> (w + 1):
            hi_bits |= 1
            zhi = (zhi + 1) >> 1
    scale = 1 << prec
    return (
        Fraction(m) + Fraction(lo_bits, scale),
        Fraction(m) + Fraction(hi_bits + 1, scale),
    )


def _cmp_tower_vs_scalar(g: int, x: Fraction, y: Fraction) -> Ordering:
    """Compare t_g(x) against the rational y."""
    if g == 1:
        return _cmp_frac(x, y)
    v = _materialize(g, x, _MAX_BITS)
    if v is not None:
        return _cmp_frac(v, y)
    if y <= 0:
        return "gt"
    for prec in (48, 96, 192, 384):
        lo, hi = _log2_bounds(y, prec)
        if lo == hi:
            # y is an exact power of two; recurse without loss
            return _cmp_tower_vs_scalar(g - 1, x, lo)
        # log2(y) is irrational here, so the rational bounds are strict
        if _cmp_tower_vs_scalar(g - 1, x, hi) in ("gt", "eq"):
            return "gt"
        if _cmp_tower_vs_scalar(g - 1, x, lo) in ("lt", "eq"):
            return "lt"
    return "undecided"


def tower_compare(a, b) -> Ordering:
    """Order two towers (or rationals); never wrong, possibly "undecided"."""
    ta = a if isinstance(a, TowerScalar) else TowerScalar(1, _to_fraction(a))
    tb = b if isinstance(b, TowerScalar) else TowerScalar(1, _to_fraction(b))
    if ta.height == tb.height:
        return _cmp_frac(ta.top, tb.top)
    if ta.height > tb.height:
        return _cmp_tower_vs_scalar(ta.height - tb.height + 1, ta.top, tb.top)
    return _flip(_cmp_tower_vs_scalar(tb.height - ta.height + 1, tb.top, ta.top))


# --- outward-rounded rational intervals for towers -------------------------------


class _Unbounded(Exception):
    """An interval endpoint left the materialization guard."""


def _pow2_root(p: int, s: int, wm: WorkMeter) -> int:
    """s nested integer square roots of 2^p, kept in the process-wide memo.

    The interval endpoints below spend nearly all their time here, on p of
    about t * 2^s bits, while the root has only about t bits to keep.
    Units: one per 64-bit word of 2^p, p // 64 + 1, paid before the roots.
    """
    def roots():
        wm.prepay(p // 64 + 1)
        x = 1 << p
        for _ in range(s):
            x = isqrt(x)
        return x

    return memoized(("pow2_root", p, s), wm, roots)


def _pow2_bound(e: Fraction, s: int, t: int, up: bool, wm: WorkMeter) -> Fraction:
    """Rational r with r <= 2^e, or 2^e <= r when ``up``; exact for integer e.

    The fractional part f of e is rounded to s dyadic bits, and 2^f to t
    bits, both in that direction.
    """
    m, f = divmod(e, 1)
    if m > _MAX_BITS or (not f and -m > _MAX_BITS):
        raise _Unbounded
    r = Fraction(1)
    if f:
        num = f.numerator << s
        u = -(-num // f.denominator) if up else num // f.denominator
        r = Fraction(_pow2_root(u + (t << s), s, wm) + (1 if up else 0), 1 << t)
    return r * (1 << m) if m >= 0 else r / (1 << -m)


def tower_bounds(
    ts: TowerScalar, s: int = 12, t: int = 48, *, budget: int | WorkMeter | None = None
) -> tuple[Fraction, Fraction]:
    """Outward rational bounds lo <= t_h(top) <= hi.

    Raises _Unbounded when an endpoint would exceed the bit guard.  Units:
    those of the square roots of ``_pow2_root``.
    """
    wm = meter(budget, f"tower bounds at height {ts.height}")
    lo = hi = ts.top
    for _ in range(ts.height - 1):
        lo, hi = _pow2_bound(lo, s, t, False, wm), _pow2_bound(hi, s, t, True, wm)
    return lo, hi


# --- the inequality suite -----------------------------------------------------


def _fmt_int(x: int) -> str:
    if x.bit_length() <= 80:
        return str(x)
    return f"2^{log2(x):.3f} ({x.bit_length()} bits)"


def _int_ge_pow2(x: int, p: int) -> bool:
    """x >= 2^p for x >= 1, p >= 0, without building 2^p."""
    return x.bit_length() >= p + 1


def _int_vs_pow2_frac(x: int, e_num: int, e_den: int) -> bool | None:
    """x >= 2^(e_num/e_den) decided exactly via x^e_den vs 2^e_num."""
    if x <= 0:
        return False
    if x.bit_length() * e_den > 50_000_000:
        return None
    return _int_ge_pow2(x**e_den, e_num)


def _verdict(ok: bool | None) -> str:
    if ok is None:
        return "UNDECIDED"
    return "PASS" if ok else "FAIL"


class _Skip(Exception):
    """A side of the row cannot be had at desk scale; the message says why."""


def _grid(**axes) -> list[dict]:
    """One params dict per point of the product of the axes, first axis outermost."""
    return [dict(zip(axes, point)) for point in product(*axes.values())]


# t_k(a) - t_k(b) >= t_k(a - 2^-(k-2)) is checked at these (a, b)
_TOWER_DIFFERENCE_TOPS = [
    ("3", "2"), ("4", "3"), ("4", "2"), ("7/2", "2"), ("9/2", "3"), ("10/3", "11/6"),
]


def run_inequality_suite(
    d_max: int = 4, n_max: int = 4, k_max: int = 5, *, budget: int | None = None
) -> list[dict]:
    """Evaluate every finitely checkable inequality on the default grid.

    The suite is one table of checks.  Each check holds its (name, statement)
    pairs, its grid of params, a rule that returns one dict of sides (lhs,
    rhs, verdict and any extra keys) per pair, and the note of the SKIPPED
    rows it gets when a count misses its budget.  One loop runs them in
    order.  A check without a note lets the miss propagate (``middle_max``,
    whose miss ends the run); a rule can raise ``_Skip`` for a note of its
    own, or return no sides to emit no row.

    The budget is pooled over the whole run.  A count gets the room left in
    the pot, but no more than an eighth of the budget, and no less than a
    two-hundredth of it, so trivial values still appear after heavy counts
    have drained the pot; once the run has spent twice its budget, every
    further count is a miss.  A tower-difference row whose values do not
    materialize is such a cell too: its intervals pay for their square
    roots.  Results, budget misses included, are cached, so rows sharing a
    value never pay for it twice.

    That per-run cache is an accounting rule: a value several rows share is
    charged to the pot once per run, and every run starts with a full pot.
    The process-wide memo of :mod:`monopath.budget` is a different thing:
    the counts and the tower endpoints a run needs may come from it, but a
    value from it charges its cell the units it took, and a miss replays only
    for the room it missed in, so every run of the same suite charges the
    pot the same units and returns the same rows.
    """
    total = default_budget() if budget is None else budget
    cap, floor = max(1, total // 8), max(1, total // 200)
    spent = 0
    cache: dict[tuple, object] = {}

    def cell(key, count, *args):
        nonlocal spent
        if key not in cache:
            room = max(floor, min(cap, total - spent)) if spent < 2 * total else 0
            sub = WorkMeter(room, f"suite cell {key}")
            try:
                if not room:
                    sub.charge()  # past twice the budget: a miss without the count
                cache[key] = count(*args, budget=sub)
            except BudgetExceeded as exc:
                cache[key] = exc
            spent += sub.used
        if isinstance(cache[key], BudgetExceeded):
            raise cache[key]
        return cache[key]

    def pc(d: int, n: int) -> int:
        """P_d(n): d-dimensional partitions in the n-box; P_0(n) = n + 1 is free."""
        if d == 0:
            return n + 1
        return cell(("P", d, n), count_box_partitions, (n,) * d, n)

    def rho(k: int, d: int, n: int) -> int:
        return cell(("rho", k, d, n), count_rho, k, d, n)

    def mid(n: int, d: int) -> int:
        return cell(("M", n, d), middle_max, n, d)[1]

    def middle_rank(d, n):
        m = mid(n, d)  # squared to integers: 9 d M^2 >= 4 n^(2d-2)
        return [dict(lhs=str(m), rhs=f"~{(2 / 3) * n ** (d - 1) / d**0.5:.4f}",
                     verdict=_verdict(9 * d * m * m >= 4 * n ** (2 * d - 2)))]

    def downsets(d, n):
        m, p = mid(n, d), pc(d - 1, n)
        return [dict(lhs=_fmt_int(p), rhs=f"2^{m}", verdict=_verdict(_int_ge_pow2(p, m)))]

    def crude_upper(d, n):
        p, rhs = pc(d, n), comb(2 * n, n) ** (n ** (d - 1))
        return [dict(lhs=_fmt_int(p), rhs=_fmt_int(rhs), verdict=_verdict(p <= rhs))]

    def partition_lower(d, n):
        p = pc(d, n)  # 3 sqrt(d+1) log2 p >= 2 n^d, outward-rounded
        ok = _sqrt_weighted_log_ge(p, 3, d + 1, 2 * n**d)
        return [dict(lhs=_fmt_int(p), rhs=f"2^~{(2 / 3) * n**d / (d + 1) ** 0.5:.4f}",
                     verdict=_verdict(ok))]

    def sandwich(q, n):
        n3 = pc(q - 1, n) + 1
        upper_ok = n3 <= 2 ** (2 * n ** (q - 1))
        lower_ok = _sqrt_weighted_log_ge(n3, 3, q, 2 * n ** (q - 1))
        return [dict(lhs=f"2^~{(2 / 3) * n ** (q - 1) / q**0.5:.4f}", rhs=f"2^{2 * n ** (q - 1)}",
                     verdict=_verdict(None if lower_ok is None else lower_ok and upper_ok),
                     mid=_fmt_int(n3))]

    def recursion(k, d, n):
        # exact via big-int powers, for rho_k and for N_k = rho_k + 1
        r0, r1, r2 = rho(k - 2, d, n), rho(k - 1, d, n), rho(k, d, n)
        return [dict(lhs=_fmt_int(r), rhs=f"2^({r1 + 1}/{r0 + 1})",
                     verdict=_verdict(_int_vs_pow2_frac(r, r1 + 1, r0 + 1)))
                for r in (r2, r2 + 1)]

    def tower_transform(k, q, n):
        nk, n3 = rho(k, q, n) + 1, pc(q - 1, n) + 1
        rhs = TowerScalar(k - 2, Fraction(n3))
        cmp = tower_compare(nk, rhs)
        return [dict(lhs=_fmt_int(nk), rhs=str(rhs),
                     verdict=_verdict(None if cmp == "undecided" else cmp in ("lt", "eq")))]

    def step_upper(k, q, n):
        nk, colors = rho(k, q, n) + 1, pc(q - 1, n)
        if k == 4:  # N_2(c, 2) = 2^c + 1
            if colors > _MAX_BITS:
                raise _Skip("right side exponent too large")
            rhs = (1 << colors) + 1
        else:  # N_3(c, 2) = P_{c-1}(2) + 1: a (c-1)-dimensional count
            if colors - 1 > 6:
                raise _Skip(f"right side needs P_{colors - 1}(2), not desk-computable")
            try:
                rhs = pc(colors - 1, 2) + 1
            except BudgetExceeded:
                raise _Skip("right side exceeds work budget") from None
        return [dict(lhs=_fmt_int(nk), rhs=_fmt_int(rhs), verdict=_verdict(nk <= rhs))]

    def tower_difference(k, a, b):
        tops = Fraction(a), Fraction(b), Fraction(a) - Fraction(1, 1 << (k - 2))
        exact = [_materialize(k, v, _MAX_BITS) for v in tops]
        if None in exact:  # outward intervals, whose square roots draw on the pot
            ok = cell(("T", k, a, b), _tower_difference_holds, k, *tops)
        else:
            ok = exact[0] - exact[1] >= exact[2]
        return [dict(lhs=f"t_{k}({a}) - t_{k}({b})", rhs=f"t_{k}({_fmt_fraction(tops[2])})",
                     verdict=_verdict(ok))]

    def rate(n):
        try:
            p2 = pc(2, n)
        except BudgetExceeded:  # a rate is reported, never judged: no row
            return []
        return [dict(lhs=f"{log2(p2) / n**2:.4f}", rhs=f"{1.5 * log2(27 / 16):.4f}",
                     verdict="INFO",
                     note="asymptotic: rate computed, not falsifiable at desk scale")]

    def middle_constant(d, n):
        m = mid(n, d)  # 2/3 proven, sqrt(6/pi) conjectured for large d
        return [dict(lhs=f"{m * d**0.5 / n ** (d - 1):.4f}",
                     rhs=f"2/3 ~ 0.6667, sqrt(6/pi) ~ {(6 / 3.141592653589793)**0.5:.4f}",
                     verdict="INFO",
                     note="no finite threshold for the improved constant; both reported")]

    ds, d2s, ns = range(1, d_max + 1), range(2, d_max + 1), range(1, n_max + 1)
    ks = range(4, k_max + 1)
    by_partitions = "partition count exceeds work budget"
    by_structures = "structure count exceeds work budget"
    checks = [
        ([("middle-rank-lower", "max_k S_n(k,d) >= (2/3) n^(d-1)/sqrt(d)")],
         _grid(d=d2s, n=ns), middle_rank, None),
        ([("downsets-exceed-middle-layer", "P_{d-1}(n) >= 2^(max_k S_n(k,d))")],
         _grid(d=d2s, n=ns), downsets, by_partitions),
        ([("crude-upper", "P_d(n) <= binom(2n,n)^(n^(d-1))")],
         _grid(d=ds, n=ns), crude_upper, by_partitions),
        ([("partition-count-lower", "P_d(n) >= 2^((2/3) n^d / sqrt(d+1))")],
         _grid(d=ds, n=ns), partition_lower, by_partitions),
        ([("ramsey3-sandwich", "2^((2/3) n^(q-1)/sqrt(q)) <= N_3(q,n) <= 2^(2 n^(q-1))")],
         _grid(q=d2s, n=ns), sandwich, by_partitions),
        ([("rho-recursion", "rho_k(n) >= 2^((rho_{k-1}(n)+1)/(rho_{k-2}(n)+1))"),
          ("ramsey-recursion", "N_k(q,n) >= 2^(N_{k-1}(q,n)/N_{k-2}(q,n))")],
         _grid(k=ks, d=ds, n=ns), recursion, by_structures),
        ([("tower-transform", "N_k(q,n) <= t_{k-2}(N_3(q,n))")],
         _grid(k=ks, q=ds, n=ns), tower_transform, by_structures),
        ([("ramsey-step-upper", "N_k(q,n) <= N_{k-2}(N_3(q,n)-1, 2)")],
         _grid(k=range(4, min(k_max, 5) + 1), q=ds, n=ns), step_upper, by_structures),
        ([("tower-difference",
           "t_k(a) - t_k(b) >= t_k(a - 2^-(k-2)) for a >= max(b+1, 3), b > 0")],
         [{"k": k, "a": a, "b": b} for k in range(2, min(k_max, 4) + 1)
          for a, b in _TOWER_DIFFERENCE_TOPS], tower_difference,
         "tower interval exceeds work budget"),
        ([("three-color-rate", "log2(N_3(3,n)-1)/n^2 -> (3/2) log2(27/16) as n grows")],
         _grid(n=ns), rate, None),
        ([("middle-layer-constant", "effective constant M sqrt(d)/n^(d-1) vs 2/3 and sqrt(6/pi)")],
         _grid(d=d2s, n=[n_max]), middle_constant, None),
    ]

    rows: list[dict] = []
    for pairs, grid, rule, miss in checks:
        for params in grid:
            try:
                sides = rule(**params)
            except BudgetExceeded:
                if miss is None:
                    raise
                sides = [dict(lhs=None, rhs=None, verdict="SKIPPED", note=miss)] * len(pairs)
            except _Skip as skip:
                sides = [dict(lhs=None, rhs=None, verdict="SKIPPED", note=str(skip))]
            rows += ({"name": name, "statement": statement, "params": params, **side}
                     for (name, statement), side in zip(pairs, sides))
    return rows


def _sqrt_weighted_log_ge(x: int, coef: int, root_of: int, target: int) -> bool | None:
    """Decide coef * sqrt(root_of) * log2(x) >= target, outward-rounded.

    All arguments are positive integers except x which must be >= 1.
    """
    if x < 1:
        return False
    r = isqrt(root_of)
    if r * r == root_of:
        # rational case: log2(x) >= target / (coef * r)
        return _int_vs_pow2_frac(x, target, coef * r)
    for prec in (48, 96, 192):
        llo, lhi = _log2_bounds(Fraction(x), prec)
        s = isqrt(root_of << (2 * prec))  # s/2^prec <= sqrt(root_of) < (s+1)/2^prec
        if coef * Fraction(s, 1 << prec) * llo >= target:
            return True
        if coef * Fraction(s + 1, 1 << prec) * lhi < target:
            return False
    return None


def _tower_difference_holds(
    k: int, a: Fraction, b: Fraction, c: Fraction, *, budget: int | WorkMeter | None = None
) -> bool | None:
    """t_k(a) - t_k(b) >= t_k(c), by outward intervals, finer until one decides.

    Units: those of the intervals' square roots.
    """
    wm = meter(budget, f"tower difference at k = {k}")
    for s, t in ((12, 48), (16, 64), (20, 96)):
        try:
            a_lo, a_hi = tower_bounds(TowerScalar(k, a), s, t, budget=wm)
            b_lo, b_hi = tower_bounds(TowerScalar(k, b), s, t, budget=wm)
            c_lo, c_hi = tower_bounds(TowerScalar(k, c), s, t, budget=wm)
        except _Unbounded:
            return None
        if a_lo - b_hi >= c_hi:
            return True
        if a_hi - b_lo < c_lo:
            return False
    return None


def render_rows(rows: list[dict]) -> str:
    """Fixed-width table for terminal output."""
    cols = ["name", "params", "lhs", "rhs", "verdict"]
    table = [
        [
            r["name"],
            ",".join(f"{k}={v}" for k, v in r["params"].items()),
            str(r.get("lhs") or r.get("note") or ""),
            str(r.get("rhs") or ""),
            r["verdict"],
        ]
        for r in rows
    ]
    widths = [max(len(row[i]) for row in table + [cols]) for i in range(5)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in table:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
