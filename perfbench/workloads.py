"""Request generators for the three benchmark workloads.

A workload is an endless series of rounds.  Every round of a workload holds
the same number of requests of each class; the seed decides which keys fill
the classes, the random-coloring seeds, the node caps within their bands and
the order.  Runs stop only at a round boundary, so every run measures the
same mix whatever its length, and counts such as ``bounds.miss_units_share``
repeat exactly.  The quotas also place the median and the 90th percentile
inside blocks of requests of one kind, so neither percentile sits on the edge
between two kinds of very different cost.

Each request is one argv list for ``monopath.cli.main`` plus a check that
judges its exit code and output with :mod:`oracles` alone.

``workload.repeat_share`` below is the share of requests whose key already
ran earlier in the run, as the traced run reports it (over its untraced
rounds, with ``--seconds 20``); it grows with the number of rounds.

count-mix (101 requests a round)
    80 cheap requests in 8 families with fixed quotas: ``formula`` p1 (22),
    macmahon (12), rectangular (18); ``count`` rank-profile by sum (14),
    rank-profile (4), partitions of [n]^1..3 (5), dedekind d<=4 (2), rho (3).
    Inside a family keys are drawn from a Zipf law (s = 1.2) over a
    seed-shuffled ranking, so a few keys are hot.  Every round also has 5
    light counts ([4]^3, [5]^3, rho_3 over [4]^3 and [5]^3, [2]^5), six
    [3]^4 counts (three through partitions, three through rho), [6]^3,
    [7]^3, [2]^6, 4 small-grid ``bounds`` suites (two with a tight
    ``--budget``, so rows are skipped), and 3 over-budget counts that must
    exit 3: ``partitions --d 7 --n 2 --budget 5000000`` twice and
    ``dedekind --d 7 --budget 5000000`` once.  The dedekind request keeps
    its ``--budget`` although the CLI drops it and spends the default 5*10^7
    units; ``counting.work_units`` shows that.
    Why: counting, budget and bounds do almost all the work and keys repeat
    (measured workload.repeat_share 0.37 to 0.44 over one round), so a
    result cache or a cheaper budget-miss path would show here.  The median
    sits inside the block of formulas and rank profiles by sum, which cost
    about the same and are mostly CLI overhead; the 90th percentile sits on
    the [3]^4 block, with the bounds suites and the heavy counts above it.

verify-mix (120 requests a round)
    36 ``construct --family random`` -> ``verify`` pairs, 9 each of
    (k, q) = (3,2), (3,3), (4,2), (4,3), with N cycling through 8..14 for
    k=3 and 7..11 for k=4 and n alternating 2, 3; every coloring has a fresh
    48-bit seed and none repeats.  The first pair of each (k, q) is followed
    by ``transitive``.  20 extremal pairs: 3uniform q=2 n=3 (x2), n=4 (x6),
    n=5 (x1), q=3 n=2 (x2); kuniform k=4 n=2 (x2), k=4 n=3 (x1), k=5 n=2
    (x2); graph (q, n) = (2,3), (2,4), (3,3), (3,4); four of the small ones
    are followed by ``transitive``.
    Why: paths, colorings (build plus JSON save and load) and universes
    dominate; counting and search are barely touched.  The k=4 n=3 pair is
    the one large k != 3 instance, so the generic path DP and the kuniform
    build weigh heavily in throughput.  Measured workload.repeat_share 0.15
    (the extremal pairs; random colorings never repeat).

search-mix (44 requests a round)
    ``search`` for (3,2,2) x16, (4,2,2) x12, (5,2,2) x4, (6,2,2) x3,
    (2,3,2) x2, (2,2,3) x1, and node-capped hard cases (2,2,4) x3 and
    (3,2,3) x3 with caps of 60000 nodes give or take 2%; these must exit 3
    or return the exact value.  Every request writes its extremal coloring,
    which the check re-verifies.  (k,2,2) stops at k=6: at k=7 the
    disequality search recurses once per edge decision and raises
    RecursionError at the default recursion limit.
    Why: search does almost all the work; paths only re-verifies many tiny
    colorings, so a paths change that adds per-call set-up cost slows this
    workload while it may speed up verify-mix.  Measured
    workload.repeat_share 0.83 over four rounds.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from math import comb
from typing import Callable

import oracles as orc

# colorings with at most this many edges are re-scanned by the oracle DP
ORACLE_EDGE_CAP = 60_000


@dataclass
class Request:
    """One CLI call; ``check(rc, stdout, stderr)`` returns a failure or None."""

    argv: list[str]
    key: str
    check: Callable[[int, str, str], str | None]

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass
class Job:
    """Requests that must run in order, such as construct then verify."""

    requests: list[Request]
    context: dict = field(default_factory=dict)


def _zipf_pick(rng: random.Random, ranked: list, count: int, s: float = 1.2) -> list:
    weights = [1.0 / (r + 1) ** s for r in range(len(ranked))]
    return rng.choices(ranked, weights=weights, k=count)


def _parse(out: str):
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"


def _expect_value(expected: int, echo: dict) -> Callable:
    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc}, want 0: {err.strip()[:200]}"
        data, bad = _parse(out)
        if bad:
            return bad
        for k, v in echo.items():
            if data.get(k) != v:
                return f"field {k}={data.get(k)!r}, want {v!r}"
        if data.get("value") != str(expected):
            return f"value {data.get('value')!r}, want {expected}"
        return None

    return check


def _expect_budget_miss(rc, out, err):
    if rc != 3:
        return f"exit {rc}, want 3 (budget exhausted)"
    if out.strip():
        return "over-budget request printed a result"
    if not err.startswith("budget exhausted"):
        return f"stderr {err.strip()[:200]!r} does not report the budget"
    return None


def _expect_profile(start: int, sizes: list[int]) -> Callable:
    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc}, want 0: {err.strip()[:200]}"
        data, bad = _parse(out)
        if bad:
            return bad
        want = {
            "start": start,
            "sizes": [str(s) for s in sizes],
            "total": str(sum(sizes)),
            "max": str(max(sizes)),
        }
        for k, v in want.items():
            if data.get(k) != v:
                return f"rank-profile field {k} is {data.get(k)!r}, want {v!r}"
        return None

    return check


def _expect_bounds_clean(rc, out, err):
    if rc != 0:
        return f"exit {rc}, want 0: {err.strip()[:200]}"
    data, bad = _parse(out)
    if bad:
        return bad
    rows = data.get("rows")
    if not rows:
        return "bounds returned no rows"
    verdicts = [r.get("verdict") for r in rows]
    if any(v not in ("PASS", "SKIPPED", "INFO") for v in verdicts):
        return f"bounds verdicts {sorted(set(verdicts))} include a failure"
    if data.get("failures") != 0:
        return f"bounds reports {data.get('failures')} failures"
    return None


# --- count-mix ---------------------------------------------------------------


def _count(argv: str, expected: int, **echo) -> tuple[list[str], Callable]:
    return argv.split(), _expect_value(expected, echo)


def _cheap_families() -> list[tuple[int, list]]:
    """(quota per round, [(argv, check), ...]) for the cheap request families."""
    p1 = [_count(f"formula --kind p1 --n {n}", orc.central_binomial(n)) for n in range(1, 31)]
    mac = [
        _count(f"formula --kind macmahon --n {n}", orc.plane_partitions_in_box(n, n, n))
        for n in range(1, 7)
    ]
    rect = [
        _count(f"formula --kind rectangular --a {a} --b {b}", comb(a + b, a))
        for a in range(1, 7)
        for b in range(1, 7)
    ] + [
        _count(
            f"formula --kind rectangular --a {a} --b {b} --c {c}",
            orc.plane_partitions_in_box(a, b, c),
        )
        for a in range(1, 5)
        for b in range(1, 5)
        for c in range(1, 5)
    ]
    profile = [
        (f"count --kind rank-profile --n {n}".split(),
         _expect_profile(0, orc.gaussian_central(n)))
        for n in range(1, 9)
    ]
    profile_d = [
        (f"count --kind rank-profile --n {n} --d {d}".split(),
         _expect_profile(d, orc.composition_counts(n, d)))
        for n in range(2, 6)
        for d in range(2, 5)
    ]
    parts = [
        _count(f"count --kind partitions --d {d} --n {n}", orc.downsets(n, d), d=d, n=n)
        for d, top in ((1, 9), (2, 7), (3, 3))
        for n in range(1, top + 1)
    ]
    ded = [_count(f"count --kind dedekind --d {d}", orc.DEDEKIND[d], d=d) for d in range(1, 5)]
    rho = [
        _count(f"count --kind rho --k {k} --d {d} --n {n}", orc.rho(k, d, n), k=k, d=d, n=n)
        for k, d, n in (
            [(k, 2, 2) for k in range(2, 8)]
            + [(2, d, n) for d in range(1, 4) for n in range(1, 5)]
            + [(3, 2, n) for n in range(1, 8)]
            + [(3, 3, n) for n in range(1, 4)]
        )
    ]
    # formulas and rank profiles by sum cost about the same, so the median
    # falls inside a block of near-equal requests whatever keys are drawn
    return [(22, p1), (12, mac), (18, rect), (14, profile_d), (4, profile),
            (5, parts), (2, ded), (3, rho)]


def _fixed_count_requests() -> list[tuple[list[str], Callable]]:
    """Count-mix requests present exactly once per round, in catalogue order."""
    light = [
        _count("count --kind partitions --d 3 --n 4", orc.downsets(4, 3), d=3, n=4),
        _count("count --kind partitions --d 3 --n 5", orc.downsets(5, 3), d=3, n=5),
        _count("count --kind rho --k 3 --d 3 --n 4", orc.downsets(4, 3), k=3, d=3, n=4),
        _count("count --kind rho --k 3 --d 3 --n 5", orc.downsets(5, 3), k=3, d=3, n=5),
        _count("count --kind dedekind --d 5", orc.DEDEKIND[5], d=5),
    ]
    # the 90th percentile falls inside this block of [3]^4 counts and the
    # two over-budget [2]^7 counts of similar cost below
    medium = [
        _count("count --kind partitions --d 4 --n 3", orc.DOWNSETS_3_4, d=4, n=3),
        _count("count --kind rho --k 3 --d 4 --n 3", orc.DOWNSETS_3_4, k=3, d=4, n=3),
    ] * 3 + [
        _count("count --kind partitions --d 3 --n 6", orc.downsets(6, 3), d=3, n=6),
    ]
    bounds = [
        (f"bounds {flags}".split(), _expect_bounds_clean)
        for flags in (
            "--d-max 2 --n-max 2 --k-max 2",
            "--d-max 3 --n-max 3 --k-max 2",
            "--d-max 4 --n-max 3 --k-max 2 --budget 1000000",
            "--d-max 4 --n-max 4 --k-max 2 --budget 2000000",
        )
    ]
    over = [
        ("count --kind partitions --d 7 --n 2 --budget 5000000".split(), _expect_budget_miss),
        ("count --kind partitions --d 7 --n 2 --budget 5000000".split(), _expect_budget_miss),
        # cli drops --budget for dedekind, so this spends the default budget
        ("count --kind dedekind --d 7 --budget 5000000".split(), _expect_budget_miss),
    ]
    heavy = [
        _count("count --kind partitions --d 3 --n 7", orc.downsets(7, 3), d=3, n=7),
        _count("count --kind dedekind --d 6", orc.DEDEKIND[6], d=6),
    ]
    return light + medium + bounds + over + heavy


class CountMix:
    name = "count-mix"

    def __init__(self, seed: int, tmpdir: str):
        self.rng = random.Random(seed)
        self.families = []
        for quota, members in _cheap_families():
            ranked = list(members)
            self.rng.shuffle(ranked)
            self.families.append((quota, ranked))
        self.fixed = _fixed_count_requests()

    def round(self) -> list[Job]:
        picks = list(self.fixed)
        for quota, ranked in self.families:
            picks.extend(_zipf_pick(self.rng, ranked, quota))
        self.rng.shuffle(picks)
        return [Job([Request(argv, " ".join(argv), check)]) for argv, check in picks]


# --- verify-mix --------------------------------------------------------------


def _load_coloring(path: str, ctx: dict) -> str | None:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return f"coloring file unreadable: {exc}"
    ctx["k"], ctx["q"], ctx["N"] = data["k"], data["q"], data["N"]
    ctx["colors"] = data["colors"]
    if len(ctx["colors"]) != comb(ctx["N"], ctx["k"]):
        return "coloring file has the wrong number of colors"
    if any(not 1 <= c <= ctx["q"] for c in ctx["colors"]):
        return "coloring file has colors out of range"
    if len(ctx["colors"]) <= ORACLE_EDGE_CAP:
        ctx["maxima"] = orc.longest_paths(ctx["colors"], ctx["k"], ctx["q"], ctx["N"])
    return None


def _construct_check(path: str, ctx: dict, k: int, q: int, n_vertices: int,
                     forbidden: int | None) -> Callable:
    """Checks a construct; ``forbidden`` is n for an extremal (path-free) one."""

    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc}, want 0: {err.strip()[:200]}"
        data, bad = _parse(out)
        if bad:
            return bad
        want = {"k": k, "q": q, "N": n_vertices, "edges": comb(n_vertices, k)}
        for key, v in want.items():
            if data.get(key) != v:
                return f"construct field {key}={data.get(key)!r}, want {v}"
        bad = _load_coloring(path, ctx)
        if bad:
            return bad
        if forbidden is not None and "maxima" in ctx and max(ctx["maxima"]) >= forbidden:
            return f"extremal coloring has a monochromatic path of length {forbidden}"
        return None

    return check


def _path_error(ctx: dict, entry: dict, color: int | None = None) -> str | None:
    verts = [v - 1 for v in entry["vertices"]]
    c = entry["color"] if color is None else color
    if entry["color"] != c:
        return f"witness has color {entry['color']}, want {c}"
    if entry["length"] != len(verts) - ctx["k"] + 1:
        return "witness length does not match its vertices"
    if not orc.path_is_mono(ctx["colors"], ctx["k"], ctx["N"], c, verts):
        return f"witness {entry['vertices']} is not a color-{c} monotone path"
    return None


def _verify_check(ctx: dict, n: int, extremal: bool) -> Callable:
    def check(rc, out, err):
        if "colors" not in ctx:
            return "no coloring to verify against"
        data, bad = _parse(out)
        if bad:
            return f"exit {rc}: {bad}"
        maxima = data.get("per_color_max")
        if not isinstance(maxima, list) or len(maxima) != ctx["q"]:
            return f"per_color_max {maxima!r} has the wrong shape"
        if "maxima" in ctx and maxima != ctx["maxima"]:
            return f"per_color_max {maxima}, oracle says {ctx['maxima']}"
        if extremal and max(maxima) >= n:
            return f"extremal coloring reported a path of length {max(maxima)} >= {n}"
        for c, (m, wit) in enumerate(zip(maxima, data["witnesses"]), start=1):
            if m == 0:
                if wit is not None:
                    return f"color {c} has no edge but a witness"
                continue
            if wit is None or wit["length"] != m:
                return f"color {c} witness missing or not of length {m}"
            bad = _path_error(ctx, wit, c)
            if bad:
                return bad
        cert = data.get("certificate")
        if max(maxima) >= n:
            if rc != 1 or not isinstance(cert, dict) or "path" not in cert:
                return f"exit {rc} / certificate {cert!r}, want exit 1 with a path"
            if cert["path"]["length"] < n:
                return "certificate path is shorter than n"
            return _path_error(ctx, cert["path"])
        if rc != 0 or cert != "distinct":
            return f"exit {rc} / certificate {cert!r}, want exit 0 and 'distinct'"
        return None

    return check


def _transitive_check(ctx: dict) -> Callable:
    def check(rc, out, err):
        if "colors" not in ctx:
            return "no coloring to scan against"
        data, bad = _parse(out)
        if bad:
            return f"exit {rc}: {bad}"
        want = orc.transitivity_violation(ctx["colors"], ctx["k"], ctx["N"])
        if want is None:
            return None if rc == 0 and data == {"transitive": True} else (
                f"exit {rc} / {data!r}, want transitive")
        got = data.get("witness")
        if rc != 1 or got != [v + 1 for v in want]:
            return f"exit {rc} / witness {got!r}, want exit 1 and {[v + 1 for v in want]}"
        return None

    return check


def _coloring_job(path: str, construct: str, k: int, q: int, n_vertices: int,
                  n: int, extremal: bool, transitive: bool) -> Job:
    ctx: dict = {}
    argv = construct.split() + ["--out", path]
    reqs = [Request(argv, construct,
                    _construct_check(path, ctx, k, q, n_vertices, n if extremal else None))]
    reqs.append(Request(["verify", "--file", path, "--n", str(n)],
                        f"verify --n {n} <{construct}>", _verify_check(ctx, n, extremal)))
    if transitive:
        reqs.append(Request(["transitive", "--file", path],
                            f"transitive <{construct}>", _transitive_check(ctx)))
    return Job(reqs, ctx)


def _extremal_specs() -> list[tuple]:
    """(family flags, k, q, N, forbidden n, repeats, with transitive scan)."""
    return [
        ("3uniform --q 2 --n 3", 3, 2, orc.downsets(3, 2), 3, 2, False),
        ("3uniform --q 2 --n 4", 3, 2, orc.downsets(4, 2), 4, 6, False),
        ("3uniform --q 2 --n 5", 3, 2, orc.downsets(5, 2), 5, 1, False),
        ("3uniform --q 3 --n 2", 3, 3, orc.downsets(2, 3), 2, 2, True),
        ("kuniform --k 4 --n 2", 4, 2, orc.rho(4, 2, 2), 2, 2, True),
        ("kuniform --k 4 --n 3", 4, 2, orc.rho(4, 2, 3), 3, 1, False),
        ("kuniform --k 5 --n 2", 5, 2, orc.rho(5, 2, 2), 2, 2, True),
        ("graph --q 2 --n 3", 2, 2, 3**2, 3, 1, True),
        ("graph --q 2 --n 4", 2, 2, 4**2, 4, 1, False),
        ("graph --q 3 --n 3", 2, 3, 3**3, 3, 1, False),
        ("graph --q 3 --n 4", 2, 3, 4**3, 4, 1, False),
    ]


class VerifyMix:
    name = "verify-mix"

    def __init__(self, seed: int, tmpdir: str):
        self.rng = random.Random(seed)
        self.path = os.path.join(tmpdir, "coloring.json")
        self.extremal = _extremal_specs()
        self.used_seeds: set[int] = set()

    def _fresh_seed(self) -> int:
        while True:
            s = self.rng.getrandbits(48)
            if s not in self.used_seeds:
                self.used_seeds.add(s)
                return s

    def round(self) -> list[Job]:
        jobs = []
        for flags, k, q, big, n, reps, trans in self.extremal:
            construct = f"construct --family {flags}"
            for i in range(reps):
                jobs.append(_coloring_job(self.path, construct, k, q, big, n,
                                          extremal=True, transitive=trans and i == 0))
        # N and n follow a fixed cycle so every round has the same sizes;
        # only the colorings, drawn from fresh seeds, change
        for k, q in ((3, 2), (3, 3), (4, 2), (4, 3)):
            for i in range(9):
                big = 8 + i % 7 if k == 3 else 7 + i % 5
                construct = (f"construct --family random --k {k} --q {q} --N {big} "
                             f"--seed {self._fresh_seed()}")
                jobs.append(_coloring_job(self.path, construct, k, q, big, 2 + i % 2,
                                          extremal=False, transitive=i == 0))
        self.rng.shuffle(jobs)
        return jobs


# --- search-mix --------------------------------------------------------------


def _search_check(path: str, k: int, q: int, n: int, cap: int | None) -> Callable:
    truth = orc.ramsey_value(k, q, n)

    def check(rc, out, err):
        data, bad = _parse(out)
        if bad:
            return f"exit {rc}: {bad}"
        status = data.get("status")
        if status == "exact":
            if rc != 0 or data.get("value") != truth:
                return f"exit {rc} value {data.get('value')!r}, want exit 0 and {truth}"
        elif status == "budget_exhausted" and cap is not None:
            if rc != 3 or data.get("value") is not None:
                return f"exit {rc} for an exhausted search, want 3"
            if data.get("nodes") != cap + 1:
                return f"search stopped at {data.get('nodes')} nodes, cap {cap}"
            if not data.get("lower_bound", truth + 1) <= truth:
                return f"lower bound {data.get('lower_bound')} exceeds {truth}"
        else:
            return f"exit {rc} status {status!r}, want an exact value"
        if data.get("extremal_coloring_file") is None:
            return None if status != "exact" else "exact result without extremal coloring"
        ctx: dict = {}
        bad = _load_coloring(path, ctx)
        if bad:
            return bad
        want_n = (truth if status == "exact" else data["lower_bound"]) - 1
        if (ctx["k"], ctx["q"], ctx["N"]) != (k, q, want_n):
            return f"extremal coloring is (k,q,N)={(ctx['k'], ctx['q'], ctx['N'])}"
        if "maxima" not in ctx or max(ctx["maxima"], default=0) >= n:
            return "extremal coloring has a long path or is too large to re-check"
        return None

    return check


# (k, q, n, repeats per round); the quotas put the median inside the k=4
# block and the 90th percentile inside the block of node-capped hard cases
_SEARCH_EXACT = [(3, 2, 2, 16), (4, 2, 2, 12), (5, 2, 2, 4), (6, 2, 2, 3), (2, 3, 2, 2),
                 (2, 2, 3, 1)]
# (k, q, n, node cap, repeats per round); each cap moves by up to 2% with the seed
_SEARCH_HARD = [(2, 2, 4, 60_000, 3), (3, 2, 3, 60_000, 3)]


class SearchMix:
    name = "search-mix"

    def __init__(self, seed: int, tmpdir: str):
        self.rng = random.Random(seed)
        self.path = os.path.join(tmpdir, "extremal.json")

    def _request(self, k, q, n, cap=None) -> Job:
        argv = ["search", "--k", str(k), "--q", str(q), "--n", str(n)]
        if cap is not None:
            argv += ["--max-nodes", str(cap)]
        key = " ".join(argv)
        argv += ["--extremal-out", self.path]
        return Job([Request(argv, key, _search_check(self.path, k, q, n, cap))])

    def round(self) -> list[Job]:
        jobs = [self._request(k, q, n) for k, q, n, reps in _SEARCH_EXACT for _ in range(reps)]
        for k, q, n, cap, reps in _SEARCH_HARD:
            for _ in range(reps):
                jitter = self.rng.randint(-cap // 50, cap // 50)
                jobs.append(self._request(k, q, n, cap + jitter))
        self.rng.shuffle(jobs)
        return jobs


WORKLOADS = {cls.name: cls for cls in (CountMix, VerifyMix, SearchMix)}
