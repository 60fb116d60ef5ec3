"""Command-line entry point.

Subcommands: count, formula, construct, verify, transitive, search, bounds.
JSON on stdout is the interchange format; big integers are decimal strings
and vertex indices in files and reports are 1-based.  Exit codes: 0 success
or property holds, 1 property violated, 2 input or format error, 3 work
budget exhausted.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from decimal import Decimal

from .budget import DEFAULT_BUDGET, ENV_BUDGET, BudgetExceeded, WorkMeter, default_budget, meter
from .bounds import render_rows, run_inequality_suite
from .colorings import (
    EdgeColoring,
    check_transitivity_witness,
    color_3uniform_lower,
    color_graph_lower,
    color_kuniform_lower,
    is_transitive,
    random_coloring,
)
from .counting import (
    GridBox,
    count_downsets,
    count_rho,
    dedekind,
    lnn_rank_sizes,
    macmahon,
    macmahon_rect,
    p1_closed,
    p1_rect,
    s_profile,
)
from .paths import injectivity_certificate
from .search import RamseyResult, SearchBudget, exact_ramsey

DEFAULT_SEED = 1729
DEFAULT_COLORING_FILE = "coloring.json"


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _decimal(v: int, out: WorkMeter) -> str:
    """v in decimal.  A value past the interpreter's limit on str() (4300
    digits) pays ``out`` for its conversion first, which is quadratic in its
    length: ((bits // 64) + 1)^2 units."""
    try:
        return str(v)
    except ValueError:
        out.charge((v.bit_length() // 64 + 1) ** 2)
        return str(Decimal(v))


def _path_json(path) -> dict:
    return {
        "color": path.color,
        "length": path.length,
        "vertices": [v + 1 for v in path.vertices],
    }


def _cmd_count(args: argparse.Namespace, budget: int) -> int:
    kind = args.kind
    out = meter(budget, "decimal output")
    if kind == "partitions":
        if args.d is None or args.n is None:
            raise ValueError("count --kind partitions needs --d and --n")
        v = count_downsets(GridBox(n=args.n, d=args.d), budget=budget)
        _print_json({"kind": kind, "d": args.d, "n": args.n, "value": _decimal(v, out)})
    elif kind == "rho":
        if None in (args.k, args.d, args.n):
            raise ValueError("count --kind rho needs --k, --d and --n")
        v = count_rho(args.k, args.d, args.n, budget=budget)
        _print_json({"kind": kind, "k": args.k, "d": args.d, "n": args.n, "value": _decimal(v, out)})
    elif kind == "dedekind":
        if args.d is None:
            raise ValueError("count --kind dedekind needs --d")
        v = dedekind(args.d, budget=budget)
        _print_json({"kind": kind, "d": args.d, "value": _decimal(v, out)})
    elif kind == "rank-profile":
        if args.n is None:
            raise ValueError("count --kind rank-profile needs --n")
        if args.d is not None:
            prof = s_profile(args.n, args.d, budget=budget)
            head = {"kind": kind, "graded": f"[{args.n}]^{args.d} by coordinate sum"}
        else:
            prof = lnn_rank_sizes(args.n, budget=budget)
            head = {"kind": kind, "graded": f"line partitions in the {args.n}-box by area"}
        if args.fmt == "table":
            print(f"# {head['graded']}")
            for i, s in enumerate(prof.sizes):
                print(f"{prof.start + i:4d}  {_decimal(s, out)}")
            print(f"# total {_decimal(prof.total, out)}  max {_decimal(prof.max_size, out)}")
        else:
            head.update(
                start=prof.start,
                sizes=[_decimal(s, out) for s in prof.sizes],
                total=_decimal(prof.total, out),
                max=_decimal(prof.max_size, out),
            )
            _print_json(head)
    else:
        raise ValueError(f"unknown count kind {kind!r}")
    return 0


def _cmd_formula(args: argparse.Namespace, budget: int) -> int:
    kind = args.kind
    out = meter(budget, "decimal output")
    if kind == "p1":
        if args.n is None:
            raise ValueError("formula --kind p1 needs --n")
        v = p1_closed(args.n, budget=budget)
        _print_json({"kind": kind, "n": args.n, "value": _decimal(v, out)})
    elif kind == "macmahon":
        if args.n is None:
            raise ValueError("formula --kind macmahon needs --n")
        v = macmahon(args.n, budget=budget)
        _print_json({"kind": kind, "n": args.n, "value": _decimal(v, out)})
    elif kind == "rectangular":
        a, b, c = args.a, args.b, args.c
        if a is None or b is None:
            raise ValueError("formula --kind rectangular needs --a and --b (and --c for boxes)")
        if c is None:
            v = p1_rect(a, b, budget=budget)
            _print_json({"kind": kind, "a": a, "b": b, "value": _decimal(v, out)})
        else:
            v = macmahon_rect(a, b, c, budget=budget)
            _print_json({"kind": kind, "a": a, "b": b, "c": c, "value": _decimal(v, out)})
    else:
        raise ValueError(f"unknown formula kind {kind!r}")
    return 0


def _cmd_construct(args: argparse.Namespace, budget: int) -> int:
    family = args.family
    if family == "graph":
        if args.q is None or args.n is None:
            raise ValueError("construct --family graph needs --q and --n")
        col = color_graph_lower(args.q, args.n, budget=budget)
    elif family == "3uniform":
        if args.q is None:
            raise ValueError("construct --family 3uniform needs --q")
        if args.bounds is not None:
            bounds = tuple(int(x) for x in args.bounds.split(","))
            col = color_3uniform_lower(args.q, bounds=bounds, budget=budget)
        elif args.n is not None:
            col = color_3uniform_lower(args.q, args.n, budget=budget)
        else:
            raise ValueError("construct --family 3uniform needs --n or --bounds")
    elif family == "kuniform":
        if args.k is None or args.n is None:
            raise ValueError("construct --family kuniform needs --k and --n")
        # a --d not given keeps the build's own default
        d = () if args.d is None else (args.d,)
        col = color_kuniform_lower(args.k, args.n, *d, budget=budget)
    elif family == "random":
        if None in (args.k, args.q, args.N):
            raise ValueError("construct --family random needs --k, --q and --N")
        col = random_coloring(args.k, args.q, args.N, args.seed, budget=budget)
    else:
        raise ValueError(f"unknown construct family {family!r}")
    col.save(args.out)
    _print_json(
        {"file": args.out, "family": family, "k": col.k, "q": col.q, "N": col.N,
         "edges": col.num_edges}
    )
    return 0


def _cmd_verify(args: argparse.Namespace, budget: int) -> int:
    n = args.n
    col = EdgeColoring.load(args.file)
    cert = injectivity_certificate(col, n, budget=budget)
    scan = cert.scan
    report = {
        "n": n,
        "k": col.k,
        "q": col.q,
        "N": col.N,
        "per_color_max": [scan.per_color_max[c] for c in range(1, col.q + 1)],
        "witnesses": [
            _path_json(w) if w is not None else None
            for w in (scan.witnesses[c] for c in range(1, col.q + 1))
        ],
    }
    if cert.status == "distinct":
        report["certificate"] = "distinct"
        code = 0
    elif cert.status == "path":
        report["certificate"] = {"path": _path_json(cert.path)}
        code = 1
    else:
        report["certificate"] = {
            "collision": [cert.collision[0] + 1, cert.collision[1] + 1],
            "path": _path_json(cert.path),
        }
        code = 1
    _print_json(report)
    return code


def _cmd_transitive(args: argparse.Namespace, budget: int) -> int:
    col = EdgeColoring.load(args.file)
    res = is_transitive(col, budget=budget)
    if res is True:
        _print_json({"transitive": True})
        return 0
    if not check_transitivity_witness(col, res):
        raise AssertionError("transitivity witness failed its own recheck")
    _print_json({"transitive": False, "witness": [v + 1 for v in res]})
    return 1


def _cmd_search(args: argparse.Namespace, budget: int) -> int:
    sb = SearchBudget(
        max_nodes=budget if args.max_nodes is None else args.max_nodes,
        max_seconds=args.max_seconds,
    )
    res: RamseyResult = exact_ramsey(args.k, args.q, args.n, args.max_N, sb)
    out = args.extremal_out
    if out and res.extremal is not None:
        res.extremal.save(out)
    _print_json(
        {
            "status": res.status,
            "value": res.value,
            "lower_bound": res.lower_bound,
            "extremal_coloring_file": out if res.extremal is not None else None,
            "nodes": res.nodes,
            "seconds": round(res.seconds, 3),
        }
    )
    return 3 if res.status == "budget_exhausted" else 0


def _cmd_bounds(args: argparse.Namespace, budget: int) -> int:
    # a flag not given keeps the suite's own default
    sizes = {key: v for key in ("d_max", "n_max", "k_max")
             if (v := getattr(args, key)) is not None}
    for key, v in sizes.items():
        if v < 1:
            raise ValueError(f"--{key.replace('_', '-')} must be at least 1, got {v}")
    rows = run_inequality_suite(**sizes, budget=budget)
    failures = sum(1 for r in rows if r["verdict"] == "FAIL")
    if args.fmt == "table":
        print(render_rows(rows))
        print(f"# {len(rows)} rows, {failures} failures")
    else:
        _print_json({"rows": rows, "failures": failures})
    return 1 if failures else 0


_COMMANDS = {
    "count": _cmd_count,
    "formula": _cmd_formula,
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "transitive": _cmd_transitive,
    "search": _cmd_search,
    "bounds": _cmd_bounds,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared after that."""
    ap = argparse.ArgumentParser(
        prog="monopath",
        description="Monotone-path Ramsey numbers and high-dimensional partition counting.",
    )
    ap.add_argument("--budget", type=int, default=None,
                    help=f"work-unit budget (default: {ENV_BUDGET} or {DEFAULT_BUDGET})")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="seed for randomized constructions")
    ap.add_argument("--format", choices=("json", "table"), default="json",
                    dest="fmt", help="output format for count/bounds reports")
    # accepted after the subcommand too; SUPPRESS keeps the top-level value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget", type=int, default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("json", "table"),
                        default=argparse.SUPPRESS, dest="fmt")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    c = sub.add_parser("count", parents=[common],
                       help="exact counts: partitions, rho, dedekind, rank-profile")
    c.add_argument("--kind", required=True,
                   choices=("partitions", "rho", "dedekind", "rank-profile"))
    c.add_argument("--d", type=int)
    c.add_argument("--n", type=int)
    c.add_argument("--k", type=int)

    f = sub.add_parser("formula", parents=[common], help="closed forms: p1, macmahon, rectangular")
    f.add_argument("--kind", required=True, choices=("p1", "macmahon", "rectangular"))
    f.add_argument("--n", type=int)
    f.add_argument("--a", type=int)
    f.add_argument("--b", type=int)
    f.add_argument("--c", type=int)

    g = sub.add_parser("construct", parents=[common], help="build an extremal or random coloring file")
    g.add_argument("--family", required=True,
                   choices=("graph", "3uniform", "kuniform", "random"))
    g.add_argument("--q", type=int)
    g.add_argument("--n", type=int)
    g.add_argument("--k", type=int)
    g.add_argument("--d", type=int)
    g.add_argument("--N", type=int)
    g.add_argument("--bounds", type=str,
                   help="comma-separated per-color path bounds for 3uniform")
    g.add_argument("--out", default=DEFAULT_COLORING_FILE)

    v = sub.add_parser("verify", parents=[common], help="longest paths and pigeonhole certificate for a coloring file")
    v.add_argument("--file", default=DEFAULT_COLORING_FILE)
    v.add_argument("--n", type=int, required=True)

    t = sub.add_parser("transitive", parents=[common], help="check the transitivity property of a coloring file")
    t.add_argument("--file", default=DEFAULT_COLORING_FILE)

    s = sub.add_parser("search", parents=[common], help="exact Ramsey value by pruned backtracking")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--max-N", type=int, dest="max_N")
    s.add_argument("--max-nodes", type=int, dest="max_nodes")
    s.add_argument("--max-seconds", type=float, dest="max_seconds")
    s.add_argument("--extremal-out", dest="extremal_out")

    b = sub.add_parser("bounds", parents=[common], help="run the inequality suite")
    b.add_argument("--d-max", type=int, dest="d_max")
    b.add_argument("--n-max", type=int, dest="n_max")
    b.add_argument("--k-max", type=int, dest="k_max")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        budget = args.budget if args.budget is not None else default_budget()
        if budget <= 0:
            raise ValueError("--budget must be positive")
        return _COMMANDS[args.subcommand](args, budget)
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
