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
from dataclasses import dataclass, field

from .budget import DEFAULT_BUDGET, ENV_BUDGET, BudgetExceeded, default_budget
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
from .grid import GridBox
from .paths import injectivity_certificate
from .search import RamseyResult, SearchBudget, exact_ramsey

DEFAULT_SEED = 1729
DEFAULT_COLORING_FILE = "coloring.json"


@dataclass(frozen=True)
class RunConfig:
    """A validated invocation: subcommand plus everything it needs."""

    subcommand: str
    params: dict
    budget: int
    seed: int
    fmt: str
    paths: dict = field(default_factory=dict)


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _path_json(path) -> dict:
    return {
        "color": path.color,
        "length": path.length,
        "vertices": [v + 1 for v in path.vertices],
    }


def _require(args, names: list[str]) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_"), None) is None]
    if missing:
        raise ValueError(f"missing required flags: {', '.join('--' + n for n in missing)}")


def _cmd_count(cfg: RunConfig) -> int:
    p = cfg.params
    kind = p["kind"]
    if kind == "partitions":
        if p.get("d") is None or p.get("n") is None:
            raise ValueError("count --kind partitions needs --d and --n")
        v = count_downsets(GridBox(n=p["n"], d=p["d"]), budget=cfg.budget)
        _print_json({"kind": kind, "d": p["d"], "n": p["n"], "value": str(v)})
    elif kind == "rho":
        if any(p.get(x) is None for x in ("k", "d", "n")):
            raise ValueError("count --kind rho needs --k, --d and --n")
        v = count_rho(p["k"], p["d"], p["n"], budget=cfg.budget)
        _print_json({"kind": kind, "k": p["k"], "d": p["d"], "n": p["n"], "value": str(v)})
    elif kind == "dedekind":
        if p.get("d") is None:
            raise ValueError("count --kind dedekind needs --d")
        v = dedekind(p["d"], budget=cfg.budget)
        _print_json({"kind": kind, "d": p["d"], "value": str(v)})
    elif kind == "rank-profile":
        if p.get("n") is None:
            raise ValueError("count --kind rank-profile needs --n")
        if p.get("d") is not None:
            prof = s_profile(p["n"], p["d"], budget=cfg.budget)
            head = {"kind": kind, "graded": f"[{p['n']}]^{p['d']} by coordinate sum"}
        else:
            prof = lnn_rank_sizes(p["n"], budget=cfg.budget)
            head = {"kind": kind, "graded": f"line partitions in the {p['n']}-box by area"}
        if cfg.fmt == "table":
            print(f"# {head['graded']}")
            for i, s in enumerate(prof.sizes):
                print(f"{prof.start + i:4d}  {s}")
            print(f"# total {prof.total}  max {prof.max_size}")
        else:
            head.update(
                start=prof.start,
                sizes=[str(s) for s in prof.sizes],
                total=str(prof.total),
                max=str(prof.max_size),
            )
            _print_json(head)
    else:
        raise ValueError(f"unknown count kind {kind!r}")
    return 0


def _cmd_formula(cfg: RunConfig) -> int:
    p = cfg.params
    kind = p["kind"]
    if kind == "p1":
        if p.get("n") is None:
            raise ValueError("formula --kind p1 needs --n")
        v = p1_closed(p["n"], budget=cfg.budget)
        _print_json({"kind": kind, "n": p["n"], "value": str(v)})
    elif kind == "macmahon":
        if p.get("n") is None:
            raise ValueError("formula --kind macmahon needs --n")
        v = macmahon(p["n"], budget=cfg.budget)
        _print_json({"kind": kind, "n": p["n"], "value": str(v)})
    elif kind == "rectangular":
        a, b, c = p.get("a"), p.get("b"), p.get("c")
        if a is None or b is None:
            raise ValueError("formula --kind rectangular needs --a and --b (and --c for boxes)")
        if c is None:
            v = p1_rect(a, b, budget=cfg.budget)
            _print_json({"kind": kind, "a": a, "b": b, "value": str(v)})
        else:
            v = macmahon_rect(a, b, c, budget=cfg.budget)
            _print_json({"kind": kind, "a": a, "b": b, "c": c, "value": str(v)})
    else:
        raise ValueError(f"unknown formula kind {kind!r}")
    return 0


def _cmd_construct(cfg: RunConfig) -> int:
    p = cfg.params
    family = p["family"]
    if family == "graph":
        if p.get("q") is None or p.get("n") is None:
            raise ValueError("construct --family graph needs --q and --n")
        col = color_graph_lower(p["q"], p["n"], budget=cfg.budget)
    elif family == "3uniform":
        if p.get("q") is None:
            raise ValueError("construct --family 3uniform needs --q")
        if p.get("bounds") is not None:
            bounds = tuple(int(x) for x in p["bounds"].split(","))
            col = color_3uniform_lower(p["q"], bounds=bounds, budget=cfg.budget)
        elif p.get("n") is not None:
            col = color_3uniform_lower(p["q"], p["n"], budget=cfg.budget)
        else:
            raise ValueError("construct --family 3uniform needs --n or --bounds")
    elif family == "kuniform":
        if p.get("k") is None or p.get("n") is None:
            raise ValueError("construct --family kuniform needs --k and --n")
        col = color_kuniform_lower(p["k"], p["n"], p.get("d") or 2, budget=cfg.budget)
    elif family == "random":
        if any(p.get(x) is None for x in ("k", "q", "N")):
            raise ValueError("construct --family random needs --k, --q and --N")
        col = random_coloring(p["k"], p["q"], p["N"], cfg.seed, budget=cfg.budget)
    else:
        raise ValueError(f"unknown construct family {family!r}")
    out = cfg.paths["out"]
    col.save(out)
    _print_json(
        {"file": out, "family": family, "k": col.k, "q": col.q, "N": col.N,
         "edges": col.num_edges}
    )
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    p = cfg.params
    if p.get("n") is None:
        raise ValueError("verify needs --n (the forbidden path length)")
    n = p["n"]
    col = EdgeColoring.load(cfg.paths["file"])
    cert = injectivity_certificate(col, n, budget=cfg.budget)
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


def _cmd_transitive(cfg: RunConfig) -> int:
    col = EdgeColoring.load(cfg.paths["file"])
    res = is_transitive(col, budget=cfg.budget)
    if res is True:
        _print_json({"transitive": True})
        return 0
    if not check_transitivity_witness(col, res):
        raise AssertionError("transitivity witness failed its own recheck")
    _print_json({"transitive": False, "witness": [v + 1 for v in res]})
    return 1


def _cmd_search(cfg: RunConfig) -> int:
    p = cfg.params
    if any(p.get(x) is None for x in ("k", "q", "n")):
        raise ValueError("search needs --k, --q and --n")
    sb = SearchBudget(
        max_nodes=p.get("max_nodes") or cfg.budget,
        max_seconds=p.get("max_seconds"),
    )
    res: RamseyResult = exact_ramsey(p["k"], p["q"], p["n"], p.get("max_N"), sb)
    out = cfg.paths.get("extremal_out")
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


def _cmd_bounds(cfg: RunConfig) -> int:
    p = cfg.params
    rows = run_inequality_suite(
        d_max=p.get("d_max") or 4,
        n_max=p.get("n_max") or 4,
        k_max=p.get("k_max") or 5,
        budget=cfg.budget,
    )
    failures = sum(1 for r in rows if r["verdict"] == "FAIL")
    if cfg.fmt == "table":
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


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    budget = args.budget if args.budget is not None else default_budget()
    if budget <= 0:
        raise ValueError("--budget must be positive")
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("budget", "seed", "fmt", "subcommand", "file", "out", "extremal_out")
    }
    paths = {}
    for key in ("file", "out", "extremal_out"):
        if hasattr(args, key):
            paths[key] = getattr(args, key)
    return RunConfig(
        subcommand=args.subcommand,
        params=params,
        budget=budget,
        seed=args.seed,
        fmt=args.fmt,
        paths=paths,
    )


def run(cfg: RunConfig) -> int:
    return _COMMANDS[cfg.subcommand](cfg)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return run(cfg)
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
