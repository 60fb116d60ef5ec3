"""Closed-loop request-stream benchmark for the monopath engine.

Usage (from the repository root)::

    python3 perfbench/run.py --workload count-mix --seed 1 --seconds 20 --trace 0

One client sends one request at a time, each an in-process
``monopath.cli.main(argv)`` call with stdout and stderr captured, in a single
process with no threads.  Every answer is checked against :mod:`oracles`
after its latency is taken.  Requests come in rounds (see :mod:`workloads`),
and the run keeps starting rounds until the wall-clock time spent inside
requests reaches ``--seconds`` and at least 100 requests have run, so it
ends on a round boundary.

All reported times are scaled by :mod:`speed` to a machine of fixed speed;
the summary line before the result also gives the unscaled wall-clock
figures.  Throughput is correct requests per (scaled) second spent inside
requests: the client's checking time between requests is not counted.
Latency percentiles are nearest-rank over the untraced requests, whose count
the summary line states.  ``setup_s`` is the median of seven set-ups, each
importing the engine afresh, building the expected-answer tables and the
first round, and making the temporary directory.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds (an even number, at least two), reports the
per-layer metrics of the traced rounds with the tracing overhead, and writes
the spans to ``.perfbench_out/``.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The engine is imported from ``src/`` next to this directory and nowhere
else; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
MIN_REQUESTS = 100


class Setup:
    """Everything a run needs before its first request."""

    def __init__(self, workload: str, seed: int, index: int):
        for name in list(sys.modules):
            if name == "monopath" or name.startswith("monopath."):
                del sys.modules[name]
        self.cli = importlib.import_module("monopath.cli")
        where = Path(self.cli.__file__).resolve()
        if ROOT / "src" not in where.parents:
            raise ImportError(f"monopath was imported from {where}, not from {ROOT / 'src'}")
        self.modules = tracing.monopath_modules()
        self.tmpdir = ROOT / ".perfbench_tmp" / f"{workload}-{os.getpid()}-{index}"
        self.tmpdir.mkdir(parents=True, exist_ok=True)
        self.generator = workloads.WORKLOADS[workload](seed, str(self.tmpdir))
        self.first_round = self.generator.round()

    def close(self) -> None:
        shutil.rmtree(self.tmpdir, ignore_errors=True)


class Stats:
    """Outcomes of the requests of one kind of round (untraced or traced)."""

    def __init__(self):
        self.intervals: list[tuple[float, float, float]] = []  # start, end, seconds
        self.correct = 0
        self.failed = 0
        self.failures: list[str] = []
        self.keys: set[str] = set()
        self.repeats = 0

    @property
    def attempted(self) -> int:
        return self.correct + self.failed

    def latencies(self, probe: speed.SpeedProbe) -> list[float]:
        """Request latencies in seconds, scaled to the reference speed."""
        return [dt * probe.scale(t0, t1) for t0, t1, dt in self.intervals]

    def throughput(self, probe: speed.SpeedProbe) -> float:
        busy = sum(self.latencies(probe))
        return self.correct / busy if busy else 0.0


def execute(setup: Setup, req: workloads.Request, stats: Stats, tracer, rid: int,
            probe: speed.SpeedProbe) -> None:
    out, err = io.StringIO(), io.StringIO()
    crash = None
    rc = None
    span = tracer.begin_request(rid, req.subcommand) if tracer else None
    stolen = probe.stolen
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = setup.cli.main(req.argv)
    except SystemExit as exc:  # argparse rejects the argv
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an uncaught engine error fails the request
        crash = f"uncaught {type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    if span is not None:
        tracer.close(span, crash and crash.split(":")[0])
    stats.intervals.append((t0, t1, t1 - t0 - (probe.stolen - stolen)))
    stats.repeats += req.key in stats.keys
    stats.keys.add(req.key)
    if crash is None:
        try:
            crash = req.check(rc, out.getvalue(), err.getvalue())
        except Exception as exc:  # malformed output the check could not read
            crash = f"check raised {type(exc).__name__}: {exc}"
    if crash is None:
        stats.correct += 1
    else:
        stats.failed += 1
        stats.failures.append(f"{' '.join(req.argv)}: {crash}")


def run_round(setup: Setup, jobs, stats: Stats, tracer, rid: int, probe) -> int:
    for job in jobs:
        for req in job.requests:
            execute(setup, req, stats, tracer, rid, probe)
            rid += 1
        job.context.clear()  # drop the loaded coloring before the next job
    return rid


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def measure(setup: Setup, seconds: float, trace: bool, probe: speed.SpeedProbe):
    """Run rounds until the stop rule holds; returns (untraced, traced, tracer, rounds)."""
    plain, traced = Stats(), Stats()
    tracer = tracing.Tracer(setup.modules) if trace else None
    jobs = setup.first_round
    rounds = 0
    rid = 0
    while True:
        use_trace = trace and rounds % 2 == 1
        if use_trace:
            tracer.install()
        try:
            rid = run_round(setup, jobs, traced if use_trace else plain,
                            tracer if use_trace else None, rid, probe)
        finally:
            if use_trace:
                tracer.uninstall()
        rounds += 1
        # wall-clock time, so a run's length does not depend on the scaling
        if sum(dt for stats in (plain, traced) for _, _, dt in stats.intervals) >= seconds:
            # traced runs need a traced and an untraced half of equal size;
            # untraced runs need enough samples for the 90th percentile
            if rounds % 2 == 0 if trace else plain.attempted >= MIN_REQUESTS:
                break
        jobs = setup.generator.round()
    return plain, traced, tracer, rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "monopath" / "cli.py").is_file():
        print(f"no engine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    probe = speed.SpeedProbe()
    setups = []
    times = []
    probe.start()
    try:
        for i in range(SETUP_REPEATS):
            gc.collect()  # start each set-up from the same heap state
            stolen = probe.stolen
            t0 = time.perf_counter()
            setups.append(Setup(args.workload, args.seed, i))
            t1 = time.perf_counter()
            times.append((t0, t1, t1 - t0 - (probe.stolen - stolen)))
        plain, traced, tracer, rounds = measure(setups[-1], args.seconds,
                                                bool(args.trace), probe)
    except ImportError as exc:
        print(f"cannot import the engine: {exc}", file=sys.stderr)
        return 2
    finally:
        probe.stop()
        for s in setups:
            s.close()
        with contextlib.suppress(OSError):  # left in place while other runs use it
            (ROOT / ".perfbench_tmp").rmdir()

    for line in (plain.failures + traced.failures)[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    raw = sorted(dt for _, _, dt in plain.intervals)
    print(f"# {args.workload} seed={args.seed}: {rounds} rounds, {plain.attempted} untraced "
          f"requests (the latency percentiles are over these), {traced.attempted} traced, "
          f"{failed} failed; unscaled wall clock: {plain.correct / sum(raw):.4g} rps, "
          f"p50 {percentile(raw, 0.5) * 1e3:.4g} ms, p90 {percentile(raw, 0.9) * 1e3:.4g} ms, "
          f"median reference loop {probe.median_reference() * 1e3:.4g} ms")

    if args.trace:
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in tracing.layer_metrics(tracer).items()}
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(str(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        untraced_rps, traced_rps = plain.throughput(probe), traced.throughput(probe)
        extra = {
            "workload.repeat_share": (plain.repeats / plain.attempted, "ratio"),
            "workload.error_rate": (failed / attempted, "ratio"),
            "trace.untraced_rps": (untraced_rps, "1/s"),
            "trace.traced_rps": (traced_rps, "1/s"),
            "trace.overhead_share": (1 - traced_rps / untraced_rps, "ratio"),
            "probe.reference_ms": (probe.median_reference() * 1e3, "ms"),
        }
        metrics.update({k: {"value": v, "unit": u} for k, (v, u) in extra.items()})
    else:
        lat = plain.latencies(probe)
        metrics = {
            "throughput_rps": {"value": plain.throughput(probe), "unit": "1/s"},
            "latency_p50_ms": {"value": percentile(lat, 0.5) * 1e3, "unit": "ms"},
            "latency_p90_ms": {"value": percentile(lat, 0.9) * 1e3, "unit": "ms"},
            "setup_s": {
                "value": statistics.median(dt * probe.scale(t0, t1) for t0, t1, dt in times),
                "unit": "s",
            },
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
