"""Run every workload untraced and traced, and print every metric with its unit.

Usage (from the repository root)::

    python3 perfbench/report.py [--seed 1] [--seconds 20]

Each workload runs in its own process, one after another.  The command
exits with code 1 when any request fails its check or a run does not end
cleanly, and with 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict | None, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return json.loads(lines[-1]), proc.stderr.strip()


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    ok = True
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result, err = run(w, args.seed, args.seconds, trace)
            if result is None:
                print(f"{w:11s} trace={trace} run failed: {err}")
                ok = False
                continue
            if not result["correct"] or result["failed"]:
                print(err)
                ok = False
            print(f"{w:11s} trace={trace} attempted={result['attempted']} "
                  f"failed={result['failed']} "
                  f"error_rate={result['failed'] / result['attempted']:.4g}")
            for name, m in result["metrics"].items():
                print(f"{w:11s} {name:38s} {m['value']:>16.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
