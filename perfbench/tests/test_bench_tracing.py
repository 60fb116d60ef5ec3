"""Tracing leaves results unchanged, counts exact work, and computes self time."""

from __future__ import annotations

import contextlib
import io
import time

import pytest

import tracing
import workloads

monopath = pytest.importorskip("monopath.cli")


@pytest.fixture
def tracer():
    t = tracing.Tracer(tracing.monopath_modules())
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = monopath.main(argv)
    return rc, out.getvalue()


def test_uninstall_restores_every_binding():
    from monopath import bounds, counting, paths

    before = (counting.count_box_partitions, bounds.count_box_partitions,
              paths.longest_mono, counting.dedekind)
    t = tracing.Tracer(tracing.monopath_modules())
    t.install()
    assert counting.count_box_partitions is not before[0]
    assert bounds.count_box_partitions is counting.count_box_partitions
    t.uninstall()
    assert (counting.count_box_partitions, bounds.count_box_partitions,
            paths.longest_mono, counting.dedekind) == before


def test_self_time_subtracts_children(tracer):
    outer = tracer.begin_request(0, "count")
    inner = tracer.open("counting", "x")
    time.sleep(0.02)
    tracer.close(inner)
    time.sleep(0.01)
    tracer.close(outer)
    assert outer.child == pytest.approx(inner.duration)
    assert outer.self_time == pytest.approx(outer.duration - inner.duration)
    assert inner.entry and not inner.inside


def test_traced_answers_match_and_units_are_exact(tracer):
    from monopath import counting
    from monopath.budget import WorkMeter

    request = tracer.begin_request(0, "count")
    rc, out = _cli(["count", "--kind", "partitions", "--d", "3", "--n", "4"])
    tracer.close(request)
    assert rc == 0 and '"value": "232848"' in out
    tracer.uninstall()
    wm = WorkMeter(10**9)
    assert counting.count_box_partitions((4, 4), 4, budget=wm) == 232848
    metrics = tracing.layer_metrics(tracer)
    assert metrics["counting.work_units"][0] == wm.used
    assert metrics["counting.calls"][0] == 1
    assert metrics["cli.self_s"][0] > 0


def test_dedekind_budget_flag_is_dropped(tracer):
    # the CLI ignores --budget for dedekind and spends the default budget
    from monopath.budget import DEFAULT_BUDGET

    rc, _ = _cli(["count", "--kind", "dedekind", "--d", "7", "--budget", "5000000"])
    assert rc == 3
    metrics = tracing.layer_metrics(tracer)
    assert metrics["counting.budget_misses"][0] == 1
    assert metrics["counting.work_units"][0] > DEFAULT_BUDGET


def test_verify_calls_longest_mono_twice(tracer, tmp_path):
    path = str(tmp_path / "c.json")
    assert _cli(["construct", "--family", "3uniform", "--q", "2", "--n", "3", "--out", path])[0] == 0
    request = tracer.begin_request(1, "verify")
    rc, _ = _cli(["verify", "--file", path, "--n", "3"])
    tracer.close(request)
    assert rc == 0
    metrics = tracing.layer_metrics(tracer)
    assert metrics["paths.longest_mono_calls_per_verify"][0] == 2
    assert metrics["colorings.io_bytes"][0] > 0
    assert metrics["colorings.edges_built"][0] == 1140


def test_round_composition_is_fixed_across_seeds(tmp_path):
    for cls in workloads.WORKLOADS.values():
        a, b = cls(1, str(tmp_path)).round(), cls(2, str(tmp_path)).round()
        assert len(a) == len(b)
        sizes = lambda jobs: sorted(len(j.requests) for j in jobs)  # noqa: E731
        assert sizes(a) == sizes(b)
    bounds = lambda jobs: sorted(  # noqa: E731
        " ".join(j.requests[0].argv) for j in jobs if j.requests[0].argv[0] == "bounds")
    assert bounds(workloads.CountMix(1, "").round()) == bounds(workloads.CountMix(7, "").round())
