"""Tests of the benchmark's own arithmetic: tail rule, self time, failure counts.

    PYTHONPATH=src python3 -m pytest perfbench/tests
"""

import json
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import Op, Workload  # noqa: E402


@pytest.mark.parametrize("n,p", [(10, None), (19, None), (20, 50), (25, 60), (40, 75),
                                 (100, 90), (101, 90), (1000, 99), (1001, 99)])
def test_tail_percentile_values(n, p):
    assert stats.tail_percentile(n) == p


def test_tail_percentile_is_highest_with_ten_beyond():
    for n in range(20, 2000):
        p = stats.tail_percentile(n)
        assert n * (100 - p) >= 10 * 100
        assert n * (100 - (p + 1)) < 10 * 100


def test_latency_summary_counts_samples_beyond_tail():
    lat = np.arange(1, 101, dtype=float)  # 100 samples
    s = stats.latency_summary(lat)
    assert s["tail_percentile"] == 90 and s["samples"] == 100
    assert np.sum(lat > s["tail"]) == 10
    assert s["p50"] == 50.5


def test_latency_summary_few_samples_reports_max():
    s = stats.latency_summary([3.0, 1.0, 2.0])
    assert s["tail_percentile"] == 100 and s["tail"] == 3.0


def test_self_times_nested_and_reentered():
    names = ["functionals.hessian_in_chart", "functionals.gradient_in_chart",
             "functionals.evaluate"]
    # hessian [0,10] -> gradient [1,4] -> evaluate [2,3]
    #                -> gradient [5,9] -> gradient [6,7]  (re-entered)
    name_id = [0, 1, 2, 1, 1]
    parent = [-1, 0, 1, 0, 3]
    start = [0.0, 1.0, 2.0, 5.0, 6.0]
    end = [10.0, 4.0, 3.0, 9.0, 7.0]
    got = tracer.self_times(names, name_id, parent, start, end)
    assert got["functionals.hessian_in_chart"] == (1, pytest.approx(3.0))
    assert got["functionals.gradient_in_chart"] == (3, pytest.approx(2.0 + 3.0 + 1.0))
    assert got["functionals.evaluate"] == (1, pytest.approx(1.0))
    assert sum(v[1] for v in got.values()) == pytest.approx(10.0)


def test_tracer_wrap_records_parents_and_self_time():
    t = tracer.Tracer()

    def leaf():
        time.sleep(0.002)

    leaf_w = t.wrap("a.leaf", leaf)

    def grad(depth):
        leaf_w()
        if depth:
            grad_w(depth - 1)

    grad_w = t.wrap("a.grad", grad)

    def hess():
        grad_w(1)
        grad_w(0)

    t0 = time.perf_counter()
    t.wrap("a.hess", hess)()
    wall = time.perf_counter() - t0
    spans = t.spans()
    assert list(spans["parent"]) == [-1, 0, 1, 1, 3, 0, 5]
    got = tracer.self_times(**spans)
    assert {n: v[0] for n, v in got.items()} == {"a.hess": 1, "a.grad": 3, "a.leaf": 3}
    assert got["a.leaf"][1] >= 3 * 0.002
    assert sum(v[1] for v in got.values()) == pytest.approx(wall, abs=1e-3)


def test_tracer_install_restores_the_package():
    import curvecharts as cc
    from curvecharts import charts, curve, shapes, solver

    before = (cc.chart_invert, charts.brentq, curve.brentq, solver.scipy,
              cc.Sphere2.log, solver.chart_invert)
    t = tracer.Tracer()
    t.install(cc)
    try:
        assert solver.chart_invert is cc.chart_invert is charts.chart_invert
        assert cc.chart_invert is not before[0]
        x = cc.make_chart(shapes.great_circle(32))
        cc.spectrum(cc.parse_functional("length"), x, 3)
    finally:
        t.uninstall()
    after = (cc.chart_invert, charts.brentq, curve.brentq, solver.scipy,
             cc.Sphere2.log, solver.chart_invert)
    assert all(a is b for a, b in zip(before, after))
    got = tracer.self_times(**t.spans())
    assert got["solver.spectrum"][0] == 1 and got["solver.eigh"][0] == 1
    assert got["charts.make_chart"][0] == 1


def test_failure_counting_for_a_raising_operation():
    def boom(traced):
        raise ZeroDivisionError("boom")

    def unconverged(traced):
        return "unconverged", {}

    wl = Workload("fake", [Op("fine", 16, lambda traced: ("ok", {})),
                           Op("raises", 16, boom),
                           Op("budget", 16, unconverged, expect="unconverged"),
                           Op("gave-up", 16, unconverged)])
    res = worker.run_batches(wl, 2, trace=False, spans_path="unused")
    assert [op["status"] for op in res["ops"]] == ["ok", "failed", "unconverged", "failed"] * 2
    assert res["ops"][1]["info"]["error"] == "ZeroDivisionError: boom"
    assert res["ops"][3]["info"]["error"] == "did not converge within its budget"
    out = stats.count_outcomes(res["ops"])
    assert out == {"attempted": 8, "failed": 4, "unconverged": 2, "fail_rate": 6 / 8}


def test_only_the_bend_length_baseline_may_end_unconverged():
    import workloads

    wl = workloads.descent(1, "unused")
    assert {op.name for op in wl.ops if op.expect != "ok"} == {"bend-length-budget"}


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_wall_times_are_divided_by_the_probed_slowdown(monkeypatch):
    probes = iter([0.04, 0.08, 0.02])  # before op 1, after op 1 = before op 2, after op 2
    monkeypatch.setattr(speed, "probe", lambda: next(probes))

    def sleeper(traced):
        time.sleep(0.01)
        return "ok", {}

    wl = Workload("fake", [Op("a", 16, sleeper), Op("b", 16, sleeper)])
    res = worker.run_batches(wl, 1, trace=False, spans_path="unused")
    a, b = res["ops"]
    assert a["slowdown"] == pytest.approx(0.06 / speed.REF_PROBE_S)
    assert b["slowdown"] == pytest.approx(0.05 / speed.REF_PROBE_S)
    for op in (a, b):
        assert op["latency_s"] == pytest.approx(op["wall_s"] / op["slowdown"])
    batch = res["batches"][0]
    assert batch["seconds"] == pytest.approx(a["latency_s"] + b["latency_s"])
    assert batch["wall_s"] == pytest.approx(a["wall_s"] + b["wall_s"])
