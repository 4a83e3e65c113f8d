"""Tests of the benchmark itself: tracer arithmetic, restoration and failure
accounting.  None of them runs a real workload, so they take about a second;
the tests that do are in ``check_runs.py``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import layers, run  # noqa: E402
from perfbench.tracer import LayerTracer  # noqa: E402
from perfbench.workloads import Workload  # noqa: E402

WORKLOADS = ("cell-cbf-cancel", "cell-fcfs-baseline", "tables-cold", "service-burst")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_subtracts_the_time_of_child_calls():
    clock = FakeClock()

    class Worker:
        def outer(self):
            clock.advance(1.0)
            self.inner(2.0)
            clock.advance(0.5)
            self.inner(3.0)

        def inner(self, cost):
            clock.advance(cost)
            self.leaf()

        def leaf(self):
            clock.advance(0.25)

    with LayerTracer(clock=clock) as tracer:
        tracer.wrap_method(Worker, "outer", "outer")
        tracer.wrap_method(Worker, "inner", "inner", items=lambda args, kwargs, result: args[1])
        tracer.wrap_method(Worker, "leaf", "leaf")
        Worker().outer()

    assert tracer.total_s == {"outer": 7.0, "inner": 5.5, "leaf": 0.5}
    assert tracer.self_s == {"outer": 1.5, "inner": 5.0, "leaf": 0.5}
    assert tracer.calls == {"outer": 1, "inner": 2, "leaf": 2}
    assert tracer.items == {"inner": 5.0}
    assert tracer.max_s["inner"] == 3.25
    # The self times of all layers add up to the outermost call.
    assert sum(tracer.self_s.values()) == tracer.total_s["outer"]


def test_a_call_back_into_the_same_layer_is_counted_once():
    clock = FakeClock()

    class Server:
        def many(self, jobs):
            return [self.one(job) for job in jobs]

        def one(self, job):
            clock.advance(1.0)
            return job

    with LayerTracer(clock=clock) as tracer:
        tracer.wrap_method(Server, "many", "estimate", items=lambda a, k, r: len(a[1]))
        tracer.wrap_method(Server, "one", "estimate", items=lambda a, k, r: 1)
        Server().many([1, 2, 3])
        Server().one(4)

    assert tracer.calls["estimate"] == 2
    assert tracer.items["estimate"] == 4
    assert tracer.self_s["estimate"] == 4.0


def test_spans_must_close_innermost_first():
    tracer = LayerTracer(clock=FakeClock())
    outer = tracer.enter("outer")
    tracer.enter("inner")
    with pytest.raises(RuntimeError):
        tracer.exit(outer)


def _installed_attributes():
    probe = LayerTracer()
    layers.install(probe)
    targets = [(owner, attr) for owner, attr, _saved in probe._patches]
    probe.restore()
    return {(owner, attr): vars(owner).get(attr) for owner, attr in targets}


class _Exploding(Workload):
    """Raises from inside a wrapped function of the program."""

    name = "exploding"

    def setup(self, seed):
        return object()

    def run(self, state):
        from repro.experiments import campaign

        campaign.compare_tables(None, None)

    def teardown(self, state):
        self.torn_down = True


def test_wrapped_functions_are_restored_after_a_run_that_raises():
    before = _installed_attributes()
    assert len(before) > 20
    workload = _Exploding()
    record = run._unit(workload, seed=1, traced=True)
    assert record["problems"] and "unit raised" in record["problems"][0]
    assert workload.torn_down
    assert _installed_attributes() == before
    from repro.core import metrics
    from repro.experiments import campaign, runner

    assert campaign.compare_tables is metrics.compare_tables
    assert runner.compare_tables is metrics.compare_tables
    assert runner.execute_config is campaign.execute_config
    assert not hasattr(metrics.compare_tables, "__wrapped__")


@pytest.mark.parametrize("trace", (False, True))
def test_a_run_whose_units_all_raise_still_prints_a_valid_result(trace):
    report = run.measure(_Exploding(), 1, 0.0, trace, {}, min_units=2)
    assert report["failed"] == report["attempted"] >= 2
    metrics = run.per_layer(report) if trace else run.end_to_end(report)
    units = run.layer_units() if trace else run.END_TO_END_UNITS
    line = run.result_line(report, metrics, units)
    assert line["correct"] is False and set(line["metrics"]) == set(units)
    json.dumps(line, allow_nan=False)


def test_times_are_scaled_by_the_speed_measured_before_each_unit():
    from perfbench.calibrate import REFERENCE_S
    from perfbench.workloads import Outcome

    def unit(slowdown):
        outcome = Outcome("digest", {}, latencies_s=[0.5 * slowdown, slowdown], jobs=100)
        return {"traced": False, "problems": [], "calibration_s": [REFERENCE_S * slowdown],
                "setup_calibration_s": [REFERENCE_S * slowdown],
                "setup_s": [0.01 * slowdown], "wall_s": 2.0 * slowdown, "outcome": outcome}

    report = {"records": [unit(1.0), unit(2.0), unit(2.0)], "failed": 0, "attempted": 3}
    metrics = run.end_to_end(report)
    assert metrics["setup_s"] == pytest.approx(0.01)
    assert metrics["wall_s"] == pytest.approx(2.0)
    assert metrics["jobs_per_s"] == pytest.approx(50.0)
    assert metrics["latency_p50_ms"] == pytest.approx(500.0)
    assert metrics["latency_p999_ms"] == pytest.approx(1000.0)
    assert run.end_to_end(report, at_reference=False)["wall_s"] == pytest.approx(4.0)


def test_references_cover_the_default_and_holdout_seeds():
    references = run.load_references()
    for name in WORKLOADS:
        for seed in (run.DEFAULT_SEED, run.HOLDOUT_SEED):
            entry = references[name][str(seed)]
            assert set(entry) == {"inputs", "output", "summary"}


def test_percentile_is_nearest_rank():
    assert run.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert run.percentile(list(range(1, 11)), 0.999) == 10
    assert run.percentile(list(range(1, 2001)), 0.999) == 1998
