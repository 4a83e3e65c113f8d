"""Tests that run the four workloads at the ``tiny`` size: restoration after
a traced run, digests repeating across runs, and a corrupted reference
counting as failed.  They take about ten seconds, so the file name keeps
them out of the repository's default pytest run; run them with

    PYTHONPATH=src python -m pytest perfbench/check_runs.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import run  # noqa: E402
from perfbench.test_perfbench import WORKLOADS, _installed_attributes  # noqa: E402
from perfbench.workloads import make_workloads  # noqa: E402


def test_wrapped_functions_are_restored_after_a_traced_run(tmp_path):
    before = _installed_attributes()
    workload = make_workloads(tiny=True, workroot=tmp_path / "work")["cell-cbf-cancel"]
    report = run.measure(workload, 3, 0.0, True, {}, min_units=1)
    assert report["failed"] == 0
    assert _installed_attributes() == before
    per_layer = run.per_layer(report)
    assert set(per_layer) == set(run.layer_units())
    assert per_layer["realloc.ticks"] > 0 and per_layer["sim.events"] > 0
    # Layers the cell never calls read zero.
    assert per_layer["store.put.calls"] == per_layer["campaign.sims"] == 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_digests_repeat_across_two_tiny_runs(name, tmp_path):
    def measured(seed):
        workload = make_workloads(tiny=True, workroot=tmp_path / "work")[name]
        return run.measure(workload, seed, 0.0, False, {}, min_units=1)

    first, second = measured(5), measured(5)
    assert first["failed"] == 0
    assert (first["inputs"], first["output"], first["summary"]) == (
        second["inputs"], second["output"], second["summary"])
    if name != "tables-cold":  # the table command takes no seed
        assert measured(6)["inputs"] != first["inputs"]
    assert not (tmp_path / "work").exists()


@pytest.mark.parametrize("name", ("cell-fcfs-baseline", "service-burst"))
def test_a_corrupted_reference_counts_as_failed(name, tmp_path):
    workload = make_workloads(tiny=True, workroot=tmp_path / "work")[name]
    clean = run.measure(workload, 3, 0.0, False, {}, min_units=1)
    reference = {key: clean[key] for key in ("inputs", "output", "summary")}

    good = run.measure(workload, 3, 0.0, False, {name: {"3": reference}}, min_units=2)
    assert good["failed"] == 0 and good["reference"] == "match"
    assert run.per_layer(good)["failed_share"] == 0

    for corrupted in (dict(reference, output="0" * 64), dict(reference, inputs="0" * 64)):
        bad = run.measure(workload, 3, 0.0, False, {name: {"3": corrupted}}, min_units=2)
        assert bad["failed"] == bad["attempted"] == 2
        assert run.per_layer(bad)["failed_share"] == 1.0
        assert run.result_line(bad, {}, run.END_TO_END_UNITS)["correct"] is False
