"""Tests for the six rescheduling heuristics, through the object-based oracle."""

from __future__ import annotations

import math

import pytest

from repro.core.heuristics import (
    HEURISTIC_LABELS,
    HEURISTIC_NAMES,
    Heuristic,
    MaxGain,
    MaxMin,
    MaxRelGain,
    MctOrder,
    MinMin,
    Sufferage,
    get_heuristic,
)
from oracles.heuristics import JobEstimate, order, select
from tests.conftest import make_job


def estimate(job_id, submit=0.0, procs=1, current="a", current_ect=100.0, ects=None):
    job = make_job(job_id, submit_time=submit, procs=procs)
    return JobEstimate(
        job=job,
        current_cluster=current,
        current_ect=current_ect,
        ects=ects if ects is not None else {"a": current_ect, "b": current_ect},
    )


class TestJobEstimate:
    def test_best_cluster_and_ect(self):
        est = estimate(1, ects={"a": 100.0, "b": 80.0, "c": 90.0})
        assert est.best_cluster == "b"
        assert est.best_ect == 80.0

    def test_best_cluster_tie_breaks_by_name(self):
        est = estimate(1, ects={"b": 50.0, "a": 50.0})
        assert est.best_cluster == "a"

    def test_second_best_ect(self):
        est = estimate(1, ects={"a": 100.0, "b": 80.0, "c": 90.0})
        assert est.second_best_ect == 90.0

    def test_second_best_with_single_cluster(self):
        est = estimate(1, ects={"a": 100.0})
        assert est.second_best_ect == 100.0

    def test_best_other_cluster_excludes_current(self):
        est = estimate(1, current="a", ects={"a": 10.0, "b": 80.0, "c": 90.0})
        assert est.best_other_cluster == "b"
        assert est.best_other_ect == 80.0

    def test_best_other_with_no_alternative(self):
        est = estimate(1, current="a", ects={"a": 10.0})
        assert est.best_other_cluster is None
        assert est.best_other_ect == math.inf

    def test_gain(self):
        est = estimate(1, current_ect=200.0, ects={"a": 200.0, "b": 150.0})
        assert est.gain == 50.0

    def test_negative_gain_when_current_is_best(self):
        est = estimate(1, current="a", current_ect=100.0, ects={"a": 100.0, "b": 150.0})
        assert est.gain == 0.0
        assert est.best_cluster == "a"

    def test_relative_gain_divides_by_procs(self):
        est = estimate(1, procs=4, current_ect=200.0, ects={"a": 200.0, "b": 100.0})
        assert est.relative_gain == pytest.approx(25.0)

    def test_sufferage(self):
        est = estimate(1, ects={"a": 300.0, "b": 100.0, "c": 180.0})
        assert est.sufferage == pytest.approx(80.0)

    def test_empty_ects(self):
        est = estimate(1, ects={})
        assert est.best_cluster is None
        assert est.best_ect == math.inf
        assert est.sufferage == 0.0


class TestHeuristicSelection:
    def test_mct_selects_by_submission_order(self):
        candidates = [
            estimate(1, submit=30.0),
            estimate(2, submit=10.0),
            estimate(3, submit=20.0),
        ]
        assert select(MctOrder(), candidates).job.job_id == 2

    def test_mct_is_online(self):
        assert MctOrder().online is True
        assert MinMin().online is False

    def test_minmin_selects_smallest_best_ect(self):
        candidates = [
            estimate(1, ects={"a": 300.0, "b": 200.0}),
            estimate(2, ects={"a": 100.0, "b": 400.0}),
            estimate(3, ects={"a": 250.0, "b": 250.0}),
        ]
        assert select(MinMin(), candidates).job.job_id == 2

    def test_maxmin_selects_largest_best_ect(self):
        candidates = [
            estimate(1, ects={"a": 300.0, "b": 200.0}),
            estimate(2, ects={"a": 100.0, "b": 400.0}),
            estimate(3, ects={"a": 250.0, "b": 260.0}),
        ]
        assert select(MaxMin(), candidates).job.job_id == 3

    def test_maxgain_selects_largest_gain(self):
        candidates = [
            estimate(1, current_ect=500.0, ects={"a": 500.0, "b": 400.0}),  # gain 100
            estimate(2, current_ect=300.0, ects={"a": 300.0, "b": 50.0}),   # gain 250
            estimate(3, current_ect=900.0, ects={"a": 900.0, "b": 880.0}),  # gain 20
        ]
        assert select(MaxGain(), candidates).job.job_id == 2

    def test_maxrelgain_prefers_small_jobs(self):
        candidates = [
            # absolute gain 400 but 16 processors -> 25 per proc
            estimate(1, procs=16, current_ect=900.0, ects={"a": 900.0, "b": 500.0}),
            # absolute gain 100 on a single processor -> 100 per proc
            estimate(2, procs=1, current_ect=300.0, ects={"a": 300.0, "b": 200.0}),
        ]
        assert select(MaxRelGain(), candidates).job.job_id == 2
        # MaxGain would pick the other one
        assert select(MaxGain(), candidates).job.job_id == 1

    def test_sufferage_selects_most_penalised(self):
        candidates = [
            estimate(1, ects={"a": 100.0, "b": 110.0}),   # sufferage 10
            estimate(2, ects={"a": 100.0, "b": 500.0}),   # sufferage 400
            estimate(3, ects={"a": 100.0, "b": 150.0}),   # sufferage 50
        ]
        assert select(Sufferage(), candidates).job.job_id == 2

    def test_tie_break_by_submit_time_then_id(self):
        candidates = [
            estimate(5, submit=10.0, ects={"a": 100.0}),
            estimate(2, submit=10.0, ects={"a": 100.0}),
            estimate(7, submit=5.0, ects={"a": 100.0}),
        ]
        assert select(MinMin(), candidates).job.job_id == 7
        no_seven = [c for c in candidates if c.job.job_id != 7]
        assert select(MinMin(), no_seven).job.job_id == 2

    def test_empty_candidates_raise(self):
        for name in HEURISTIC_NAMES:
            with pytest.raises(ValueError):
                select(get_heuristic(name), [])

    def test_order_returns_full_ranking(self):
        candidates = [
            estimate(1, ects={"a": 300.0}),
            estimate(2, ects={"a": 100.0}),
            estimate(3, ects={"a": 200.0}),
        ]
        ranked = order(MinMin(), candidates)
        assert [c.job.job_id for c in ranked] == [2, 3, 1]

    def test_select_is_first_of_order(self):
        candidates = [
            estimate(1, ects={"a": 300.0, "b": 120.0}),
            estimate(2, ects={"a": 100.0, "b": 400.0}),
            estimate(3, ects={"a": 250.0, "b": 250.0}),
        ]
        for name in HEURISTIC_NAMES:
            heuristic = get_heuristic(name)
            assert select(heuristic, candidates) is order(heuristic, candidates)[0]


class TestRegistry:
    def test_all_names_resolve(self):
        for name in HEURISTIC_NAMES:
            heuristic = get_heuristic(name)
            assert isinstance(heuristic, Heuristic)
            assert heuristic.name == name

    def test_case_insensitive_and_cancellation_suffix(self):
        assert get_heuristic("MinMin").name == "minmin"
        assert get_heuristic("MaxGain-C").name == "maxgain"

    def test_instance_passthrough(self):
        heuristic = MinMin()
        assert get_heuristic(heuristic) is heuristic

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_heuristic("firstfit")

    def test_labels_cover_all_heuristics(self):
        assert set(HEURISTIC_LABELS) == set(HEURISTIC_NAMES)
        assert HEURISTIC_LABELS["maxrelgain"] == "MaxRelGain"
