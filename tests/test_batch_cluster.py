"""Tests for the cluster resource state."""

from __future__ import annotations

import random

import pytest

from repro.batch.cluster import ClusterState
from tests.conftest import make_job

from oracles.planners import build_profile


class TestValidation:
    def test_valid_cluster(self):
        cluster = ClusterState("alpha", 16, speed=1.5)
        assert cluster.total_procs == 16
        assert cluster.speed == 1.5
        assert cluster.free_procs == 16

    @pytest.mark.parametrize("procs", [0, -2])
    def test_invalid_procs(self, procs):
        with pytest.raises(ValueError):
            ClusterState("alpha", procs)

    @pytest.mark.parametrize("speed", [0.0, -1.0])
    def test_invalid_speed(self, speed):
        with pytest.raises(ValueError):
            ClusterState("alpha", 4, speed=speed)


class TestRunningSet:
    def test_start_and_finish_job(self):
        cluster = ClusterState("alpha", 4)
        job = make_job(1, procs=3, runtime=100.0, walltime=200.0)
        entry = cluster.start_job(job, start_time=10.0)
        assert cluster.used_procs == 3
        assert cluster.free_procs == 1
        assert cluster.running_count == 1
        assert cluster.is_running(1)
        assert entry.walltime_end == 210.0
        finished = cluster.finish_job(1)
        assert finished.job is job
        assert cluster.free_procs == 4
        assert not cluster.is_running(1)

    def test_walltime_end_scales_with_speed(self):
        cluster = ClusterState("alpha", 4, speed=2.0)
        job = make_job(1, procs=1, runtime=100.0, walltime=200.0)
        entry = cluster.start_job(job, start_time=0.0)
        assert entry.walltime_end == pytest.approx(100.0)

    def test_start_beyond_capacity_raises(self):
        cluster = ClusterState("alpha", 4)
        cluster.start_job(make_job(1, procs=3), start_time=0.0)
        with pytest.raises(ValueError):
            cluster.start_job(make_job(2, procs=2), start_time=0.0)

    def test_double_start_raises(self):
        cluster = ClusterState("alpha", 4)
        job = make_job(1, procs=1)
        cluster.start_job(job, start_time=0.0)
        with pytest.raises(ValueError):
            cluster.start_job(job, start_time=1.0)

    def test_finish_unknown_job_raises(self):
        cluster = ClusterState("alpha", 4)
        with pytest.raises(ValueError):
            cluster.finish_job(99)

    def test_fits(self):
        cluster = ClusterState("alpha", 4)
        assert cluster.fits(make_job(1, procs=4))
        assert not cluster.fits(make_job(2, procs=5))


class TestUsedProcsCounter:
    @pytest.mark.parametrize("seed", range(8))
    def test_counter_matches_running_set_after_every_event(self, seed):
        """Starts, completions (early or not) and capacity changes keep
        ``used_procs`` equal to the processors of the running set, and
        ``availability`` equal to the from-scratch ``build_profile``."""
        rng = random.Random(seed)
        cluster = ClusterState("alpha", 16)
        now, next_id = 0.0, 0
        for _ in range(300):
            now += rng.uniform(0.0, 20.0)
            action = rng.random()
            running = sorted(e.job.job_id for e in cluster.running_jobs())
            if action < 0.5:
                job = make_job(next_id, procs=rng.randint(1, 8),
                               runtime=100.0, walltime=rng.uniform(200.0, 800.0))
                next_id += 1
                if job.procs <= cluster.free_procs:
                    cluster.start_job(job, start_time=now)
            elif action < 0.85 and running:
                cluster.finish_job(rng.choice(running))
            else:
                cluster.apply_capacity(rng.randint(0, 16))
            assert cluster.used_procs == sum(e.procs for e in cluster.running_jobs())
            assert cluster.free_procs == cluster.capacity - cluster.used_procs >= 0
            rebuilt(cluster, now)


def rebuilt(cluster, now):
    """The from-scratch profile, checked against the cluster's own."""
    profile = build_profile(cluster, now)
    assert list(cluster.availability(now).breakpoints()) == list(profile.breakpoints())
    return profile


class TestBuildProfile:
    def test_empty_cluster_profile(self):
        cluster = ClusterState("alpha", 8)
        profile = rebuilt(cluster, now=50.0)
        assert profile.free_at(50.0) == 8
        assert profile.start_time == 50.0

    def test_running_jobs_occupy_until_walltime_end(self):
        cluster = ClusterState("alpha", 8)
        cluster.start_job(make_job(1, procs=3, runtime=50.0, walltime=100.0), start_time=0.0)
        cluster.start_job(make_job(2, procs=2, runtime=30.0, walltime=60.0), start_time=20.0)
        profile = rebuilt(cluster, now=30.0)
        # job 1 holds 3 procs until t=100, job 2 holds 2 procs until t=80
        assert profile.free_at(30.0) == 3
        assert profile.free_at(85.0) == 5
        assert profile.free_at(150.0) == 8

    def test_job_at_walltime_boundary_is_ignored(self):
        cluster = ClusterState("alpha", 8)
        cluster.start_job(make_job(1, procs=3, runtime=100.0, walltime=100.0), start_time=0.0)
        profile = rebuilt(cluster, now=100.0)
        assert profile.free_at(100.0) == 8

    def test_equal_walltime_ends_share_one_breakpoint(self):
        cluster = ClusterState("alpha", 8)
        cluster.start_job(make_job(1, procs=2, runtime=10.0, walltime=40.0), start_time=0.0)
        cluster.start_job(make_job(2, procs=3, runtime=10.0, walltime=30.0), start_time=10.0)
        cluster.start_job(make_job(3, procs=1, runtime=10.0, walltime=20.0), start_time=0.0)
        profile = rebuilt(cluster, now=20.0)  # job 3 is at its boundary
        assert list(profile.breakpoints()) == [(20.0, 3), (40.0, 8)]
