"""Tests for the availability profile."""

from __future__ import annotations

import math

import pytest

from repro.batch.profile import AvailabilityProfile, ProfileError

from oracles.profiles import reserve


class TestConstruction:
    def test_initially_fully_free(self):
        profile = AvailabilityProfile(8, start_time=10.0)
        assert profile.total_procs == 8
        assert profile.start_time == 10.0
        assert profile.free_at(10.0) == 8
        assert profile.free_at(1e9) == 8

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            AvailabilityProfile(-4)

    def test_zero_capacity_is_a_down_cluster(self):
        # Since the dynamic-platform refactor a fully-down cluster is a
        # first-class profile: nothing is free and nothing can be placed.
        profile = AvailabilityProfile(0)
        assert profile.free_at(0.0) == 0
        assert profile.earliest_slot(1, 10.0, 0.0) == math.inf

    def test_query_before_start_clamps(self):
        profile = AvailabilityProfile(8, start_time=100.0)
        assert profile.free_at(0.0) == 8

    def test_overlapping_reservations(self):
        profile = AvailabilityProfile(8, 0.0)
        for start, end, procs in [(0.0, 10.0, 4), (5.0, 15.0, 2)]:
            profile.subtract(start, end, procs)
        assert profile.free_at(0.0) == 4
        assert profile.free_at(5.0) == 2
        assert profile.free_at(12.0) == 6
        assert profile.free_at(20.0) == 8


class TestSubtractAdd:
    def test_subtract_creates_step(self):
        profile = AvailabilityProfile(8)
        profile.subtract(10.0, 20.0, 3)
        assert profile.free_at(9.9) == 8
        assert profile.free_at(10.0) == 5
        assert profile.free_at(19.9) == 5
        assert profile.free_at(20.0) == 8

    def test_subtract_to_zero(self):
        profile = AvailabilityProfile(4)
        profile.subtract(0.0, 10.0, 4)
        assert profile.free_at(5.0) == 0

    def test_oversubscription_raises(self):
        profile = AvailabilityProfile(4)
        profile.subtract(0.0, 10.0, 3)
        with pytest.raises(ProfileError):
            profile.subtract(5.0, 15.0, 2)

    def test_subtract_invalid_interval(self):
        profile = AvailabilityProfile(4)
        with pytest.raises(ValueError):
            profile.subtract(10.0, 10.0, 1)
        with pytest.raises(ValueError):
            profile.subtract(10.0, 5.0, 1)

    def test_subtract_invalid_procs(self):
        profile = AvailabilityProfile(4)
        with pytest.raises(ValueError):
            profile.subtract(0.0, 10.0, 0)

    def test_subtract_infinite_end(self):
        profile = AvailabilityProfile(4)
        profile.subtract(5.0, math.inf, 2)
        assert profile.free_at(1e12) == 2
        assert profile.free_at(0.0) == 4

    def test_add_restores_capacity(self):
        profile = AvailabilityProfile(8)
        profile.subtract(0.0, 10.0, 5)
        profile.add(0.0, 10.0, 5)
        assert profile.free_at(5.0) == 8

    def test_add_beyond_capacity_raises(self):
        profile = AvailabilityProfile(8)
        with pytest.raises(ProfileError):
            profile.add(0.0, 10.0, 1)

    def test_min_free_over(self):
        profile = AvailabilityProfile(8)
        profile.subtract(10.0, 20.0, 3)
        profile.subtract(15.0, 25.0, 2)
        assert profile.min_free_over(0.0, 10.0) == 8
        assert profile.min_free_over(0.0, 30.0) == 3
        assert profile.min_free_over(12.0, 18.0) == 3
        assert profile.min_free_over(20.0, 30.0) == 6


class TestEarliestSlot:
    def test_immediately_available(self):
        profile = AvailabilityProfile(8)
        assert profile.earliest_slot(4, 100.0, earliest=0.0) == 0.0

    def test_waits_for_release(self):
        profile = AvailabilityProfile(8)
        profile.subtract(0.0, 50.0, 6)
        # 4 procs are only free from t=50
        assert profile.earliest_slot(4, 10.0, earliest=0.0) == 50.0

    def test_fits_in_hole(self):
        profile = AvailabilityProfile(8)
        profile.subtract(0.0, 10.0, 8)
        profile.subtract(30.0, 40.0, 8)
        # the hole [10, 30) is large enough for a 15-second job
        assert profile.earliest_slot(4, 15.0, earliest=0.0) == 10.0

    def test_hole_too_small_is_skipped(self):
        profile = AvailabilityProfile(8)
        profile.subtract(0.0, 10.0, 8)
        profile.subtract(30.0, 40.0, 8)
        # a 25-second job does not fit in the 20-second hole
        assert profile.earliest_slot(4, 25.0, earliest=0.0) == 40.0

    def test_respects_earliest_bound(self):
        profile = AvailabilityProfile(8)
        assert profile.earliest_slot(2, 10.0, earliest=35.0) == 35.0

    def test_too_many_procs_returns_inf(self):
        profile = AvailabilityProfile(8)
        assert profile.earliest_slot(9, 10.0, earliest=0.0) == math.inf

    def test_request_of_zero_procs_raises(self):
        profile = AvailabilityProfile(8)
        with pytest.raises(ValueError):
            profile.earliest_slot(0, 10.0, earliest=0.0)

    def test_zero_duration_request(self):
        profile = AvailabilityProfile(4)
        profile.subtract(0.0, 10.0, 4)
        assert profile.earliest_slot(2, 0.0, earliest=0.0) == 10.0

    def test_partial_overlap_with_busy_segment(self):
        profile = AvailabilityProfile(4)
        profile.subtract(10.0, 20.0, 3)
        # 2 procs are not available during [10, 20); a 15s job starting at 0
        # would overlap, so it must wait until 20.
        assert profile.earliest_slot(2, 15.0, earliest=0.0) == 20.0
        # A 10-second job fits exactly before the busy segment.
        assert profile.earliest_slot(2, 10.0, earliest=0.0) == 0.0

    def test_reserve_combines_search_and_subtract(self):
        profile = AvailabilityProfile(4)
        start = reserve(profile, 4, 10.0, earliest=0.0)
        assert start == 0.0
        assert profile.free_at(5.0) == 0
        start2 = reserve(profile, 2, 5.0, earliest=0.0)
        assert start2 == 10.0
        assert profile.free_at(12.0) == 2

    def test_reserve_impossible_returns_inf_without_mutation(self):
        profile = AvailabilityProfile(4)
        start = reserve(profile, 8, 10.0, earliest=0.0)
        assert start == math.inf
        assert profile.free_at(0.0) == 4


class TestSubtractErrorPath:
    def test_error_reports_available_procs(self):
        profile = AvailabilityProfile(4)
        profile.subtract(0.0, 10.0, 3)
        with pytest.raises(ProfileError, match="only 1 free"):
            profile.subtract(5.0, 15.0, 2)
        # The failed subtraction left the profile untouched.
        assert profile.free_at(5.0) == 1
        assert profile.free_at(12.0) == 4


class TestLiveProfile:
    def test_advance_drops_past_breakpoints(self):
        profile = AvailabilityProfile(8)
        profile.subtract(10.0, 20.0, 3)
        profile.subtract(30.0, 40.0, 5)
        profile.advance(25.0)
        assert profile.start_time == 25.0
        assert profile.free_at(25.0) == 8
        assert profile.free_at(35.0) == 3
        assert profile.free_at(45.0) == 8

    def test_advance_is_noop_before_start(self):
        profile = AvailabilityProfile(8, start_time=50.0)
        profile.advance(10.0)
        assert profile.start_time == 50.0

    def test_advance_preserves_function_from_now_on(self):
        profile = AvailabilityProfile(8)
        profile.subtract(0.0, 100.0, 2)
        profile.subtract(40.0, 60.0, 4)
        reference = [(t, profile.free_at(t)) for t in (45.0, 59.0, 60.0, 99.0, 100.0)]
        profile.advance(45.0)
        assert [(t, profile.free_at(t)) for t in (45.0, 59.0, 60.0, 99.0, 100.0)] == reference

    def test_advance_coalesces_the_clamped_edge(self):
        profile = AvailabilityProfile(8)
        profile.subtract(0.0, 10.0, 3)
        profile.advance(10.0)
        assert list(profile.breakpoints()) == [(10.0, 8)]

    def test_compact_removes_redundant_breakpoints(self):
        profile = AvailabilityProfile(8)
        profile.subtract(10.0, 20.0, 3)
        profile.add(10.0, 20.0, 3)
        assert profile.free_at(15.0) == 8
        profile.compact()
        assert list(profile.breakpoints()) == [(0.0, 8)]

    def test_compact_preserves_real_steps(self):
        profile = AvailabilityProfile(8)
        profile.subtract(10.0, 20.0, 3)
        before = [(t, profile.free_at(t)) for t in (0.0, 10.0, 19.0, 20.0)]
        profile.compact()
        assert [(t, profile.free_at(t)) for t in (0.0, 10.0, 19.0, 20.0)] == before
        assert len(list(profile.breakpoints())) == 3


class TestCopy:
    def test_copy_is_independent(self):
        profile = AvailabilityProfile(8)
        profile.subtract(0.0, 10.0, 4)
        clone = profile.copy()
        clone.subtract(0.0, 10.0, 4)
        assert profile.free_at(5.0) == 4
        assert clone.free_at(5.0) == 0

    def test_breakpoints_iteration(self):
        profile = AvailabilityProfile(8)
        profile.subtract(10.0, 20.0, 3)
        points = list(profile.breakpoints())
        assert points[0] == (0.0, 8)
        assert (10.0, 5) in points
        assert (20.0, 8) in points
