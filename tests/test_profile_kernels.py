"""The array-storage search kernels against the list reference.

Array storage answers :meth:`~repro.batch.profile.AvailabilityProfile.earliest_slot`
with one edge pass over the blocked mask and
:meth:`~repro.batch.profile.AvailabilityProfile.earliest_slot_many` with one
run table for every distinct processor count of the batch.  Both must
return exactly what the list walk of ``oracles.profiles.ListProfile``
returns, and move the storage score exactly as one list walk per query
would (a long walk counts up, a short one down).  The worlds below are
built to reach the corners of the kernels: many distinct counts, counts
with no open run at all (an infinite reservation covers the tail),
windows that fit exactly (``start + duration`` equal to the next
blocking breakpoint), an unblocked infinite tail, ``earliest`` before
the profile start or inside a segment, and batches split over several
count and query chunks (the element budget ``_CELLS`` is shrunk for
that), with zero-length and oversized queries mixed in.

The incremental planner reserves every slot through the private
``_place``, which in list storage reserves the window its own walk found
instead of searching again in ``subtract``.  In either storage it must
leave exactly what ``earliest_slot`` followed by ``subtract`` leaves —
same start, breakpoints, storage and score, same error — and so must the
reference's ``earliest_slot`` plus ``subtract``.  Both storages return
every start as a ``float``.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import profile as profile_module
from repro.batch.profile import AvailabilityProfile

from oracles.profiles import MODES, ListProfile, mode_of

LONG_SCAN = profile_module._LONG_SCAN
SWITCH_AFTER = profile_module._SWITCH_AFTER


@st.composite
def worlds(draw):
    """``(capacity, start, reservations)``; every reservation fits when applied in order."""
    cap = draw(st.integers(1, 40))
    start = draw(st.sampled_from([0.0, 10.0, 2.5]))
    reservations = []
    for _ in range(draw(st.integers(0, draw(st.sampled_from([12, 120]))))):
        begin = start + draw(st.integers(0, 200)) * 0.5
        if draw(st.integers(0, 9)) == 0:
            begin += draw(st.floats(0.0, 1.0))
        forever = draw(st.integers(0, 14)) == 0
        end = math.inf if forever else begin + draw(st.integers(1, 60)) * 0.5
        reservations.append((begin, end, draw(st.integers(1, cap))))
    return cap, start, reservations


def build(world):
    """The reference and a list-storage production profile of ``world``."""
    cap, start, reservations = world
    reference, profile = ListProfile(cap, start), AvailabilityProfile(cap, start)
    for begin, end, procs in reservations:
        if reference.min_free_over(begin, end) >= procs:
            reference.subtract(begin, end, procs)
            profile.subtract(begin, end, procs)
    return reference, profile


def in_arrays(profile, score):
    profile._to_array()
    profile._score = score
    return profile


#: A duration: a plain value, or the gap between two breakpoints (an
#: exact fit whenever a run starts at the first and is blocked at the second).
durations = st.one_of(
    st.just(0.0),
    st.integers(1, 80).map(lambda k: k * 0.5),
    st.floats(0.001, 150.0),
    st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)),
)
earliests = st.one_of(
    st.integers(-20, 120).map(lambda k: k * 0.5),  # before the start, on or between breakpoints
    st.floats(-10.0, 120.0),
)


def resolve(duration, reference):
    if not isinstance(duration, tuple):
        return duration
    times = [time for time, _ in reference.breakpoints()]
    return abs(times[duration[1] % len(times)] - times[duration[0] % len(times)])


def is_long(list_profile, procs, duration, earliest):
    """Whether one list walk counts ``(procs, duration)`` as a long search."""
    probe = list_profile.copy()
    probe._score = 0
    probe.earliest_slot(procs, duration, earliest)
    return probe._score == 1


def expected_score(score, list_profile, queries, earliest):
    """Score after one batch: long minus short positive-duration searches."""
    cap = list_profile.total_procs
    searched = [(p, d) for p, d in queries if p <= cap and d > 0]
    if not searched:
        return score
    longs = sum(is_long(list_profile, p, d, earliest) for p, d in searched)
    return min(score + 2 * longs - len(searched), SWITCH_AFTER)


def assert_score(profile, expected):
    if expected <= 0:
        assert (mode_of(profile), profile._score) == ("list", 0)
    else:
        assert (mode_of(profile), profile._score) == ("array", expected)


class TestBatchedKernel:
    @given(
        world=worlds(),
        queries=st.lists(st.tuples(st.integers(1, 44), durations), max_size=90),
        earliest=earliests,
        cells=st.sampled_from([1, 5, 40, 64, 200, 1 << 16]),
        score=st.integers(1, SWITCH_AFTER),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_and_moves_the_score(self, world, queries, earliest, cells, score):
        reference, profile = build(world)
        queries = [(p, resolve(d, reference)) for p, d in queries]
        procs = [p for p, _ in queries]
        lengths = [d for _, d in queries]
        want_score = expected_score(score, profile, queries, earliest)
        in_arrays(profile, score)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(profile_module, "_CELLS", cells)
            got = profile.earliest_slot_many(procs, lengths, earliest)
        assert got == reference.earliest_slot_many(procs, lengths, earliest)
        assert list(profile.breakpoints()) == list(reference.breakpoints())
        assert_score(profile, want_score)

    @given(
        world=worlds(),
        queries=st.lists(st.tuples(st.integers(-3, 44), durations), min_size=1, max_size=30),
        earliest=earliests,
    )
    @settings(max_examples=50, deadline=None)
    def test_a_non_positive_count_fails_like_the_reference(self, world, queries, earliest):
        reference, profile = build(world)
        queries = [(p, resolve(d, reference)) for p, d in queries]
        if all(p > 0 for p, _ in queries):
            queries.append((0, 1.0))
        procs = [p for p, _ in queries]
        lengths = [d for _, d in queries]
        in_arrays(profile, 3)
        before = list(profile.breakpoints())
        errors = []
        for target in (profile, reference):
            with pytest.raises(ValueError) as excinfo:
                target.earliest_slot_many(procs, lengths, earliest)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]
        # Nothing was searched: breakpoints, storage and score are untouched.
        assert list(profile.breakpoints()) == before
        assert (mode_of(profile), profile._score) == ("array", 3)


class TestSinglePlacement:
    @given(
        world=worlds(),
        queries=st.lists(st.tuples(st.integers(1, 44), durations), min_size=1, max_size=12),
        earliest=earliests,
        score=st.integers(1, SWITCH_AFTER),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_and_moves_the_score(self, world, queries, earliest, score):
        reference, profile = build(world)
        arrays = in_arrays(profile.copy(), score)
        for procs, duration in queries:
            duration = resolve(duration, reference)
            want_score = expected_score(score, profile, [(procs, duration)], earliest)
            probe = arrays.copy()
            got = probe.earliest_slot(procs, duration, earliest)
            assert got == reference.earliest_slot(procs, duration, earliest)
            assert list(probe.breakpoints()) == list(reference.breakpoints())
            assert_score(probe, want_score)

    @pytest.mark.parametrize("procs", [0, -2])
    def test_a_non_positive_count_fails_like_the_reference(self, procs):
        reference, profile = ListProfile(8), in_arrays(AvailabilityProfile(8), 3)
        messages = []
        for target in (profile, reference):
            with pytest.raises(ValueError) as excinfo:
                target.earliest_slot(procs, 1.0, 0.0)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert (mode_of(profile), profile._score) == ("array", 3)


@pytest.mark.parametrize("earliest,procs,lengths,want", [
    # 10 fits [0, 10) exactly, 10.5 fits no window of 4 (the tail holds
    # 2), 5 exceeds the capacity, 2 waits for the infinite tail.
    (0.0, [4, 4, 4, 3, 2, 5, 4, 1], [10.0, 10.5, 0.0, 10.0, 1e9, 1.0, 9.5, 0.0],
     [0.0, math.inf, 0.0, 0.0, 20.0, math.inf, 0.0, 0.0]),
    # Entered inside [20, 30): 3 fits up to 30 exactly, 4 does not.
    (25.0, [3, 4, 2], [5.0, 5.5, 7.0], [25.0, math.inf, 25.0]),
    # Entered inside [10, 20): 4 fits [20, 30) exactly.
    (12.5, [4, 4, 1], [10.0, 10.25, 3.0], [20.0, math.inf, 12.5]),
    # Past 30 counts 3 and 4 have no open run at all.
    (35.0, [3, 4, 2, 1], [1.0, 1.0, 1.0, 0.0], [math.inf, math.inf, 35.0, 35.0]),
])
def test_exact_fits_and_rows_without_an_open_run(earliest, procs, lengths, want):
    # free: 4 over [0, 10), 1 over [10, 20), 4 over [20, 30), then 2 forever.
    reference, profile = ListProfile(4), AvailabilityProfile(4)
    for target in (reference, profile):
        target.subtract(10.0, 20.0, 3)
        target.subtract(30.0, math.inf, 2)
    in_arrays(profile, SWITCH_AFTER)
    singles = [profile.copy().earliest_slot(p, d, earliest) for p, d in zip(procs, lengths)]
    got = profile.earliest_slot_many(procs, lengths, earliest)
    assert got == singles == reference.earliest_slot_many(procs, lengths, earliest) == want


@pytest.mark.parametrize("duration,long", [(float(LONG_SCAN), False), (LONG_SCAN + 0.5, True)])
def test_a_window_ending_on_the_long_scan_breakpoint_is_short(duration, long):
    # One breakpoint per time unit: a window from 0 ending at LONG_SCAN
    # makes the walk stop at that breakpoint, LONG_SCAN segments in.
    steps = LONG_SCAN + 10
    profile = AvailabilityProfile(steps + 4)
    for step in range(steps):
        profile.subtract(float(step), float(steps), 1)
    assert is_long(profile, 1, duration, 0.0) is long
    step = 1 if long else -1
    single = in_arrays(profile.copy(), 4)
    assert single.earliest_slot(1, duration, 0.0) == 0.0
    batch = in_arrays(profile.copy(), 4)
    assert batch.earliest_slot_many([1, 1], [duration, duration], 0.0) == [0.0, 0.0]
    assert (single._score, batch._score) == (4 + step, 4 + 2 * step)


def search_then_subtract(profile, procs, duration, earliest):
    """``earliest_slot`` then ``subtract`` of a finite start: the start or the error."""
    try:
        start = profile.earliest_slot(procs, duration, earliest)
        if math.isfinite(start):
            profile.subtract(start, start + duration, procs)
    except ValueError as error:
        return type(error), str(error)
    return type(start), start


def fused(profile, procs, duration, earliest):
    """``_place``: the start or the error, as :func:`search_then_subtract` reports it."""
    try:
        start = profile._place(procs, duration, earliest)
    except ValueError as error:
        return type(error), str(error)
    return type(start), start


def assert_same_placements(profile, reference, queries):
    """``_place`` on ``profile`` == search + subtract on a copy and on ``reference``."""
    split = profile.copy()
    for procs, duration, earliest in queries:
        duration = resolve(duration, reference)
        got = fused(profile, procs, duration, earliest)
        assert got == search_then_subtract(split, procs, duration, earliest)
        want = search_then_subtract(reference, procs, duration, earliest)
        assert got[0] in (float, ValueError) and got[1] == want[1]
        assert list(profile.breakpoints()) == list(split.breakpoints())
        assert list(profile.breakpoints()) == list(reference.breakpoints())
        assert (mode_of(profile), profile._score) == (mode_of(split), split._score)


class TestFusedPlacement:
    @given(
        world=worlds(),
        queries=st.lists(
            st.tuples(st.integers(1, 44), durations, earliests), min_size=1, max_size=12
        ),
        storage=st.sampled_from(["list", "array"]),
        score=st.integers(0, SWITCH_AFTER),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_search_then_subtract(self, world, queries, storage, score):
        reference, profile = build(world)
        if storage == "array":
            in_arrays(profile, max(score, 1))
        else:
            profile._score = min(score, SWITCH_AFTER - 1)
        assert_same_placements(profile, reference, queries)

    @pytest.mark.parametrize("storage", ["list", "array"])
    @pytest.mark.parametrize("procs,duration,earliest,want", [
        (4, 10.0, 0.0, 0.0),       # the window ends on the breakpoint at 10
        (4, 10.0, 20.0, 20.0),     # ... and on the one at 30
        (4, 9.5, 0.0, 0.0),        # ends inside [0, 10): a new end breakpoint
        (1, 5.0, 12.5, 12.5),      # starts and ends inside [10, 20)
        (2, 4.0, 31.0, 31.0),      # inside the infinite tail
        (3, 1e9, 0.0, math.inf),   # 3 never stays free that long: infinite start
        (5, 1.0, 0.0, math.inf),   # more processors than the capacity
        (2, 0.0, 5.0, 5.0),        # zero length: subtract's empty-interval error
        (2, math.inf, 0.0, 20.0),  # an infinite window: reserved to the end
    ])
    def test_hand_built_corners(self, storage, procs, duration, earliest, want):
        # free: 4 over [0, 10), 1 over [10, 20), 4 over [20, 30), then 2 forever.
        reference, profile = ListProfile(4), AvailabilityProfile(4)
        for target in (reference, profile):
            target.subtract(10.0, 20.0, 3)
            target.subtract(30.0, math.inf, 2)
        if storage == "array":
            in_arrays(profile, SWITCH_AFTER)
        assert profile.copy().earliest_slot(procs, duration, earliest) == want
        assert_same_placements(profile, reference, [(procs, duration, earliest)])

    @pytest.mark.parametrize("storage,score,duration", [
        ("list", SWITCH_AFTER - 1, LONG_SCAN + 0.5),  # a long walk moves it to arrays
        ("array", 1, 0.5),                            # a short search moves it to lists
    ])
    def test_a_placement_that_switches_storage(self, storage, score, duration):
        # One breakpoint per time unit, so a window's length sets the walk's.
        steps = LONG_SCAN + 10
        reference, profile = ListProfile(steps + 4), AvailabilityProfile(steps + 4)
        for step in range(steps):
            reference.subtract(float(step), float(steps), 1)
            profile.subtract(float(step), float(steps), 1)
        if storage == "array":
            in_arrays(profile, score)
        else:
            profile._score = score
        assert_same_placements(profile, reference, [(1, duration, 0.0)])
        assert mode_of(profile) == ("array" if storage == "list" else "list")


@pytest.mark.parametrize("storage", ["list", "array"])
def test_starts_are_floats_in_both_storages(storage):
    # Integer arguments leave an integer breakpoint in list storage.
    profile = MODES[storage](4)
    profile.subtract(0, 10, 3)
    starts = [
        profile.earliest_slot(1, 1.0, 5),       # the caller's earliest
        profile.earliest_slot(4, 1.0, 5),       # an integer breakpoint
        profile.earliest_slot(4, 0.0, 5),       # zero length
        *profile.earliest_slot_many([1, 4], [1.0, 1.0], 5),
        profile._place(4, 2.0, 5),
    ]
    assert starts == [5.0, 10.0, 10.0, 5.0, 10.0, 10.0]
    assert [type(start) for start in starts] == [float] * len(starts)
