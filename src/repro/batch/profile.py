"""Availability profiles.

An :class:`AvailabilityProfile` is the step function ``time -> number of
free processors`` that a batch scheduler maintains to plan reservations.
Both FCFS and conservative back-filling are expressed as searches over this
profile: *find the earliest interval of length d during which at least p
processors are free*, then subtract ``p`` processors over that interval.

The profile is a sorted list of breakpoints ``(time, free)``; the last
breakpoint extends to infinity.  Profiles support two usage styles:

* *throw-away* profiles built per planning pass (the historical style,
  still used by the reference planners and the differential oracle);
* *live* profiles owned by :class:`~repro.batch.cluster.ClusterState` and
  the incremental planner, updated in place as jobs start and finish:
  :meth:`AvailabilityProfile.advance` drops past breakpoints when
  simulated time moves forward and :meth:`AvailabilityProfile.release`
  gives processors back (clamped to the live left edge, coalescing
  redundant breakpoints).

The columnar :class:`~repro.batch.arrayprofile.ArrayProfile` has the same
method set, float-identical results; the bulk methods
(:meth:`~AvailabilityProfile.earliest_slot_many`,
:meth:`~AvailabilityProfile.release_many`) are plain loops here and
vectorised there.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, Iterator, List, Sequence, Tuple


class ProfileError(ValueError):
    """Raised when a reservation would drive the free-processor count negative."""


class AvailabilityProfile:
    """Step function of free processors over time.

    Parameters
    ----------
    total_procs:
        Capacity of the cluster; the profile starts fully free.
    start_time:
        Left edge of the profile.  Queries before this time are clamped to
        it (the past is irrelevant for planning).
    """

    __slots__ = ("total_procs", "_times", "_free")

    def __init__(self, total_procs: int, start_time: float = 0.0) -> None:
        if total_procs < 0:
            raise ValueError(f"total_procs must be >= 0, got {total_procs}")
        self.total_procs = int(total_procs)
        self._times: list[float] = [float(start_time)]
        self._free: list[int] = [int(total_procs)]

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #
    @property
    def start_time(self) -> float:
        """Left edge of the profile."""
        return self._times[0]

    def breakpoints(self) -> Iterator[Tuple[float, int]]:
        """Iterate over ``(time, free_procs)`` breakpoints."""
        return zip(self._times, self._free)

    def free_at(self, time: float) -> int:
        """Number of free processors at ``time`` (clamped to the profile start)."""
        if time <= self._times[0]:
            return self._free[0]
        idx = bisect_right(self._times, time) - 1
        return self._free[idx]

    def min_free_over(self, start: float, end: float) -> int:
        """Minimum number of free processors over the interval ``[start, end)``."""
        if end <= start:
            return self.free_at(start)
        start = max(start, self._times[0])
        idx = bisect_right(self._times, start) - 1
        lowest = self._free[idx]
        idx += 1
        while idx < len(self._times) and self._times[idx] < end:
            lowest = min(lowest, self._free[idx])
            idx += 1
        return lowest

    # ------------------------------------------------------------------ #
    # Mutation                                                           #
    # ------------------------------------------------------------------ #
    def _ensure_breakpoint(self, time: float) -> int:
        """Insert a breakpoint at ``time`` (if missing) and return its index."""
        idx = bisect_right(self._times, time) - 1
        if idx < 0:
            # Before the profile start: extend the profile to the left with
            # the capacity value so reservations starting earlier are valid.
            self._times.insert(0, time)
            self._free.insert(0, self.total_procs)
            return 0
        if self._times[idx] == time:
            return idx
        self._times.insert(idx + 1, time)
        self._free.insert(idx + 1, self._free[idx])
        return idx + 1

    def subtract(self, start: float, end: float, procs: int) -> None:
        """Remove ``procs`` free processors over ``[start, end)``.

        Raises
        ------
        ProfileError
            If the reservation would make the free count negative anywhere
            in the interval.
        """
        if procs <= 0:
            raise ValueError(f"procs must be positive, got {procs}")
        if end <= start:
            raise ValueError(f"empty interval [{start}, {end})")
        lowest = self.min_free_over(start, end)
        if lowest < procs:
            raise ProfileError(
                f"cannot reserve {procs} procs over [{start}, {end}): "
                f"only {lowest} free"
            )
        i_start = self._ensure_breakpoint(start)
        i_end = self._ensure_breakpoint(end) if math.isfinite(end) else len(self._times)
        for i in range(i_start, i_end):
            self._free[i] -= procs

    def add(self, start: float, end: float, procs: int) -> None:
        """Release ``procs`` processors over ``[start, end)`` (inverse of subtract)."""
        if procs <= 0:
            raise ValueError(f"procs must be positive, got {procs}")
        if end <= start:
            raise ValueError(f"empty interval [{start}, {end})")
        i_start = self._ensure_breakpoint(start)
        i_end = self._ensure_breakpoint(end) if math.isfinite(end) else len(self._times)
        for i in range(i_start, i_end):
            new_value = self._free[i] + procs
            if new_value > self.total_procs:
                raise ProfileError(
                    f"releasing {procs} procs over [{start}, {end}) exceeds capacity "
                    f"{self.total_procs}"
                )
            self._free[i] = new_value

    def release_many(self, reservations: Iterable[Tuple[float, float, int]]) -> None:
        """Give a whole set of ``(start, end, procs)`` reservations back at once.

        :meth:`add` per reservation, then one :meth:`compact`.
        """
        for start, end, procs in reservations:
            self.add(start, end, procs)
        self.compact()

    # ------------------------------------------------------------------ #
    # Live-profile maintenance                                           #
    # ------------------------------------------------------------------ #
    def advance(self, now: float) -> None:
        """Move the left edge of the profile forward to ``now``.

        Breakpoints strictly in the past are dropped; the first remaining
        segment is clamped to start at ``now``.  The profile is unchanged
        as a function over ``[now, inf)``, so planning queries with
        ``earliest >= now`` are unaffected — this is what lets a live
        profile be reused across events instead of being rebuilt.
        """
        times = self._times
        if now <= times[0]:
            return
        idx = bisect_right(times, now) - 1
        if idx > 0:
            del times[:idx]
            del self._free[:idx]
        times[0] = now
        if len(times) > 1 and self._free[1] == self._free[0]:
            del times[1]
            del self._free[1]

    def release(self, start: float, end: float, procs: int) -> None:
        """Give ``procs`` processors back over ``[start, end)`` on a live profile.

        Unlike :meth:`add`, the interval is clamped to the current left
        edge (releasing a reservation whose start has already been
        advanced past is fine) and becomes a no-op when the clamped
        interval is empty.  Redundant breakpoints left by the release are
        coalesced so a long-lived profile stays small.
        """
        if procs <= 0:
            raise ValueError(f"procs must be positive, got {procs}")
        start = max(start, self._times[0])
        if end <= start:
            return
        self.add(start, end, procs)
        self.compact()

    def set_capacity(self, new_total: int, now: float) -> None:
        """Change the cluster capacity to ``new_total`` from ``now`` on.

        This is the live-profile half of a resource event (outage,
        maintenance, recovery, join/leave): the free-processor count over
        ``[now, inf)`` moves by the capacity delta and :attr:`total_procs`
        — the cap used by overflow checks and by
        :meth:`earliest_slot`'s infeasibility test — becomes the new
        capacity.  Shrinking requires the delta to be free everywhere
        from ``now`` on; the caller (:class:`~repro.batch.cluster
        .ClusterState`) kills enough running jobs first.

        Raises
        ------
        ProfileError
            If shrinking below the processors currently reserved anywhere
            in ``[now, inf)``.
        """
        if new_total < 0:
            raise ValueError(f"new_total must be >= 0, got {new_total}")
        self.advance(now)
        delta = new_total - self.total_procs
        if delta == 0:
            return
        start = max(now, self._times[0])
        if delta > 0:
            self.total_procs = int(new_total)
            self.add(start, math.inf, delta)
        else:
            self.subtract(start, math.inf, -delta)
            self.total_procs = int(new_total)
        self.compact()

    def compact(self) -> None:
        """Drop redundant breakpoints (equal free count on both sides).

        The profile is unchanged as a step function; only its
        representation shrinks.  Called by the live-profile mutators so
        repeated reserve/release cycles do not grow the breakpoint list
        without bound.
        """
        times = self._times
        free = self._free
        if len(times) < 2:
            return
        keep_times = [times[0]]
        keep_free = [free[0]]
        for idx in range(1, len(times)):
            if free[idx] != keep_free[-1]:
                keep_times.append(times[idx])
                keep_free.append(free[idx])
        if len(keep_times) != len(times):
            self._times = keep_times
            self._free = keep_free

    # ------------------------------------------------------------------ #
    # Planning queries                                                   #
    # ------------------------------------------------------------------ #
    def earliest_slot(self, procs: int, duration: float, earliest: float) -> float:
        """Earliest ``t >= earliest`` with ``procs`` free during ``[t, t+duration)``.

        The search enters the breakpoint list by binary search at
        ``earliest`` and, whenever a segment blocks the current candidate,
        restarts directly after the blocking segment — the list is never
        rescanned from the beginning, so a call costs O(log B + segments
        actually visited).

        Returns ``math.inf`` when the request can never be satisfied (more
        processors than the cluster owns).
        """
        if procs > self.total_procs:
            return math.inf
        if procs <= 0:
            raise ValueError(f"procs must be positive, got {procs}")
        times = self._times
        free = self._free
        count = len(times)
        earliest = max(earliest, times[0])
        if duration <= 0:
            # A zero-length reservation only needs an instant with enough
            # free processors.
            idx = bisect_right(times, earliest) - 1
            while idx < count:
                if free[idx] >= procs:
                    return max(earliest, times[idx])
                idx += 1
            return math.inf

        idx = bisect_right(times, earliest) - 1
        candidate = earliest
        while True:
            # Scan forward from `candidate` checking that every segment that
            # intersects [candidate, candidate + duration) has enough procs.
            end_needed = candidate + duration
            scan = idx
            ok = True
            while scan < count:
                seg_start = times[scan]
                seg_end = times[scan + 1] if scan + 1 < count else math.inf
                if seg_end <= candidate:
                    scan += 1
                    continue
                if seg_start >= end_needed:
                    break
                if free[scan] < procs:
                    ok = False
                    # Restart the search at the end of the blocking segment.
                    candidate = seg_end
                    idx = scan + 1
                    break
                scan += 1
            if ok:
                return candidate
            if idx >= count:
                # Blocking segment was the final (infinite) one.
                return math.inf

    def earliest_slot_many(
        self, procs: Sequence[int], durations: Sequence[float], earliest: float
    ) -> List[float]:
        """:meth:`earliest_slot` for each ``(procs, duration)`` query."""
        if len(procs) != len(durations):
            raise ValueError("procs and durations must have the same length")
        return [
            self.earliest_slot(p, duration, earliest)
            for p, duration in zip(procs, durations)
        ]

    # ------------------------------------------------------------------ #
    # Construction helpers                                               #
    # ------------------------------------------------------------------ #
    def copy(self) -> "AvailabilityProfile":
        """Independent copy (used for what-if estimation queries)."""
        clone = AvailabilityProfile.__new__(AvailabilityProfile)
        clone.total_procs = self.total_procs
        clone._times = list(self._times)
        clone._free = list(self._free)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        points = ", ".join(f"({t:.0f}:{f})" for t, f in zip(self._times, self._free))
        return f"AvailabilityProfile(cap={self.total_procs}, [{points}])"
