"""Availability profiles.

An :class:`AvailabilityProfile` is the step function ``time -> number of
free processors`` that a batch scheduler maintains to plan reservations.
Both FCFS and conservative back-filling are expressed as searches over this
profile: *find the earliest interval of length d during which at least p
processors are free*, then subtract ``p`` processors over that interval.

The profile is a sorted sequence of breakpoints ``(time, free)``; the last
breakpoint extends to infinity.  A cluster builds the base profile of its
running set afresh for every planning query
(:meth:`~repro.batch.cluster.ClusterState.availability`); the incremental
planner keeps the *residual* left after its reservations across events,
reserving (:meth:`AvailabilityProfile.subtract`), giving reservations
back (:meth:`AvailabilityProfile.release_many`,
:meth:`AvailabilityProfile.patch`) and dropping the past
(:meth:`AvailabilityProfile.advance`) as simulated time moves forward.

Storage adapts to the searches
------------------------------
What a search costs depends on how many segments it visits, not on how
many breakpoints the profile holds: an FCFS tail placement on a profile of
~500 breakpoints visits one or two segments, a CBF search from ``now``
across a deep queue visits hundreds.  A profile therefore keeps its
breakpoints in one of two storages and moves between them on its own:

* **list storage** (:class:`AvailabilityProfile` itself) — two Python
  lists walked segment by segment, O(log B + segments visited) per search
  with no fixed per-call overhead.  A planner's placement is one walk: the
  private ``_place`` reserves the window its search has just proved free
  at the indices the walk stopped at, instead of searching the window
  again in :meth:`~AvailabilityProfile.subtract`;
* **array storage** (the private ``_ArrayMode`` subclass) — two
  capacity-doubling NumPy arrays searched by exact kernels: a placement
  is one edge pass over the blocked mask and one comparison per run of
  open segments, then the checked ``subtract``; an estimate batch builds
  one run table for all its processor counts and resolves every query in
  one 2-D comparison; :meth:`~AvailabilityProfile.release_many` and
  :meth:`~AvailabilityProfile.patch` are O(intervals + breakpoints).

Every search with a positive duration reports how many segments it
visited (the index where a segment walk over the profile would stop: the
first breakpoint at or after the end of the window found).  A search
visiting more than ``_LONG_SCAN`` segments is *long*, any other one
*short*.  A score counts long searches up and short ones down, clamped
to ``[0, _SWITCH_AFTER]``: list storage moves to arrays when it reaches
``_SWITCH_AFTER``, array storage back to lists when it reaches 0.  A
profile thus follows the bulk of its searches, and an alternation of
long and short ones never makes it flip back and forth.  The switch
swaps ``__class__`` between the two storage classes, which share one slot
layout, so no call ever goes through a wrapper.  Copies keep their
storage and score.

Both storages return float-identical results (every start a ``float``)
and keep identical breakpoints: free counts are integers, breakpoint
times are only ever *copied* from inputs, compared or passed through
``max`` — never recomputed — and every feasibility comparison uses the
same IEEE operations in the same order.  The list-only reference engine in
``tests/oracles/profiles.py`` holds both storages, and every switch
between them, to exact equality.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import compress, islice
from operator import ne
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

#: A search visiting more segments than this is *long* ...
_LONG_SCAN = 64
#: ... and the score of long minus short searches moves list storage to
#: arrays at this value and array storage back to lists at 0.
_SWITCH_AFTER = 8
#: Element budget of every temporary of a batched array-storage search
#: (128 KB of float64: larger blocks measured ~4x slower per element).
_CELLS = 1 << 14


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

    A new profile keeps its breakpoints in Python lists; see the module
    docstring for when it moves them to NumPy arrays and back.
    ``_score`` is the storage rule's count of long minus short searches;
    ``_size`` is only set in array storage, where it is the
    number of live breakpoints.
    """

    __slots__ = ("total_procs", "_times", "_free", "_size", "_score")

    def __init__(self, total_procs: int, start_time: float = 0.0) -> None:
        if total_procs < 0:
            raise ValueError(f"total_procs must be >= 0, got {total_procs}")
        self.total_procs = int(total_procs)
        self._times: list[float] = [float(start_time)]
        self._free: list[int] = [int(total_procs)]
        self._score = 0

    @classmethod
    def _from_breakpoints(
        cls, total_procs: int, times: List[float], free: List[int]
    ) -> "AvailabilityProfile":
        """A list-storage profile taking ``times``/``free`` (canonical, not copied)."""
        profile = object.__new__(cls)
        profile.total_procs = total_procs
        profile._times = times
        profile._free = free
        profile._score = 0
        return profile

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
        times = self._times
        idx = bisect_right(times, max(start, times[0])) - 1
        # The segment holding ``start`` and every later one starting before ``end``.
        return min(self._free[idx : bisect_left(times, end, idx + 1)])

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
        """Release ``procs`` processors over ``[start, end)`` (inverse of subtract).

        On overflow the segments before the first one that would exceed
        the capacity are already released when the error is raised.
        """
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

    def _net_changes(
        self,
        release: Iterable[Tuple[float, float, int]],
        reserve: Iterable[Tuple[float, float, int]],
    ) -> List[Tuple[float, float, int]]:
        """``(start, end, signed procs)`` of a patch, clamped to the left edge.

        Released intervals count positive, reserved ones negative; an
        interval empty after the clamp is dropped.  Every count must be
        positive, as for :meth:`subtract`.
        """
        left = self.start_time
        changes = []
        for sign, intervals in ((1, release), (-1, reserve)):
            for start, end, procs in intervals:
                if procs <= 0:
                    raise ValueError(f"procs must be positive, got {procs}")
                start = max(start, left)
                if end > start:
                    changes.append((start, end, sign * procs))
        return changes

    @staticmethod
    def _patch_error(start: float, end: float, level: int, total: int) -> ProfileError:
        return ProfileError(
            f"patch over [{start}, {end}) by {level:+d} leaves the free count "
            f"outside [0, {total}]"
        )

    def patch(
        self,
        release: Iterable[Tuple[float, float, int]],
        reserve: Iterable[Tuple[float, float, int]],
    ) -> None:
        """Give ``release`` back and take ``reserve`` as one net change.

        Both are ``(start, end, procs)`` intervals, clamped to the left
        edge.  The change is summed per *elementary interval* (between two
        consecutive interval bounds) and applied once, so a reservation
        may overlap a release it cancels: ``add`` of every release followed
        by ``subtract`` of every reservation would overflow the capacity
        there.  Only the net free count must stay within ``[0,
        total_procs]``; otherwise :class:`ProfileError` names the first
        elementary interval in time order that leaves it, and the profile
        is unchanged.  A non-positive count raises :class:`ValueError`
        before anything is applied.  Ends with one :meth:`compact`.
        """
        steps: dict = {}
        for start, end, procs in self._net_changes(release, reserve):
            steps[start] = steps.get(start, 0) + procs
            if end != math.inf:
                steps[end] = steps.get(end, 0) - procs
        bounds = sorted(steps.items())
        intervals = []
        level = 0
        for k, (start, step) in enumerate(bounds):
            level += step
            if level:
                end = bounds[k + 1][0] if k + 1 < len(bounds) else math.inf
                intervals.append((start, end, level))
        times = self._times
        free = self._free
        total = self.total_procs
        for start, end, level in intervals:
            lo = bisect_right(times, start) - 1
            segment = free[lo : bisect_left(times, end, lo + 1)]
            value = max(segment) + level if level > 0 else min(segment) + level
            if value < 0 or value > total:
                raise self._patch_error(start, end, level, total)
        for start, end, level in intervals:
            i_start = self._ensure_breakpoint(start)
            i_end = self._ensure_breakpoint(end) if end != math.inf else len(times)
            for i in range(i_start, i_end):
                free[i] += level
        self.compact()

    # ------------------------------------------------------------------ #
    # Time and representation                                            #
    # ------------------------------------------------------------------ #
    def advance(self, now: float) -> None:
        """Move the left edge of the profile forward to ``now``.

        Breakpoints strictly in the past are dropped; the first remaining
        segment is clamped to start at ``now``, and a first segment made
        redundant by the clamp is merged (once).  The profile is unchanged
        as a function over ``[now, inf)``, so planning queries with
        ``earliest >= now`` are unaffected — this is what lets a planner's
        residual be reused across events instead of being rebuilt.
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

    def compact(self) -> None:
        """Drop redundant breakpoints (equal free count on both sides).

        The profile is unchanged as a step function; only its
        representation shrinks.  Called by the bulk releases so repeated
        reserve/release cycles do not grow the breakpoints without bound.
        """
        free = self._free
        if len(free) < 2:
            return
        # keep[i]: breakpoint i + 1 changes the free count.
        keep = list(map(ne, free, islice(free, 1, None)))
        if all(keep):
            return
        times = self._times
        self._times = [times[0], *compress(islice(times, 1, None), keep)]
        self._free = [free[0], *compress(islice(free, 1, None), keep)]

    # ------------------------------------------------------------------ #
    # Planning queries                                                   #
    # ------------------------------------------------------------------ #
    def earliest_slot(self, procs: int, duration: float, earliest: float) -> float:
        """Earliest ``t >= earliest`` with ``procs`` free during ``[t, t+duration)``.

        The search enters the breakpoints by binary search at ``earliest``
        and, whenever a segment blocks the current candidate, restarts
        directly after the blocking segment — the breakpoints are never
        rescanned from the beginning, so a call costs O(log B + segments
        actually visited) here.  Array storage answers with the same
        result from a vectorised search.

        Returns ``math.inf`` when the request can never be satisfied (more
        processors than the cluster owns).
        """
        return self._place(procs, duration, earliest, False)

    def _place(self, procs: int, duration: float, earliest: float, reserve: bool = True) -> float:
        """The walk of :meth:`earliest_slot`; with ``reserve``, also take the slot.

        A reserving call has the same result, breakpoints, score and errors
        as :meth:`earliest_slot` followed by :meth:`subtract` over ``[start,
        start + duration)`` for a finite start, in one walk: the walk ends
        knowing the window's first segment ``idx`` and its end ``scan`` (the
        first breakpoint at or after the window's end), so the start and end
        breakpoints go in at those indices and ``free[idx:scan]`` is
        decremented, without the re-check's search.  Every segment there was
        just proved to hold ``procs`` free; the decrement still refuses to go
        below zero.  The reservation is made before the storage score moves,
        so a walk that moves the breakpoints to arrays moves them reserved.
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
            # free processors (reserving it fails like subtract).
            idx = bisect_right(times, earliest) - 1
            while idx < count:
                if free[idx] >= procs:
                    start = float(max(earliest, times[idx]))
                    if reserve:
                        self.subtract(start, start + duration, procs)
                    return start
                idx += 1
            return math.inf

        first = idx = bisect_right(times, earliest) - 1
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
                break
            if idx >= count:
                # Blocking segment was the final (infinite) one.
                candidate = math.inf
                scan = count
                break
        long_walk = scan - first > _LONG_SCAN
        candidate = float(candidate)
        if reserve and candidate != math.inf:
            # The window covers segments idx..scan-1: times[idx] <= candidate
            # and times[scan] >= end_needed (or scan == count).
            if times[idx] != candidate:
                idx += 1
                scan += 1
                times.insert(idx, candidate)
                free.insert(idx, free[idx - 1])
            if end_needed != math.inf and (scan == len(times) or times[scan] != end_needed):
                times.insert(scan, end_needed)
                free.insert(scan, free[scan - 1])
            for i in range(idx, scan):
                left = free[i] - procs
                if left < 0:
                    raise ProfileError(
                        f"cannot reserve {procs} procs over [{candidate}, {end_needed}): "
                        f"only {free[i]} free"
                    )
                free[i] = left
        if long_walk:
            self._score += 1
            if self._score >= _SWITCH_AFTER:
                self._to_array()
        elif self._score:
            self._score -= 1
        return candidate

    def earliest_slot_many(
        self, procs: Sequence[int], durations: Sequence[float], earliest: float
    ) -> List[float]:
        """:meth:`earliest_slot` for each ``(procs, duration)`` query.

        One search per query while the breakpoints stay in lists; when the
        searches move them to arrays, the rest of the batch runs as one
        batched array query.
        """
        if len(procs) != len(durations):
            raise ValueError("procs and durations must have the same length")
        out: List[float] = []
        for p, duration in zip(procs, durations):
            if type(self._times) is not list:
                done = len(out)
                out += self.earliest_slot_many(procs[done:], durations[done:], earliest)
                break
            out.append(self.earliest_slot(p, duration, earliest))
        return out

    # ------------------------------------------------------------------ #
    # Storage                                                            #
    # ------------------------------------------------------------------ #
    def _to_array(self) -> None:
        """Move the breakpoints into array storage (the profile is unchanged)."""
        n = len(self._times)
        times = np.empty(2 * n, dtype=np.float64)
        free = np.empty(2 * n, dtype=np.int64)
        times[:n] = self._times
        free[:n] = self._free
        self._times = times
        self._free = free
        self._size = n
        self._score = _SWITCH_AFTER
        self.__class__ = _ArrayMode

    def copy(self) -> "AvailabilityProfile":
        """Independent copy in the same storage (used for what-if queries)."""
        clone = object.__new__(type(self))
        clone.total_procs = self.total_procs
        clone._times = list(self._times)
        clone._free = list(self._free)
        clone._score = self._score
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        points = ", ".join(f"({t:.0f}:{f})" for t, f in self.breakpoints())
        return f"AvailabilityProfile(cap={self.total_procs}, [{points}])"


class _ArrayMode(AvailabilityProfile):
    """Array storage of :class:`AvailabilityProfile`.

    Same methods, error messages and failure states, float-identical
    results; ``_times``/``_free`` are capacity-doubling ``float64``/
    ``int64`` arrays whose first ``_size`` entries are live.  A profile
    only gets here through a switch (see the module docstring).
    """

    __slots__ = ()

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #
    @property
    def start_time(self) -> float:
        """Left edge of the profile."""
        return float(self._times[0])

    def breakpoints(self) -> Iterator[Tuple[float, int]]:
        """Iterate over ``(time, free_procs)`` breakpoints (Python scalars)."""
        n = self._size
        return zip(self._times[:n].tolist(), self._free[:n].tolist())

    def free_at(self, time: float) -> int:
        """Number of free processors at ``time`` (clamped to the profile start)."""
        if time <= self._times[0]:
            return int(self._free[0])
        idx = self._times[: self._size].searchsorted(time, side="right") - 1
        return int(self._free[idx])

    def min_free_over(self, start: float, end: float) -> int:
        """Minimum number of free processors over the interval ``[start, end)``."""
        if end <= start:
            return self.free_at(start)
        times = self._times[: self._size]
        start = max(start, times[0])
        i_start = int(times.searchsorted(start, side="right")) - 1
        # The segment containing ``start`` always participates, even when
        # ``end`` falls inside it (the segment walk starts there).
        i_end = max(int(times.searchsorted(end, side="left")), i_start + 1)
        return int(self._free[i_start:i_end].min())

    # ------------------------------------------------------------------ #
    # Storage management                                                 #
    # ------------------------------------------------------------------ #
    def _reserve(self, needed: int) -> None:
        """Grow the backing arrays (doubling) to hold ``needed`` breakpoints."""
        capacity = self._times.shape[0]
        if capacity >= needed:
            return
        while capacity < needed:
            capacity *= 2
        n = self._size
        times = np.empty(capacity, dtype=np.float64)
        free = np.empty(capacity, dtype=np.int64)
        times[:n] = self._times[:n]
        free[:n] = self._free[:n]
        self._times = times
        self._free = free

    def _insert(self, index: int, time: float, value: int) -> None:
        """Insert one breakpoint at ``index``, shifting the suffix in place."""
        n = self._size
        self._reserve(n + 1)
        times = self._times
        free = self._free
        if index < n:
            times[index + 1 : n + 1] = times[index:n]
            free[index + 1 : n + 1] = free[index:n]
        times[index] = time
        free[index] = value
        self._size = n + 1

    def _to_list(self) -> None:
        """Move the breakpoints into list storage (the profile is unchanged)."""
        n = self._size
        self._times = self._times[:n].tolist()
        self._free = self._free[:n].tolist()
        self._score = 0
        self.__class__ = AvailabilityProfile

    # ------------------------------------------------------------------ #
    # Mutation                                                           #
    # ------------------------------------------------------------------ #
    def _ensure_bounds(self, start: float, end: float, i0: int, j: int):
        """Materialise the ``[start, end)`` breakpoints; return their indices.

        ``i0``/``j`` are the already-computed ``searchsorted`` positions of
        ``start`` (right, minus one) and ``end`` (left) so the interval
        mutations run two binary searches instead of four.  Equivalent to
        ``(_ensure_breakpoint(start), _ensure_breakpoint(end))``.
        """
        if i0 < 0:
            # Before the profile start: extend the profile to the left with
            # the capacity value so reservations starting earlier are valid.
            self._insert(0, start, self.total_procs)
            i_start = 0
            j += 1
        elif self._times[i0] == start:
            i_start = i0
        else:
            self._insert(i0 + 1, start, int(self._free[i0]))
            i_start = i0 + 1
            j += 1
        if not math.isfinite(end):
            return i_start, self._size
        # ``j`` is now the left-insertion point of ``end`` in the updated
        # array (the start breakpoint, < end, always lands before it).
        if j < self._size and self._times[j] == end:
            return i_start, j
        self._insert(j, end, int(self._free[j - 1]))
        return i_start, j

    def subtract(self, start: float, end: float, procs: int) -> None:
        """Remove ``procs`` free processors over ``[start, end)``."""
        if procs <= 0:
            raise ValueError(f"procs must be positive, got {procs}")
        if end <= start:
            raise ValueError(f"empty interval [{start}, {end})")
        times = self._times[: self._size]
        i0 = int(times.searchsorted(start, side="right")) - 1
        j = int(times.searchsorted(end, side="left"))
        scan_lo = max(i0, 0)
        lowest = int(self._free[scan_lo : max(j, scan_lo + 1)].min())
        if lowest < procs:
            raise ProfileError(
                f"cannot reserve {procs} procs over [{start}, {end}): "
                f"only {lowest} free"
            )
        i_start, i_end = self._ensure_bounds(start, end, i0, j)
        self._free[i_start:i_end] -= procs

    def add(self, start: float, end: float, procs: int) -> None:
        """Release ``procs`` processors over ``[start, end)`` (inverse of subtract)."""
        if procs <= 0:
            raise ValueError(f"procs must be positive, got {procs}")
        if end <= start:
            raise ValueError(f"empty interval [{start}, {end})")
        times = self._times[: self._size]
        i0 = int(times.searchsorted(start, side="right")) - 1
        j = int(times.searchsorted(end, side="left"))
        i_start, i_end = self._ensure_bounds(start, end, i0, j)
        segment = self._free[i_start:i_end]
        over = np.flatnonzero(segment > self.total_procs - procs)
        if over.size:
            # Same failure state as list storage: segments before the
            # first overflow are already released.
            segment[: int(over[0])] += procs
            raise ProfileError(
                f"releasing {procs} procs over [{start}, {end}) exceeds capacity "
                f"{self.total_procs}"
            )
        segment += procs

    def release_many(self, reservations: Iterable[Tuple[float, float, int]]) -> None:
        """Give a whole set of ``(start, end, procs)`` reservations back at once.

        Same result as :meth:`add` per reservation followed by one
        :meth:`compact`, in O(reservations + breakpoints): union the
        breakpoint times, sample the old step function once, apply every
        interval delta with ``add.at`` and a cumulative sum.  A batch that
        :meth:`add` would reject (non-positive procs, an empty interval,
        an overflow) takes the per-reservation path, so it fails with the
        same error and leaves the same state.
        """
        batch = [(s, e, p) for s, e, p in reservations]
        if not batch:
            self.compact()
            return
        starts, ends, procs = (np.array(column) for column in zip(*batch))
        if int(procs.min()) <= 0 or bool((ends <= starts).any()):
            AvailabilityProfile.release_many(self, batch)
            return
        times, free, _ = self._merged(starts, ends, procs)
        if int(free.max()) > self.total_procs:
            AvailabilityProfile.release_many(self, batch)
            return
        self._store(times, free)

    def patch(
        self,
        release: Iterable[Tuple[float, float, int]],
        reserve: Iterable[Tuple[float, float, int]],
    ) -> None:
        """Give ``release`` back and take ``reserve`` as one net change.

        Same result and errors as list storage, in O(intervals +
        breakpoints): the :meth:`release_many` merge with signed deltas,
        checked against ``[0, total_procs]`` before anything is written.
        """
        changes = self._net_changes(release, reserve)
        if not changes:
            self.compact()
            return
        starts, ends, procs = (np.array(column) for column in zip(*changes))
        times, free, level = self._merged(starts, ends, procs)
        bad = np.flatnonzero((free < 0) | (free > self.total_procs))
        if bad.size:
            # Name the elementary interval holding the first bad breakpoint.
            first = int(bad[0])
            bounds = np.unique(np.concatenate([starts, ends[np.isfinite(ends)]]))
            k = int(bounds.searchsorted(times[first], side="right")) - 1
            end = float(bounds[k + 1]) if k + 1 < bounds.shape[0] else math.inf
            raise self._patch_error(
                float(bounds[k]), end, int(level[first]), self.total_procs
            )
        self._store(times, free)

    def _merged(self, starts, ends, procs):
        """``(times, free, level)`` after adding ``procs`` over ``[starts, ends)``.

        Union the breakpoint times, sample the old step function once,
        apply every interval delta with ``add.at`` and a cumulative sum;
        ``level`` is the summed delta at each merged breakpoint.
        """
        n = self._size
        old_times = self._times[:n]
        finite = np.isfinite(ends)
        times = np.unique(np.concatenate([old_times, starts, ends[finite]]))
        # Sample the old step function at every merged breakpoint; times
        # before the old left edge take the capacity value, as
        # _ensure_bounds' left extension does.
        sample = np.searchsorted(old_times, times, side="right") - 1
        free = np.where(sample < 0, self.total_procs, self._free[:n][np.maximum(sample, 0)])
        # Interval deltas: +procs at each start, -procs at each finite end
        # (an infinite reservation never ends), accumulated left to right.
        delta = np.zeros(times.shape[0] + 1, dtype=np.int64)
        np.add.at(delta, np.searchsorted(times, starts, side="left"), procs)
        np.subtract.at(
            delta, np.searchsorted(times, ends[finite], side="left"), procs[finite]
        )
        level = np.cumsum(delta[:-1])
        return times, free + level, level

    def _store(self, times, free) -> None:
        """Replace the breakpoints by ``times``/``free``, then compact."""
        m = times.shape[0]
        self._reserve(m)
        self._times[:m] = times
        self._free[:m] = free
        self._size = m
        self.compact()

    # ------------------------------------------------------------------ #
    # Time and representation                                            #
    # ------------------------------------------------------------------ #
    def advance(self, now: float) -> None:
        """Move the left edge forward to ``now`` (one in-place shift)."""
        times = self._times
        if now <= times[0]:
            return
        n = self._size
        free = self._free
        idx = int(times[:n].searchsorted(now, side="right")) - 1
        if idx > 0:
            n -= idx
            times[:n] = times[idx : idx + n]
            free[:n] = free[idx : idx + n]
            self._size = n
        times[0] = now
        if n > 1 and free[1] == free[0]:
            times[1 : n - 1] = times[2:n]
            free[1 : n - 1] = free[2:n]
            self._size = n - 1

    def compact(self) -> None:
        """Drop redundant breakpoints in one vectorised pass."""
        n = self._size
        if n < 2:
            return
        free = self._free[:n]
        keep = np.empty(n, dtype=bool)
        keep[0] = True
        np.not_equal(free[1:], free[:-1], out=keep[1:])
        m = int(keep.sum())
        if m == n:
            return
        idx = np.flatnonzero(keep)
        self._times[:m] = self._times[:n][idx]
        self._free[:m] = free[idx]
        self._size = m

    # ------------------------------------------------------------------ #
    # Planning queries                                                   #
    # ------------------------------------------------------------------ #
    def earliest_slot(self, procs: int, duration: float, earliest: float) -> float:
        """Earliest ``t >= earliest`` with ``procs`` free during ``[t, t+duration)``.

        One edge pass over the suffix entered at ``earliest``: the
        segments where the blocked state flips alternate between run
        starts and blocking points, read by parity from the first
        segment's state, and one comparison per run decides (see
        :meth:`earliest_slot_many` for why that is exact).
        """
        if procs > self.total_procs:
            return math.inf
        if procs <= 0:
            raise ValueError(f"procs must be positive, got {procs}")
        n = self._size
        times = self._times[:n]
        earliest = float(max(earliest, times[0]))
        idx = int(times.searchsorted(earliest, side="right")) - 1
        suffix_times = times[idx:]
        blocked = self._free[idx:n] < procs
        if duration <= 0:
            # A zero-length reservation fits in the first open segment.
            k = int(blocked.argmin())
            if blocked[k]:
                return math.inf
            return max(earliest, float(suffix_times[k]))
        # bounds = [start0, block0, start1, block1, ...]; a first open run
        # starts at `earliest`, and the last run may never be blocked.
        edges = np.flatnonzero(blocked[1:] != blocked[:-1])
        first_open = not blocked[0]
        runs = (edges.size + first_open + 1) // 2
        start = math.inf
        if runs:
            bounds = np.full(2 * runs, math.inf)
            bounds[first_open : first_open + edges.size] = suffix_times[edges + 1]
            if first_open:
                bounds[0] = earliest
            fits = bounds[0::2] + duration <= bounds[1::2]
            k = int(fits.argmax())
            if fits[k]:
                start = float(bounds[2 * k])
        # The walk would visit more than _LONG_SCAN segments exactly when
        # the breakpoint that many segments in lies before the window's end.
        if n - idx > _LONG_SCAN and start + duration > suffix_times[_LONG_SCAN]:
            if self._score < _SWITCH_AFTER:
                self._score += 1
        else:
            self._score -= 1
            if self._score <= 0:
                self._to_list()
        return start

    def _place(self, procs: int, duration: float, earliest: float) -> float:
        """:meth:`earliest_slot`, then the checked :meth:`subtract` of a finite start."""
        start = self.earliest_slot(procs, duration, earliest)
        if math.isfinite(start):
            self.subtract(start, start + duration, procs)
        return start

    def earliest_slot_many(
        self, procs: Sequence[int], durations: Sequence[float], earliest: float
    ) -> List[float]:
        """Batched :meth:`earliest_slot` for queries sharing one ``earliest``.

        Per processor count, a *run* is a maximal stretch of open segments
        of the suffix entered at ``earliest``: its candidate is its start
        clamped to ``earliest``, its blocking time the start of the next
        blocked segment (``inf`` at the end).  One blocked mask (counts ×
        suffix, a blocked column on either side) flips at every run start
        and blocking segment; one ``flatnonzero`` lists them row by row,
        alternating.  A (counts × runs) table of candidates and blocking
        times (``-inf`` padding) resolves every query by ``cand + d <=
        block`` and ``argmax``; temporaries stay within ``_CELLS``
        elements in the count and the query dimension.

        *Exactness.*  The list walk tests exactly the run candidates, in
        order, with the same float64 sum against the same blocking time.
        Rounding is monotone, so a later segment of a run never fits
        where the run's start did not: the first feasible open segment is
        always a run start.  Each positive-duration query is one search
        for the storage rule (the batch moves the score once);
        zero-length and oversized queries do not count.
        """
        if len(procs) != len(durations):
            raise ValueError("procs and durations must have the same length")
        if not procs:
            return []
        sizes = np.asarray(procs, dtype=np.int64)
        bad = np.flatnonzero(sizes <= 0)
        if bad.size:
            raise ValueError(f"procs must be positive, got {int(sizes[bad[0]])}")
        lengths = np.asarray(durations, dtype=np.float64)
        fitting = sizes <= self.total_procs
        query = np.flatnonzero(fitting & ~(lengths <= 0))
        out = np.full(sizes.shape[0], math.inf)
        if query.size:
            n = self._size
            times = self._times[:n]
            clamped = max(earliest, float(times[0]))
            idx = int(times.searchsorted(clamped, side="right")) - 1
            suffix_times = times[idx:]
            searched = lengths[query]
            starts = self._resolve(
                suffix_times, self._free[idx:n], clamped, sizes[query], searched
            )
            out[query] = starts
            # A window ending past this breakpoint is a long search (see
            # earliest_slot); an infinite start is one whenever it exists.
            longs = 0
            if suffix_times.shape[0] > _LONG_SCAN:
                longs = int(np.count_nonzero(starts + searched > suffix_times[_LONG_SCAN]))
            self._score = min(self._score + 2 * longs - query.size, _SWITCH_AFTER)
            if self._score <= 0:
                self._to_list()
        result = out.tolist()
        for position in np.flatnonzero(fitting & (lengths <= 0)).tolist():
            result[position] = self.earliest_slot(
                int(sizes[position]), durations[position], earliest
            )
        return result

    @staticmethod
    def _resolve(times, free, clamped, sizes, lengths):
        """Earliest starts on the suffix entered at ``clamped`` (see
        :meth:`earliest_slot_many`); sizes fit, lengths are positive."""
        # Sorted by size, the queries of one count (one table row) are contiguous.
        order = np.argsort(sizes, kind="stable")
        ordered = sizes[order]
        new = np.append(True, ordered[1:] != ordered[:-1])
        counts = ordered[new]
        rows = np.cumsum(new) - 1
        first_query = np.append(np.flatnonzero(new), ordered.size)
        flips_per_row = times.shape[0] + 1
        block_times = np.append(times, math.inf)
        starts = np.full(sizes.shape[0], math.inf)
        step = max(1, _CELLS // (flips_per_row + 1))
        for first in range(0, counts.size, step):
            last = min(first + step, counts.size)
            height = last - first
            # Blocked mask with a blocked column on either side: each row's
            # flips pair up as (run start, segment blocking the run).
            blocked = np.ones((height, flips_per_row + 1), dtype=bool)
            np.less(free, counts[first:last, None], out=blocked[:, 1:-1])
            flips = np.flatnonzero(blocked[:, 1:] != blocked[:, :-1])
            if not flips.size:
                continue  # no count of this chunk ever fits: all inf
            run_rows = flips[0::2] // flips_per_row
            row_base = run_rows * flips_per_row
            per_row = np.bincount(run_rows, minlength=height)
            width = int(per_row.max())
            # Flat (row, rank within the row) slot of every run in the table.
            shift = np.arange(height) * width - (np.cumsum(per_row) - per_row)
            slot = np.arange(run_rows.size) + shift[run_rows]
            cand = np.zeros(height * width)
            block = np.full(height * width, -math.inf)
            cand[slot] = np.maximum(clamped, times[flips[0::2] - row_base])
            block[slot] = block_times[flips[1::2] - row_base]
            cand = cand.reshape(height, width)
            block = block.reshape(height, width)
            span = max(1, _CELLS // width)
            for lo in range(first_query[first], first_query[last], span):
                hi = min(lo + span, first_query[last])
                row = rows[lo:hi] - first
                picked = order[lo:hi]
                row_cand = cand[row]
                fits = row_cand + lengths[picked, None] <= block[row]
                hit = np.arange(hi - lo), fits.argmax(axis=1)
                starts[picked] = np.where(fits[hit], row_cand[hit], math.inf)
        return starts

    # ------------------------------------------------------------------ #
    # Construction helpers                                               #
    # ------------------------------------------------------------------ #
    def copy(self) -> "AvailabilityProfile":
        """Independent copy in the same storage (used for what-if queries)."""
        clone = object.__new__(type(self))
        clone.total_procs = self.total_procs
        n = self._size
        clone._times = self._times[:n].copy()
        clone._free = self._free[:n].copy()
        clone._size = n
        clone._score = self._score
        return clone
