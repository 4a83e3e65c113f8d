"""Columnar availability profiles.

:class:`ArrayProfile` is the NumPy-backed twin of the list-based
:class:`~repro.batch.profile.AvailabilityProfile`: the same step function
``time -> number of free processors``, stored as two parallel arrays
(``float64`` breakpoint times, ``int64`` free counts) with
capacity-doubling growth, so the planner's hot operations run as array
primitives instead of Python loops:

* :meth:`ArrayProfile.earliest_slot` finds the first feasible window via
  array comparisons plus a blocking-segment skip (open-run starts and the
  next blocking time per run come from masks and ``searchsorted``, not a
  Python inner loop), with a scalar fast path for short suffixes so FCFS
  tail placements keep their O(segments visited) cost;
* :meth:`ArrayProfile.earliest_slot_many` plans a whole batch of what-if
  queries sharing one ``earliest`` bound (the estimate storms of the grid
  layer), building the open-run structure once per distinct processor
  count;
* :meth:`ArrayProfile.release_many` gives a set of reservations back in
  one pass — union the breakpoints, sample the old step function, apply
  the interval deltas with a cumulative sum — which turns the planner's
  suffix restoration from O(suffix x breakpoints) into O(suffix +
  breakpoints).

Float identity with the list engine is a hard requirement (the paper
tables must not move by a bit): free counts are integers, breakpoint
times are only ever *copied* from inputs, compared, or passed through
``max`` — never recomputed — and every feasibility comparison uses the
same IEEE operations in the same order as the list implementation.  The
randomized differential suite (``tests/test_array_profile.py``) asserts
exact equality of breakpoints, planned starts and estimates between the
two engines; the list profile remains the oracle.

Which engine a cluster runs is decided by its scheduling policy, in
:class:`~repro.batch.cluster.ClusterState`.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.batch.profile import ProfileError

#: Initial breakpoint capacity of a fresh profile (doubles on demand).
_INITIAL_CAPACITY = 16

#: Suffix lengths up to this run :meth:`ArrayProfile.earliest_slot` as a
#: plain scalar scan: FCFS placements enter the profile near its tail, and
#: a handful of Python-level segment visits beats the fixed overhead of
#: the vectorised search on short suffixes.
_SCALAR_SEGMENTS = 48


class ArrayProfile:
    """Step function of free processors over time, stored columnar.

    Drop-in behavioural twin of :class:`AvailabilityProfile`: same
    constructor, same methods, same error messages, float-identical
    results; the bulk operations documented in the module docstring are
    vectorised here.  ``_times``/``_free`` are capacity-doubling arrays
    whose first ``_size`` entries are live.
    """

    __slots__ = ("total_procs", "_times", "_free", "_size")

    def __init__(self, total_procs: int, start_time: float = 0.0) -> None:
        if total_procs < 0:
            raise ValueError(f"total_procs must be >= 0, got {total_procs}")
        self.total_procs = int(total_procs)
        self._times = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._free = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._times[0] = float(start_time)
        self._free[0] = int(total_procs)
        self._size = 1

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
        # ``end`` falls inside it (the list engine seeds its scan there).
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

    # ------------------------------------------------------------------ #
    # Mutation                                                           #
    # ------------------------------------------------------------------ #
    def _ensure_breakpoint(self, time: float) -> int:
        """Insert a breakpoint at ``time`` (if missing) and return its index."""
        idx = int(self._times[: self._size].searchsorted(time, side="right")) - 1
        if idx < 0:
            # Before the profile start: extend the profile to the left with
            # the capacity value so reservations starting earlier are valid.
            self._insert(0, time, self.total_procs)
            return 0
        if self._times[idx] == time:
            return idx
        self._insert(idx + 1, time, int(self._free[idx]))
        return idx + 1

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
            # Mirror the list engine bit-for-bit, including its failure
            # state: segments before the first overflow are already
            # released when the error surfaces.
            segment[: int(over[0])] += procs
            raise ProfileError(
                f"releasing {procs} procs over [{start}, {end}) exceeds capacity "
                f"{self.total_procs}"
            )
        segment += procs

    def release_many(self, reservations: Iterable[Tuple[float, float, int]]) -> None:
        """Give a whole set of ``(start, end, procs)`` reservations back at once.

        Equivalent to :meth:`add` per reservation followed by one
        :meth:`compact` — the canonical compacted representation is
        identical, and the free counts are exact integer arithmetic either
        way — but runs in O(reservations + breakpoints): union the
        breakpoint times, sample the old step function once, apply every
        interval delta with ``add.at`` and a cumulative sum.  This is the
        engine behind the planner's O(suffix) restoration.
        """
        batch = [(s, e, p) for s, e, p in reservations]
        if not batch:
            self.compact()
            return
        n = self._size
        old_times = self._times[:n]
        old_free = self._free[:n]
        starts = np.array([item[0] for item in batch], dtype=np.float64)
        ends = np.array([item[1] for item in batch], dtype=np.float64)
        procs = np.array([item[2] for item in batch], dtype=np.int64)
        if int(procs.min()) <= 0:
            raise ValueError(f"procs must be positive, got {int(procs.min())}")
        finite = np.isfinite(ends)
        times = np.unique(np.concatenate([old_times, starts, ends[finite]]))
        # Sample the old step function at every merged breakpoint; times
        # before the old left edge take the capacity value, mirroring
        # _ensure_breakpoint's left extension.
        sample = np.searchsorted(old_times, times, side="right") - 1
        free = np.where(sample < 0, self.total_procs, old_free[np.maximum(sample, 0)])
        # Interval deltas: +procs at each start, -procs at each finite end
        # (an infinite reservation never ends), accumulated left to right.
        delta = np.zeros(times.shape[0] + 1, dtype=np.int64)
        np.add.at(delta, np.searchsorted(times, starts, side="left"), procs)
        np.subtract.at(
            delta, np.searchsorted(times, ends[finite], side="left"), procs[finite]
        )
        free = free + np.cumsum(delta[:-1])
        if int(free.max()) > self.total_procs:
            raise ProfileError(
                f"releasing {len(batch)} reservations exceeds capacity "
                f"{self.total_procs}"
            )
        m = times.shape[0]
        self._reserve(m)
        self._times[:m] = times
        self._free[:m] = free
        self._size = m
        self.compact()

    # ------------------------------------------------------------------ #
    # Live-profile maintenance                                           #
    # ------------------------------------------------------------------ #
    def advance(self, now: float) -> None:
        """Move the left edge of the profile forward to ``now``.

        Breakpoints strictly in the past are dropped (one in-place shift),
        the first remaining segment is clamped to start at ``now``, and a
        first segment made redundant by the clamp is merged — exactly the
        list engine's behaviour, including its single-merge policy.
        """
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

    def release(self, start: float, end: float, procs: int) -> None:
        """Give ``procs`` processors back over ``[start, end)`` on a live profile.

        Same clamping and coalescing contract as the list engine: the
        interval is clamped to the current left edge, an empty clamped
        interval is a no-op, and redundant breakpoints are compacted away.
        """
        if procs <= 0:
            raise ValueError(f"procs must be positive, got {procs}")
        start = max(start, float(self._times[0]))
        if end <= start:
            return
        self.add(start, end, procs)
        self.compact()

    def set_capacity(self, new_total: int, now: float) -> None:
        """Change the cluster capacity to ``new_total`` from ``now`` on.

        See :meth:`AvailabilityProfile.set_capacity`; shrinking requires
        the delta to be free everywhere from ``now`` on.
        """
        if new_total < 0:
            raise ValueError(f"new_total must be >= 0, got {new_total}")
        self.advance(now)
        delta = new_total - self.total_procs
        if delta == 0:
            return
        start = max(now, float(self._times[0]))
        if delta > 0:
            self.total_procs = int(new_total)
            self.add(start, math.inf, delta)
        else:
            self.subtract(start, math.inf, -delta)
            self.total_procs = int(new_total)
        self.compact()

    def compact(self) -> None:
        """Drop redundant breakpoints (equal free count on both sides).

        One vectorised pass: keep the first breakpoint and every value
        change, compress in place.  The step function is unchanged.
        """
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

        Semantics and float behaviour of
        :meth:`AvailabilityProfile.earliest_slot`.  Long suffixes run the
        vectorised search (open-run starts from a blocked mask, next
        blocking time per run via ``searchsorted``, one comparison per
        candidate); short suffixes — the FCFS tail case — fall back to the
        scalar segment walk.
        """
        if procs > self.total_procs:
            return math.inf
        if procs <= 0:
            raise ValueError(f"procs must be positive, got {procs}")
        n = self._size
        times = self._times[:n]
        free = self._free[:n]
        earliest = max(earliest, float(times[0]))
        idx = int(times.searchsorted(earliest, side="right")) - 1
        if duration <= 0:
            # A zero-length reservation only needs an instant with enough
            # free processors: the first segment at/after `earliest` that
            # fits.
            open_mask = free[idx:] >= procs
            k = int(open_mask.argmax())
            if not open_mask[k]:
                return math.inf
            return max(earliest, float(times[idx + k]))
        if n - idx <= _SCALAR_SEGMENTS:
            return self._earliest_slot_scalar(
                times[idx:].tolist(), free[idx:].tolist(), procs, duration, earliest
            )
        candidates, block_times = self._open_runs(times[idx:], free[idx:], procs, earliest)
        if candidates is None:
            return math.inf
        feasible = candidates + duration <= block_times
        k = int(feasible.argmax())
        if feasible[k]:
            return float(candidates[k])
        return math.inf

    @staticmethod
    def _earliest_slot_scalar(
        times: List[float], free: List[int], procs: int, duration: float, earliest: float
    ) -> float:
        """Scalar segment walk over a (short) suffix, list-engine style."""
        count = len(times)
        idx = 0
        candidate = earliest
        while True:
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
                    candidate = seg_end
                    idx = scan + 1
                    break
                scan += 1
            if ok:
                return candidate
            if idx >= count:
                return math.inf

    @staticmethod
    def _open_runs(times, free, procs, earliest):
        """Candidate starts and their next blocking times for one ``procs``.

        ``times``/``free`` are the suffix views entered at ``earliest``.
        A *candidate* is where the scalar search would test a window: the
        clamped start of each maximal run of segments with enough free
        processors.  The window at a candidate succeeds exactly when the
        next blocking segment starts at or after its end, so the pair of
        arrays reduces every feasibility test to one comparison.
        Returns ``(None, None)`` when no open run exists.
        """
        blocked = free < procs
        open_starts = np.flatnonzero(
            ~blocked & np.concatenate(([True], blocked[:-1]))
        )
        if open_starts.size == 0:
            return None, None
        candidates = np.maximum(earliest, times[open_starts])
        blocked_idx = np.flatnonzero(blocked)
        if blocked_idx.size:
            pos = np.searchsorted(blocked_idx, open_starts)
            safe = np.minimum(pos, blocked_idx.size - 1)
            block_times = np.where(
                pos < blocked_idx.size, times[blocked_idx[safe]], math.inf
            )
        else:
            block_times = np.full(open_starts.shape, math.inf)
        return candidates, block_times

    def earliest_slot_many(
        self, procs: Sequence[int], durations: Sequence[float], earliest: float
    ) -> List[float]:
        """Batched :meth:`earliest_slot` for queries sharing one ``earliest``.

        The open-run structure is built once per distinct processor count
        (ECT storms ask about many jobs over few distinct sizes), after
        which each query is one vectorised feasibility comparison over its
        candidate list.  Results are float-identical to per-query
        :meth:`earliest_slot` calls.
        """
        if len(procs) != len(durations):
            raise ValueError("procs and durations must have the same length")
        out: List[float] = [math.inf] * len(procs)
        if not procs:
            return out
        n = self._size
        times = self._times[:n]
        free = self._free[:n]
        total = self.total_procs
        clamped = max(earliest, float(times[0]))
        idx = int(np.searchsorted(times, clamped, side="right")) - 1
        suffix_times = times[idx:]
        suffix_free = free[idx:]
        by_procs: dict = {}
        for position, p in enumerate(procs):
            by_procs.setdefault(int(p), []).append(position)
        for p, positions in by_procs.items():
            if p <= 0:
                raise ValueError(f"procs must be positive, got {p}")
            if p > total:
                continue  # stays inf
            structure = None
            for position in positions:
                duration = durations[position]
                if duration <= 0:
                    out[position] = self.earliest_slot(p, duration, earliest)
                    continue
                if structure is None:
                    structure = self._open_runs(suffix_times, suffix_free, p, clamped)
                candidates, block_times = structure
                if candidates is None:
                    continue  # stays inf
                feasible = candidates + duration <= block_times
                k = int(feasible.argmax())
                if feasible[k]:
                    out[position] = float(candidates[k])
        return out

    # ------------------------------------------------------------------ #
    # Construction helpers                                               #
    # ------------------------------------------------------------------ #
    def copy(self) -> "ArrayProfile":
        """Independent copy (used for what-if estimation queries)."""
        clone = ArrayProfile.__new__(ArrayProfile)
        clone.total_procs = self.total_procs
        n = self._size
        clone._times = self._times[:n].copy()
        clone._free = self._free[:n].copy()
        clone._size = n
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        n = self._size
        points = ", ".join(
            f"({t:.0f}:{f})" for t, f in zip(self._times[:n], self._free[:n])
        )
        return f"ArrayProfile(cap={self.total_procs}, [{points}])"

