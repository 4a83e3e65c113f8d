"""The list-only reference profile, and production profiles pinned to one storage.

Production runs one :class:`~repro.batch.profile.AvailabilityProfile`
that moves its breakpoints between Python lists and NumPy arrays on its
own, from the length of its searches.  The differential suites need
three things it does not offer:

* :class:`ListProfile` — the reference: the historical list engine with
  no storage switch, against which both storages and every switch
  between them are held to exact equality;
* :class:`ListMode` / :class:`ArrayMode` (:data:`MODES`) — the production
  profile pinned to list or array storage, so a differential world runs
  every operation through one storage whatever its searches look like;
* helpers that pin the profiles a cluster's ``availability`` builds,
  and so every residual planned on them, to one mode — on a cluster, or
  on a *fresh* server or simulation (the storages are float-identical,
  so the pin must never change a result) — plus :func:`mode_of` to read
  which storage a profile is in.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.batch.cluster import ClusterState
from repro.batch.profile import _SWITCH_AFTER, AvailabilityProfile, ProfileError, _ArrayMode
from repro.batch.server import BatchServer
from repro.grid.simulation import GridSimulation
from repro.sim.kernel import SimulationKernel


class ListProfile:
    """Step function of free processors over time, on two Python lists.

    The list engine every production storage must match: same
    constructor, methods, results, error messages and failure states.
    """

    __slots__ = ("total_procs", "_times", "_free")

    def __init__(self, total_procs: int, start_time: float = 0.0) -> None:
        if total_procs < 0:
            raise ValueError(f"total_procs must be >= 0, got {total_procs}")
        self.total_procs = int(total_procs)
        self._times: list[float] = [float(start_time)]
        self._free: list[int] = [int(total_procs)]

    @property
    def start_time(self) -> float:
        return self._times[0]

    def breakpoints(self) -> Iterator[Tuple[float, int]]:
        return zip(self._times, self._free)

    def free_at(self, time: float) -> int:
        if time <= self._times[0]:
            return self._free[0]
        return self._free[bisect_right(self._times, time) - 1]

    def min_free_over(self, start: float, end: float) -> int:
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

    def _ensure_breakpoint(self, time: float) -> int:
        idx = bisect_right(self._times, time) - 1
        if idx < 0:
            self._times.insert(0, time)
            self._free.insert(0, self.total_procs)
            return 0
        if self._times[idx] == time:
            return idx
        self._times.insert(idx + 1, time)
        self._free.insert(idx + 1, self._free[idx])
        return idx + 1

    def subtract(self, start: float, end: float, procs: int) -> None:
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
        for start, end, procs in reservations:
            self.add(start, end, procs)
        self.compact()

    def patch(
        self,
        release: Iterable[Tuple[float, float, int]],
        reserve: Iterable[Tuple[float, float, int]],
    ) -> None:
        """The net change, summed over every interval covering each elementary one."""
        release, reserve = list(release), list(reserve)
        for intervals in (release, reserve):
            for _, _, procs in intervals:
                if procs <= 0:
                    raise ValueError(f"procs must be positive, got {procs}")
        left = self._times[0]
        changes = [
            (max(start, left), end, sign * procs)
            for sign, intervals in ((1, release), (-1, reserve))
            for start, end, procs in intervals
            if end > max(start, left)
        ]
        bounds = sorted({t for start, end, _ in changes for t in (start, end) if t != math.inf})
        clone = self.copy()
        for k, start in enumerate(bounds):
            end = bounds[k + 1] if k + 1 < len(bounds) else math.inf
            level = sum(p for s, e, p in changes if s <= start and end <= e)
            if not level:
                continue
            i_start = clone._ensure_breakpoint(start)
            i_end = clone._ensure_breakpoint(end) if math.isfinite(end) else len(clone._times)
            for i in range(i_start, i_end):
                clone._free[i] += level
                if not 0 <= clone._free[i] <= self.total_procs:
                    raise ProfileError(
                        f"patch over [{start}, {end}) by {level:+d} leaves the free count "
                        f"outside [0, {self.total_procs}]"
                    )
        clone.compact()
        self._times = clone._times
        self._free = clone._free

    def advance(self, now: float) -> None:
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
        self._times = keep_times
        self._free = keep_free

    def earliest_slot(self, procs: int, duration: float, earliest: float) -> float:
        if procs > self.total_procs:
            return math.inf
        if procs <= 0:
            raise ValueError(f"procs must be positive, got {procs}")
        times = self._times
        free = self._free
        count = len(times)
        earliest = max(earliest, times[0])
        idx = bisect_right(times, earliest) - 1
        if duration <= 0:
            while idx < count:
                if free[idx] >= procs:
                    return max(earliest, times[idx])
                idx += 1
            return math.inf
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

    def earliest_slot_many(
        self, procs: Sequence[int], durations: Sequence[float], earliest: float
    ) -> List[float]:
        if len(procs) != len(durations):
            raise ValueError("procs and durations must have the same length")
        return [self.earliest_slot(p, d, earliest) for p, d in zip(procs, durations)]

    def _place(self, procs: int, duration: float, earliest: float) -> float:
        """The planner's placement, by definition: search, then checked subtract."""
        start = self.earliest_slot(procs, duration, earliest)
        if math.isfinite(start):
            self.subtract(start, start + duration, procs)
        return start

    def copy(self) -> "ListProfile":
        clone = ListProfile.__new__(ListProfile)
        clone.total_procs = self.total_procs
        clone._times = list(self._times)
        clone._free = list(self._free)
        return clone


class ListMode(AvailabilityProfile):
    """The production profile held in list storage (its switch is disabled)."""

    __slots__ = ()

    def _to_array(self) -> None:
        self._score = 0


class ArrayMode(_ArrayMode):
    """The production profile held in array storage (its switch is disabled)."""

    __slots__ = ()

    def __init__(self, total_procs: int, start_time: float = 0.0) -> None:
        super().__init__(total_procs, start_time)
        AvailabilityProfile._to_array(self)
        self.__class__ = ArrayMode

    def _to_list(self) -> None:
        self._score = _SWITCH_AFTER


#: Pinned production profile of each storage name.
MODES = {"array": ArrayMode, "list": ListMode}
#: Every profile a cluster can run on: the pinned modes, the list
#: reference, and the production profile with its storage switch.
PROFILES = {**MODES, "reference": ListProfile, "adaptive": AvailabilityProfile}


def mode_of(profile: AvailabilityProfile) -> str:
    """Storage the profile currently keeps its breakpoints in."""
    return "array" if isinstance(profile, _ArrayMode) else "list"


def make_profile(mode: str, total_procs: int, start_time: float = 0.0):
    """An empty profile of ``mode`` (a key of :data:`PROFILES`)."""
    return PROFILES[mode](total_procs, start_time)


def pin(profile: AvailabilityProfile, mode: str):
    """``profile`` (list storage, as a cluster builds it) moved to ``mode``."""
    if mode == "list":
        profile.__class__ = ListMode
    elif mode == "array":
        AvailabilityProfile._to_array(profile)
        profile.__class__ = ArrayMode
    elif mode == "reference":
        reference = ListProfile(profile.total_procs)
        reference._times = profile._times
        reference._free = profile._free
        return reference
    return profile


def use_mode(cluster: ClusterState, mode: str) -> ClusterState:
    """Make every profile ``cluster.availability`` builds a ``mode`` profile.

    The cluster's own method builds the profile; the pin only moves it to
    ``mode``'s storage.  Copies of it — every residual a planner searches
    — stay pinned too.
    """
    cluster.availability = lambda now: pin(ClusterState.availability(cluster, now), mode)
    return cluster


def use_server_mode(server: BatchServer, mode: str) -> BatchServer:
    """Pin a fresh ``server`` (nothing queued) onto ``mode``."""
    if server.queue_length:
        raise ValueError("pin the profile storage before any job is queued")
    now = server.kernel.now
    use_mode(server.cluster, mode)
    server._planner.plan.reset(server.cluster.availability(now), now)
    return server


def cluster_on(mode: str, name: str, total_procs: int, speed: float = 1.0) -> ClusterState:
    """A :class:`ClusterState` whose profiles are ``mode`` profiles."""
    return use_mode(ClusterState(name, total_procs, speed), mode)


def server_on(mode: str, kernel: SimulationKernel, *args, **kwargs) -> BatchServer:
    """A :class:`BatchServer` (same arguments) whose profiles are pinned to ``mode``."""
    return use_server_mode(BatchServer(kernel, *args, **kwargs), mode)


def simulation_on(mode: str, simulation: GridSimulation) -> GridSimulation:
    """Pin every server of a fresh ``simulation`` onto ``mode``."""
    for server in simulation.servers:
        use_server_mode(server, mode)
    return simulation


def reserve(profile, procs: int, duration: float, earliest: float) -> float:
    """Subtract a reservation at the earliest slot; returns its start.

    An unplaceable request (more processors than the profile owns)
    returns ``math.inf`` and leaves the profile untouched.
    """
    start = profile.earliest_slot(procs, duration, earliest)
    if math.isfinite(start) and duration > 0:
        profile.subtract(start, start + duration, procs)
    return start
