"""The event queue of the simulation kernel.

The kernel is written against a tiny queue interface — ``push``, ``pop``,
``peek``, ``compact``, ``len()`` — implemented by :class:`CalendarQueue`,
Brown's calendar queue (CACM 1988), the classic O(1)-amortised priority
queue for discrete-event simulation.  Events are hashed into time buckets
of a fixed ``width``; dequeue scans forward from the current bucket
("day") and wraps around the bucket array (a "year") — under the
uniform-ish event populations of trace replay the next event is almost
always in the current or next bucket, so both operations touch O(1)
events regardless of queue size.  The bucket count and width adapt to the
live population (`_rebuild`) so occupancy stays bounded under growth,
drain and cancellation storms.

Events are ordered by the ``(time, priority, sequence)`` total order of
:class:`~repro.sim.events.Event`, so the firing sequence is exactly the
one a binary heap would produce (``tests/test_calendar_queue.py`` holds
the queue to a heap oracle on randomized workloads).

Cancellation is lazy: cancelled events remain in the structure and are
skipped by the kernel when popped; ``compact`` drops them in one O(n)
pass when the kernel decides they are worth collecting.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim.events import Event

#: Bucket-count floor of a calendar queue (arrays below this never shrink).
MIN_BUCKETS = 8

#: Fallback bucket width (seconds) used before the first adaptive rebuild
#: and whenever the live population spans a single instant.
DEFAULT_WIDTH = 1.0


class CalendarQueue:
    """Bucketed calendar queue (O(1) amortised push/pop).

    Mechanics
    ---------
    An event at time *t* lives in bucket ``int(t / width) % nbuckets``,
    stored as a ``(time, priority, sequence, event)`` tuple so bucket
    sorts compare entirely in C (tuple comparison; the unique sequence
    always resolves a tie before the event object is reached) instead of
    through Python-level ``Event.__lt__`` frames.  Enqueue is a plain
    ``append`` plus a per-bucket *dirty* flag; a bucket is only sorted
    (*descending*, so the minimum sits at the end and removal is an O(1)
    ``list.pop()``) when the dequeue scan first reads it, so a push costs
    zero comparisons and a burst of pushes into one bucket is sorted once
    instead of insertion-sorted piecewise.  Dequeue scans buckets from the current
    *slot* (the absolute, un-wrapped bucket number ``int(t / width)``)
    and pops the bucket minimum while it falls inside the slot's day;
    after a fruitless full wrap (a whole empty "year") it falls back to a
    direct minimum search and re-anchors the scan there, so sparse
    populations cannot loop.

    Sizing
    ------
    The bucket array doubles (via :meth:`_rebuild`) when occupancy exceeds
    two events per bucket; it shrinks only when a dequeue actually scans a
    whole year without a hit on a mostly-empty array — a monotone drain
    never wraps, so it pays zero resize work, while a population that
    outlived its geometry is rebuilt the moment the mismatch bites.  Every
    rebuild re-derives the bucket width from the live population's time
    span (~3 average inter-event gaps, Brown's recommendation) so one
    "day" holds O(1) events whatever the event-time density.  Rebuilds are
    O(n) and happen after Ω(n) queue operations, keeping both operations
    O(1) amortised.
    """

    __slots__ = (
        "_buckets", "_dirty", "_nbuckets", "_width", "_size", "_cur_slot", "rebuilds",
    )

    def __init__(self) -> None:
        self._nbuckets = MIN_BUCKETS
        self._width = DEFAULT_WIDTH
        # Bucket entries are (time, priority, sequence, event) tuples.
        self._buckets: List[List[tuple]] = [[] for _ in range(MIN_BUCKETS)]
        self._dirty = bytearray(MIN_BUCKETS)
        self._size = 0
        self._cur_slot = 0
        #: Number of adaptive rebuilds (resizes + compactions) performed.
        self.rebuilds = 0

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------ #
    # Interface                                                          #
    # ------------------------------------------------------------------ #
    def push(self, event: Event) -> None:
        time = event.time
        slot = int(time / self._width)
        index = slot % self._nbuckets
        self._buckets[index].append((time, event.priority, event.sequence, event))
        self._dirty[index] = 1
        if slot < self._cur_slot:
            # An event landed behind the scan position (same-time
            # re-schedule after the scan advanced past its day): pull the
            # scan back so the forward sweep cannot miss it.
            self._cur_slot = slot
        self._size += 1
        if self._size > 2 * self._nbuckets:
            self._rebuild()

    def pop(self) -> Optional[Event]:
        """Remove and return the minimum entry (cancelled or not).

        This is the kernel's hottest call at drain time, so the common
        case — the minimum sits within one year of the scan position — is
        inlined rather than delegated to :meth:`_scan` (one Python frame
        per event is measurable at 10⁶ events).  The admission test must
        stay the exact placement expression ``int(time / width)``; see
        :meth:`_scan` for why.  ``nbuckets`` is always a power of two, so
        the wrap is a mask instead of a modulo.
        """
        size = self._size
        if size == 0:
            return None
        buckets = self._buckets
        dirty = self._dirty
        nbuckets = self._nbuckets
        mask = nbuckets - 1
        width = self._width
        slot = self._cur_slot
        for _ in range(nbuckets):
            index = slot & mask
            bucket = buckets[index]
            if bucket:
                if dirty[index]:
                    bucket.sort(reverse=True)
                    dirty[index] = 0
                head = bucket[-1]
                if int(head[0] / width) == slot:
                    self._cur_slot = slot
                    bucket.pop()
                    self._size = size - 1
                    return head[3]
            slot += 1
        # Sparse population: fall through to the direct-search path.
        return self._scan(remove=True)

    def peek(self) -> Optional[Event]:
        """The minimum entry (cancelled or not) without removing it."""
        return self._scan(remove=False)

    def compact(self) -> int:
        """Drop cancelled entries in one O(n) pass; returns the count.

        The surviving events are redistributed through :meth:`_rebuild`,
        which also re-derives the bucket count and width for the (possibly
        much smaller) live population.
        """
        removed = 0
        for bucket in self._buckets:
            for entry in bucket:
                event = entry[3]
                if event.cancelled:
                    event.popped = True
                    removed += 1
        if removed:
            self._rebuild(drop_cancelled=True)
        return removed

    # ------------------------------------------------------------------ #
    # Internals                                                          #
    # ------------------------------------------------------------------ #
    def _scan(self, remove: bool) -> Optional[Event]:
        """Find (and optionally remove) the minimum event.

        Invariant: no stored event has an absolute slot below
        ``_cur_slot`` (pushes pull the scan position back, pops re-anchor
        it at the minimum they return), so a forward sweep from
        ``_cur_slot`` meets the minimum first.  The admission test
        recomputes the head's slot with the *exact placement expression*
        ``int(time / width)`` — comparing the time against a multiplied
        window top ``(slot + 1) * width`` is not equivalent in floating
        point (a quotient that rounds just below an integer puts the
        event one slot behind the window top, and the scan would walk
        past it), and the slot comparison makes mis-ordering impossible:
        ``int(t / w)`` is monotone in ``t``, so admitting by ascending
        slot admits by ascending time, and same-slot events share one
        bucket kept sorted (descending; minimum last) by the full total
        order.
        """
        if self._size == 0:
            return None
        buckets = self._buckets
        dirty = self._dirty
        nbuckets = self._nbuckets
        width = self._width
        mask = nbuckets - 1
        slot = self._cur_slot
        for _ in range(nbuckets):
            index = slot & mask
            bucket = buckets[index]
            if bucket:
                if dirty[index]:
                    bucket.sort(reverse=True)
                    dirty[index] = 0
                head = bucket[-1]
                if int(head[0] / width) == slot:
                    self._cur_slot = slot
                    if remove:
                        bucket.pop()
                        self._size -= 1
                    return head[3]
            slot += 1
        # A whole year scanned without a hit: the population is sparse
        # relative to the bucket span.  If the array is also mostly empty
        # the geometry has outlived its population — re-derive it (the
        # rebuild re-anchors the scan at the minimum's slot, so the retry
        # hits in its first probe).  Shrinking only here, instead of on a
        # per-pop occupancy test, keeps the pop fast path free of resize
        # checks and lets a monotone drain pay zero rebuild work.
        if nbuckets > MIN_BUCKETS and 4 * self._size < nbuckets:
            self._rebuild()
            return self._scan(remove)
        # Direct search over the bucket minima (a descending bucket's
        # minimum is its last element), then re-anchor at the winner.
        best: Optional[tuple] = None
        best_bucket: Optional[List[tuple]] = None
        for index in range(nbuckets):
            bucket = buckets[index]
            if bucket:
                if dirty[index]:
                    bucket.sort(reverse=True)
                    dirty[index] = 0
                head = bucket[-1]
                if best is None or head < best:
                    best = head
                    best_bucket = bucket
        assert best is not None and best_bucket is not None  # _size > 0
        self._cur_slot = int(best[0] / width)
        if remove:
            best_bucket.pop()
            self._size -= 1
        return best[3]

    def _rebuild(self, drop_cancelled: bool = False) -> None:
        """Redistribute events over a freshly sized bucket array.

        The new bucket count is the smallest power of two holding the
        population at occupancy ≤ 1; the new width spans roughly three
        average inter-event gaps, clamped so equal-time populations (zero
        span) fall back to the previous width.
        """
        entries: List[tuple] = []
        tmin = tmax = None
        for bucket in self._buckets:
            for entry in bucket:
                if drop_cancelled and entry[3].cancelled:
                    continue
                entries.append(entry)
                t = entry[0]
                if tmin is None:
                    tmin = tmax = t
                elif t < tmin:
                    tmin = t
                elif t > tmax:
                    tmax = t
        size = len(entries)
        nbuckets = max(MIN_BUCKETS, 1 << max(size, 1).bit_length())
        if size and tmax > tmin:
            width = 3.0 * (tmax - tmin) / size
        else:
            width = self._width
        self._nbuckets = nbuckets
        self._width = width
        self._buckets = buckets = [[] for _ in range(nbuckets)]
        for entry in entries:
            buckets[int(entry[0] / width) % nbuckets].append(entry)
        # No sort pass: every bucket starts dirty and is sorted lazily the
        # first time the dequeue scan reads it.
        self._dirty = bytearray(b"\x01" * nbuckets)
        self._size = size
        self._cur_slot = int(tmin / width) if size else 0
        self.rebuilds += 1

