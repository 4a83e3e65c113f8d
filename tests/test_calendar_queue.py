"""Calendar queue: mechanics and the heap differential oracle.

The calendar queue must be *indistinguishable* from the binary heap at
the event level: same firing order (down to `(time, priority, sequence)`
ties), same final clock, same counters — whatever mix of schedules,
cancels and requeues the model throws at it.  The randomized oracle below
drives both kernels through identical scripts, including same-timestamp
priority ties and compaction-triggering cancel storms, and compares the
full firing logs.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.events import Event, EventType
from repro.sim.kernel import SimulationKernel
from repro.sim.queues import MIN_BUCKETS, CalendarQueue

from oracles.queues import QUEUES, HeapEventQueue, use_heap


def make_event(time, priority=0, sequence=0):
    return Event(time=time, priority=priority, sequence=sequence, callback=lambda: None)


class TestCalendarQueueMechanics:
    def test_push_pop_sorted(self):
        queue = CalendarQueue()
        times = [5.0, 1.0, 9.0, 3.0, 7.0, 0.5, 2.5]
        for seq, t in enumerate(times):
            queue.push(make_event(t, sequence=seq))
        popped = [queue.pop().time for _ in range(len(times))]
        assert popped == sorted(times)
        assert queue.pop() is None
        assert len(queue) == 0

    def test_priority_and_sequence_ties(self):
        queue = CalendarQueue()
        events = [
            make_event(5.0, priority=3, sequence=0),
            make_event(5.0, priority=0, sequence=1),
            make_event(5.0, priority=0, sequence=2),
            make_event(5.0, priority=1, sequence=3),
        ]
        for event in events:
            queue.push(event)
        order = [queue.pop() for _ in range(4)]
        assert [(e.priority, e.sequence) for e in order] == [(0, 1), (0, 2), (1, 3), (3, 0)]

    def test_peek_does_not_remove(self):
        queue = CalendarQueue()
        queue.push(make_event(2.0))
        queue.push(make_event(1.0, sequence=1))
        assert queue.peek().time == 1.0
        assert queue.peek().time == 1.0
        assert len(queue) == 2
        assert queue.pop().time == 1.0

    def test_empty_queue(self):
        queue = CalendarQueue()
        assert queue.pop() is None
        assert queue.peek() is None
        assert len(queue) == 0

    def test_grows_with_population(self):
        queue = CalendarQueue()
        for i in range(1000):
            queue.push(make_event(float(i), sequence=i))
        assert queue._nbuckets >= 512
        for _ in range(995):
            queue.pop()
        # A monotone drain never wraps, so it pays zero resize work: the
        # array keeps its geometry until a scan actually comes up empty.
        assert queue._nbuckets >= 512
        assert [queue.pop().time for _ in range(5)] == [995.0, 996.0, 997.0, 998.0, 999.0]

    def test_shrinks_on_fruitless_wrap(self):
        queue = CalendarQueue()
        for i in range(1000):
            queue.push(make_event(float(i), sequence=i))
        grown = queue._nbuckets
        assert grown >= 512
        for _ in range(1000):
            queue.pop()
        # A single far-future event on the drained array forces a whole
        # fruitless year: the queue re-derives its geometry, then finds it.
        queue.push(make_event(1e7, sequence=1000))
        assert queue.pop().time == 1e7
        assert MIN_BUCKETS <= queue._nbuckets < grown

    def test_sparse_population_direct_search(self):
        # Events light-years apart force fruitless year scans and the
        # direct-search fallback; order must survive.
        queue = CalendarQueue()
        times = [1e9, 3.0, 1e6, 7e7, 42.0]
        for seq, t in enumerate(times):
            queue.push(make_event(t, sequence=seq))
        assert [queue.pop().time for _ in range(len(times))] == sorted(times)

    def test_same_time_storm_single_bucket(self):
        # Pathological: every event at the identical timestamp (zero span).
        queue = CalendarQueue()
        for seq in range(300):
            queue.push(make_event(123.0, priority=seq % 5, sequence=seq))
        popped = [queue.pop() for _ in range(300)]
        assert all(e.time == 123.0 for e in popped)
        keys = [(e.priority, e.sequence) for e in popped]
        assert keys == sorted(keys)

    def test_interleaved_push_pop_hold_pattern(self):
        # The classic hold model: pop one, push one at a later time.
        queue = CalendarQueue()
        rng = random.Random(7)
        seq = 0
        for _ in range(64):
            queue.push(make_event(rng.uniform(0.0, 100.0), sequence=seq))
            seq += 1
        last = -1.0
        for _ in range(2000):
            event = queue.pop()
            assert event.time >= last
            last = event.time
            queue.push(make_event(event.time + rng.uniform(0.0, 10.0), sequence=seq))
            seq += 1

    def test_compact_drops_cancelled_and_counts(self):
        queue = CalendarQueue()
        events = [make_event(float(i), sequence=i) for i in range(100)]
        for event in events:
            queue.push(event)
        for event in events[::2]:
            event.cancelled = True
        removed = queue.compact()
        assert removed == 50
        assert len(queue) == 50
        assert all(e.popped for e in events[::2])
        assert [queue.pop().time for _ in range(50)] == [float(i) for i in range(1, 100, 2)]

    def test_heap_backend_compact_equivalent(self):
        queue = HeapEventQueue()
        events = [make_event(float(i), sequence=i) for i in range(10)]
        for event in events:
            queue.push(event)
        events[0].cancelled = True
        events[5].cancelled = True
        assert queue.compact() == 2
        assert len(queue) == 8
        assert queue.peek().time == 1.0


class TestKernelQueue:
    def test_queue_kind_is_calendar(self):
        kernel = SimulationKernel()
        assert kernel.queue_kind == "calendar"
        assert isinstance(kernel._queue, CalendarQueue)

    def test_queue_kind_is_read_only(self):
        with pytest.raises(AttributeError):
            SimulationKernel().queue_kind = "heap"

    def test_heap_swap_requires_a_fresh_kernel(self):
        kernel = SimulationKernel()
        kernel.schedule_at(1.0, lambda: None)
        with pytest.raises(ValueError):
            use_heap(kernel)


# --------------------------------------------------------------------- #
# Randomized differential oracle: heap vs calendar kernels              #
# --------------------------------------------------------------------- #


class ScriptRunner:
    """Replays one random event script against a kernel, logging firings."""

    def __init__(self, queue: str):
        self.kernel = QUEUES[queue]()
        self.log = []
        self.live = {}
        self._next_label = 0

    def fire(self, label):
        self.log.append((label, self.kernel.now))
        self.live.pop(label, None)

    def schedule(self, delay, event_type):
        label = self._next_label
        self._next_label += 1
        event = self.kernel.schedule_at(
            self.kernel.now + delay, self.fire, label, event_type=event_type
        )
        self.live[label] = event

    def cancel(self, index):
        labels = sorted(self.live)
        if not labels:
            return
        label = labels[index % len(labels)]
        self.live.pop(label).cancel()

    def requeue(self, index, delay, event_type):
        """The outage pattern: cancel a pending event, reschedule later."""
        labels = sorted(self.live)
        if not labels:
            return
        label = labels[index % len(labels)]
        self.live.pop(label).cancel()
        event = self.kernel.schedule_at(
            self.kernel.now + delay, self.fire, label, event_type=event_type
        )
        self.live[label] = event


def run_script(queue: str, script) -> ScriptRunner:
    runner = ScriptRunner(queue)
    for op in script:
        kind = op[0]
        if kind == "schedule":
            runner.schedule(op[1], op[2])
        elif kind == "cancel":
            runner.cancel(op[1])
        elif kind == "requeue":
            runner.requeue(op[1], op[2], op[3])
        elif kind == "run_until":
            runner.kernel.run(until=runner.kernel.now + op[1])
        elif kind == "run_all":
            runner.kernel.run()
    runner.kernel.run()
    return runner


def random_script(rng: random.Random, ops: int):
    """A schedule/cancel/requeue-heavy script with deliberate time ties."""
    event_types = list(EventType)
    script = []
    # Tie-heavy delays: quantised to 0.5s so many events share timestamps
    # and the (priority, sequence) tie-break actually gets exercised.
    def delay():
        return rng.randrange(0, 40) * 0.5

    for _ in range(ops):
        roll = rng.random()
        if roll < 0.55:
            script.append(("schedule", delay(), rng.choice(event_types)))
        elif roll < 0.70:
            script.append(("cancel", rng.randrange(1 << 16)))
        elif roll < 0.85:
            script.append(("requeue", rng.randrange(1 << 16), delay(), rng.choice(event_types)))
        elif roll < 0.95:
            script.append(("run_until", rng.randrange(0, 20) * 0.5))
        else:
            script.append(("run_all",))
    return script


class TestDifferentialOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_scripts_fire_identically(self, seed):
        rng = random.Random(987_000 + seed)
        script = random_script(rng, ops=rng.randrange(50, 400))
        heap = run_script("heap", script)
        calendar = run_script("calendar", script)
        assert heap.log == calendar.log
        assert heap.kernel.now == calendar.kernel.now
        assert heap.kernel.fired_events == calendar.kernel.fired_events
        assert heap.kernel.pending_events == calendar.kernel.pending_events == 0

    def test_cancel_storm_triggers_compaction_in_both(self):
        """Cancel 80% of a large population mid-flight, then drain."""
        script = [("schedule", float(i % 97) * 0.5, EventType.GENERIC) for i in range(400)]
        script += [("cancel", i * 3) for i in range(320)]
        heap = run_script("heap", script)
        calendar = run_script("calendar", script)
        assert heap.kernel.compactions >= 1
        assert calendar.kernel.compactions >= 1
        assert heap.log == calendar.log
        assert heap.kernel.fired_events == calendar.kernel.fired_events

    def test_same_timestamp_priority_ties(self):
        """Every event at t=10 with shuffled priorities: strict tie order."""
        rng = random.Random(4242)
        types = [rng.choice(list(EventType)) for _ in range(200)]
        script = [("schedule", 10.0, t) for t in types]
        heap = run_script("heap", script)
        calendar = run_script("calendar", script)
        assert heap.log == calendar.log
        # and the log is sorted by (priority, sequence) at the shared time
        fired_labels = [label for label, _ in heap.log]
        keys = [(int(types[label]), label) for label in fired_labels]
        assert keys == sorted(keys)


class TestGridDifferential:
    @pytest.mark.parametrize("policy,heuristic", [("fcfs", "mct"), ("cbf", "sufferage")])
    def test_grid_simulation_identical_across_backends(self, policy, heuristic):
        """End-to-end: a full grid experiment is byte-identical per backend."""
        from repro.grid.simulation import GridSimulation
        from repro.platform.catalog import platform_for_scenario
        from repro.workload.scenarios import get_scenario

        platform = platform_for_scenario("jan", heterogeneous=False)
        jobs = get_scenario("jan").generate(platform, scale=0.004, seed=13)
        results = {}
        for backend in ("heap", "calendar"):
            sim = GridSimulation(
                platform,
                [job.copy() for job in jobs],
                batch_policy=policy,
                reallocation="standard",
                heuristic=heuristic,
            )
            if backend == "heap":
                use_heap(sim.kernel)
            results[backend] = sim.run().to_dict()
        assert results["heap"] == results["calendar"]
