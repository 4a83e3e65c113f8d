"""Concurrent store writers: work-stealing sweep execution.

The acceptance property of the distributed path: a sweep split across two
(or more) concurrent worker processes sharing one store directory must
produce a store byte-identical to a serial drain, with every unit
simulated exactly once — no duplication, no loss — including when a
crashed worker's stale claim has to be taken over.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict

from repro.experiments.campaign import (
    _ClaimHeartbeat,
    _sweep_worker,
    drain_units,
    plan_units,
    run_campaign,
    run_distributed_sweep,
    sweep_status,
)
from repro.experiments.sweeps import SweepSpec
from repro.store import ResultStore

SPEC = SweepSpec(
    name="concurrency-test",
    scenarios=("jan",),
    batch_policies=("fcfs",),
    algorithms=("standard",),
    heuristics=("mct", "minmin", "maxmin"),
    target_jobs=25,
)


def store_bytes(root: Path) -> Dict[str, bytes]:
    """Relative path -> content of every document of a store."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and not path.name.endswith(".lock")
    }


def drain_and_assemble(root: Path, workers: int):
    store = ResultStore(root)
    reports = run_distributed_sweep(
        SPEC.configs(), store, workers=workers, poll_interval=0.05
    )
    # The assembly pass hydrates metrics from the drained results without
    # simulating anything.
    campaign = run_campaign(SPEC.configs(), store=store)
    assert campaign.stats.simulated == 0
    return reports


class TestTwoWorkerDrain:
    def test_split_run_is_byte_identical_with_zero_duplicates(self, tmp_path):
        serial_root = tmp_path / "serial"
        split_root = tmp_path / "split"
        units = plan_units(SPEC.configs())

        serial_reports = drain_and_assemble(serial_root, workers=1)
        assert sum(len(r.simulated) for r in serial_reports) == len(units)

        split_reports = drain_and_assemble(split_root, workers=2)
        # zero duplicated simulations: the workers' claims partition the units
        assert sum(len(r.simulated) for r in split_reports) == len(units)
        simulated_labels = [
            label for report in split_reports for label in report.simulated
        ]
        assert len(simulated_labels) == len(set(simulated_labels))

        serial = store_bytes(serial_root)
        split = store_bytes(split_root)
        assert serial.keys() == split.keys()
        assert serial == split  # byte-identical documents

    def test_late_worker_joining_a_drained_sweep_does_nothing(self, tmp_path):
        root = tmp_path / "store"
        drain_and_assemble(root, workers=1)
        store = ResultStore(root)
        report = drain_units(plan_units(SPEC.configs()), store)
        assert report.simulated == []
        assert report.store_hits == len(plan_units(SPEC.configs()))


class TestClaimCoordination:
    def test_worker_waits_out_a_live_claim_instead_of_duplicating(self, tmp_path):
        """A unit claimed by a live peer is served from its published result."""
        store = ResultStore(tmp_path / "store")
        units = plan_units(SPEC.configs())
        blocked = units[0]
        peer = ResultStore(store.root)
        assert peer.try_claim(blocked, owner="peer")

        def finish_peer():
            time.sleep(0.3)
            outcome = run_campaign([blocked]).results[blocked]
            peer.put_result(blocked, outcome)
            peer.release(blocked)

        thread = threading.Thread(target=finish_peer)
        thread.start()
        try:
            report = drain_units(units, store, poll_interval=0.05)
        finally:
            thread.join()
        labels = set(report.simulated)
        assert blocked.label() not in labels
        assert report.store_hits >= 1
        assert report.claim_conflicts >= 1
        for unit in units:
            assert store.has_result(unit)

    def test_stale_claim_of_a_dead_worker_is_taken_over(self, tmp_path):
        """A claim that stopped heartbeating never strands the sweep."""
        import os

        store = ResultStore(tmp_path / "store")
        units = plan_units(SPEC.configs())
        dead = units[-1]
        peer = ResultStore(store.root)
        assert peer.try_claim(dead, owner="crashed")
        lock = peer.lock_path(dead)
        old = os.stat(lock).st_mtime - 10.0
        os.utime(lock, (old, old))

        report = drain_units(units, store, stale_after=5.0, poll_interval=0.05)
        assert report.stale_takeovers == 1
        assert dead.label() in report.simulated
        assert len(report.simulated) == len(units)

    def test_recently_heartbeated_claim_is_not_stolen(self, tmp_path):
        """Staleness is heartbeat age, not claim age.

        A claim created long ago but heartbeated a moment ago must survive
        a takeover attempt — this is what lets ``--stale-after`` shrink
        below the duration of one simulation.
        """
        import os

        store = ResultStore(tmp_path / "store")
        unit = plan_units(SPEC.configs())[0]
        assert store.try_claim(unit, owner="slow-but-alive")
        lock = store.lock_path(unit)
        # The claim is ancient...
        old = os.stat(lock).st_mtime - 3600.0
        os.utime(lock, (old, old))
        assert store.claim_age(unit) >= 3600.0
        # ...but its owner just heartbeated.
        assert store.heartbeat(unit)
        assert store.claim_age(unit) < 5.0

        peer = ResultStore(store.root)
        assert not peer.try_claim(unit, owner="stealer", stale_after=5.0)
        assert peer.stats.stale_takeovers == 0
        assert store.claim_owner(unit) == "slow-but-alive"

    def test_heartbeat_requires_a_live_owned_claim(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        peer = ResultStore(store.root)
        unit = plan_units(SPEC.configs())[0]
        # No claim at all: nothing to heartbeat.
        assert not store.heartbeat(unit)
        assert store.claim_age(unit) is None
        # A claim held by someone else cannot be heartbeated.
        assert peer.try_claim(unit, owner="peer")
        assert not store.heartbeat(unit)
        # A claim stolen mid-flight is not resurrected by the old owner.
        assert peer.release(unit)
        assert store.try_claim(unit, owner="victim")
        store.break_claim(unit)
        assert peer.try_claim(unit, owner="thief")
        assert not store.heartbeat(unit)
        assert peer.claim_owner(unit) == "thief"

    def test_claim_heartbeat_keeps_a_slow_simulation_alive(self, tmp_path):
        """The drain loop's heartbeat thread refreshes the lock while working."""
        import os

        store = ResultStore(tmp_path / "store")
        unit = plan_units(SPEC.configs())[0]
        assert store.try_claim(unit, owner="worker")
        lock = store.lock_path(unit)
        claimed_mtime = os.stat(lock).st_mtime
        with _ClaimHeartbeat(store, unit, stale_after=0.2):
            time.sleep(0.5)  # several heartbeat intervals (stale_after / 4)
            beaten_mtime = os.stat(lock).st_mtime
        assert beaten_mtime > claimed_mtime
        peer = ResultStore(store.root)
        assert not peer.try_claim(unit, owner="stealer", stale_after=30.0)

    def test_worker_entry_point_round_trips_through_a_pool(self, tmp_path):
        """The process-pool payload protocol drains a sweep end to end."""
        units = plan_units(SPEC.configs())
        payload = {
            "store": str(tmp_path / "store"),
            "units": [config.to_dict() for config in units],
            "stale_after": 30.0,
            "poll_interval": 0.05,
        }
        with ProcessPoolExecutor(max_workers=1) as pool:
            report = pool.submit(_sweep_worker, payload).result()
        assert len(report["simulated"]) == len(units)
        store = ResultStore(tmp_path / "store")
        for unit in units:
            assert store.has_result(unit)


class TestSweepStatus:
    """The read-only cross-host progress view over a shared store."""

    def test_untouched_sweep_is_all_pending(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        units = plan_units(SPEC.configs())
        status = sweep_status(units, store)
        assert (status.total, status.done, status.claimed, status.pending) == (
            len(units), 0, 0, len(units)
        )
        assert status.claims_by_owner == {}
        assert status.stale_claims == []

    def test_status_tracks_done_claimed_and_stale(self, tmp_path):
        import os

        store = ResultStore(tmp_path / "store")
        units = plan_units(SPEC.configs())
        assert len(units) >= 3
        # One unit done, one freshly claimed, one claimed-but-silent.
        outcome = run_campaign([units[0]]).results[units[0]]
        store.put_result(units[0], outcome)
        worker_a = ResultStore(store.root)
        assert worker_a.try_claim(units[1], owner="host-a:1")
        worker_b = ResultStore(store.root)
        assert worker_b.try_claim(units[2], owner="host-b:2")
        lock = worker_b.lock_path(units[2])
        old = os.stat(lock).st_mtime - 120.0
        os.utime(lock, (old, old))

        status = sweep_status(units, store, stale_after=60.0)
        assert status.done == 1
        assert status.claimed == 2
        assert status.pending == len(units) - 3
        owners = status.claims_by_owner
        assert set(owners) == {"host-a:1", "host-b:2"}
        assert owners["host-a:1"][0].heartbeat_age < 60.0
        stale = status.stale_claims
        assert [unit.owner for unit in stale] == ["host-b:2"]
        assert stale[0].heartbeat_age >= 120.0

    def test_status_never_writes_or_locks(self, tmp_path):
        """Polling the status leaves the store byte-identical."""
        store = ResultStore(tmp_path / "store")
        units = plan_units(SPEC.configs())
        outcome = run_campaign([units[0]]).results[units[0]]
        store.put_result(units[0], outcome)
        watcher = ResultStore(store.root)
        assert watcher.try_claim(units[1], owner="worker")
        before = store_bytes(store.root)
        locks_before = sorted(str(p) for p in store.root.glob("locks/??/*.lock"))
        sweep_status(units, store, stale_after=0.0)  # even "everything stale"
        assert store_bytes(store.root) == before
        assert sorted(str(p) for p in store.root.glob("locks/??/*.lock")) == locks_before
        assert store.stats.claims == 0 and store.stats.stale_takeovers == 0
