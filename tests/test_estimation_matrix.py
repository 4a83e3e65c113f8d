"""Differential and property tests of the columnar estimation engine.

The acceptance property of the vectorised selection path: on any candidate
set, ``Heuristic.select_index`` over an
:class:`~repro.core.estimation.EstimateMatrix` must pick the same job —
including the (submit_time, job_id) tie-breaks — as the object-based
reference ``select`` of ``tests/oracles/heuristics.py`` over the
corresponding ``JobEstimate`` list, for all six heuristics, across a full
selection drain (the alive set shrinking one candidate per step).  Randomized inputs deliberately include duplicate
keys, all-``inf`` rows, candidates that fit nowhere, saturated clusters
(fit but ``inf`` ECT) and single-cluster platforms.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimation import EstimateMatrix
from repro.core.heuristics import HEURISTIC_NAMES, get_heuristic
from repro.grid.reallocation import ReallocationEngine
from oracles.heuristics import JobEstimate, select
from oracles.reallocation import estimate_of
from tests.conftest import make_job

#: ECT values drawn with replacement — small pool forces key collisions so
#: the tie-breaks actually decide selections.
_ECT_POOL = (50.0, 100.0, 100.0, 250.0, 400.0, math.inf)
_SUBMIT_POOL = (0.0, 10.0, 10.0, 30.0)


def random_candidates(rng: random.Random, clusters, count):
    """Parallel (JobEstimate list, EstimateMatrix) over one random set."""
    matrix = EstimateMatrix(clusters)
    estimates = []
    job_ids = rng.sample(range(1, 10 * count + 1), count)
    for job_id in job_ids:
        job = make_job(
            job_id,
            submit_time=rng.choice(_SUBMIT_POOL),
            procs=rng.randint(1, 32),
        )
        ects = {}
        for name in clusters:
            roll = rng.random()
            if roll < 0.2:
                continue  # does not fit on this cluster
            ects[name] = rng.choice(_ECT_POOL)
        if rng.random() < 0.1:
            ects = {}  # fits nowhere
        current_cluster = rng.choice(list(clusters) + [None])
        if current_cluster is not None and rng.random() < 0.7:
            current_ect = ects.get(current_cluster, math.inf)
        else:
            current_ect = rng.choice(_ECT_POOL)
        estimates.append(
            JobEstimate(
                job=job,
                current_cluster=current_cluster,
                current_ect=current_ect,
                ects=ects,
            )
        )
        matrix.add_row(
            job.job_id, job.submit_time, job.procs, ects, current_cluster, current_ect
        )
    return estimates, matrix


class TestDifferentialSelection:
    """select_index == select, over randomized sets and full drains."""

    @pytest.mark.parametrize("heuristic_name", HEURISTIC_NAMES)
    @pytest.mark.parametrize("clusters", [("a",), ("a", "b"), ("a", "b", "c", "d", "e")])
    def test_full_drain_matches_object_reference(self, heuristic_name, clusters):
        heuristic = get_heuristic(heuristic_name)
        # hash() is salted per process; crc32 keeps the trials reproducible.
        import zlib

        rng = random.Random(zlib.crc32(f"{heuristic_name}:{clusters}".encode()))
        for trial in range(20):
            estimates, matrix = random_candidates(rng, clusters, rng.randint(1, 40))
            remaining = {est.job.job_id: est for est in estimates}
            while remaining:
                expected = select(heuristic, list(remaining.values()))
                row = heuristic.select_index(matrix)
                assert matrix.job_id_at(row) == expected.job.job_id, (
                    f"{heuristic_name} diverged on trial {trial} with "
                    f"{len(remaining)} candidates left"
                )
                del remaining[expected.job.job_id]
                matrix.discard_row(row)

    @pytest.mark.parametrize("heuristic_name", HEURISTIC_NAMES)
    def test_all_inf_rows_are_still_selectable(self, heuristic_name):
        """Candidates that fit nowhere must not break (or win unduly) selection."""
        heuristic = get_heuristic(heuristic_name)
        estimates = [
            JobEstimate(make_job(1, submit_time=5.0), "a", 100.0, {"a": 100.0, "b": 90.0}),
            JobEstimate(make_job(2, submit_time=1.0), None, math.inf, {}),
            JobEstimate(make_job(3, submit_time=9.0), "b", math.inf, {"a": math.inf}),
        ]
        matrix = EstimateMatrix(("a", "b"))
        for est in estimates:
            matrix.add_row(
                est.job.job_id, est.job.submit_time, est.job.procs,
                est.ects, est.current_cluster, est.current_ect,
            )
        expected = select(heuristic, estimates)
        assert matrix.job_id_at(heuristic.select_index(matrix)) == expected.job.job_id

    @pytest.mark.parametrize("heuristic_name", HEURISTIC_NAMES)
    def test_tie_break_is_submit_time_then_job_id(self, heuristic_name):
        heuristic = get_heuristic(heuristic_name)
        # Identical estimates everywhere: only the tie-break decides.
        ects = {"a": 100.0, "b": 100.0}
        estimates = [
            JobEstimate(make_job(7, submit_time=10.0), "a", 100.0, dict(ects)),
            JobEstimate(make_job(2, submit_time=10.0), "a", 100.0, dict(ects)),
            JobEstimate(make_job(9, submit_time=20.0), "a", 100.0, dict(ects)),
        ]
        matrix = EstimateMatrix(("a", "b"))
        for est in estimates:
            matrix.add_row(
                est.job.job_id, est.job.submit_time, est.job.procs,
                est.ects, est.current_cluster, est.current_ect,
            )
        chosen = matrix.job_id_at(heuristic.select_index(matrix))
        assert chosen == select(heuristic, estimates).job.job_id == 2

    def test_empty_selection_raises(self):
        matrix = EstimateMatrix(("a",))
        for name in HEURISTIC_NAMES:
            with pytest.raises(ValueError):
                get_heuristic(name).select_index(matrix)
        matrix.add_row(1, 0.0, 1, {"a": 10.0})
        matrix.discard_row(0)
        with pytest.raises(ValueError):
            get_heuristic("minmin").select_index(matrix)


class TestBestCol:
    """``best_col`` against a dict-min over the row's fitting (value, name) pairs."""

    @given(
        names=st.permutations(["delta", "alpha", "charlie", "bravo"]).flatmap(
            lambda order: st.integers(1, len(order)).map(lambda n: order[:n])
        ),
        rows=st.lists(
            st.lists(
                st.tuples(st.booleans(), st.sampled_from([5.0, 7.0, 7.0, math.inf])),
                min_size=4,
                max_size=4,
            ),
            min_size=1,
            max_size=6,
        ),
        pick=st.integers(0, 5),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_dict_min(self, names, rows, pick):
        # Names out of column order, ECT ties, all-infinite fitting
        # entries and rows that fit nowhere all come up.
        matrix = EstimateMatrix(names)
        row_ects = []
        for job_id, cells in enumerate(rows):
            ects = {name: value for name, (fits, value) in zip(names, cells) if fits}
            matrix.add_row(job_id, 0.0, 1, ects)
            row_ects.append(ects)
        row = pick % len(rows)
        ects = row_ects[row]
        if ects:
            _, name = min((value, name) for name, value in ects.items())
            expected = matrix.col_index[name]
        else:
            expected = -1
        assert matrix.best_col(row) == expected

    def test_out_of_range_row(self):
        matrix = EstimateMatrix(["a", "b"])
        with pytest.raises(IndexError):
            matrix.best_col(0)


class TestDerivedVectors:
    """The matrix reductions replicate the oracle's JobEstimate properties."""

    @pytest.mark.parametrize("clusters", [("a",), ("a", "b"), ("a", "b", "c")])
    def test_derived_quantities_match_scalar_properties(self, clusters):
        rng = random.Random(20100326 + len(clusters))
        estimates, matrix = random_candidates(rng, clusters, 60)
        rows = matrix.alive_rows()
        best = matrix.best_ects(rows)
        second = matrix.second_best_ects(rows)
        gains = matrix.gains(rows)
        relative = matrix.relative_gains(rows)
        sufferages = matrix.sufferages(rows)
        for index, est in enumerate(estimates):
            assert best[index] == est.best_ect
            assert second[index] == est.second_best_ect
            assert gains[index] == est.gain
            assert relative[index] == est.relative_gain
            assert sufferages[index] == est.sufferage

    def test_single_fitting_cluster_second_best_is_best(self):
        """A lone fit entry is its own second-best — not the inf padding."""
        matrix = EstimateMatrix(("a", "b", "c"))
        matrix.add_row(1, 0.0, 1, {"b": 70.0})
        rows = np.array([0])
        assert matrix.best_ects(rows)[0] == 70.0
        assert matrix.second_best_ects(rows)[0] == 70.0  # not inf
        assert matrix.sufferages(rows)[0] == 0.0

    def test_saturated_cluster_is_not_a_missing_cluster(self):
        """fit-with-inf-ECT and does-not-fit differ for Sufferage."""
        matrix = EstimateMatrix(("a", "b"))
        matrix.add_row(1, 0.0, 1, {"a": 50.0, "b": math.inf})  # fits both
        matrix.add_row(2, 0.0, 1, {"a": 50.0})  # fits only a
        rows = np.array([0, 1])
        assert list(matrix.best_ects(rows)) == [50.0, 50.0]
        assert list(matrix.second_best_ects(rows)) == [math.inf, 50.0]
        assert list(matrix.sufferages(rows)) == [math.inf, 0.0]


class TestMatrixMechanics:
    """Incremental insert/discard/refresh behaviour of the store itself."""

    def test_rows_grow_past_initial_capacity_with_stable_indices(self):
        matrix = EstimateMatrix(("a", "b"))
        for job_id in range(200):
            row = matrix.add_row(job_id, float(job_id), 1, {"a": float(job_id + 1)})
            assert row == job_id
        assert matrix.n_rows == 200
        assert matrix.alive_count == 200
        # Early rows survived the reallocation-on-growth.
        assert matrix.row_of(0) == 0
        assert matrix.row_ects(0) == {"a": 1.0}
        assert matrix.job_id_at(199) == 199
        assert matrix.current_of(5) == (None, math.inf)

    def test_discard_masks_but_keeps_indices_valid(self):
        matrix = EstimateMatrix(("a",))
        matrix.add_row(10, 0.0, 1, {"a": 1.0})
        matrix.add_row(20, 0.0, 1, {"a": 2.0})
        matrix.add_row(30, 0.0, 1, {"a": 3.0})
        matrix.discard_job(20)
        assert matrix.alive_count == 2
        assert list(matrix.alive_rows()) == [0, 2]
        assert matrix.alive_job_ids() == [10, 30]
        assert not matrix.is_alive(1)
        assert matrix.row_ects(1) == {"a": 2.0}  # readable, just not selectable
        matrix.discard_job(20)  # idempotent
        matrix.discard_job(99)  # unknown ids ignored
        assert matrix.alive_count == 2

    def test_duplicate_row_and_duplicate_cluster_are_rejected(self):
        with pytest.raises(ValueError):
            EstimateMatrix(("a", "a"))
        matrix = EstimateMatrix(("a",))
        matrix.add_row(1, 0.0, 1, {"a": 1.0})
        with pytest.raises(ValueError):
            matrix.add_row(1, 0.0, 1, {"a": 2.0})

    def test_set_and_clear_entry_drive_fit_semantics(self):
        matrix = EstimateMatrix(("a", "b"))
        matrix.add_row(1, 0.0, 1, {"a": 10.0, "b": 20.0})
        matrix.set_entry(0, "b", 5.0)
        assert matrix.row_ects(0) == {"a": 10.0, "b": 5.0}
        matrix.clear_entry(0, "b")  # stale-prune: no longer fits there
        assert matrix.row_ects(0) == {"a": 10.0}
        rows = np.array([0])
        assert matrix.best_ects(rows)[0] == 10.0
        assert matrix.second_best_ects(rows)[0] == 10.0
        # Re-fitting later re-creates the entry.
        matrix.set_entry(0, "b", 7.0)
        assert matrix.row_ects(0) == {"a": 10.0, "b": 7.0}

    def test_write_column_equals_per_entry_writes(self):
        rng = random.Random(11)
        bulk = EstimateMatrix(("a", "b", "c"))
        single = EstimateMatrix(("a", "b", "c"))
        for job_id in range(40):
            ects = {name: rng.choice(_ECT_POOL) for name in "abc" if rng.random() < 0.7}
            bulk.add_row(job_id, 0.0, 1, ects)
            single.add_row(job_id, 0.0, 1, ects)
        rows = np.array(sorted(rng.sample(range(40), 25)), dtype=np.intp)
        values = np.array([rng.choice(_ECT_POOL) for _ in rows])
        fits = np.array([rng.random() < 0.6 for _ in rows])
        bulk.write_column(rows, "b", values, fits)
        for row, value, fit in zip(rows.tolist(), values.tolist(), fits.tolist()):
            if fit:
                single.set_entry(row, "b", value)
            else:
                single.clear_entry(row, "b")
        assert np.array_equal(bulk.ects_block(np.arange(40)), single.ects_block(np.arange(40)))
        assert np.array_equal(bulk.fits_block(np.arange(40)), single.fits_block(np.arange(40)))
        bulk.set_current_ects(rows[:5], values[:5])
        for row, value in zip(rows[:5].tolist(), values[:5].tolist()):
            single.set_current(row, single.current_of(row)[0], value)
        assert np.array_equal(
            bulk.current_ects(np.arange(40)), single.current_ects(np.arange(40))
        )

    def test_set_current_round_trips(self):
        matrix = EstimateMatrix(("a", "b"))
        matrix.add_row(1, 0.0, 1, {"a": 10.0}, "a", 10.0)
        assert matrix.current_of(0) == ("a", 10.0)
        matrix.set_current(0, "b", 33.0)
        assert matrix.current_of(0) == ("b", 33.0)
        matrix.set_current(0, None, math.inf)
        assert matrix.current_of(0) == (None, math.inf)

    def test_out_of_range_rows_raise(self):
        matrix = EstimateMatrix(("a",))
        with pytest.raises(IndexError):
            matrix.row_ects(0)
        matrix.add_row(1, 0.0, 1, {"a": 1.0})
        with pytest.raises(IndexError):
            matrix.discard_row(1)
        with pytest.raises(KeyError):
            matrix.row_of(2)


class TestTableStalePrune:
    """refresh_clusters prunes entries for jobs that stop fitting."""

    def test_refresh_prunes_no_longer_fitting_cluster(self, kernel):
        from tests.conftest import make_server

        alpha = make_server(kernel, "alpha", procs=8)
        beta = make_server(kernel, "beta", procs=8)
        beta.submit(make_job(100, procs=8, runtime=1000.0))  # pins the cluster
        job = make_job(1, procs=4)
        beta.submit(job)
        table = ReallocationEngine([alpha, beta])
        table.add_cancelled_many([job], {1: "beta"})
        assert set(estimate_of(table, 1).ects) == {"alpha", "beta"}

        # The job stops fitting on alpha (a capacity change degrades the
        # cluster below the request); the refresh must stale-prune alpha's
        # entry instead of keeping the outdated ECT.
        alpha.cluster.apply_capacity(2)
        table.refresh_clusters({"alpha"})
        estimate = estimate_of(table, 1)
        assert set(estimate.ects) == {"beta"}
        assert estimate.best_cluster == "beta"

    def test_refresh_degrades_current_ect_of_pruned_origin(self, kernel):
        from tests.conftest import make_server

        alpha = make_server(kernel, "alpha", procs=8)
        beta = make_server(kernel, "beta", procs=8)
        beta.submit(make_job(100, procs=8, runtime=1000.0))  # pins the cluster
        job = make_job(1, procs=4)
        beta.submit(job)
        beta.cancel(job)
        table = ReallocationEngine([alpha, beta])
        table.add_cancelled_many([job], {1: "beta"})
        assert math.isfinite(estimate_of(table, 1).current_ect)

        beta.apply_capacity_change(0)
        table.refresh_clusters({"beta"})
        estimate = estimate_of(table, 1)
        assert set(estimate.ects) == {"alpha"}
        assert estimate.current_ect == math.inf  # resubmitting there is impossible


def _per_row_refresh(table, cluster_names):
    """``ReallocationEngine.refresh_clusters`` written one row at a time."""
    from repro.batch.job import JobState

    matrix = table.matrix
    rows = matrix.alive_rows()
    for name in cluster_names:
        server = table._servers[name]
        batch_rows, batch_jobs = [], []
        for row in rows:
            job = table.job_of(matrix.job_id_at(row))
            current_cluster, _ = matrix.current_of(row)
            waiting_here = (
                name == current_cluster
                and job.state is JobState.WAITING
                and job.cluster == current_cluster
            )
            if not server.fits_now(job):
                matrix.clear_entry(row, name)
                if name == current_cluster and not waiting_here:
                    matrix.set_current(row, current_cluster, math.inf)
                continue
            if waiting_here:
                value = server.planned_completion(job)
                matrix.set_entry(row, name, value)
                matrix.set_current(row, current_cluster, value)
            else:
                batch_rows.append(int(row))
                batch_jobs.append(job)
        values = server.estimate_completion_many(batch_jobs)
        for row, value in zip(batch_rows, values):
            matrix.set_entry(row, name, value)
            current_cluster, _ = matrix.current_of(row)
            if name == current_cluster:
                matrix.set_current(row, current_cluster, value)


class TestRefreshMatchesPerRowReference:
    """The vectorised column refresh writes what a per-row loop writes."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_worlds(self, seed):
        from repro.sim.kernel import SimulationKernel
        from tests.conftest import make_server

        rng = random.Random(seed)
        kernel = SimulationKernel()
        servers = [
            make_server(kernel, name, procs=procs, policy=rng.choice(("fcfs", "cbf")))
            for name, procs in (("alpha", 8), ("beta", 8), ("gamma", 16))
        ]
        for index, server in enumerate(servers):
            server.submit(make_job(1000 + index, procs=server.cluster.total_procs // 2,
                                   runtime=rng.choice((50.0, 400.0))))
        jobs = [
            make_job(job_id, procs=rng.randint(1, 8), runtime=float(rng.randint(10, 300)))
            for job_id in range(30)
        ]
        for job in jobs:
            rng.choice(servers).submit(job)
        waiting = [job for job in jobs if job.cluster is not None and job.state.name == "WAITING"]
        cancelled, origin = [], {}
        for job in waiting[::3]:
            if job.state.name == "WAITING":  # may have started meanwhile
                origin[job.job_id] = job.cluster
                next(s for s in servers if s.name == job.cluster).cancel(job)
                cancelled.append(job)
        still_waiting = [job for job in waiting if job not in cancelled and job.state.name == "WAITING"]

        def build():
            table = ReallocationEngine(servers)
            table.add_waiting_many([
                (job, next(s for s in servers if s.name == job.cluster).planned_completion(job))
                for job in still_waiting
            ])
            table.add_cancelled_many(cancelled, origin)
            return table

        vectorised, reference = build(), build()
        # Perturb the world: a move (origin mismatch, possible starts
        # behind the cancelled head), a degraded cluster, a discarded row.
        movers = [job for job in still_waiting if job.state.name == "WAITING"]
        if movers:
            mover = rng.choice(movers)
            source = next(s for s in servers if s.name == mover.cluster)
            target = next(s for s in servers if s.name != mover.cluster)
            source.cancel(mover)
            target.submit(mover)
        rng.choice(servers).apply_capacity_change(rng.choice((0, 2, 4)))
        victim = rng.choice(still_waiting + cancelled).job_id
        vectorised.discard(victim)
        reference.discard(victim)

        names = [server.name for server in servers]
        for touched in (names[:1], names[1:], names):
            vectorised.refresh_clusters(set(touched))
            _per_row_refresh(reference, touched)
            every = np.arange(vectorised.matrix.n_rows)
            for view in ("ects_block", "fits_block", "current_ects", "current_cols"):
                assert np.array_equal(
                    getattr(vectorised.matrix, view)(every),
                    getattr(reference.matrix, view)(every),
                ), view


class TestColumnMaskingRoundTrip:
    """Masked columns re-enter cleanly: mask -> refresh -> unmask."""

    def test_outage_masks_and_recovery_unmasks_the_column(self, kernel):
        from tests.conftest import make_server

        alpha = make_server(kernel, "alpha", procs=8)
        beta = make_server(kernel, "beta", procs=8)
        # Algorithm-2 style candidates: cancelled from beta, clusters idle,
        # so the pre-outage estimates must reappear exactly on recovery.
        jobs = [make_job(i, procs=2 + i, runtime=100.0) for i in range(3)]
        table = ReallocationEngine([alpha, beta])
        table.add_cancelled_many(jobs, {job.job_id: "beta" for job in jobs})
        before = {job.job_id: estimate_of(table, job.job_id).ects for job in jobs}
        assert all(set(ects) == {"alpha", "beta"} for ects in before.values())

        # Mask: beta goes down, its whole column disappears from the
        # candidates' view (down == not fitting, as Sufferage requires).
        beta.apply_capacity_change(0)
        table.refresh_clusters({"beta"})
        masked_rows = [table.matrix.row_of(job.job_id) for job in jobs]
        for job, row in zip(jobs, masked_rows):
            estimate = estimate_of(table, job.job_id)
            assert set(estimate.ects) == {"alpha"}
            assert estimate.current_ect == math.inf
            assert not table.matrix._fits[row, table.matrix.col_index["beta"]]

        # Unmask: beta recovers and a refresh re-enters the column with
        # the exact estimates of the pre-outage build (the queue state
        # underneath is unchanged).
        beta.apply_capacity_change(8)
        table.refresh_clusters({"beta"})
        for job in jobs:
            estimate = estimate_of(table, job.job_id)
            assert estimate.ects == before[job.job_id]
            assert estimate.current_ect == before[job.job_id]["beta"]
