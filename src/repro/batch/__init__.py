"""Batch-scheduler substrate (the Simbatch substitute).

The original paper evaluates reallocation on top of Simbatch, a C library
simulating local resource managers (batch schedulers) on SimGrid.  This
subpackage re-implements the pieces of Simbatch the paper relies on:

* :class:`~repro.batch.job.Job` — a parallel *rigid* job: fixed processor
  count, user-supplied walltime and an actual runtime discovered at
  completion time.
* :class:`~repro.batch.jobtable.JobTable` — the columnar
  (structure-of-arrays) form of a job population, used at archive scale
  where per-object storage and attribute walks dominate.
* :class:`~repro.batch.profile.AvailabilityProfile` — the step function of
  free processors over future time used to compute reservations.
* :mod:`repro.batch.policies` — the two local scheduling policies of the
  paper, FCFS (first-come-first-served with conservative reservations) and
  CBF (conservative back-filling), both planned by one event-driven
  :class:`~repro.batch.policies.IncrementalPlanner`.
* :class:`~repro.batch.cluster.ClusterState` — processors, speed factor and
  the set of running jobs of one cluster.
* :class:`~repro.batch.server.BatchServer` — the per-cluster frontal that
  the middleware talks to, exposing exactly the four queries the paper
  allows: submit, cancel, estimate completion time, list waiting jobs.
"""

from repro.batch.cluster import ClusterState, RunningJob
from repro.batch.job import Job, JobState
from repro.batch.jobtable import JobTable
from repro.batch.policies import BatchPolicy, IncrementalPlanner
from repro.batch.profile import AvailabilityProfile, ProfileError
from repro.batch.schedule import IncrementalPlan, PlannedJob
from repro.batch.server import BatchServer, BatchServerError

__all__ = [
    "AvailabilityProfile",
    "BatchPolicy",
    "BatchServer",
    "BatchServerError",
    "ClusterState",
    "IncrementalPlan",
    "IncrementalPlanner",
    "Job",
    "JobState",
    "JobTable",
    "PlannedJob",
    "ProfileError",
    "RunningJob",
]
