"""Differential references for the production code under ``src/``.

Each module here re-implements one production concept the slow, obvious
way, or reaches a path production no longer selects, so the tests and
the perf benchmarks can hold the fast path to it:

* :mod:`oracles.heuristics` — per-candidate ``JobEstimate`` objects and
  the scalar selection keys of the six heuristics;
* :mod:`oracles.reallocation` — a reallocation agent that rebuilds its
  estimate table at every tick and cancels waiting jobs one by one;
* :mod:`oracles.metrics` — the per-record comparison of two runs;
* :mod:`oracles.queues` — the binary-heap event queue the calendar queue
  must match, and kernels running on it;
* :mod:`oracles.planners` — the from-scratch FCFS/CBF planners over a
  base profile rebuilt from the running set, the reference of the
  incremental planner;
* :mod:`oracles.profiles` — the list-only reference profile, and clusters,
  servers and simulations whose profiles are pinned to list or array
  storage;
* :mod:`oracles.store` — the retired JSON/gzip document writer, which
  builds the legacy stores the production store must still read.

The package is imported as ``oracles``: pytest puts ``tests/`` on
``sys.path`` for the test suite, and ``benchmarks/conftest.py`` does the
same for the benchmarks.
"""
