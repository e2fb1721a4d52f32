"""Deterministic-simulation test harness for the netsim core.

Three layers, each usable on its own:

* :mod:`repro.testing.invariants` -- pluggable invariant checkers
  (clock monotonicity, per-pipe FIFO delivery, packet conservation,
  queue-bound respect) that any test or benchmark can enable with one
  ``with check_invariants(...):`` line, plus a process-global mode the
  pytest suite switches on via ``REPRO_INVARIANTS=1``.
* :mod:`repro.testing.faults` -- a :class:`FaultPlan` API that
  deterministically injects link flaps, satellite outages at 15 s
  reallocation boundaries, queue-overflow storms and event-cancellation
  races, so robustness is exercised on purpose rather than by luck.
* :mod:`repro.testing.scenarios` -- seeded property-based scenario
  generators (random topologies + workloads) with trace-digest replay
  comparison and simple shrinking, proving bit-identical replay.
* :mod:`repro.testing.chaos` -- executor-level chaos: deterministic
  :class:`ChaosUnit` wrappers that make campaign work units raise,
  hang, or SIGKILL their own worker on chosen attempts, with
  cross-process attempt tracking, so every crash-recovery path of
  :mod:`repro.exec` is pinned by tests rather than luck.

:mod:`repro.testing.digest` holds the canonical trace/dataset
fingerprints the replay checks compare.

The package re-exports nothing: import each layer from its module, so
that loading one (the journal needs only ``digest``) leaves the others
unloaded.
"""
