"""Execution layer: parallel engines and a persistent result store.

Every paper figure replays ``(app, policy, config)`` simulations; this
package is the layer between the simulator and every harness entry point
that makes those replays cheap:

* :class:`JobSpec` / :class:`JobOutcome` — the unit of work and its
  recorded outcome (result or error, attempts, duration).
* :class:`ExecutionEngine` — how jobs run: one driver and one
  :class:`~repro.exec.dispatch.Ledger` (attempts, bounded retry with
  backoff, outcome recording, loud degradation to serial) under three
  transports: :class:`SerialEngine` (in-process), :class:`ProcessPoolEngine`
  (warm multiprocessing pool with per-job timeouts) and
  :class:`~repro.dist.engine.RemoteEngine` (TCP worker fleet; lives in
  :mod:`repro.dist`).  :func:`build_engine` is the one selection rule
  every entry surface uses; :class:`EngineOptions` the one retry/backoff
  configuration.
* :class:`ResultStore` — a content-addressed cache of
  :class:`~repro.core.records.RunResult` that persists across harness
  invocations (key = SHA-256 of the job's canonical JSON, atomic
  write-then-rename, invalidated by ``repro.__version__``), persisted
  through a pluggable :class:`StoreBackend` (:class:`LocalDirBackend`
  on disk, :class:`MemoryBackend` in tests,
  :class:`~repro.dist.storeproxy.ProxyBackend` over the wire).
* :func:`run_sweep` — fan a grid of apps × policies × seeds ×
  thread-counts out over an engine and aggregate speedups.
* :class:`SweepJournal` — append-only, fsynced record of completed sweep
  cells; ``run_sweep(..., journal=..., resume=True)`` restores them
  after a crash instead of recomputing.
* :class:`FaultPlan` — deterministic, seeded fault injection (worker
  death, job exceptions, artifact corruption, delays, plus the network
  kinds in ``NET_FAULT_KINDS``: slow links, dropped connections,
  partitions, vanishing workers) threaded through every engine and
  store behind a zero-overhead-when-disabled hook.

See DESIGN.md §A (execution appendix) for the key scheme and the
invalidation-by-version rule, §E for crash safety and fault
injection, and §G for distributed execution.
"""

from repro.exec.backend import LocalDirBackend, MemoryBackend, StoreBackend
from repro.exec.engine import (
    ENGINE_KINDS,
    EngineOptions,
    ExecutionEngine,
    SerialEngine,
    build_engine,
    engine_kind,
    execute_job,
)
from repro.exec.faults import (
    NET_FAULT_KINDS,
    FaultPlan,
    FaultRule,
    InjectedFault,
    get_fault_plan,
    set_fault_plan,
)
from repro.exec.grid import DEFAULT_POLICIES, POLICY_ALIASES, GridError, SweepGrid
from repro.exec.jobs import JobOutcome, JobSpec
from repro.exec.journal import JournalEntry, JournalMismatchError, SweepJournal
from repro.exec.pool import ProcessPoolEngine
from repro.exec.store import ResultStore
from repro.exec.sweep import SweepResult, expand_grid, grid_key, run_sweep

__all__ = [
    "DEFAULT_POLICIES",
    "ENGINE_KINDS",
    "EngineOptions",
    "ExecutionEngine",
    "FaultPlan",
    "FaultRule",
    "GridError",
    "InjectedFault",
    "JobOutcome",
    "JobSpec",
    "JournalEntry",
    "JournalMismatchError",
    "LocalDirBackend",
    "MemoryBackend",
    "NET_FAULT_KINDS",
    "POLICY_ALIASES",
    "ProcessPoolEngine",
    "ResultStore",
    "SerialEngine",
    "StoreBackend",
    "SweepGrid",
    "SweepJournal",
    "SweepResult",
    "build_engine",
    "engine_kind",
    "execute_job",
    "expand_grid",
    "get_fault_plan",
    "grid_key",
    "run_sweep",
    "set_fault_plan",
]
