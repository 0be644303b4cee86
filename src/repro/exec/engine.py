"""Execution engines: the one dispatch driver, the serial transport, and
engine selection.

An engine turns a batch of :class:`~repro.exec.jobs.JobSpec` into a batch
of :class:`~repro.exec.jobs.JobOutcome`, preserving order.  Engines never
raise for a failing *job* — a job that exhausts its retry budget comes back
as an outcome with ``error`` set, so one bad run cannot lose the results of
the rest of a sweep.

:meth:`ExecutionEngine.run` is the only driver: it plans the batch into
units and runs them through one :class:`~repro.exec.dispatch.Ledger`,
which owns attempts, retries, outcome recording and degradation.
Subclasses are *transports* — they only say how a claimed unit is
attempted: :class:`SerialEngine` calls it inline (the default here),
:class:`~repro.exec.pool.ProcessPoolEngine` submits it to a warm process
pool, :class:`~repro.dist.engine.RemoteEngine` ships it to a worker.

The actual simulation is performed by a *job runner* callable
(:func:`execute_job` by default); tests inject failing or sleeping runners
to exercise the retry/timeout machinery without a real simulation.  The
runner must be a picklable (module-level) callable so pool engines can ship
it to workers.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.core.records import RunResult
from repro.exec.dispatch import Ledger
from repro.exec.faults import fire_job_faults, get_fault_plan
from repro.exec.jobs import JobOutcome, JobSpec
from repro.obs.tracer import get_tracer

__all__ = [
    "ENGINE_KINDS",
    "EngineOptions",
    "ExecutionEngine",
    "SerialEngine",
    "build_engine",
    "engine_kind",
    "execute_job",
    "run_unit",
]

OnOutcome = Callable[[JobOutcome], None]


@dataclass(frozen=True)
class EngineOptions:
    """Retry/backoff/degradation knobs shared by every engine.

    One frozen bag of semantics instead of per-engine kwargs, so the
    process-pool and remote engines degrade and retry identically:

    ``max_retries``
        How many times a failing job is retried (a job is attempted at
        most ``max_retries + 1`` times).
    ``backoff_s``
        Base delay before a retry round; doubles each round, jittered to
        a uniform fraction in [0.5, 1.0] of the nominal delay.  Zero
        disables the sleep.
    ``backoff_cap_s``
        Upper bound on any single backoff sleep.
    ``backoff_budget_s``
        Upper bound on the total time one batch may spend sleeping
        between retries; refilled at the start of each batch.
    """

    max_retries: int = 2
    backoff_s: float = 0.1
    backoff_cap_s: float = 2.0
    backoff_budget_s: float = 10.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if self.backoff_cap_s < 0 or self.backoff_budget_s < 0:
            raise ValueError("backoff_cap_s and backoff_budget_s must be >= 0")

    def replace(self, **overrides) -> "EngineOptions":
        """A copy with ``overrides`` applied (validated like any other)."""
        return dataclasses.replace(self, **overrides)

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1


def execute_job(spec: JobSpec) -> RunResult:
    """Default job runner: one full simulation.

    Imported lazily so that engine/bookkeeping code stays importable in
    contexts (and subprocesses) that never simulate.
    """
    from repro.sim.driver import run_application

    return run_application(spec.app, spec.policy, spec.config)


def run_unit(
    job_runner: Callable[[JobSpec], RunResult], specs: list[JobSpec], attempt: int
) -> tuple[list[RunResult], float]:
    """One attempt at one unit, wherever it runs (inline or in a pool
    worker): ``(results in spec order, seconds of work)``.

    A multi-lane unit replays every lane in one batched pass (fault plans
    never coexist with batching, so there is nothing to fire).  A single
    job first carries out the job faults the plan selects for
    ``(label, attempt)`` — silently: the ledger announces them when it
    counts the attempt, so an attempt made in a worker process is
    announced exactly like one made inline.
    """
    if len(specs) > 1:
        from repro.exec import batch

        start = time.perf_counter()
        results = batch.execute_batch(specs)
    else:
        if get_fault_plan() is not None:
            fire_job_faults(specs[0].label, attempt)
        start = time.perf_counter()
        results = [job_runner(specs[0])]
    return results, time.perf_counter() - start


class ExecutionEngine:
    """Runs batches of jobs; subclasses choose *where* the work happens.

    Parameters
    ----------
    options:
        An :class:`EngineOptions` with the retry/backoff knobs.  The
        individual keyword arguments below override the corresponding
        option field when given, so both styles compose:
        ``SerialEngine(max_retries=0)`` and
        ``SerialEngine(options=EngineOptions(max_retries=0))`` are the
        same engine.
    max_retries, backoff_s, backoff_cap_s, backoff_budget_s:
        Per-field overrides of ``options`` (see :class:`EngineOptions`
        for semantics).
    job_runner:
        Callable ``spec -> RunResult``; defaults to :func:`execute_job`.
    """

    name = "engine"

    def __init__(
        self,
        *,
        options: EngineOptions | None = None,
        max_retries: int | None = None,
        backoff_s: float | None = None,
        backoff_cap_s: float | None = None,
        backoff_budget_s: float | None = None,
        job_runner: Callable[[JobSpec], RunResult] | None = None,
    ) -> None:
        opts = options if options is not None else EngineOptions()
        overrides = {
            key: value
            for key, value in {
                "max_retries": max_retries,
                "backoff_s": backoff_s,
                "backoff_cap_s": backoff_cap_s,
                "backoff_budget_s": backoff_budget_s,
            }.items()
            if value is not None
        }
        if overrides:
            opts = opts.replace(**overrides)
        self.options = opts
        self.job_runner = job_runner or execute_job
        # Every degradation to serial, in order — surfaced by the CLI's
        # -v line and asserted on by tests; never reset implicitly.
        self.degraded_reasons: list[str] = []

    def run(
        self, specs: Sequence[JobSpec], *, on_outcome: OnOutcome | None = None
    ) -> list[JobOutcome]:
        """Execute every job, returning outcomes in input order.

        ``on_outcome`` is invoked once per job *as its outcome is
        finalised* (success, or failure after the last retry) — the hook
        crash-safe consumers (the sweep journal, incremental store
        writes) use to persist completed work before the batch ends.
        Callback order is completion order, not input order.  Jobs the
        transport leaves unfinished complete in-process, loudly.
        """
        specs = list(specs)
        if not specs:
            return []
        ledger = Ledger(self, specs, self._plan_units(specs), on_outcome)
        self._dispatch(ledger)
        if ledger.degrade():
            self._run_inline(ledger)
        assert all(o is not None for o in ledger.outcomes)
        return ledger.outcomes  # type: ignore[return-value]

    def run_one(self, spec: JobSpec) -> JobOutcome:
        return self.run([spec])[0]

    def _dispatch(self, ledger: Ledger) -> None:
        """The transport: attempt every unit the ledger hands out.  The
        default runs them inline; subclasses send them elsewhere."""
        self._run_inline(ledger)

    def _run_inline(self, ledger: Ledger) -> None:
        """The serial transport — also every engine's degraded path: each
        claimed unit runs in this process, on this thread."""
        while (unit := ledger.claim(wait=False)) is not None:
            specs = [ledger.specs[i] for i in unit]
            try:
                results, duration = run_unit(self.job_runner, specs, ledger.next_attempt(unit))
            except Exception as exc:  # noqa: BLE001 — a job failure is data
                ledger.fail(unit, f"{type(exc).__name__}: {exc}")
            else:
                ledger.succeed(unit, results, duration)

    # -- batched execution (repro.exec.batch) ---------------------------

    def _batching_enabled(self) -> bool:
        """Batching is a pure perf transformation; anything that depends
        on per-cell execution — fault replay keyed on per-job attempts,
        per-job trace narration, a custom runner — keeps cells single."""
        return (
            self.job_runner is execute_job
            and get_fault_plan() is None
            and not get_tracer().enabled
        )

    def _plan_units(self, specs: Sequence[JobSpec]) -> list[tuple[int, ...]]:
        """Index units for ``specs``: multi-lane groups when the batch
        planner applies, else the identity plan (one unit per job)."""
        if not self._batching_enabled():
            return [(i,) for i in range(len(specs))]
        from repro.exec.batch import plan_units

        return plan_units(specs)


class SerialEngine(ExecutionEngine):
    """Runs every job in the calling process, one after another, on the
    calling thread.

    This is the default engine: zero overhead, exactly the behaviour the
    harness had before the execution layer existed — plus retries.  Cells
    grouped by the batch planner (``cache_backend: "batch"``) execute as
    one multi-lane replay, fanned back out into per-cell outcomes.
    """

    name = "serial"


#: Engine kinds every entry surface (CLI flags, spec files, serve
#: settings) selects between.
ENGINE_KINDS = ("serial", "pool", "remote")


def engine_kind(kind: str | None, *, jobs: int = 1, remote: bool = False) -> str:
    """The one engine-selection rule: an explicit ``kind`` wins; else
    remote when workers (or a discovery source) are given, a process pool
    when ``jobs > 1``, serial otherwise."""
    if kind is not None:
        return kind
    return "remote" if remote else "pool" if jobs > 1 else "serial"


def build_engine(
    kind: str | None = None,
    *,
    jobs: int = 1,
    workers: Sequence = (),
    membership=None,
    options: EngineOptions | None = None,
    publish_results: bool = False,
) -> ExecutionEngine:
    """Construct the engine :func:`engine_kind` selects.

    ``workers`` are ``host:port`` addresses and ``membership`` a discovery
    source (see :class:`~repro.dist.engine.RemoteEngine`); either makes
    the default kind remote.  Raises :class:`ValueError` when the remote
    engine is asked for with nothing to dispatch to.
    """
    workers = tuple(workers or ())
    kind = engine_kind(kind, jobs=jobs, remote=bool(workers) or membership is not None)
    if kind == "remote":
        if not workers and membership is None:
            raise ValueError(
                "the remote engine requires --workers HOST:PORT[,...] "
                "(or a fleet registrar / registry dir to discover them)"
            )
        from repro.dist.engine import RemoteEngine

        return RemoteEngine(
            workers, membership=membership, publish_results=publish_results, options=options
        )
    if kind == "pool":
        from repro.exec.pool import ProcessPoolEngine

        return ProcessPoolEngine(jobs, options=options)
    return SerialEngine(options=options)
