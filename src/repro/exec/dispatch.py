"""The dispatch ledger: one ``run()``'s queue, attempts and outcomes.

Every engine is a *transport* under one driver
(:meth:`repro.exec.engine.ExecutionEngine.run`).  The driver plans the
batch into units (index tuples; see :mod:`repro.exec.batch`) and hands
them out through a :class:`Ledger`; a transport only says how one claimed
unit is attempted — inline, on a warm process pool, or shipped to a
remote worker — and reports back with :meth:`Ledger.succeed`,
:meth:`Ledger.fail` or :meth:`Ledger.release`.  The ledger is the only
code that

* numbers attempts and enforces the retry budget, sleeping one
  lock-guarded, jittered, budgeted :class:`Backoff` before a retry;
* decomposes a failed multi-lane unit into per-job units that keep their
  full attempt budget (``batch.failed`` once, no attempt consumed);
* finalises outcomes: builds the :class:`~repro.exec.jobs.JobOutcome`,
  counts ``exec.job`` / ``exec.jobs_ok`` / ``exec.jobs_failed`` /
  ``exec.retries``, narrates ``job_start`` / ``retry`` / ``job_end``,
  announces the job faults a consumed attempt fired, and calls
  ``on_outcome`` under its lock (so journal appends and store puts see
  one caller at a time, whatever the transport's concurrency);
* degrades leftover jobs to serial, loudly, when a transport gives up.

Retry, fault and degradation behaviour is therefore identical across
transports by construction, not by three copies kept in step.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from collections import deque
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

from repro.core.records import RunResult
from repro.exec.faults import announce_faults, get_fault_plan
from repro.exec.jobs import JobOutcome, JobSpec
from repro.obs.events import EngineDegradedEvent, JobEndEvent, JobStartEvent, RetryEvent
from repro.obs.metrics import METRICS
from repro.obs.tracer import get_tracer

if TYPE_CHECKING:
    from repro.exec.engine import EngineOptions, ExecutionEngine

__all__ = ["Backoff", "Ledger"]

Unit = tuple[int, ...]


class Backoff:
    """Jittered, capped exponential backoff with a per-batch budget.

    The nominal delay doubles per failed round but is clamped to
    ``backoff_cap_s`` per sleep and to the remaining ``backoff_budget_s``
    overall, then scaled by a uniform jitter in [0.5, 1.0] — so one flaky
    job can delay a batch by at most the budget, and concurrent retriers
    never beat in lockstep.  The budget accounting is lock-guarded; the
    sleep itself happens outside the lock.
    """

    def __init__(self, options: EngineOptions) -> None:
        self.options = options
        self.left = options.backoff_budget_s
        self._lock = threading.Lock()

    def sleep(self, failed_rounds: int) -> float:
        """Sleep before retry round ``failed_rounds``; returns seconds slept."""
        opts = self.options
        if opts.backoff_s <= 0:
            return 0.0
        with self._lock:
            if self.left <= 0:
                return 0.0
            nominal = min(
                opts.backoff_s * (2 ** (failed_rounds - 1)), opts.backoff_cap_s, self.left
            )
            delay = nominal * (0.5 + 0.5 * random.random())
            self.left -= delay
        time.sleep(delay)
        return delay


class Ledger:
    """Shared state for one ``run()``: the unit queue, attempts, outcomes.

    Units are claimed by transports (several at once for the remote
    engine's dispatcher threads and the pool's submission window) and
    come back through exactly one of:

    ``succeed``
        the unit ran; every lane gets its outcome.
    ``fail``
        the attempt failed.  A single job consumes an attempt and is
        retried (front of the queue, after the backoff) or finalised as
        failed; a multi-lane unit is decomposed into single jobs.
    ``release``
        nothing ran (the transport could not ship it); the unit goes back
        untouched, optionally split into single jobs.
    """

    def __init__(
        self,
        engine: ExecutionEngine,
        specs: list[JobSpec],
        units: Sequence[Unit],
        on_outcome: Callable[[JobOutcome], None] | None,
    ) -> None:
        self.engine = engine
        self.engine_name = engine.name
        self.specs = specs
        self.max_attempts = engine.options.max_attempts
        self.on_outcome = on_outcome
        self.backoff = Backoff(engine.options)
        self.attempts = [0] * len(specs)
        self.outcomes: list[JobOutcome | None] = [None] * len(specs)
        #: Set by :meth:`stop`: why the transport gave up (the degradation
        #: reason), and the signal for every other claimer to stop.
        self.stop_reason: str | None = None
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._pending: deque[Unit] = deque(units)
        self._inflight: set[int] = set()
        self._plan = get_fault_plan()
        self._tracer = get_tracer()
        self._started = [False] * len(specs)

    # -- the queue ------------------------------------------------------

    def claim(self, *, wait: bool = True) -> Unit | None:
        """Next unit, or None once the batch has drained (or stopped).

        With ``wait`` (concurrent claimers), blocks while the queue is
        empty but other claimers still hold work — their failures may
        requeue it.  A single-threaded transport passes ``wait=False``.
        """
        with self._ready:
            while self.stop_reason is None:
                if self._pending:
                    unit = self._pending.popleft()
                    self._inflight.update(unit)
                    if self._tracer.enabled:
                        self._narrate_start(unit)
                    return unit
                if not wait or not self._inflight:
                    return None
                self._ready.wait(timeout=0.05)
            return None

    def next_attempt(self, unit: Unit) -> int:
        """The attempt number the transport is about to make for ``unit``
        (per job; a multi-lane unit is always its lanes' first try)."""
        return self.attempts[unit[0]] + 1

    def release(self, unit: Unit, *, split: bool = False) -> None:
        """Nothing was attempted: requeue ``unit`` with its budget intact,
        as one unit or (``split``) as single jobs."""
        self._settle(unit, requeue=[(i,) for i in unit] if split else [unit], front=False)

    def stop(self, reason: str) -> None:
        """The transport gave up: hand out no more units.  Unfinished
        jobs degrade to serial (:meth:`degrade`) with ``reason``."""
        with self._ready:
            if self.stop_reason is None:
                self.stop_reason = reason
            self._ready.notify_all()

    @property
    def done(self) -> bool:
        with self._lock:
            return all(o is not None for o in self.outcomes)

    def _settle(self, unit: Unit, *, requeue: Sequence[Unit] = (), front: bool = True) -> None:
        with self._ready:
            self._inflight.difference_update(unit)
            if front:
                self._pending.extendleft(reversed(requeue))
            else:
                self._pending.extend(requeue)
            self._ready.notify_all()

    # -- outcomes -------------------------------------------------------

    def succeed(
        self,
        unit: Unit,
        results: Sequence[RunResult | None],
        duration_s: float,
        *,
        published: Sequence[float | None] | None = None,
    ) -> None:
        """Every lane of ``unit`` succeeded.  Wall clock is attributed
        evenly across lanes (they share one prep; finer attribution would
        charge it to whichever lane went first).  A ``published`` lane
        carries the total cycles its worker filed in the shared store
        instead of a result."""
        if len(results) != len(unit):
            self.fail(unit, f"{len(results)} result(s) for {len(unit)} job(s)")
            return
        per_job = duration_s / len(unit)
        with self._lock:
            for lane, idx in enumerate(unit):
                if self.outcomes[idx] is not None:
                    continue
                attempt = self._consume(idx)
                METRICS.timer("exec.job").observe(per_job)
                METRICS.counter("exec.jobs_ok").inc()
                self._finalise(
                    idx,
                    JobOutcome(
                        spec=self.specs[idx],
                        result=results[lane],
                        published_cycles=None if published is None else published[lane],
                        attempts=attempt,
                        duration_s=per_job,
                        engine=self.engine_name,
                    ),
                )
        self._settle(unit)

    def fail(self, unit: Unit, error: str, *, announce: bool = True) -> None:
        """The attempt at ``unit`` failed with ``error``.

        A multi-lane unit is decomposed, never retried as a batch: its
        jobs re-enter the queue as singles with their budgets intact.  A
        single job consumes an attempt (announcing the job faults it
        fired, unless the attempt died on the wire before the job ran)
        and is either finalised as failed or retried after the backoff.
        """
        if len(unit) > 1:
            METRICS.counter("batch.failed").inc()
            self._settle(unit, requeue=[(i,) for i in unit])
            return
        (idx,) = unit
        with self._lock:
            if self.outcomes[idx] is not None:
                final = True
            else:
                attempt = self._consume(idx, announce=announce)
                spec = self.specs[idx]
                METRICS.counter("exec.retries").inc()
                if self._tracer.enabled:
                    self._tracer.emit(
                        RetryEvent(
                            label=spec.label, engine=self.engine_name, attempt=attempt, error=error
                        )
                    )
                final = attempt >= self.max_attempts
                if final:
                    METRICS.counter("exec.jobs_failed").inc()
                    self._finalise(
                        idx,
                        JobOutcome(
                            spec=spec, error=error, attempts=attempt, engine=self.engine_name
                        ),
                    )
        if final:
            self._settle(unit)
            return
        if self.stop_reason is None:
            # The job stays claimed while it backs off, so no other
            # claimer can retry it early.
            self.backoff.sleep(attempt)
        self._settle(unit, requeue=[unit])

    def _consume(self, idx: int, *, announce: bool = True) -> int:
        """Count one attempt of job ``idx`` (lock held).  Transports fire
        job faults silently; the ledger announces what the deterministic
        plan fired for this attempt, wherever it ran."""
        self.attempts[idx] += 1
        attempt = self.attempts[idx]
        if announce and self._plan is not None:
            label = self.specs[idx].label
            rules = self._plan.planned_job_faults(label, attempt)
            if rules:
                announce_faults(rules, label, attempt)
        return attempt

    def _finalise(self, idx: int, outcome: JobOutcome) -> None:
        """Record job ``idx``'s final outcome (lock held): narrate it and
        hand it to ``on_outcome`` before the next one can land."""
        spec = outcome.spec
        self.outcomes[idx] = outcome
        if self._tracer.enabled:
            self._tracer.emit(
                JobEndEvent(
                    label=spec.label,
                    app=spec.app,
                    policy=spec.policy,
                    engine=outcome.engine,
                    ok=outcome.ok,
                    attempts=outcome.attempts,
                    duration_s=outcome.duration_s,
                    error=outcome.error,
                )
            )
        if self.on_outcome is not None:
            self.on_outcome(outcome)

    def _narrate_start(self, unit: Unit) -> None:
        for idx in unit:
            if not self._started[idx]:
                self._started[idx] = True
                spec = self.specs[idx]
                self._tracer.emit(
                    JobStartEvent(
                        label=spec.label, app=spec.app, policy=spec.policy, engine=self.engine_name
                    )
                )

    # -- degradation ----------------------------------------------------

    def degrade(self) -> bool:
        """After the transport returns: if jobs are unfinished, degrade
        them to serial — counted, evented, printed and kept in the
        engine's ``degraded_reasons`` — and reopen the queue under the
        ``<engine>→serial`` name.  Returns whether any job is left."""
        with self._ready:
            left = [i for i, o in enumerate(self.outcomes) if o is None]
            if not left:
                return False
            queued = {i for unit in self._pending for i in unit}
            # A job still claimed by a transport that gave up on it goes
            # back too; a late report for it is ignored once finalised.
            self._pending.extend((i,) for i in left if i not in queued)
            self._inflight.clear()
            reason = self.stop_reason or "transport stopped with unfinished jobs"
            self.stop_reason = None
        engine = self.engine
        engine.degraded_reasons.append(reason)
        METRICS.counter("exec.degraded_to_serial").inc()
        if self._tracer.enabled:
            self._tracer.emit(EngineDegradedEvent(engine=engine.name, reason=reason))
        print(f"warning: {engine.name} degraded to serial: {reason}", file=sys.stderr)
        self.engine_name = f"{engine.name}→serial"
        return True
