"""Multiprocessing transport: attempt claimed units on a warm process pool.

The dispatch driver (:meth:`~repro.exec.engine.ExecutionEngine.run`) and
its ledger own retries, outcomes and degradation; this module only says
how a claimed unit runs — submitted to a ``ProcessPoolExecutor`` that
stays warm across ``run()`` calls, a sliding window of ``chunk_size``
units in flight.  Pool-specific failure handling stays here:

* a unit whose **per-job timeout** expires fails its attempt, and the
  executor that may still be wedged on it is abandoned (workers are not
  interruptible): units that already finished are salvaged, the rest go
  back untouched, and a fresh pool serves what follows;
* a **dead worker** (``BrokenProcessPool`` — e.g. the OOM killer or a
  crash in native code) fails the job it was running and stops the
  transport, so the ledger finishes every unfinished job in-process.

Simulations are deterministic in ``(app, policy, config)``, so serial and
pool execution produce identical :class:`~repro.core.records.RunResult`s —
the engines are interchangeable, only wall-clock differs.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import weakref
from collections import deque
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError

from repro.exec.dispatch import Ledger
from repro.exec.engine import ExecutionEngine, run_unit
from repro.exec.faults import FaultPlan, get_fault_plan, set_fault_plan

__all__ = ["ProcessPoolEngine"]

#: How often a pool worker checks that its coordinator is still alive.
_PARENT_POLL_S = 0.5


def _exit_when_orphaned(parent: int) -> None:
    """Pool-worker watch: exit once the coordinator is gone.  Workers
    block on the call queue, which a SIGKILLed coordinator never closes,
    so without this they would outlive it, reparented, forever."""
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_S)
    os._exit(0)


def _worker_init(prep_key, fault_plan: FaultPlan | None) -> None:
    """Pool-worker initializer: install the shared prep store and the
    active fault plan, and watch for the coordinator's death.

    The prep store runs once per worker process, so every job the worker
    executes opens prepared-program artifacts via
    ``np.load(mmap_mode="r")`` — the same on-disk pages as its siblings,
    shared through the OS page cache rather than regenerated per process.
    """
    if prep_key is not None:
        from repro.prep import configure_prep

        prep_root, prep_version, prep_lru = prep_key
        configure_prep(prep_root, version=prep_version, lru_limit=prep_lru)
    set_fault_plan(fault_plan)
    threading.Thread(
        target=_exit_when_orphaned, args=(os.getppid(),), name="parent-watch", daemon=True
    ).start()


def _shutdown_pool(holder: list, *, wait: bool = False) -> None:
    """Shut an engine's warm pool down; also its finalizer (so it must not
    reference the engine).  Without ``wait``, queued work is cancelled."""
    while holder:
        holder.pop().shutdown(wait=wait, cancel_futures=not wait)


class ProcessPoolEngine(ExecutionEngine):
    """Executes jobs across worker processes.

    Parameters
    ----------
    jobs:
        Worker process count; defaults to ``os.cpu_count()``.  With
        ``jobs <= 1`` (or a single-job batch) the engine short-circuits to
        the in-process serial path — no pool is spawned, so
        ``get_result``-style single lookups pay no fork cost.
    chunk_size:
        Units held in flight on the pool at once, bounding the backlog of
        pickled results.  Defaults to ``2 × jobs`` so every worker has a
        next unit queued while the engine waits on the oldest one.
        Workers are long-lived across units *and* across ``run()``
        invocations (the pool stays warm until :meth:`close`), so
        per-process caches — the compiled-program memo, mmapped prep
        artifacts — amortise over a whole sweep.
    timeout_s:
        Per-job cap on the wall-clock wait for that job's result once the
        engine starts waiting on it (scaled by lane count for a batched
        unit); ``None`` waits forever.
    mp_context:
        Optional ``multiprocessing`` context (e.g. ``get_context("spawn")``).

    Every other keyword (``options``, the retry overrides, ``job_runner``)
    is :class:`~repro.exec.engine.ExecutionEngine`'s.
    """

    name = "process-pool"

    def __init__(
        self,
        jobs: int | None = None,
        *,
        chunk_size: int | None = None,
        timeout_s: float | None = None,
        mp_context=None,
        **engine_kwargs,
    ) -> None:
        super().__init__(**engine_kwargs)
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self.chunk_size = chunk_size if chunk_size is not None else 2 * self.jobs
        self.timeout_s = timeout_s
        self.mp_context = mp_context or multiprocessing.get_context()
        # Warm pool: [executor] while one is alive.  The finalizer closes
        # a leaked pool when the engine is garbage-collected; tests and
        # the CLI should call close() (or use the engine as a context
        # manager) for deterministic teardown.
        self._pool_holder: list[ProcessPoolExecutor] = []
        self._pool_prep_key: tuple | None = None
        self._finalizer = weakref.finalize(self, _shutdown_pool, self._pool_holder)

    @staticmethod
    def _prep_key() -> tuple | None:
        """Identity of the active prep-store config (pool rebuild trigger)."""
        from repro.prep import get_prep_store

        store = get_prep_store()
        if store is None:
            return None
        return (str(store.root), store.version, store.lru_limit)

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """Return the warm pool, (re)building it on first use or when the
        prep-store / fault-plan configuration changed since it was
        forked (workers receive both through the initializer)."""
        key = (self._prep_key(), get_fault_plan())
        if self._pool_holder and self._pool_prep_key != key:
            self._discard_pool(wait=True)
        if not self._pool_holder:
            self._pool_holder.append(
                ProcessPoolExecutor(
                    max_workers=self.jobs,
                    mp_context=self.mp_context,
                    initializer=_worker_init,
                    initargs=key,
                )
            )
            self._pool_prep_key = key
        return self._pool_holder[0]

    def _discard_pool(self, *, wait: bool) -> None:
        _shutdown_pool(self._pool_holder, wait=wait)

    def close(self) -> None:
        """Shut the warm pool down (the engine stays usable; the next
        ``run()`` forks a fresh pool)."""
        self._discard_pool(wait=True)

    def __enter__(self) -> "ProcessPoolEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport ------------------------------------------------------

    def _dispatch(self, ledger: Ledger) -> None:
        if self.jobs <= 1 or len(ledger.specs) == 1:
            # A pool buys nothing here; keep the exact serial semantics.
            self._run_inline(ledger)
            return
        try:
            self._run_on_pool(ledger)
        except (KeyboardInterrupt, SystemExit):
            # Interrupt protocol: never leave a warm pool (and its worker
            # processes) behind when the batch is being torn down.
            self._discard_pool(wait=False)
            raise

    def _run_on_pool(self, ledger: Ledger) -> None:
        """Keep up to ``chunk_size`` units in flight and settle them
        oldest first, so each success reaches ``on_outcome`` (the sweep
        journal) as soon as the engine gets to it."""
        window: deque[tuple[tuple[int, ...], Future]] = deque()
        while True:
            while len(window) < self.chunk_size:
                unit = ledger.claim(wait=False)
                if unit is None:
                    break
                try:
                    future = self._ensure_pool().submit(
                        run_unit,
                        self.job_runner,
                        [ledger.specs[i] for i in unit],
                        ledger.next_attempt(unit),
                    )
                except BrokenExecutor:
                    # A worker died since this pool last ran: nothing was
                    # shipped, so a fresh pool takes the unit.
                    self._discard_pool(wait=False)
                    ledger.release(unit)
                    continue
                except Exception as exc:  # noqa: BLE001 — any build failure degrades
                    # Cannot even build a pool: the ledger runs everything
                    # serially, and says why.
                    ledger.release(unit)
                    ledger.stop(f"pool build failed: {type(exc).__name__}: {exc}")
                    break
                window.append((unit, future))
            if not window:
                return
            unit, future = window.popleft()
            label = ledger.specs[unit[0]].label
            timeout = None if self.timeout_s is None else self.timeout_s * len(unit)
            try:
                results, duration = future.result(timeout=timeout)
            except FutureTimeoutError:
                self._abandon(ledger, window)  # the worker may still be wedged on it
                ledger.fail(unit, f"job {label} timed out after {self.timeout_s:g}s")
            except BrokenExecutor:
                reason = f"pool worker died running {label}"
                if len(unit) == 1:
                    ledger.stop(reason)
                self._abandon(ledger, window)
                ledger.fail(unit, reason)
            except Exception as exc:  # noqa: BLE001 — a job failure is data
                ledger.fail(unit, f"{type(exc).__name__}: {exc}")
            else:
                ledger.succeed(unit, results, duration)

    def _abandon(self, ledger: Ledger, window: deque) -> None:
        """Discard a wedged or broken pool: salvage whatever in ``window``
        already finished; everything else goes back untouched."""
        self._discard_pool(wait=False)
        while window:
            unit, future = window.popleft()
            if future.done() and not future.cancelled():
                exc = future.exception()
                if exc is None:
                    ledger.succeed(unit, *future.result())
                    continue
                if not isinstance(exc, BrokenExecutor):
                    ledger.fail(unit, f"{type(exc).__name__}: {exc}")
                    continue
            future.cancel()
            ledger.release(unit)
