"""Cross-transport contract: serial, pool and remote engines run one
dispatch core, so every retry, fault and batch-decomposition case must
produce the same attempts, the same outcomes, one ``on_outcome`` call per
job, and the same ``exec.*`` / ``batch.failed`` counter deltas.

Remote workers run in-process (``WorkerServer.start()`` threads), as in
``tests/test_dist_engine.py``; pool workers are forked, so the job
runners here are module-level and keep cross-process state in marker
files.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

from repro.cache import CacheGeometry
from repro.cache.stats import StatsSnapshot
from repro.core.records import RunResult
from repro.dist import RemoteEngine, WorkerServer
from repro.exec.dispatch import Ledger
from repro.exec.engine import SerialEngine
from repro.exec.faults import FaultPlan, FaultRule, set_fault_plan
from repro.exec.jobs import JobSpec
from repro.exec.pool import ProcessPoolEngine
from repro.obs.metrics import METRICS
from repro.sim.config import SystemConfig

TRANSPORTS = ("serial", "pool", "remote")
COUNTERS = ("exec.jobs_ok", "exec.jobs_failed", "exec.retries", "batch.failed")

CONFIG = SystemConfig(
    n_threads=4,
    l2_geometry=CacheGeometry(sets=16, ways=8),
    interval_instructions=1_500,
    n_intervals=5,
    sections_per_interval=2,
)

#: Marker directory for :func:`_fails_once` (set per test, inherited by
#: forked pool workers and shared with in-process remote workers).
_MARKS: Path | None = None


def _dummy_result(spec: JobSpec) -> RunResult:
    zeros = (0,)
    snap = StatsSnapshot(zeros, zeros, zeros, zeros, zeros, zeros, zeros)
    return RunResult(
        app=spec.app,
        policy=spec.policy,
        n_threads=1,
        total_cycles=1.0,
        thread_instructions=(1,),
        thread_busy_cycles=(1.0,),
        thread_stall_cycles=(0.0,),
        l2_totals=snap,
    )


def _echo(spec: JobSpec) -> RunResult:
    return _dummy_result(spec)


def _fails_once(spec: JobSpec) -> RunResult:
    """``art`` fails its first attempt, wherever that attempt runs."""
    if spec.app == "art":
        mark = _MARKS / spec.digest
        if not mark.exists():
            mark.touch()
            raise RuntimeError("first attempt fails")
    return _dummy_result(spec)


def _art_always_fails(spec: JobSpec) -> RunResult:
    if spec.app == "art":
        raise ValueError("art always fails")
    return _dummy_result(spec)


@pytest.fixture
def marks(tmp_path, monkeypatch):
    monkeypatch.setattr(f"{__name__}._MARKS", tmp_path)
    return tmp_path


@pytest.fixture
def engines():
    """Factory ``(transport, **engine_kwargs) -> engine``; tears down pools
    and in-process workers after the test."""
    pools: list[ProcessPoolEngine] = []
    workers: list[WorkerServer] = []

    def make(transport: str, **kwargs):
        if transport == "serial":
            return SerialEngine(**kwargs)
        if transport == "pool":
            pool = ProcessPoolEngine(2, **kwargs)
            pools.append(pool)
            return pool
        runner = kwargs.get("job_runner")
        fleet = [WorkerServer(job_runner=runner).start() for _ in range(2)]
        workers.extend(fleet)
        return RemoteEngine([w.address for w in fleet], **kwargs)

    try:
        yield make
    finally:
        for pool in pools:
            pool.close()
        for worker in workers:
            worker.stop()


def _run(engine, specs):
    """Run ``specs``; return (outcomes, on_outcome calls, counter deltas)."""
    before = METRICS.snapshot()["counters"]
    seen = []
    outcomes = engine.run(specs, on_outcome=seen.append)
    after = METRICS.snapshot()["counters"]
    deltas = {name: after.get(name, 0) - before.get(name, 0) for name in COUNTERS}
    return outcomes, seen, deltas


def _check(outcomes, seen, specs, *, attempts, ok):
    assert [o.spec for o in outcomes] == specs, "outcomes come back in input order"
    assert [o.attempts for o in outcomes] == attempts
    assert [o.ok for o in outcomes] == ok
    assert sorted(o.spec.label for o in seen) == sorted(s.label for s in specs), (
        "exactly one on_outcome call per job"
    )


def _specs(*apps: str) -> list[JobSpec]:
    return [JobSpec(app, "shared", CONFIG) for app in apps]


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_fail_once_then_succeed(transport, engines, marks):
    specs = _specs("ft", "art", "cg")
    engine = engines(transport, max_retries=2, backoff_s=0.0, job_runner=_fails_once)
    outcomes, seen, deltas = _run(engine, specs)
    _check(outcomes, seen, specs, attempts=[1, 2, 1], ok=[True, True, True])
    assert deltas == {
        "exec.jobs_ok": 3, "exec.jobs_failed": 0, "exec.retries": 1, "batch.failed": 0
    }


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_exhausted_retries(transport, engines):
    specs = _specs("ft", "art", "cg")
    engine = engines(transport, max_retries=1, backoff_s=0.0, job_runner=_art_always_fails)
    outcomes, seen, deltas = _run(engine, specs)
    _check(outcomes, seen, specs, attempts=[1, 2, 1], ok=[True, False, True])
    assert outcomes[1].error == "ValueError: art always fails"
    assert deltas == {
        "exec.jobs_ok": 2, "exec.jobs_failed": 1, "exec.retries": 2, "batch.failed": 0
    }


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_fault_plan_job_exception_on_first_attempt(transport, engines):
    set_fault_plan(
        FaultPlan(rules=(FaultRule(kind="job-exception", match="cg/*", attempts=(1,)),))
    )
    specs = _specs("ft", "cg")
    engine = engines(transport, max_retries=1, backoff_s=0.0, job_runner=_echo)
    outcomes, seen, deltas = _run(engine, specs)
    _check(outcomes, seen, specs, attempts=[1, 2], ok=[True, True])
    assert deltas == {
        "exec.jobs_ok": 2, "exec.jobs_failed": 0, "exec.retries": 1, "batch.failed": 0
    }
    assert METRICS.counter("faults.injected.job-exception").value == 1


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_failed_batch_unit_decomposes(transport, engines, monkeypatch):
    """A unit whose batched replay raises counts ``batch.failed`` once and
    consumes no attempt: its cells rerun singly with full budgets."""

    def _explode(specs):
        raise RuntimeError("kernel exploded")

    monkeypatch.setattr("repro.exec.batch.execute_batch", _explode)
    specs = [JobSpec("swim", policy, CONFIG) for policy in ("shared", "model-based")]
    engine = engines(transport, backoff_s=0.0)
    outcomes, seen, deltas = _run(engine, specs)
    _check(outcomes, seen, specs, attempts=[1, 1], ok=[True, True])
    assert deltas == {
        "exec.jobs_ok": 2, "exec.jobs_failed": 0, "exec.retries": 0, "batch.failed": 1
    }
    assert engine.degraded_reasons == []


def test_ledger_under_concurrent_claimers():
    """Many threads (more than cores, tiny switch interval) claim from one
    ledger, failing a deterministic subset of attempts: every job must be
    finalised exactly once, with the attempt count and counters the
    failure pattern implies — a lost update would break either."""
    def fails(idx: int, attempt: int) -> bool:
        return (idx * 7 + attempt * 3) % 5 < 2

    n_jobs, max_retries = 300, 2
    engine = SerialEngine(max_retries=max_retries, backoff_s=0.0)
    specs = [JobSpec("ft", "shared", CONFIG.with_(seed=i)) for i in range(n_jobs)]
    seen = []
    ledger = Ledger(engine, specs, [(i,) for i in range(n_jobs)], seen.append)

    def claimer() -> None:
        while (unit := ledger.claim()) is not None:
            (idx,) = unit
            if fails(idx, ledger.next_attempt(unit)):
                ledger.fail(unit, "boom")
            else:
                ledger.succeed(unit, [_dummy_result(specs[idx])], 0.0)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=claimer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(previous)

    expected_attempts, expected_failed = [], 0
    for idx in range(n_jobs):
        attempt = 1
        while fails(idx, attempt) and attempt <= max_retries:
            attempt += 1
        expected_attempts.append(attempt)
        expected_failed += fails(idx, attempt)
    assert [o.attempts for o in ledger.outcomes] == expected_attempts
    assert sorted(seen, key=lambda o: o.spec.config.seed) == ledger.outcomes
    assert len(seen) == n_jobs
    counters = METRICS.snapshot()["counters"]
    assert counters.get("exec.jobs_failed", 0) == expected_failed
    assert counters.get("exec.jobs_ok", 0) == n_jobs - expected_failed
    assert counters.get("exec.retries", 0) == sum(expected_attempts) - (n_jobs - expected_failed)


def test_serial_transport_starts_no_thread(marks):
    """The serial engine attempts every unit, retries included, on the
    calling thread and starts no other."""
    before = threading.active_count()
    threads_seen = []
    engine = SerialEngine(max_retries=1, backoff_s=0.0, job_runner=_fails_once)
    engine.run(
        _specs("ft", "art"),
        on_outcome=lambda _: threads_seen.append(
            (threading.current_thread(), threading.active_count())
        ),
    )
    assert threads_seen == [(threading.main_thread(), before)] * 2
