"""Deterministic, seeded fault injection for the execution layer.

Every degradation path in the execution layer — retry on job exception,
pool abandonment on timeout, degradation to serial on worker death,
corrupt-artifact eviction in the stores — exists to survive events that
are hard to produce on demand.  This module makes them drivable: a
:class:`FaultPlan` decides, as a *pure function* of ``(seed, kind,
job_key, attempt)``, whether a fault fires at each hook point, so the
same plan injects the same faults whatever the engine, process layout or
execution order.  That determinism is what lets the chaos suite assert
byte-identical aggregates across serial/pool runs and across
kill/resume boundaries.

Injector kinds
--------------
``delay``
    Sleep ``delay_s`` before the job attempt runs (drives timeout and
    backoff-budget paths).
``job-exception``
    Raise :class:`InjectedFault` inside the job runner (drives the retry
    loop; the attempt is consumed).
``worker-death``
    ``os._exit(3)`` inside a pool worker (drives ``BrokenProcessPool``
    abandonment and degradation to serial).  In-process engines cannot
    lose their process, so there the injector falls back to raising
    :class:`InjectedFault` — documented, still consuming the attempt.
``artifact-corruption``
    Truncate a just-published store entry (ResultStore payload or
    PrepStore manifest), driving the corrupt-evict-regenerate path on
    the next read.

Network kinds (fired by :mod:`repro.dist` at its socket hook points; the
in-process engines never roll them):

``slow-link``
    Sleep ``delay_s`` before a job frame is sent to a worker (drives
    dispatch latency without consuming an attempt).
``conn-drop``
    Close the worker connection after shipping the job — the attempt is
    consumed, the coordinator reconnects and retries.
``partition``
    The link silently eats the job frame: the attempt is consumed and
    retried, the socket survives.
``worker-vanish``
    The worker process exits mid-job (``os._exit(3)``), driving the
    worker-lost / redistribute path.  In-thread test workers emulate the
    vanish by closing their sockets instead of killing the test process.

Zero overhead when disabled: the process-wide plan slot defaults to
``None`` and every hook site guards with one ``is None`` check before
doing any work.  Pool engines ship the active plan to their workers
through the pool initializer (it is a frozen, picklable dataclass), and
— because decisions are deterministic — the coordinator's dispatch
ledger announces each planned job fault as an obs event/counter when it
counts the attempt, so injections stay visible even when they fire in a
worker process whose tracer and metrics the coordinator cannot see.
"""

from __future__ import annotations

import fnmatch
import hashlib
import multiprocessing
import os
import time
from dataclasses import dataclass

from repro.obs.events import FaultInjectedEvent
from repro.obs.metrics import METRICS
from repro.obs.tracer import get_tracer

__all__ = [
    "FAULT_KINDS",
    "NET_FAULT_KINDS",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "get_fault_plan",
    "set_fault_plan",
]

FAULT_KINDS = (
    "delay",
    "job-exception",
    "worker-death",
    "artifact-corruption",
    "slow-link",
    "conn-drop",
    "partition",
    "worker-vanish",
)

_JOB_KINDS = ("delay", "job-exception", "worker-death")

NET_FAULT_KINDS = ("slow-link", "conn-drop", "partition", "worker-vanish")


class InjectedFault(RuntimeError):
    """Raised by a ``job-exception`` (or in-process ``worker-death``)
    injector; engines treat it like any other job failure."""


@dataclass(frozen=True)
class FaultRule:
    """One injector: fire ``kind`` on matching ``(job_key, attempt)``.

    ``match`` is an ``fnmatch`` pattern over the job key (a job's
    ``spec.label`` such as ``"swim/model-based"``; an artifact's digest
    for ``artifact-corruption``).  ``attempts`` restricts the rule to
    specific attempt numbers (1-based) — ``(1,)`` makes a job fail once
    and succeed on retry; ``None`` fires on every attempt, which is how
    a perpetually-failing job is expressed.  ``rate`` thins the rule to
    a deterministic pseudo-random fraction of matching keys (seeded by
    the plan, so the *same* keys are chosen every run).
    """

    kind: str
    match: str = "*"
    rate: float = 1.0
    attempts: tuple[int, ...] | None = None
    delay_s: float = 0.25

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")
        if self.attempts is not None:
            object.__setattr__(self, "attempts", tuple(int(a) for a in self.attempts))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "match": self.match,
            "rate": self.rate,
            "attempts": None if self.attempts is None else list(self.attempts),
            "delay_s": self.delay_s,
        }


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of :class:`FaultRule`\\ s; pure data, safe to pickle
    into pool workers and to compare for pool-rebuild decisions."""

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        rules = tuple(
            FaultRule(
                kind=r["kind"],
                match=r.get("match", "*"),
                rate=r.get("rate", 1.0),
                attempts=None if r.get("attempts") is None else tuple(r["attempts"]),
                delay_s=r.get("delay_s", 0.25),
            )
            for r in payload.get("rules", ())
        )
        return cls(seed=int(payload.get("seed", 0)), rules=rules)

    def to_dict(self) -> dict:
        return {"seed": self.seed, "rules": [r.to_dict() for r in self.rules]}

    def _roll(self, kind: str, key: str, attempt: int) -> float:
        """Deterministic uniform in [0, 1) for one ``(kind, key, attempt)``."""
        token = f"{self.seed}:{kind}:{key}:{attempt}".encode()
        digest = hashlib.sha256(token).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def select(self, kind: str, key: str, attempt: int) -> FaultRule | None:
        """First rule of ``kind`` that fires for ``(key, attempt)``, if any."""
        for rule in self.rules:
            if rule.kind != kind:
                continue
            if rule.attempts is not None and attempt not in rule.attempts:
                continue
            if not fnmatch.fnmatchcase(key, rule.match):
                continue
            if rule.rate >= 1.0 or self._roll(kind, key, attempt) < rule.rate:
                return rule
        return None

    def planned_job_faults(self, key: str, attempt: int) -> tuple[FaultRule, ...]:
        """Every job-scoped fault that will fire for ``(key, attempt)`` —
        computable anywhere, which is what lets the coordinator announce
        faults its workers execute."""
        out = []
        for kind in _JOB_KINDS:
            rule = self.select(kind, key, attempt)
            if rule is not None:
                out.append(rule)
        return tuple(out)

    def planned_net_faults(self, key: str, attempt: int) -> tuple[FaultRule, ...]:
        """Every network fault that will fire when ``(key, attempt)`` is
        shipped to a worker.  Deterministic in the same roll as every
        other kind, so coordinator and worker agree on what the wire
        does without speaking — the property that keeps remote sweeps
        byte-identical under chaos."""
        out = []
        for kind in NET_FAULT_KINDS:
            rule = self.select(kind, key, attempt)
            if rule is not None:
                out.append(rule)
        return tuple(out)


# ----------------------------------------------------------------------
# Process-wide active plan (None = injection disabled, the default).
# ----------------------------------------------------------------------

_PLAN: FaultPlan | None = None


def get_fault_plan() -> FaultPlan | None:
    """The process-wide fault plan, or None when injection is off."""
    return _PLAN


def set_fault_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Install ``plan`` process-wide; returns the previous plan (tests
    restore it)."""
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    return previous


def announce_faults(rules: tuple[FaultRule, ...], key: str, attempt: int) -> None:
    """Record planned injections in obs (counter per kind + trace event)."""
    tracer = get_tracer()
    for rule in rules:
        METRICS.counter(f"faults.injected.{rule.kind}").inc()
        if tracer.enabled:
            tracer.emit(FaultInjectedEvent(fault=rule.kind, key=key, attempt=attempt))


def execute_job_faults(rules: tuple[FaultRule, ...], key: str, attempt: int) -> None:
    """Carry planned job faults out, in deterministic order: delay first
    (so a delayed job can still subsequently fail), then exception, then
    worker death.  Raises :class:`InjectedFault` / never returns on the
    fatal kinds."""
    for rule in rules:
        if rule.kind == "delay":
            time.sleep(rule.delay_s)
    for rule in rules:
        if rule.kind == "job-exception":
            raise InjectedFault(f"injected job-exception for {key} (attempt {attempt})")
    for rule in rules:
        if rule.kind == "worker-death":
            if multiprocessing.parent_process() is not None:
                os._exit(3)
            # An in-process engine cannot lose its worker without losing
            # the whole run; degrade the injector to a consumed attempt.
            raise InjectedFault(f"injected worker-death for {key} (attempt {attempt})")


def fire_job_faults(key: str, attempt: int) -> None:
    """Hook for job-attempt sites (inline, pool worker, remote worker):
    carry out the job faults the plan selects for ``(key, attempt)``.

    It never announces them: the dispatch ledger does when it counts the
    attempt, so an attempt is announced the same wherever it ran.
    """
    plan = _PLAN
    if plan is None:
        return
    rules = plan.planned_job_faults(key, attempt)
    if rules:
        execute_job_faults(rules, key, attempt)


def maybe_corrupt_artifact(path, key: str) -> bool:
    """Hook for store publish sites: truncate the file at ``path`` to half
    its size when the active plan selects ``(key, attempt=0)`` for
    ``artifact-corruption``.  Returns True when the artifact was bitten
    (the caller's next read exercises its corrupt-evict path)."""
    plan = _PLAN
    if plan is None:
        return False
    rule = plan.select("artifact-corruption", key, 0)
    if rule is None:
        return False
    announce_faults((rule,), key, 0)
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.truncate(size // 2)
    return True


def maybe_corrupt_blob(backend, key: str, label: str) -> bool:
    """Backend-flavoured :func:`maybe_corrupt_artifact`: rewrite the blob
    at ``key`` truncated to half, whatever the backend's medium.  Same
    roll (``artifact-corruption``, attempt 0), same observable effect —
    the next read parses garbage and takes the corrupt-evict path."""
    plan = _PLAN
    if plan is None:
        return False
    rule = plan.select("artifact-corruption", label, 0)
    if rule is None:
        return False
    announce_faults((rule,), label, 0)
    data = backend.read(key)
    if data is None:
        return False
    backend.write(key, data[: len(data) // 2])
    return True
