"""RemoteEngine: the transport that runs a batch on a worker fleet.

One dispatcher thread per worker address claims units from the run's
:class:`~repro.exec.dispatch.Ledger` and ships them over the wire
(``repro.dist.protocol``); the ledger records every outcome under one
lock, exactly as for the in-process engines.  The coordinator owns all
retry state: a worker executes exactly one attempt per ``job`` frame,
which is what makes attempts transferable between workers when one
dies.

Failure model (DESIGN.md §G):

* an attempt that fails *on* a worker (job exception) is a normal retry
  — the same ledger, budget and backoff as every other engine;
* a link that dies *after* a job was shipped consumes that attempt (the
  coordinator cannot know how far the worker got, and the simulation is
  deterministic, so re-running is always safe) and the dispatcher
  reconnects; if the worker stays unreachable it is declared lost and
  its in-flight job is requeued for the rest of the fleet;
* when every worker is lost, the ledger degrades the rest to the
  in-process serial path — the one loud, per-batch degradation every
  engine shares — so a sweep *always* completes with an outcome per job.

Network faults (``slow-link``, ``conn-drop``, ``partition``) fire on the
coordinator side of the wire, keyed on ``(job label, attempt)`` by the
same seeded roll as every other injector; ``worker-vanish`` fires on the
worker.  Determinism in the key — not in socket timing — is what keeps
``SweepResult.aggregates()`` byte-identical to a serial run under chaos.
"""

from __future__ import annotations

import socket
import threading
import time
from collections.abc import Sequence

from repro.core.records import RunResult
from repro.dist import codec
from repro.dist.protocol import ProtocolError, hello_frame, recv_frame, send_frame
from repro.dist.registry import WorkerRegistry, format_address, parse_worker_address
from repro.exec.dispatch import Ledger
from repro.exec.engine import ExecutionEngine
from repro.exec.faults import announce_faults, get_fault_plan
from repro.obs.events import JobShippedEvent
from repro.obs.metrics import METRICS
from repro.obs.tracer import get_tracer

__all__ = ["RemoteEngine"]

class _Link:
    """One live, handshaken connection to a worker."""

    __slots__ = ("sock", "worker_id", "pid", "caps")

    def __init__(
        self,
        sock: socket.socket,
        worker_id: str,
        pid: int,
        caps: frozenset[str] = frozenset(),
    ) -> None:
        self.sock = sock
        self.worker_id = worker_id
        self.pid = pid
        self.caps = caps

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def _decode_lanes(frame: dict, *, batched: bool) -> tuple[list, list]:
    """``(results, published total cycles)`` per lane of a successful
    answer.  A job answers with its outcome frame, a batch with one
    payload per lane; a lane the worker filed in the shared store itself
    carries only its summary, so its result is None."""
    if batched:
        lanes = frame.get("results") or []
    else:
        lanes = [frame if frame.get("published") else frame.get("result")]
    results, published = [], []
    for lane in lanes:
        if lane.get("published") and lane.get("total_cycles") is not None:
            METRICS.counter("dist.results_published").inc()
            results.append(None)
            published.append(lane["total_cycles"])
        else:
            results.append(RunResult.from_dict(lane))
            published.append(None)
    return results, published


class RemoteEngine(ExecutionEngine):
    """Dispatches jobs to remote workers over length-prefixed JSON/TCP.

    Parameters
    ----------
    workers:
        Worker addresses (``"host:port"`` strings or ``(host, port)``
        pairs).  ``jobs`` — the engine's parallelism as the serve layer's
        admission control sees it — is the live fleet size.  May be empty
        when a ``membership`` source is given.
    membership:
        Optional discovery source — anything with ``addresses() ->
        [(host, port), ...]`` (a fleet registrar, a file registry, the
        engine's own :class:`WorkerRegistry`).  With a membership source
        the batch loop polls it while the batch runs and *admits late
        joiners mid-sweep*: each newly advertised address gets its own
        dispatcher thread against the run's shared ledger.  A
        batch started against an empty fleet waits up to ``fleet_wait_s``
        for the first worker before degrading to serial.
    publish_results:
        Ask workers advertising the ``store-publish`` cap to file results
        in their configured shared store themselves; the outcome frame
        then carries only the cell summary (no result bytes).  Leave off
        for paths that need ``JobOutcome.result`` locally (``repro run``).
    connect_timeout_s / io_timeout_s:
        Socket budgets for establishing a link and for one frame
        round-trip.  A worker that blows ``io_timeout_s`` mid-job is
        treated as lost (its attempt is consumed and requeued).

    Every other keyword (``options``, the retry overrides, ``job_runner``)
    is :class:`~repro.exec.engine.ExecutionEngine`'s; ``job_runner`` only
    runs locally on the degrade-to-serial path (workers run their own).
    """

    name = "remote"

    def __init__(
        self,
        workers: Sequence,
        *,
        connect_timeout_s: float = 10.0,
        io_timeout_s: float | None = 600.0,
        membership=None,
        fleet_poll_s: float = 0.25,
        fleet_wait_s: float = 60.0,
        publish_results: bool = False,
        **engine_kwargs,
    ) -> None:
        super().__init__(**engine_kwargs)
        self.addresses = [parse_worker_address(w) for w in workers or ()]
        self.membership = membership
        if not self.addresses and membership is None:
            raise ValueError(
                "RemoteEngine needs at least one worker address or a membership source"
            )
        self.fleet_poll_s = fleet_poll_s
        self.fleet_wait_s = fleet_wait_s
        self.publish_results = publish_results
        self.connect_timeout_s = connect_timeout_s
        self.io_timeout_s = io_timeout_s
        self.registry = WorkerRegistry()

    @property
    def jobs(self) -> int:
        """Live parallelism estimate for schedulers and admission control:
        the widest of the static list, the discovered membership, and the
        currently connected fleet — never below 1."""
        known = len(self.addresses)
        if self.membership is not None:
            try:
                known = max(known, len(self._membership_addresses()))
            except Exception:
                pass
        return max(known, len(self.registry), 1)

    def _membership_addresses(self) -> list[tuple[str, int]]:
        """The discovery source's current view, normalised; empty on error
        (a briefly unreachable registrar must not kill a running batch)."""
        if self.membership is None:
            return []
        try:
            return [parse_worker_address(a) for a in self.membership.addresses()]
        except Exception:
            return []

    # -- transport ------------------------------------------------------

    def _dispatch(self, ledger: Ledger) -> None:
        """One dispatcher thread per worker claims units from the shared
        ledger; with a membership source, late joiners get their own.
        When every dispatcher is gone with work left, the ledger degrades
        the rest to serial, naming the last loss."""
        grid_digest = codec.batch_digest(ledger.specs)
        last_error = ["no workers reached"]
        threads: dict[str, threading.Thread] = {}

        def spawn(address: tuple[str, int]) -> None:
            key = format_address(address)
            thread = threading.Thread(
                target=self._dispatch_loop,
                args=(address, ledger, grid_digest, last_error),
                name=f"dispatch-{key}",
                daemon=True,
            )
            threads[key] = thread
            thread.start()

        for address in self.addresses:
            spawn(address)
        if self.membership is None:
            for thread in threads.values():
                thread.join()
        else:
            self._run_with_admission(ledger, threads, spawn, last_error)
        if not ledger.done:
            ledger.stop(f"all workers lost ({last_error[0]})")

    def _run_with_admission(self, ledger: Ledger, threads, spawn, last_error) -> None:
        """Poll the membership source while the batch runs, admitting late
        joiners mid-sweep.

        Each advertised address gets at most one dispatcher per batch —
        a relaunched worker announces a fresh port, so respawning against
        a dead-but-still-advertised address would only livelock.  The
        batch ends when every outcome is in, or when no dispatcher has
        been alive for ``fleet_wait_s`` (empty or fully dead fleet) — the
        ledger then degrades the leftovers to serial, loudly.
        """
        idle_since: float | None = None
        while True:
            for address in self._membership_addresses():
                if format_address(address) not in threads:
                    METRICS.counter("dist.workers_admitted").inc()
                    spawn(address)
            if ledger.done:
                break
            if any(t.is_alive() for t in threads.values()):
                idle_since = None
            else:
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                elif now - idle_since >= self.fleet_wait_s:
                    if not threads:
                        last_error[0] = f"no workers discovered within {self.fleet_wait_s:.0f}s"
                    break
            time.sleep(self.fleet_poll_s)
        for thread in threads.values():
            thread.join(timeout=5.0)

    # -- per-worker dispatcher -----------------------------------------

    def _dispatch_loop(
        self, address: tuple[str, int], ledger: Ledger, grid_digest: str, last_error: list
    ) -> None:
        """Attempt claimed units on one worker until the batch drains or
        the worker is lost.

        Attempt accounting: a failure *before* a unit is shipped
        (connect/handshake) consumes nothing — the unit is released for
        the rest of the fleet and the worker marked lost.  A failure
        *after* shipping consumes the attempt (the coordinator cannot
        know how far the worker got; reruns are safe by determinism),
        and a reachability probe decides between reconnecting and lost.
        A worker that cannot batch gets multi-lane units split back into
        single jobs.
        """
        plan = get_fault_plan()
        link: _Link | None = None
        try:
            while (unit := ledger.claim()) is not None:
                if plan is not None and len(unit) == 1:
                    verdict = self._apply_net_faults(ledger, unit, plan)
                    if verdict == "conn-drop":
                        if link is not None:
                            link.close()
                            link = None
                        continue
                    if verdict == "partition":
                        continue
                if link is None:
                    try:
                        link = self._connect(address, grid_digest, plan)
                    except (OSError, ProtocolError) as exc:
                        last_error[0] = f"{format_address(address)}: {exc}"
                        ledger.release(unit)
                        self.registry.note_lost(address, str(exc), requeued=len(unit))
                        return
                if len(unit) > 1 and "batch" not in link.caps:
                    METRICS.counter("dist.batch_unsupported").inc()
                    ledger.release(unit, split=True)
                    continue
                try:
                    frame = self._exchange(link, ledger, unit, grid_digest)
                except (OSError, ProtocolError) as exc:
                    error = f"worker {format_address(address)} lost: {exc}"
                    link.close()
                    link = None
                    ledger.fail(unit, error)
                    if not self._reachable(address):
                        last_error[0] = error
                        self.registry.note_lost(address, str(exc), requeued=len(unit))
                        return
                    continue
                if not frame.get("ok"):
                    ledger.fail(unit, str(frame.get("error")))
                    continue
                results, published = _decode_lanes(frame, batched=len(unit) > 1)
                ledger.succeed(
                    unit, results, float(frame.get("duration_s", 0.0)), published=published
                )
        finally:
            if link is not None:
                try:
                    send_frame(link.sock, {"type": "bye"})
                except OSError:
                    pass
                link.close()

    def _connect(
        self, address: tuple[str, int], grid_digest: str, plan
    ) -> _Link:
        sock = socket.create_connection(address, timeout=self.connect_timeout_s)
        sock.settimeout(self.io_timeout_s)
        send_frame(
            sock, hello_frame(grid_digest, None if plan is None else plan.to_dict())
        )
        welcome = recv_frame(sock)
        if welcome is None or welcome.get("type") != "welcome":
            error = (welcome or {}).get("error", "worker closed during handshake")
            sock.close()
            raise ProtocolError(f"handshake refused: {error}")
        link = _Link(
            sock,
            str(welcome.get("worker_id", "?")),
            int(welcome.get("pid", 0)),
            frozenset(welcome.get("caps") or ()),
        )
        self.registry.note_join(address, link.worker_id, link.pid)
        return link

    def _reachable(self, address: tuple[str, int]) -> bool:
        """Cheap liveness probe after a link death: can the worker still
        accept?  Distinguishes a dropped connection (reconnect and carry
        on) from a vanished worker (declare it lost)."""
        try:
            socket.create_connection(address, timeout=self.connect_timeout_s).close()
            return True
        except OSError:
            return False

    def _exchange(
        self, link: _Link, ledger: Ledger, unit: tuple[int, ...], grid_digest: str
    ) -> dict:
        """Ship ``unit`` (a ``job`` frame, or a ``batch`` frame for a
        multi-lane unit) and read frames until its answer, serving
        ``prep_fetch`` requests inline from the coordinator's prep store."""
        specs = [ledger.specs[i] for i in unit]
        METRICS.counter("dist.jobs_shipped").inc(len(specs))
        if len(unit) == 1:
            spec = specs[0]
            attempt = ledger.next_attempt(unit)
            tracer = get_tracer()
            if tracer.enabled:
                tracer.emit(
                    JobShippedEvent(label=spec.label, worker=link.worker_id, attempt=attempt)
                )
            frame = {
                "type": "job",
                "grid_digest": grid_digest,
                "attempt": attempt,
                **codec.encode_spec(spec),
            }
            answer, digest, label = "outcome", spec.digest, spec.label
        else:
            METRICS.counter("dist.batches_shipped").inc()
            frame = {
                "type": "batch",
                "grid_digest": grid_digest,
                "digest": codec.batch_digest(specs),
                "jobs": [codec.encode_spec(spec) for spec in specs],
            }
            answer, digest = "batch_outcome", frame["digest"]
            label = f"batch[{specs[0].label}+{len(specs) - 1}]"
        if self.publish_results and "store-publish" in link.caps:
            frame["publish"] = True
        send_frame(link.sock, frame)
        while True:
            reply = recv_frame(link.sock)
            if reply is None:
                raise ProtocolError(f"worker closed while running {label}")
            if reply["type"] == "prep_fetch":
                self._serve_prep_fetch(link, reply)
                continue
            if reply["type"] == "error":
                raise ProtocolError(str(reply.get("error")))
            if reply["type"] != answer:
                raise ProtocolError(f"unexpected frame {reply['type']!r} awaiting {answer}")
            if reply.get("digest") != digest:
                raise ProtocolError(
                    f"{answer} digest {reply.get('digest')!r} does not answer {label}"
                )
            return reply

    def _serve_prep_fetch(self, link: _Link, frame: dict) -> None:
        from repro.prep import get_prep_store

        store = get_prep_store()
        bundle = store.get(frame.get("key")) if store is not None else None
        if bundle is None:
            send_frame(link.sock, {"type": "prep_bundle", "found": False})
            return
        METRICS.counter("dist.prep_shipped").inc()
        send_frame(
            link.sock,
            {
                "type": "prep_bundle",
                "found": True,
                "bundle": codec.encode_prep_bundle(bundle.meta, bundle.arrays),
            },
        )

    # -- fault hooks ----------------------------------------------------

    def _apply_net_faults(self, ledger: Ledger, unit: tuple[int, ...], plan) -> str:
        """Coordinator-side network faults for the job's next attempt.

        Returns ``"ok"``, or the fault kind that consumed the attempt on
        the wire itself: ``"partition"`` ate the frame, ``"conn-drop"``
        killed the link before the job landed (the caller drops its
        link).  ``slow-link`` only delays.  ``worker-vanish`` is executed
        by the worker; nothing to do here (the link death comes back as
        an ``OSError``/EOF and takes the lost-worker path).
        """
        label = ledger.specs[unit[0]].label
        attempt = ledger.next_attempt(unit)
        for rule in plan.planned_net_faults(label, attempt):
            if rule.kind == "slow-link":
                announce_faults((rule,), label, attempt)
                time.sleep(rule.delay_s)
            elif rule.kind in ("partition", "conn-drop"):
                announce_faults((rule,), label, attempt)
                # The job never ran, so its job faults did not fire.
                error = f"injected {rule.kind} for {label} (attempt {attempt})"
                ledger.fail(unit, error, announce=False)
                return rule.kind
        return "ok"
