"""Event-driven CMP execution engine.

The engine replays compiled per-thread L2 streams against the shared L2,
interleaving threads by their simulated cycle clocks: at every step the
thread with the smallest clock issues its next L2 access, pays the L2-hit
or memory latency, and advances.  This gives timing *feedback* — a thread
slowed down by misses issues its subsequent accesses later, exactly the
coupling that makes inter-thread cache contention interesting.

Two pieces of program structure are enforced here:

* **Barriers** (paper §III-B): at the end of every parallel section all
  threads synchronise to the latest arrival; the waiting time of early
  threads is accounted as stall (slack) and excluded from busy CPI.

* **Execution intervals** (paper §VI): after every
  ``interval_instructions × n_threads`` aggregate instructions, the engine
  hands an :class:`IntervalObservation` to the runtime system, which may
  return new way targets; the engine applies them to the cache and charges
  the configured runtime overhead to every core.
"""

from __future__ import annotations

from repro.cache.shared import PartitionedSharedCache
from repro.core.records import IntervalObservation, IntervalRecord, RunResult
from repro.cpu.streams import CompiledProgram
from repro.cpu.timing import TimingModel
from repro.obs.events import ConvergenceEvent
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sync.barrier import BarrierLog

__all__ = ["CMPEngine"]


class CMPEngine:
    """Replays one compiled program under one partitioning runtime.

    Parameters
    ----------
    compiled:
        The program, pre-filtered through the private L1s.
    l2:
        The shared cache (partition enforcement configured by the policy).
    timing:
        Latency model; the runtime overhead per reconfiguration comes from
        here as well.
    runtime:
        Object with ``on_interval(observation) -> list[int] | None``; a
        returned list becomes the new way targets.  ``None`` disables the
        runtime entirely (static policies still get interval records).
    interval_instructions:
        Interval length in instructions *per thread* (the aggregate tick is
        this value times the thread count), mirroring the paper's
        15 M-instruction intervals at our scale.
    tracer:
        Telemetry sink for per-interval ``convergence`` events (the
        runtime emits ``interval``/``repartition`` itself).  Defaults to
        the runtime's tracer, so wiring one through
        :func:`repro.sim.run_application` covers both.
    """

    def __init__(
        self,
        compiled: CompiledProgram,
        l2: PartitionedSharedCache,
        timing: TimingModel,
        runtime=None,
        *,
        interval_instructions: int = 12_000,
        tracer: Tracer | None = None,
    ) -> None:
        if l2.n_threads != compiled.n_threads:
            raise ValueError(
                f"cache is shared by {l2.n_threads} threads but program has {compiled.n_threads}"
            )
        if interval_instructions < 1:
            raise ValueError("interval_instructions must be >= 1")
        self.compiled = compiled
        self.l2 = l2
        self.timing = timing
        self.runtime = runtime
        self.interval_instructions = interval_instructions
        if tracer is None:
            tracer = getattr(runtime, "tracer", None)
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def run(self) -> RunResult:
        """Replay the program through the readable reference loop.

        The compiled lane kernel of :mod:`repro.cache.batch` transcribes
        this loop; ``tests/test_cache_differential.py`` pins the two
        byte-identical.
        """
        n = self.compiled.n_threads
        timing = self.timing
        l2 = self.l2
        l2_hit_cycles = timing.l2_hit_cycles
        access = l2.access

        clock = [0.0] * n
        busy = [0.0] * n
        instr = [0] * n
        stall = [0.0] * n
        barriers = BarrierLog(n)
        intervals: list[IntervalRecord] = []

        tick_len = self.interval_instructions * n
        next_tick = tick_len
        total_instr = 0
        interval_index = 0
        tick_instr = [0] * n
        tick_busy = [0.0] * n
        tick_snapshot = l2.stats.snapshot()
        tracer = self.tracer
        trace_on = tracer.enabled
        policy_name = getattr(self.runtime, "name", "none")

        def fire_tick(running: list[bool] | None = None) -> None:
            nonlocal next_tick, interval_index, tick_snapshot
            snap = l2.stats.snapshot()
            d_instr = tuple(instr[t] - tick_instr[t] for t in range(n))
            d_busy = tuple(busy[t] - tick_busy[t] for t in range(n))
            cpi = tuple(
                d_busy[t] / d_instr[t] if d_instr[t] > 0 else 0.0 for t in range(n)
            )
            obs = IntervalObservation(
                index=interval_index,
                cpi=cpi,
                instructions=d_instr,
                busy_cycles=d_busy,
                targets=tuple(l2.targets),
                l2=snap.minus(tick_snapshot),
            )
            if trace_on and l2.enforce_partition:
                # Distance is measured against the targets in effect during
                # the interval just closed, *before* the runtime may install
                # new ones — i.e. how far eviction control actually got.
                tracer.emit(
                    ConvergenceEvent(
                        app=self.compiled.name,
                        policy=policy_name,
                        index=interval_index,
                        **l2.partition_distance(),
                    )
                )
            new_targets = None
            if self.runtime is not None:
                new_targets = self.runtime.on_interval(obs)
                if new_targets is not None:
                    l2.set_targets(list(new_targets))
                    # The partitioning computation runs on the cores; charge
                    # its cost to every *running* thread (paper: overheads
                    # < 1.5 %, included in all reported results).  Threads
                    # already waiting at the barrier absorb it in their
                    # slack: their arrival is fixed and the work happens
                    # while they would be stalled anyway.
                    oh = timing.partition_overhead_cycles
                    for t in range(n):
                        if running is None or running[t]:
                            clock[t] += oh
                            busy[t] += oh
            intervals.append(
                IntervalRecord(
                    observation=obs,
                    new_targets=tuple(new_targets) if new_targets is not None else None,
                )
            )
            for t in range(n):
                tick_instr[t] = instr[t]
                tick_busy[t] = busy[t]
            tick_snapshot = snap
            interval_index += 1
            next_tick += tick_len

        for section_index, section in enumerate(self.compiled.sections):
            addr_lists = [s.addresses.tolist() for s in section]
            di_lists = [s.d_instructions.tolist() for s in section]
            dc_lists = [s.d_cycles.tolist() for s in section]
            mc_lists = [s.miss_cycles.tolist() for s in section]
            lengths = [len(a) for a in addr_lists]
            cursors = [0] * n
            done = [False] * n
            arrivals = [0.0] * n
            active = n

            while active:
                # Pick the runnable thread with the smallest clock.
                t = -1
                best = None
                for k in range(n):
                    if not done[k]:
                        c = clock[k]
                        if best is None or c < best:
                            best = c
                            t = k
                i = cursors[t]
                if i >= lengths[t]:
                    s = section[t]
                    clock[t] += s.tail_cycles
                    busy[t] += s.tail_cycles
                    instr[t] += s.tail_instructions
                    total_instr += s.tail_instructions
                    arrivals[t] = clock[t]
                    done[t] = True
                    active -= 1
                    if total_instr >= next_tick:
                        fire_tick([not d for d in done])
                    continue
                lat = l2_hit_cycles if access(t, addr_lists[t][i]) else mc_lists[t][i]
                cost = dc_lists[t][i] + lat
                clock[t] += cost
                busy[t] += cost
                di = di_lists[t][i]
                instr[t] += di
                total_instr += di
                cursors[t] = i + 1
                if total_instr >= next_tick:
                    fire_tick([not d for d in done])

            # Barrier: everyone resumes at the latest arrival.
            barriers.record(section_index, arrivals)
            release = max(arrivals)
            for t in range(n):
                stall[t] += release - arrivals[t]
                clock[t] = release

        # Flush a final partial interval so short runs still report stats.
        if total_instr > (interval_index * tick_len) and any(
            instr[t] - tick_instr[t] > 0 for t in range(n)
        ):
            # The run is over; record the partial interval but charge no
            # overhead (there is no next interval to reconfigure for).
            fire_tick([False] * n)

        l1_acc = [0] * n
        l1_hit = [0] * n
        for section in self.compiled.sections:
            for t, s in enumerate(section):
                l1_acc[t] += s.l1_accesses
                l1_hit[t] += s.l1_hits

        return RunResult(
            app=self.compiled.name,
            policy=getattr(self.runtime, "name", "none"),
            n_threads=n,
            total_cycles=max(clock) if n else 0.0,
            thread_instructions=tuple(instr),
            thread_busy_cycles=tuple(busy),
            thread_stall_cycles=tuple(stall),
            l2_totals=l2.stats.snapshot(),
            thread_l1_accesses=tuple(l1_acc),
            thread_l1_hits=tuple(l1_hit),
            intervals=intervals,
            barriers=barriers,
        )
