"""Batched multi-lane replay: the ``"batch"`` cache backend.

A sweep grid replays the *same* prepared program — same app, seed,
thread count, L1-filtered stream arrays — once per policy/L2-geometry
cell.  :func:`replay_batch` executes N such cells ("lanes") against one
:class:`~repro.cpu.streams.CompiledProgram`: every lane reads the
program's stream arrays in place (mmapped :mod:`repro.prep` pages on a
warm sweep) and forms each access's line index and hit/miss cost as
it goes, per-lane cache and CPU state lives in stacked struct-of-arrays
(``tags``/``owner``/``last``/``lru-stamp`` of shape ``[lanes, sets x
ways]``, plus per-(set, owner) recency lists that make each victim
choice O(threads)), and each lane's replay inner loop runs in the
compiled C routine of :mod:`repro.cache.batchkernel`.

Lanes execute sequentially, each to completion — a deliberate deviation
from per-access lane-vectorisation: NumPy's ~2.5 µs per-operator
dispatch on the ~20 operators a lane-parallel step needs was measured
to lose even to a per-access Python kernel below ~48 lanes, while the C
lane kernel wins by two orders of magnitude at any lane count (BENCH.md
v1.9.0 records both).  Batching still amortises what is shared — one
program prep, one set of stream arrays, one state allocation — and
keeps the engine-facing contract the exec layer needs: one batch in,
one byte-identical :class:`~repro.core.records.RunResult` per lane out,
in lane order.

Equivalence contract
--------------------
Every lane result is **byte-identical** to a solo reference-backend
run of that cell — same IEEE-754 operations on
the same operands in the same order (the C routine computes what the
reference loop computes; its recency lists pick the victim the
reference's stamp scans pick, since stamps are unique within a lane;
all cycle quantities are integer-valued doubles, so busy cycles derive
exactly as ``clock - stall``), same statistics, same interval records.
``tests/test_cache_differential.py``, the hypothesis lane-equivalence
property and the victim-rule property of
``tests/test_cache_victim_rules.py`` enforce it.

When no C compiler is available the batch degrades loudly (see
:mod:`repro.cache.batchkernel`): each lane replays on the reference
cache and engine instead (still sharing the prepared program), counted
by ``batch.fallback_pure``.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np

from repro.cache.batchkernel import RC_TICK, load_kernel
from repro.cache.geometry import CacheGeometry
from repro.cache.stats import CacheStats
from repro.core.records import IntervalObservation, IntervalRecord, RunResult
from repro.cpu.streams import CompiledProgram
from repro.obs.events import ConvergenceEvent
from repro.obs.metrics import METRICS
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sync.barrier import BarrierLog

__all__ = ["BatchLane", "replay_batch"]

# ctrl-array slots; must match the #defines in batchkernel.KERNEL_SOURCE.
_C_CLK, _C_TOT, _C_NEXT_TICK, _C_SEC, _C_ACTIVE = range(5)

_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_I32 = ctypes.POINTER(ctypes.c_int32)
_P_F64 = ctypes.POINTER(ctypes.c_double)


@dataclass
class BatchLane:
    """One cell of a batch: an L2 configuration plus its runtime.

    ``runtime`` is consulted at every interval boundary exactly like
    :class:`~repro.cpu.engine.CMPEngine` consults it (``None`` disables
    repartitioning; interval records are still produced).  ``targets``
    is the initial way assignment; it must sum to ``geometry.ways``.
    """

    geometry: CacheGeometry
    enforce_partition: bool = True
    targets: list[int] | None = None
    runtime: object | None = None
    tracer: Tracer = field(default_factory=lambda: NULL_TRACER)


def _validate_targets(targets: list[int], n: int, ways: int) -> list[int]:
    """The reference cache's ``set_targets`` checks, verbatim."""
    targets = [int(v) for v in targets]
    if len(targets) != n:
        raise ValueError(f"need {n} targets, got {len(targets)}")
    if any(v < 0 for v in targets):
        raise ValueError(f"targets must be non-negative, got {targets}")
    if sum(targets) != ways:
        raise ValueError(
            f"targets must sum to {ways} ways, got {targets} (sum {sum(targets)})"
        )
    return targets


def _equal_targets(n: int, ways: int) -> list[int]:
    base, extra = divmod(ways, n)
    return [base + (1 if t < extra else 0) for t in range(n)]


def _partition_distance(counts: list[int], targets: list[int], sets: int, n: int) -> dict:
    """Misplaced-way distance, matching ``partition_distance`` to the bit
    (sets visited in order, mean from one float division)."""
    total = 0
    worst = 0
    converged = 0
    for cb in range(0, sets * n, n):
        d = 0
        for t in range(n):
            over = counts[cb + t] - targets[t]
            if over > 0:
                d += over
        total += d
        if d > worst:
            worst = d
        if d == 0:
            converged += 1
    return {
        "mean_distance": total / sets,
        "max_distance": worst,
        "converged_sets": converged,
        "total_sets": sets,
    }


class _SharedStreams:
    """The program's stream arrays as the lane kernel reads them, shared
    by every lane.

    No copy: the kernel reads the :class:`CompiledProgram` layout in
    place (mmapped bundle pages on a warm sweep) and forms the line
    index and the hit and miss costs per access.  Only the small
    per-(section, thread) tables are derived here: segment start
    offsets and the flattened section tails.
    """

    def __init__(self, compiled: CompiledProgram) -> None:
        arrays = compiled.arrays
        lens = arrays["lens"]
        self.n_sections, self.n_threads = lens.shape
        # No-ops on the layout compile_program and the prep store build;
        # arrays of other dtypes (hand-built streams) are converted once.
        self.addresses = np.ascontiguousarray(arrays["addresses"], dtype=np.int64)
        self.d_cycles = np.ascontiguousarray(arrays["d_cycles"], dtype=np.float64)
        self.miss_cycles = np.ascontiguousarray(arrays["miss_cycles"], dtype=np.float64)
        self.d_instructions = np.ascontiguousarray(arrays["d_instructions"], dtype=np.int64)
        self.seg = np.zeros(lens.size + 1, dtype=np.int64)
        np.cumsum(lens.ravel(), out=self.seg[1:])
        self.tail_c = np.ascontiguousarray(arrays["tail_cycles"].ravel(), dtype=np.float64)
        self.tail_i = np.ascontiguousarray(arrays["tail_instructions"].ravel(), dtype=np.int64)
        self.l1_acc = arrays["l1_accesses"].sum(axis=0).tolist()
        self.l1_hit = arrays["l1_hits"].sum(axis=0).tolist()


class _BatchState:
    """Stacked per-lane state: one row per lane, sized for the largest
    lane geometry (lanes may differ in L2 sets x ways).

    Besides the reference cache's arrays (tags, owner, last toucher,
    LRU stamp, fill and per-(set, owner) counts) each lane keeps a
    recency list per (set, owner), most recent first: ``mru`` / ``lru``
    ends per ``set * n + owner`` and ``prv`` / ``nxt`` links per slot.
    """

    def __init__(self, lanes: list[BatchLane], n: int, n_sections: int) -> None:
        L = len(lanes)
        max_slots = max(lane.geometry.sets * lane.geometry.ways for lane in lanes)
        max_counts = max(lane.geometry.sets for lane in lanes) * n
        self.tags = np.full((L, max_slots), -1, dtype=np.int64)
        self.owner = np.full((L, max_slots), -1, dtype=np.int32)
        self.last = np.full((L, max_slots), -1, dtype=np.int32)
        self.stamp = np.zeros((L, max_slots), dtype=np.int64)
        self.filled = np.zeros((L, max(lane.geometry.sets for lane in lanes)), dtype=np.int32)
        self.count = np.zeros((L, max_counts), dtype=np.int64)
        self.targets = np.zeros((L, n), dtype=np.int64)
        self.prv = np.full((L, max_slots), -1, dtype=np.int32)
        self.nxt = np.full((L, max_slots), -1, dtype=np.int32)
        self.mru = np.full((L, max_counts), -1, dtype=np.int32)
        self.lru = np.full((L, max_counts), -1, dtype=np.int32)
        self.miss = np.zeros((L, n), dtype=np.int64)
        self.evict = np.zeros((L, n), dtype=np.int64)
        self.ith = np.zeros((L, n), dtype=np.int64)
        self.ite = np.zeros((L, n), dtype=np.int64)
        self.inh = np.zeros((L, n), dtype=np.int64)
        self.clock = np.zeros((L, n), dtype=np.float64)
        self.stall = np.zeros((L, n), dtype=np.float64)
        self.instr = np.zeros((L, n), dtype=np.int64)
        self.cursor = np.zeros((L, n), dtype=np.int64)
        self.done = np.zeros((L, n), dtype=np.int32)
        self.arrivals = np.zeros((L, n_sections * n), dtype=np.float64)
        self.ctrl = np.zeros((L, 5), dtype=np.int64)


def _ptr(row: np.ndarray, ctype):
    return row.ctypes.data_as(ctype)


def _replay_lane_compiled(
    kernel,
    shared: _SharedStreams,
    state: _BatchState,
    li: int,
    lane: BatchLane,
    compiled: CompiledProgram,
    timing,
    interval_instructions: int,
) -> RunResult:
    n = shared.n_threads
    n_sections = shared.n_sections
    geo = lane.geometry
    sets, ways = geo.sets, geo.ways
    if lane.enforce_partition and ways < n:
        raise ValueError(
            f"cannot partition {ways} ways among {n} threads with at least one way each"
        )
    targets = _validate_targets(
        lane.targets if lane.targets is not None else _equal_targets(n, ways), n, ways
    )

    tick_len = interval_instructions * n
    ctrl = state.ctrl[li]
    ctrl[_C_NEXT_TICK] = tick_len
    ctrl[_C_ACTIVE] = n
    state.targets[li, :] = targets
    state.cursor[li, :] = shared.seg[:n]

    clock = state.clock[li]
    stall = state.stall[li]
    instr = state.instr[li]
    done = state.done[li]
    miss, evict = state.miss[li], state.evict[li]
    ith, ite, inh = state.ith[li], state.ite[li], state.inh[li]

    stats = CacheStats(n)
    intervals: list[IntervalRecord] = []
    barriers = BarrierLog(n)
    tick_instr = [0] * n
    tick_busy = [0.0] * n
    interval_index = 0
    tracer = lane.tracer
    trace_on = tracer.enabled
    runtime = lane.runtime
    policy_name = getattr(runtime, "name", "none")
    overhead = timing.partition_overhead_cycles

    args = (
        _ptr(shared.addresses, _P_I64), _ptr(shared.d_cycles, _P_F64),
        _ptr(shared.miss_cycles, _P_F64), _ptr(shared.d_instructions, _P_I64),
        _ptr(shared.seg, _P_I64),
        _ptr(shared.tail_c, _P_F64), _ptr(shared.tail_i, _P_I64),
        geo.offset_bits, timing.l2_hit_cycles,
        _ptr(state.tags[li], _P_I64), _ptr(state.owner[li], _P_I32),
        _ptr(state.last[li], _P_I32), _ptr(state.stamp[li], _P_I64),
        _ptr(state.filled[li], _P_I32), _ptr(state.count[li], _P_I64),
        _ptr(state.targets[li], _P_I64),
        _ptr(state.prv[li], _P_I32), _ptr(state.nxt[li], _P_I32),
        _ptr(state.mru[li], _P_I32), _ptr(state.lru[li], _P_I32),
        _ptr(miss, _P_I64), _ptr(evict, _P_I64),
        _ptr(ith, _P_I64), _ptr(ite, _P_I64), _ptr(inh, _P_I64),
        _ptr(clock, _P_F64), _ptr(stall, _P_F64), _ptr(instr, _P_I64),
        _ptr(state.cursor[li], _P_I64), _ptr(done, _P_I32),
        _ptr(state.arrivals[li], _P_F64), _ptr(ctrl, _P_I64),
        n, n_sections, ways, sets - 1, int(lane.enforce_partition),
    )

    def sync_stats() -> None:
        for t in range(n):
            h = int(ith[t]) + int(inh[t])
            stats.hits[t] = h
            stats.misses[t] = int(miss[t])
            stats.accesses[t] = h + stats.misses[t]
            stats.evictions[t] = int(evict[t])
            stats.inter_thread_hits[t] = int(ith[t])
            stats.inter_thread_evictions[t] = int(ite[t])
            stats.intra_thread_hits[t] = int(inh[t])

    tick_snapshot = stats.snapshot()

    def fire(running: tuple[bool, ...]) -> None:
        """Interval tick, mirroring the reference ``fire_tick`` exactly."""
        nonlocal interval_index, tick_snapshot
        sync_stats()
        snap = stats.snapshot()
        busy_now = [float(clock[t]) - float(stall[t]) for t in range(n)]
        d_instr = tuple(int(instr[t]) - tick_instr[t] for t in range(n))
        d_busy = tuple(busy_now[t] - tick_busy[t] for t in range(n))
        cpi = tuple(d_busy[t] / d_instr[t] if d_instr[t] > 0 else 0.0 for t in range(n))
        obs = IntervalObservation(
            index=interval_index,
            cpi=cpi,
            instructions=d_instr,
            busy_cycles=d_busy,
            targets=tuple(targets),
            l2=snap.minus(tick_snapshot),
        )
        if trace_on and lane.enforce_partition:
            counts = state.count[li, : sets * n].tolist()
            tracer.emit(
                ConvergenceEvent(
                    app=compiled.name,
                    policy=policy_name,
                    index=interval_index,
                    **_partition_distance(counts, targets, sets, n),
                )
            )
        new_targets = None
        if runtime is not None:
            new_targets = runtime.on_interval(obs)
            if new_targets is not None:
                targets[:] = _validate_targets(list(new_targets), n, ways)
                state.targets[li, :] = targets
                for t in range(n):
                    if running[t]:
                        clock[t] = float(clock[t]) + overhead
        intervals.append(
            IntervalRecord(
                observation=obs,
                new_targets=tuple(new_targets) if new_targets is not None else None,
            )
        )
        for t in range(n):
            tick_instr[t] = int(instr[t])
            tick_busy[t] = float(clock[t]) - float(stall[t])
        tick_snapshot = snap
        interval_index += 1
        ctrl[_C_NEXT_TICK] += tick_len

    while kernel(*args) == RC_TICK:
        fire(tuple(not bool(done[t]) for t in range(n)))

    # Flush a final partial interval so short runs still report stats.
    # The run is over: no overhead is charged (running all-False).
    tot = int(ctrl[_C_TOT])
    if tot > interval_index * tick_len and any(
        int(instr[t]) - tick_instr[t] > 0 for t in range(n)
    ):
        fire((False,) * n)
    sync_stats()

    arrivals = state.arrivals[li]
    for si in range(n_sections):
        barriers.record(si, [float(arrivals[si * n + t]) for t in range(n)])

    return RunResult(
        app=compiled.name,
        policy=policy_name,
        n_threads=n,
        total_cycles=max(float(clock[t]) for t in range(n)) if n else 0.0,
        thread_instructions=tuple(int(instr[t]) for t in range(n)),
        thread_busy_cycles=tuple(float(clock[t]) - float(stall[t]) for t in range(n)),
        thread_stall_cycles=tuple(float(stall[t]) for t in range(n)),
        l2_totals=stats.snapshot(),
        thread_l1_accesses=tuple(shared.l1_acc),
        thread_l1_hits=tuple(shared.l1_hit),
        intervals=intervals,
        barriers=barriers,
    )


def _replay_lane_fallback(
    compiled: CompiledProgram, lane: BatchLane, timing, interval_instructions: int
) -> RunResult:
    """Pure-Python lane replay (no C compiler): the reference engine."""
    from repro.cache.shared import PartitionedSharedCache
    from repro.cpu.engine import CMPEngine

    l2 = PartitionedSharedCache(
        lane.geometry,
        # The compiled program fixes the thread count for every lane.
        compiled.n_threads,
        enforce_partition=lane.enforce_partition,
        targets=lane.targets,
    )
    engine = CMPEngine(
        compiled,
        l2,
        timing,
        lane.runtime,
        interval_instructions=interval_instructions,
        tracer=lane.tracer,
    )
    return engine.run()


def replay_batch(
    compiled: CompiledProgram,
    lanes: list[BatchLane],
    timing,
    *,
    interval_instructions: int,
) -> list[RunResult]:
    """Replay ``compiled`` under every lane; one RunResult per lane, in
    lane order, each byte-identical to a solo run of that cell.

    All lanes must share the program's line size (their L2 geometries
    may differ in sets/ways).  ``interval_instructions`` is shared: it
    shapes the program itself, so cells differing there can never share
    a prepared program in the first place.
    """
    if not lanes:
        return []
    off = lanes[0].geometry.offset_bits
    for lane in lanes:
        if lane.geometry.offset_bits != off:
            raise ValueError(
                "batch lanes must share one cache line size; "
                f"got offset bits {off} and {lane.geometry.offset_bits}"
            )
    METRICS.counter("batch.batches").inc()
    METRICS.counter("batch.lanes").inc(len(lanes))
    kernel = load_kernel()
    if kernel is None:
        METRICS.counter("batch.fallback_pure").inc(len(lanes))
        return [
            _replay_lane_fallback(compiled, lane, timing, interval_instructions)
            for lane in lanes
        ]
    shared = _SharedStreams(compiled)
    state = _BatchState(lanes, shared.n_threads, shared.n_sections)
    return [
        _replay_lane_compiled(
            kernel, shared, state, li, lane, compiled, timing, interval_instructions
        )
        for li, lane in enumerate(lanes)
    ]
