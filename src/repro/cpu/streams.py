"""Compilation of raw traces into L2 access streams.

The private L1s are independent of anything the shared-L2 partitioning
policy does, so every thread's trace is filtered through its L1 exactly
once (:func:`repro.cache.simulate_l1_filter`) and *compiled* into a compact
L2 stream: the addresses that miss in the L1, each annotated with the
instructions and cycles the thread retires between consecutive L2
accesses.  Policies under comparison then replay identical L2 streams,
which removes both a 4-5x simulation cost and a source of noise from
policy comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.l1 import simulate_l1_filter
from repro.cpu.timing import TimingModel
from repro.sync.program import SyntheticProgram, ThreadWork
from repro.trace.layout import STREAM_BASE_ADDRESS

__all__ = ["CompiledProgram", "L2Stream", "compile_program", "compile_thread_work"]


@dataclass(frozen=True)
class L2Stream:
    """One thread's L2 accesses within one section.

    ``d_instructions[i]`` / ``d_cycles[i]`` are the instructions retired
    and cycles spent (base work + L1 activity) from just after the previous
    L2 access up to and including the memory operation that produced L2
    access ``i`` — the engine adds the L2-hit latency or ``miss_cycles[i]``
    on top.  ``miss_cycles`` is the per-access L2-miss penalty: the
    prefetch-covered ``stream_miss_cycles`` for streaming-region addresses,
    the full ``mem_cycles`` otherwise.  ``tail_*`` cover the work after the
    final L2 access to the end of the section.
    """

    addresses: np.ndarray
    d_instructions: np.ndarray
    d_cycles: np.ndarray
    miss_cycles: np.ndarray
    tail_instructions: int
    tail_cycles: float
    total_instructions: int
    l1_accesses: int
    l1_hits: int

    def __post_init__(self) -> None:
        n = self.addresses.size
        if (
            self.d_instructions.size != n
            or self.d_cycles.size != n
            or self.miss_cycles.size != n
        ):
            raise ValueError("stream arrays must be equal length")

    @property
    def n_l2_accesses(self) -> int:
        return int(self.addresses.size)

    @property
    def l1_hit_rate(self) -> float:
        return self.l1_hits / self.l1_accesses if self.l1_accesses else 0.0


@dataclass(frozen=True)
class CompiledProgram:
    """All sections of a program, compiled to per-thread L2 streams."""

    name: str
    n_threads: int
    sections: tuple[tuple[L2Stream, ...], ...]
    meta: dict

    @property
    def total_instructions(self) -> int:
        return sum(s.total_instructions for sec in self.sections for s in sec)

    @property
    def total_l2_accesses(self) -> int:
        return sum(s.n_l2_accesses for sec in self.sections for s in sec)


def compile_thread_work(
    work: ThreadWork, l1_geometry: CacheGeometry, timing: TimingModel
) -> L2Stream:
    """Filter one thread-section trace through the L1 and compress it."""
    addrs = work.addrs
    gaps = work.gaps.astype(np.int64)
    hits = simulate_l1_filter(addrs, l1_geometry)

    instr_per_op = gaps + 1
    cyc_per_op = gaps * timing.base_cpi + timing.l1_hit_cycles
    cum_instr = np.cumsum(instr_per_op)
    cum_cycles = np.cumsum(cyc_per_op)
    total_instr = int(cum_instr[-1]) if instr_per_op.size else 0
    total_cycles = float(cum_cycles[-1]) if cyc_per_op.size else 0.0

    miss_idx = np.flatnonzero(~hits)
    if miss_idx.size == 0:
        return L2Stream(
            addresses=np.empty(0, dtype=np.int64),
            d_instructions=np.empty(0, dtype=np.int64),
            d_cycles=np.empty(0, dtype=np.float64),
            miss_cycles=np.empty(0, dtype=np.float64),
            tail_instructions=total_instr,
            tail_cycles=total_cycles,
            total_instructions=total_instr,
            l1_accesses=int(addrs.size),
            l1_hits=int(hits.sum()),
        )

    instr_at_miss = cum_instr[miss_idx]
    cycles_at_miss = cum_cycles[miss_idx]
    d_instr = np.diff(instr_at_miss, prepend=0)
    d_cycles = np.diff(cycles_at_miss, prepend=0.0)

    l2_addrs = addrs[miss_idx].astype(np.int64)
    miss_cycles = np.where(
        l2_addrs >= STREAM_BASE_ADDRESS, timing.stream_miss_cycles, timing.mem_cycles
    ).astype(np.float64)

    return L2Stream(
        addresses=l2_addrs,
        d_instructions=d_instr.astype(np.int64),
        d_cycles=d_cycles.astype(np.float64),
        miss_cycles=miss_cycles,
        tail_instructions=total_instr - int(instr_at_miss[-1]),
        tail_cycles=total_cycles - float(cycles_at_miss[-1]),
        total_instructions=total_instr,
        l1_accesses=int(addrs.size),
        l1_hits=int(hits.sum()),
    )


def compile_program(
    program: SyntheticProgram, l1_geometry: CacheGeometry, timing: TimingModel
) -> CompiledProgram:
    """Compile every thread of every section; see module docstring."""
    sections = tuple(
        tuple(compile_thread_work(work, l1_geometry, timing) for work in sec.works)
        for sec in program.sections
    )
    return CompiledProgram(
        name=program.name,
        n_threads=program.n_threads,
        sections=sections,
        meta=dict(program.meta),
    )
