"""Compilation of raw traces into L2 access streams.

The private L1s are independent of anything the shared-L2 partitioning
policy does, so every thread's trace is filtered through its L1 exactly
once (:func:`repro.cache.simulate_l1_filter`) and *compiled* into a compact
L2 stream: the addresses that miss in the L1, each annotated with the
instructions and cycles the thread retires between consecutive L2
accesses.  Policies under comparison then replay identical L2 streams,
which removes both a 4-5x simulation cost and a source of noise from
policy comparisons.

A :class:`CompiledProgram` keeps its streams in one array layout:
every (section, thread) stream back to back, section-major and
thread-minor, with a ``(sections, threads)`` table per scalar.  It is
the :mod:`repro.prep` stream bundle's layout too, so publishing a
program writes these arrays and loading one maps them; the lane kernel
of :mod:`repro.cache.batch` reads them in place, and the per-thread
:class:`L2Stream` objects the reference engines walk are views into
them.

:func:`compile_program` builds the layout in two compiled passes: one
L1 filter call over the program's concatenated traces (a cold L1 per
(section, thread) segment), then the ``compile_streams`` routine of
:mod:`repro.cache.batchkernel`, which reads each trace in place and
writes the layout at its exact size.  :func:`compile_thread_work` is the
NumPy form of the same computation for one trace; it is the oracle the
compiled pass is tested against byte-for-byte, and the path taken
without a C compiler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cache.batchkernel import load_stream_compiler
from repro.cache.geometry import CacheGeometry
from repro.cache.l1 import simulate_l1_filter
from repro.cpu.timing import TimingModel
from repro.sync.program import SyntheticProgram, ThreadWork
from repro.trace.layout import STREAM_BASE_ADDRESS

__all__ = [
    "STREAM_ARRAYS",
    "CompiledProgram",
    "L2Stream",
    "compile_program",
    "compile_thread_work",
]


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


#: Per-access arrays of the layout, all streams back to back.
_ACCESS_FIELDS = (
    ("addresses", np.int64),
    ("d_instructions", np.int64),
    ("d_cycles", np.float64),
    ("miss_cycles", np.float64),
)
#: Per-(section, thread) tables of the layout, ``lens`` first.
_SCALAR_FIELDS = (
    ("lens", np.int64),
    ("tail_instructions", np.int64),
    ("tail_cycles", np.float64),
    ("total_instructions", np.int64),
    ("l1_accesses", np.int64),
    ("l1_hits", np.int64),
)
#: Array names and dtypes of :attr:`CompiledProgram.arrays`, in order.
STREAM_ARRAYS = _ACCESS_FIELDS + _SCALAR_FIELDS


@dataclass(frozen=True)
class CompiledProgram:
    """All sections of a program, compiled to per-thread L2 streams.

    Give either ``sections`` or ``arrays`` (the layout named by
    :data:`STREAM_ARRAYS`); the other is derived.  From ``arrays`` the
    sections are views, so a program loaded from a prep bundle stays on
    its mapped pages.
    """

    name: str
    n_threads: int
    sections: tuple[tuple[L2Stream, ...], ...] | None = None
    meta: dict = field(default_factory=dict)
    arrays: dict[str, np.ndarray] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.arrays is None:
            if self.sections is None:
                raise ValueError("CompiledProgram needs sections or arrays")
            object.__setattr__(self, "arrays", _flatten(self.sections))
        elif self.sections is None:
            object.__setattr__(self, "sections", _section_views(self.arrays))

    @property
    def total_instructions(self) -> int:
        return int(self.arrays["total_instructions"].sum())

    @property
    def total_l2_accesses(self) -> int:
        return int(self.arrays["addresses"].size)


def _flatten(sections) -> dict[str, np.ndarray]:
    """The array layout of per-thread streams: one concatenation each."""
    streams = [s for sec in sections for s in sec]
    arrays = {
        name: np.concatenate([getattr(s, name) for s in streams])
        for name, _ in _ACCESS_FIELDS
    }
    arrays["lens"] = np.array(
        [[s.n_l2_accesses for s in sec] for sec in sections], dtype=np.int64
    )
    for name, dtype in _SCALAR_FIELDS[1:]:
        arrays[name] = np.array(
            [[getattr(s, name) for s in sec] for sec in sections], dtype=dtype
        )
    return arrays


def _section_views(arrays: dict[str, np.ndarray]):
    """Per-(section, thread) :class:`L2Stream` views into the layout."""
    n_sections, n_threads = arrays["lens"].shape
    bounds = np.concatenate(([0], np.cumsum(arrays["lens"].ravel()))).tolist()
    scalars = {name: arrays[name].ravel().tolist() for name, _ in _SCALAR_FIELDS[1:]}

    def stream(k: int) -> L2Stream:
        lo, hi = bounds[k], bounds[k + 1]
        return L2Stream(
            **{name: arrays[name][lo:hi] for name, _ in _ACCESS_FIELDS},
            **{name: values[k] for name, values in scalars.items()},
        )

    return tuple(
        tuple(stream(s * n_threads + t) for t in range(n_threads))
        for s in range(n_sections)
    )


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
    works = [w for sec in program.sections for w in sec.works]
    compile_streams = load_stream_compiler()
    if compile_streams is None or not all(
        np.can_cast(w.addrs.dtype, np.int64) and np.can_cast(w.gaps.dtype, np.int32)
        for w in works
    ):
        # No compiler, or traces the routine does not read: the oracle.
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
    segments = np.array([w.addrs.size for w in works], dtype=np.int64)
    hits = simulate_l1_filter(
        np.concatenate([w.addrs for w in works]), l1_geometry, segments=segments
    )
    # The concatenated copy is freed before the streams are allocated,
    # so it never adds to the peak footprint; the routine reads each
    # trace in place through a pointer table instead.
    addr_segs = [np.ascontiguousarray(w.addrs, dtype=np.int64) for w in works]
    gap_segs = [np.ascontiguousarray(w.gaps, dtype=np.int32) for w in works]
    addr_table, gap_table = _pointer_table(addr_segs), _pointer_table(gap_segs)
    n_misses = hits.size - int(np.count_nonzero(hits))
    shape = (len(program.sections), program.n_threads)
    arrays = {name: np.empty(n_misses, dtype=dtype) for name, dtype in _ACCESS_FIELDS}
    arrays.update({name: np.empty(shape, dtype=dtype) for name, dtype in _SCALAR_FIELDS})
    compile_streams(
        addr_table.ctypes.data,
        gap_table.ctypes.data,
        hits.ctypes.data,
        segments.ctypes.data,
        segments.size,
        timing.base_cpi,
        timing.l1_hit_cycles,
        STREAM_BASE_ADDRESS,
        timing.stream_miss_cycles,
        timing.mem_cycles,
        *(arrays[name].ctypes.data for name, _ in STREAM_ARRAYS),
    )
    return CompiledProgram(
        name=program.name,
        n_threads=program.n_threads,
        meta=dict(program.meta),
        arrays=arrays,
    )


def _pointer_table(arrays: list[np.ndarray]) -> np.ndarray:
    """Each array's data address; the arrays must outlive the C call."""
    return np.array([a.ctypes.data for a in arrays], dtype=np.uintp)
