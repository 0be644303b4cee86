"""Private L1 caches.

Each core has a private L1 (8 KB, 4-way in the paper's configuration).  Two
interfaces are provided:

* :class:`PrivateCache` — a per-access object API (a single-sharer
  unpartitioned cache), used by tests, examples and any caller that wants
  classic ``access(addr) -> hit`` semantics.

* :func:`simulate_l1_filter` — a batch API that runs a whole address trace
  through an LRU L1 and returns the hit mask as a NumPy array.  Because the
  L1 is private, its behaviour is independent of anything the shared-L2
  partitioning scheme does, so each thread's trace can be filtered **once**
  and the resulting L2 access stream reused across every policy under
  comparison.  This is the single biggest performance lever in the whole
  simulator and is why this function exists separately from the object API.
  The loop runs in the compiled ``l1_filter`` routine of
  :mod:`repro.cache.batchkernel`: 11-14 ns per access against 270-500 ns
  for the pure-Python loop it keeps as oracle and fallback (32 x 4-way
  L1, 1M random accesses, best of several runs; a shared 2-core x86-64
  container at 2.0 GHz, CPython 3.11, gcc -O2; the spread is host
  noise).  :func:`repro.cpu.streams.compile_program` filters a whole
  program in one call (``segments=`` gives each (section, thread) trace
  a cold L1), so the call overhead is paid once per program rather than
  once per trace: about 20 ns per access filtered on a cold sweep,
  call included, against about 27 ns with one call per trace.
"""

from __future__ import annotations

import numpy as np

from repro.cache.batchkernel import load_l1_filter
from repro.cache.geometry import CacheGeometry
from repro.cache.shared import PartitionedSharedCache
from repro.obs.metrics import METRICS

__all__ = ["PrivateCache", "simulate_l1_filter"]


class PrivateCache(PartitionedSharedCache):
    """A private (single-sharer) set-associative LRU cache."""

    def __init__(self, geometry: CacheGeometry) -> None:
        super().__init__(geometry, n_threads=1, enforce_partition=False)

    def access(self, addr: int, thread: int = 0) -> bool:  # type: ignore[override]
        # Argument order flipped relative to the shared cache on purpose:
        # a private cache has exactly one client.
        return super().access(0, addr)


def simulate_l1_filter(
    addrs: np.ndarray, geometry: CacheGeometry, segments: np.ndarray | None = None
) -> np.ndarray:
    """Run ``addrs`` through an LRU cache; return a boolean hit mask.

    ``segments``, when given, splits ``addrs`` into consecutive runs of
    those lengths (they must sum to ``addrs.size``), each filtered from
    a cold cache, as separate calls would be: a program's
    (section, thread) traces are filtered in one call this way.

    Dispatches to the compiled ``l1_filter`` routine of
    :mod:`repro.cache.batchkernel`.  Without a C compiler it runs
    :func:`_l1_filter_python`, the oracle the compiled routine is tested
    against, and counts the call under ``l1.fallback_pure``.
    """
    addrs = np.asarray(addrs)
    if addrs.ndim != 1:
        raise ValueError("addrs must be 1-D")
    if segments is None:
        segments = np.array([addrs.size], dtype=np.int64)
    else:
        segments = np.ascontiguousarray(segments, dtype=np.int64)
        if segments.ndim != 1 or (segments < 0).any() or segments.sum() != addrs.size:
            raise ValueError("segments must be non-negative lengths summing to addrs.size")
    if not np.can_cast(addrs.dtype, np.int64):
        # uint64 (or non-integer) input: Python ints keep every bit.
        return _l1_filter_segments(addrs, geometry, segments)
    kernel = load_l1_filter()
    if kernel is None:
        METRICS.counter("l1.fallback_pure").inc()
        return _l1_filter_segments(addrs, geometry, segments)
    src = np.ascontiguousarray(addrs, dtype=np.int64)
    hits = np.empty(src.size, dtype=bool)
    # One buffer: the per-set MRU tag rows, then the fill counts (the
    # routine zeroes them at every segment start).
    n_slots = geometry.sets * geometry.ways
    state = np.empty(n_slots + geometry.sets, dtype=np.int64)
    mru = state.ctypes.data
    kernel(
        src.ctypes.data,
        segments.ctypes.data,
        segments.size,
        geometry.offset_bits,
        geometry.sets - 1,
        geometry.offset_bits + geometry.index_bits,
        geometry.ways,
        mru,
        mru + n_slots * state.itemsize,
        hits.ctypes.data,
    )
    return hits


def _l1_filter_segments(
    addrs: np.ndarray, geometry: CacheGeometry, segments: np.ndarray
) -> np.ndarray:
    """:func:`_l1_filter_python` over each segment, from a cold cache."""
    bounds = np.concatenate(([0], np.cumsum(segments))).tolist()
    return np.concatenate(
        [np.zeros(0, dtype=bool)]
        + [
            _l1_filter_python(addrs[lo:hi], geometry)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
    )


def _l1_filter_python(addrs: np.ndarray, geometry: CacheGeometry) -> np.ndarray:
    """The pure-Python L1 filter: oracle and no-compiler fallback.

    The per-set state is a short MRU-ordered list of tags, so each
    iteration is a handful of C-level list operations.
    """
    offset_bits = geometry.offset_bits
    index_mask = geometry.sets - 1
    tag_shift = offset_bits + geometry.index_bits
    ways = geometry.ways

    mru: list[list[int]] = [[] for _ in range(geometry.sets)]
    hits = np.zeros(addrs.size, dtype=bool)

    # Bind hot names locally; convert once to a Python list of ints (NumPy
    # scalar extraction inside the loop is several times slower).
    addr_list = addrs.tolist()
    for i, addr in enumerate(addr_list):
        s = (addr >> offset_bits) & index_mask
        tag = addr >> tag_shift
        row = mru[s]
        if tag in row:
            if row[0] != tag:
                row.remove(tag)
                row.insert(0, tag)
            hits[i] = True
        else:
            row.insert(0, tag)
            if len(row) > ways:
                row.pop()
    return hits
