"""Property-based invariants of the partitioned shared cache.

Hypothesis drives randomised access/repartition schedules against the
reference L2 (:class:`~repro.cache.PartitionedSharedCache`, the oracle
the compiled lane kernel is differentially tested against) and checks
the properties the paper's Section V mechanism guarantees by
construction:

* structural consistency (``check_invariants``) holds after every
  operation sequence,
* per-thread occupancy never exceeds capacity and sums to the filled
  line count,
* accounting identities: hits + misses == accesses,
  intra + inter hits == hits, evictions <= misses,
* a cache never reports more lines for a thread than it has accessed
  distinct line addresses,
* repartitioning converges toward the targets under eviction control,
  and every resident line hits for every thread.

Each example is small (a few hundred events on a tiny geometry) so
shrinking produces readable counterexamples.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import CacheGeometry, PartitionedSharedCache

N_THREADS = 3
GEOMETRY = CacheGeometry(sets=4, ways=4)


def _partitions(total_ways: int) -> st.SearchStrategy[list[int]]:
    """Random way partitions: non-negative integers summing to the total."""

    def to_partition(cuts: list[int]) -> list[int]:
        bounds = [0, *sorted(cuts), total_ways]
        return [b - a for a, b in zip(bounds, bounds[1:])]

    return st.lists(
        st.integers(0, total_ways), min_size=N_THREADS - 1, max_size=N_THREADS - 1
    ).map(to_partition)


#: One schedule event: an access (thread, address) or a repartition.
#: At least 30 events, so every schedule fills sets far enough to force
#: the conflict evictions that Section V eviction control decides.
_events = st.lists(
    st.one_of(
        st.tuples(st.integers(0, N_THREADS - 1), st.integers(0, 1 << 12)),
        _partitions(GEOMETRY.ways),
    ),
    min_size=30,
    max_size=300,
)


def _drive(cache, events) -> list[bool | None]:
    outcomes = []
    for event in events:
        if isinstance(event, tuple):
            outcomes.append(cache.access(*event))
        else:
            cache.set_targets(event)
            outcomes.append(None)
    return outcomes


@settings(max_examples=60, deadline=None)
@given(events=_events, enforce=st.booleans())
def test_invariants_hold_under_any_schedule(events, enforce):
    cache = PartitionedSharedCache(GEOMETRY, N_THREADS, enforce_partition=enforce)
    for event in events:
        if isinstance(event, tuple):
            cache.access(*event)
        else:
            cache.set_targets(event)
        cache.check_invariants()


@settings(max_examples=60, deadline=None)
@given(events=_events, enforce=st.booleans())
def test_occupancy_and_stats_identities(events, enforce):
    cache = PartitionedSharedCache(GEOMETRY, N_THREADS, enforce_partition=enforce)
    touched = [set() for _ in range(N_THREADS)]
    for event in events:
        if isinstance(event, tuple):
            thread, addr = event
            cache.access(thread, addr)
            touched[thread].add(addr >> GEOMETRY.offset_bits)
        else:
            cache.set_targets(event)

    occ = cache.occupancy()
    stats = cache.stats
    capacity = GEOMETRY.sets * GEOMETRY.ways
    assert all(o >= 0 for o in occ)
    assert sum(occ) <= capacity
    assert sum(occ) == sum(cache._filled)
    for t in range(N_THREADS):
        assert stats.hits[t] + stats.misses[t] == stats.accesses[t]
        assert stats.intra_thread_hits[t] + stats.inter_thread_hits[t] == stats.hits[t]
        assert stats.evictions[t] <= stats.misses[t]
        # A thread owns at most as many lines as distinct lines it filled.
        assert occ[t] <= len(touched[t])


@settings(max_examples=60, deadline=None)
@given(events=_events)
def test_enforced_partition_converges_toward_targets(events):
    """After repartitioning, over-target threads never *gain* lines.

    The mechanism is gradual (Section V): it only steals on misses, so a
    freshly shrunk thread may sit over target for a while, but an access
    by an under-target thread must never increase an over-target
    thread's occupancy.
    """
    cache = PartitionedSharedCache(GEOMETRY, N_THREADS, enforce_partition=True)
    for event in events:
        if not isinstance(event, tuple):
            cache.set_targets(event)
            continue
        thread, addr = event
        before = cache.occupancy()
        cache.access(thread, addr)
        after = cache.occupancy()
        for t in range(N_THREADS):
            if t != thread and before[t] > cache.targets[t]:
                assert after[t] <= before[t], (
                    f"over-target thread {t} grew from {before[t]} to {after[t]}"
                )


@settings(max_examples=60, deadline=None)
@given(events=_events)
def test_eviction_control_protects_under_target_threads(events):
    """Section V eviction control: an under-target thread's line is never
    evicted while some over-target thread still holds lines in the set.

    The victim scan prefers over-target owners and falls back to the
    requester's own lines, so the only way an under-target thread loses
    a line is when nobody in the set is over target (or the requester is
    evicting from itself).
    """
    cache = PartitionedSharedCache(GEOMETRY, N_THREADS, enforce_partition=True)
    sets = GEOMETRY.sets
    for event in events:
        if not isinstance(event, tuple):
            cache.set_targets(event)
            continue
        thread, addr = event
        line = addr >> GEOMETRY.offset_bits
        s = line & (sets - 1)
        before = cache.set_occupancy(s)
        targets = list(cache.targets)
        hit = cache.access(thread, addr)
        after = cache.set_occupancy(s)
        if hit:
            continue
        over_target = [t for t in range(N_THREADS) if before[t] > targets[t]]
        for t in range(N_THREADS):
            if after[t] < before[t]:  # t lost a line to this fill
                assert t == thread or before[t] > targets[t] or not over_target, (
                    f"under-target thread {t} (held {before[t]}, target "
                    f"{targets[t]}) evicted while {over_target} were over target"
                )


@settings(max_examples=60, deadline=None)
@given(events=_events, enforce=st.booleans(), prober=st.integers(0, N_THREADS - 1))
def test_any_thread_hits_any_resident_line(events, enforce, prober):
    """Partitioning controls *replacement*, never *visibility*: every
    resident line is a hit for every thread (cross-partition hits are
    what distinguish this scheme from private caches)."""
    cache = PartitionedSharedCache(GEOMETRY, N_THREADS, enforce_partition=enforce)
    resident: dict[int, int] = {}  # line -> last address that mapped to it
    for event in events:
        if isinstance(event, tuple):
            thread, addr = event
            cache.access(thread, addr)
            resident[addr >> GEOMETRY.offset_bits] = addr
        else:
            cache.set_targets(event)
    still_there = [addr for addr in resident.values() if cache.contains(addr)]
    for addr in still_there[:8]:
        assert cache.access(prober, addr), (
            f"thread {prober} missed resident address {addr:#x}"
        )


@settings(max_examples=30, deadline=None)
@given(events=_events, enforce=st.booleans())
def test_flush_resets_contents_but_not_stats(events, enforce):
    cache = PartitionedSharedCache(GEOMETRY, N_THREADS, enforce_partition=enforce)
    _drive(cache, events)
    snap = cache.stats.snapshot()
    cache.flush()
    cache.check_invariants()
    assert cache.occupancy() == [0] * N_THREADS
    assert cache.stats.snapshot() == snap
