"""Victim-rule coverage: the lane kernel against the reference cache on
tiny geometries.

The last two rules of the Section V victim choice (an over-target
thread's LRU line, then the global LRU line) run only when a thread
whose target is zero misses in a full set where it owns nothing.  The
paper-policy matrix of ``tests/test_cache_differential.py`` always
gives every thread at least one way, so it never gets there.  Here a
scripted runtime installs random target vectors with zeros in them
(``min_ways=0``) on 2-4 sets x 2-8 ways shared by 2-4 threads, so every
rule runs, and every lane result must serialise exactly as the
reference :class:`CMPEngine` on :class:`PartitionedSharedCache` does.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.batch import BatchLane, replay_batch
from repro.cache.geometry import CacheGeometry
from repro.cache.shared import PartitionedSharedCache
from repro.cpu.engine import CMPEngine
from repro.cpu.streams import CompiledProgram, L2Stream
from repro.cpu.timing import TimingModel

TIMING = TimingModel()
LINE = 64


class ScriptedRuntime:
    """Duck-typed runtime: interval ``i`` installs ``script[i % len]``
    (``None`` keeps the current targets)."""

    name = "scripted"

    def __init__(self, script: list[list[int] | None]) -> None:
        self.script = script

    def on_interval(self, obs):
        return self.script[obs.index % len(self.script)]


def _split(draw, ways: int, n: int) -> list[int]:
    """A random composition of ``ways`` into ``n`` parts, zeros allowed."""
    cuts = sorted(draw(st.lists(st.integers(0, ways), min_size=n - 1, max_size=n - 1)))
    bounds = [0, *cuts, ways]
    return [bounds[i + 1] - bounds[i] for i in range(n)]


@st.composite
def cases(draw):
    n = draw(st.integers(2, 4))
    sets = draw(st.sampled_from([2, 4]))
    ways = draw(st.integers(max(2, n), 8))
    # Lines from a pool about three times the cache: sets fill, then evict.
    pool = 3 * sets * ways
    sections = []
    for _ in range(draw(st.integers(1, 3))):
        row = []
        for _ in range(n):
            length = draw(st.integers(0, 60))
            lines = draw(st.lists(st.integers(0, pool - 1), min_size=length, max_size=length))
            d_instr = draw(st.lists(st.integers(1, 6), min_size=length, max_size=length))
            d_cyc = draw(st.lists(st.integers(1, 9), min_size=length, max_size=length))
            miss = draw(st.lists(st.sampled_from([15.0, 40.0]), min_size=length, max_size=length))
            tail_i = draw(st.integers(0, 5))
            row.append(
                L2Stream(
                    addresses=np.array(lines, dtype=np.int64) * LINE,
                    d_instructions=np.array(d_instr, dtype=np.int64),
                    d_cycles=np.array(d_cyc, dtype=np.float64),
                    miss_cycles=np.array(miss, dtype=np.float64),
                    tail_instructions=tail_i,
                    tail_cycles=float(draw(st.integers(0, 9))),
                    total_instructions=sum(d_instr) + tail_i,
                    l1_accesses=length,
                    l1_hits=0,
                )
            )
        sections.append(tuple(row))
    program = CompiledProgram(name="tiny", n_threads=n, sections=tuple(sections))
    geometry = CacheGeometry(sets=sets, ways=ways, line_bytes=LINE)
    script = [
        None if draw(st.booleans()) else _split(draw, ways, n)
        for _ in range(draw(st.integers(1, 6)))
    ]
    initial = _split(draw, ways, n)
    enforce = draw(st.booleans())
    interval = draw(st.integers(4, 40))
    return program, geometry, initial, script, enforce, interval


def _reference(program, geometry, initial, script, enforce, interval) -> str:
    cache = PartitionedSharedCache(
        geometry, program.n_threads, enforce_partition=enforce, targets=list(initial)
    )
    engine = CMPEngine(
        program, cache, TIMING, ScriptedRuntime(script), interval_instructions=interval
    )
    return json.dumps(engine.run().to_dict(), sort_keys=True)


@settings(max_examples=150, deadline=None)
@given(case=cases())
def test_lane_kernel_matches_reference_on_every_victim_rule(case):
    program, geometry, initial, script, enforce, interval = case
    expected = _reference(*case)
    lanes = [
        BatchLane(
            geometry,
            enforce_partition=enforce,
            targets=list(initial),
            runtime=ScriptedRuntime(script),
        )
        for _ in range(2)
    ]
    results = replay_batch(program, lanes, TIMING, interval_instructions=interval)
    for result in results:
        assert json.dumps(result.to_dict(), sort_keys=True) == expected
