"""Tests for timing model and L2 stream compilation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import batchkernel
from repro.cache.geometry import CacheGeometry
from repro.cpu.streams import (
    STREAM_ARRAYS,
    CompiledProgram,
    compile_program,
    compile_thread_work,
)
from repro.cpu.timing import TimingModel
from repro.sync.program import Section, SyntheticProgram, ThreadWork
from repro.trace.layout import STREAM_BASE_ADDRESS


@pytest.fixture
def l1():
    return CacheGeometry(sets=2, ways=2, line_bytes=64)


class TestTimingModel:
    def test_defaults_valid(self):
        t = TimingModel()
        assert t.l1_hit_cycles <= t.l2_hit_cycles <= t.mem_cycles

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            TimingModel(l2_hit_cycles=5, l1_hit_cycles=10)

    def test_stream_between_l2_and_mem(self):
        with pytest.raises(ValueError):
            TimingModel(stream_miss_cycles=5000.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TimingModel(mem_cycles=-1)

    def test_zero_base_cpi_rejected(self):
        with pytest.raises(ValueError):
            TimingModel(base_cpi=0)

    def test_hashable_frozen(self):
        assert hash(TimingModel()) == hash(TimingModel())


class TestCompileThreadWork:
    def test_all_hits_empty_stream(self, l1):
        # Same line over and over: only the first access reaches L2.
        addrs = np.full(10, 64, dtype=np.int64)
        gaps = np.full(10, 2, dtype=np.int32)
        s = compile_thread_work(ThreadWork(addrs=addrs, gaps=gaps), l1, TimingModel())
        assert s.n_l2_accesses == 1
        assert s.l1_accesses == 10
        assert s.l1_hits == 9
        assert s.total_instructions == 10 * 3

    def test_deltas_partition_instructions(self, l1):
        rng = np.random.default_rng(0)
        addrs = rng.integers(0, 1 << 14, size=500, dtype=np.int64)
        gaps = rng.integers(0, 5, size=500).astype(np.int32)
        s = compile_thread_work(ThreadWork(addrs=addrs, gaps=gaps), l1, TimingModel())
        assert int(s.d_instructions.sum()) + s.tail_instructions == s.total_instructions

    def test_deltas_partition_cycles(self, l1):
        timing = TimingModel()
        rng = np.random.default_rng(1)
        addrs = rng.integers(0, 1 << 14, size=300, dtype=np.int64)
        gaps = rng.integers(0, 4, size=300).astype(np.int32)
        s = compile_thread_work(ThreadWork(addrs=addrs, gaps=gaps), l1, timing)
        expected = float(gaps.sum()) * timing.base_cpi + 300 * timing.l1_hit_cycles
        assert float(s.d_cycles.sum()) + s.tail_cycles == pytest.approx(expected)

    def test_no_l2_accesses_all_tail(self, l1):
        addrs = np.full(5, 128, dtype=np.int64)
        gaps = np.zeros(5, dtype=np.int32)
        # Prime so even the first access hits: not possible in one call, so
        # accept 1 miss and check the degenerate empty-stream branch with a
        # trace that never leaves one line after compile: use hits-only case
        # by making trace of length 1 (single compulsory miss).
        s = compile_thread_work(ThreadWork(addrs=addrs[:1], gaps=gaps[:1]), l1, TimingModel())
        assert s.n_l2_accesses == 1
        assert s.tail_instructions == 0

    def test_stream_addresses_get_stream_penalty(self, l1):
        timing = TimingModel()
        addrs = np.array([64, STREAM_BASE_ADDRESS + 64], dtype=np.int64)
        gaps = np.zeros(2, dtype=np.int32)
        s = compile_thread_work(ThreadWork(addrs=addrs, gaps=gaps), l1, timing)
        assert s.miss_cycles[0] == timing.mem_cycles
        assert s.miss_cycles[1] == timing.stream_miss_cycles

    def test_l1_hit_rate_property(self, l1):
        addrs = np.full(4, 64, dtype=np.int64)
        gaps = np.zeros(4, dtype=np.int32)
        s = compile_thread_work(ThreadWork(addrs=addrs, gaps=gaps), l1, TimingModel())
        assert s.l1_hit_rate == pytest.approx(0.75)


class TestCompileProgram:
    def test_shapes_and_totals(self, l1):
        rng = np.random.default_rng(3)

        def w():
            return ThreadWork(
                addrs=rng.integers(0, 1 << 13, size=50, dtype=np.int64),
                gaps=rng.integers(0, 3, size=50).astype(np.int32),
            )

        prog = SyntheticProgram(
            name="t",
            sections=(Section(works=(w(), w())), Section(works=(w(), w()))),
        )
        compiled = compile_program(prog, l1, TimingModel())
        assert compiled.n_threads == 2
        assert len(compiled.sections) == 2
        assert compiled.total_instructions == prog.instructions
        assert compiled.total_l2_accesses > 0
        assert compiled.name == "t"


# -- compiled stream compile vs the NumPy oracle ------------------------

# Address bases: a private region and both sides of the streaming boundary.
_BASES = (0, STREAM_BASE_ADDRESS - 4096, STREAM_BASE_ADDRESS)


@st.composite
def _works(draw, n_threads: int):
    """One section's traces: random, empty or single-line (all hits
    after the first access) per thread."""
    works = []
    for _ in range(n_threads):
        kind = draw(st.sampled_from(["random", "empty", "one-line"]))
        size = 0 if kind == "empty" else draw(st.integers(1, 80))
        base = draw(st.sampled_from(_BASES))
        if kind == "one-line":
            offsets = [draw(st.integers(0, 1 << 13))] * size
        else:
            offsets = draw(st.lists(st.integers(0, 1 << 13), min_size=size, max_size=size))
        gaps = draw(st.lists(st.integers(0, 9), min_size=size, max_size=size))
        works.append(
            ThreadWork(
                addrs=np.array(offsets, dtype=np.int64) + base,
                gaps=np.array(gaps, dtype=np.int32),
            )
        )
    return Section(works=tuple(works))


@st.composite
def _cases(draw):
    n_threads = draw(st.integers(1, 4))
    sections = tuple(draw(_works(n_threads)) for _ in range(draw(st.integers(1, 4))))
    geometry = CacheGeometry(
        sets=draw(st.sampled_from([1, 2, 4, 16])),
        ways=draw(st.integers(1, 4)),
        line_bytes=draw(st.sampled_from([32, 64])),
    )
    cost = st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False)
    l1, l2, stream, mem = sorted(draw(st.lists(cost, min_size=4, max_size=4)))
    timing = TimingModel(
        base_cpi=draw(st.floats(0.01, 4.0, allow_nan=False, allow_infinity=False)),
        l1_hit_cycles=l1,
        l2_hit_cycles=l2,
        stream_miss_cycles=stream,
        mem_cycles=mem,
    )
    return SyntheticProgram(name="p", sections=sections), geometry, timing


@pytest.mark.skipif(not batchkernel.kernel_available(), reason="needs a C compiler")
@settings(max_examples=200, deadline=None)
@given(case=_cases())
def test_compiled_stream_compile_matches_numpy_oracle(case):
    """The C stream compile writes the bytes the per-trace NumPy oracle
    does, in every array of the layout, and its views carry the same
    scalars with the same Python types."""
    program, geometry, timing = case
    compiled = compile_program(program, geometry, timing)
    oracle = CompiledProgram(
        name=program.name,
        n_threads=program.n_threads,
        sections=tuple(
            tuple(compile_thread_work(w, geometry, timing) for w in sec.works)
            for sec in program.sections
        ),
    )
    for name, dtype in STREAM_ARRAYS:
        got, want = compiled.arrays[name], oracle.arrays[name]
        assert got.dtype == want.dtype == dtype, name
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    for got_sec, want_sec in zip(compiled.sections, oracle.sections, strict=True):
        for got, want in zip(got_sec, want_sec, strict=True):
            for field in ("tail_instructions", "tail_cycles", "total_instructions",
                          "l1_accesses", "l1_hits"):
                a, b = getattr(got, field), getattr(want, field)
                assert type(a) is type(b) and a == b, field
            assert got.addresses.tobytes() == want.addresses.tobytes()
            assert got.d_cycles.tobytes() == want.d_cycles.tobytes()
