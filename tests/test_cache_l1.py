"""Tests for the private L1 cache and the batch trace filter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import batchkernel
from repro.cache.geometry import CacheGeometry
from repro.cache.l1 import PrivateCache, _l1_filter_python, simulate_l1_filter
from repro.obs.metrics import METRICS

from .conftest import line_address


@pytest.fixture
def geo():
    return CacheGeometry(sets=4, ways=2, line_bytes=64)


@pytest.fixture
def no_kernel(monkeypatch):
    """A host without a C compiler: the memoised load attempt failed."""
    monkeypatch.setattr(batchkernel, "_LOADED", [True, None])


class TestPrivateCache:
    def test_hit_after_miss(self, geo):
        c = PrivateCache(geo)
        assert c.access(100) is False
        assert c.access(100) is True

    def test_same_line_different_offsets_hit(self, geo):
        c = PrivateCache(geo)
        c.access(128)
        assert c.access(129) is True
        assert c.access(191) is True

    def test_lru_within_set(self, geo):
        c = PrivateCache(geo)
        a = [line_address(geo, 0, t) for t in range(3)]
        c.access(a[0])
        c.access(a[1])
        c.access(a[0])  # refresh 0
        c.access(a[2])  # evicts 1
        assert c.access(a[0]) is True
        assert c.access(a[1]) is False

    def test_stats_single_thread(self, geo):
        c = PrivateCache(geo)
        c.access(0)
        c.access(0)
        assert c.stats.accesses == [2]
        assert c.stats.hits == [1]


class TestBatchFilter:
    def test_matches_object_cache(self, geo, rng):
        addrs = rng.integers(0, 4096, size=2000, dtype=np.int64)
        mask = simulate_l1_filter(addrs, geo)
        ref = PrivateCache(geo)
        expected = np.array([ref.access(int(a)) for a in addrs])
        assert np.array_equal(mask, expected)

    def test_empty_trace(self, geo):
        assert simulate_l1_filter(np.empty(0, dtype=np.int64), geo).size == 0

    def test_repeated_address_all_hits_after_first(self, geo):
        addrs = np.full(10, 512, dtype=np.int64)
        mask = simulate_l1_filter(addrs, geo)
        assert not mask[0]
        assert mask[1:].all()

    def test_streaming_word_stride_hits_within_line(self, geo):
        # Sequential 8-byte words: 1 miss per 8 accesses (64 B lines).
        addrs = np.arange(0, 64 * 16, 8, dtype=np.int64)
        mask = simulate_l1_filter(addrs, geo)
        assert int((~mask).sum()) == 16

    def test_streaming_line_stride_never_hits(self, geo):
        addrs = np.arange(0, 64 * 1000, 64, dtype=np.int64)
        mask = simulate_l1_filter(addrs, geo)
        assert not mask.any()

    def test_2d_input_rejected(self, geo):
        with pytest.raises(ValueError):
            simulate_l1_filter(np.zeros((2, 2), dtype=np.int64), geo)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2**20), min_size=1, max_size=500))
    def test_property_matches_reference(self, addr_list):
        geo = CacheGeometry(sets=2, ways=2, line_bytes=64)
        addrs = np.array(addr_list, dtype=np.int64)
        mask = simulate_l1_filter(addrs, geo)
        ref = PrivateCache(geo)
        expected = np.array([ref.access(int(a)) for a in addrs])
        assert np.array_equal(mask, expected)


@pytest.mark.skipif(
    not batchkernel.kernel_available(),
    reason="no C compiler: the compiled L1 filter is unavailable",
)
class TestCompiledFilter:
    """The C ``l1_filter`` against the Python loop it replaces."""

    @settings(max_examples=200, deadline=None)
    @given(
        addr_list=st.lists(st.integers(min_value=0, max_value=2**40), max_size=400),
        set_bits=st.integers(min_value=0, max_value=6),
        ways=st.integers(min_value=1, max_value=16),
        span_bits=st.integers(min_value=8, max_value=40),
    )
    def test_matches_python_loop(self, addr_list, set_bits, ways, span_bits):
        # span_bits folds the addresses into a small footprint, so most
        # examples revisit lines (hits, MRU reorders and evictions).
        geo = CacheGeometry(sets=2**set_bits, ways=ways, line_bytes=64)
        addrs = np.array(addr_list, dtype=np.int64) & ((1 << span_bits) - 1)
        mask = simulate_l1_filter(addrs, geo)
        assert mask.dtype == np.bool_
        assert np.array_equal(mask, _l1_filter_python(addrs, geo))
        assert METRICS.counter("l1.fallback_pure").value == 0

    def test_empty_input(self, geo):
        mask = simulate_l1_filter(np.empty(0, dtype=np.int64), geo)
        assert mask.dtype == np.bool_ and mask.size == 0

    @settings(max_examples=100, deadline=None)
    @given(
        lengths=st.lists(st.integers(min_value=0, max_value=60), max_size=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_segments_start_cold(self, lengths, seed):
        """One segmented call equals one call per segment, on both the
        compiled routine and the Python loop."""
        geo = CacheGeometry(sets=2, ways=2, line_bytes=64)
        rng = np.random.default_rng(seed)
        parts = [rng.integers(0, 1024, size=n, dtype=np.int64) for n in lengths]
        addrs = np.concatenate([np.empty(0, dtype=np.int64), *parts])
        expected = np.concatenate(
            [np.zeros(0, dtype=bool)] + [_l1_filter_python(p, geo) for p in parts]
        )
        mask = simulate_l1_filter(addrs, geo, segments=np.array(lengths, dtype=np.int64))
        assert np.array_equal(mask, expected)
        python = simulate_l1_filter(addrs.astype(np.uint64), geo, segments=lengths)
        assert np.array_equal(python, expected)

    @pytest.mark.parametrize("segments", [[3], [2, 3], [-1, 5], [[4]]])
    def test_segments_must_cover_the_input(self, geo, segments):
        with pytest.raises(ValueError):
            simulate_l1_filter(np.zeros(4, dtype=np.int64), geo, segments=segments)

    def test_compiler_flags_name_the_built_object(self, monkeypatch):
        """A flag change with the same source builds a new object rather
        than loading one built with the old flags."""
        assert "-ffp-contract=off" in batchkernel._CFLAGS
        before = batchkernel._library_path()
        monkeypatch.setattr(batchkernel, "_CFLAGS", (*batchkernel._CFLAGS, "-DREBUILD"))
        after = batchkernel._library_path()
        assert after != before and after.parent == before.parent

    def test_non_int64_dtypes_agree(self, geo, rng):
        addrs = rng.integers(0, 2**16, size=1000)
        expected = _l1_filter_python(addrs, geo)
        for dtype in (np.int32, np.uint32, np.uint64):
            assert np.array_equal(simulate_l1_filter(addrs.astype(dtype), geo), expected)

    def test_stream_bundles_are_byte_identical(self, tmp_path, monkeypatch):
        """A prep bundle built by the compiled passes (C filter and
        stream compile) has the bytes of one built without a compiler
        (Python filter and the NumPy oracle, trace by trace)."""
        from repro.prep import set_prep_store
        from repro.prep.store import PrepStore
        from repro.sim.config import SystemConfig
        from repro.sim.driver import clear_program_cache, prepare_program

        config = SystemConfig(
            l2_geometry=CacheGeometry(sets=16, ways=8),
            interval_instructions=1_500,
            n_intervals=5,
        )

        def publish(root):
            clear_program_cache()
            previous = set_prep_store(PrepStore(root))
            try:
                prepare_program("swim", config)
            finally:
                set_prep_store(previous)
                clear_program_cache()
            return {
                str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*"))
                if p.is_file()
            }

        compiled = publish(tmp_path / "c")
        assert METRICS.counter("l1.fallback_pure").value == 0
        monkeypatch.setattr(batchkernel, "_LOADED", [True, None])
        python = publish(tmp_path / "python")
        # Without a compiler the NumPy oracle compiles trace by trace.
        traces = config.n_threads * config.n_intervals * config.sections_per_interval
        assert METRICS.counter("l1.fallback_pure").value == traces
        assert compiled and compiled == python


class TestPureFallback:
    """Without a compiler both compiled routines degrade loudly."""

    def test_filter_falls_back_and_counts(self, no_kernel, geo, rng):
        addrs = rng.integers(0, 4096, size=500, dtype=np.int64)
        mask = simulate_l1_filter(addrs, geo)
        assert np.array_equal(mask, _l1_filter_python(addrs, geo))
        assert METRICS.counter("l1.fallback_pure").value == 1
        simulate_l1_filter(addrs, geo)
        assert METRICS.counter("l1.fallback_pure").value == 2

    def test_sweep_verbose_line_shows_both_counters(self, no_kernel, capsys):
        from repro.__main__ import main
        from repro.sim.driver import clear_program_cache

        clear_program_cache()
        rc = main([
            "sweep", "--apps", "ft", "--policies", "shared", "static-equal",
            "--intervals", "2", "--interval-instructions", "1000", "-v",
        ])
        clear_program_cache()
        assert rc == 0
        err = capsys.readouterr().err
        assert "l1-fallback-pure=" in err
        assert "batch-fallback-pure=2" in err

    def test_failed_build_warns_once_and_is_evented(self, tmp_path, monkeypatch, capsys):
        """A fresh process on a host without a compiler: the first load
        attempt warns on stderr naming the cause and emits one
        ``engine_degraded`` event; later calls stay quiet but every
        fallback lane is still counted."""
        from repro.obs import set_tracer
        from repro.obs.tracer import RecordingTracer
        from repro.sim.config import SystemConfig
        from repro.sim.driver import run_application

        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "kernels"))
        monkeypatch.setenv("PATH", str(tmp_path / "no-compilers"))
        monkeypatch.setattr(batchkernel, "_LOADED", [False, None])
        tracer = RecordingTracer()
        set_tracer(tracer)
        config = SystemConfig(interval_instructions=1_000, n_intervals=2)
        for _ in range(2):
            run_application("ft", "shared", config)
        err = capsys.readouterr().err
        reason = "no C compiler (cc or gcc) on PATH"
        assert err.count("warning: compiled kernel unavailable") == 1
        assert reason in err
        degraded = [e for e in tracer.events if e.kind == "engine_degraded"]
        assert [(e.engine, e.reason) for e in degraded] == [("batch", reason)]
        assert METRICS.counter("batch.fallback_pure").value == 2

    def test_report_shows_both_counters(self):
        from repro.obs.export import summarize

        records = [{
            "kind": "metrics",
            "ts": 1.0,
            "snapshot": {"counters": {"l1.fallback_pure": 8, "batch.fallback_pure": 2}},
        }]
        text = summarize(records)
        assert "compiled kernel unavailable: l1.fallback_pure=8 batch.fallback_pure=2" in text
