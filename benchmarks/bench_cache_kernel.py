"""Reference-vs-batch L2 backend benchmark (the BENCH.md baseline).

Times the simulation engine only — program preparation is done outside
the measured region (the program memo is warmed first), and each
repetition gets a fresh policy, runtime and cache so no state leaks
between timings — on the policy-comparison replays behind Figs. 19-22.
Both backends must be byte-identical (tests/test_cache_differential.py
pins that), so the only thing measured here is speed.

``reference`` replays one cell at a time; ``batch`` replays
every policy cell of an app through :func:`repro.sim.run_batch` in one
pass over the shared prepared program, so its per-cell number is the
batch wall amortised over its lanes — exactly what a sweep cell pays.

Run under pytest-benchmark for tracked history::

    pytest benchmarks/bench_cache_kernel.py --benchmark-only

standalone for the paired best-of-3 tables recorded in BENCH.md::

    PYTHONPATH=src python benchmarks/bench_cache_kernel.py [--json out.json]

as a CI guard (quick scale, byte-identity + speedup-floor assertions)::

    PYTHONPATH=src python benchmarks/bench_cache_kernel.py --smoke --json out.json

or over the grid of a checked-in experiment spec::

    PYTHONPATH=src python benchmarks/bench_cache_kernel.py --spec specs/fig19_vs_private.yaml
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import pytest

from repro import __version__
from repro.cache import PartitionedSharedCache
from repro.core import RuntimeSystem
from repro.cpu import CMPEngine
from repro.sim.config import SystemConfig
from repro.sim.driver import make_policy, prepare_program, run_batch

#: The fig19-22 slice used as the tracked baseline: three 4-core apps
#: under the headline policy comparison, plus the 8-core sensitivity
#: point.  Chosen to exercise both kernel families (partition-enforcing
#: and plain-LRU) and both thread counts.
FOUR_CORE_APPS = ("swim", "art", "equake")
FOUR_CORE_POLICIES = ("model-based", "shared", "static-equal", "throughput")
EIGHT_CORE_POLICIES = ("model-based", "fairness", "cpi-proportional")

#: Lane counts for the batch scaling curve.  Lanes beyond the distinct
#: policy list repeat policies — run_batch does not dedupe, so repeats
#: time exactly like distinct cells of equal length.
LANE_COUNTS = (1, 2, 4, 8)


#: CI floor for ``batch_vs_reference`` at ``--smoke`` scale: about half
#: the ratio measured on a 2-core x86-64 host (10-15x), so a kernel that
#: rots back toward per-access Python dispatch fails without flaking.
SMOKE_FLOOR = 6.6


def _engine_for(compiled, policy: str, config: SystemConfig) -> CMPEngine:
    """Fresh policy/runtime/reference-cache/engine stack for one run."""
    pol = make_policy(policy, config)
    pol.reset()
    runtime = RuntimeSystem(pol, app=compiled.name)
    l2 = PartitionedSharedCache(
        config.l2_geometry,
        config.n_threads,
        enforce_partition=pol.enforce_partition,
        targets=runtime.initial_targets(),
    )
    return CMPEngine(
        compiled,
        l2,
        config.timing,
        runtime,
        interval_instructions=config.interval_instructions,
    )


def _time_once(compiled, policy: str, config: SystemConfig) -> float:
    """Wall seconds for one solo reference replay."""
    engine = _engine_for(compiled, policy, config)
    start = time.perf_counter()
    engine.run()
    return time.perf_counter() - start


def _time_batch(app: str, policies, config: SystemConfig) -> float:
    """Wall seconds for one multi-lane batched replay of ``app``.

    The program memo is warmed by the caller, so the prepare span inside
    ``run_batch`` is a cache hit and the measurement stays engine-only
    (plus per-lane policy/cache setup — which the per-cell paths pay per
    run too, outside *their* measured region; the batch can't separate
    it, so its numbers are conservative).
    """
    batched = config.with_(cache_backend="batch")
    cells = [(policy, batched) for policy in policies]
    start = time.perf_counter()
    run_batch(app, cells)
    return time.perf_counter() - start


def measure(config: SystemConfig, apps, policies, reps: int = 3) -> dict:
    """Best-of-``reps`` engine-only seconds per (app, policy, backend).

    The ``batch`` entry is the app's whole-batch wall amortised over its
    ``len(policies)`` lanes.
    """
    rows = {}
    for app in apps:
        compiled = prepare_program(app, config)
        batch_wall = min(_time_batch(app, policies, config) for _ in range(reps))
        for policy in policies:
            rows[app, policy] = {
                "reference": min(_time_once(compiled, policy, config) for _ in range(reps)),
                "batch": batch_wall / len(policies),
            }
    return rows


def measure_lane_scaling(
    config: SystemConfig, app: str, policies, reps: int = 3
) -> list[dict]:
    """Batch wall vs lane count: the honest shape of the win.

    Lanes run sequentially over shared state (no SIMD across lanes), so
    the wall grows ~linearly with lanes; what amortises is the fixed
    per-batch setup (one stream materialisation, one state allocation).
    ``speedup_vs_reference`` is against N solo reference replays.
    """
    compiled = prepare_program(app, config)
    solo_ref = min(_time_once(compiled, policies[0], config) for _ in range(reps))
    curve = []
    for n in LANE_COUNTS:
        lanes = [policies[i % len(policies)] for i in range(n)]
        wall = min(_time_batch(app, lanes, config) for _ in range(reps))
        curve.append(
            {
                "lanes": n,
                "wall_s": wall,
                "per_lane_s": wall / n,
                "speedup_vs_reference": (solo_ref * n) / wall,
            }
        )
    return curve


def report(title: str, rows: dict) -> dict:
    totals = {
        backend: sum(r[backend] for r in rows.values()) for backend in ("reference", "batch")
    }
    print(f"\n{title}")
    for (app, policy), r in rows.items():
        print(
            f"  {app:8s} {policy:16s} ref={r['reference']:.3f}s "
            f"batch={r['batch']:.3f}s  batch {r['reference'] / r['batch']:.2f}x"
        )
    agg = {
        "reference_s": totals["reference"],
        "batch_s": totals["batch"],
        "batch_vs_reference": totals["reference"] / totals["batch"],
    }
    print(
        f"  aggregate: ref={totals['reference']:.2f}s batch={totals['batch']:.2f}s  "
        f"batch {agg['batch_vs_reference']:.2f}x"
    )
    return agg


# ----------------------------------------------------------------------
# JSON artifact (BENCH_<version>.json)
# ----------------------------------------------------------------------


def host_meta() -> dict:
    """Where the numbers came from — perf results are meaningless
    without the machine."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "repro_version": __version__,
    }


def _rows_payload(rows: dict) -> list[dict]:
    return [
        {
            "app": app,
            "policy": policy,
            "reference_s": r["reference"],
            "batch_s": r["batch"],
            "batch_vs_reference": r["reference"] / r["batch"],
        }
        for (app, policy), r in rows.items()
    ]


def write_json(path: str, payload: dict) -> None:
    payload = {"benchmark": "bench_cache_kernel", "host": host_meta(), **payload}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {path}")


# ----------------------------------------------------------------------
# pytest-benchmark entry points (quick scale, for tracked history)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", ("reference", "batch"))
@pytest.mark.parametrize("policy", ("model-based", "shared"))
def test_replay_backend(benchmark, policy, backend):
    config = SystemConfig.quick()
    compiled = prepare_program("art", config)

    def run():
        if backend == "batch":
            (result,) = run_batch("art", [(policy, config.with_(cache_backend="batch"))])
            return result
        return _engine_for(compiled, policy, config).run()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.total_cycles > 0


def test_batch_backend_is_faster(benchmark):
    """Smoke guard: a 1-lane batch must beat the reference replay.

    The aggregate claims are measured at evaluation scale by the
    standalone entry point below and recorded in BENCH.md; at the quick
    scale a conservative 3x floor keeps the check cheap while still
    catching a kernel that rots back to reference speed.
    """
    config = SystemConfig.quick()
    compiled = prepare_program("art", config)
    reference = min(_time_once(compiled, "model-based", config) for _ in range(3))
    batch = min(_time_batch("art", ("model-based",), config) for _ in range(3))
    benchmark.pedantic(
        lambda: _time_batch("art", ("model-based",), config), rounds=1, iterations=1
    )
    assert reference / batch > 3.0, (reference, batch)


# ----------------------------------------------------------------------
# standalone entry points
# ----------------------------------------------------------------------


def run_smoke(json_path: str | None) -> int:
    """CI guard at quick scale: the batched replay must be byte-identical
    to the reference on every lane and at least :data:`SMOKE_FLOOR` times
    faster in aggregate.

    The evaluation-scale claims live in BENCH.md; the floor at quick
    scale is about half the measured ratio, so it catches a batch path
    that rots back to per-cell Python dispatch without flaking on timer
    noise.
    """
    from repro.sim.driver import run_application

    config = SystemConfig.quick()
    app, policies = "swim", FOUR_CORE_POLICIES
    compiled = prepare_program(app, config)

    batched = config.with_(cache_backend="batch")
    results = run_batch(app, [(policy, batched) for policy in policies])
    for policy, result in zip(policies, results):
        solo = run_application(app, policy, config.with_(cache_backend="reference"))
        if result.to_dict() != solo.to_dict():
            print(f"smoke FAIL: batch lane {app}/{policy} != reference", file=sys.stderr)
            return 1

    batch_wall = min(_time_batch(app, policies, config) for _ in range(3))
    ref_wall = min(
        sum(_time_once(compiled, policy, config) for policy in policies) for _ in range(3)
    )
    speedup = ref_wall / batch_wall
    print(
        f"smoke ({app}, {len(policies)} lanes, SystemConfig.quick): "
        f"batch={batch_wall:.4f}s reference={ref_wall:.4f}s  {speedup:.2f}x"
    )
    if json_path:
        write_json(
            json_path,
            {
                "mode": "smoke",
                "config": "quick",
                "app": app,
                "policies": list(policies),
                "batch_s": batch_wall,
                "reference_s": ref_wall,
                "batch_vs_reference": speedup,
                "byte_identical": True,
            },
        )
    if speedup < SMOKE_FLOOR:
        print(
            f"smoke FAIL: batch speedup {speedup:.2f}x below the {SMOKE_FLOOR}x floor",
            file=sys.stderr,
        )
        return 1
    print(f"smoke ok: byte-identical lanes, batch {speedup:.2f}x vs reference")
    return 0


def run_full(json_path: str | None) -> int:
    four = measure(SystemConfig.default(), FOUR_CORE_APPS, FOUR_CORE_POLICIES)
    agg4 = report("4-core (SystemConfig.default, Figs. 19-21 slice)", four)
    eight = measure(SystemConfig.eight_core(), ("art",), EIGHT_CORE_POLICIES)
    agg8 = report("8-core (SystemConfig.eight_core, Fig. 22 slice)", eight)
    curve = measure_lane_scaling(SystemConfig.default(), "swim", FOUR_CORE_POLICIES)
    print("\nbatch lane scaling (swim, SystemConfig.default):")
    for point in curve:
        print(
            f"  lanes={point['lanes']:2d} wall={point['wall_s']:.3f}s "
            f"per-lane={point['per_lane_s']:.3f}s  "
            f"{point['speedup_vs_reference']:.2f}x vs solo reference"
        )
    print(
        f"\nheadline: batch {agg4['batch_vs_reference']:.2f}x (4-core) / "
        f"{agg8['batch_vs_reference']:.2f}x (8-core) vs reference "
        "(engine-only, best of 3)"
    )
    if json_path:
        write_json(
            json_path,
            {
                "mode": "full",
                "four_core": {"combos": _rows_payload(four), "aggregate": agg4},
                "eight_core": {"combos": _rows_payload(eight), "aggregate": agg8},
                "lane_scaling": curve,
            },
        )
    return 0


def run_from_spec(path: str, json_path: str | None) -> int:
    """Benchmark the slice a checked-in experiment spec describes, so
    BENCH.md tables can cite the spec file that produced them."""
    from repro.spec import load_spec

    spec = load_spec(path)
    grid = spec.grid
    slices = []
    for n_threads in grid.thread_counts:
        config = grid.config().with_(n_threads=n_threads)
        rows = measure(config, grid.apps, grid.policies)
        agg = report(f"{spec.name or path} (t={n_threads}, spec: {path})", rows)
        slices.append(
            {"n_threads": n_threads, "combos": _rows_payload(rows), "aggregate": agg}
        )
    if json_path:
        write_json(json_path, {"mode": "spec", "spec": path, "slices": slices})
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced CI-scale run with byte-identity and speedup assertions",
    )
    parser.add_argument(
        "--spec", default=None, metavar="FILE",
        help="benchmark the grid of an experiment spec (e.g. "
        "specs/fig19_vs_private.yaml) instead of the built-in slices",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH", dest="json_path",
        help=f"write the measurements as JSON (convention: BENCH_{__version__}.json)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke(args.json_path)
    if args.spec:
        return run_from_spec(args.spec, args.json_path)
    return run_full(args.json_path)


if __name__ == "__main__":
    raise SystemExit(main())
