"""Differential equivalence: the compiled ``batch`` backend is a
behavioural twin of the reference L2.

The lane kernel of :mod:`repro.cache.batch` exists purely for speed;
this suite is the contract that it is *byte-identical* to the readable
reference implementation (:class:`~repro.cache.PartitionedSharedCache`
driven by ``CMPEngine``):

* every :class:`~repro.core.records.RunResult` field — clocks, busy/stall
  cycles, instruction counts, per-thread cache statistics, interval
  records — serialises to the same JSON across apps x policies x seeds
  x L2 geometries, for solo cells (1-lane batches) and for multi-lane
  batches alike,
* the telemetry event stream (interval / repartition / convergence) is
  identical event-for-event.

Anything the kernel gets wrong shows up here as a field-level diff,
not as a silently different experiment result.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import SystemConfig
from repro.cache import CacheGeometry
from repro.obs.tracer import RecordingTracer
from repro.partition import POLICY_REGISTRY
from repro.sim.driver import run_application, run_batch

APPS = ("swim", "art", "equake", "mgrid")
SEEDS = (1, 7)
GEOMETRIES = (CacheGeometry(sets=32, ways=16), CacheGeometry(sets=16, ways=8))


def _quick_config(geometry: CacheGeometry, seed: int, backend: str) -> SystemConfig:
    return SystemConfig.quick().with_(
        l2_geometry=geometry, seed=seed, cache_backend=backend
    )


def _result_json(app: str, policy: str, config: SystemConfig) -> str:
    return json.dumps(run_application(app, policy, config).to_dict(), sort_keys=True)


def _diff_fields(ref: dict, other: dict, path: str = "") -> list[str]:
    """Paths where two result dicts disagree (value or type)."""
    if type(ref) is not type(other):
        return [f"{path}: type {type(ref).__name__} != {type(other).__name__}"]
    if isinstance(ref, dict):
        out = []
        for key in sorted(set(ref) | set(other)):
            if key not in ref or key not in other:
                out.append(f"{path}.{key}: missing on one side")
            else:
                out.extend(_diff_fields(ref[key], other[key], f"{path}.{key}"))
        return out
    if isinstance(ref, list):
        if len(ref) != len(other):
            return [f"{path}: length {len(ref)} != {len(other)}"]
        out = []
        for i, (a, b) in enumerate(zip(ref, other)):
            out.extend(_diff_fields(a, b, f"{path}[{i}]"))
        return out
    if ref != other:
        return [f"{path}: {ref!r} != {other!r}"]
    return []


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=("l2-32x16", "l2-16x8"))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy", sorted(POLICY_REGISTRY))
@pytest.mark.parametrize("app", APPS)
def test_run_results_byte_identical(app, policy, seed, geometry):
    """Full matrix: a solo ``batch`` cell (a 1-lane batch) and the
    reference run must serialise RunResult.to_dict() identically."""
    ref = run_application(app, policy, _quick_config(geometry, seed, "reference"))
    solo = run_application(app, policy, _quick_config(geometry, seed, "batch"))
    ref_d, solo_d = ref.to_dict(), solo.to_dict()
    if json.dumps(ref_d, sort_keys=True) != json.dumps(solo_d, sort_keys=True):
        diffs = _diff_fields(ref_d, solo_d)
        pytest.fail(
            f"backends diverge for {app}/{policy} seed={seed} {geometry}:\n  "
            + "\n  ".join(diffs[:20])
        )


@pytest.mark.parametrize("policy", ("model-based", "shared"))
def test_run_results_byte_identical_eight_core(policy):
    """Solo 8-thread cells replay identically too."""
    base = SystemConfig.quick(n_threads=8)
    ref = run_application("art", policy, base.with_(cache_backend="reference"))
    solo = run_application("art", policy, base.with_(cache_backend="batch"))
    assert json.dumps(ref.to_dict(), sort_keys=True) == json.dumps(
        solo.to_dict(), sort_keys=True
    )


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=("l2-32x16", "l2-16x8"))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("app", APPS)
def test_batched_run_results_byte_identical(app, seed, geometry):
    """Full matrix for the batch backend: every lane of an all-policies
    batch serialises identically to the reference run of that cell."""
    policies = sorted(POLICY_REGISTRY)
    config = _quick_config(geometry, seed, "batch")
    results = run_batch(app, [(policy, config) for policy in policies])
    for policy, result in zip(policies, results):
        ref = run_application(app, policy, _quick_config(geometry, seed, "reference"))
        ref_d, lane_d = ref.to_dict(), result.to_dict()
        if json.dumps(ref_d, sort_keys=True) != json.dumps(lane_d, sort_keys=True):
            diffs = _diff_fields(ref_d, lane_d)
            pytest.fail(
                f"batch lane diverges for {app}/{policy} seed={seed} {geometry}:\n  "
                + "\n  ".join(diffs[:20])
            )


@pytest.mark.parametrize("policies", (("model-based", "shared"), ("fairness", "cpi-proportional")))
def test_batched_run_results_byte_identical_eight_core(policies):
    """8-thread lanes replay identically batched too."""
    base = SystemConfig.quick(n_threads=8)
    results = run_batch(
        "art", [(policy, base.with_(cache_backend="batch")) for policy in policies]
    )
    for policy, result in zip(policies, results):
        ref = run_application("art", policy, base.with_(cache_backend="reference"))
        assert json.dumps(ref.to_dict(), sort_keys=True) == json.dumps(
            result.to_dict(), sort_keys=True
        ), f"batched 8-core lane diverges for art/{policy}"


def test_batched_lanes_may_differ_in_l2_geometry():
    """The lane axis spans L2 geometries sharing one prepared program."""
    cells = [
        ("model-based", _quick_config(geometry, 1, "batch"))
        for geometry in GEOMETRIES
    ]
    results = run_batch("swim", cells)
    for (policy, config), result in zip(cells, results):
        ref = run_application(
            "swim", policy, config.with_(cache_backend="reference")
        )
        assert json.dumps(ref.to_dict(), sort_keys=True) == json.dumps(
            result.to_dict(), sort_keys=True
        )


def test_batched_telemetry_stream_matches_reference():
    """A traced batch narrates each lane exactly like a solo reference
    run, in lane order (spans differ: one prepare/simulate per batch)."""
    policies = ("model-based", "shared")
    tracer = RecordingTracer()
    run_batch(
        "swim",
        [(policy, _quick_config(GEOMETRIES[0], 1, "batch")) for policy in policies],
        tracer=tracer,
    )
    batched = [(e.kind, e.to_dict()) for e in tracer.events if e.kind != "span"]
    expected = []
    for policy in policies:
        solo = RecordingTracer()
        run_application(
            "swim", policy, _quick_config(GEOMETRIES[0], 1, "reference"), tracer=solo
        )
        expected.extend(
            (e.kind, e.to_dict()) for e in solo.events if e.kind != "span"
        )
    assert batched == expected


@pytest.mark.parametrize("policy", ("model-based", "throughput", "shared"))
def test_telemetry_streams_identical(policy):
    """Interval/repartition/convergence events match one-for-one.

    Span events carry wall-clock durations, so only their names are
    compared; every simulation-derived event must agree payload-for-
    payload, in order.
    """
    streams = {}
    for backend in ("reference", "batch"):
        tracer = RecordingTracer()
        run_application("swim", policy, _quick_config(GEOMETRIES[0], 1, backend), tracer=tracer)
        streams[backend] = [
            (e.kind, e.to_dict()) for e in tracer.events if e.kind != "span"
        ]
        streams[backend + "-spans"] = [
            e.to_dict()["name"] for e in tracer.events if e.kind == "span"
        ]
    assert streams["reference"] == streams["batch"]
    assert streams["reference-spans"] == streams["batch-spans"]


def test_backend_field_rejects_unknown():
    with pytest.raises(ValueError, match="cache_backend"):
        dataclasses.replace(SystemConfig.quick(), cache_backend="turbo")
