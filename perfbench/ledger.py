"""Turn the traced entry point's spans into the per-layer ledger.

A layer's self time is the duration of its spans minus the part covered by
their child spans.  Sweep rows are per ``repro run-spec`` process; service
rows are per request.  ``ledger.residual_frac`` is the share of the wall
that no span's self time covers.  Every value is a ``(value, unit)`` pair.
"""

from __future__ import annotations

import json
import math
import statistics
from bisect import bisect_left
from collections import defaultdict
from pathlib import Path

# Layers whose spans the traced entry point records; each reports calls
# and self time.
LAYERS = (
    "cli.main", "trace.build", "cpu.l1_filter", "prep.get", "prep.put",
    "sim.prepare", "cache.replay", "core.interval", "partition.step",
    "exec.sweep", "exec.engine", "exec.job", "exec.store.get", "exec.store.put",
    "exec.journal.append", "serve.submit",
)

METRIC_UNITS = {
    "cli.import_s": "s", "cli.import_modules": "count",
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cpu.l1_filter.ns_per_access": "ns",
    "prep.hit_ratio": "ratio", "prep.bytes_written": "B",
    "sim.program_memo.hit_ratio": "ratio",
    "cache.replay.ns_per_l2_access": "ns",
    "partition.model_fits": "count",
    "exec.jobs": "count", "exec.retries": "count",
    "exec.store.hit_ratio": "ratio",
    "serve.wire_ms": "ms", "serve.rejected": "count",
    "model.instructions": "count", "model.l2_accesses": "count",
    "model.l2_misses": "count", "model.cycles": "cycles",
    "ledger.wall_s": "s", "ledger.residual_frac": "ratio",
    "obs.trace_overhead_frac": "ratio", "host.calib_ms": "ms",
}


def _ratio(num: float, den: float) -> float:
    """A ratio that reads 0 when the layer saw no calls."""
    return num / den if den else 0.0


def _aggregate(spans: list[tuple[int, list]]) -> dict[str, dict[str, float]]:
    """Per layer: calls, self seconds, sum of notes and count of notes
    equal to 1 (hits), over the given ``(index, span)`` pairs.  Parents
    outside them are ignored."""
    child = defaultdict(float)
    for _index, (_name, start, end, parent, _note) in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "notes": 0, "hits": 0})
    for index, (name, start, end, _parent, note) in spans:
        row = out[name]
        row["calls"] += 1
        row["self_s"] += end - start - child[index]
        if note is not None:
            row["notes"] += note
            row["hits"] += note == 1
    return out


def _rows(agg: dict, counters: dict, per: float) -> dict:
    """The layer metrics from aggregated spans, divided by ``per`` units
    of work (1 process, or the number of requests)."""
    def get(layer: str, field: str) -> float:
        return agg[layer][field] if layer in agg else 0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = get(layer, "calls") / per
        m[f"{layer}.self_s"] = get(layer, "self_s") / per
    m["cpu.l1_filter.ns_per_access"] = _ratio(
        get("cpu.l1_filter", "self_s") * 1e9, get("cpu.l1_filter", "notes"))
    m["prep.hit_ratio"] = _ratio(get("prep.get", "hits"), get("prep.get", "calls"))
    m["prep.bytes_written"] = get("prep.put", "notes") / per
    memo_hits = counters.get("sim.program_cache.hits", 0)
    memo_misses = counters.get("sim.program_cache.misses", 0)
    m["sim.program_memo.hit_ratio"] = _ratio(memo_hits, memo_hits + memo_misses)
    m["partition.model_fits"] = counters.get("models.fits", 0) / per
    m["exec.jobs"] = get("exec.job", "notes") / per
    m["exec.retries"] = counters.get("exec.retries", 0) / per
    m["exec.store.hit_ratio"] = _ratio(get("exec.store.get", "hits"),
                                       get("exec.store.get", "calls"))
    return m


def _load(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def process_ledger(spans_path: Path, wall: float) -> dict:
    """Ledger of one traced sweep process whose spawn-to-exit wall the
    benchmark measured as ``wall``."""
    data = _load(spans_path)
    spans = data["spans"]
    agg = _aggregate(list(enumerate(spans)))
    m = _rows(agg, data["counters"], 1)
    importing = agg["cli.import"]
    m["cli.import_s"] = importing["self_s"]
    m["cli.import_modules"] = importing["notes"]
    m["serve.wire_ms"] = 0.0
    m["serve.rejected"] = 0
    covered = sum(row["self_s"] for row in agg.values())
    m["ledger.wall_s"] = wall
    m["ledger.residual_frac"] = (wall - covered) / wall
    return m


def serve_ledger(spans_path: Path, windows: list[tuple[float, float, float]]) -> dict:
    """Per-request ledger of a traced server; ``windows`` holds each
    measured request's (send, receive, RTT ms) on the benchmark's clock.
    Spans before the first measured request (store fill, warm-up) are
    left out, as is the server's lifetime ``cli.main`` span."""
    data = _load(spans_path)
    spans = data["spans"]
    first = windows[0][0]
    inside = [(i, s) for i, s in enumerate(spans) if s[1] >= first]
    agg = _aggregate(inside)
    n = len(windows)
    m = _rows(agg, data["counters"], n)
    importing = next(s for s in spans if s[0] == "cli.import")
    m["cli.import_s"] = importing[2] - importing[1]
    m["cli.import_modules"] = importing[4]
    submits = sorted((s[1], s[2] - s[1], s[4]) for _, s in inside if s[0] == "serve.submit")
    starts = [s[0] for s in submits]
    wire = []
    for sent, received, rtt_ms in windows:
        k = bisect_left(starts, sent)
        if k < len(submits) and submits[k][0] <= received:
            wire.append(rtt_ms - submits[k][1] * 1e3)
    m["serve.wire_ms"] = statistics.fmean(wire) if wire else 0.0
    m["serve.rejected"] = sum(1 for s in submits if s[2] == 429)
    wall = sum(w[2] for w in windows) / 1e3
    covered = sum(row["self_s"] for row in agg.values())
    m["ledger.wall_s"] = wall / n
    m["ledger.residual_frac"] = (wall - covered) / wall
    return m


def model_counts(store_dir: Path) -> dict:
    """Simulated-time totals over every result in a result store."""
    totals = {"instructions": 0, "l2_accesses": 0, "l2_misses": 0}
    cycles = []
    for path in sorted(Path(store_dir).glob("v*/*/*.json")):
        result = json.loads(path.read_text())["result"]
        totals["instructions"] += result["total_instructions"]
        totals["l2_accesses"] += sum(result["l2_totals"]["accesses"])
        totals["l2_misses"] += sum(result["l2_totals"]["misses"])
        cycles.append(result["total_cycles"])
    totals["cycles"] = math.fsum(cycles)  # order-free: digests differ per backend
    return totals


def model_metrics(counts: dict, layers: dict) -> dict:
    m = {f"model.{k}": v for k, v in counts.items()}
    m["cache.replay.ns_per_l2_access"] = _ratio(
        layers["cache.replay.self_s"] * 1e9, counts["l2_accesses"])
    return m


def combine(ledgers: list[dict], plain: list[float], traced: list[float]) -> dict:
    """Median of every row over the traced units, the tracing overhead
    from the untraced and traced walls, each with its unit."""
    out = {}
    for key in ledgers[0]:
        out[key] = (statistics.median(led[key] for led in ledgers), METRIC_UNITS[key])
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    out["obs.trace_overhead_frac"] = (overhead, "ratio")
    return out


def exercise_problems(workload: str, metrics: dict, oracle_model: dict) -> list[str]:
    """Checks that the workload exercised the layers it claims to, and
    that the simulated-time counts equal the reference oracle's."""
    v = {k: value for k, (value, _unit) in metrics.items()}
    checks = {  # metric, expected: "> 0" or a number
        "cold-sweep": [("prep.get.calls", "> 0"), ("prep.hit_ratio", 0),
                       ("trace.build.calls", "> 0")],
        "warm-prep-sweep": [("trace.build.calls", 0), ("cpu.l1_filter.calls", 0),
                            ("prep.hit_ratio", 1)],
        "warm-serve": [("exec.jobs", 0), ("cache.replay.calls", 0),
                       ("exec.store.hit_ratio", 1)],
    }[workload]
    checks += [(f"model.{key}", value) for key, value in oracle_model.items()]
    problems = []
    for key, expected in checks:
        ok = v[key] > 0 if expected == "> 0" else v[key] == expected
        if not ok:
            problems.append(f"expected {key} {expected}, got {v[key]}")
    return problems
