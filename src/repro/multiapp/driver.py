"""One-call driver for hierarchical co-execution experiments."""

from __future__ import annotations

from repro.cache.shared import PartitionedSharedCache
from repro.multiapp.allocator import (
    MissProportionalOSAllocator,
    OSAllocator,
    StaticOSAllocator,
)
from repro.multiapp.engine import MultiAppEngine, MultiAppResult
from repro.multiapp.runtime import AppRuntime
from repro.sim.config import SystemConfig
from repro.sim.driver import prepare_program
from repro.trace.workloads import WorkloadProfile

__all__ = ["run_coexecution"]


def run_coexecution(
    apps: list[str | WorkloadProfile],
    config: SystemConfig,
    *,
    scheme: str = "hierarchical",
    threads_per_app: int | None = None,
    os_epoch_intervals: int = 5,
) -> MultiAppResult:
    """Co-execute several applications on one CMP under one of:

    * ``"shared"``       — no partitioning anywhere (global LRU);
    * ``"os-only"``      — OS partitions between applications (dynamic,
      miss-proportional); each app's slice is split equally inside;
    * ``"hierarchical"`` — the paper's Fig. 16: the same OS allocator on
      top, the intra-application model-based runtime below;
    * ``"hierarchical-static-os"`` — intra-application runtime below a
      fixed OS split (isolates the intra-app contribution).

    ``threads_per_app`` defaults to ``config.n_threads`` (each app runs
    its canonical thread count; the cache is shared by the total).
    """
    if scheme not in ("shared", "os-only", "hierarchical", "hierarchical-static-os"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if not apps:
        raise ValueError("need at least one application")
    tpa = threads_per_app or config.n_threads
    n_apps = len(apps)
    total_threads = tpa * n_apps
    total_ways = config.total_ways
    if total_ways < total_threads * config.min_ways and scheme != "shared":
        raise ValueError(
            f"{total_ways} ways cannot support {total_threads} threads at "
            f"min_ways={config.min_ways}"
        )

    app_config = config.with_(n_threads=tpa)
    compiled = [prepare_program(app, app_config) for app in apps]

    enforce = scheme != "shared"
    runtimes: list[AppRuntime] | None = None
    allocator: OSAllocator | None = None
    if enforce:
        alloc_cls = (
            StaticOSAllocator if scheme == "hierarchical-static-os" else MissProportionalOSAllocator
        )
        allocator = alloc_cls(
            n_apps, total_ways, min_ways_per_app=tpa * max(1, config.min_ways)
        )
        budgets = allocator.initial_budgets([tpa] * n_apps)
        mode = "static-equal" if scheme == "os-only" else "model-based"
        runtimes = [
            AppRuntime(tpa, b, mode=mode, min_ways=config.min_ways)
            for b in budgets
        ]
        if scheme == "hierarchical-static-os":
            allocator = None  # fixed initial budgets, no epochs

    # The multi-app engine drives the cache through its `access()` method,
    # so every backend setting replays on the reference cache.
    l2 = PartitionedSharedCache(config.l2_geometry, total_threads, enforce_partition=enforce)
    engine = MultiAppEngine(
        compiled,
        l2,
        config.timing,
        runtimes,
        allocator,
        interval_instructions=config.interval_instructions,
        os_epoch_intervals=os_epoch_intervals,
    )
    return engine.run()
