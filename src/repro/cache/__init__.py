"""Cache substrate: geometries, private L1s, and the partitionable shared L2.

The shared cache implements the paper's Section V mechanism — way
partitioning by replacement control with per-set current/target counters —
while the L1 module also exposes a batch trace filter that lets the
simulator evaluate several partitioning policies against identical L2
access streams.
"""

from repro.cache.geometry import CacheGeometry
from repro.cache.l1 import PrivateCache, simulate_l1_filter
from repro.cache.shared import PartitionedSharedCache
from repro.cache.stats import CacheStats, StatsSnapshot

__all__ = [
    "CacheGeometry",
    "CacheStats",
    "PartitionedSharedCache",
    "PrivateCache",
    "StatsSnapshot",
    "simulate_l1_filter",
]
