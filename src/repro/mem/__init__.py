"""Memory-hierarchy simulation: caches, bandwidth curves, BabelStream.

- :class:`~repro.mem.cache.Cache` / :class:`~repro.mem.cache.CacheHierarchy`
  — line-granular set-associative LRU simulator (used by
  ``examples/tiling_study.py`` only; no figure reads it).
- :class:`~repro.mem.hierarchy.HierarchyModel` — working-set-dependent
  achievable bandwidth (the engine behind Figure 1 and the roofline's
  bandwidth term).
- :mod:`~repro.mem.stream` — BabelStream kernels and the Triad sweep.

Layer role (docs/ARCHITECTURE.md): memory-system layer between the
platform models and the DSLs/perfmodel; prices working sets on the
machine models' cache hierarchies.
"""

from .cache import Cache, CacheHierarchy, CacheStats
from .hierarchy import BandwidthPoint, HierarchyModel, Scope
from .stream import (
    STREAM_SCALAR,
    StreamArrays,
    TriadResult,
    add,
    copy,
    dot,
    mul,
    plateau_bandwidth,
    triad,
    triad_bytes,
    triad_sweep,
)

__all__ = [
    "Cache",
    "CacheHierarchy",
    "CacheStats",
    "HierarchyModel",
    "Scope",
    "BandwidthPoint",
    "StreamArrays",
    "copy",
    "mul",
    "add",
    "triad",
    "dot",
    "triad_bytes",
    "triad_sweep",
    "plateau_bandwidth",
    "TriadResult",
    "STREAM_SCALAR",
]
