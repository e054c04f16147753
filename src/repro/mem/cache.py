"""Set-associative cache simulator with LRU replacement.

Used by ``examples/tiling_study.py`` to show *why* cache-blocking helps
— the simulator counts the main-memory lines a loop sequence actually
touches with and without tiling — and by the property-based test suite
to pin down hierarchy invariants (inclusion of reuse, eviction order,
miss-rate bounds).  No figure runs it: Figure 9's tiled traffic comes
from ``repro.ops.tiling.TiledChainModel``.

The simulator is line-granular and deliberately simple: physical
addresses are integers, a cache is ``num_sets x associativity`` lines,
and replacement is strict LRU per set.  Hardware prefetching is modeled
as an optional "next-N-lines" prefetcher because streaming kernels on the
platforms studied are effectively prefetch-perfect for unit strides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..machine.spec import CacheLevel
from ..obs.metrics import active_metrics

__all__ = ["CacheStats", "Cache", "CacheHierarchy"]


@dataclass
class CacheStats:
    """Access counters for one cache level."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = self.hits = self.misses = 0
        self.evictions = self.writebacks = 0


class Cache:
    """One level of set-associative cache with LRU replacement.

    Parameters
    ----------
    capacity, line_size, associativity:
        Geometry; ``capacity`` must be divisible by
        ``line_size * associativity``.
    write_allocate:
        Whether a write miss fills the line (true for the WB+WA caches on
        all platforms studied).
    """

    def __init__(
        self,
        capacity: int,
        line_size: int = 64,
        associativity: int = 8,
        write_allocate: bool = True,
        name: str = "cache",
    ) -> None:
        if capacity <= 0 or line_size <= 0 or associativity <= 0:
            raise ValueError("capacity, line_size, associativity must be positive")
        if capacity % (line_size * associativity):
            raise ValueError("capacity must be divisible by line_size * associativity")
        self.capacity = capacity
        self.line_size = line_size
        self.associativity = associativity
        self.write_allocate = write_allocate
        #: Level label used by the metrics registry (``level=...``).
        self.name = name
        self.num_sets = capacity // (line_size * associativity)
        self.stats = CacheStats()
        # Per set: list of (tag, dirty) in LRU order (front = LRU).
        self._sets: list[list[list]] = [[] for _ in range(self.num_sets)]

    @classmethod
    def from_level(cls, level: CacheLevel) -> "Cache":
        return cls(level.capacity, level.line_size, level.associativity,
                   name=level.name)

    # ------------------------------------------------------------------

    def _locate(self, line_addr: int) -> tuple[int, int]:
        return line_addr % self.num_sets, line_addr // self.num_sets

    def access(self, addr: int, write: bool = False) -> bool:
        """Access one byte address; returns True on hit.

        On a miss the line is filled (unless a non-allocating write) and
        the LRU line of the set is evicted if necessary.
        """
        line_addr = addr // self.line_size
        return self.access_line(line_addr, write)

    def access_line(self, line_addr: int, write: bool = False) -> bool:
        set_idx, tag = self._locate(line_addr)
        ways = self._sets[set_idx]
        self.stats.accesses += 1
        m = active_metrics()
        if m is not None:
            m.inc("mem_cache_accesses_total", level=self.name)
        for i, entry in enumerate(ways):
            if entry[0] == tag:
                self.stats.hits += 1
                if m is not None:
                    m.inc("mem_cache_hits_total", level=self.name)
                ways.append(ways.pop(i))  # move to MRU
                if write:
                    ways[-1][1] = True
                return True
        self.stats.misses += 1
        if m is not None:
            m.inc("mem_cache_misses_total", level=self.name)
        if write and not self.write_allocate:
            return False
        if m is not None:
            m.inc("mem_cache_fill_bytes_total", self.line_size, level=self.name)
        if len(ways) >= self.associativity:
            victim = ways.pop(0)
            self.stats.evictions += 1
            if m is not None:
                m.inc("mem_cache_evictions_total", level=self.name)
            if victim[1]:
                self.stats.writebacks += 1
                if m is not None:
                    m.inc("mem_cache_writeback_bytes_total", self.line_size,
                          level=self.name)
        ways.append([tag, write])
        return False

    def access_range(self, start: int, nbytes: int, write: bool = False) -> int:
        """Access every line of ``[start, start+nbytes)``; returns misses."""
        if nbytes <= 0:
            return 0
        first = start // self.line_size
        last = (start + nbytes - 1) // self.line_size
        misses = 0
        for line in range(first, last + 1):
            if not self.access_line(line, write):
                misses += 1
        return misses

    def access_array(self, line_addrs: np.ndarray, write: bool = False) -> int:
        """Access a sequence of line addresses; returns total misses."""
        misses = 0
        for line in np.asarray(line_addrs, dtype=np.int64):
            if not self.access_line(int(line), write):
                misses += 1
        return misses

    # ------------------------------------------------------------------

    def contains(self, addr: int) -> bool:
        line_addr = addr // self.line_size
        set_idx, tag = self._locate(line_addr)
        return any(e[0] == tag for e in self._sets[set_idx])

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    def flush(self) -> int:
        """Empty the cache; returns the number of dirty lines written back."""
        dirty = sum(1 for s in self._sets for e in s if e[1])
        self.stats.writebacks += dirty
        if dirty:
            m = active_metrics()
            if m is not None:
                m.inc("mem_cache_writeback_bytes_total", dirty * self.line_size,
                      level=self.name)
        self._sets = [[] for _ in range(self.num_sets)]
        return dirty


class CacheHierarchy:
    """A stack of inclusive cache levels in front of main memory.

    ``access`` walks levels from innermost out, filling on the way back.
    ``memory_traffic_bytes`` is what escaped the last level — the quantity
    the Figure 9 tiling analysis cares about.
    """

    def __init__(self, levels: list[Cache]) -> None:
        if not levels:
            raise ValueError("at least one cache level required")
        line = levels[0].line_size
        if any(lvl.line_size != line for lvl in levels):
            raise ValueError("all levels must share a line size")
        self.levels = levels
        self.memory_lines = 0
        self.memory_writeback_lines = 0

    @property
    def line_size(self) -> int:
        return self.levels[0].line_size

    def access(self, addr: int, write: bool = False) -> int:
        """Access an address; returns the depth that hit (len(levels) =
        main memory)."""
        line_addr = addr // self.line_size
        for depth, lvl in enumerate(self.levels):
            if lvl.access_line(line_addr, write):
                # Fill inner levels (inclusive hierarchy).
                for inner in self.levels[:depth]:
                    inner.access_line(line_addr, write)
                return depth
        self.memory_lines += 1
        m = active_metrics()
        if m is not None:
            m.inc("mem_cache_memory_bytes_total", self.line_size)
        return len(self.levels)

    def access_range(self, start: int, nbytes: int, write: bool = False) -> None:
        if nbytes <= 0:
            return
        first = start // self.line_size
        last = (start + nbytes - 1) // self.line_size
        for line in range(first, last + 1):
            self.access(line * self.line_size, write)

    @property
    def memory_traffic_bytes(self) -> int:
        return self.memory_lines * self.line_size

    def reset(self) -> None:
        for lvl in self.levels:
            lvl.flush()
            lvl.stats.reset()
        self.memory_lines = 0
        self.memory_writeback_lines = 0
