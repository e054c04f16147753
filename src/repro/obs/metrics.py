"""Labeled metrics registry: counters, gauges and histograms.

The observability counterpart of :mod:`repro.obs.tracer`: where the
tracer records *when* things happened, the registry counts *how much* —
cache hits per level, simulated-MPI messages and per-rank wait seconds,
winning roofline limbs, result-store traffic.  Instrumentation sites
live in the layers the tracer does not count (``mem``, ``simmpi``,
``perfmodel``, ``engine.store``) and all follow the same pattern::

    m = active_metrics()
    if m is not None:
        m.inc("mem_cache_hits_total", level="L1")

Scoping mirrors the tracer exactly: :func:`collecting` installs a
registry in a :mod:`contextvars` context variable, and
:func:`active_metrics` is a no-op (module-global integer check, no
ContextVar lookup) while no registry is installed anywhere in the
process.  Metrics therefore have zero overhead on uninstrumented runs —
the tests pin this down by asserting bit-identical sweep results and
store bytes with and without a registry installed.

Metric taxonomy (see ``docs/OBSERVABILITY.md`` for the full table):
names are Prometheus-style snake case, ``*_total`` for counters,
``*_seconds``/``*_bytes`` units spelled out, and labels identify the
subdivision (cache ``level``, MPI ``rank``, roofline ``limb``, ...).

Exporters: :func:`prometheus_text` renders the Prometheus text
exposition format; :func:`snapshot` returns a JSON-able dict (the
``python -m repro metrics --json`` output).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator, Sequence

__all__ = [
    "DEFAULT_BUCKETS",
    "HistogramValue",
    "MetricsRegistry",
    "active_metrics",
    "bucket_quantile",
    "collecting",
    "prometheus_text",
    "quantile_summary",
    "snapshot",
]

#: Default histogram bucket upper bounds (seconds-flavored; the stack's
#: own histograms each pass bounds of their own).
DEFAULT_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)


def _labelkey(labels: dict) -> tuple[tuple[str, str], ...]:
    """Canonical, hashable form of a label set (values stringified)."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def bucket_quantile(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> float | None:
    """Quantile ``q`` of a cumulative-bucket histogram, or None when empty.

    Monotone linear interpolation inside the owning bucket, the same
    estimate Prometheus' ``histogram_quantile`` computes: the rank
    ``q * count`` is located in the first bucket whose cumulative count
    reaches it, and the value is interpolated between the bucket's lower
    and upper bound assuming uniform mass.  Mass in the +Inf bucket has
    no upper bound to interpolate toward, so it clamps to the last
    finite bound — a deliberate underestimate rather than a NaN.

    ``counts`` is per-bucket (len(bounds) + 1, last entry the +Inf
    overflow), exactly the :class:`HistogramValue` layout.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return None
    rank = q * total
    acc = 0.0
    for i, n in enumerate(counts[: len(bounds)]):
        if n == 0:
            continue
        if acc + n >= rank:
            lower = bounds[i - 1] if i > 0 else 0.0
            upper = bounds[i]
            frac = (rank - acc) / n
            return lower + (upper - lower) * max(0.0, min(1.0, frac))
        acc += n
    # Rank falls in the +Inf bucket: clamp to the largest finite bound
    # (or the largest observed total when there are no finite bounds).
    return float(bounds[-1]) if bounds else 0.0


@dataclass
class HistogramValue:
    """One histogram sample series: cumulative buckets plus sum/count."""

    bounds: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)  # one per bound, + inf
    total: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        # bisect_left on the sorted bounds returns the first index whose
        # bound >= value — identical bucket assignment (``value <= bound``
        # cumulative semantics) to a linear scan, in O(log n); a value
        # above every bound lands on len(bounds), the +Inf slot.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper-bound, cumulative-count) pairs, ending at +inf."""
        out, acc = [], 0
        for bound, n in zip(self.bounds, self.counts):
            acc += n
            out.append((bound, acc))
        out.append((float("inf"), acc + self.counts[-1]))
        return out

    def quantile(self, q: float) -> float | None:
        """Estimated quantile ``q`` (0..1), or None for an empty histogram.

        Delegates to :func:`bucket_quantile`: monotone interpolation
        within the owning bucket, +Inf mass clamped to the last finite
        bound.  Never returns NaN.
        """
        return bucket_quantile(self.bounds, self.counts, q)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class _Family:
    """All samples of one metric name (one kind, many label sets)."""

    __slots__ = ("name", "kind", "samples")

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind  # 'counter' | 'gauge' | 'histogram'
        self.samples: dict[tuple, float | HistogramValue] = {}


class MetricsRegistry:
    """Thread-safe collector of labeled counters, gauges and histograms.

    A metric name belongs to exactly one kind; mixing kinds under one
    name raises, because the exporters could not type the family.
    Recording never mutates anything the model reads, so an installed
    registry cannot change results.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    # ---- recording ----------------------------------------------------

    def _family(self, name: str, kind: str) -> _Family:
        fam = self._families.get(name)
        if fam is None:
            fam = self._families[name] = _Family(name, kind)
        elif fam.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {fam.kind}, not a {kind}"
            )
        return fam

    def inc(self, name: str, value: float = 1, **labels) -> None:
        """Add ``value`` (>= 0) to a counter sample."""
        if value < 0:
            raise ValueError(f"counter {name!r} cannot decrease (got {value})")
        key = _labelkey(labels)
        with self._lock:
            fam = self._family(name, "counter")
            fam.samples[key] = fam.samples.get(key, 0) + value

    def set(self, name: str, value: float, **labels) -> None:
        """Set a gauge sample to ``value``."""
        key = _labelkey(labels)
        with self._lock:
            self._family(name, "gauge").samples[key] = value

    def observe(
        self,
        name: str,
        value: float,
        buckets: tuple[float, ...] | None = None,
        **labels,
    ) -> None:
        """Record ``value`` into a histogram sample.

        ``buckets`` fixes the bucket bounds on first observation of a
        label set; later observations reuse the existing bounds.
        """
        key = _labelkey(labels)
        with self._lock:
            fam = self._family(name, "histogram")
            hist = fam.samples.get(key)
            if hist is None:
                hist = fam.samples[key] = HistogramValue(
                    bounds=tuple(buckets) if buckets else DEFAULT_BUCKETS
                )
            hist.observe(value)

    # ---- reading ------------------------------------------------------

    def value(self, name: str, default: float = 0.0, **labels) -> float:
        """Current value of one counter/gauge sample (``default`` when
        the sample has never been recorded)."""
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                return default
            v = fam.samples.get(_labelkey(labels), default)
        if isinstance(v, HistogramValue):
            raise ValueError(f"metric {name!r} is a histogram; use histogram()")
        return v

    def histogram(self, name: str, **labels) -> HistogramValue | None:
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                return None
            v = fam.samples.get(_labelkey(labels))
        if v is not None and not isinstance(v, HistogramValue):
            raise ValueError(f"metric {name!r} is a {type(v).__name__}, not a histogram")
        return v

    def total(self, name: str) -> float:
        """Sum of a counter/gauge family across every label set."""
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                return 0.0
            return sum(fam.samples.values())

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._families)

    def kind(self, name: str) -> str | None:
        with self._lock:
            fam = self._families.get(name)
            return fam.kind if fam else None

    def samples(self, name: str) -> list[tuple[dict, float | HistogramValue]]:
        """(labels, value) pairs of one family, label-sorted."""
        with self._lock:
            fam = self._families.get(name)
            items = sorted(fam.samples.items()) if fam else []
        return [(dict(k), v) for k, v in items]

    def merge(self, other: "MetricsRegistry") -> int:
        """Fold ``other``'s samples into this registry; returns the
        number of samples merged.

        Counters add, gauges take the other registry's value, and
        histograms with matching bucket bounds add elementwise (a
        sample that exists only in ``other`` is copied).  Mismatched
        kinds or histogram bounds raise, mirroring the single-registry
        kind check.
        """
        merged = 0
        for name in other.names():
            kind = other.kind(name)
            for labels, v in other.samples(name):
                if kind == "counter":
                    self.inc(name, v, **labels)
                elif kind == "gauge":
                    self.set(name, v, **labels)
                else:
                    key = _labelkey(labels)
                    with self._lock:
                        fam = self._family(name, "histogram")
                        mine = fam.samples.get(key)
                        if mine is None:
                            fam.samples[key] = HistogramValue(
                                bounds=v.bounds, counts=list(v.counts),
                                total=v.total, count=v.count,
                            )
                        elif mine.bounds != v.bounds:
                            raise ValueError(
                                f"histogram {name!r} bucket bounds differ; "
                                "cannot merge"
                            )
                        else:
                            mine.counts = [
                                a + b for a, b in zip(mine.counts, v.counts)
                            ]
                            mine.total += v.total
                            mine.count += v.count
                merged += 1
        return merged

    def clear(self) -> None:
        with self._lock:
            self._families.clear()

    def __len__(self) -> int:
        with self._lock:
            return sum(len(f.samples) for f in self._families.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            fams = len(self._families)
        return f"<MetricsRegistry {fams} families, {len(self)} samples>"


# ---------------------------------------------------------------------------
# Exporters


def snapshot(registry: MetricsRegistry) -> dict:
    """JSON-able snapshot: ``{name: {"type": ..., "samples": [...]}}``.

    Histograms export their bucket bounds, per-bucket counts, sum and
    count; counters/gauges export a plain ``value``.  Deterministically
    ordered (names and label sets sorted) so snapshots diff cleanly.
    """
    out: dict = {}
    for name in registry.names():
        rows = []
        for labels, v in registry.samples(name):
            if isinstance(v, HistogramValue):
                rows.append({
                    "labels": labels,
                    "buckets": [
                        {"le": b, "count": c} for b, c in zip(v.bounds, v.counts)
                    ] + [{"le": "+Inf", "count": v.counts[-1]}],
                    "sum": v.total,
                    "count": v.count,
                    "quantiles": {
                        "p50": v.quantile(0.50),
                        "p95": v.quantile(0.95),
                        "p99": v.quantile(0.99),
                    },
                })
            else:
                rows.append({"labels": labels, "value": v})
        out[name] = {"type": registry.kind(name), "samples": rows}
    return out


def _fmt_value(v: float) -> str:
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return repr(v)


def _fmt_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in the Prometheus text exposition format.

    Histograms render the standard ``_bucket``/``_sum``/``_count``
    triplet with cumulative ``le`` labels.
    """
    lines: list[str] = []
    for name in registry.names():
        lines.append(f"# TYPE {name} {registry.kind(name)}")
        for labels, v in registry.samples(name):
            if isinstance(v, HistogramValue):
                for bound, cum in v.cumulative():
                    le = "+Inf" if bound == float("inf") else _fmt_value(bound)
                    lines.append(
                        f"{name}_bucket{_fmt_labels({**labels, 'le': le})} {cum}"
                    )
                lines.append(f"{name}_sum{_fmt_labels(labels)} {_fmt_value(v.total)}")
                lines.append(f"{name}_count{_fmt_labels(labels)} {v.count}")
            else:
                lines.append(f"{name}{_fmt_labels(labels)} {_fmt_value(v)}")
    return "\n".join(lines) + ("\n" if lines else "")


def quantile_summary(registry: MetricsRegistry) -> str:
    """Human-oriented p50/p95/p99 lines for every histogram family.

    Rendered as ``# quantile`` comment lines so the block can be
    appended to a Prometheus exposition body without confusing parsers
    (comments other than ``# TYPE``/``# HELP`` are ignored).  Empty
    histograms render ``-`` rather than NaN.
    """

    def fmt(x: float | None) -> str:
        return "-" if x is None else f"{x:.6g}"

    lines: list[str] = []
    for name in registry.names():
        if registry.kind(name) != "histogram":
            continue
        for labels, v in registry.samples(name):
            assert isinstance(v, HistogramValue)
            lines.append(
                f"# quantile {name}{_fmt_labels(labels)} "
                f"p50={fmt(v.quantile(0.50))} p95={fmt(v.quantile(0.95))} "
                f"p99={fmt(v.quantile(0.99))} count={v.count}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Installation (mirrors repro.obs.tracer exactly)

_metrics_var: ContextVar[MetricsRegistry | None] = ContextVar(
    "repro_metrics", default=None
)
#: Count of live ``collecting()`` scopes process-wide.  The hot-path
#: guard: while zero, :func:`active_metrics` returns without touching
#: the ContextVar, so instrumented code costs one global read when
#: disabled.
_install_count = 0


def active_metrics() -> MetricsRegistry | None:
    """The registry installed in the current context, or None.

    This is the only call instrumentation sites make on unmetered runs;
    it must stay allocation-free and branch-predictable.
    """
    if _install_count == 0:
        return None
    return _metrics_var.get()


@contextmanager
def collecting(registry: MetricsRegistry | None = None) -> Iterator[MetricsRegistry]:
    """Install ``registry`` (or a fresh one) for the duration of the block.

    Scoped via ContextVar: nested blocks shadow outer ones, and code run
    in a copied context (``contextvars.copy_context().run``) sees the
    installing thread's registry.
    """
    global _install_count
    reg = registry if registry is not None else MetricsRegistry()
    token = _metrics_var.set(reg)
    _install_count += 1
    try:
        yield reg
    finally:
        _install_count -= 1
        _metrics_var.reset(token)
