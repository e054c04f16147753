"""The per-layer metrics: which public functions each layer's spans wrap,
and how a traced run turns spans into metrics.

Names follow the repository's stage vocabulary (ROADMAP item 1).  Every
workload reports every name; a layer a workload does not run reads 0.
"""

from __future__ import annotations

import os

from spans import Tracer

#: (name, unit, better) for every per-layer metric, in report order.
PER_LAYER = (
    ("apps.profile.s", "s", "lower"),
    ("apps.profile.calls", "count", "lower"),
    ("engine.plan.s", "s", "lower"),
    ("engine.address.s", "s", "lower"),
    ("engine.address.calls", "count", "lower"),
    ("engine.model_version.s", "s", "lower"),
    ("engine.model_version.calls", "count", "lower"),
    ("engine.read.s", "s", "lower"),
    ("engine.read.hits", "count", "higher"),
    ("engine.read.misses", "count", "lower"),
    ("engine.read.bytes", "bytes", "lower"),
    ("engine.hit_ratio", "ratio", "higher"),
    ("engine.evaluations", "count", "lower"),
    ("engine.cache_hits", "count", "lower"),
    ("engine.decode.s", "s", "lower"),
    ("engine.decode.calls", "count", "lower"),
    ("engine.encode.s", "s", "lower"),
    ("engine.encode.calls", "count", "lower"),
    ("engine.write.s", "s", "lower"),
    ("engine.write.calls", "count", "lower"),
    ("engine.write.bytes", "bytes", "lower"),
    ("engine.scalar.s", "s", "lower"),
    ("engine.scalar.calls", "count", "lower"),
    ("vec.lower.s", "s", "lower"),
    ("vec.lower.calls", "count", "lower"),
    ("vec.pass.s", "s", "lower"),
    ("vec.batches", "count", "lower"),
    ("vec.jobs", "count", "lower"),
    ("vec.declined", "count", "lower"),
    ("perfmodel.comm.s", "s", "lower"),
    ("perfmodel.comm.calls", "count", "lower"),
    ("perfmodel.scaling.s", "s", "lower"),
    ("harness.figures.s", "s", "lower"),
    ("obs.score.s", "s", "lower"),
    ("obs.paper_err", "ratio", "lower"),
    ("obs.paper_rank", "ratio", "higher"),
    ("serve.queue_wait.s", "s", "lower"),
    ("serve.batch_window.s", "s", "lower"),
    ("serve.shard_exec.s", "s", "lower"),
    ("serve.store_io.s", "s", "lower"),
    ("serve.render.s", "s", "lower"),
    ("serve.unattributed.s", "s", "lower"),
    ("serve.coalesced", "count", "higher"),
    ("serve.warm_inline", "count", "higher"),
    ("serve.lru.hits", "count", "higher"),
    ("serve.lru.misses", "count", "lower"),
    ("serve.lru.hit_ratio", "ratio", "higher"),
    ("serve.refused", "count", "lower"),
    ("simmpi.build.s", "s", "lower"),
    ("simmpi.run.s", "s", "lower"),
    ("simmpi.group.calls", "count", "lower"),
    ("simmpi.group.s", "s", "lower"),
    ("simmpi.price.calls", "count", "lower"),
    ("simmpi.price.s", "s", "lower"),
    ("simmpi.messages", "count", "lower"),
    ("simmpi.bytes", "bytes", "lower"),
    ("simmpi.us_per_msg.64", "us", "lower"),
    ("simmpi.us_per_msg.1024", "us", "lower"),
    ("simmpi.scaling_eff", "ratio", "higher"),
    ("trace_overhead", "ratio", "lower"),
    ("unattributed.s", "s", "lower"),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}

#: Span name -> per-layer time metric fed by its self time.
SELF_TIME = {
    "apps.profile": "apps.profile.s",
    "engine.plan": "engine.plan.s",
    "engine.address": "engine.address.s",
    "engine.model_version": "engine.model_version.s",
    "engine.read": "engine.read.s",
    "engine.decode": "engine.decode.s",
    "engine.encode": "engine.encode.s",
    "engine.write": "engine.write.s",
    "engine.scalar": "engine.scalar.s",
    "vec.lower": "vec.lower.s",
    "vec.pass": "vec.pass.s",
    "perfmodel.comm": "perfmodel.comm.s",
    "perfmodel.scaling": "perfmodel.scaling.s",
    "harness.figures": "harness.figures.s",
    "obs.score": "obs.score.s",
    "serve.render": "serve.render.s",
    "simmpi.build": "simmpi.build.s",
    "simmpi.run": "simmpi.run.s",
    "simmpi.group": "simmpi.group.s",
    "simmpi.price": "simmpi.price.s",
}

#: Span name -> per-layer call-count metric.
CALLS = {
    "apps.profile": "apps.profile.calls",
    "engine.address": "engine.address.calls",
    "engine.model_version": "engine.model_version.calls",
    "engine.decode": "engine.decode.calls",
    "engine.encode": "engine.encode.calls",
    "engine.write": "engine.write.calls",
    "engine.scalar": "engine.scalar.calls",
    "vec.lower": "vec.lower.calls",
    "perfmodel.comm": "perfmodel.comm.calls",
    "simmpi.group": "simmpi.group.calls",
    "simmpi.price": "simmpi.price.calls",
}

FIGURE_FUNCS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                "fig7x", "fig8", "fig9")


def zeros() -> dict[str, float]:
    return {name: 0.0 for name, _, _ in PER_LAYER}


def as_metrics(values: dict[str, float]) -> dict:
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit, _ in PER_LAYER}


# ---- hooks (run after the wrapped call returns) -------------------------


def _after_get(tracer: Tracer, args, result) -> None:
    _count_load(tracer, args[0])
    tracer.count("engine.read.hits" if result is not None
                 else "engine.read.misses")


def _after_contains(tracer: Tracer, args, result) -> None:
    _count_load(tracer, args[0])


def _store_size(store) -> int:
    path = getattr(store, "path", None)
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def _count_load(tracer: Tracer, store) -> None:
    """Bytes a store read from disk: its file's size at its first read
    (the first ``get``/``in`` loads the whole file)."""
    if store not in tracer.memo:
        tracer.memo[store] = size = _store_size(store)
        tracer.count("engine.read.bytes", size)


def _after_put(tracer: Tracer, args, result) -> None:
    """Bytes a ``put`` appended: growth of the store file since the
    store's last read or write."""
    store = args[0]
    size = _store_size(store)
    tracer.count("engine.write.bytes", size - tracer.memo.get(store, 0))
    tracer.memo[store] = size


def _after_evaluate_many(tracer: Tracer, args, result) -> None:
    tracer.count("vec.batches")
    tracer.count("vec.jobs", len(args[1]))
    tracer.count("vec.declined", sum(1 for r in result if r is None))


# ---- installation -------------------------------------------------------


def install_engine(tracer: Tracer) -> None:
    """Wrap the model/engine/vec layers (figures and the serve process)."""
    import repro.apps.base  # noqa: F401 - load every wrapped module
    import repro.engine.core  # noqa: F401
    import repro.harness.figures  # noqa: F401
    import repro.obs.fidelity  # noqa: F401
    import repro.perfmodel.scaling  # noqa: F401
    import repro.vec.evaluate  # noqa: F401

    w, m = tracer.wrap_function, tracer.wrap_method
    w("repro.apps.base", "build_spec", "apps.profile")
    w("repro.engine.jobs", "build_plan", "engine.plan")
    w("repro.engine.jobs", "sweep_plan", "engine.plan")
    m("repro.engine.core", "SweepEngine", "result_address", "engine.address")
    w("repro.engine.store", "model_version", "engine.model_version")
    m("repro.engine.store", "ResultStore", "get", "engine.read",
      after=_after_get)
    m("repro.engine.store", "ResultStore", "__contains__", "engine.read",
      after=_after_contains)
    w("repro.engine.store", "estimate_from_dict", "engine.decode")
    w("repro.engine.store", "estimate_to_dict", "engine.encode")
    m("repro.engine.store", "ResultStore", "put", "engine.write",
      after=_after_put)
    w("repro.perfmodel.roofline", "estimate_app", "engine.scalar",
      only_in="repro.engine.core")
    for cls, attr in (("AppBlock", "from_spec"), ("PairBlock", "from_pair"),
                      ("PlatformTable", "from_hierarchy")):
        m("repro.vec.arrays", cls, attr, "vec.lower")
    m("repro.vec.evaluate", "VecEvaluator", "evaluate_many", "vec.pass",
      after=_after_evaluate_many)
    w("repro.perfmodel.commmodel", "estimate_comm", "perfmodel.comm")
    w("repro.perfmodel.scaling", "cluster_strong_scaling", "perfmodel.scaling")
    w("repro.perfmodel.scaling", "cluster_weak_scaling", "perfmodel.scaling")
    for fig in FIGURE_FUNCS:
        w("repro.harness.figures", fig, "harness.figures")
    w("repro.obs.fidelity", "score_figure", "obs.score")


def install_serve(tracer: Tracer) -> None:
    """Wrap the serve layer's own public functions (server process)."""
    import repro.serve.payloads  # noqa: F401

    tracer.wrap_function("repro.serve.payloads", "render_json", "serve.render")


def install_simmpi(tracer: Tracer) -> None:
    import repro.simmpi.cart  # noqa: F401
    import repro.simmpi.clock  # noqa: F401
    import repro.simmpi.comm  # noqa: F401

    w, m = tracer.wrap_function, tracer.wrap_method
    m("repro.simmpi.comm", "World", "__init__", "simmpi.build")
    m("repro.simmpi.cart", "CartGrid", "__init__", "simmpi.build")
    w("repro.simmpi.cart", "dims_create", "simmpi.build")
    m("repro.simmpi.comm", "World", "run", "simmpi.run")
    m("repro.simmpi.comm", "Communicator", "group", "simmpi.group",
      aggregate=True)
    for cls in ("CostModel", "ZeroCostModel", "MachineCostModel",
                "ClusterCostModel"):
        for attr in ("message_overhead", "transfer_time",
                     "transfer_breakdown", "collective_time"):
            m("repro.simmpi.clock", cls, attr, "simmpi.price", aggregate=True)


# ---- span -> metric -----------------------------------------------------


def layer_metrics(tracer: Tracer, keep: set[int], ops: int) -> dict:
    """Per-operation self seconds and counts over the spans in ``keep``
    (the spans of ``ops`` traced operations); aggregated calls and
    counts were only recorded while the wrappers were installed."""
    out = zeros()
    if ops <= 0:
        return out
    self_s = tracer.self_times(keep)
    calls = tracer.calls(keep)
    for span, key in SELF_TIME.items():
        out[key] = self_s.get(span, 0.0) / ops
    for span, key in CALLS.items():
        out[key] = calls.get(span, 0) / ops
    for agg, (n, secs) in tracer.aggregates.items():
        if agg in SELF_TIME:
            out[SELF_TIME[agg]] = secs / ops
        if agg in CALLS:
            out[CALLS[agg]] = n / ops
    for name, value in tracer.counts.items():
        if name in UNITS:
            out[name] = value / ops
    hits, misses = out["engine.read.hits"], out["engine.read.misses"]
    out["engine.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out


def to_fast_equivalent(values: dict, raw_s: float, fast_s: float) -> dict:
    """Rescale every time metric by the traced operations' host-state
    correction (their fast-equivalent over their raw seconds)."""
    k = fast_s / raw_s if raw_s else 1.0
    return {name: v * k if UNITS.get(name) == "s" else v
            for name, v in values.items()}


def root_metrics(tracer: Tracer, roots: list[int]) -> dict:
    """:func:`layer_metrics` for single-threaded workloads with one root
    span per operation; the roots' own self time is the unattributed
    time, so the time metrics add up to the roots' duration."""
    out = layer_metrics(tracer, tracer.descendants(roots), len(roots))
    if roots:
        own = tracer.self_times(set(roots))
        out["unattributed.s"] = sum(own.values()) / len(roots)
    return out
