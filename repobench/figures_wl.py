"""``figures-cold`` and ``figures-warm``: what one ``repro figures``
process does after import, over the on-disk result store.

One pass profiles the nine applications, regenerates fig1-fig9 and
fig7x, and scores fig1-fig9 through ``obs.fidelity``, on a fresh
process-default engine.  ``figures-cold`` gives every pass a new, empty
store directory; ``figures-warm`` fills one store in set-up and then
reloads it on every pass, so its passes evaluate nothing.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import subprocess
import sys
import time

import checks
import layers
from common import (BENCH_DIR, WORK, child_env, median, metric,
                    peak_rss_mb, pin, quantile)
from hoststate import StateSampler, fast_equivalent
from spans import Tracer

#: Everything a pass imports, so no timed pass pays for an import
#: (``repro.vec`` and ``numpy.random`` load lazily on first use).
IMPORTS = ("repro.harness.figures", "repro.obs.fidelity", "repro.engine",
           "repro.vec", "numpy.random")
#: Model points one pass asks the engine for at the parent commit:
#: 473 evaluations plus 2,734 cache hits cold, 3,207 hits warm.  Most
#: are repeat lookups, so ``ops_per_s`` counts this fixed amount of work
#: per pass and moves only with pass time; a change that drops repeat
#: lookups must not read as a slow-down.  The engine's own counts are
#: per-layer metrics.
POINTS_PER_PASS = 3207
SETUP_REPEATS = 3
ORACLE_POINTS = 12
CPU = 0

_pc = time.perf_counter


def _figure_names() -> list[str]:
    # The CLI's default order: fig1..fig9, then fig7x.
    return [f"fig{i}" for i in range(1, 10)] + ["fig7x"]


class Pass:
    """Timings, counts and outputs of one pass."""

    def __init__(self):
        self.ops: list[tuple[str, float, float]] = []  # label, s, factor
        self.results = []
        self.scores = []
        self.evaluations = 0
        self.cache_hits = 0
        self.write_bytes = 0

    def seconds(self) -> float:
        """Fast-equivalent seconds of the whole pass."""
        return sum(fast_equivalent(s, f) for _, s, f in self.ops)

    def paper_err(self) -> float:
        errs = [abs(e.rel_err) for s in self.scores for e in s.entries]
        return sum(errs) / len(errs)

    def paper_rank(self) -> float:
        return min(s.rank_agreement for s in self.scores
                   if s.rank_agreement is not None)


def run_pass(store_dir, sampler: StateSampler) -> Pass:
    from repro import engine
    from repro.apps.base import APP_ORDER
    from repro.harness import figures as figmod
    from repro.obs import fidelity

    os.environ["REPRO_CACHE_DIR"] = str(store_dir)
    engine.reset_engine()
    # Free the previous pass's engine now, as a new process would start
    # without it, so it cannot inflate this pass's memory or time.
    gc.collect()
    eng = engine.default_engine()
    store_file = store_dir / "results.jsonl"
    size0 = store_file.stat().st_size if store_file.exists() else 0
    p = Pass()

    def timed(label, fn):
        t0 = _pc()
        out = fn()
        t1 = _pc()
        p.ops.append((label, t1 - t0, sampler.factor(t0, t1)))
        return out

    timed("profile", lambda: [eng.app_spec(a) for a in APP_ORDER])
    for name in _figure_names():
        fn = getattr(figmod, name)

        def regenerate():
            fig = fn()
            fig.render()
            return fig

        p.results.append(timed(name, regenerate))
    for name in fidelity.FIGURE_ORDER:
        p.scores.append(timed(f"score:{name}",
                              lambda: fidelity.score_figure(name)))
    counts = eng.metrics.as_dict()
    p.evaluations = counts.get("evaluations", 0)
    p.cache_hits = counts.get("cache_hits", 0)
    size1 = store_file.stat().st_size if store_file.exists() else 0
    p.write_bytes = size1 - size0
    return p


def measure_imports() -> list[tuple[float, float]]:
    """Import the workload's modules in fresh processes: (s, factor)."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "importtime.py"), str(CPU),
             *IMPORTS],
            capture_output=True, text=True, env=child_env(), timeout=120,
            check=True,
        )
        row = json.loads(proc.stdout.splitlines()[-1])
        out.append((row["seconds"], row["factor"]))
    return out


def oracle_samples(store_dir, seed: int) -> list:
    """A seeded sample of the default plan's points: the estimate the
    pass stored next to a fresh scalar (``vectorize=False``) one."""
    from repro.apps.base import APP_ORDER
    from repro.engine import SweepEngine, build_plan
    from repro.machine import ALL_PLATFORMS

    os.environ["REPRO_CACHE_DIR"] = str(store_dir)
    plan = build_plan(list(APP_ORDER), list(ALL_PLATFORMS))
    jobs = random.Random(seed).sample(list(plan.jobs), ORACLE_POINTS)
    stored = SweepEngine(cache_dir=store_dir)
    scalar = SweepEngine(use_cache=False, vectorize=False)
    out = []
    for job in jobs:
        key = stored.result_address(job.app, job.platform, job.config)
        out.append((
            f"{job.app}@{job.platform.short_name} {job.config.label()}",
            stored.store.get(key),
            scalar.run(job.app, job.platform, job.config),
        ))
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Returns ``(correct, attempted, failed, metrics, problems)``."""
    warm = workload == "figures-warm"
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    pin(CPU)
    problems: list[str] = []
    try:
        setup = median(fast_equivalent(s, f) for s, f in measure_imports())
        with StateSampler() as sampler:
            for name in IMPORTS:
                __import__(name)

            reference = None
            if warm:
                fill = run_pass(work / "store", sampler)
                setup += fill.seconds()
                reference = checks.figure_digest(fill.results, fill.scores)
            tracer = Tracer() if trace else None
            roots: list[int] = []
            passes: list[tuple[Pass, bool]] = []
            failed = 0
            deadline = _pc() + seconds
            while len(passes) < (2 if trace else 1) or _pc() < deadline:
                store = work / ("store" if warm else f"cold-{len(passes)}")
                traced = tracer is not None and len(passes) % 2 == 0
                if traced:
                    layers.install_engine(tracer)
                    root = tracer.open("pass")
                try:
                    p = run_pass(store, sampler)
                finally:
                    if traced:
                        tracer.close(root)
                        roots.append(root)
                        tracer.uninstall()
                digest = checks.figure_digest(p.results, p.scores)
                if reference is None:
                    reference = digest
                found = checks.check_same_figures(
                    reference, digest, f"pass {len(passes)}")
                if warm:
                    found += checks.check_warm_counts(p.evaluations,
                                                      p.write_bytes)
                last_failed = bool(found)
                failed += last_failed
                problems += found
                passes.append((p, traced))
                if not warm and len(passes) > 1:
                    shutil.rmtree(work / f"cold-{len(passes) - 2}")
        last = work / ("store" if warm else f"cold-{len(passes) - 1}")
        found = checks.check_oracle(oracle_samples(last, seed))
        if found and not last_failed:
            failed += 1  # the last pass stored a wrong estimate
        problems += found
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(passes)
    if trace:
        tracer.dump(WORK / f"trace-{workload}.json")
        metrics = _traced_metrics(tracer, roots, passes)
    else:
        pass_ms = [p.seconds() * 1e3 for p, _ in passes]
        metrics = {
            "setup_s": metric(setup, "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "ok_rate": metric((attempted - failed) / attempted, "ratio"),
            "ops_per_s": metric(median(POINTS_PER_PASS / p.seconds()
                                       for p, _ in passes), "1/s"),
            "p50_ms": metric(quantile(pass_ms, 0.5), "ms"),
            "p90_ms": metric(quantile(pass_ms, 0.9), "ms"),
        }
    return not problems, attempted, failed, metrics, problems


def _traced_metrics(tracer, roots, passes) -> dict:
    values = layers.to_fast_equivalent(
        layers.root_metrics(tracer, roots),
        sum(s for p, t in passes if t for _, s, _ in p.ops),
        sum(p.seconds() for p, t in passes if t))
    on = [p.seconds() for p, traced in passes if traced]
    off = [p.seconds() for p, traced in passes if not traced]
    values["trace_overhead"] = median(on) / median(off)
    traced = [p for p, t in passes if t]
    values["engine.evaluations"] = median(p.evaluations for p in traced)
    values["engine.cache_hits"] = median(p.cache_hits for p in traced)
    first = passes[0][0]
    values["obs.paper_err"] = first.paper_err()
    values["obs.paper_rank"] = first.paper_rank()
    return layers.as_metrics(values)
