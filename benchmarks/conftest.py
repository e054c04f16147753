"""Shared fixtures for the figure-regeneration benchmark suite.

Each ``test_figN_*`` module regenerates one of the paper's figures,
prints the model-vs-paper table, and asserts the *shape* agreements
(orderings, crossovers, rough factors) documented in EXPERIMENTS.md.
Figure results are cached per session so the suite stays fast.
"""

from __future__ import annotations

import os
from functools import lru_cache

import pytest

from repro.engine import configure_engine, default_engine
from repro.harness import figures


@pytest.fixture(scope="session", autouse=True)
def _engine_for_benchmarks(tmp_path_factory):
    """Route the figure sweeps through a session-local engine.

    The persistent store lives in a per-session temp dir unless
    ``REPRO_CACHE_DIR`` is set (point it at a fixed path to benchmark
    warm-cache runs).
    """
    cache_dir = os.environ.get("REPRO_CACHE_DIR") or str(
        tmp_path_factory.mktemp("engine-cache")
    )
    configure_engine(cache_dir=cache_dir)
    yield


@lru_cache(maxsize=None)
def cached_figure(name: str):
    return getattr(figures, name)()


@pytest.fixture(scope="session")
def fig(request):
    """Indirect figure accessor: ``fig('fig6')``."""
    return cached_figure


@pytest.fixture(autouse=True)
def _count_as_benchmark(benchmark):
    """Every test in this suite is part of the figure-regeneration
    benchmark run: depend on the ``benchmark`` fixture so
    ``--benchmark-only`` executes the shape assertions too."""
    yield


@pytest.fixture(scope="session", autouse=True)
def _print_tables_once(request):
    """Print every regenerated table at the end of the benchmark run."""
    yield
    capman = request.config.pluginmanager.getplugin("capturemanager")
    if capman:
        capman.suspend_global_capture(in_=True)
    try:
        for name in ("fig1", "fig2", "fig3", "fig4", "fig5",
                     "fig6", "fig7", "fig8", "fig9"):
            if cached_figure.cache_info().currsize:  # only if suite ran
                print()
                print(cached_figure(name).render())
        if cached_figure.cache_info().currsize:
            print()
            print(default_engine().metrics.summary())
    finally:
        if capman:
            capman.resume_global_capture()
