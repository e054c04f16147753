"""Benchmark harness: runners and figure regeneration.

- :func:`~repro.harness.runner.run_application` / ``sweep`` / ``best_run``
  — evaluate any app x platform x configuration;
- :mod:`~repro.harness.figures` — ``fig1()`` .. ``fig9()`` regenerate the
  paper's tables and figures with published values alongside
  (``fig7x()`` extends Fig 7 to multi-node 1k-10k rank scaling);
- ``python -m repro.harness`` prints everything.

Layer role (docs/ARCHITECTURE.md): the top of the stack — user-facing
runners over the engine and the fig1..fig9 regeneration.
"""

from .figures import (
    all_figures,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig7x,
    fig8,
    fig9,
)
from .report import FigureResult, format_table, render_breakdown
from .runner import (
    app_spec,
    best_attribution,
    best_run,
    clear_cache,
    run_application,
    sweep,
    trace_application,
)

__all__ = [
    "run_application",
    "trace_application",
    "sweep",
    "best_run",
    "best_attribution",
    "app_spec",
    "clear_cache",
    "FigureResult",
    "format_table",
    "render_breakdown",
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig7x",
    "fig8", "fig9",
    "all_figures",
]
