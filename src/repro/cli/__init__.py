"""Command-line interface package: ``python -m repro <command>``.

Commands
--------
``list``
    Show the applications and platforms.
``run APP [--platform P] [--compare] [--json]``
    Model one application (best configuration by default); ``--json``
    emits the canonical payload ``POST /run`` also serves.
``trace APP [--platform P] [-o trace.json] [--iterations N] [--csv]``
    Trace one modeled run and export a Chrome trace-event JSON
    (``chrome://tracing`` / Perfetto) plus the per-kernel breakdown.
``figures [figN ...] [--no-cache]``
    Regenerate the paper's figures (all by default) through the sweep
    engine.
``sweep [APP ...] [--platform P[,P...]|all] [--no-cache] [--json]``
    Evaluate full configuration sweeps through the engine and print the
    per-configuration table plus cache/engine metrics (``--json`` for
    the canonical payload ``POST /sweep`` also serves).  Cold points are
    evaluated through the batched vectorized path (``docs/VECTOR.md``).
``validate APP``
    Execute the application's numerics at test scale and print its
    invariant diagnostics.
``metrics [APP ...] [--platform P] [--format prometheus|json] [-o FILE]``
    Run configuration sweeps with the metrics registry installed and
    export every counter/gauge/histogram (Prometheus text or JSON).
``fidelity [figN ...] [-o scorecard.md] [--json]``
    Score the model against every published reference value per figure
    (signed relative error, rank agreement, pass/fail verdicts).
``drift --check|--update``
    Compare the fidelity scorecard against ``baselines/fidelity.json``
    (``--check``, exits 1 on regression) or re-record it (``--update``).
``explain APP [--platform P] [--vs Q] [--what-if KNOB=FACTOR ...] [--json]``
    Decompose an application's best-run estimate into its additive
    attribution tree; with ``--vs`` diff two platforms and rank the
    contributors to the delta; ``--what-if`` projects perturbed limbs
    (e.g. ``dram_bw=2.0``, ``mpi_wait=inf``).
``report [-o report.html] [--format html|md]``
    Write the complete reproduction report — figures, fidelity
    scorecard, per-app timelines, attribution and diffs — as one
    self-contained HTML file (or the classic markdown).
``serve [--host H] [--port N] ...``
    Run the long-running HTTP estimation service over the process's
    engine, which merges concurrent requests' cold points and evaluates
    each once, with the result store as its warm tier and back-pressure
    (``docs/SERVE.md``).

Application names may be abbreviated to any unambiguous prefix
(``mgcfd``, ``volna``); an ambiguous prefix like ``cloverleaf`` resolves
to the first match in the canonical order with a note on stderr.
Platform names accept any prefix or substring (``8360y`` →
``icx8360y``) under the same rules.  Unknown application or platform
names exit with status 2 and a message listing the valid choices.

Layout: one module per verb group — :mod:`~repro.cli.run` (list/run/
sweep/figures/validate), :mod:`~repro.cli.trace` (trace/metrics),
:mod:`~repro.cli.fidelity` (fidelity/drift), :mod:`~repro.cli.explain`
(explain/report), :mod:`~repro.cli.serve` (serve) — over the shared
resolution helpers in :mod:`~repro.cli.common`.  :func:`main` owns the
argparse tree, so the help text and exit-code contracts live in one
place.
"""

from __future__ import annotations

import argparse

from ..apps import APP_ORDER
from .explain import cmd_explain, cmd_report
from .fidelity import cmd_drift, cmd_fidelity
from .run import cmd_figures, cmd_list, cmd_run, cmd_sweep, cmd_validate
from .serve import cmd_serve
from .trace import cmd_metrics, cmd_trace

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The complete ``repro`` argparse tree (one subparser per verb)."""
    from .. import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Xeon CPU MAX bandwidth-bound application study, reproduced",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list applications and platforms")

    p_run = sub.add_parser("run", help="model one application")
    p_run.add_argument("app", help="application name (any unambiguous prefix)")
    p_run.add_argument("--platform", default="max9480",
                       help="platform short name (default max9480)")
    p_run.add_argument("--compare", action="store_true",
                       help="run on every platform")
    p_run.add_argument("--json", action="store_true",
                       help="emit the canonical run payload as JSON "
                            "(byte-equivalent to the serve API's POST /run)")

    p_trace = sub.add_parser(
        "trace", help="trace one modeled run and export a Chrome trace")
    p_trace.add_argument("app", help="application name (any unambiguous prefix)")
    p_trace.add_argument("--platform", default="max9480",
                         help="platform short name (default max9480)")
    p_trace.add_argument("-o", "--output", default="trace.json",
                         help="Chrome trace-event JSON path (default trace.json)")
    p_trace.add_argument("--iterations", type=int, default=1,
                         help="timeline iterations to lay out (default 1)")
    p_trace.add_argument("--csv", action="store_true",
                         help="print the per-kernel breakdown as CSV "
                              "instead of a table")

    p_fig = sub.add_parser("figures", help="regenerate paper figures")
    p_fig.add_argument("figures", nargs="*",
                       help="fig1 .. fig9, fig7x (default: all)")
    p_fig.add_argument("--no-cache", action="store_true",
                       help="bypass the persistent result store")

    p_sweep = sub.add_parser(
        "sweep", help="evaluate configuration sweeps through the engine")
    # No argparse `choices` here: with nargs="*" Python <3.12 validates
    # the empty default against them and rejects it; cmd_sweep validates.
    p_sweep.add_argument("apps", nargs="*", metavar="APP",
                         help=f"applications (default: all of {', '.join(APP_ORDER)})")
    p_sweep.add_argument("--platform", default="max9480",
                         help="comma-separated platform short names, or 'all'")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="bypass the persistent result store")
    p_sweep.add_argument("--json", action="store_true",
                         help="emit the canonical sweep payload as JSON "
                              "(byte-equivalent to the serve API's POST /sweep)")

    p_val = sub.add_parser("validate", help="run an app's numerics at test scale")
    p_val.add_argument("app", help="application name (any unambiguous prefix)")

    p_met = sub.add_parser(
        "metrics", help="run sweeps with the metrics registry and export it")
    p_met.add_argument("apps", nargs="*", metavar="APP",
                       help=f"applications (default: all of {', '.join(APP_ORDER)})")
    p_met.add_argument("--platform", default="max9480",
                       help="platform short name (default max9480)")
    p_met.add_argument("--format", choices=("prometheus", "json"),
                       default="prometheus",
                       help="export format (default prometheus text)")
    p_met.add_argument("-o", "--output", default=None,
                       help="write the export to a file instead of stdout")
    p_met.add_argument("--no-cache", action="store_true",
                       help="bypass the persistent result store")

    p_fid = sub.add_parser(
        "fidelity", help="score the model against the paper's values")
    p_fid.add_argument("figures", nargs="*", metavar="FIG",
                       help="fig1 .. fig9 (default: all)")
    p_fid.add_argument("-o", "--output", default=None,
                       help="write the scorecard to a file instead of stdout")
    p_fid.add_argument("--json", action="store_true",
                       help="emit JSON instead of markdown")
    p_fid.add_argument("--no-cache", action="store_true",
                       help="bypass the persistent result store")

    p_exp = sub.add_parser(
        "explain", help="attribute an estimate's seconds and diff platforms")
    p_exp.add_argument("app", help="application name (any unambiguous prefix)")
    p_exp.add_argument("--platform", default="max9480",
                       help="platform short name, prefix or substring "
                            "(default max9480)")
    p_exp.add_argument("--vs", default=None, metavar="PLATFORM",
                       help="second platform to diff against "
                            "(ranked contributors to the delta)")
    p_exp.add_argument("--what-if", action="append", default=None,
                       metavar="KNOB=FACTOR",
                       help="project a perturbed limb, e.g. dram_bw=2.0 or "
                            "mpi_wait=inf (repeatable)")
    p_exp.add_argument("--json", action="store_true",
                       help="emit the tree/diff/projection as JSON")
    p_exp.add_argument("--no-cache", action="store_true",
                       help="bypass the persistent result store")

    p_rep = sub.add_parser(
        "report", help="write the self-contained HTML (or markdown) report")
    p_rep.add_argument("-o", "--output", default="report.html",
                       help="output path (default report.html; a .md suffix "
                            "selects markdown)")
    p_rep.add_argument("--format", choices=("html", "md"), default=None,
                       help="force the format (default: from the suffix)")
    p_rep.add_argument("--no-cache", action="store_true",
                       help="bypass the persistent result store")

    p_drift = sub.add_parser(
        "drift", help="gate the fidelity scorecard against its baseline")
    mode = p_drift.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="fail (exit 1) if any figure drifted past baseline")
    mode.add_argument("--update", action="store_true",
                      help="re-record baselines/fidelity.json from this run")
    p_drift.add_argument("--baseline", default=None,
                         help="baseline JSON path (default baselines/fidelity.json)")
    p_drift.add_argument("--no-cache", action="store_true",
                         help="bypass the persistent result store")

    p_srv = sub.add_parser(
        "serve", help="run the long-running HTTP estimation service")
    p_srv.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    p_srv.add_argument("--port", type=int, default=8000,
                       help="bind port (default 8000; 0 for ephemeral)")
    p_srv.add_argument("--max-inflight", type=int, default=8,
                       help="concurrent evaluating requests (default 8)")
    p_srv.add_argument("--max-queue", type=int, default=32,
                       help="admitted-but-waiting requests before 429 "
                            "(default 32)")
    p_srv.add_argument("--no-cache", action="store_true",
                       help="serve without the persistent result store")
    p_srv.add_argument("--access-log", metavar="FILE",
                       help="append one JSONL line per completed request "
                            "to FILE")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return {"list": cmd_list, "run": cmd_run, "trace": cmd_trace,
            "figures": cmd_figures, "sweep": cmd_sweep,
            "validate": cmd_validate, "metrics": cmd_metrics,
            "fidelity": cmd_fidelity, "drift": cmd_drift,
            "explain": cmd_explain, "report": cmd_report,
            "serve": cmd_serve}[args.command](args)
