"""Self-contained performance report: one HTML file, zero dependencies.

``python -m repro report -o report.html`` renders everything the repo
knows about the reproduction into a **single file** — inline CSS, a few
lines of inline JS, no network fetches, no external assets — so the
artifact CI uploads opens anywhere:

- the platform-model summary table;
- the paper-fidelity scorecard (:mod:`repro.obs.fidelity`) with every
  entry's model-vs-paper relative error;
- all nine regenerated figures with the paper's published values
  alongside, each paired with its fidelity view;
- per application: the simulated one-iteration timeline (kernel and MPI
  segments to scale), the per-kernel breakdown table, the attribution
  tree (:mod:`repro.obs.attribution`), and the ranked differential
  contributors (:mod:`repro.obs.diff`) of the Xeon MAX's advantage over
  the 8360Y and the EPYC.

The markdown path (:func:`render_markdown`) writes the committed
``report.md`` byte for byte, so there is exactly one render stack
behind both formats.
"""

from __future__ import annotations

import html as _html
import json
from pathlib import Path

__all__ = [
    "report_data",
    "render_markdown",
    "render_html",
    "write_report",
]


# ---------------------------------------------------------------------------
# markdown


def render_markdown() -> str:
    """The classic all-figures markdown report (``report.md``) — the
    artifact to diff when iterating on the model."""
    from ..harness import all_figures
    from ..machine import ALL_PLATFORMS
    from ..mem import HierarchyModel

    lines = [
        "# Reproduction report",
        "",
        "Paper: *Comparative evaluation of bandwidth-bound applications on "
        "the Intel Xeon CPU MAX Series* (I. Z. Reguly, SC-W/PMBS 2023).",
        "",
        "## Platform models",
        "",
        "| platform | cores | STREAM GB/s | peak FP32 TFLOPS | cache:mem |",
        "|---|---|---|---|---|",
    ]
    for p in ALL_PLATFORMS:
        ratio = HierarchyModel(p).cache_to_memory_ratio()
        lines.append(
            f"| {p.name} | {p.total_cores} | {p.stream_bandwidth / 1e9:.0f} "
            f"| {p.peak_flops(4) / 1e12:.1f} | {ratio:.1f}x |"
        )
    lines.append("")
    for fig in all_figures():
        lines.append(f"## {fig.figure}: {fig.title}")
        lines.append("")
        lines.append("```")
        lines.append(fig.render())
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# data collection


def report_data() -> dict:
    """Everything the HTML report renders, computed once.

    All sweeps route through the process-default engine, so a warm
    result store makes this cheap; keys:

    - ``platforms``: per-platform summary rows;
    - ``figures``: the nine :class:`~repro.harness.report.FigureResult`
      objects;
    - ``scorecard``: the :class:`~repro.obs.fidelity.Scorecard`;
    - ``apps``: per app, per platform ``(config, estimate, tree)`` from
      :func:`repro.harness.runner.best_attribution`, plus the
      cross-platform diffs of the MAX against the other CPUs.
    """
    from ..apps import APP_ORDER
    from ..harness import all_figures, best_attribution
    from ..machine import ALL_PLATFORMS, XEON_MAX_9480
    from ..mem import HierarchyModel
    from .diff import diff_trees
    from .fidelity import scorecard

    platforms = [
        {
            "short_name": p.short_name,
            "name": p.name,
            "cores": p.total_cores,
            "stream_gbs": p.stream_bandwidth / 1e9,
            "peak_tflops": p.peak_flops(4) / 1e12,
            "cache_ratio": HierarchyModel(p).cache_to_memory_ratio(),
        }
        for p in ALL_PLATFORMS
    ]
    figures = all_figures()
    card = scorecard()

    apps = {}
    for name in APP_ORDER:
        runs = {}
        for p in ALL_PLATFORMS:
            cfg, est, tree = best_attribution(name, p)
            runs[p.short_name] = {"config": cfg, "estimate": est, "tree": tree}
        diffs = {
            other: diff_trees(
                runs[XEON_MAX_9480.short_name]["tree"], runs[other]["tree"]
            )
            for other in ("icx8360y", "epyc7v73x")
        }
        apps[name] = {"runs": runs, "diffs": diffs}
    return {
        "platforms": platforms,
        "figures": figures,
        "scorecard": card,
        "apps": apps,
    }


# ---------------------------------------------------------------------------
# HTML rendering helpers


def _esc(v) -> str:
    return _html.escape(str(v))


def _num(v) -> str:
    """Human cell formatting, mirroring the text tables."""
    if v is None:
        return "–"
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000:
            return f"{v:,.0f}"
        if abs(v) >= 10:
            return f"{v:.1f}"
        return f"{v:.3g}"
    return str(v)


def _table(columns, rows, caption: str | None = None) -> str:
    head = "".join(f"<th>{_esc(c)}</th>" for c in columns)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(_num(v))}</td>" for v in row) + "</tr>"
        for row in rows
    )
    cap = f"<caption>{_esc(caption)}</caption>" if caption else ""
    return (f"<table>{cap}<thead><tr>{head}</tr></thead>"
            f"<tbody>{body}</tbody></table>")


_LIMB_COLORS = {
    "bandwidth": "#4878cf",
    "compute": "#ee854a",
    "latency": "#956cb4",
    "mpi": "#6acc65",
    "wait": "#d65f5f",
}


def _timeline_svg(est) -> str:
    """One modeled iteration as an SVG bar: kernel segments colored by
    winning limb, then the MPI phase (comm + imbalance wait)."""
    per_iter = sum(lt.time for lt in est.per_loop)
    n = max(round(est.compute_time / per_iter), 1) if per_iter > 0 else 1
    mpi_per_iter = est.mpi_time / n
    comm = est.comm.time_per_iter
    wait = max(mpi_per_iter - comm, 0.0)
    total = per_iter + mpi_per_iter
    if total <= 0:
        return "<p>(no modeled time)</p>"
    width, height = 900.0, 34
    rects, x = [], 0.0

    def rect(dt, color, label):
        nonlocal x
        w = dt / total * width
        if w <= 0:
            return
        rects.append(
            f'<rect x="{x:.2f}" y="4" width="{max(w, 0.75):.2f}" '
            f'height="24" fill="{color}"><title>{_esc(label)}</title></rect>'
        )
        x += w

    for lt in est.per_loop:
        rect(lt.time, _LIMB_COLORS[lt.bottleneck],
             f"{lt.name}: {lt.time:.4g} s/iter ({lt.bottleneck}-bound, "
             f"served from {lt.mem_level})")
    if comm > 0:
        rect(comm, _LIMB_COLORS["mpi"], f"MPI halo exchange: {comm:.4g} s/iter")
    if wait > 0:
        rect(wait, _LIMB_COLORS["wait"], f"MPI imbalance wait: {wait:.4g} s/iter")
    return (
        f'<svg viewBox="0 0 {width:.0f} {height}" class="timeline" '
        f'role="img" aria-label="one modeled iteration">'
        + "".join(rects) + "</svg>"
        + f"<p class=small>one iteration = {total:.4g} s modeled "
        f"({n} iterations total); hover segments for detail</p>"
    )


def _tree_html(node, root_seconds: float) -> str:
    pct = (node.seconds / root_seconds * 100) if root_seconds else 0.0
    label = (f"<span class=node-name>{_esc(node.name)}</span> "
             f"<span class=node-sec>{node.seconds:.4g} s</span> "
             f"<span class=node-pct>{pct:.1f}%</span>")
    if node.is_leaf:
        return f"<li class=leaf data-kind={_esc(node.kind)}>{label}</li>"
    inner = "".join(_tree_html(c, root_seconds) for c in node.children)
    return (f"<li><details open><summary>{label}</summary>"
            f"<ul>{inner}</ul></details></li>")


def _diff_html(diff, other: str) -> str:
    rows_kind = [(k, f"{d:+.4g}") for k, d in diff.by_kind()]
    top = [
        (" / ".join(c.key), c.label, c.seconds_a, c.seconds_b, f"{c.delta:+.4g}")
        for c in diff.contributors[:8]
    ]
    return (
        f"<p><b>max9480 {diff.total_a:.4g} s</b> vs <b>{_esc(other)} "
        f"{diff.total_b:.4g} s</b> — the MAX is "
        f"<b>{diff.speedup:.2f}&times;</b> faster; "
        f"delta {diff.delta:+.4g} s decomposes as:</p>"
        + _table(("limb", "delta s"), rows_kind,
                 f"contributions by kind (max9480 vs {other})")
        + _table(("leaf", "label", "max9480 s", f"{other} s", "delta s"),
                 top, "top leaf contributors")
    )


_CSS = """
:root { color-scheme: light; }
body { font: 15px/1.5 system-ui, sans-serif; margin: 2rem auto;
       max-width: 72rem; padding: 0 1rem; color: #1a1a1a; }
h1, h2, h3 { line-height: 1.2; }
h2 { border-bottom: 2px solid #e4e4e4; padding-bottom: .25rem;
     margin-top: 2.5rem; }
table { border-collapse: collapse; margin: .75rem 0; font-size: .92em; }
caption { caption-side: top; text-align: left; font-weight: 600;
          padding-bottom: .25rem; }
th, td { border: 1px solid #d8d8d8; padding: .25rem .55rem;
         text-align: right; }
th:first-child, td:first-child { text-align: left; }
thead th { background: #f3f3f3; }
pre { background: #f7f7f7; padding: .75rem; overflow-x: auto;
      font-size: .85em; }
.timeline { width: 100%; height: 34px; background: #f3f3f3;
            border-radius: 4px; }
.small { color: #666; font-size: .85em; margin-top: .15rem; }
.tree ul { list-style: none; padding-left: 1.25rem; margin: 0; }
.tree > ul { padding-left: 0; }
.tree summary { cursor: pointer; }
.node-sec { color: #4878cf; font-variant-numeric: tabular-nums; }
.node-pct { color: #888; font-size: .85em; }
.leaf[data-kind=memory] .node-name { color: #4878cf; }
.leaf[data-kind=compute] .node-name { color: #b35c00; }
.leaf[data-kind=latency] .node-name { color: #956cb4; }
.leaf[data-kind^=mpi] .node-name { color: #2e7d32; }
.verdict-pass { color: #2e7d32; font-weight: 600; }
.verdict-fail { color: #c62828; font-weight: 600; }
nav a { margin-right: .8rem; }
button { font: inherit; padding: .15rem .6rem; }
"""

_JS = """
function setDetails(open) {
  document.querySelectorAll('details').forEach(d => d.open = open);
}
"""


def render_html(data: dict | None = None) -> str:
    """Render the complete report as one self-contained HTML page."""
    if data is None:
        data = report_data()
    card = data["scorecard"]
    card_dict = card.as_dict()
    parts = [
        "<!doctype html><html lang=en><head><meta charset=utf-8>",
        "<meta name=viewport content='width=device-width, initial-scale=1'>",
        "<title>repro — performance report</title>",
        f"<style>{_CSS}</style><script>{_JS}</script></head><body>",
        "<h1>repro — Xeon CPU MAX reproduction report</h1>",
        "<p>Paper: <i>Comparative evaluation of bandwidth-bound "
        "applications on the Intel Xeon CPU MAX Series</i> "
        "(I. Z. Reguly, SC-W/PMBS 2023). Every number below is produced "
        "by the in-repo model stack; self-contained file, no external "
        "assets.</p>",
        "<nav><a href='#platforms'>platforms</a>"
        "<a href='#fidelity'>fidelity</a><a href='#figures'>figures</a>"
        "<a href='#apps'>applications</a> "
        "<button onclick='setDetails(true)'>expand all</button> "
        "<button onclick='setDetails(false)'>collapse all</button></nav>",
    ]

    # --- platforms ---------------------------------------------------------
    parts.append("<h2 id=platforms>Platform models</h2>")
    parts.append(_table(
        ("platform", "cores", "STREAM GB/s", "peak FP32 TFLOPS", "cache:mem"),
        [(p["name"], p["cores"], f"{p['stream_gbs']:.0f}",
          f"{p['peak_tflops']:.1f}", f"{p['cache_ratio']:.1f}x")
         for p in data["platforms"]],
    ))

    # --- fidelity summary --------------------------------------------------
    overall = ("<span class=verdict-pass>PASS</span>" if card.passed
               else "<span class=verdict-fail>FAIL</span>")
    parts.append(f"<h2 id=fidelity>Paper-fidelity scorecard</h2>"
                 f"<p>Overall: {overall} against "
                 f"<code>baselines/fidelity.json</code> thresholds.</p>")
    rows = []
    for s in card.scores:
        fig = card_dict["figures"][s.figure]
        rows.append((
            s.figure, len(s.entries), f"{s.max_abs_rel_err:.3f}",
            f"{s.mean_abs_rel_err:.3f}",
            "–" if s.rank_agreement is None else f"{s.rank_agreement:.2f}",
            fig["verdict"],
        ))
    parts.append(_table(
        ("figure", "entries", "max |rel err|", "mean |rel err|",
         "rank agreement", "verdict"), rows))

    # --- figures with their fidelity views ---------------------------------
    parts.append("<h2 id=figures>Figures — model vs paper</h2>")
    scores = {s.figure: s for s in card.scores}
    for fig in data["figures"]:
        parts.append(f"<h3 id={fig.figure}>{_esc(fig.figure)}: "
                     f"{_esc(fig.title)}</h3>")
        parts.append(_table(fig.columns, fig.rows))
        for note in fig.notes:
            parts.append(f"<p class=small>note: {_esc(note)}</p>")
        s = scores.get(fig.figure)
        if s is not None and s.entries:
            parts.append("<details><summary>fidelity view "
                         f"({len(s.entries)} scored entries)</summary>")
            parts.append(_table(
                ("entry", "model", "paper", "rel err"),
                [(e.label, f"{e.model:.3f}", e.reference_str(),
                  f"{e.rel_err:+.3f}") for e in s.entries],
            ))
            parts.append("</details>")

    # --- per-application attribution ---------------------------------------
    parts.append("<h2 id=apps>Applications — attribution and diffs</h2>")
    parts.append("<p>Best-configuration runs per platform; trees "
                 "decompose each estimate additively (leaves sum to the "
                 "total), diffs rank what the Xeon MAX's advantage is "
                 "made of. See <code>python -m repro explain</code> for "
                 "the CLI view.</p>")
    for name, entry in data["apps"].items():
        parts.append(f"<h3 id=app-{_esc(name)}>{_esc(name)}</h3>")
        runs = entry["runs"]
        parts.append(_table(
            ("platform", "best configuration", "total s", "compute s",
             "MPI s", "effBW GB/s"),
            [(short, r["config"].label(), f"{r['estimate'].total_time:.4g}",
              f"{r['estimate'].compute_time:.4g}",
              f"{r['estimate'].mpi_time:.4g}",
              f"{r['estimate'].effective_bandwidth / 1e9:.0f}")
             for short, r in runs.items()],
        ))
        max_run = runs["max9480"]
        parts.append(_timeline_svg(max_run["estimate"]))
        parts.append("<details><summary>kernel breakdown (max9480)"
                     "</summary>")
        from .breakdown import kernel_breakdown

        cols, brows = kernel_breakdown(max_run["estimate"])
        parts.append(_table(cols, brows))
        parts.append("</details>")
        tree = max_run["tree"]
        parts.append("<details><summary>attribution tree (max9480, "
                     f"{tree.seconds:.4g} s)</summary><div class=tree><ul>"
                     + _tree_html(tree, tree.seconds)
                     + "</ul></div></details>")
        for other, diff in entry["diffs"].items():
            parts.append(f"<details><summary>differential: max9480 vs "
                         f"{_esc(other)} ({diff.speedup:.2f}&times;)"
                         "</summary>"
                         + _diff_html(diff, other) + "</details>")

    from ..engine.store import model_version

    parts.append(f"<hr><p class=small>model version "
                 f"<code>{_esc(model_version())}</code>; generated by "
                 "<code>python -m repro report</code>.</p>")
    parts.append("</body></html>")
    return "".join(parts)


def write_report(path: str | Path, fmt: str | None = None) -> Path:
    """Write the report to ``path``.

    ``fmt`` is ``"html"`` or ``"md"``; default inferred from the suffix
    (``.md``/``.markdown`` → markdown, anything else → HTML).
    """
    p = Path(path)
    if fmt is None:
        fmt = "md" if p.suffix in (".md", ".markdown") else "html"
    if fmt == "md":
        text = render_markdown()
    elif fmt == "html":
        text = render_html()
    else:
        raise ValueError(f"unknown report format {fmt!r} (html or md)")
    p.write_text(text)
    return p


def _selftest_no_network(html_text: str) -> bool:
    """True when the document references no external resource — the
    self-containment property the tests and CI assert."""
    lowered = html_text.lower()
    return not any(
        marker in lowered
        for marker in ("http://", "https://", "src=\"//", "href=\"//",
                       "@import", "url(")
    )
