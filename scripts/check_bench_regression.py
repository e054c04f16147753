#!/usr/bin/env python
"""Gate the perf trajectory: fail if the newest bench row regressed.

Reads the git-tracked ``baselines/bench_history.jsonl`` that
``bench_sweep.py``, ``bench_serve.py`` and ``bench_simmpi.py`` append
to (each through :func:`append_history`), groups rows by
(benchmark, host, shape), and compares each headline throughput of the
most recent row against the **best** prior row of the same group:

- ``sweep``  rows gate on ``cold_jobs_per_s`` and ``warm_jobs_per_s``;
- ``serve``  rows gate on ``warm_req_per_s``;
- ``simmpi`` rows gate on ``events_ranks_per_s_4k``.

A drop of more than ``--max-drop`` (default 20%) fails the check.  A
metric the newest row lacks is not gated, and rows that lack it are not
part of its baseline (older rows predate ``warm_jobs_per_s``).
Rows are only compared against rows from the same host and bench
shape — CI runners and dev boxes have wildly different absolute
throughput, so a group with no prior rows passes with a note (the
row it just recorded becomes the baseline for the next run).

Usage::

    python scripts/check_bench_regression.py [--history FILE]
                                             [--max-drop 0.2]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_HISTORY = Path(__file__).resolve().parent.parent / "baselines" / "bench_history.jsonl"

#: Headline throughput metrics per benchmark (higher is better).
GATE_METRICS = {
    "sweep": ("cold_jobs_per_s", "warm_jobs_per_s"),
    "serve": ("warm_req_per_s",),
    "simmpi": ("events_ranks_per_s_4k",),
}

#: Row fields that define a comparable bench shape (beyond host):
#: a --quick serve run is not comparable to the default shape.
SHAPE_KEYS = {
    "serve": ("quick",),
    "simmpi": ("iters",),
}


def append_history(path: Path, row: dict) -> None:
    """Append one bench row to the history file (parents created)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")


def read_history(path: Path) -> list[dict]:
    rows = []
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return rows
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except ValueError:
            continue
        if isinstance(row, dict):
            rows.append(row)
    return rows


def group_key(row: dict) -> tuple:
    bench = row.get("benchmark", "?")
    shape = tuple(
        (k, row.get(k)) for k in SHAPE_KEYS.get(bench, ())
    )
    return (bench, row.get("host", "?"), shape)


def check(rows: list[dict], max_drop: float, out=sys.stdout) -> int:
    """Return a process exit code; prints one line per gated metric of
    each group."""
    if not rows:
        print("bench-regression: history is empty — nothing to gate",
              file=out)
        return 0
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        if row.get("benchmark") in GATE_METRICS:
            groups.setdefault(group_key(row), []).append(row)
    failures = 0
    gated = 0
    for (bench, host, shape), group in sorted(groups.items()):
        shape_txt = " ".join(f"{k}={v}" for k, v in shape)
        label = f"{bench} @ {host}" + (f" ({shape_txt})" if shape_txt else "")
        latest = group[-1]
        for metric in GATE_METRICS[bench]:
            current = latest.get(metric)
            if current is None:
                continue
            prior = [r.get(metric) for r in group[:-1]
                     if r.get(metric) is not None]
            if not prior:
                print(f"bench-regression: {label}: no prior rows for this "
                      f"host/shape — {metric} {current:.1f} recorded as "
                      f"baseline", file=out)
                continue
            gated += 1
            best = max(prior)
            floor = best * (1.0 - max_drop)
            drop = 1.0 - current / best if best > 0 else 0.0
            if current < floor:
                failures += 1
                print(f"bench-regression: FAIL {label}: {metric} "
                      f"{current:.1f} is {drop:.0%} below the best recorded "
                      f"{best:.1f} (allowed drop {max_drop:.0%})", file=out)
            else:
                print(f"bench-regression: ok {label}: {metric} "
                      f"{current:.1f} vs best {best:.1f} ({-drop:+.0%})",
                      file=out)
    if gated == 0 and failures == 0:
        print("bench-regression: no group had prior rows to gate against",
              file=out)
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--history", default=str(DEFAULT_HISTORY),
                    help="bench history JSONL "
                         "(default baselines/bench_history.jsonl)")
    ap.add_argument("--max-drop", type=float, default=0.2,
                    help="maximum allowed fractional drop vs the best "
                         "recorded row (default 0.2 = 20%%)")
    args = ap.parse_args(argv)
    return check(read_history(Path(args.history)), args.max_drop)


if __name__ == "__main__":
    sys.exit(main())
