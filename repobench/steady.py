"""Steadiness check: run one workload several times and print, for each
end-to-end metric, its median, quartiles and spread next to its bound.

Usage (from the root of a checkout)::

    python3 repobench/steady.py --workload simmpi-halo --runs 5 --seed 1
    python3 repobench/steady.py --workload serve-run --runs 10 --seed 1 --vary-seed

The spread is the interquartile distance (``statistics.quantiles(values,
n=4)``) as a share of the median; a steady metric keeps it well below
its bound.  ``--vary-seed`` gives run ``i`` the seed ``seed + i``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import BENCH_DIR, ROOT


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(q1, median, q3, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--vary-seed", action="store_true")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    values: dict[str, list[float]] = {}
    for i in range(args.runs):
        seed = args.seed + i if args.vary_seed else args.seed
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(proc.stdout.splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"run {i}: FAILED (exit {proc.returncode})\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"run {i} seed {seed}: " + "  ".join(
            f"{k}={v:.4g}" for k, v in sorted(row.items())), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)

    print(f"\n{'metric':14s} {'q1':>11s} {'median':>11s} {'q3':>11s} "
          f"{'spread':>7s} {'bound':>6s}")
    worst = True
    for m in spec["end_to_end"]:
        q1, med, q3, sp = spread(values[m["name"]])
        ok = m["name"] == "setup_s" or sp <= m["bound"] / 3
        worst &= ok
        print(f"{m['name']:14s} {q1:11.5g} {med:11.5g} {q3:11.5g} "
              f"{sp:7.3f} {m['bound']:6.2f}{'' if ok else '  > bound/3'}")
    return 0 if worst else 3


if __name__ == "__main__":
    sys.exit(main())
