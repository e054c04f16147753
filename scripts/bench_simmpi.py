#!/usr/bin/env python
"""Benchmark the simulated-MPI schedulers: ranks/s on a halo pattern.

Runs a CloverLeaf-style 2D halo-exchange program (two iterations of
ghost exchange plus an allreduce) at 64, 1024, and 4096 ranks on the
event-driven backend, and at 64 ranks on the threaded backend for
comparison, reporting scheduler throughput in ranks/s.  The 64-rank
pair is also checked for bit-identical virtual clocks — the benchmark
doubles as a cheap parity smoke.

An untimed 64-rank run first pays the lazy imports; the 64-rank world
is then timed as the median of three runs.  ``events_scaling_1k`` and
``events_scaling_4k`` are ranks/s at that size divided by ranks/s at
64, and the script exits 1 when the largest size's ratio is below
``MIN_SCALING`` (the largest world may run at most 1.5x slower per
rank than the 64-rank one), so ``--smoke`` enforces it at 1k.

Writes ``BENCH_simmpi.json`` and appends one row to
``baselines/bench_history.jsonl`` (see
``scripts/check_bench_regression.py``, which gates on
``events_ranks_per_s_4k``).

Usage::

    PYTHONPATH=src python scripts/bench_simmpi.py [--smoke] [--iters N]
"""

from __future__ import annotations

import argparse
import json
import platform as _platform
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.simmpi import (  # noqa: E402
    CartGrid, World, dims_create, exchange_halos, exchange_halos_co, op,
)

DEFAULT_HISTORY = (
    Path(__file__).resolve().parent.parent / "baselines" / "bench_history.jsonl"
)

#: Lowest allowed ranks/s ratio of the largest world to the 64-rank one.
MIN_SCALING = 0.67


def append_history(path: Path, row: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")


def halo_program(grid: CartGrid, iters: int):
    """Generator program: iterated ghost exchange + allreduce."""

    def prog(comm):
        local = np.full((4, 4), float(comm.rank + 1))
        total = 0.0
        for _ in range(iters):
            yield op.compute(1e-6)
            yield from exchange_halos_co(comm, grid, local, 1)
            total = yield op.allreduce(float(local[1, 1]))
        return total

    return prog


def halo_program_blocking(grid: CartGrid, iters: int):
    def prog(comm):
        local = np.full((4, 4), float(comm.rank + 1))
        total = 0.0
        for _ in range(iters):
            comm.compute(1e-6)
            exchange_halos(comm, grid, local, 1)
            total = comm.allreduce(float(local[1, 1]))
        return total

    return prog


def run_events(nranks: int, iters: int) -> tuple[float, World]:
    grid = CartGrid(dims_create(nranks, 2), periodic=(True, True))
    world = World(nranks, backend="events")
    t0 = time.perf_counter()
    world.run(halo_program(grid, iters))
    return time.perf_counter() - t0, world


def run_threads(nranks: int, iters: int) -> tuple[float, World]:
    grid = CartGrid(dims_create(nranks, 2), periodic=(True, True))
    world = World(nranks, backend="threads")
    t0 = time.perf_counter()
    world.run(halo_program_blocking(grid, iters))
    return time.perf_counter() - t0, world


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--iters", type=int, default=2,
                    help="halo-exchange iterations per run (default 2)")
    ap.add_argument("--smoke", action="store_true",
                    help="cap the sweep at 1024 ranks (the CI smoke)")
    ap.add_argument("--out", default="BENCH_simmpi.json",
                    help="output JSON path (default BENCH_simmpi.json)")
    ap.add_argument("--history", default=str(DEFAULT_HISTORY),
                    help="perf-trajectory JSONL to append to "
                         "(default baselines/bench_history.jsonl)")
    ap.add_argument("--no-history", action="store_true",
                    help="do not append to the history file")
    args = ap.parse_args(argv)

    sizes = [64, 1024] if args.smoke else [64, 1024, 4096]
    result: dict = {
        "benchmark": "simmpi halo scheduler, events vs threads",
        "iters": args.iters,
        "smoke": args.smoke,
    }

    run_events(64, args.iters)  # untimed warm-up: lazy imports
    rate: dict[int, float] = {}
    for n in sizes:
        s = statistics.median(
            run_events(n, args.iters)[0] for _ in range(3 if n == 64 else 1))
        rate[n] = n / s
        result[f"events_s_{n}"] = s
        result[f"events_ranks_per_s_{n // 1024}k" if n >= 1024
               else f"events_ranks_per_s_{n}"] = rate[n]
        print(f"events  {n:5d} ranks: {s:7.3f} s  ({rate[n]:8.0f} ranks/s)")
    for n in sizes[1:]:
        result[f"events_scaling_{n // 1024}k"] = rate[n] / rate[64]

    # Threaded oracle at 64 ranks: throughput figure + clock parity.
    t_s, tw = run_threads(64, args.iters)
    result["threads_s_64"] = t_s
    result["threads_ranks_per_s_64"] = 64 / t_s if t_s else 0.0
    print(f"threads    64 ranks: {t_s:7.3f} s  ({64 / t_s:8.0f} ranks/s)")

    _, ew = run_events(64, args.iters)
    parity = all(
        ec.clock.now == tc.clock.now
        and ec.clock.mpi_time == tc.clock.mpi_time
        for ec, tc in zip(ew.comms, tw.comms)
    )
    result["clock_parity_64"] = parity
    if not parity:
        print("FAIL: events and threads backends disagree on 64-rank "
              "virtual clocks", file=sys.stderr)
        return 1

    scaling_key = f"events_scaling_{sizes[-1] // 1024}k"
    if result[scaling_key] < MIN_SCALING:
        print(f"FAIL: {scaling_key} = {result[scaling_key]:.2f} is below "
              f"{MIN_SCALING} (ranks/s at {sizes[-1]} vs 64 ranks)",
              file=sys.stderr)
        return 1

    gate_key = "events_ranks_per_s_1k" if args.smoke else "events_ranks_per_s_4k"
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    if not args.no_history and not args.smoke:
        append_history(Path(args.history), {
            "ts": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "host": _platform.node(),
            "benchmark": "simmpi",
            "iters": args.iters,
            "events_ranks_per_s_64": result["events_ranks_per_s_64"],
            "events_ranks_per_s_1k": result["events_ranks_per_s_1k"],
            "events_ranks_per_s_4k": result["events_ranks_per_s_4k"],
            "threads_ranks_per_s_64": result["threads_ranks_per_s_64"],
        })
    print(f"clock parity ok; {scaling_key} = {result[scaling_key]:.2f}; "
          f"gate metric {gate_key} = {result[gate_key]:.0f} ranks/s; "
          f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
