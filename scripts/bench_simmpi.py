#!/usr/bin/env python
"""Benchmark the simulated-MPI scheduler: ranks/s on a halo pattern.

Runs a CloverLeaf-style 2D halo-exchange program (two iterations of
ghost exchange plus an allreduce) on the event loop in both program
styles: as a generator at 64, 1024, and 4096 ranks (the ``events_*``
keys), and as a blocking plain callable, whose ranks run on threads, at
16 and 64 ranks (the ``blocking_*`` keys), reporting throughput in
ranks/s.  The 64-rank pair is also checked for bit-identical virtual
clocks — the benchmark doubles as a cheap parity smoke.

An untimed 64-rank run first pays the lazy imports; the 64-rank
generator world is then timed as the median of three runs, and the
blocking worlds as the median of 16 (16 ranks) and 4 (64 ranks) runs.
``events_scaling_1k`` and ``events_scaling_4k`` are ranks/s at that
size divided by ranks/s at 64, and ``blocking_scaling_64`` is blocking
ranks/s at 64 divided by ranks/s at 16.  The script exits 1 when the
largest generator size's ratio or ``blocking_scaling_64`` is below
``MIN_SCALING`` (the larger world may run at most 1.5x slower per rank
than the smaller one), so ``--smoke`` enforces the generator ratio at
1k.

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
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from check_bench_regression import DEFAULT_HISTORY, append_history  # noqa: E402
from repro.simmpi import (  # noqa: E402
    CartGrid, World, dims_create, exchange_halos, exchange_halos_co, op,
)

#: Lowest allowed ranks/s ratio of a larger world to a smaller one.
MIN_SCALING = 0.67


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
    """The same program in the blocking style (Communicator verbs)."""

    def prog(comm):
        local = np.full((4, 4), float(comm.rank + 1))
        total = 0.0
        for _ in range(iters):
            comm.compute(1e-6)
            exchange_halos(comm, grid, local, 1)
            total = comm.allreduce(float(local[1, 1]))
        return total

    return prog


def run_world(nranks: int, iters: int, make_program) -> tuple[float, World]:
    grid = CartGrid(dims_create(nranks, 2), periodic=(True, True))
    world = World(nranks)
    t0 = time.perf_counter()
    world.run(make_program(grid, iters))
    return time.perf_counter() - t0, world


def timed(nranks: int, iters: int, make_program, repeats: int) -> float:
    """Median wall seconds of ``repeats`` runs of a fresh world."""
    return statistics.median(
        run_world(nranks, iters, make_program)[0] for _ in range(repeats))


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
        "benchmark": "simmpi halo scheduler, generator and blocking programs",
        "iters": args.iters,
        "smoke": args.smoke,
    }

    run_world(64, args.iters, halo_program)  # untimed warm-up: lazy imports
    rate: dict[int, float] = {}
    for n in sizes:
        s = timed(n, args.iters, halo_program, 3 if n == 64 else 1)
        rate[n] = n / s
        result[f"events_s_{n}"] = s
        result[f"events_ranks_per_s_{n // 1024}k" if n >= 1024
               else f"events_ranks_per_s_{n}"] = rate[n]
        print(f"events    {n:5d} ranks: {s:7.3f} s  ({rate[n]:8.0f} ranks/s)")
    for n in sizes[1:]:
        result[f"events_scaling_{n // 1024}k"] = rate[n] / rate[64]

    # Blocking programs, one rank thread each.  A 16-rank world runs for
    # about 15 ms, so each size is timed over about 256 rank-runs (the
    # median of 16 and of 4 worlds) to keep host noise out of the ratio.
    blocking_rate: dict[int, float] = {}
    for n in (16, 64):
        s = timed(n, args.iters, halo_program_blocking, 256 // n)
        blocking_rate[n] = n / s
        result[f"blocking_s_{n}"] = s
        result[f"blocking_ranks_per_s_{n}"] = blocking_rate[n]
        print(f"blocking  {n:5d} ranks: {s:7.3f} s  "
              f"({blocking_rate[n]:8.0f} ranks/s)")
    result["blocking_scaling_64"] = blocking_rate[64] / blocking_rate[16]

    _, bw = run_world(64, args.iters, halo_program_blocking)
    _, gw = run_world(64, args.iters, halo_program)
    parity = all(
        gc.clock.now == bc.clock.now
        and gc.clock.mpi_time == bc.clock.mpi_time
        for gc, bc in zip(gw.comms, bw.comms)
    )
    result["clock_parity_64"] = parity
    if not parity:
        print("FAIL: generator and blocking programs disagree on 64-rank "
              "virtual clocks", file=sys.stderr)
        return 1

    scaling_key = f"events_scaling_{sizes[-1] // 1024}k"
    for key, what in ((scaling_key, f"ranks/s at {sizes[-1]} vs 64 ranks"),
                      ("blocking_scaling_64",
                       "blocking ranks/s at 64 vs 16 ranks")):
        if result[key] < MIN_SCALING:
            print(f"FAIL: {key} = {result[key]:.2f} is below "
                  f"{MIN_SCALING} ({what})", file=sys.stderr)
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
            "blocking_ranks_per_s_16": result["blocking_ranks_per_s_16"],
            "blocking_ranks_per_s_64": result["blocking_ranks_per_s_64"],
        })
    print(f"clock parity ok; {scaling_key} = {result[scaling_key]:.2f}; "
          f"blocking_scaling_64 = {result['blocking_scaling_64']:.2f}; "
          f"gate metric {gate_key} = {result[gate_key]:.0f} ranks/s; "
          f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
