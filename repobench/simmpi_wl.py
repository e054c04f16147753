"""``simmpi-halo``: a 2-D periodic halo program on simmpi's event loop,
alternating a 1,024-rank and a 64-rank world.

Every iteration each rank fills its block with ``(rank + 1) * m`` (``m``
drawn from the seed), exchanges depth-1 ghost layers with its four
neighbours and ``allreduce``s the sum of one ghost cell per side.  With
correct halos and a correct reduction that sum is ``4 * m * N(N+1)/2``
on every rank, which the output check compares exactly.

The exchange is written here from ``op`` descriptors, message for
message what ``repro.simmpi.cart.exchange_halos_co`` sends (irecv low,
irecv high, isend low, isend high, waitall, per dimension), so folding
the two library halo APIs into one does not touch the benchmark.
Messages are priced by a ``ClusterCostModel`` of Xeon MAX nodes.

Throughput is rank-steps (ranks x iterations) per second, so the two
world sizes compare directly; the small world runs a quarter of the big
one's rank-steps, leaving most of the run to the world the end-to-end
metrics time.
"""

from __future__ import annotations

import random
import time

import checks
import layers
from common import WORK, median, metric, peak_rss_mb, pin, quantile
from hoststate import StateSampler, fast_equivalent
from spans import Tracer

#: ranks -> iterations per world.
WORLDS = {1024: 1, 64: 4}
BIG, SMALL = 1024, 64
#: Parity check world: two nodes, so both pricing paths are exercised.
PARITY_RANKS, PARITY_NODES, PARITY_ITERS = 64, 2, 3
SETUP_REPEATS = 3
BLOCK = (6, 6)  # interior cells per rank
COMPUTE_S = 1e-6
CPU = 0

_pc = time.perf_counter


def multipliers(seed: int, n: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randint(1, 1000) for _ in range(n)]


def halo_program(grid, mults):
    """Generator rank program; returns the rank's allreduce results."""
    import numpy as np

    from repro.simmpi import op

    shape = (BLOCK[0] + 2, BLOCK[1] + 2)

    def prog(comm):
        rank = comm.rank
        local = np.zeros(shape)
        sides = [(grid.neighbor(rank, dim, -1), grid.neighbor(rank, dim, +1))
                 for dim in range(2)]
        out = []
        for m in mults:
            local[1:-1, 1:-1] = float((rank + 1) * m)
            yield op.compute(COMPUTE_S)
            for dim, (lo, hi) in enumerate(sides):
                s_lo, r_lo, s_hi, r_hi = _faces(shape, dim)
                tag_down, tag_up = 1000 + 2 * dim, 1001 + 2 * dim
                reqs = [
                    (yield op.irecv(lo, tag_up,
                                    buffer=np.ascontiguousarray(local[r_lo]))),
                    (yield op.irecv(hi, tag_down,
                                    buffer=np.ascontiguousarray(local[r_hi]))),
                ]
                yield op.isend(np.ascontiguousarray(local[s_lo]), lo, tag_down)
                yield op.isend(np.ascontiguousarray(local[s_hi]), hi, tag_up)
                local[r_lo], local[r_hi] = (yield op.waitall(reqs))
            ghosts = local[0, 1] + local[-1, 1] + local[1, 0] + local[1, -1]
            out.append((yield op.allreduce(float(ghosts))))
        return out

    return prog


def _faces(shape, dim):
    """Send and receive slabs (low, high) of a depth-1 halo."""
    full = [slice(None)] * len(shape)

    def at(s):
        idx = list(full)
        idx[dim] = s
        return tuple(idx)

    n = shape[dim]
    return at(slice(1, 2)), at(slice(0, 1)), at(slice(n - 2, n - 1)), \
        at(slice(n - 1, n))


def blocking(program):
    """The same program as a plain callable: each yielded op becomes
    the blocking ``Communicator`` call of the same name."""

    def prog(comm):
        gen = program(comm)
        value = None
        while True:
            try:
                item = gen.send(value)
            except StopIteration as stop:
                return stop.value
            value = getattr(comm, item.name)(*item.args, **item.kwargs)

    return prog


def make_world(nranks: int, nodes: int | None = None):
    from repro.machine import XEON_MAX_9480, ClusterSpec
    from repro.simmpi import (CartGrid, ClusterCostModel, World,
                              cluster_placement, dims_create)

    if nodes is None:
        nodes = -(-nranks // XEON_MAX_9480.total_cores)
    cluster = ClusterSpec(XEON_MAX_9480, nodes)
    cost = ClusterCostModel(cluster, cluster_placement(cluster, nranks))
    grid = CartGrid(dims_create(nranks, 2), periodic=(True, True))
    return World(nranks, cost), grid


def parity(mults) -> tuple[float, float, list[str]]:
    """Generator vs blocking callable through the default ``World.run``:
    returns (start, end, problems)."""
    t0 = _pc()
    clocks = []
    problems = []
    for program in (lambda g: halo_program(g, mults),
                    lambda g: blocking(halo_program(g, mults))):
        world, grid = make_world(PARITY_RANKS, PARITY_NODES)
        problems += checks.check_allreduce(PARITY_RANKS, mults,
                                           world.run(program(grid)))
        clocks.append([(c.now, c.mpi_time) for c in world.clocks])
    problems += checks.check_clock_parity(*clocks)
    return t0, _pc(), problems


def run_world(nranks: int, mults) -> tuple[float, float, list[str], dict]:
    """Build and run one world: (t0, t1, problems, traffic)."""
    t0 = _pc()
    world, grid = make_world(nranks)
    results = world.run(halo_program(grid, mults))
    t1 = _pc()
    stats = world.stats
    traffic = {"messages": sum(s.messages_sent for s in stats),
               "bytes": sum(s.bytes_sent for s in stats)}
    return t0, t1, checks.check_allreduce(nranks, mults, results), traffic


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    pin(CPU)
    import repro.simmpi  # noqa: F401

    mults = multipliers(seed, max(WORLDS.values()) + PARITY_ITERS)
    problems: list[str] = []
    worlds: list[tuple[int, float, float, bool, dict]] = []
    failed = 0
    tracer = Tracer() if trace else None
    roots: dict[int, list[int]] = {BIG: [], SMALL: []}
    with StateSampler() as sampler:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0, t1, found = parity(mults[:PARITY_ITERS])
            setups.append((t1 - t0, sampler.factor(t0, t1)))
            problems += found
        deadline = _pc() + seconds
        pair = 0
        while pair < (2 if trace else 1) or _pc() < deadline:
            traced = tracer is not None and pair % 2 == 0
            for n, iters in WORLDS.items():
                if traced:
                    layers.install_simmpi(tracer)
                    root = tracer.open("world")
                try:
                    t0, t1, found, traffic = run_world(n, mults[:iters])
                finally:
                    if traced:
                        tracer.close(root)
                        roots[n].append(root)
                        tracer.uninstall()
                worlds.append((n, t1 - t0, sampler.factor(t0, t1), traced,
                               traffic))
                if found:
                    failed += 1
                    problems += found
            pair += 1

    def fe(n, traced=False):
        return [fast_equivalent(s, f) for m, s, f, t, _ in worlds
                if m == n and t == traced]

    def rate(n, traced=False):
        return n * WORLDS[n] / median(fe(n, traced))

    attempted = len(worlds)
    if trace:
        WORK.mkdir(parents=True, exist_ok=True)
        tracer.dump(WORK / f"trace-{workload}.json")
        metrics = _traced_metrics(tracer, roots, worlds, fe, rate)
    else:
        big_ms = [s * 1e3 for s in fe(BIG)]
        metrics = {
            "setup_s": metric(median(fast_equivalent(s, f)
                                     for s, f in setups), "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
            "ok_rate": metric((attempted - failed) / attempted, "ratio"),
            "ops_per_s": metric(rate(BIG), "1/s"),
            "p50_ms": metric(quantile(big_ms, 0.5), "ms"),
            "p90_ms": metric(quantile(big_ms, 0.9), "ms"),
        }
    return not problems, attempted, failed, metrics, problems


def _traced_metrics(tracer, roots, worlds, fe, rate) -> dict:
    traced = [(s, f) for _, s, f, t, _ in worlds if t]
    values = layers.to_fast_equivalent(
        layers.root_metrics(tracer, roots[BIG] + roots[SMALL]),
        sum(s for s, _ in traced),
        sum(fast_equivalent(s, f) for s, f in traced))
    traffic = {n: t for n, _, _, _, t in worlds}
    values["simmpi.messages"] = traffic[BIG]["messages"]
    values["simmpi.bytes"] = traffic[BIG]["bytes"]
    for n in (BIG, SMALL):
        values[f"simmpi.us_per_msg.{n}"] = (
            median(fe(n)) / traffic[n]["messages"] * 1e6)
    values["simmpi.scaling_eff"] = rate(BIG) / rate(SMALL)
    values["trace_overhead"] = median(fe(BIG, True)) / median(fe(BIG))
    return layers.as_metrics(values)
