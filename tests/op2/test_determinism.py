"""Execution and partition determinism under the shared executor.

Pins the property the IR refactor must not disturb: lowering through
:class:`~repro.ir.plan.KernelPlan` and the shared
:class:`~repro.ir.executor.InstrumentedExecutor` changes nothing about
*how* elements execute — the same loop scatters its increments in the
same order and hence gives bit-identical results, run after run,
serially and over a distributed partition.

The fixture is a round-robin tournament mesh: 2m cells, one edge per
pairing, laid out round by round, so every cell receives increments
from many edges through one ``np.add.at`` scatter.
"""

import dataclasses

import numpy as np
import pytest

from repro.op2 import (
    Access,
    Global,
    Op2Context,
    arg,
    arg_global,
)


def tournament_mesh(m: int = 8) -> np.ndarray:
    """Round-robin schedule of 2m cells: 2m-1 rounds of m disjoint
    pairs, concatenated round-major (the classic 1-factorization of
    the complete graph K_2m)."""
    n = 2 * m
    teams = list(range(n))
    rounds = []
    for _ in range(n - 1):
        rounds.append([(teams[i], teams[n - 1 - i]) for i in range(m)])
        teams = [teams[0]] + [teams[-1]] + teams[1:-1]
    return np.array([pair for rnd in rounds for pair in rnd])


def run_flux(conn: np.ndarray, ncells: int, iters: int = 3):
    """The probe program: a full-arity indirect INC flux plus a global
    reduction, returning (dat bits, global value, context)."""
    ctx = Op2Context()
    cells = ctx.set("cells", ncells)
    edges = ctx.set("edges", len(conn))
    e2c = ctx.map("e2c", edges, cells, conn)
    q = ctx.dat(cells, 1, "q",
                data=np.sin(np.arange(float(ncells)))[:, None])
    r = ctx.dat(cells, 1, "r")
    tot = Global(0.0, "tot")

    def flux(q2, r2, t):
        f = 0.3 * (q2[:, 1, 0] - q2[:, 0, 0])
        r2[:, 0, 0] = f
        r2[:, 1, 0] = -f
        t[0] += float(np.sum(np.abs(f)))

    for _ in range(iters):
        ctx.par_loop(flux, "flux", edges,
                     arg(q, e2c, None, Access.READ),
                     arg(r, e2c, None, Access.INC),
                     arg_global(tot, Access.INC), flops_per_elem=4)
    return r.data.copy(), float(tot.value[0]), ctx


@pytest.fixture(scope="module")
def mesh():
    return tournament_mesh(8)


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def test_repeated_runs_bit_identical(mesh):
    """Two fresh runs agree to the last bit — dat, global, and the
    executor's traffic ledger."""
    r1, t1, c1 = run_flux(mesh, 16)
    r2, t2, c2 = run_flux(mesh, 16)
    assert np.array_equal(_bits(r1), _bits(r2))
    assert t1 == t2
    assert (dataclasses.asdict(c1.records["flux"])
            == dataclasses.asdict(c2.records["flux"]))


def test_distributed_partition_deterministic(mesh):
    """Two identical distributed runs partition and reduce identically —
    per-rank element counts and the global to the bit."""
    from repro.op2 import DistOp2Context
    from repro.simmpi import World

    def program(comm):
        ctx = DistOp2Context(comm)
        cells = ctx.set("cells", 16)
        edges = ctx.set("edges", len(mesh))
        e2c = ctx.map("e2c", edges, cells, mesh)
        q = ctx.dat(cells, 1, "q",
                    data=np.sin(np.arange(16.0))[:, None])
        r = ctx.dat(cells, 1, "r")
        tot = Global(0.0, "tot")

        def flux(q2, r2, t):
            f = 0.3 * (q2[:, 1, 0] - q2[:, 0, 0])
            r2[:, 0, 0] = f
            r2[:, 1, 0] = -f
            t[0] += float(np.sum(np.abs(f)))

        ctx.par_loop(flux, "flux", edges,
                     arg(q, e2c, None, Access.READ),
                     arg(r, e2c, None, Access.INC),
                     arg_global(tot, Access.INC), flops_per_elem=4)
        owned = ctx._locals[id(edges)].owned
        return (tuple(int(g) for g in owned), float(tot.value[0]))

    first = World(2).run(program)
    second = World(2).run(program)
    assert first == second
    owned, totals = zip(*first)
    assert sum(len(o) for o in owned) == len(mesh)
    assert not set(owned[0]) & set(owned[1])  # a true partition
    assert len(set(totals)) == 1  # the reduction is collective
