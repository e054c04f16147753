"""Distributed OP2 (owner-compute + halo exchange) vs serial execution."""

import numpy as np
import pytest

from repro.op2 import (
    Access,
    DistOp2Context,
    Global,
    Op2Context,
    arg,
    arg_direct,
    arg_global,
    partition_rcb,
)
from repro.simmpi import RankFailedError, World


def grid_edges(nx, ny):
    """Cells of an nx x ny grid and the 4-neighbor edge list."""
    idx = np.arange(nx * ny).reshape(ny, nx)
    edges = []
    edges.extend(zip(idx[:, :-1].ravel(), idx[:, 1:].ravel()))
    edges.extend(zip(idx[:-1, :].ravel(), idx[1:, :].ravel()))
    coords = np.stack(
        [np.repeat(np.arange(ny), nx), np.tile(np.arange(nx), ny)], axis=1
    ).astype(float)
    return np.asarray(edges), coords


def diffusion_app(ctx, nx=8, ny=6, iters=4):
    """Edge-flux diffusion with a mass reduction — the canonical
    unstructured kernel mix (gather, indirect INC, direct update)."""
    e2c_vals, coords = grid_edges(nx, ny)
    n_cells, n_edges = nx * ny, len(e2c_vals)
    cells = ctx.set("cells", n_cells)
    edges = ctx.set("edges", n_edges)
    e2c = ctx.map("e2c", edges, cells, e2c_vals)
    q0 = np.sin(np.arange(n_cells, dtype=float))
    q = ctx.dat(cells, 1, "q", data=q0)
    res = ctx.dat(cells, 1, "res")
    mass = Global(0.0, "mass")

    def zero(r):
        r[...] = 0.0

    def flux(ql, qr, rl, rr):
        f = 0.2 * (qr - ql)
        rl[...] = f
        rr[...] = -f

    def update(qd, rd, m):
        qd[...] = qd + rd
        m[0] += float(np.sum(qd))

    for _ in range(iters):
        ctx.par_loop(zero, "zero", cells, arg_direct(res, Access.WRITE))
        ctx.par_loop(flux, "flux", edges,
                     arg(q, e2c, 0, Access.READ), arg(q, e2c, 1, Access.READ),
                     arg(res, e2c, 0, Access.INC), arg(res, e2c, 1, Access.INC),
                     flops_per_elem=3)
        ctx.par_loop(update, "update", cells,
                     arg_direct(q, Access.RW), arg_direct(res, Access.READ),
                     arg_global(mass, Access.INC), flops_per_elem=2)
    return q, mass


@pytest.fixture(scope="module")
def serial_result():
    ctx = Op2Context()
    q, mass = diffusion_app(ctx)
    return q.data.copy(), float(mass.value[0])


class TestDistributedEqualsSerial:
    @pytest.mark.parametrize("nranks", [1, 2, 3, 4, 6])
    def test_block_partition(self, nranks, serial_result):
        def program(comm):
            ctx = DistOp2Context(comm)
            q, mass = diffusion_app(ctx)
            return ctx.gather_dat(q), float(mass.value[0])

        results = World(nranks).run(program)
        q_ser, mass_ser = serial_result
        np.testing.assert_allclose(results[0][0], q_ser, rtol=1e-12)
        for _, m in results:
            assert m == pytest.approx(mass_ser, rel=1e-12)

    @pytest.mark.parametrize("nranks", [2, 4])
    def test_rcb_partition(self, nranks, serial_result):
        _, coords = grid_edges(8, 6)
        e2c_vals, _ = grid_edges(8, 6)
        cell_parts = partition_rcb(coords, nranks)
        # Edges follow their first endpoint's owner.
        edge_parts = cell_parts[e2c_vals[:, 0]]

        def program(comm):
            ctx = DistOp2Context(
                comm, partitions={"cells": cell_parts, "edges": edge_parts}
            )
            q, mass = diffusion_app(ctx)
            return ctx.gather_dat(q), float(mass.value[0])

        results = World(nranks).run(program)
        np.testing.assert_allclose(results[0][0], serial_result[0], rtol=1e-12)


class TestDistributedValidation:
    def test_partition_length_checked(self):
        def program(comm):
            ctx = DistOp2Context(comm, partitions={"cells": np.zeros(3, dtype=int)})
            ctx.set("cells", 5)

        with pytest.raises(RankFailedError, match="entries"):
            World(2).run(program)

    def test_partition_rank_range_checked(self):
        def program(comm):
            ctx = DistOp2Context(comm, partitions={"cells": np.full(4, 7)})
            ctx.set("cells", 4)

        with pytest.raises(RankFailedError, match="invalid ranks"):
            World(2).run(program)

    def test_maps_before_dats_enforced(self):
        def program(comm):
            ctx = DistOp2Context(comm)
            cells = ctx.set("cells", 8)
            edges = ctx.set("edges", 7)
            ctx.dat(cells, 1, "q")  # dat first...
            vals = np.stack([np.arange(7), np.arange(1, 8)], axis=1)
            ctx.map("e2c", edges, cells, vals)  # ...then a halo-growing map

        with pytest.raises(RankFailedError, match="maps before dats"):
            World(2).run(program)

    def test_undeclared_set_rejected(self):
        def program(comm):
            from repro.op2 import Set

            ctx = DistOp2Context(comm)
            ctx.dat(Set("alien", 4), 1, "q")

        with pytest.raises(RankFailedError, match="not declared"):
            World(2).run(program)


class TestIndirectWriteDistributed:
    def test_scatter_write_returns_to_owner(self):
        """An indirect WRITE through a permutation map must land on the
        owning rank of the target."""

        def program(comm):
            ctx = DistOp2Context(comm)
            src_set = ctx.set("src", 6)
            dst_set = ctx.set("dst", 6)
            perm = ctx.map("perm", src_set, dst_set,
                           np.array([5, 4, 3, 2, 1, 0]))
            s = ctx.dat(src_set, 1, "s", data=np.arange(6.0))
            d = ctx.dat(dst_set, 1, "d")

            def k(sv, dv):
                dv[...] = sv * 10.0

            ctx.par_loop(k, "scatter", src_set,
                         arg_direct(s, Access.READ), arg(d, perm, 0, Access.WRITE))
            return ctx.gather_dat(d)

        results = World(3).run(program)
        np.testing.assert_array_equal(results[0][:, 0], [50, 40, 30, 20, 10, 0])
