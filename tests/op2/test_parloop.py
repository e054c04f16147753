"""Execution-semantics tests for unstructured parallel loops."""

import numpy as np
import pytest

from repro.op2 import (
    Access,
    Global,
    Op2Context,
    arg,
    arg_direct,
    arg_global,
)


def ring_mesh(ctx, n):
    """n cells in a ring, n edges, each edge connecting i -> (i+1) % n."""
    cells = ctx.set("cells", n)
    edges = ctx.set("edges", n)
    vals = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    e2c = ctx.map("e2c", edges, cells, vals)
    return cells, edges, e2c


class TestDirectLoops:
    def test_write(self):
        ctx = Op2Context()
        cells = ctx.set("cells", 6)
        d = ctx.dat(cells, 2, "d")

        def k(x):
            x[...] = 7.0

        ctx.par_loop(k, "fill", cells, arg_direct(d, Access.WRITE))
        assert np.all(d.data == 7.0)

    def test_rw(self):
        ctx = Op2Context()
        cells = ctx.set("cells", 4)
        d = ctx.dat(cells, 1, "d", data=np.arange(4.0))

        def k(x):
            x[...] = x * 2.0

        ctx.par_loop(k, "double", cells, arg_direct(d, Access.RW))
        np.testing.assert_array_equal(d.data[:, 0], [0, 2, 4, 6])

    def test_read_is_immutable(self):
        ctx = Op2Context()
        cells = ctx.set("cells", 4)
        d = ctx.dat(cells, 1, "d")

        def k(x):
            with pytest.raises((ValueError, PermissionError)):
                x[0] = 1.0

        ctx.par_loop(k, "try", cells, arg_direct(d, Access.READ))


class TestIndirectLoops:
    def test_gather_read(self):
        ctx = Op2Context()
        cells, edges, e2c = ring_mesh(ctx, 5)
        q = ctx.dat(cells, 1, "q", data=np.arange(5.0))
        diff = ctx.dat(edges, 1, "diff")

        def k(ql, qr, out):
            out[...] = qr - ql

        ctx.par_loop(k, "diff", edges,
                     arg(q, e2c, 0, Access.READ), arg(q, e2c, 1, Access.READ),
                     arg_direct(diff, Access.WRITE))
        np.testing.assert_array_equal(diff.data[:, 0], [1, 1, 1, 1, -4])

    def test_gather_all_slots(self):
        ctx = Op2Context()
        cells, edges, e2c = ring_mesh(ctx, 4)
        q = ctx.dat(cells, 1, "q", data=np.arange(4.0))
        s = ctx.dat(edges, 1, "s")

        def k(both, out):
            out[...] = both.sum(axis=1)

        ctx.par_loop(k, "sum2", edges,
                     arg(q, e2c, None, Access.READ), arg_direct(s, Access.WRITE))
        np.testing.assert_array_equal(s.data[:, 0], [1, 3, 5, 3])

    def test_indirect_inc_accumulates_duplicates(self):
        """Multiple edges incrementing the same cell must all land."""
        ctx = Op2Context()
        cells, edges, e2c = ring_mesh(ctx, 6)
        acc = ctx.dat(cells, 1, "acc")

        def k(a, b):
            a[...] = 1.0
            b[...] = 1.0

        ctx.par_loop(k, "count", edges,
                     arg(acc, e2c, 0, Access.INC), arg(acc, e2c, 1, Access.INC))
        # Every cell is endpoint of exactly 2 edges.
        assert np.all(acc.data == 2.0)

    def test_indirect_write(self):
        ctx = Op2Context()
        cells = ctx.set("cells", 4)
        nodes = ctx.set("nodes", 4)
        perm = ctx.map("perm", cells, nodes, np.array([2, 0, 3, 1]))
        src = ctx.dat(cells, 1, "src", data=np.arange(4.0))
        dst = ctx.dat(nodes, 1, "dst")

        def k(s, d):
            d[...] = s

        ctx.par_loop(k, "scatter", cells,
                     arg_direct(src, Access.READ), arg(dst, perm, 0, Access.WRITE))
        np.testing.assert_array_equal(dst.data[:, 0], [1, 3, 0, 2])


class TestGlobals:
    def test_inc_reduction(self):
        ctx = Op2Context()
        cells = ctx.set("cells", 5)
        d = ctx.dat(cells, 1, "d", data=np.full(5, 2.0))
        g = Global(0.0)

        def k(x, tot):
            tot[0] += float(np.sum(x))

        ctx.par_loop(k, "sum", cells, arg_direct(d, Access.READ),
                     arg_global(g, Access.INC))
        assert g.value[0] == 10.0
        assert ctx.reduction_count == 1

    def test_min_max(self):
        ctx = Op2Context()
        cells = ctx.set("cells", 4)
        d = ctx.dat(cells, 1, "d", data=np.array([4.0, -1.0, 7.0, 2.0]))
        gmin, gmax = Global(np.inf), Global(-np.inf)

        def k(x, lo, hi):
            lo[0] = min(lo[0], float(np.min(x)))
            hi[0] = max(hi[0], float(np.max(x)))

        ctx.par_loop(k, "minmax", cells, arg_direct(d, Access.READ),
                     arg_global(gmin, Access.MIN), arg_global(gmax, Access.MAX))
        assert gmin.value[0] == -1.0 and gmax.value[0] == 7.0

    def test_read_global_parameter(self):
        ctx = Op2Context()
        cells = ctx.set("cells", 3)
        d = ctx.dat(cells, 1, "d")
        c = Global(2.5)

        def k(x, cc):
            x[...] = cc[0]

        ctx.par_loop(k, "setc", cells, arg_direct(d, Access.WRITE),
                     arg_global(c, Access.READ))
        assert np.all(d.data == 2.5)
        assert c.value[0] == 2.5


class TestAccounting:
    def test_bytes_and_indirect_counts(self):
        ctx = Op2Context()
        cells, edges, e2c = ring_mesh(ctx, 10)
        q = ctx.dat(cells, 4, "q")
        r = ctx.dat(cells, 4, "r")

        def k(ql, qr, rl, rr):
            rl[...] = ql
            rr[...] = qr

        ctx.par_loop(k, "flux", edges,
                     arg(q, e2c, 0, Access.READ), arg(q, e2c, 1, Access.READ),
                     arg(r, e2c, 0, Access.INC), arg(r, e2c, 1, Access.INC),
                     flops_per_elem=5)
        rec = ctx.records["flux"]
        assert rec.elements == 10
        # 2 reads (1 transfer) + 2 INC (2 transfers) of 4 doubles each.
        assert rec.bytes == 10 * 4 * 8 * (1 + 1 + 2 + 2)
        assert rec.indirect_per_elem == 4
        assert rec.has_indirect_inc
        assert rec.flops == 50

    def test_loop_specs_vectorizable_flag(self):
        ctx = Op2Context()
        cells, edges, e2c = ring_mesh(ctx, 8)
        q = ctx.dat(cells, 1, "q")
        w = ctx.dat(edges, 1, "w")

        def direct(x):
            x[...] = 1.0

        def gather(ql, out):
            out[...] = ql

        ctx.par_loop(direct, "direct", cells, arg_direct(q, Access.WRITE))
        ctx.par_loop(gather, "gather", edges,
                     arg(q, e2c, 0, Access.READ), arg_direct(w, Access.WRITE))
        specs = {s.name: s for s in ctx.loop_specs()}
        assert specs["direct"].vectorizable
        assert specs["gather"].vectorizable  # reads don't race
        assert specs["gather"].indirect_per_point == 1.0
