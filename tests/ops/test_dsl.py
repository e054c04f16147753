"""Unit tests for the structured-mesh DSL building blocks."""

import numpy as np
import pytest

from repro.ops import (
    Access,
    OpsContext,
    S2D_00,
    Stencil,
    arg_dat,
    arg_gbl,
    box_stencil,
    point_stencil,
    star_stencil,
)


@pytest.fixture
def ctx():
    return OpsContext()


class TestStencils:
    def test_point(self):
        s = point_stencil(2)
        assert s.radius == 0
        assert (0, 0) in s
        assert len(s) == 1

    def test_star(self):
        s = star_stencil(2, 2)
        assert s.radius == 2
        assert len(s) == 9
        assert (2, 0) in s and (0, -2) in s
        assert (1, 1) not in s

    def test_box(self):
        s = box_stencil(2, 1)
        assert len(s) == 9
        assert (1, 1) in s

    def test_star_3d_radius4(self):
        # The Acoustic app's 8th-order stencil.
        s = star_stencil(3, 4)
        assert s.radius == 4
        assert len(s) == 25

    def test_validation(self):
        from repro.ops import Stencil

        with pytest.raises(ValueError, match="at least one"):
            Stencil("empty", ())
        with pytest.raises(ValueError, match="duplicate"):
            Stencil("dup", ((0, 0), (0, 0)))
        with pytest.raises(ValueError, match="dimensionality"):
            Stencil("mixed", ((0, 0), (1,)))
        with pytest.raises(ValueError):
            star_stencil(2, 0)


class TestBlockDat:
    def test_block_shape_validation(self, ctx):
        with pytest.raises(ValueError):
            ctx.block("b", (0, 4))

    def test_dat_allocation_with_halo(self, ctx):
        b = ctx.block("b", (8, 6))
        d = b.dat("d", halo=2)
        assert d.data.shape == (12, 10)
        assert d.interior.shape == (8, 6)

    def test_dat_init_scalar(self, ctx):
        b = ctx.block("b", (4, 4))
        d = b.dat("d", halo=1, init=3.5)
        assert np.all(d.interior == 3.5)
        # Halo stays zero.
        assert d.data[0, 0] == 0.0

    def test_dat_dtype_validation(self, ctx):
        b = ctx.block("b", (4,))
        with pytest.raises(ValueError, match="float32 or float64"):
            b.dat("d", dtype=np.int32)
        with pytest.raises(ValueError, match="halo"):
            b.dat("d", halo=-1)

    def test_set_and_gather_global(self, ctx):
        b = ctx.block("b", (5, 3))
        d = b.dat("d", halo=1)
        g = np.arange(15.0).reshape(5, 3)
        d.set_from_global(g)
        np.testing.assert_array_equal(d.gather_global(), g)

    def test_local_index(self, ctx):
        b = ctx.block("b", (8,))
        d = b.dat("d", halo=2)
        assert d.local_index((0,)) == (2,)
        assert d.local_index((-2,)) == (0,)
        assert d.local_index((9,)) == (11,)  # inside the halo
        with pytest.raises(IndexError):
            d.local_index((10,))


class TestAccessDescriptors:
    def test_write_requires_point_stencil(self, ctx):
        b = ctx.block("b", (4, 4))
        d = b.dat("d", halo=1)
        with pytest.raises(ValueError, match="single-point"):
            arg_dat(d, star_stencil(2, 1), Access.WRITE)

    def test_stencil_block_dim_mismatch(self, ctx):
        b = ctx.block("b", (4, 4))
        d = b.dat("d")
        with pytest.raises(ValueError, match="dimensionality"):
            arg_dat(d, point_stencil(3), Access.READ)

    def test_transfers_accounting(self):
        assert Access.READ.transfers == 1
        assert Access.WRITE.transfers == 1
        assert Access.RW.transfers == 2
        assert Access.INC.transfers == 2

    def test_gbl_rejects_rw(self):
        with pytest.raises(ValueError):
            arg_gbl(np.zeros(1), Access.RW)


class TestParLoopExecution:
    def test_simple_copy(self, ctx):
        b = ctx.block("b", (6, 6))
        src = b.dat("src", init=2.0)
        dst = b.dat("dst")

        def k(out, inp):
            out[0, 0] = inp[0, 0]

        ctx.par_loop(k, "copy", b, b.interior,
                     arg_dat(dst, S2D_00, Access.WRITE),
                     arg_dat(src, S2D_00, Access.READ))
        assert np.all(dst.interior == 2.0)

    def test_stencil_read(self, ctx):
        b = ctx.block("b", (8,))
        u = b.dat("u", halo=1)
        out = b.dat("out")
        u.set_from_global(np.arange(8.0))

        def k(o, i):
            o[(0,)] = i[(1,)] - i[(-1,)]

        ctx.par_loop(k, "diff", b, [(1, 7)],
                     arg_dat(out, point_stencil(1), Access.WRITE),
                     arg_dat(u, star_stencil(1, 1), Access.READ))
        np.testing.assert_array_equal(out.interior[1:7], 2.0)

    def test_inc_access(self, ctx):
        b = ctx.block("b", (4,))
        d = b.dat("d", init=1.0)

        def k(a):
            a[(0,)] += 2.0

        ctx.par_loop(k, "inc", b, b.interior, arg_dat(d, point_stencil(1), Access.INC))
        assert np.all(d.interior == 3.0)

    def test_restricted_range(self, ctx):
        b = ctx.block("b", (6, 6))
        d = b.dat("d")

        def k(a):
            a[0, 0] = 1.0

        ctx.par_loop(k, "mark", b, [(2, 4), (1, 3)], arg_dat(d, S2D_00, Access.WRITE))
        assert d.interior.sum() == 4.0
        assert d.interior[2, 1] == 1.0 and d.interior[0, 0] == 0.0

    def test_boundary_range_into_halo(self, ctx):
        b = ctx.block("b", (4,))
        d = b.dat("d", halo=1)

        def k(a):
            a[(0,)] = 9.0

        ctx.par_loop(k, "ghost", b, [(-1, 0)], arg_dat(d, point_stencil(1), Access.WRITE))
        assert d.data[0] == 9.0
        assert np.all(d.interior == 0.0)

    def test_read_only_enforced(self, ctx):
        b = ctx.block("b", (4,))
        d = b.dat("d")

        def k(a):
            a[(0,)] = 1.0

        with pytest.raises(PermissionError, match="READ-only"):
            ctx.par_loop(k, "bad", b, b.interior, arg_dat(d, point_stencil(1), Access.READ))

    def test_write_offset_rejected(self, ctx):
        b = ctx.block("b", (4,))
        d = b.dat("d", halo=1)

        def k(a):
            a[(1,)] = 1.0

        with pytest.raises(PermissionError, match="offset 0"):
            ctx.par_loop(k, "bad", b, [(0, 3)],
                         arg_dat(d, point_stencil(1), Access.WRITE))

    def test_undeclared_offset_rejected(self, ctx):
        b = ctx.block("b", (4,))
        d = b.dat("d", halo=2)
        out = b.dat("out")

        def k(o, i):
            o[(0,)] = i[(2,)]  # radius 2 not in radius-1 stencil

        with pytest.raises(IndexError, match="not in stencil"):
            ctx.par_loop(k, "bad", b, [(0, 2)],
                         arg_dat(out, point_stencil(1), Access.WRITE),
                         arg_dat(d, star_stencil(1, 1), Access.READ))

    def test_stencil_exceeding_halo_rejected(self, ctx):
        b = ctx.block("b", (8,))
        d = b.dat("d", halo=1)
        out = b.dat("out")

        def k(o, i):
            o[(0,)] = i[(0,)]

        with pytest.raises(ValueError, match="exceeds"):
            ctx.par_loop(k, "bad", b, b.interior,
                         arg_dat(out, point_stencil(1), Access.WRITE),
                         arg_dat(d, star_stencil(1, 2), Access.READ))

    def test_global_reduction_inc(self, ctx):
        b = ctx.block("b", (5,))
        d = b.dat("d", init=2.0)
        total = np.zeros(1)

        def k(g, inp):
            g[0] += np.sum(inp[(0,)])

        ctx.par_loop(k, "sum", b, b.interior,
                     arg_gbl(total, Access.INC), arg_dat(d, point_stencil(1), Access.READ))
        assert total[0] == 10.0

    def test_global_reduction_min_max(self, ctx):
        b = ctx.block("b", (6,))
        d = b.dat("d")
        d.set_from_global(np.array([3.0, -1.0, 4.0, 1.0, 5.0, -9.0]))
        lo = np.array([np.inf])
        hi = np.array([-np.inf])

        def k(gmin, gmax, inp):
            gmin[0] = min(gmin[0], np.min(inp[(0,)]))
            gmax[0] = max(gmax[0], np.max(inp[(0,)]))

        ctx.par_loop(k, "minmax", b, b.interior,
                     arg_gbl(lo, Access.MIN), arg_gbl(hi, Access.MAX),
                     arg_dat(d, point_stencil(1), Access.READ))
        assert lo[0] == -9.0 and hi[0] == 5.0

    def test_global_read_is_immutable(self, ctx):
        b = ctx.block("b", (4,))
        d = b.dat("d")
        c = np.array([2.0])

        def k(g, a):
            with pytest.raises((PermissionError, ValueError)):
                g[0] = 5.0
            a[(0,)] = g.val[0]

        ctx.par_loop(k, "use", b, b.interior,
                     arg_gbl(c, Access.READ), arg_dat(d, point_stencil(1), Access.WRITE))
        assert np.all(d.interior == 2.0)
        assert c[0] == 2.0


def _type_error(value) -> str:
    """The interpreter's own message for ``int(value)``."""
    try:
        int(value)
    except TypeError as exc:
        return str(exc)
    raise AssertionError(f"int({value!r}) did not raise")


class TestAccessorOffsets:
    """An accessor looks a stencil point up as given and normalizes any
    other offset first; each rejected offset keeps its exception type
    and its exact message."""

    @staticmethod
    def _read(ctx, ndim, offset, rng=None):
        b = ctx.block("b", (4,) * ndim)
        u = b.dat("u", halo=1)
        u.set_from_global(np.arange(4.0 ** ndim).reshape((4,) * ndim))
        out = b.dat("out", halo=1)
        seen = []

        def k(o, i):
            seen.append(i[offset].copy())

        ctx.par_loop(k, "read", b, rng or b.interior,
                     arg_dat(out, point_stencil(ndim), Access.WRITE),
                     arg_dat(u, star_stencil(ndim, 1), Access.READ))
        return seen[0]

    @pytest.mark.parametrize(
        "offset", [1, np.int64(1), [1], (np.int64(1),), (True,), (1.0,)])
    def test_offset_forms_read_the_same_view(self, ctx, offset):
        want = self._read(OpsContext(), 1, (1,))
        np.testing.assert_array_equal(self._read(ctx, 1, offset), want)
        np.testing.assert_array_equal(want, [1.0, 2.0, 3.0, 0.0])

    @pytest.mark.parametrize("ndim, offset, exc, msg", [
        (2, (1,), IndexError, "offset (1,) has wrong dimensionality (need 2)"),
        (2, 1, IndexError, "offset 1 has wrong dimensionality (need 2)"),
        (2, np.int64(1), IndexError,
         f"offset {np.int64(1)!r} has wrong dimensionality (need 2)"),
        (2, [0, 1, 0], IndexError,
         "offset [0, 1, 0] has wrong dimensionality (need 2)"),
        (1, np.int64(2), IndexError, "u: offset (2,) not in stencil S1D_STAR1"),
        (1, -2, IndexError, "u: offset (-2,) not in stencil S1D_STAR1"),
        (2, [0, 2], IndexError, "u: offset (0, 2) not in stencil S2D_STAR1"),
        (2, (1, 1), IndexError, "u: offset (1, 1) not in stencil S2D_STAR1"),
        (2, ([1], 0), TypeError, _type_error([1])),
    ])
    def test_rejected_offsets_keep_their_errors(self, ctx, ndim, offset, exc,
                                                msg):
        with pytest.raises(exc) as info:
            self._read(ctx, ndim, offset)
        assert type(info.value) is exc
        assert str(info.value) == msg

    def test_nonzero_read_through_write_only(self, ctx):
        b = ctx.block("b", (4,))
        d = b.dat("d", halo=1)

        def k(a):
            a[(1,)]

        with pytest.raises(PermissionError) as info:
            ctx.par_loop(k, "bad", b, [(0, 3)],
                         arg_dat(d, Stencil("east", ((1,),)), Access.WRITE))
        assert str(info.value) == "d is WRITE-only; only offset 0 may be assigned"

    @pytest.mark.parametrize("offset", [(0, -1), (np.int64(0), np.int64(-1))])
    def test_view_outside_local_storage(self, ctx, offset):
        with pytest.raises(IndexError) as info:
            self._read(ctx, 2, offset, rng=[(0, 4), (-1, 4)])
        assert str(info.value) == (
            "u: offset (0, -1) reaches outside local storage in dim 1 (halo 1)"
        )


class TestAccounting:
    def test_bytes_and_flops_recorded(self, ctx):
        b = ctx.block("b", (10, 10))
        a = b.dat("a", halo=1)
        c = b.dat("c")

        def k(out, inp):
            out[0, 0] = 2.0 * inp[0, 0]

        ctx.par_loop(k, "scale", b, b.interior,
                     arg_dat(c, S2D_00, Access.WRITE),
                     arg_dat(a, star_stencil(2, 1), Access.READ),
                     flops_per_point=1)
        rec = ctx.records["scale"]
        assert rec.calls == 1
        assert rec.points == 100
        assert rec.bytes == 100 * 8 * 2  # 1 read + 1 write transfer
        assert rec.flops == 100
        assert rec.radius == 1
        assert rec.streams == 2

    def test_rw_counts_double(self, ctx):
        b = ctx.block("b", (4,))
        d = b.dat("d")

        def k(a):
            a[(0,)] = a[(0,)] + 1.0

        ctx.par_loop(k, "rmw", b, b.interior, arg_dat(d, point_stencil(1), Access.RW))
        assert ctx.records["rmw"].bytes == 4 * 8 * 2

    def test_loop_specs_scaling(self, ctx):
        b = ctx.block("b", (10,))
        d = b.dat("d")

        def k(a):
            a[(0,)] = 1.0

        for _ in range(4):
            ctx.par_loop(k, "w", b, b.interior, arg_dat(d, point_stencil(1), Access.WRITE),
                         flops_per_point=2)
        specs = ctx.loop_specs(iterations=4, point_scale=100.0)
        assert len(specs) == 1
        assert specs[0].points == 1000.0
        assert specs[0].bytes_per_point == 8.0
        assert specs[0].flops_per_point == 2.0

    def test_halo_exchange_counted_serially(self, ctx):
        b = ctx.block("b", (8,))
        u = b.dat("u", halo=1)
        v = b.dat("v")

        def k(out, inp):
            out[(0,)] = inp[(1,)]

        s = star_stencil(1, 1)
        ctx.par_loop(k, "r1", b, [(0, 7)], arg_dat(v, point_stencil(1), Access.WRITE),
                     arg_dat(u, s, Access.READ))
        assert ctx.halo_exchange_count == 1
        # Second read without intervening write: halos clean, no exchange.
        ctx.par_loop(k, "r2", b, [(0, 7)], arg_dat(v, point_stencil(1), Access.WRITE),
                     arg_dat(u, s, Access.READ))
        assert ctx.halo_exchange_count == 1

    def test_range_dim_mismatch(self, ctx):
        b = ctx.block("b", (4, 4))
        d = b.dat("d")

        def k(a):
            a[0, 0] = 1.0

        with pytest.raises(ValueError, match="dimensionality"):
            ctx.par_loop(k, "bad", b, [(0, 4)], arg_dat(d, S2D_00, Access.WRITE))
