"""Tests for the MG-CFD multigrid Euler solver."""

import numpy as np
import pytest

from repro.apps.mgcfd import (
    fine_to_coarse_map,
    run_mgcfd,
    synthetic_mgcfd_mesh,
)
from repro.op2 import DistOp2Context, Op2Context
from repro.simmpi import World


class TestSyntheticMesh:
    def test_levels_and_sizes(self):
        mesh = synthetic_mgcfd_mesh(8, 3)
        assert [m.shape[0] for m in mesh] == [8, 4, 2]
        assert len(mesh[0].edges) == 3 * 512

    def test_normals_close_around_every_node(self):
        """Σ outgoing normals - Σ incoming normals = 0 per node: the
        free-stream-preservation property."""
        mesh = synthetic_mgcfd_mesh(4, 1)[0]
        acc = np.zeros((64, 3))
        for (a, b), n in zip(mesh.edges, mesh.normals):
            acc[a] += n
            acc[b] -= n
        np.testing.assert_allclose(acc, 0.0, atol=1e-15)

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            synthetic_mgcfd_mesh(6, 3)  # not divisible by 4

    def test_fine_to_coarse_covers(self):
        m = fine_to_coarse_map(8)
        assert m.shape == (512,)
        counts = np.bincount(m, minlength=64)
        assert np.all(counts == 8)  # every coarse node has 8 children


class TestPhysics:
    def test_free_stream_preserved_exactly(self):
        d = run_mgcfd(Op2Context(), (8, 8, 8), 3, init="uniform")
        assert all(r == 0.0 for r in d["residual"])
        np.testing.assert_allclose(d["q"][:, 0], 1.0, rtol=1e-14)
        np.testing.assert_allclose(d["q"][:, 1], 0.3, rtol=1e-13)

    def test_residual_decays(self):
        d = run_mgcfd(Op2Context(), (8, 8, 8), 8, init="perturbed")
        r = d["residual"]
        assert r[-1] < r[0]
        assert all(b <= a * 1.0001 for a, b in zip(r, r[1:]))  # monotone-ish

    def test_density_stays_positive(self):
        d = run_mgcfd(Op2Context(), (8, 8, 8), 8, init="perturbed")
        assert d["q"][:, 0].min() > 0.5


class TestDistributed:
    @pytest.mark.parametrize("nranks", [2, 4])
    def test_distributed_equals_serial(self, nranks):
        serial = run_mgcfd(Op2Context(), (8, 8, 8), 2)

        def program(comm):
            ctx = DistOp2Context(comm)
            return run_mgcfd(ctx, (8, 8, 8), 2)

        results = World(nranks).run(program)
        np.testing.assert_allclose(results[0]["q"], serial["q"], rtol=1e-11)
        for r in results:
            np.testing.assert_allclose(r["residual"], serial["residual"], rtol=1e-10)


class TestAccounting:
    def test_flux_kernel_dominates_and_is_indirect(self):
        ctx = Op2Context()
        run_mgcfd(ctx, (8, 8, 8), 2)
        rec = ctx.records["compute_flux_l0"]
        assert rec.indirect_per_elem == 4  # 2 reads + 2 INCs
        assert rec.has_indirect_inc
        total = sum(r.bytes for r in ctx.records.values())
        assert rec.bytes / total > 0.3

    def test_spec_unstructured_not_vectorizable(self):
        from repro.apps import build_spec, get_app

        spec = build_spec(get_app("mgcfd"))
        flux_loops = [l for l in spec.loops if l.name.startswith("compute_flux")]
        assert flux_loops and all(not l.vectorizable for l in flux_loops)
        assert spec.domain == (200, 200, 200)


class TestTransferOperators:
    def test_restriction_preserves_constants(self):
        """Injecting a constant fine field yields the same constant on
        the coarse level (the 8-child average of equal values)."""
        from repro.apps.mgcfd import fine_to_coarse_map
        import numpy as np

        f2c = fine_to_coarse_map(8)
        fine = np.full((512, 5), 3.25)
        coarse = np.zeros((64, 5))
        np.add.at(coarse, f2c, 0.125 * fine)
        np.testing.assert_allclose(coarse, 3.25, rtol=1e-14)

    def test_prolongation_roundtrip_of_uniform_correction(self):
        """A uniform coarse correction prolongs to a uniform fine update."""
        from repro.apps.mgcfd import fine_to_coarse_map
        import numpy as np

        f2c = fine_to_coarse_map(4)
        corr = np.full((8, 5), 0.5)  # (4/2)^3 = 8 coarse nodes
        fine_update = corr[f2c]
        assert fine_update.shape == (64, 5)
        np.testing.assert_array_equal(fine_update, 0.5)
