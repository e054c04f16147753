"""Tests for the Volna shallow-water solver."""

import numpy as np
import pytest

from repro.apps.volna import run_volna, synthetic_ocean
from repro.op2 import DistOp2Context, Op2Context
from repro.simmpi import World


class TestMesh:
    def test_triangulation_counts(self):
        mesh = synthetic_ocean(8, 4)
        assert mesh.n_cells == 64
        # Per quad: 1 diagonal; right edges: (nx-1)*ny; top: nx*(ny-1).
        assert len(mesh.edges) == 32 + 7 * 4 + 8 * 3

    def test_cell_normal_fans_close(self):
        """Interior + wall edges together close every cell — the basis
        of well-balancedness."""
        mesh = synthetic_ocean(6, 5)
        acc = np.zeros((mesh.n_cells, 2))
        for (a, b), n, l in zip(mesh.edges, mesh.edge_normal, mesh.edge_length):
            acc[a] += np.asarray(n) * l
            acc[b] -= np.asarray(n) * l
        for c, n, l in zip(mesh.bedge_cell, mesh.bedge_normal, mesh.bedge_length):
            acc[c] += np.asarray(n) * l
        np.testing.assert_allclose(acc, 0.0, atol=1e-14)

    def test_bathymetry_has_beach_and_island(self):
        mesh = synthetic_ocean(20, 10)
        assert mesh.bathymetry.min() < -0.9  # deep basin
        assert mesh.bathymetry.max() > -0.5  # shallows exist

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            synthetic_ocean(1, 5)


class TestWellBalanced:
    def test_lake_at_rest_exact(self):
        """η = 0 over strongly varying bathymetry must stay at rest to
        FP32 rounding — the hydrostatic-reconstruction property."""
        d = run_volna(Op2Context(), (16, 8), 8, init="rest")
        w = d["w"]
        scale = 9.81  # pressure-term magnitude
        assert np.abs(w[:, 1]).max() < 1e-5 * scale
        assert np.abs(w[:, 2]).max() < 1e-5 * scale

    def test_volume_constant_at_rest(self):
        d = run_volna(Op2Context(), (12, 6), 5, init="rest")
        v = d["volume"]
        assert max(v) - min(v) < 1e-5 * v[0]


class TestHumpCollapse:
    @pytest.fixture(scope="class")
    def result(self):
        return run_volna(Op2Context(), (16, 16), 12, init="hump")

    def test_volume_conserved(self, result):
        v = result["volume"]
        assert max(v) - min(v) < 1e-5 * v[0]

    def test_depth_nonnegative(self, result):
        h = result["w"][:, 0] - result["mesh"].bathymetry
        assert h.min() > -1e-6

    def test_wave_spreads(self, result):
        """Momentum develops away from the hump center."""
        assert np.abs(result["w"][:, 1]).max() > 1e-3

    def test_dt_positive(self, result):
        assert all(t > 0 for t in result["dt"])

    def test_finite(self, result):
        assert np.all(np.isfinite(result["w"]))


def deep_mesh(nx=5, ny=3):
    """A fully wet basin: no wetting/drying threshold flips, so serial
    and distributed runs must agree to accumulation rounding only."""
    import dataclasses

    mesh = synthetic_ocean(nx, ny)
    return dataclasses.replace(mesh, bathymetry=np.full(mesh.n_cells, -1.0))


class TestModes:
    @pytest.mark.parametrize("nranks", [2, 3])
    def test_distributed_equals_serial(self, nranks):
        mesh = deep_mesh()
        serial = run_volna(Op2Context(), (10, 6), 3, mesh=mesh)

        def program(comm):
            return run_volna(DistOp2Context(comm), (10, 6), 3, mesh=mesh)

        results = World(nranks).run(program)
        np.testing.assert_allclose(results[0]["w"], serial["w"], rtol=1e-4, atol=1e-6)


class TestAccounting:
    def test_edge_flux_is_the_indirect_hotspot(self):
        ctx = Op2Context()
        run_volna(ctx, (12, 6), 3)
        rec = ctx.records["edge_flux"]
        assert rec.has_indirect_inc
        assert rec.indirect_per_elem == 6  # 4 reads + 2 INCs

    def test_milder_indirection_than_mgcfd(self):
        """Paper: Volna is 'less so' sensitive to indirect accesses."""
        from repro.apps import build_spec, get_app

        volna = build_spec(get_app("volna"))
        mgcfd = build_spec(get_app("mgcfd"))

        def indirect_share(spec):
            tot = sum(l.bytes_total for l in spec.loops)
            ind = sum(l.bytes_total for l in spec.loops if l.indirect_per_point > 0)
            return ind / tot

        assert indirect_share(volna) < indirect_share(mgcfd)

    def test_spec_fp32(self):
        from repro.apps import build_spec, get_app

        spec = build_spec(get_app("volna"))
        assert spec.dtype_bytes == 4
        assert spec.klass.value == "unstructured"
