"""Tests for the intra-node scaling study."""

import pytest

from repro.harness.runner import app_spec, run_application
from repro.machine import (
    XEON_8360Y,
    XEON_MAX_9480,
    Compiler,
    Parallelization,
    RunConfig,
)
from repro.perfmodel.scaling import comm_share_curve, strong_scaling

CFG = RunConfig(Compiler.ONEAPI, Parallelization.MPI)


class TestStrongScaling:
    @pytest.fixture(scope="class")
    def clover_curve(self):
        return strong_scaling(app_spec("cloverleaf2d"), XEON_MAX_9480, CFG,
                              core_counts=[7, 14, 28, 56])

    def test_monotone_speedup(self, clover_curve):
        times = [p.time for p in clover_curve]
        assert times == sorted(times, reverse=True)

    def test_efficiency_bounds(self, clover_curve):
        for p in clover_curve:
            assert 0.0 < p.efficiency <= 1.05

    def test_bandwidth_bound_saturates(self):
        """On the DDR 8360Y a bandwidth-bound app stops scaling early:
        doubling cores from half to full buys little."""
        pts = strong_scaling(app_spec("cloverleaf2d"), XEON_8360Y, CFG,
                             core_counts=[9, 18, 36])
        last_gain = pts[-1].time and pts[-2].time / pts[-1].time
        assert last_gain < 1.3  # memory-saturated

    def test_compute_bound_keeps_scaling(self):
        """miniBUDE scales with cores almost ideally."""
        pts = strong_scaling(app_spec("minibude"), XEON_MAX_9480, CFG,
                             core_counts=[14, 28, 56])
        assert pts[-1].efficiency > 0.85

    def test_hbm_scales_further_than_ddr(self):
        """The paper's core point, as a scaling curve: the HBM machine
        keeps gaining from cores where the DDR machine has saturated."""
        max_pts = strong_scaling(app_spec("cloverleaf2d"), XEON_MAX_9480, CFG,
                                 core_counts=[14, 28, 56])
        icx_pts = strong_scaling(app_spec("cloverleaf2d"), XEON_8360Y, CFG,
                                 core_counts=[9, 18, 36])
        assert max_pts[-1].efficiency > icx_pts[-1].efficiency

    def test_core_count_validation(self):
        with pytest.raises(ValueError):
            strong_scaling(app_spec("minibude"), XEON_MAX_9480, CFG,
                           core_counts=[500])


class TestCommShare:
    def test_fraction_rises_as_problem_shrinks(self):
        curve = comm_share_curve(app_spec("cloverleaf2d"), XEON_MAX_9480, CFG)
        fracs = [f for _, f in curve]
        assert fracs == sorted(fracs)
        assert fracs[-1] > fracs[0]

    def test_max_hits_the_limit_before_ddr(self):
        """At the same shrink factor the Xeon MAX spends a larger share
        in MPI than the 8360Y — the bottleneck shift (Sec. 6)."""
        m = dict(comm_share_curve(app_spec("cloverleaf2d"), XEON_MAX_9480, CFG))
        i = dict(comm_share_curve(app_spec("cloverleaf2d"), XEON_8360Y, CFG))
        assert m[64.0] > i[64.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            comm_share_curve(app_spec("minibude"), XEON_MAX_9480, CFG,
                             shrink_factors=[0.5])


class TestClusterScaling:
    """Strong/weak scaling across nodes — the fig7x regime."""

    @pytest.fixture(scope="class")
    def strong(self):
        from repro.perfmodel import cluster_strong_scaling

        base = run_application("cloverleaf3d", XEON_MAX_9480, CFG)
        return cluster_strong_scaling(app_spec("cloverleaf3d"), XEON_MAX_9480,
                                      CFG, base, node_counts=(2, 4, 8))

    def test_ranks_scale_with_nodes(self, strong):
        assert [p.nodes for p in strong] == [2, 4, 8]
        assert strong[1].ranks == 2 * strong[0].ranks
        assert strong[2].ranks == 4 * strong[0].ranks

    def test_first_point_is_the_baseline(self, strong):
        assert strong[0].speedup == pytest.approx(1.0)
        assert strong[0].efficiency == pytest.approx(1.0)

    def test_efficiency_decays(self, strong):
        effs = [p.efficiency for p in strong]
        assert effs == sorted(effs, reverse=True)
        for p in strong:
            assert 0.0 < p.efficiency <= 1.0 + 1e-9

    def test_mpi_fraction_grows(self, strong):
        fracs = [p.mpi_fraction for p in strong]
        assert fracs == sorted(fracs)
        assert 0.0 < fracs[0] < fracs[-1] < 1.0

    def test_max_more_mpi_bound_than_ddr(self):
        """The paper's bottleneck shift extends to clusters: the faster
        the node, the larger the MPI share at equal scale."""
        from repro.perfmodel import cluster_strong_scaling

        spec = app_spec("cloverleaf3d")
        m = cluster_strong_scaling(
            spec, XEON_MAX_9480, CFG,
            run_application("cloverleaf3d", XEON_MAX_9480, CFG), (16,))
        i = cluster_strong_scaling(
            spec, XEON_8360Y, CFG,
            run_application("cloverleaf3d", XEON_8360Y, CFG), (16,))
        assert m[0].mpi_fraction > i[0].mpi_fraction

    def test_weak_scaling_stays_efficient(self):
        from repro.perfmodel import cluster_weak_scaling

        pts = cluster_weak_scaling(app_spec("miniweather"), XEON_MAX_9480,
                                   CFG, node_counts=(1, 4, 16))
        assert [p.nodes for p in pts] == [1, 4, 16]
        for p in pts:
            assert 0.5 < p.efficiency <= 1.0 + 1e-9
        # Weak scaling holds efficiency far better than strong scaling.
        assert pts[-1].efficiency > 0.8

    def test_validation(self):
        from repro.perfmodel import cluster_strong_scaling

        base = run_application("cloverleaf3d", XEON_MAX_9480, CFG)
        with pytest.raises(ValueError):
            cluster_strong_scaling(app_spec("cloverleaf3d"), XEON_MAX_9480,
                                   CFG, base, node_counts=())

    def test_base_must_be_the_same_point(self):
        from repro.perfmodel import cluster_strong_scaling

        other = run_application("cloverleaf3d", XEON_8360Y, CFG)
        with pytest.raises(ValueError, match="icx8360y"):
            cluster_strong_scaling(app_spec("cloverleaf3d"), XEON_MAX_9480,
                                   CFG, other, node_counts=(16,))
