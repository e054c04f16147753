"""Smoke/structure tests for the lighter figure generators.

(The heavyweight shape assertions live in ``benchmarks/``; these tests
cover the generator plumbing itself: columns, row counts, and that paper
reference values are attached where expected.)
"""

import pytest

from repro.harness import fig1, fig2
from repro.harness.figures import _config_matrix
from repro.machine import XEON_MAX_9480, structured_config_sweep


class TestFig1Structure:
    @pytest.fixture(scope="class")
    def f1(self):
        return fig1()

    def test_columns(self, f1):
        assert f1.columns == ("platform", "scope", "model GB/s", "paper GB/s")

    def test_five_node_rows_with_paper_values(self, f1):
        node_rows = [r for r in f1.rows if r[1] == "node"]
        assert len(node_rows) == 5
        assert all(r[3] is not None for r in node_rows)

    def test_scope_rows_present(self, f1):
        assert any(r[1] == "numa" for r in f1.rows)
        assert any(r[1] == "socket" for r in f1.rows)

    def test_cache_ratio_notes(self, f1):
        assert sum("cache:memory" in n for n in f1.notes) == 3

    def test_optional_size_sweep(self):
        import numpy as np

        f = fig1(sizes=np.array([2**20, 2**24]))
        assert sum("n=" in n for n in f.notes) == 2


class TestFig2Structure:
    def test_rows_per_platform(self):
        f2 = fig2()
        by_platform = {}
        for r in f2.rows:
            by_platform.setdefault(r[0], []).append(r[1])
        assert len(by_platform["max9480"]) == 4  # smt/adjacent/numa/socket
        assert len(by_platform["icx8360y"]) == 3
        assert len(by_platform["epyc7v73x"]) == 3

    def test_latencies_in_nanoseconds(self):
        f2 = fig2()
        for r in f2.rows:
            assert 1.0 < r[2] < 1000.0  # sane ns range


class TestConfigMatrix:
    def test_normalized_to_best(self):
        table, rows = _config_matrix(
            ["miniweather"], XEON_MAX_9480, structured_config_sweep
        )
        vals = [r[1] for r in table if r[1] is not None]
        assert min(vals) == pytest.approx(1.0)
        assert all(v >= 1.0 for v in vals)

    def test_sorted_by_mean(self):
        table, _ = _config_matrix(
            ["miniweather"], XEON_MAX_9480, structured_config_sweep
        )
        means = [r[1] for r in table if r[1] is not None]
        assert means == sorted(means)


class TestFig7xStructure:
    @pytest.fixture(scope="class")
    def f7x(self):
        from repro.harness import fig7x

        # Two node counts keep the smoke test fast; the default study
        # sweeps (16, 32, 64, 96).
        return fig7x(node_counts=(16, 32))

    def test_columns(self, f7x):
        assert f7x.columns == ("app", "platform", "nodes", "ranks",
                               "MPI %", "efficiency")
        assert f7x.figure == "fig7x"

    def test_row_count(self, f7x):
        # 2 apps x 2 platforms x 2 node counts.
        assert len(f7x.rows) == 8

    def test_efficiency_and_mpi_bounds(self, f7x):
        for r in f7x.rows:
            assert 0.0 < r[5] <= 1.0 + 1e-9
            assert 0.0 < r[4] < 100.0
            assert r[3] >= r[2]  # ranks >= nodes

    def test_bottleneck_shift_across_platforms(self, f7x):
        """At equal node count the Xeon MAX spends a larger MPI share
        than the 8360Y — the paper's Sec. 6 story at cluster scale."""
        by = {(r[0], r[1], r[2]): r[4] for r in f7x.rows}
        for app in ("cloverleaf3d", "miniweather"):
            for nodes in (16, 32):
                assert by[(app, "max9480", nodes)] > by[(app, "icx8360y", nodes)]

    def test_rows_equal_the_study_over_a_fresh_scalar_base(self, f7x):
        """fig7x reads its single-node bases from the engine; its rows
        are bit-identical to the study over freshly evaluated ones."""
        from repro.harness.figures import FIG7X_APPS
        from repro.harness.runner import app_spec
        from repro.machine import (XEON_8360Y, Compiler, Parallelization,
                                   RunConfig)
        from repro.perfmodel import cluster_strong_scaling, estimate_app

        cfg = RunConfig(Compiler.ONEAPI, Parallelization.MPI)
        want = []
        for name in FIG7X_APPS:
            spec = app_spec(name)
            for p in (XEON_MAX_9480, XEON_8360Y):
                base = estimate_app(spec, p, cfg)
                want += [
                    (name, p.short_name, pt.nodes, pt.ranks,
                     pt.mpi_fraction * 100, pt.efficiency)
                    for pt in cluster_strong_scaling(spec, p, cfg, base,
                                                     (16, 32))
                ]
        assert f7x.rows == want

    def test_in_all_figures_not_in_fidelity(self):
        import repro.harness.figures as figmod
        from repro.obs.fidelity import FIGURE_ORDER

        assert "fig7x" not in FIGURE_ORDER
        assert "fig7x" in figmod.__all__
