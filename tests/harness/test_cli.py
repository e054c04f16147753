"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestList:
    def test_lists_apps_and_platforms(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "cloverleaf2d" in out
        assert "max9480" in out
        assert "minibude" in out


class TestRun:
    def test_single_platform(self, capsys):
        assert main(["run", "miniweather"]) == 0
        out = capsys.readouterr().out
        assert "max9480" in out
        assert "effBW" in out

    def test_compare(self, capsys):
        assert main(["run", "minibude", "--compare"]) == 0
        out = capsys.readouterr().out
        for p in ("max9480", "icx8360y", "epyc7v73x", "a100"):
            assert p in out

    def test_unknown_app_rejected(self, capsys):
        assert main(["run", "linpack"]) == 2
        err = capsys.readouterr().err
        assert "unknown application" in err
        assert "cloverleaf2d" in err  # lists the valid choices

    def test_unknown_platform_rejected(self, capsys):
        assert main(["run", "miniweather", "--platform", "cray1"]) == 2
        err = capsys.readouterr().err
        assert "unknown platform" in err
        assert "max9480" in err  # lists the valid choices

    def test_prefix_resolves(self, capsys):
        assert main(["run", "miniw"]) == 0
        assert "max9480" in capsys.readouterr().out

    def test_ambiguous_prefix_takes_first_with_note(self, capsys):
        assert main(["run", "cloverleaf"]) == 0
        captured = capsys.readouterr()
        assert "ambiguous" in captured.err
        assert "cloverleaf2d" in captured.err


class TestFigures:
    def test_single_figure(self, capsys):
        assert main(["figures", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "fig2" in out
        assert "cross-socket" in out

    def test_unknown_figure(self, capsys):
        assert main(["figures", "fig99"]) == 2


class TestSweep:
    def test_single_app_sweep(self, capsys):
        assert main(["sweep", "miniweather", "--platform", "max9480"]) == 0
        out = capsys.readouterr().out
        assert "miniweather" in out
        assert "max9480" in out
        assert "engine:" in out  # metrics summary printed
        assert "MPI+OpenMP" in out

    def test_parallel_no_cache_sweep(self, capsys):
        assert main(["sweep", "miniweather", "--platform", "max9480",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "0 cached" in out

    def test_multi_platform_sweep(self, capsys):
        assert main(["sweep", "minibude", "--platform",
                     "max9480,epyc7v73x"]) == 0
        out = capsys.readouterr().out
        assert "epyc7v73x" in out
        # miniBUDE + Classic stalls: planned as infeasible, not run.
        assert "planned-infeasible" in out

    def test_unknown_platform_rejected(self, capsys):
        assert main(["sweep", "miniweather", "--platform", "cray1"]) == 2
        err = capsys.readouterr().err
        assert "unknown platform" in err
        assert "max9480" in err

    def test_unknown_app_rejected(self, capsys):
        assert main(["sweep", "linpack"]) == 2
        assert "unknown application" in capsys.readouterr().err


class TestFiguresEngineFlags:
    def test_figures_accepts_jobs_and_no_cache(self, capsys):
        assert main(["figures", "fig2", "--no-cache"]) == 0
        assert "fig2" in capsys.readouterr().out


class TestValidate:
    def test_validate_runs_numerics(self, capsys):
        assert main(["validate", "volna"]) == 0
        out = capsys.readouterr().out
        assert "volume" in out
        assert "loops:" in out
