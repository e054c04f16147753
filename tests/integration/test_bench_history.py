"""The perf-trajectory gate: bench history rows and the regression check."""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "scripts" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


checker = load_script("check_bench_regression")


def rows(*metric_values, **extra):
    return [
        {"benchmark": "sweep", "host": "box", "cold_jobs_per_s": v, **extra}
        for v in metric_values
    ]


class TestChecker:
    def test_empty_history_passes(self):
        assert checker.check([], 0.2) == 0

    def test_first_row_becomes_baseline(self):
        assert checker.check(rows(3000.0), 0.2) == 0

    def test_within_tolerance_passes(self):
        assert checker.check(rows(3000.0, 2500.0), 0.2) == 0

    def test_regression_fails(self):
        assert checker.check(rows(3000.0, 2000.0), 0.2) == 1

    def test_compares_against_best_not_latest(self):
        # A slow middle row must not lower the bar.
        assert checker.check(rows(3000.0, 100.0, 2500.0), 0.2) == 0
        assert checker.check(rows(3000.0, 100.0, 2000.0), 0.2) == 1

    def test_hosts_are_not_compared(self):
        history = rows(3000.0) + [
            {"benchmark": "sweep", "host": "ci-runner",
             "cold_jobs_per_s": 50.0}
        ]
        assert checker.check(history, 0.2) == 0

    def test_shapes_are_not_compared(self):
        # --quick serve run vs full serve run: different shape, no gate.
        history = [
            {"benchmark": "serve", "host": "box", "quick": False,
             "warm_req_per_s": 100.0},
            {"benchmark": "serve", "host": "box", "quick": True,
             "warm_req_per_s": 10.0},
        ]
        assert checker.check(history, 0.2) == 0

    def test_serve_rows_gate_on_warm_req_per_s(self):
        history = [
            {"benchmark": "serve", "host": "box", "quick": False,
             "warm_req_per_s": 100.0},
            {"benchmark": "serve", "host": "box", "quick": False,
             "warm_req_per_s": 70.0},
        ]
        assert checker.check(history, 0.2) == 1
        history[-1]["warm_req_per_s"] = 90.0
        assert checker.check(history, 0.2) == 0

    def test_malformed_lines_are_skipped(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text(
            json.dumps(rows(3000.0)[0]) + "\n{oops\n\n"
            + json.dumps(rows(2900.0)[0]) + "\n")
        assert checker.check(checker.read_history(path), 0.2) == 0

    def test_missing_file_is_empty(self, tmp_path):
        assert checker.read_history(tmp_path / "absent.jsonl") == []


class TestAppendHistory:
    def test_bench_scripts_share_the_append_shape(self, tmp_path):
        bench_sweep = load_script("bench_sweep")
        bench_serve = load_script("bench_serve")
        path = tmp_path / "deep" / "history.jsonl"
        bench_sweep.append_history(path, {"benchmark": "sweep", "b": 1})
        bench_serve.append_history(path, {"benchmark": "serve", "a": 2})
        got = checker.read_history(path)
        assert [r["benchmark"] for r in got] == ["sweep", "serve"]
        assert bench_sweep.DEFAULT_HISTORY == bench_serve.DEFAULT_HISTORY \
            == checker.DEFAULT_HISTORY

    def test_committed_history_parses_and_passes(self):
        history = checker.read_history(checker.DEFAULT_HISTORY)
        assert history, "baselines/bench_history.jsonl must be seeded"
        assert {r["benchmark"] for r in history} >= {"sweep", "serve"}
        assert checker.check(history, 0.2) == 0
