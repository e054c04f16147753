"""Each output check accepts the real output and rejects a perturbed one."""

import dataclasses
import math
from types import SimpleNamespace

import checks


def _fig(rows):
    return SimpleNamespace(figure="fig3", rows=rows, notes=["n"])


def _score(model):
    entry = SimpleNamespace(label="mean slowdown", model=model)
    return SimpleNamespace(figure="fig3", entries=[entry])


def test_figures_identical_pass_is_accepted():
    ref = checks.figure_digest([_fig([("a", 1.5, None)])], [_score(0.25)])
    again = checks.figure_digest([_fig([("a", 1.5, None)])], [_score(0.25)])
    assert checks.check_same_figures(ref, again, "pass 1") == []


def test_figures_one_ulp_in_a_row_is_rejected():
    ref = checks.figure_digest([_fig([("a", 1.5)])], [])
    bumped = checks.figure_digest([_fig([("a", math.nextafter(1.5, 2))])], [])
    assert checks.check_same_figures(ref, bumped, "pass 1")


def test_figures_changed_score_or_missing_figure_is_rejected():
    ref = checks.figure_digest([_fig([("a", 1.5)])], [_score(0.25)])
    other = checks.figure_digest([_fig([("a", 1.5)])], [_score(-0.25)])
    assert checks.check_same_figures(ref, other, "pass 1")
    assert checks.check_same_figures(ref, ref[:1], "pass 1")


@dataclasses.dataclass
class _Estimate:
    total_time: float
    per_loop: tuple


def test_oracle_accepts_equal_and_rejects_perturbed_estimates():
    a = _Estimate(1.25, (0.5, 0.75))
    assert checks.check_oracle([("p", a, _Estimate(1.25, (0.5, 0.75)))]) == []
    off = _Estimate(1.25, (0.5, math.nextafter(0.75, 1)))
    assert checks.check_oracle([("p", a, off)])
    assert checks.check_oracle([("p", _Estimate(-0.0, ()),
                                 _Estimate(0.0, ()))])
    assert checks.check_oracle([("p", None, a)])


def test_warm_pass_must_not_evaluate_or_write():
    assert checks.check_warm_counts(0, 0) == []
    assert checks.check_warm_counts(1, 0)
    assert checks.check_warm_counts(0, 120)


def test_response_status_and_bytes():
    body = b'{\n  "app": "mgcfd"\n}\n'
    assert checks.check_response(200, body, body, "r") == []
    assert checks.check_response(429, body, body, "r")
    assert checks.check_response(200, body.replace(b"\n}", b"}"), body, "r")


def test_allreduce_closed_form():
    n, mults = 8, [3, 7]
    want = [checks.allreduce_closed_form(n, m) for m in mults]
    assert want == [4.0 * 3 * 36, 4.0 * 7 * 36]
    good = [list(want) for _ in range(n)]
    assert checks.check_allreduce(n, mults, good) == []
    bad = [list(want) for _ in range(n)]
    bad[5][1] += 1.0
    assert checks.check_allreduce(n, mults, bad)
    as_int = [[int(v) for v in want] for _ in range(n)]
    assert checks.check_allreduce(n, mults, as_int)
    assert checks.check_allreduce(n, mults, good[:-1])


def test_clock_parity_is_bit_exact():
    a = [(1.0, 0.5), (2.0, 0.25)]
    assert checks.check_clock_parity(a, list(a)) == []
    b = [(1.0, 0.5), (2.0, math.nextafter(0.25, 1))]
    assert checks.check_clock_parity(a, b)
    assert checks.check_clock_parity(a, a[:1])


def test_halo_program_passes_its_checks():
    """The real program on a small world: allreduce equals the closed
    form and the generator and blocking runs keep identical clocks."""
    from common import use_checkout_source

    use_checkout_source()
    import simmpi_wl

    _t0, _t1, problems = simmpi_wl.parity([5, 11])
    assert problems == []
