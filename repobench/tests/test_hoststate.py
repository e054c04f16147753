"""Host-state handling on synthetic bimodal timings."""

import random
import statistics
import time

import pytest

from hoststate import (INTERVAL_S, REF_S, StateSampler, fast_equivalent,
                       state_factor)

OP_FAST_S = 0.040   # the operation's time in the fast state
SLOW = 1.8          # slow/fast ratio, the same for operation and probe
SEGMENT_S = 2.0     # the state holds for this long


def synthetic_run(fast_share: float, seed: int, seconds: float = 120.0):
    """Probe arrays and operation timings over a timeline of fast and
    slow segments (``fast_share`` of them fast): returns
    ``(starts, durations, ops)`` with ``ops`` as ``(t0, t1)``."""
    rng = random.Random(seed)
    segments = [1.0 if rng.random() < fast_share else SLOW
                for _ in range(int(seconds / SEGMENT_S))]

    def speed(t):
        return segments[min(int(t / SEGMENT_S), len(segments) - 1)]

    starts, durations = [], []
    t = 0.0
    while t < seconds:
        starts.append(t)
        durations.append(REF_S * speed(t) * rng.uniform(0.97, 1.03))
        t += INTERVAL_S
    ops = []
    t = 0.0
    while t < seconds - 1.0:
        ops.append((t, t + OP_FAST_S * speed(t)))
        t = ops[-1][1] + 0.01
    return starts, durations, ops


def steady_median(starts, durations, ops) -> float:
    return statistics.median(
        fast_equivalent(t1 - t0, state_factor(starts, durations, t0, t1))
        for t0, t1 in ops)


def test_fast_equivalent_removes_the_host_state():
    for share in (0.05, 0.5, 0.95):
        got = steady_median(*synthetic_run(share, seed=int(share * 100)))
        assert abs(got / OP_FAST_S - 1.0) < 0.02


def test_raw_median_follows_the_host_state():
    def raw(share, seed):
        return statistics.median(t1 - t0 for t0, t1
                                 in synthetic_run(share, seed)[2])

    assert raw(0.05, 1) / raw(0.95, 2) > 1.5


def test_state_factor_uses_the_window_around_the_interval():
    starts = [0.0, 1.0, 2.0, 3.0]
    durations = [REF_S, 2 * REF_S, 3 * REF_S, REF_S]
    assert state_factor(starts, durations, 1.2, 1.4, window=0.0) == 1.0
    assert state_factor(starts, durations, 0.9, 2.1,
                        window=0.0) == pytest.approx(2.5)
    assert state_factor(starts, durations, 1.2, 1.4,
                        window=0.5) == pytest.approx(2.0)
    assert state_factor([], [], 0.0, 1.0) == 1.0


def test_sampler_probes_a_busy_process():
    with StateSampler(interval=0.002) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(i * i for i in range(1000))
        t1 = time.perf_counter()
    assert len(sampler.durations) >= 20
    assert sampler.factor(t0, t1) > 0.0

