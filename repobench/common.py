"""Shared plumbing: locating the checkout, pinning, memory, statistics
and the one-line result every workload prints."""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for stores, logs and span dumps; listed in .gitignore.
WORK = BENCH_DIR / "_work"


class CheckoutError(RuntimeError):
    """The program under test is not in this checkout."""


def use_checkout_source() -> None:
    """Put this checkout's ``src`` first on the import path and make sure
    ``repro`` resolves there, never to an installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise CheckoutError(f"repro imported from {repro.__file__}, not {SRC}")


def child_env(**extra: str) -> dict[str, str]:
    """Environment for a child process that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(BENCH_DIR), env.get("PYTHONPATH")) if p
    )
    env.update(extra)
    return env


def pin(cpu: int) -> int | None:
    """Pin this process to one vCPU (modulo the CPUs it may use), so an
    operation and the host-state probes around it see one core.
    Returns the CPU, or ``None`` where affinity is unavailable."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
        chosen = cpus[cpu % len(cpus)]
        os.sched_setaffinity(0, {chosen})
        return chosen
    except (AttributeError, OSError):
        return None


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size in MiB of this process or of ``pid``."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]); 0.0 when empty."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit(correct: bool, attempted: int, failed: int, metrics: dict,
         problems: list[str] = ()) -> int:
    """Print the result line (always the last stdout line) and return
    the exit code: 0 only when every output check passed."""
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }, sort_keys=True))
    sys.stdout.flush()
    return 0 if correct else 1
