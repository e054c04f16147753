"""Output checks.  Each returns a list of problems; an empty list means
the output is correct."""

from __future__ import annotations

import dataclasses


def _exact(value):
    """A bit-exact, comparable form of figure rows and estimates."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _exact(dataclasses.asdict(value))
    return value


def figure_digest(results, scores) -> list:
    """Everything one figures pass produced, floats as hex: each
    figure's rows and notes, and each scored entry's model value."""
    out = [[r.figure, _exact(r.rows), list(r.notes)] for r in results]
    out += [[s.figure, [[e.label, _exact(e.model)] for e in s.entries]]
            for s in scores]
    return out


def check_same_figures(reference: list, digest: list, what: str) -> list[str]:
    """A pass must reproduce the reference pass bit for bit."""
    if len(reference) != len(digest):
        return [f"{what}: {len(digest)} figures, expected {len(reference)}"]
    return [f"{what}: {ref[0]} differs from the reference pass"
            for ref, got in zip(reference, digest) if ref != got]


def check_oracle(samples) -> list[str]:
    """``samples``: ``(label, stored, scalar)`` estimates; the stored
    (vectorized) estimate must equal the scalar oracle bit for bit."""
    problems = []
    for label, stored, scalar in samples:
        if stored is None:
            problems.append(f"oracle: {label} missing from the store")
        elif _exact(stored) != _exact(scalar):
            problems.append(f"oracle: {label} differs from the scalar path")
    return problems


def check_warm_counts(evaluations: int, writes: int) -> list[str]:
    problems = []
    if evaluations:
        problems.append(f"warm pass evaluated {evaluations} points")
    if writes:
        problems.append(f"warm pass wrote {writes} bytes to the store")
    return problems


def check_response(status: int, body: bytes, expected: bytes,
                   label: str) -> list[str]:
    """A ``POST /run`` reply: 200 and byte-equal to the CLI's JSON."""
    if status != 200:
        return [f"{label}: HTTP {status}"]
    if body != expected:
        return [f"{label}: body differs from the CLI's --json output"]
    return []


def allreduce_closed_form(nranks: int, m: int) -> float:
    """What the halo program's ``allreduce`` returns on every rank for
    multiplier ``m``: each rank sums one ghost cell per side, i.e. its
    four neighbours' ``(rank + 1) * m``, so the world total counts every
    rank four times (integers well inside float64's exact range)."""
    return float(4 * m * (nranks * (nranks + 1) // 2))


def check_allreduce(nranks: int, mults, results) -> list[str]:
    """``results[rank]`` lists that rank's ``allreduce`` values, one per
    multiplier; each must equal its closed form exactly."""
    if len(results) != nranks:
        return [f"allreduce: {len(results)} ranks returned, expected {nranks}"]
    want = [allreduce_closed_form(nranks, m) for m in mults]
    for rank, got in enumerate(results):
        if list(got) != want or not all(isinstance(v, float) for v in got):
            return [f"allreduce: rank {rank} of {nranks} got {got!r}, "
                    f"expected {want!r}"]
    return []


def check_clock_parity(a, b) -> list[str]:
    """Two runs of one program must leave bit-identical virtual clocks:
    ``a``/``b`` are per-rank ``(now, mpi_time)`` pairs."""
    if len(a) != len(b):
        return [f"parity: {len(a)} vs {len(b)} ranks"]
    bad = [r for r, (x, y) in enumerate(zip(a, b))
           if _exact(list(x)) != _exact(list(y))]
    return [f"parity: virtual clocks differ on ranks {bad[:8]}"] if bad else []
