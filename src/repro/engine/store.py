"""Persistent content-addressed result store for the sweep engine.

Every model evaluation is a pure function of four inputs: the profiled
application spec, the platform description, the run configuration, and
the performance-model code plus its calibration constants.  The store
keys each :class:`~repro.perfmodel.roofline.AppEstimate` by a SHA-256
digest over exactly those four inputs, so

- results survive across processes (append-only JSON-lines file under a
  cache directory, last write wins on load);
- a change to any perf-model source file, any calibration constant
  (including temporary :func:`repro.perfmodel.calibration.override`
  blocks), the profiled kernel mix, or the platform spec produces a new
  key — stale entries are never returned, they are simply no longer
  addressed;
- two runs that would compute the same number share one entry.

Serialization round-trips floats through their shortest-repr JSON form,
which is exact: a cached estimate is bit-identical to a freshly computed
one.

The in-memory map is the only warm tier.  A record read from disk stays
raw JSON until its first ``get``, which decodes it once and keeps the
decoded :class:`~repro.perfmodel.roofline.AppEstimate` in its place; a
``put`` keeps the object it was given.  Estimates are frozen, so every
caller shares that one object.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
from enum import Enum
from pathlib import Path

from ..obs.metrics import active_metrics
from ..perfmodel import calibration as cal
from ..perfmodel.commmodel import CommEstimate
from ..perfmodel.roofline import AppEstimate, LoopTime

__all__ = [
    "STORE_SCHEMA_VERSION",
    "canonical",
    "fingerprint",
    "model_version",
    "result_key",
    "estimate_to_dict",
    "estimate_from_dict",
    "ResultStore",
]

#: Bumped whenever the on-disk record layout changes; part of the model
#: version, so a bump orphans (rather than misreads) old entries.
STORE_SCHEMA_VERSION = 1


#: Exact types :func:`canonical` returns as they are (subclasses such as
#: ``str``-valued enums still take the checks below).
_PRIMITIVES = frozenset({str, int, float, bool, type(None)})

#: One encoder for every digest: ``json.dumps`` with these options
#: builds a new encoder per call.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical(obj):
    """Reduce dataclasses / enums / containers to JSON-stable primitives."""
    if type(obj) in _PRIMITIVES:
        return obj
    if isinstance(obj, Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(canonical(k)): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for hashing")


def _digest(canon) -> str:
    """16-hex-digit SHA-256 digest of an already-canonical object."""
    return hashlib.sha256(_ENCODER.encode(canon).encode()).hexdigest()[:16]


def fingerprint(obj) -> str:
    """16-hex-digit SHA-256 digest of an object's canonical form."""
    return _digest(canonical(obj))


_SOURCE_HASH: str | None = None


def _source_hash() -> str:
    """Digest of the model code the estimates depend on (perfmodel, mem,
    simmpi packages); computed once per process."""
    global _SOURCE_HASH
    if _SOURCE_HASH is None:
        h = hashlib.sha256()
        root = Path(cal.__file__).resolve().parent.parent
        for pkg in ("perfmodel", "mem", "simmpi"):
            for path in sorted((root / pkg).glob("*.py")):
                h.update(path.name.encode())
                h.update(path.read_bytes())
        _SOURCE_HASH = h.hexdigest()[:16]
    return _SOURCE_HASH


#: (calibration snapshot, version) of the last :func:`model_version` call.
_VERSION_MEMO: tuple[tuple, str] | None = None


def model_version() -> str:
    """Version string of the perf model *as currently configured*.

    Combines the source digest with the live calibration constants, so a
    ``calibration.override(...)`` block addresses its own cache slice and
    editing a constant invalidates every prior result automatically.

    Every store lookup asks for the version, so it is memoized on
    :func:`~repro.perfmodel.calibration.snapshot` and re-digested only
    when the snapshot differs from the last one seen.  The snapshot is
    read on every call (a few microseconds), not a counter that
    ``override`` would bump: a plain ``setattr`` on the calibration
    module changes the snapshot too, and so never gets a stale version.
    """
    global _VERSION_MEMO
    snap = cal.snapshot()
    memo = _VERSION_MEMO
    if memo is not None and memo[0] == snap:
        return memo[1]
    version = fingerprint(
        {
            "schema": STORE_SCHEMA_VERSION,
            "source": _source_hash(),
            "calibration": cal.constants(),
        }
    )
    _VERSION_MEMO = (snap, version)
    return version


def result_key(
    app_fingerprint: str, platform, config, platform_fingerprint: str | None = None
) -> str:
    """Content address of one (app spec, platform, config, model) point.

    ``platform_fingerprint`` lets hot callers pass a memoized
    ``fingerprint(platform)`` (the platform spec is by far the largest
    structure hashed per lookup); the resulting key is identical.  The
    dict below is canonical already, so it is digested as it is.
    """
    return _digest(
        {
            "app": app_fingerprint,
            "platform": platform_fingerprint or fingerprint(platform),
            "config": canonical(config),
            "model": model_version(),
        }
    )


# ---------------------------------------------------------------------------
# AppEstimate (de)serialization


def estimate_to_dict(est: AppEstimate) -> dict:
    return dataclasses.asdict(est)


#: LoopTime's field names.
_LOOP_FIELDS = frozenset(f.name for f in dataclasses.fields(LoopTime))


def _loop_times(entries: list) -> tuple[LoopTime, ...]:
    """A record's ``per_loop`` entries as LoopTimes.  A warm pass decodes
    tens of thousands of them, so an entry with exactly the dataclass's
    fields fills a bare instance's ``__dict__`` in one update, several
    times faster than keyword init; any other entry goes through
    ``__init__``, which applies defaults and rejects missing or unknown
    fields."""
    out = []
    for d in entries:
        if d.keys() == _LOOP_FIELDS:
            loop = object.__new__(LoopTime)
            loop.__dict__.update(d)
        else:
            loop = LoopTime(**d)
        out.append(loop)
    return tuple(out)


def estimate_from_dict(d: dict) -> AppEstimate:
    d = dict(d)
    d["per_loop"] = _loop_times(d["per_loop"])
    d["comm"] = CommEstimate(**d["comm"])
    return AppEstimate(**d)


# ---------------------------------------------------------------------------


class ResultStore:
    """Content-addressed estimate store, optionally backed by a JSONL file.

    ``directory=None`` keeps the store purely in memory (used when
    caching is disabled or no cache dir is configured).  On disk the
    store is an append-only ``results.jsonl``: one record per line,
    later records for the same key win, unreadable lines are skipped —
    a crash mid-append can therefore never poison the store.

    Concurrent-writer safety: each record is appended as a *single*
    ``os.write`` on an ``O_APPEND`` descriptor, so several processes
    (e.g. parallel CLI invocations) sharing one file each land whole
    lines — the kernel serializes the seek+write, and records cannot
    interleave mid-line.  Threads of one process share the store's lock.
    A line torn by a crash (or a pre-atomic-append writer) is skipped on
    load and *reported*: :attr:`corrupt_lines` counts the records
    dropped by the last load and the ``store_corrupt_lines_total``
    metric carries the count into the observability registry.  A record
    that parses but does not decode into an estimate is dropped and
    counted the same way when it is first read, and reads as a miss, so
    the engine re-evaluates the point and ``put`` replaces the record.
    """

    FILENAME = "results.jsonl"

    def __init__(self, directory: str | os.PathLike | None = None):
        self._path = Path(directory) / self.FILENAME if directory else None
        #: key -> decoded estimate, or its raw record until the first get.
        self._mem: dict[str, AppEstimate | dict] | None = None
        self._lock = threading.Lock()
        #: Records skipped by the last load, or dropped since because they
        #: did not decode (0 until loaded).
        self.corrupt_lines = 0

    @property
    def path(self) -> Path | None:
        return self._path

    @property
    def persistent(self) -> bool:
        return self._path is not None

    def _loaded(self) -> dict[str, AppEstimate | dict]:
        if self._mem is None:
            self._mem = {}
            if self._path is not None and self._path.exists():
                text = self._path.read_text()
                m = active_metrics()
                if m is not None:
                    m.inc("store_bytes_read_total", len(text.encode()))
                corrupt = 0
                for line in text.splitlines():
                    if not line.strip():
                        continue
                    try:
                        rec = json.loads(line)
                        est = rec["estimate"]
                        if isinstance(est, dict):
                            self._mem[rec["key"]] = est
                            continue
                    except (json.JSONDecodeError, KeyError, TypeError):
                        pass
                    corrupt += 1  # torn or foreign line: skip, don't fail
                self._count_corrupt(corrupt)
        return self._mem

    def _count_corrupt(self, n: int) -> None:
        self.corrupt_lines += n
        m = active_metrics()
        if n and m is not None:
            m.inc("store_corrupt_lines_total", n)

    def _decode(self, key: str, raw: dict) -> AppEstimate | None:
        """Decode a loaded record in place (lock held).  A record that
        parses but is not an estimate is dropped and counted as corrupt."""
        try:
            est = self._mem[key] = estimate_from_dict(raw)
        except (AttributeError, KeyError, TypeError, ValueError):
            del self._mem[key]
            self._count_corrupt(1)
            return None
        return est

    def get(self, key: str) -> AppEstimate | None:
        with self._lock:
            est = self._loaded().get(key)
            if est is not None and not isinstance(est, AppEstimate):
                est = self._decode(key, est)
        m = active_metrics()
        if m is not None:
            m.inc("store_reads_total",
                  result="hit" if est is not None else "miss")
        return est

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._loaded()

    def __len__(self) -> int:
        with self._lock:
            return len(self._loaded())

    def put(self, key: str, estimate: AppEstimate) -> None:
        rec = estimate_to_dict(estimate)
        line = json.dumps({"key": key, "estimate": rec}, separators=(",", ":"))
        m = active_metrics()
        if m is not None:
            m.inc("store_writes_total")
            m.inc("store_bytes_written_total", len(line.encode()) + 1)
        with self._lock:
            self._loaded()[key] = estimate
            if self._path is not None:
                self._path.parent.mkdir(parents=True, exist_ok=True)
                # One O_APPEND write per record: atomic w.r.t. other
                # processes appending to the same file (the in-process
                # lock already serializes this store's own writers).
                data = (line + "\n").encode()
                fd = os.open(
                    self._path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
                )
                try:
                    os.write(fd, data)
                finally:
                    os.close(fd)

    def estimates(
        self, app: str | None = None, platform: str | None = None
    ) -> list[AppEstimate]:
        """Stored estimates, optionally filtered by app name and/or
        platform short name.

        The store is content-addressed — keys are opaque — but every
        record carries the estimate's own ``app``/``platform``/
        ``config_label`` fields, so stored history remains queryable.
        This is what lets ``repro.obs.diff`` compare a current run
        against a previously persisted result (e.g. from before a
        calibration change; superseded model versions keep their
        entries until the next :meth:`clear`).  Deterministic order:
        sorted by (app, platform, config label).
        """
        out = []
        with self._lock:
            live = self._loaded()
            for key, est in list(live.items()):
                raw = not isinstance(est, AppEstimate)
                who = ((est.get("app"), est.get("platform")) if raw
                       else (est.app, est.platform))
                if app not in (None, who[0]) or platform not in (None, who[1]):
                    continue
                if raw:
                    est = self._decode(key, est)
                    if est is None:
                        continue
                out.append(est)
        out.sort(key=lambda e: (e.app, e.platform, e.config_label))
        return out

    def clear(self) -> None:
        """Drop every entry, in memory and on disk."""
        with self._lock:
            self._mem = {}
            self.corrupt_lines = 0
            if self._path is not None:
                try:
                    self._path.unlink()
                except FileNotFoundError:
                    pass

    def compact(self) -> int:
        """Rewrite the backing file with one line per live key (an
        append-only log accumulates superseded lines); returns the number
        of records kept."""
        with self._lock:
            live = self._loaded()
            if self._path is not None:
                self._path.parent.mkdir(parents=True, exist_ok=True)
                tmp = self._path.with_suffix(".tmp")
                with tmp.open("w") as f:
                    for key, est in live.items():
                        rec = (estimate_to_dict(est)
                               if isinstance(est, AppEstimate) else est)
                        f.write(
                            json.dumps({"key": key, "estimate": rec},
                                       separators=(",", ":")) + "\n"
                        )
                tmp.replace(self._path)
            return len(live)
