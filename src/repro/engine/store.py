"""Persistent content-addressed result store for the sweep engine.

Every model evaluation is a pure function of four inputs: the profiled
application spec, the platform description, the run configuration, and
the performance-model code plus its calibration constants.  The store
keys each :class:`~repro.perfmodel.roofline.AppEstimate` by a SHA-256
digest over exactly those four inputs, so

- results survive across processes (append-only JSON-lines file under a
  cache directory, last write wins on load);
- a change to any source file of the packages the model imports
  (:data:`MODEL_PACKAGES`), any calibration constant (including
  temporary :func:`repro.perfmodel.calibration.override` blocks), the
  profiled kernel mix, or the platform spec produces a new key — stale
  entries are never returned, they are simply no longer addressed;
- two runs that would compute the same number share one entry.

Serialization is exact, so a cached estimate is bit-identical to a
freshly computed one: header floats round-trip through their
shortest-repr JSON form, and loop-table floats are stored as their
IEEE-754 binary64 bytes.

An estimate record is two lines, appended in one write: a header with
every field but ``per_loop`` and the frame (byte length and CRC-32) of
the loop line that follows it, then that loop line, with the key and
the loop table by column::

    {"key":K,"estimate":{…},"loop_line":{"bytes":N,"crc32":C}}
    {"key":K,"name":[…],"mem_level":[…],"f64":"<base64>"}

The header is ``json.dumps`` of the ``dataclasses.asdict`` form less
``per_loop``.  The loop line holds each ``LoopTime``'s two string fields
as JSON lists and its seven float fields (``time`` … ``flops``) packed
row by row as little-endian binary64, standard padded base64 under
``f64``.  Loop tables are most of the file, and few callers read them:
a load parses headers only and checks each loop line against its frame
without parsing it.

The in-memory map is the only warm tier.  A record read from disk stays
raw until its first ``get``, which decodes its header once into an
:class:`~repro.perfmodel.roofline.AppEstimate` whose ``per_loop`` is
decoded from the loop line on its first read (``AppEstimate.deferred``);
a ``put`` keeps the object it was given.  Estimates are frozen, so every
caller shares that one object.

The same file also holds the profiled
:class:`~repro.perfmodel.kernelmodel.AppSpec` of each application, one
``{"key": …, "spec": {…}}`` record per app, keyed by :func:`spec_key`:
a digest of the app name and of the sources profiling runs, so a
process over a warm store runs no application code.
"""

from __future__ import annotations

import base64
import dataclasses
import functools
import hashlib
import itertools
import json
import operator
import os
import struct
import threading
import zlib
from enum import Enum
from pathlib import Path

import numpy as np

from ..machine.config import Compiler
from ..obs.metrics import active_metrics
from ..obs.stages import stage
from ..perfmodel import calibration as cal
from ..perfmodel.commmodel import CommEstimate
from ..perfmodel.kernelmodel import AppClass, AppSpec, LoopSpec
from ..perfmodel.roofline import AppEstimate, LoopTime

__all__ = [
    "STORE_SCHEMA_VERSION",
    "canonical",
    "fingerprint",
    "model_version",
    "result_key",
    "spec_key",
    "estimate_to_dict",
    "estimate_from_dict",
    "spec_to_dict",
    "spec_from_dict",
    "ResultStore",
]

#: Bumped whenever the on-disk record layout changes; part of the model
#: version, so a bump orphans (rather than misreads) old entries.
STORE_SCHEMA_VERSION = 3


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


#: Packages whose sources an estimate depends on: everything
#: ``repro.perfmodel.roofline`` and ``repro.vec.evaluate`` import.
MODEL_PACKAGES = ("ir", "machine", "mem", "obs", "perfmodel", "simmpi", "vec")
#: Packages whose sources a profiled spec depends on: everything
#: ``repro.apps.base.build_spec`` imports while it runs the nine apps.
SPEC_PACKAGES = ("apps", "ir", "machine", "mem", "obs", "op2", "ops",
                 "perfmodel", "simmpi")

_SOURCE_HASHES: dict[tuple[str, ...], str] = {}


def _source_hash(packages: tuple[str, ...]) -> str:
    """Digest of every module of the given ``repro`` packages; computed
    once per process for each package tuple."""
    digest = _SOURCE_HASHES.get(packages)
    if digest is None:
        h = hashlib.sha256()
        root = Path(cal.__file__).resolve().parent.parent
        for pkg in packages:
            for path in sorted((root / pkg).glob("*.py")):
                h.update(f"{pkg}/{path.name}".encode())
                h.update(path.read_bytes())
        digest = _SOURCE_HASHES[packages] = h.hexdigest()[:16]
    return digest


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
            "source": _source_hash(MODEL_PACKAGES),
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


def spec_key(app: str) -> str:
    """Address of one application's profiled spec.

    Profiling is a pure function of the application's code, the DSLs
    and runtime it runs on, and numpy; it reads no calibration constant
    (only tiled mode does, which profiling never enables), so the key
    covers none.
    """
    return _digest(
        {
            "spec": app,
            "schema": STORE_SCHEMA_VERSION,
            "numpy": np.__version__,
            "source": _source_hash(SPEC_PACKAGES),
        }
    )


# ---------------------------------------------------------------------------
# AppEstimate / AppSpec (de)serialization


#: Field names of each level of an estimate record, in declaration order
#: (the key order ``dataclasses.asdict`` gives).
_ESTIMATE_NAMES = tuple(f.name for f in dataclasses.fields(AppEstimate))
_HEADER_NAMES = tuple(n for n in _ESTIMATE_NAMES if n != "per_loop")
_LOOP_NAMES = tuple(f.name for f in dataclasses.fields(LoopTime))
_COMM_NAMES = tuple(f.name for f in dataclasses.fields(CommEstimate))

#: A LoopTime's fields are its name, seven floats and its mem_level; a
#: loop line packs the floats of each row, in this order.
_LOOP_FLOATS = _LOOP_NAMES[1:-1]
_row_floats = operator.attrgetter(*_LOOP_FLOATS)


def estimate_to_dict(est: AppEstimate) -> dict:
    """The ``dataclasses.asdict`` form of an estimate (a ``/run``
    payload's ``estimate``): one shallow dict per dataclass, keys in
    field order.  Every leaf is a float or a str, so it equals
    ``asdict(est)`` at about an eighth of the cost (``asdict``
    deep-copies every leaf)."""
    d = {name: getattr(est, name) for name in _ESTIMATE_NAMES}
    d["per_loop"] = [{name: getattr(lt, name) for name in _LOOP_NAMES}
                     for lt in est.per_loop]
    d["comm"] = {name: getattr(est.comm, name) for name in _COMM_NAMES}
    return d


def _loop_columns(loops: tuple[LoopTime, ...]) -> dict:
    """The columns of a loop line.  The floats are packed as their
    bytes, which only a ``float`` reads back as itself, so any other
    type (an ``int``, a numpy scalar) is a ``TypeError``."""
    floats = list(itertools.chain.from_iterable(map(_row_floats, loops)))
    if not {float}.issuperset(map(type, floats)):
        i = next(i for i, v in enumerate(floats) if type(v) is not float)
        loop, field = divmod(i, len(_LOOP_FLOATS))
        raise TypeError(
            f"loop {loops[loop].name!r}: {_LOOP_FLOATS[field]} is "
            f"{type(floats[i]).__name__}, not float")
    packed = struct.pack(f"<{len(floats)}d", *floats)
    return {"name": [lt.name for lt in loops],
            "mem_level": [lt.mem_level for lt in loops],
            "f64": base64.b64encode(packed).decode("ascii")}


def _decode_loop_line(data: bytes) -> tuple[LoopTime, ...]:
    """The ``per_loop`` of a stored loop line, each row filled into a
    bare ``LoopTime``'s ``__dict__`` in field order.  The line's frame
    was checked at load, so a line that fails here was written by
    something other than :meth:`ResultStore.put`; that is a
    ``ValueError``, never an ``AttributeError`` that would read as a
    missing field."""
    try:
        rec = json.loads(data)
        names, levels = rec["name"], rec["mem_level"]
        packed = base64.b64decode(rec["f64"], validate=True)
        n, width = len(names), len(_LOOP_FLOATS)
        if len(levels) != n or len(packed) != 8 * width * n:
            raise ValueError(
                f"columns of unequal length: {n} names, {len(levels)} "
                f"mem_levels, {len(packed)} bytes of floats")
        floats = iter(struct.unpack(f"<{width * n}d", packed))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"stored loop table does not decode: {exc!r}") from exc
    out = []
    for row in zip(names, *[floats] * width, levels):
        loop = object.__new__(LoopTime)
        loop.__dict__.update(zip(_LOOP_NAMES, row))
        out.append(loop)
    return tuple(out)


def estimate_from_dict(d: dict, loop_line: bytes | None = None) -> AppEstimate:
    """The estimate of a record body.  Without ``loop_line`` the body is
    the :func:`estimate_to_dict` form; with it the body is a header, and
    the estimate decodes ``per_loop`` from that line on the field's
    first read."""
    d = dict(d)
    d["comm"] = CommEstimate(**d["comm"])
    if loop_line is not None:
        return AppEstimate.deferred(
            d, functools.partial(_decode_loop_line, loop_line))
    d["per_loop"] = tuple(LoopTime(**lt) for lt in d["per_loop"])
    return AppEstimate(**d)


def spec_to_dict(spec: AppSpec) -> dict:
    return canonical(spec)


def spec_from_dict(d: dict) -> AppSpec:
    """The spec a build returns: enum members, tuples and ``Compiler``
    keys back in place of their JSON forms (ints and floats round-trip
    as themselves)."""
    d = dict(d)
    d["klass"] = AppClass(d["klass"])
    d["loops"] = tuple(LoopSpec(**loop) for loop in d["loops"])
    d["domain"] = tuple(d["domain"])
    d["compiler_affinity"] = {
        Compiler(c): v for c, v in d["compiler_affinity"].items()
    }
    return AppSpec(**d)


# ---------------------------------------------------------------------------
# Record lines


def _encode_line(rec: dict) -> bytes:
    """One record line: compact JSON and a newline."""
    return (json.dumps(rec, separators=(",", ":")) + "\n").encode()


def _estimate_lines(key: str, header: dict, loop_line: bytes) -> bytes:
    """An estimate record: the header line, which frames ``loop_line``,
    then the loop line."""
    frame = {"bytes": len(loop_line), "crc32": zlib.crc32(loop_line)}
    return (_encode_line({"key": key, "estimate": header, "loop_line": frame})
            + loop_line)


def _estimate_record(key: str, est: AppEstimate) -> bytes:
    """Both lines of an estimate record, read off its fields."""
    header = {name: getattr(est, name) for name in _HEADER_NAMES}
    header["comm"] = {name: getattr(est.comm, name) for name in _COMM_NAMES}
    loop_line = _encode_line({"key": key, **_loop_columns(est.per_loop)})
    return _estimate_lines(key, header, loop_line)


class _Stored:
    """An estimate record as loaded: its header, its loop line, and the
    estimate decoded from them on the first read."""

    __slots__ = ("header", "loop_line", "estimate")

    def __init__(self, header: dict, loop_line: bytes):
        self.header = header
        self.loop_line = loop_line
        self.estimate: AppEstimate | None = None


def _estimate_of(rec: _Stored) -> AppEstimate:
    return estimate_from_dict(rec.header, rec.loop_line)


# ---------------------------------------------------------------------------


class ResultStore:
    """Content-addressed estimate store, optionally backed by a JSONL file.

    ``directory=None`` keeps the store purely in memory (used when
    caching is disabled or no cache dir is configured).  On disk the
    store is an append-only ``results.jsonl``: one record per estimate
    (a header line and its loop line; see the module docstring) or per
    spec, later records for the same key win, unreadable lines are
    skipped — a crash mid-append can therefore never poison the store.

    The file also holds spec records, read and written through
    :meth:`get_spec` and :meth:`put_spec`.  They live in a map of their
    own, so ``len`` and ``in`` see estimates only; :meth:`clear` drops
    them and :meth:`compact` keeps them.  Every estimate :meth:`get` and
    :meth:`put` is an ``engine``/``store_io`` stage
    (:mod:`repro.obs.stages`).

    Concurrent-writer safety: each record is appended as a *single*
    ``os.write`` on an ``O_APPEND`` descriptor, so several processes
    (e.g. parallel CLI invocations) sharing one file each land whole
    records — the kernel serializes the seek+write, and records cannot
    interleave mid-line.  Threads of one process share the store's lock.
    A line torn by a crash (or a pre-atomic-append writer) is skipped on
    load and *reported*: :attr:`corrupt_lines` counts the lines the last
    load skipped and the ``store_corrupt_lines_total`` metric carries
    the count into the observability registry.  The next append after a
    torn last line starts on a line of its own, so it is not lost with
    the torn record.  A header is kept only when the line after it has
    the length and CRC-32 of its frame; one that fails is skipped, and
    the line after it is read as a record of its own (a loop line on its
    own is skipped too).  A record that parses but does not decode into
    an estimate (or a spec) is dropped and counted the same way when it
    is first read, and reads as a miss, so the engine re-evaluates the
    point (or re-profiles the app) and the next put replaces the record.
    """

    FILENAME = "results.jsonl"

    def __init__(self, directory: str | os.PathLike | None = None):
        self._path = Path(directory) / self.FILENAME if directory else None
        #: key -> an estimate put in this process, or a loaded record.
        self._mem: dict[str, AppEstimate | _Stored] | None = None
        #: key -> decoded spec, or its raw record until the first get;
        #: filled by the same load as ``_mem``, and only ever edited in
        #: place.
        self._specs: dict[str, AppSpec | dict] = {}
        self._lock = threading.Lock()
        #: Lines skipped by the last load, and records dropped since
        #: because they did not decode (0 until loaded).
        self.corrupt_lines = 0

    @property
    def path(self) -> Path | None:
        return self._path

    @property
    def persistent(self) -> bool:
        return self._path is not None

    def _loaded(self) -> dict[str, AppEstimate | _Stored]:
        if self._mem is None:
            self._mem = {}
            if self._path is not None and self._path.exists():
                data = self._path.read_bytes()
                m = active_metrics()
                if m is not None:
                    m.inc("store_bytes_read_total", len(data))
                self._count_corrupt(self._parse(data))
        return self._mem

    def _parse(self, data: bytes) -> int:
        """Fill both maps from the file's bytes; returns the number of
        lines skipped.  Loop lines are framed and checked, not parsed."""
        corrupt = 0
        pos, end = 0, len(data)
        while pos < end:
            nl = data.find(b"\n", pos)
            stop = end if nl < 0 else nl + 1
            line, pos = data[pos:stop], stop
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                if "spec" in rec:
                    if isinstance(rec["spec"], dict):
                        self._specs[rec["key"]] = rec["spec"]
                        continue
                else:
                    header, frame = rec["estimate"], rec["loop_line"]
                    loop_line = data[pos:pos + frame["bytes"]]
                    if (isinstance(header, dict)
                            and len(loop_line) == frame["bytes"]
                            and zlib.crc32(loop_line) == frame["crc32"]):
                        self._mem[rec["key"]] = _Stored(header, loop_line)
                        pos += len(loop_line)
                        continue
            except (ValueError, KeyError, TypeError):
                pass
            corrupt += 1  # torn or foreign line: skip, don't fail
        return corrupt

    def _count_corrupt(self, n: int) -> None:
        self.corrupt_lines += n
        m = active_metrics()
        if n and m is not None:
            m.inc("store_corrupt_lines_total", n)

    def _decoded(self, table: dict, key: str, decode):
        """``decode(table[key])`` (lock held).  A record that parses but
        does not decode is dropped, counted as corrupt, and reads as
        ``None``."""
        try:
            return decode(table[key])
        except (AttributeError, KeyError, TypeError, ValueError):
            del table[key]
            self._count_corrupt(1)
            return None

    def _estimate(self, key: str, entry) -> AppEstimate | None:
        """The estimate of a ``_mem`` entry (lock held); a loaded record's
        header is decoded on its first read."""
        if type(entry) is not _Stored:
            return entry
        if entry.estimate is None:
            entry.estimate = self._decoded(self._mem, key, _estimate_of)
        return entry.estimate

    def get(self, key: str) -> AppEstimate | None:
        with stage("engine", "store_io"), self._lock:
            est = self._estimate(key, self._loaded().get(key))
        m = active_metrics()
        if m is not None:
            m.inc("store_reads_total",
                  result="hit" if est is not None else "miss")
        return est

    def get_spec(self, key: str) -> AppSpec | None:
        """The spec stored under ``key`` (see :func:`spec_key`), decoded
        on its first read, or ``None``."""
        with self._lock:
            self._loaded()
            spec = self._specs.get(key)
            if spec is not None and not isinstance(spec, AppSpec):
                spec = self._decoded(self._specs, key, spec_from_dict)
                if spec is not None:
                    self._specs[key] = spec
        return spec

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._loaded()

    def __len__(self) -> int:
        with self._lock:
            return len(self._loaded())

    def put(self, key: str, estimate: AppEstimate) -> None:
        with stage("engine", "store_io"):
            data = self._written(_estimate_record(key, estimate))
            m = active_metrics()
            if m is not None:
                m.inc("store_writes_total")
            with self._lock:
                self._loaded()[key] = estimate
                self._append(data)

    def put_spec(self, key: str, spec: AppSpec) -> None:
        data = self._written(_encode_line({"key": key,
                                           "spec": spec_to_dict(spec)}))
        with self._lock:
            self._loaded()
            self._specs[key] = spec
            self._append(data)

    @staticmethod
    def _written(data: bytes) -> bytes:
        """``data``, counted as bytes written."""
        m = active_metrics()
        if m is not None:
            m.inc("store_bytes_written_total", len(data))
        return data

    def _append(self, data: bytes) -> None:
        """Append one record to the file (lock held), on a line of its
        own: after a last line torn by a crash it starts with a newline,
        so the torn record is lost alone."""
        if self._path is not None:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            # One O_APPEND write per record: atomic w.r.t. other
            # processes appending to the same file (the in-process
            # lock already serializes this store's own writers).  If
            # another process appends between the check and the write,
            # the newline only adds a blank line, which a load skips.
            fd = os.open(
                self._path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644
            )
            try:
                size = os.fstat(fd).st_size
                if size and os.pread(fd, 1, size - 1) != b"\n":
                    data = b"\n" + data
                os.write(fd, data)
            finally:
                os.close(fd)

    def clear(self) -> None:
        """Drop every entry, estimates and specs, in memory and on disk."""
        with self._lock:
            self._mem = {}
            self._specs.clear()
            self.corrupt_lines = 0
            if self._path is not None:
                try:
                    self._path.unlink()
                except FileNotFoundError:
                    pass

    def compact(self) -> int:
        """Rewrite the backing file with one record per live key,
        estimates then specs (an append-only log accumulates superseded
        records); returns the number of records kept.  A loaded record
        is written back as it was read, its loop line copied undecoded."""
        with self._lock:
            live = self._loaded()
            if self._path is not None:
                self._path.parent.mkdir(parents=True, exist_ok=True)
                tmp = self._path.with_suffix(".tmp")
                with tmp.open("wb") as f:
                    for key, entry in live.items():
                        f.write(
                            _estimate_lines(key, entry.header, entry.loop_line)
                            if type(entry) is _Stored
                            else _estimate_record(key, entry))
                    for key, spec in self._specs.items():
                        if isinstance(spec, AppSpec):
                            spec = spec_to_dict(spec)
                        f.write(_encode_line({"key": key, "spec": spec}))
                tmp.replace(self._path)
            return len(live) + len(self._specs)
