"""``repro serve``: the HTTP estimation service.

A long-running, stdlib-only JSON API over the sweep engine — the
production-posture layer in front of everything the reproduction can
compute.  ``python -m repro serve`` starts it; ``docs/SERVE.md`` is the
endpoint reference.  Every endpoint evaluates through the
process-default engine, where concurrent requests for the same points
meet: it evaluates each result address once.

Module map (each mechanism owns one file):

- :mod:`~repro.serve.server` — HTTP front end, routing, the
  :class:`~repro.serve.server.ServeState` stack, graceful shutdown;
- :mod:`~repro.serve.payloads` — canonical JSON payload builders shared
  with the ``--json`` CLI verbs (byte-equivalence by construction);
- :mod:`~repro.serve.backpressure` — bounded admission, HTTP 429;
- :mod:`~repro.serve.flight` — request identity and the flight
  recorder;
- :mod:`~repro.serve.metrics` — serve-layer metric families through
  the existing observability registry.

Nothing imports this package unless serving is requested: the CLI verb
and the ``repro metrics`` integration point look it up lazily,
preserving the repository's zero-overhead guarantee for serve-less runs
(all existing outputs stay bit-identical when the server has never
started).
"""

from __future__ import annotations

from .backpressure import AdmissionGate, Saturated
from .payloads import RequestError, render_json
from .server import ReproServer, ServeConfig, ServeState, create_server

__all__ = [
    "AdmissionGate",
    "Saturated",
    "RequestError",
    "render_json",
    "ReproServer",
    "ServeConfig",
    "ServeState",
    "create_server",
]
