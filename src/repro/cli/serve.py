"""The serve verb: stand up the long-running HTTP estimation service."""

from __future__ import annotations

import sys

__all__ = ["cmd_serve"]


def cmd_serve(args) -> int:
    # Imported here, not at module top: the CLI package loads for every
    # verb, and serve-less runs must never pay for (or observe) the
    # serve subsystem.
    from ..serve.server import ServeConfig, ReproServer

    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        max_queue=args.max_queue,
        batch_window=args.batch_window,
        use_cache=not args.no_cache,
        vectorize=not args.no_vec,
        verbose=args.verbose,
        flight_records=args.flight_records,
        flight_log=args.flight_log,
        access_log=args.access_log,
        sample_interval=args.sample_interval,
        telemetry_ring=args.telemetry_ring,
        telemetry_log=args.telemetry_log,
    )
    try:
        server = ReproServer(config)
    except OSError as exc:
        print(f"cannot bind {config.host}:{config.port}: {exc}", file=sys.stderr)
        return 1
    print(f"repro serve: listening on {server.url} "
          f"(inflight {config.max_inflight}+{config.max_queue} queued)",
          file=sys.stderr)
    print("endpoints: GET /healthz /metrics /telemetry /dashboard "
          "/fidelity /debug/requests — "
          "POST /run /sweep /explain (see docs/SERVE.md)", file=sys.stderr)

    # SIGTERM takes the same graceful path as Ctrl-C.  This matters for
    # supervised/background deployments: a shell backgrounding the
    # server with `&` leaves SIGINT ignored (POSIX), so `kill -TERM` is
    # the reliable way to stop it cleanly.
    def _graceful(signum, frame):
        raise KeyboardInterrupt

    import signal

    try:
        signal.signal(signal.SIGTERM, _graceful)
    except ValueError:  # not the main thread (embedded use): skip
        pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nrepro serve: shutting down", file=sys.stderr)
    finally:
        server.server_close()
        server.state.close()
    return 0
