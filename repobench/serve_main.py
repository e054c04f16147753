"""Server-side launcher for ``serve-run``: pin the process, start the
host-state sampler, optionally wrap the layers, then run the ``repro``
CLI's ``serve`` verb unchanged.

Usage::

    python3 serve_main.py CPU PROBES_OUT SPANS_OUT|- -- serve --port 0 ...

With a spans file, ``SIGUSR1`` installs the span wrappers and
``SIGUSR2`` removes them, so one server alternates traced and untraced
phases.  Probes (and spans) are written once, when ``serve`` returns
after ``SIGTERM``.
"""

import json
import signal
import sys

from common import pin, use_checkout_source
from hoststate import StateSampler


def main(argv: list[str]) -> int:
    cpu, probes_out, spans_out = argv[0], argv[1], argv[2]
    cli_args = argv[argv.index("--") + 1:]
    pin(int(cpu))
    use_checkout_source()
    from repro.cli import main as repro_main

    tracer = None
    if spans_out != "-":
        import layers
        from repro.serve import flight
        from spans import Tracer

        def request_id():
            inf = flight.current()
            return inf.id if inf is not None else None

        tracer = Tracer(request_id=request_id)

        def trace_on(signum, frame):
            if not tracer.installed:
                layers.install_engine(tracer)
                layers.install_serve(tracer)

        def trace_off(signum, frame):
            tracer.uninstall()

        signal.signal(signal.SIGUSR1, trace_on)
        signal.signal(signal.SIGUSR2, trace_off)

    sampler = StateSampler().start()
    try:
        code = repro_main(cli_args)
    finally:
        sampler.stop()
        with open(probes_out, "w", encoding="utf-8") as fh:
            json.dump(sampler.dump(), fh)
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
