"""Run one benchmark workload and print its result as one JSON line.

Usage (from the root of a checkout)::

    python3 repobench/run.py --workload figures-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  The exit code is 0 only
when every output check passed; the last stdout line is always the
result object (see ``README.md``).
"""

from __future__ import annotations

import argparse
import sys

from common import CheckoutError, emit, use_checkout_source

WORKLOADS = ("figures-cold", "figures-warm", "serve-run", "simmpi-halo")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        use_checkout_source()
    except CheckoutError as exc:
        print(f"repobench: {exc}", file=sys.stderr)
        return 2
    if args.workload.startswith("figures"):
        import figures_wl as wl
    elif args.workload == "serve-run":
        import serve_wl as wl
    else:
        import simmpi_wl as wl
    correct, attempted, failed, metrics, problems = wl.run(
        args.workload, args.seed, args.seconds, bool(args.trace))
    return emit(correct, attempted, failed, metrics, problems)


if __name__ == "__main__":
    sys.exit(main())
