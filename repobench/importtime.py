"""Child process: time importing the modules one workload needs, with a
host-state sampler running, and print ``{"seconds", "factor"}``.

Usage: ``python3 importtime.py CPU MODULE [MODULE ...]``
"""

import json
import sys
import time

from common import pin, use_checkout_source
from hoststate import StateSampler


def main(argv: list[str]) -> int:
    pin(int(argv[0]))
    with StateSampler() as sampler:
        t0 = time.perf_counter()
        use_checkout_source()
        for name in argv[1:]:
            __import__(name)
        t1 = time.perf_counter()
    print(json.dumps({"seconds": t1 - t0, "factor": sampler.factor(t0, t1)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
