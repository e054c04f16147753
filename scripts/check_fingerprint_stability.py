#!/usr/bin/env python
"""Fingerprint stability: the IR refactor does not invalidate the store.

The sweep engine's result store is content-addressed by
``result_key(app_fingerprint, platform, config)`` — so a refactor that
perturbed ``AppSpec.fingerprint()`` would silently orphan every cached
result.  ``baselines/golden_equivalence.json`` records each
application's fingerprint as captured on the *pre-refactor* engines;
this check proves, in three steps, that those addresses still work:

1. every application's live ``AppSpec.fingerprint()`` (profiled by an
   engine over an empty store) equals its recorded pre-refactor value;
2. a second engine over that store serves every spec back without
   profiling anything, each with its recorded fingerprint;
3. a store entry *seeded under the recorded fingerprint string* (not a
   recomputed one) is found — as a cache hit, with the seeded payload —
   by a fresh engine resolving the same (app, platform, config) point.

Exit 1 on any drift.  Run from the repository root (the CI tier-1 job
does):

    PYTHONPATH=src python scripts/check_fingerprint_stability.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

BASELINE = ROOT / "baselines" / "golden_equivalence.json"
SMOKE_APP = "miniweather"


def main() -> int:
    from repro.engine import SweepEngine, result_key
    from repro.machine import XEON_MAX_9480, best_practice_config

    recorded = {
        app: entry["fingerprint"]
        for app, entry in json.loads(BASELINE.read_text())["apps"].items()
    }

    failures = 0
    with tempfile.TemporaryDirectory(prefix="fp-specs-") as spec_cache:
        # An engine over an empty store profiles every app live.
        profiler = SweepEngine(cache_dir=spec_cache)
        for app in sorted(recorded):
            live = profiler.app_spec(app).fingerprint()
            if live == recorded[app]:
                print(f"  ok   {app}: {live[:16]}…")
            else:
                failures += 1
                print(f"  FAIL {app}: fingerprint drifted\n"
                      f"       recorded {recorded[app]}\n"
                      f"       live     {live}")

        reader = SweepEngine(cache_dir=spec_cache)
        drifted = sorted(app for app in recorded
                         if reader.app_spec(app).fingerprint() != recorded[app])
        builds = reader.metrics.spec_builds
        if builds == 0 and not drifted:
            print(f"  ok   stored specs: all {len(recorded)} served from the "
                  "store with their recorded fingerprints, 0 profiled")
        else:
            failures += 1
            print(f"  FAIL stored specs: {builds} profiled by the second "
                  f"engine (want 0); fingerprint drifted for {drifted}")

    platform = XEON_MAX_9480
    config = best_practice_config(platform)
    with tempfile.TemporaryDirectory(prefix="fp-stability-") as cache:
        seeder = SweepEngine(cache_dir=cache)
        est = seeder.run(SMOKE_APP, platform, config)
        # Re-address the estimate under the *recorded* fingerprint — the
        # store key a pre-refactor engine would have written.
        seeder.store.put(result_key(recorded[SMOKE_APP], platform, config), est)

        reader = SweepEngine(cache_dir=cache)
        again = reader.run(SMOKE_APP, platform, config)
        if reader.metrics.cache_hits == 1 and again.total_time == est.total_time:
            print(f"  ok   store round-trip: {SMOKE_APP} entry keyed "
                  "pre-refactor is hit by the refactored engine")
        else:
            failures += 1
            print(f"  FAIL store round-trip: expected a cache hit on the "
                  f"pre-refactor-keyed entry, got hits="
                  f"{reader.metrics.cache_hits} "
                  f"misses={reader.metrics.cache_misses}")

    if failures:
        print(f"\n{failures} fingerprint-stability problem(s)")
        return 1
    print(f"\nall {len(recorded)} fingerprints stable; store addresses intact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
