#!/usr/bin/env python3
"""Run the full verification sweep with per-family timing.

Equivalent to `fockweyl verify all` but prints a compact timing table; useful
when experimenting with larger bounds than the defaults.  The package's
caches are cleared before each family, so no family is timed on results
cached by an earlier one.

Under `--jobs N` every case runs in one pool of worker processes, started
before the first report: each time printed is then how long the loop waited
for that report, not the family's cost, and the cache clearing reaches only
this process, not the workers.
"""

import argparse
import sys
import time

from fockweyl.fock import _columns
from fockweyl.ring import cyclotomic
from fockweyl.verify import TOLERANCES, RunConfig, run_all
from fockweyl.verma import _kostant_cached
from fockweyl.weights import positive_roots
from fockweyl.weyl import mu_singular_vectors

CACHED = (cyclotomic, positive_roots, _kostant_cached, mu_singular_vectors,
          _columns)


def clear_caches():
    for fn in CACHED:
        fn.cache_clear()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--tolerance", choices=TOLERANCES, default="signed")
    args = ap.parse_args()

    config = RunConfig(jobs=args.jobs, tolerance=args.tolerance)
    t0 = time.time()
    failed = 0
    clear_caches()
    mark_t = t0
    # run_all is lazy: each family runs when the loop asks for its report
    for rep in run_all(config):
        now = time.time()
        mark = "ok " if rep.failed == 0 else "FAIL"
        ell = rep.config.get("ell", "-")
        print(f"{mark} {rep.family:<16} ell={ell:<3} "
              f"cases={rep.passed + rep.failed:<4} failed={rep.failed:<3} "
              f"[{now - mark_t:6.1f}s]", flush=True)
        failed += rep.failed
        clear_caches()
        mark_t = time.time()
    print(f"total elapsed {time.time() - t0:.1f}s, failed cases: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
