"""One benchmark pass in a fresh interpreter, so every fockweyl cache starts
cold, as it does for a fresh CLI invocation.

    python3 fwlbench/worker.py --workload W --seed N --spawned-at T
        [--setup-only] [--trace] [--spans STEM] [--expected PATH]
        [--write-expected]

T is the parent's time.monotonic() just before it started this process, so
setup_s covers interpreter start, `import fockweyl` and building the case
list (or the CLI's argument parser).  The pass prints one JSON line.
--write-expected runs the pass and stores its records as the expected ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fockweyl  # noqa: E402
from fockweyl import ring, verma, weights, weyl  # noqa: E402

import layertrace  # noqa: E402
import workloads  # noqa: E402

CACHES = {
    "ring.cyclotomic": ring.cyclotomic,
    "weights.positive_roots": weights.positive_roots,
    "verma._kostant_cached": verma._kostant_cached,
    "weyl.mu_singular_vectors": weyl.mu_singular_vectors,
}


def check_cold():
    warm = [name for name, fn in CACHES.items() if fn.cache_info().currsize]
    if warm:
        raise RuntimeError(f"caches not cold before timing: {warm}")


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--spawned-at", type=float, default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None)
    ap.add_argument("--expected", default=None)
    ap.add_argument("--write-expected", action="store_true")
    args = ap.parse_args(argv)

    run = workloads.prepare(args.workload, args.seed)
    out = {}
    if args.spawned_at is not None:
        out["setup_s"] = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps(out))
        return 0

    check_cold()
    tracer = layertrace.Tracer().install() if args.trace else None
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    records = run()
    out["wall_s"] = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        tracer.uninstall()
    out["cpu_s"] = _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0)
    out["peak_rss_mb"] = max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0
    mu = weyl.mu_singular_vectors.cache_info()
    out["mu_singular_vectors"] = {"hits": mu.hits, "misses": mu.misses}

    if args.write_expected:
        path = workloads.expected_path(args.workload)
        with open(path, "w") as fh:
            json.dump({"workload": args.workload,
                       "generator": f"fockweyl {fockweyl.__version__}",
                       "records": records}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    expected = workloads.load_expected(
        args.expected or workloads.expected_path(args.workload))
    attempted, failed = workloads.count_failed(records, expected)
    out.update(attempted=attempted, failed=failed)

    if tracer is not None:
        out["layers"] = tracer.layer_metrics(
            verma._kostant_cached.cache_info(), mu)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
