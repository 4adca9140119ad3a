"""fockweyl benchmark: end-to-end metrics, or per-layer metrics from a traced
run, for one workload.

    python3 fwlbench/run.py --workload {sweep,verma,oracle} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it uses the checkout's `src/`.  Each
pass runs in a fresh interpreter (fwlbench/worker.py), one process, no pool,
with every fockweyl cache cold.  Set-up is sampled SETUP_SAMPLES times in
processes that stop after building the workload.

--trace 0: passes repeat until S seconds have been measured.  The last stdout
line reports wall_s and cpu_s as means over the passes, and setup_s and
peak_rss_mb as medians.  Pass times on a shared host are bimodal (fast and
slow periods), and a median over a few passes jumps between the two modes.
--trace 1: untraced and traced passes alternate until S seconds have been
measured; the last line reports the per-layer metrics (low medians over the
traced passes) and the tracing overhead, traced minus untraced wall time.
The spans of the first traced pass go to fwlbench/out/.

The line before the last one records the environment (Python version,
nproc, 1-minute load average at start), every pass and every set-up sample.
Exit status is 0 when a result was printed, 1 when a pass crashed or ran out
of time, and 2 when the checkout holds no fockweyl sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0  # a run must end within 180 s
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("ok_frac", "ratio"))
# Same hash seed in every pass, so the traced counts repeat exactly.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")


class PassError(RuntimeError):
    pass


def spawn(flags, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassError("run time limit reached")
    cmd = [sys.executable, str(HERE / "worker.py"), *flags]
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=WORKER_ENV, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"worker timed out: {' '.join(flags)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"worker exited {proc.returncode}: {' '.join(flags)}")
    return json.loads(lines[-1])


def measure(args, deadline: float) -> tuple[dict, dict]:
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    spawn(base + ["--setup-only"], deadline)  # discarded: compiles bytecode
    setups = [spawn(base + ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    passes, traced = [], []
    start = time.monotonic()
    while not passes or time.monotonic() - start < args.seconds:
        passes.append(spawn(base, deadline))
        if args.trace:
            flags = base + ["--trace"]
            if not traced:
                flags += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}")]
            traced.append(spawn(flags, deadline))
        pass_s = passes[-1]["wall_s"] + (traced[-1]["wall_s"] if traced else 0)
        if time.monotonic() + pass_s > deadline:
            break

    def mean(key):
        return statistics.fmean(p[key] for p in passes)

    attempted = sum(p["attempted"] for p in passes + traced)
    failed = sum(p["failed"] for p in passes + traced)
    if args.trace:
        # median_low keeps counts, which repeat exactly, as integers
        metrics = {name: {"value": statistics.median_low(t["layers"][name]
                                                         for t in traced),
                          "unit": unit}
                   for name, unit in layertrace.per_layer_names()
                   if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(t["wall_s"] - p["wall_s"]
                                       for p, t in zip(passes, traced)),
            "unit": "s"}
    else:
        values = {"wall_s": mean("wall_s"), "setup_s": statistics.median(setups),
                  "cpu_s": mean("cpu_s"),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
                  "ok_frac": 1 - failed / attempted}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {"setup_samples": setups, "failed_frac": failed / attempted,
              "passes": [{k: v for k, v in p.items() if k != "layers"}
                         for p in passes],
              "traced_passes": [{k: v for k, v in t.items() if k != "layers"}
                                for t in traced]}
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "fockweyl" / "__init__.py").is_file():
        print(f"error: no fockweyl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = {"python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)),
           "loadavg_1m": os.getloadavg()[0]}
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    try:
        result, record = measure(args, deadline)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env, **record}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
