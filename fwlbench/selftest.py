"""Checks of the benchmark itself, not of fockweyl.

    python3 fwlbench/selftest.py

1. The tracer wraps every binding of each traced function in every fockweyl
   module and class (verma.field_det and weyl.ff_echelon as well as
   linalg.field_det and linalg.ff_echelon), and uninstalling restores them.
2. One corrupted expected record makes exactly that case fail, so
   failed_frac > 0, both in the comparison and in a whole sweep pass.
3. Two traced verma passes with one seed give identical counts and ratios.
4. The spans written out agree with the reported span count, and every
   span lies inside its parent.

Prints one line per check and exits 0 when all hold.
"""

from __future__ import annotations

import json
import sys
import time

import layertrace
import run
import workloads


def check_wrapping():
    sys.path.insert(0, str(run.ROOT / "src"))
    from fockweyl import linalg, verma, weyl
    from fockweyl.multirat import MultiRat
    originals = (linalg.field_det, linalg.ff_echelon, MultiRat.__add__)
    tracer = layertrace.Tracer().install()
    try:
        assert verma.field_det is linalg.field_det is not originals[0]
        assert weyl.ff_echelon is linalg.ff_echelon is not originals[1]
        assert MultiRat.__radd__ is MultiRat.__add__ is not originals[2]
        left = tracer.unwrapped_bindings()
        assert not left, f"bindings left unwrapped: {left}"
    finally:
        tracer.uninstall()
    assert (verma.field_det, weyl.ff_echelon, MultiRat.__radd__) == originals


def check_corrupted_record(workload: str, seed: int):
    expected = workloads.load_expected(workloads.expected_path(workload))
    victim = sorted(expected)[len(expected) // 2]
    corrupted = dict(expected)
    corrupted[victim] = [expected[victim][0], {"corrupted": True}]
    assert workloads.count_failed(expected, expected) == (len(expected), 0)
    assert workloads.count_failed(expected, corrupted) == (len(expected), 1)

    run.OUT.mkdir(exist_ok=True)
    path = run.OUT / f"expected-corrupted-{workload}.json"
    with open(path, "w") as fh:
        json.dump({"records": corrupted}, fh)
    deadline = time.monotonic() + run.RUN_LIMIT_S
    res = run.spawn(["--workload", workload, "--seed", str(seed),
                     "--expected", str(path)], deadline)
    assert (res["attempted"], res["failed"]) == (len(expected), 1), res
    return res["failed"] / res["attempted"]


def traced_twice(workload: str, seed: int, stem: str):
    deadline = time.monotonic() + 2 * run.RUN_LIMIT_S
    flags = ["--workload", workload, "--seed", str(seed), "--trace"]
    return (run.spawn(flags + ["--spans", stem], deadline)["layers"],
            run.spawn(flags, deadline)["layers"])


def check_repeat_counts(a: dict, b: dict):
    counts = [name for name, unit in layertrace.per_layer_names()
              if unit != "s"]
    diff = {n: (a[n], b[n]) for n in counts if a[n] != b[n]}
    assert not diff, f"traced counts differ between passes: {diff}"
    return len(counts)


def check_spans(stem: str, layers: dict):
    spans = layertrace.load_spans(stem)
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    assert len(start) == layers["trace.spans"] > 0
    for i, p in enumerate(parent):
        assert start[i] <= end[i], f"span {i} ends before it starts"
        if p >= 0:
            assert p < i and start[p] <= start[i] and end[i] <= end[p], \
                f"span {i} is not inside its parent {p}"
    return len(start)


def main() -> int:
    seed = 7
    check_wrapping()
    print("ok  tracer wraps every binding and restores them")
    frac = check_corrupted_record("sweep", seed)
    print(f"ok  one corrupted record gives failed_frac = {frac:.6f} > 0")
    stem = str(run.OUT / "spans-selftest-verma")
    a, b = traced_twice("verma", seed, stem)
    print(f"ok  {check_repeat_counts(a, b)} traced counts repeat exactly "
          "across two passes")
    print(f"ok  {check_spans(stem, a)} spans written, each inside its parent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
