"""The benchmark workloads, driven through fockweyl's public entry points.

A workload turns a seed into a callable that runs every case once and returns
its verdict records, `case_id -> [passed, detail]`, in the form the
`fwl-report/1` JSON carries them.  The records are compared against the
expected ones committed under `expected/`.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import traceback
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
WORKLOADS = ("sweep", "verma", "oracle")
SWEEP_ARGV = ["verify", "all", "--format", "json"]


def _specs(workload: str) -> list[tuple]:
    from fockweyl.verify import RunConfig, enumerate_cases
    if workload == "verma":
        specs = (enumerate_cases("theorem51", RunConfig(n_rank=3, max_size=4))
                 + enumerate_cases("theorem51", RunConfig(n_rank=4, max_size=3)))
        return specs + [("lemma63", rank, k) for rank in (4, 5)
                        for k in range(1, 5)]
    if workload == "oracle":
        return enumerate_cases("theorem61", RunConfig(ell=2, max_size=5))
    raise ValueError(f"unknown workload {workload!r}")


def prepare(workload: str, seed: int):
    """Set-up for one pass: the case list (or the CLI's argument parser) and
    the callable that runs it.  `sweep` is a fixed command and ignores the
    seed; the other workloads run their cases in a seed-permuted order."""
    if workload == "sweep":
        from fockweyl import cli
        cli.build_parser().parse_args(SWEEP_ARGV)

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                cli.main(SWEEP_ARGV)
            return _parse_reports(out.getvalue())
        return run

    from fockweyl import verify
    specs = _specs(workload)
    random.Random(seed).shuffle(specs)

    def run():
        records = {}
        for spec in specs:
            try:
                case = verify.run_case(spec)
            except Exception:  # a raising case is reported and has no record
                traceback.print_exc()
                continue
            records[case.case_id] = [case.passed,
                                     json.loads(json.dumps(case.detail))]
        return records
    return run


def _parse_reports(text: str) -> dict:
    """Records of every case in a stream of concatenated fwl-report/1 JSON."""
    decoder = json.JSONDecoder()
    records, pos = {}, 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return records
        doc, pos = decoder.raw_decode(text, pos)
        for case in doc["cases"]:
            records[case["case"]] = [case["passed"], case["detail"]]


def expected_path(workload: str) -> Path:
    return EXPECTED_DIR / f"{workload}.json"


def load_expected(path) -> dict:
    with open(path) as fh:
        return json.load(fh)["records"]


def count_failed(records: dict, expected: dict) -> tuple[int, int]:
    """(attempted, failed): a case fails when it did not pass, raised or went
    missing, or when its record differs from the expected one."""
    ids = expected.keys() | records.keys()
    failed = sum(1 for cid in ids
                 if cid not in records or not records[cid][0]
                 or records[cid] != expected.get(cid))
    return len(ids), failed
