"""Deterministic verification reports with a stable JSON schema."""

from __future__ import annotations

import json

from . import __version__

SCHEMA = "fwl-report/1"
GENERATOR = f"fockweyl {__version__}"


class CaseResult:
    def __init__(self, case_id: str, passed: bool, detail: dict | None = None):
        self.case_id = case_id
        self.passed = passed
        self.detail = {} if detail is None else detail

    def to_json(self):
        return {"case": self.case_id, "passed": self.passed, "detail": self.detail}


class Report:
    def __init__(self, family: str, config: dict, cases: list):
        self.family = family
        self.config = config
        self.cases = cases

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cases if c.passed)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cases if not c.passed)

    def sorted_cases(self):
        return sorted(self.cases, key=lambda c: c.case_id)

    def to_json(self):
        return {
            "schema": SCHEMA,
            "generator": GENERATOR,
            "family": self.family,
            "config": self.config,
            "cases": [c.to_json() for c in self.sorted_cases()],
            "passed": self.passed,
            "failed": self.failed,
        }


def render_json(report: Report) -> str:
    return json.dumps(report.to_json(), indent=2, ensure_ascii=True) + "\n"


def render_text(report: Report) -> str:
    lines = [f"family: {report.family}"]
    for k, v in report.config.items():
        lines.append(f"  {k}: {v}")
    for c in report.sorted_cases():
        lines.append(f"{'PASS' if c.passed else 'FAIL'}  {c.case_id}")
        if not c.passed and c.detail:
            lines.append(f"      {json.dumps(c.detail, ensure_ascii=True)}")
    lines.append(f"passed: {report.passed}  failed: {report.failed}")
    return "\n".join(lines) + "\n"
