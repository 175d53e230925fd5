"""Machine-readable check reports.

A report is {"header": {seed, config_hash, conventions}, "checks": [...]}.
Runtimes are tracked on the CheckReport objects but deliberately left out
of the serialized form so that reports for the same seed and config are
byte-identical across runs; so are the per-fixture residuals
(``fixture_residuals``, a read-only float64 memoryview in draw order).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["CheckReport", "SuiteReport", "render_report", "parse_report"]


@dataclass
class CheckReport:
    name: str
    residual: float
    tolerance: float
    passed: bool = field(init=False)
    runtime_ms: float = 0.0
    provenance: str = "derived"
    fixture_residuals: memoryview | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.passed = bool(self.residual <= self.tolerance)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CheckReport":
        rep = cls(name=d["name"], residual=d["residual"], tolerance=d["tolerance"],
                  provenance=d.get("provenance", "derived"))
        if rep.passed != d.get("passed", rep.passed):
            raise ValueError(f"inconsistent pass flag in serialized check {d['name']!r}")
        return rep


@dataclass
class SuiteReport:
    seed: int
    config_hash: str
    conventions: dict
    checks: list[CheckReport] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "header": {
                "seed": self.seed,
                "config_hash": self.config_hash,
                "conventions": self.conventions,
            },
            "checks": [c.to_dict() for c in self.checks],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SuiteReport":
        h = d["header"]
        return cls(seed=h["seed"], config_hash=h["config_hash"],
                   conventions=h["conventions"],
                   checks=[CheckReport.from_dict(c) for c in d["checks"]])


def render_report(report: SuiteReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def parse_report(text: str) -> SuiteReport:
    return SuiteReport.from_dict(json.loads(text))
