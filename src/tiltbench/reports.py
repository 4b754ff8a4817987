"""Report values and the sample driver shared by every checker and the CLI.

A report is reproducible by construction: it records the seed, the number
of samples run, and one serialised counterexample per failure.  Rerunning
the same scenario reproduces the same failure set byte for byte; only the
wall time field varies.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .samplers import SizeBounds, rng_for


@dataclass
class CheckFailure:
    sample_index: int
    check: str
    payload: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"sample_index": self.sample_index, "check": self.check,
                "payload": self.payload}


@dataclass
class CheckReport:
    name: str
    law: str
    seed: int
    samples: int = 0
    failures: list[CheckFailure] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, index: int, check: str, payload: dict | None = None):
        self.failures.append(CheckFailure(index, check, payload or {}))

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "law": self.law,
            "seed": self.seed,
            "samples": self.samples,
            "failures": [f.to_json() for f in sorted(
                self.failures, key=lambda f: (f.sample_index, f.check))],
            "passed": self.passed,
            "wall_time": self.wall_time,
        }


# one sample's checks: sample(rnd, bounds) yields (check, payload) per failure
Sample = Callable[[random.Random, SizeBounds], Iterable[tuple[str, dict]]]


def run_samples(budget: int, seed: int, labels: tuple, sample: Sample,
                bounds: SizeBounds) -> CheckReport:
    """Run ``budget`` samples of one law and collect their failures.

    Sample ``i`` draws from ``rng_for(seed, *labels, i)``, so any sample can
    be replayed alone.  Each ``(check, payload)`` it yields is a failure of
    sample ``i``.  An exception ends only that sample, recorded as a
    ``crash`` failure carrying the exception's type name.  The report is
    unnamed; the suite registry sets its name and law.
    """
    report = CheckReport("", "", seed)
    for i in range(budget):
        try:
            for check, payload in sample(rng_for(seed, *labels, i), bounds):
                report.record(i, check, payload)
        except Exception as e:  # a crashing sample must not end the run
            report.record(i, "crash", {"exception": type(e).__name__})
        report.samples += 1
    return report


@dataclass
class RunReport:
    scenario: dict
    suites: list[CheckReport] = field(default_factory=list)

    @property
    def failure_count(self) -> int:
        return sum(len(s.failures) for s in self.suites)

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "suites": [s.to_json() for s in sorted(self.suites, key=lambda s: s.name)],
            "failure_count": self.failure_count,
        }

    def to_json_string(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines = ["suite results", "============="]
        for s in sorted(self.suites, key=lambda s: s.name):
            status = "pass" if s.passed else f"FAIL ({len(s.failures)})"
            lines.append(f"{s.name:40s} {status:12s} samples={s.samples} "
                         f"seed={s.seed} [{s.law}]")
        lines.append(f"total failures: {self.failure_count}")
        return "\n".join(lines)
