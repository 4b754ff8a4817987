"""One verifier round: the calls ``cli.run_scenario`` makes, timed and checked.

A round runs every suite of a scenario through ``tiltbench.suites.REGISTRY``
and builds the same ``RunReport``.  Unlike the CLI it survives a suite that
raises: the suite is reported with a single ``crash`` failure and its whole
budget counts as failed samples, and the remaining suites still run.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

from tiltbench.cli import Scenario
from tiltbench.reports import CheckReport, RunReport
from tiltbench.suites import REGISTRY

# samples a suite draws per unit of budget; tilting_class_laws checks the
# trivial class and the free class's cotilting dual, each over the full budget
SAMPLE_STREAMS = {"tilting_class_laws": 2}


@dataclass
class Round:
    report_json: str
    verify_s: float          # first suite call to the report JSON in hand
    render_s: float          # RunReport.to_json_string alone
    attempted: int           # samples the budget asks for
    failed: int              # samples with a failed check, plus crashed budgets
    crashed: list = field(default_factory=list)
    failing: list = field(default_factory=list)       # a check failed
    wrong_counts: list = field(default_factory=list)  # samples != budget

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.crashed and not self.wrong_counts

    @property
    def digest(self) -> str:
        return report_digest(self.report_json)


def expected_samples(name: str, budget: int) -> int:
    return budget * SAMPLE_STREAMS.get(name, 1)


def report_digest(report_json: str) -> str:
    """sha256 of the report without wall times, as json.dumps(sort_keys, indent=2)."""
    data = json.loads(report_json)
    for suite in data["suites"]:
        suite.pop("wall_time", None)
    text = json.dumps(data, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


def run_round(scenario: Scenario) -> Round:
    budget, seed, bounds = scenario.sample_budget, scenario.seed, scenario.bounds()
    names = sorted(scenario.suites)
    crashed = []
    start = time.perf_counter()
    report = RunReport(scenario=scenario.to_dict())
    for name in names:
        suite = REGISTRY[name]
        try:
            result = suite.run(budget, seed, bounds)
        except Exception as e:  # a crashed suite must not end the run
            result = CheckReport(name, suite.law, seed)
            result.record(0, "crash", {"exception": type(e).__name__})
            crashed.append(name)
        result.law = suite.law
        report.suites.append(result)
    render_start = time.perf_counter()
    text = report.to_json_string()
    end = time.perf_counter()

    attempted = failed = 0
    failing, wrong_counts = [], []
    # report names may differ from registry keys, so pair them by position
    for name, result in zip(names, report.suites):
        expected = expected_samples(name, budget)
        attempted += expected
        if name in crashed:
            failed += expected
            continue
        if result.samples != expected:
            wrong_counts.append(name)
        if result.failures:
            failing.append(name)
            failed += len({f.sample_index for f in result.failures})
    return Round(text, end - start, end - render_start, attempted, failed,
                 crashed, failing, wrong_counts)
