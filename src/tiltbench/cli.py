"""Scenario-driven verifier front end.

A scenario file selects the ring, suites, budget, the master seed and size
bounds; command-line flags override its fields.  Exit code 0 means every
selected suite passed, 1 means failures were found (a sample that raised
counts as a ``crash`` failure), 2 a parse or validation error, 3 suites
that do not run over the chosen ring.  Reruns with the same scenario
reproduce the report byte for byte except for wall times.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Optional

from .reports import RunReport
from .rings import RingSpec
from .samplers import SizeBounds
from .suites import REGISTRY, default_suite_names

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3

_BOUND_FIELDS = ("max_rank", "max_entry", "max_width")
# the only suite that samples over the polynomial ring; the others draw
# integer data whatever the scenario's ring
_POLYNOMIAL_SUITES = {"snf_polynomials"}


class ScenarioError(ValueError):
    pass


class UnsupportedScenarioError(ValueError):
    pass


@dataclass
class Scenario:
    ring: str = "Integers"
    suites: list[str] = field(default_factory=default_suite_names)
    sample_budget: int = 100
    seed: int = 1
    max_rank: int = 3
    max_entry: int = 10
    max_width: int = 4

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        if not isinstance(data, dict):
            raise ScenarioError("scenario must be a JSON object")
        unknown = set(data) - {"ring", "suites", "sample_budget", "seed", "bounds"}
        if unknown:
            raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")
        bounds = data.get("bounds", {})
        if not isinstance(bounds, dict):
            raise ScenarioError("bounds must be a JSON object")
        unknown = set(bounds) - set(_BOUND_FIELDS)
        if unknown:
            raise ScenarioError(f"unknown bounds: {sorted(unknown)}")
        sc = cls()
        sc.ring = data.get("ring", sc.ring)
        if data.get("suites", "all") != "all":
            sc.suites = data["suites"]
        sc.sample_budget = data.get("sample_budget", sc.sample_budget)
        sc.seed = data.get("seed", sc.seed)
        for key in _BOUND_FIELDS:
            setattr(sc, key, bounds.get(key, getattr(sc, key)))
        sc.validate()
        return sc

    def validate(self):
        if not isinstance(self.ring, str):
            raise ScenarioError(f"ring must be a string, got {self.ring!r}")
        if not (isinstance(self.suites, list)
                and all(isinstance(name, str) for name in self.suites)):
            raise ScenarioError("suites must be \"all\" or a list of suite names")
        for key in ("sample_budget", "seed", *_BOUND_FIELDS):
            value = getattr(self, key)
            if type(value) is not int:  # refuses floats, strings and booleans
                raise ScenarioError(f"{key} must be an integer, got {value!r}")
        if self.sample_budget < 0 or self.seed < 0:
            raise ScenarioError("budget and seed must be nonnegative")
        small = [key for key in _BOUND_FIELDS if getattr(self, key) < 1]
        if small:
            raise ScenarioError(f"bounds must be at least 1: {small}")
        for name in self.suites:
            if name not in REGISTRY:
                raise ScenarioError(f"unknown suite name: {name}")
        repeated = sorted({name for name in self.suites if self.suites.count(name) > 1})
        if repeated:
            raise ScenarioError(f"duplicate suite names: {repeated}")
        try:
            ring = RingSpec(self.ring)
        except ValueError:
            raise ScenarioError(f"unknown ring tag: {self.ring}")
        if ring is RingSpec.RATIONAL_POLYNOMIALS:
            bad = [s for s in self.suites if s not in _POLYNOMIAL_SUITES]
            if bad:
                raise UnsupportedScenarioError(
                    f"suites unavailable over {self.ring}: {bad}")

    def bounds(self) -> SizeBounds:
        return SizeBounds(self.max_rank, self.max_entry, self.max_width)

    def to_dict(self) -> dict:
        return {
            "ring": self.ring,
            "suites": list(self.suites),
            "sample_budget": self.sample_budget,
            "seed": self.seed,
            "bounds": {key: getattr(self, key) for key in _BOUND_FIELDS},
        }


def load_scenario(path: Optional[str]) -> Scenario:
    if path is None:
        return Scenario()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ScenarioError(f"cannot read scenario: {e}")
    return Scenario.from_dict(data)


def run_scenario(scenario: Scenario) -> RunReport:
    run = RunReport(scenario=scenario.to_dict())
    for name in sorted(scenario.suites):
        suite = REGISTRY[name]
        run.suites.append(
            suite.run(scenario.sample_budget, scenario.seed, scenario.bounds()))
    return run


def run(scenario_path: Optional[str], output_path: Optional[str],
        overrides: Optional[dict] = None, stream=None) -> int:
    stream = stream or sys.stdout
    overrides = overrides or {}
    try:
        scenario = load_scenario(scenario_path)
        if overrides.get("seed") is not None:
            scenario.seed = overrides["seed"]
        if overrides.get("budget") is not None:
            scenario.sample_budget = overrides["budget"]
        if overrides.get("suites"):
            scenario.suites = list(overrides["suites"])
        scenario.validate()
        # opened before any suite runs, so a bad path costs no run
        out = open(output_path, "w", encoding="utf-8") if output_path else None
    except UnsupportedScenarioError as e:
        print(f"unsupported combination: {e}", file=stream)
        return EXIT_UNSUPPORTED
    except ScenarioError as e:
        print(f"scenario error: {e}", file=stream)
        return EXIT_PARSE
    except OSError as e:
        print(f"scenario error: cannot write report: {e}", file=stream)
        return EXIT_PARSE
    report = run_scenario(scenario)
    if out:
        with out:
            print(report.to_json_string(), file=out)
    print(report.render_text(), file=stream)
    return EXIT_OK if report.failure_count == 0 else EXIT_FAILURES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiltbench",
        description="run seeded property suites over the algebra workbench")
    parser.add_argument("--scenario", help="path to a scenario JSON file")
    parser.add_argument("--out", help="write the JSON report here")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--suite", action="append", dest="suites",
                        help="run this suite (repeatable)")
    parser.add_argument("--budget", type=int, help="override the sample budget")
    parser.add_argument("--list-suites", action="store_true",
                        help="print the suite registry and exit")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_suites:
        for name in sorted(REGISTRY):
            d = REGISTRY[name]
            marker = " [negative control]" if d.negative_control else ""
            print(f"{name:36s} {d.law}{marker}")
        return EXIT_OK
    overrides = {"seed": args.seed, "budget": args.budget, "suites": args.suites}
    return run(args.scenario, args.out, overrides)


if __name__ == "__main__":
    sys.exit(main())
