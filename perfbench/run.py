"""Closed-loop benchmark of the tiltbench verifier.

    python3 perfbench/run.py --workload suites-broad --seed 3 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One process, one thread: the verifier runs round after round,
each round a complete scenario (suite list, budget, seed, bounds) generated
from the workload, ``--seed`` and the round number.

``--trace 0`` runs rounds until ``--seconds`` have passed and at least
MIN_ROUNDS rounds are done, and prints the end-to-end metrics.  ``--trace 1``
runs a fixed number of rounds per workload, each untraced and then traced,
and prints the per-layer metrics.  The line before the last carries
information that is not a metric (report digest, ``src/`` line count,
failed-sample ratio, raw wall times, the slowest traced sample as
(suite, index, seed)).  The last line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

STARTED = time.perf_counter()
# untraced runs do at least this many rounds; the run digest covers them
MIN_ROUNDS = 3
SETUP_PROBES = 11
# The host's speed drifts by tens of percent within minutes, so every timed
# round is scaled by CAL_REF_S over the time of a fixed calibration workload
# measured just before and after it.  Times are thus in seconds of a host on
# which calibration takes CAL_REF_S; raw wall times go to the info line.
CAL_REF_S = 0.02
# a round still running this long after start is abandoned and reported as
# failed, so that a pathological sample cannot hold the run past 180 s
RUN_DEADLINE_S = 150
DEFAULT_BOUNDS = {"max_rank": 3, "max_entry": 10, "max_width": 4}
FREYD = "freyd_pointwise_exactness"
# Default suites that suites-broad leaves out, besides FREYD.  The first
# five sample complexes of finitely presented modules: about one such sample
# in a few hundred drives an SNF solve into integer entry blow-up that runs
# for minutes.  The negative control needs one torsion witness among its
# samples; at a round's budget of 8 it misses one in about 70 rounds.
BROAD_SKIPS = ("corrupted_tstructure_detected", "hrs_star_consistency",
               "star_trivial_class", "tstructure_axioms_hrs",
               "tstructure_axioms_natural", "cogeneration_negative_control")

# name -> (scenario fields of each round but its seed, rounds a traced run
# covers).  Traced runs cover a fixed set of rounds, at least MIN_ROUNDS,
# so that per-layer counts repeat exactly for one commit and seed.
WORKLOADS = {
    # max_rank 1: at rank 3 one sample costs 11 ms to 11 s, too heavy-tailed
    # to average out within a run; rank 1 still solves systems of 15k cells
    "freyd-pointwise": ({"suites": [FREYD], "sample_budget": 30,
                         "bounds": dict(DEFAULT_BOUNDS, max_rank=1)}, 8),
    "suites-broad": ({"suites": "default", "sample_budget": 8,
                      "bounds": DEFAULT_BOUNDS}, 6),
    "qx-normal-forms": ({"ring": "RationalPolynomials", "suites": ["snf_polynomials"],
                         "sample_budget": 1000, "bounds": DEFAULT_BOUNDS}, 8),
}


def round_seed(workload: str, seed: int, k: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{k}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def scenario_dict(workload: str, seed: int, k: int) -> dict:
    from tiltbench.suites import default_suite_names

    data = dict(WORKLOADS[workload][0], seed=round_seed(workload, seed, k))
    if data["suites"] == "default":
        skip = {FREYD, *BROAD_SKIPS}
        data["suites"] = [n for n in default_suite_names() if n not in skip]
    return data


def _calibration_work() -> int:
    """Fraction-free elimination of fixed integer matrices; no program code."""
    n, total = 14, 0
    for rep in range(80):
        a = [[(i * 7 + j * 13 + rep) % 19 - 9 for j in range(n)] for i in range(n)]
        for k in range(n - 1):
            pivot, top = a[k][k] or 1, a[k]
            for row in a[k + 1:]:
                f = row[k]
                for j in range(k, n):
                    row[j] = row[j] * pivot - f * top[j]
            for row in a[k + 1:]:
                for j in range(k + 1, n):
                    total += divmod(row[j], 3)[1]
    return total


def calibrate() -> float:
    start = time.perf_counter()
    _calibration_work()
    return time.perf_counter() - start


def scaled(seconds: float, cal_before: float, cal_after: float) -> float:
    return seconds * CAL_REF_S * 2 / (cal_before + cal_after)


def setup_seconds(data: dict) -> tuple[float, float]:
    """Median set-up time over fresh interpreters after one warm-up: (scaled, wall)."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), json.dumps(data)]
    walls, scaled_times = [], []
    cal = calibrate()
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run(probe, capture_output=True, text=True, check=True,
                             timeout=120)
        before, cal = cal, calibrate()
        if i:
            wall = float(out.stdout.strip().splitlines()[-1])
            walls.append(wall)
            scaled_times.append(scaled(wall, before, cal))
    return statistics.median(scaled_times), statistics.median(walls)


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


class Deadline(BaseException):
    """Raised from the timer signal; not an Exception, so no suite catches it."""


def _expire(_signum, _frame):
    raise Deadline


def measure(workload: str, seed: int, seconds: float, tracer=None):
    """Run rounds until the time is up, or the workload's traced rounds.

    Returns (untraced rounds, their scaled verify seconds, traced rounds,
    the scenario abandoned at the deadline or None).  Untraced runs
    calibrate before the first round and after every round.
    """
    from tiltbench.cli import Scenario
    from verifier import run_round

    plain, plain_scaled, traced = [], [], []
    cal = calibrate() if tracer is None else None
    start = time.perf_counter()

    def more(k):
        if tracer is not None:
            return k < WORKLOADS[workload][1]
        return k < MIN_ROUNDS or time.perf_counter() - start < seconds

    k = 0
    scenario = None
    signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, max(1.0, RUN_DEADLINE_S - (start - STARTED)))
    try:
        while more(k):
            scenario = Scenario.from_dict(scenario_dict(workload, seed, k))
            plain.append(run_round(scenario))
            if tracer is None:
                before, cal = cal, calibrate()
                plain_scaled.append(scaled(plain[-1].verify_s, before, cal))
            else:
                tracer.install()
                try:
                    traced.append(run_round(scenario))
                finally:
                    tracer.uninstall()
            k += 1
    except Deadline:
        return plain, plain_scaled, traced, scenario
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return plain, plain_scaled, traced, None


def run_digest(rounds) -> str:
    joined = "\n".join(r.digest for r in rounds[:MIN_ROUNDS])
    return hashlib.sha256(joined.encode()).hexdigest()


def end_to_end_metrics(rounds, verify_scaled, setup_s: float) -> dict:
    samples = sum(r.attempted for r in rounds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "verify_s": {"value": statistics.mean(verify_scaled), "unit": "s"},
        "samples_per_s": {"value": samples / sum(verify_scaled), "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


def layer_metrics(tracer, plain, traced) -> dict:
    from tiltbench.suites import default_suite_names

    metrics = tracer.metrics(default_suite_names())
    metrics["reports.render_s"] = {"value": sum(r.render_s for r in traced), "unit": "s"}
    pairs = list(zip(plain, traced))
    metrics["trace.overhead_ratio"] = {
        "value": sum(t.verify_s for _, t in pairs) / sum(p.verify_s for p, _ in pairs),
        "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "tiltbench" / "__init__.py").is_file():
        print(f"no tiltbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tiltbench

    if Path(tiltbench.__file__).resolve().parent != (SRC / "tiltbench").resolve():
        print(f"tiltbench was imported from {tiltbench.__file__}", file=sys.stderr)
        return 2

    from verifier import expected_samples

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    else:
        setup_s, setup_wall_s = setup_seconds(scenario_dict(args.workload, args.seed, 0))
    plain, plain_scaled, traced, abandoned = measure(
        args.workload, args.seed, args.seconds, tracer)

    rounds = plain + traced
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if abandoned is not None:
        lost = sum(expected_samples(n, abandoned.sample_budget) for n in abandoned.suites)
        attempted += lost
        failed += lost
    deterministic = all(a.digest == b.digest for a, b in zip(plain, traced))
    correct = abandoned is None and deterministic and all(r.correct for r in rounds)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(plain),
        "round_budget": WORKLOADS[args.workload][0]["sample_budget"],
        "digest": run_digest(plain),
        "src_lines": src_line_count(),
        "failed_sample_ratio": failed / attempted,
        "crashed_suites": sorted({n for r in rounds for n in r.crashed}),
        "failing_suites": sorted({n for r in rounds for n in r.failing}),
        "wrong_sample_counts": sorted({n for r in rounds for n in r.wrong_counts}),
        "traced_digests_match": deterministic if traced else None,
        "abandoned_round_seed": abandoned.seed if abandoned is not None else None,
    }
    metrics = {}  # a run abandoned before its first round has none
    if tracer is not None and traced:
        metrics = layer_metrics(tracer, plain, traced)
        if tracer.slowest is not None:
            ms, suite, index, seed = tracer.slowest
            info["slowest_sample"] = {"suite": suite, "index": index,
                                      "seed": seed, "ms": ms}
    elif tracer is None and plain:
        info["verify_wall_s"] = statistics.mean(r.verify_s for r in plain)
        info["round_verify_s"] = plain_scaled
        info["setup_wall_s"] = setup_wall_s
        metrics = end_to_end_metrics(plain, plain_scaled, setup_s)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
