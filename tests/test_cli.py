import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import report_digest as digest_gate
from tiltbench import suites, tstructures
from tiltbench.cli import (
    EXIT_FAILURES,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNSUPPORTED,
    Scenario,
    load_scenario,
    main,
    run,
    run_scenario,
)
from tiltbench.matrices import IntMatrix
from tiltbench.rings import QPoly
from tiltbench.samplers import SizeBounds
from tiltbench.serialize import matrix_from_json
from tiltbench.suites import REGISTRY, default_suite_names

# sha256 of the default scenario's report at budget 3, seed 1, without wall
# times, as json.dumps(sort_keys=True, indent=2)
DEFAULT_BUDGET_3_DIGEST = "12899190a5f2c9c67ce50d727a259c97b9aade5eab48029073ecfc4295c22c96"
# the same digest of scenarios/negative-control.json's report; unlike the
# default scenario it carries failure payloads, witnesses included.  It was
# 1be2cab84c66013d... while a serialised complex carried a "base" field (the
# ambient category, which no decision read); the report without those 20
# keys is otherwise the same, and hashes to this digest
NEGATIVE_CONTROL_DIGEST = "626dbf2993fe3653326cf0d34ab3ccd1d6715522a5801307294cbd44504f1a52"
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_scenario(tmp_path, name="scenario.json", **fields):
    data = {"suites": ["snf_identities"], "sample_budget": 5, "seed": 1}
    data.update(fields)
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_missing_scenario_file_exits_2(tmp_path, capsys):
    code = run(str(tmp_path / "nope.json"), None)
    assert code == EXIT_PARSE


def test_unwritable_report_path_exits_2_before_any_suite_runs(tmp_path, monkeypatch):
    monkeypatch.setattr("tiltbench.cli.run_scenario", lambda scenario: pytest.fail("ran"))
    out = io.StringIO()
    code = run(None, str(tmp_path / "no" / "such" / "r.json"),
               {"suites": ["snf_identities"], "budget": 2}, stream=out)
    assert code == EXIT_PARSE
    assert out.getvalue().startswith("scenario error: cannot write report: ")


def test_bad_json_exits_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert run(str(p), None) == EXIT_PARSE


def test_unknown_suite_exits_2(tmp_path):
    path = write_scenario(tmp_path, suites=["no_such_suite"])
    assert run(path, None) == EXIT_PARSE


def test_carrier_field_exits_2(tmp_path):
    path = write_scenario(tmp_path, carrier="FpZ")
    out = io.StringIO()
    assert run(path, None, stream=out) == EXIT_PARSE
    assert "unknown scenario fields: ['carrier']" in out.getvalue()


@pytest.mark.parametrize("fields", [
    {"sample_budget": "x"},
    {"sample_budget": 2.0},
    {"sample_budget": -1},
    {"seed": 1.5},
    {"seed": "1"},
    {"seed": True},
    {"ring": 5},
    {"ring": "Reals"},
    {"suites": [["a"]]},
    {"suites": "some"},
    {"suites": ["snf_identities", "snf_identities"]},
    {"bounds": []},
    {"bounds": {"max_rnk": 3}},
    {"bounds": {"max_rank": 0}},
    {"bounds": {"max_entry": -1}},
    {"bounds": {"max_width": 0}},
    {"bounds": {"max_entry": "10"}},
])
def test_bad_scenario_value_exits_2(tmp_path, fields):
    path = write_scenario(tmp_path, **fields)
    out = io.StringIO()
    assert run(path, None, stream=out) == EXIT_PARSE
    assert out.getvalue().startswith("scenario error: ")


def test_polynomial_ring_restricts_suites(tmp_path):
    # these sample integer matrices whatever the scenario's ring says
    for name in ("fp_universal_properties", "snf_identities", "solve_kernel_duality"):
        path = write_scenario(tmp_path, ring="RationalPolynomials", suites=[name])
        assert run(path, None) == EXIT_UNSUPPORTED, name
    ok = write_scenario(tmp_path, name="ok.json", ring="RationalPolynomials",
                        suites=["snf_polynomials"])
    assert run(ok, None) == EXIT_OK


def test_small_run_writes_report(tmp_path):
    path = write_scenario(tmp_path, suites=["snf_identities", "solve_kernel_duality"])
    out = tmp_path / "report.json"
    code = run(path, str(out))
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["failure_count"] == 0
    names = [s["name"] for s in report["suites"]]
    assert names == sorted(names)
    assert all("law" in s and "seed" in s for s in report["suites"])


def test_bounds_of_one_crash_no_suite(tmp_path):
    # bounds of 1 are valid, so every default suite runs on them with no
    # crashing sample; an exact complex still gets its two entries
    path = write_scenario(tmp_path, suites="all", sample_budget=5,
                          bounds={"max_rank": 1, "max_entry": 1, "max_width": 1})
    out = tmp_path / "small.json"
    assert run(path, str(out)) == EXIT_OK
    report = json.loads(out.read_text())
    assert [s["name"] for s in report["suites"]] == default_suite_names()
    assert [(s["name"], f["check"]) for s in report["suites"] for f in s["failures"]] == []


def test_negative_control_suite_exits_1(tmp_path):
    path = write_scenario(tmp_path, suites=["negative_corrupted_tstructure"],
                          sample_budget=8)
    out = tmp_path / "neg.json"
    assert run(path, str(out)) == EXIT_FAILURES
    report = json.loads(out.read_text())
    assert report["failure_count"] >= 1


def test_determinism_modulo_wall_time(tmp_path):
    path = write_scenario(tmp_path, suites=["fp_universal_properties"],
                          sample_budget=6)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(path, str(out1)) == EXIT_OK
    assert run(path, str(out2)) == EXIT_OK

    def strip(d):
        for s in d["suites"]:
            s.pop("wall_time")
        return d

    r1 = strip(json.loads(out1.read_text()))
    r2 = strip(json.loads(out2.read_text()))
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_overrides_take_effect(tmp_path):
    path = write_scenario(tmp_path, sample_budget=3, seed=7)
    out = tmp_path / "r.json"
    code = run(path, str(out), overrides={"seed": 9, "budget": 2,
                                          "suites": ["snf_identities"]})
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["scenario"]["seed"] == 9
    assert report["scenario"]["sample_budget"] == 2
    assert report["suites"][0]["samples"] == 2


def test_repeated_suite_override_exits_2(capsys):
    code = main(["--suite", "snf_identities", "--suite", "snf_identities",
                 "--budget", "1"])
    assert code == EXIT_PARSE
    assert capsys.readouterr().out == (
        "scenario error: duplicate suite names: ['snf_identities']\n")


def test_list_suites_flag(capsys):
    assert main(["--list-suites"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "snf_identities" in captured.out
    assert "negative control" in captured.out


def test_default_scenario_excludes_negative_controls():
    sc = Scenario()
    assert "negative_corrupted_tstructure" not in sc.suites
    assert "cogeneration_negative_control" in sc.suites


def test_main_without_scenario_runs_builtin_defaults(tmp_path):
    out = tmp_path / "mini.json"
    code = main(["--suite", "snf_identities", "--budget", "3",
                 "--seed", "2", "--out", str(out)])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["scenario"]["seed"] == 2


def test_crashing_sample_is_reported_and_the_run_goes_on(tmp_path, monkeypatch):
    real, calls = suites.smith_normal_form, []

    def fails_on_second_call(m):
        calls.append(m)
        if len(calls) == 2:
            raise ZeroDivisionError("forced")
        return real(m)

    monkeypatch.setattr(suites, "smith_normal_form", fails_on_second_call)
    path = write_scenario(tmp_path, suites=["snf_identities", "solve_kernel_duality"],
                          sample_budget=3)
    out = tmp_path / "r.json"
    assert run(path, str(out), stream=io.StringIO()) == EXIT_FAILURES
    by_name = {s["name"]: s for s in json.loads(out.read_text())["suites"]}
    assert by_name["snf_identities"]["samples"] == 3
    assert by_name["snf_identities"]["failures"] == [
        {"sample_index": 1, "check": "crash",
         "payload": {"exception": "ZeroDivisionError"}}]
    assert by_name["solve_kernel_duality"]["passed"]


def test_polynomial_failures_carry_their_matrix(monkeypatch):
    # a corrupted normal form fails every check; each payload decodes to the
    # sampled matrix
    real, sampled = suites.smith_normal_form, []
    x = QPoly.x()

    def corrupted(m):
        sampled.append(m)
        u, _, v = real(m)
        ring, k = m.ring, min(m.rows, m.cols)
        u = IntMatrix.diagonal(ring, [x] + [QPoly.const(1)] * (m.rows - 1)) * u
        d = IntMatrix.diagonal(ring, [x + QPoly.const(j) for j in range(k)],
                               rows=m.rows, cols=m.cols)
        return u, d, v

    monkeypatch.setattr(suites, "smith_normal_form", corrupted)
    report = REGISTRY["snf_polynomials"].run(6, 1, SizeBounds())
    assert {f.check for f in report.failures} == {
        "transform_identity", "unimodular_transforms", "divisibility_chain"}
    for f in report.failures:
        assert matrix_from_json(f.payload["matrix"]) == sampled[f.sample_index]


def test_control_reports_a_crash_of_its_sub_check(monkeypatch):
    def broken_truncation(spec, n, x):
        raise RuntimeError("forced")

    monkeypatch.setattr(tstructures, "truncate_le", broken_truncation)
    report = REGISTRY["corrupted_tstructure_detected"].run(2, 1, SizeBounds())
    assert report.samples == 2
    # both samples crash, and so does the fixed instance, recorded as sample 0
    assert sorted((f.sample_index, f.check) for f in report.failures) == [
        (0, "crash"), (0, "crash"), (0, "vacuous_checker"), (1, "crash")]


@pytest.mark.parametrize("name", ["cogeneration_negative_control",
                                  "corrupted_tstructure_detected"])
def test_negative_controls_never_come_up_empty(name):
    # a small budget may sample nothing that exposes the defect; the fixed
    # instance does, at budget 0 too
    for budget in range(4):
        for seed in range(1, 11):
            report = REGISTRY[name].run(budget, seed, SizeBounds())
            assert report.passed, (budget, seed, [f.check for f in report.failures])


def report_digest(scenario: Scenario) -> str:
    return digest_gate.report_digest(json.loads(run_scenario(scenario).to_json_string()))[0]


def test_default_scenario_digest():
    scenario = Scenario()
    scenario.sample_budget = 3
    assert report_digest(scenario) == DEFAULT_BUDGET_3_DIGEST


def test_negative_control_scenario_digest():
    scenario = load_scenario(str(SCENARIOS / "negative-control.json"))
    assert report_digest(scenario) == NEGATIVE_CONTROL_DIGEST


def test_digest_script_gates_a_written_report(tmp_path):
    # the CI digest steps run tests/report_digest.py on a report that --out wrote
    path = tmp_path / "report.json"
    assert run(None, str(path), {"suites": ["snf_identities"], "budget": 2},
               stream=io.StringIO()) == EXIT_OK
    digest = digest_gate.report_digest(json.loads(path.read_text()))[0]
    script = str(Path(digest_gate.__file__))
    ok = subprocess.run([sys.executable, script, str(path), digest],
                        capture_output=True, text=True)
    assert ok.returncode == 0 and ok.stdout.splitlines()[-1] == digest
    bad = subprocess.run([sys.executable, script, str(path), "0" * 64],
                         capture_output=True, text=True)
    assert bad.returncode == 1 and f"digest {digest} != {'0' * 64}" in bad.stderr
