"""Every function defined in src/ is entered by a verifier run.

``test_every_public_definition_is_read_in_src`` is static: a definition
read only by code that never runs passes it.  This test runs the CLI in a
fresh interpreter whose profiler is set before ``tiltbench`` is imported,
on budget-3 runs of the default, polynomial and negative-control scenarios
and a budget-0 run of the default one, and names every ``def`` in src/ that
none of them enters.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tiltbench"
SCENARIOS = ROOT / "scenarios"

PROBE = r"""
import json
import sys

entered = set()


def record(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(record)
from tiltbench import cli

codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""

# entered by no run, by rule: text renderings, and an error built to raise
NEVER_ENTERED_NAMES = {"__repr__", "__str__"}
RAISE_ONLY = {"modules.rings_mismatch"}

# defined in src/ and entered by no run, each with its reason; an entry that
# a run comes to enter comes off the list
NOT_ENTERED = {
    # the Ore completion of right fractions: auslander_formula composes with
    # a fraction whose roof is empty, so fraction_compose never pulls back
    "freyd.freyd_pullback",
    "freyd._pull_elementary",
    # decoders of the serialised payloads, waiting for the replay CLI
    "serialize.element_from_json",
    "serialize.matrix_from_json",
    "serialize.module_from_json",
    "serialize.morphism_from_json",
    "serialize.complex_from_json",
    # the Q[x] value API that the tests build matrices with
    "rings.QPoly.const",
    "rings.QPoly.x",
    "rings.QPoly.lead",
    "rings.QPoly.__add__",
    "rings.QPoly.__sub__",
    "rings.QPoly._combine",
    "rings.QPoly.__hash__",
    # read only when a Q[x] failure is serialised
    "rings.QPoly.coeffs",
    # read by the benchmark's tracer, which counts repeated Smith-form inputs
    # by their hash (perfbench/tracer.py)
    "matrices.IntMatrix.__hash__",
}


def definitions() -> dict[tuple[str, int], str]:
    """(file, first line) -> dotted name of every def in src/, nested ones
    included; a decorated def starts at its first decorator, as its code
    object does."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[str(path), line] = f"{prefix}.{child.name}"
                visit(child, path, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}.{child.name}")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.resolve(), path.stem)
    return found


def never_entered(tmp_path) -> list[str]:
    runs = [["--budget", "3"], ["--budget", "0"],
            ["--scenario", str(SCENARIOS / "polynomials.json"), "--budget", "3"],
            ["--scenario", str(SCENARIOS / "negative-control.json"), "--budget", "3"]]
    argvs = [argv + ["--out", str(tmp_path / f"report-{i}.json")] for i, argv in enumerate(runs)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    # the negative control's corrupted t-structure fails its laws, as it must
    assert result["codes"] == [0, 0, 0, 1]
    entered = {(str(Path(name).resolve()), line) for name, line in result["entered"]}
    return sorted(name for key, name in definitions().items() if key not in entered)


def test_every_function_in_src_is_entered_by_a_verifier_run(tmp_path):
    unentered = set(never_entered(tmp_path))
    by_rule = {name for name in unentered
               if name.rsplit(".", 1)[-1] in NEVER_ENTERED_NAMES or name in RAISE_ONLY}
    assert sorted(unentered - by_rule - NOT_ENTERED) == []
    # a definition that a run has come to enter comes off the list
    assert NOT_ENTERED <= unentered
