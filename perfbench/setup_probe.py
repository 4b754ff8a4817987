"""Set-up time of the verifier in a fresh interpreter.

    python3 perfbench/setup_probe.py SRC_DIR SCENARIO_JSON

Prints the seconds spent importing tiltbench (which builds the suite
registry) and validating the scenario, the work every verifier run pays
before its first suite call.
"""

import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from tiltbench.cli import Scenario  # noqa: E402  (the import is what is timed)

Scenario.from_dict(json.loads(sys.argv[2]))
print(time.perf_counter() - start)
