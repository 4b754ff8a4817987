"""The digest of a report with its wall times left out.

``report_digest(data)`` drops ``wall_time`` from every suite of a parsed
report and returns the sha256 of ``json.dumps(data, sort_keys=True,
indent=2)`` with the summed wall time it dropped.  Run as a script, it
checks the digest of a report written by the command line's ``--out``:

    python tests/report_digest.py report.json <expected sha256>

prints each suite's wall time, slowest first, then the summed wall time
and the digest, and exits 1 with a message when the digest is not the
expected one.
"""

import hashlib
import json
import sys


def report_digest(data: dict) -> tuple[str, float]:
    wall = sum(suite.pop("wall_time") for suite in data["suites"])
    text = json.dumps(data, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode()).hexdigest(), wall


if __name__ == "__main__":
    path, expected = sys.argv[1:]
    with open(path) as f:
        data = json.load(f)
    for suite in sorted(data["suites"], key=lambda s: (-s["wall_time"], s["name"])):
        print(f"{suite['wall_time']:8.2f} s  {suite['name']}")
    digest, wall = report_digest(data)
    print(f"summed suite wall_time: {wall:.1f} s")
    print(digest)
    if digest != expected:
        sys.exit(f"{path} digest {digest} != {expected}")
