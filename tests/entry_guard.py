"""A 256-bit limit on the integer entries of every diagonalisation.

``guard_snf_entries(setattr)`` wraps ``matrices._SNFWorker.__init__`` so
that an integer matrix with an entry wider than ``LIMIT_BITS`` raises
``OverflowError`` before it is diagonalised, and returns a one-element list
that holds the widest entry seen, in bits.  The tier-1 fixture
``snf_entry_bits`` installs it through ``monkeypatch.setattr``.  Run as a
script, it installs it for the whole process and then runs the command line
with the given arguments:

    PYTHONPATH=src python tests/entry_guard.py --seed 2

prints the command line's output, then one line with the widest entry, and
exits with the command line's exit code.  A sample that trips the limit is
reported as a ``crash``, so its suite fails and the exit code is nonzero.
"""

import sys

from tiltbench import cli, matrices
from tiltbench.rings import RingSpec

LIMIT_BITS = 256


def guard_snf_entries(setattr_):
    widest = [0]
    real_init = matrices._SNFWorker.__init__

    def guarded_init(self, m):
        if m.ring is RingSpec.INTEGERS:
            bits = max((abs(e).bit_length() for e in m.entries), default=0)
            widest[0] = max(widest[0], bits)
            if bits > LIMIT_BITS:
                raise OverflowError(f"SNF input entry of {bits} bits")
        real_init(self, m)

    setattr_(matrices._SNFWorker, "__init__", guarded_init)
    return widest


if __name__ == "__main__":
    widest = guard_snf_entries(setattr)
    code = cli.main(sys.argv[1:])
    print(f"widest SNF entry: {widest[0]} bits (limit {LIMIT_BITS})")
    sys.exit(code)
