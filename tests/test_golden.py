"""Byte-for-byte behaviour gate: canonical full reports of the small inputs.

The files under tests/data/golden are the stdout of
``nefsphere report INPUT --verify full --dual``, frozen before the exact
kernel switched from all-Fraction to int-first arithmetic.  Any refactor of
the arithmetic or the stages must reproduce them exactly.
"""

import os
import subprocess
import sys

import pytest

from test_cli import BASE, DATA, path

GOLDEN = os.path.join(DATA, "golden")
NAMES = ["triangle", "square_sum", "pentagon_pair", "simplex3",
         "segment_weighted"]


@pytest.mark.parametrize("name", NAMES)
def test_full_dual_report_matches_golden(name):
    proc = subprocess.run(
        [sys.executable, "-m", "nefsphere.cli", "report", path(f"{name}.json"),
         "--verify", "full", "--dual"],
        capture_output=True, cwd=BASE,
        env={**os.environ, "PYTHONPATH": os.path.join(BASE, "src")})
    assert proc.returncode == 0, proc.stderr.decode()
    with open(os.path.join(GOLDEN, f"{name}.json"), "rb") as fh:
        want = fh.read()
    assert proc.stdout == want
