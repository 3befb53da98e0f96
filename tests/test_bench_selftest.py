"""The benchmark's self-test runs against the current library API.

``bench/`` calls ``schur_check``, ``convex_domination_check``, ``convolve``
and the ``hull=`` keyword of the bounds, so a change to any of them that
breaks the benchmark fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
