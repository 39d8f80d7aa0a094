"""The benchmark's own self-test (tracer spans and parent links over the
exact engine and the rest of pendnf, seeded reproducibility) must pass."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
