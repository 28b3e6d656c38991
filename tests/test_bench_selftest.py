"""The benchmark's output checks reject a wrong value. With no plan type to
validate itself, a wrong swap plan is caught by ``check_controller`` (and by
``test_control.TestAimdProperty``); the self-test shows that the check
rejects a wrong interval, among its other cases."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "bench" / "selftest.py"


def test_bench_selftest_passes():
    result = subprocess.run(
        [sys.executable, str(SELFTEST)], capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stdout + result.stderr
