"""The benchmark's own self-test still runs against the package.

perfbench/layers.py wraps package functions by name (issue_goods_cert,
sym_encrypt, ...), so renaming one or changing what it returns can break
the benchmark without failing any other test.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
