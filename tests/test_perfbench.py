"""The benchmark harness still runs against the package sources.

``perfbench/run.py --self-test`` imports the package the way the
benchmark does, builds the two running workloads, checks their alpha pair
counters against the gate figures, checks that its tracer wraps every
public function of the package and restores it, and checks its metric
names against ``BENCHMARK.json``.  A library change that breaks what the
harness calls fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_test():
    done = subprocess.run([sys.executable, "perfbench/run.py", "--self-test"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("self-test passed")
