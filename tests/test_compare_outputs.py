"""tools/compare_outputs.py on one source tree against itself: every job
of the comparison set, on 16-point grids, must give the same bytes twice."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_one_tree_against_itself_is_identical(tmp_path):
    src = os.path.join(ROOT, "src")
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "compare_outputs.py"),
                           src, src, "--n", "16", "--work", str(tmp_path)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "17 jobs, 36 files: identical", lines[-1]
    assert sum(line.startswith("  ") and line.endswith(": identical") for line in lines) == 36
    assert not any("stderr" in line or "differs" in line for line in lines)
