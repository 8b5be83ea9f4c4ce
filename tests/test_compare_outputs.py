"""tools/compare_outputs.py on one source tree against itself: every job
of the comparison set, on 16-point grids, must give the same bytes twice.
Two CSV files that differ only in their header block are reported field by
field."""

import importlib.util
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
    assert lines[-1] == "27 jobs, 56 files: identical", lines[-1]
    assert sum(line.startswith("  ") and line.endswith(": identical") for line in lines) == 56
    assert not any("stderr" in line or "differs" in line for line in lines)


def test_moved_header_fields_are_reported_one_line_each(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", os.path.join(ROOT, "tools", "compare_outputs.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    table = ('# config: {{"T":{T},"initial":{{"seed":7}}}}\n# coupling_bound: {bound!r}\n'
             "# h_threshold: 0.25\nn,t,kinetic\n0,0.0,1.5\n1,0.5,1.25\n")
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    paths[0].write_text(table.format(T=0.5, bound=1.0))
    paths[1].write_text(table.format(T=0.25, bound=1.5))
    assert tool._csv_diffs(*paths) == ["header config.T: relative difference 0.5",
                                       "header coupling_bound: relative difference 0.333"]
    paths[1].write_text(table.format(T=0.5, bound=1.0).replace("1.25", "1.0"))
    assert tool._csv_diffs(*paths) == ["column kinetic: largest relative difference 0.2"]


def test_only_runs_the_named_jobs_and_rejects_unknown_names(tmp_path):
    src = os.path.join(ROOT, "src")
    tool = [sys.executable, os.path.join(ROOT, "tools", "compare_outputs.py"), src, src,
            "--n", "16", "--work"]
    proc = subprocess.run(tool + [str(tmp_path / "known"), "--only", "p1-short-sweep,run-p2-n64"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    # the set's order, not the order named
    assert [line for line in lines if not line.startswith("  ")] == [
        "run-p2-n64 (run): exit 0 / 0", "p1-short-sweep (sweep): exit 0 / 0",
        "2 jobs, 5 files: identical"]
    proc = subprocess.run(tool + [str(tmp_path / "unknown"), "--only",
                                  "p1-short-sweep,no-such-job"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 2
    assert "unknown job(s) no-such-job" in proc.stderr
    assert "diverging-sweep" in proc.stderr and "p1-short-sweep" in proc.stderr
    assert not os.path.exists(tmp_path / "unknown")  # nothing was run
