"""Self-test of the benchmark's output checks.

Usage (from the root of a source checkout): python3 perfbench/selftest.py

Runs each workload's CLI command on a shrunken config, confirms the checks
pass the real outputs, then corrupts one output at a time and confirms the
corruption is found and counted as a failed operation, never dropped.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from workloads import WORKLOADS, check


def _edit(path, fn):
    with open(path) as f:
        text = f.read()
    with open(path, "w") as f:
        f.write(fn(text))


def _edit_json(path, **changes):
    with open(path) as f:
        payload = json.load(f)
    payload.update(changes)
    with open(path, "w") as f:
        json.dump(payload, f)


def _set_cell(column, row_index, value):
    """Overwrite one cell of a data row, the column picked by header name."""
    def fn(text):
        lines = text.splitlines(keepends=True)
        header, *data = [i for i, line in enumerate(lines) if not line.startswith("#")]
        j = lines[header].strip().split(",").index(column)
        cells = lines[data[row_index]].rstrip("\n").split(",")
        cells[j] = value
        lines[data[row_index]] = ",".join(cells) + "\n"
        return "".join(lines)
    return fn


# workload -> list of (case, corruption of the output directory)
CORRUPTIONS = {
    "run-p2-n64": [
        ("energy.csv identity residual inflated",
         lambda d: _edit(os.path.join(d, "energy.csv"), _set_cell("identity_residual", 5, "1e-6"))),
        ("steps.csv holds NaN",
         lambda d: _edit(os.path.join(d, "steps.csv"), _set_cell("wave_residual", 2, "nan"))),
        ("run.json incomplete", lambda d: _edit_json(os.path.join(d, "run.json"), complete=False)),
        ("energy.csv truncated",
         lambda d: _edit(os.path.join(d, "energy.csv"), lambda t: t[:len(t) // 2])),
    ],
    "sweep-p1-n256": [
        ("sweep.json fitted_order 0.3",
         lambda d: _edit_json(os.path.join(d, "sweep.json"), fitted_order=0.3)),
        ("sweep.json reference fine_step",
         lambda d: _edit_json(os.path.join(d, "sweep.json"), reference="fine_step")),
        ("sweep.json missing", lambda d: os.remove(os.path.join(d, "sweep.json"))),
    ],
    "audit-p4-n1024": [
        ("audit.csv identity residual inflated",
         lambda d: _edit(os.path.join(d, "audit.csv"), _set_cell("identity_residual", 3, "1e-6"))),
        ("audit.json Lyapunov violation",
         lambda d: _edit_json(os.path.join(d, "audit.json"), lyapunov_violations=[[3, 1e-6]])),
    ],
}


def _small_config(name):
    config = WORKLOADS[name][1](0)
    config["n_interior"] = 16
    if "h" in config:
        config["T"] = 16 * config["h"]
    return config


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    from thermowave import cli

    from run import Workload

    work = os.path.join(root, ".perfbench", "selftest")
    shutil.rmtree(work, ignore_errors=True)
    ok = True
    for name, cases in CORRUPTIONS.items():
        command = WORKLOADS[name][0]
        config = _small_config(name)
        os.makedirs(os.path.join(work, name))
        wl = Workload(name, 0, os.path.join(root, "src"), os.path.join(work, name))
        wl.coverage = {}
        for case, corrupt in [("clean output", None), ("non-zero exit", None)] + cases:
            out = os.path.join(wl.work, "out")
            shutil.rmtree(out, ignore_errors=True)
            cfg_path = os.path.join(wl.work, "small.json")
            with open(cfg_path, "w") as f:
                json.dump(config, f)
            code = cli.main([command, "--config", cfg_path, "--out", out])
            if case == "non-zero exit":
                code = 2
            if corrupt:
                corrupt(out)
            before = wl.jobs_failed
            wl.count({"traced": False, "problems": check(command, code, out, config)})
            expect_fail = case != "clean output"
            counted = wl.jobs_failed - before == int(expect_fail)
            ok &= counted
            print(f"{'ok  ' if counted else 'FAIL'} {name}: {case}: "
                  f"{wl.runs[-1]['problems'] or 'no problems'}")
        attempted, failed = len(wl.runs), wl.jobs_failed
        if (attempted, failed) != (len(cases) + 2, len(cases) + 1):
            ok = False
            print(f"FAIL {name}: counted {failed} of {attempted}")
    shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
