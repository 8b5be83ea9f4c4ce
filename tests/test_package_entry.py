"""The lazy package and the command line's entry, each in a fresh process.

``import thermowave`` loads no submodule: each public name loads its
defining module on first use.  ``thermowave.__main__.main``, behind
``python -m thermowave`` and the console script, gives the BLAS one thread
before NumPy loads, unless the environment names a count already.
"""

import json
import os
import subprocess
import sys

import pytest

import thermowave

SRC = os.path.dirname(os.path.dirname(os.path.abspath(thermowave.__file__)))
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SUBMODULES = ("convergence", "diagnostics", "nonlinearity", "operators", "oracle", "profiles",
              "stepper")
# the package's public names since they were first imported eagerly
PUBLIC = [
    "AprioriMonitor", "DIRICHLET", "DiscreteOperator", "EnergyRecord", "ErrorFigures",
    "ErrorReport", "FieldSnapshot", "Grid1D", "LinearReference", "NEUMANN",
    "NewtonDivergedError", "Nonlinearity", "OperatorBundle", "ProblemPreset",
    "ReferenceDivergedError", "Resolvent", "ResolventAuditError", "RunResult", "State",
    "StepAuditError", "StepConfig", "StepPlan", "StepReport", "SweepDivergedError",
    "SweepResult", "apriori_monitor", "apriori_ratios", "assemble_laplacian", "audit_bundle",
    "build_bundle", "build_interpolants", "check_h_list", "convergence",
    "coupling_relative_bound", "cubic_nonlinearity", "diagnostics", "energy", "energy_ledger",
    "error_norms", "exact_linear_solution", "fine_reference", "gradient_inner", "h_inner",
    "h_norm", "identity_operator", "interpolation_identities_check",
    "inverse_modal_transform", "iter_ledger", "iter_run", "laplacian_eigenvalues",
    "linear_reaction", "lyapunov_check", "make_initial", "modal_generator", "modal_transform",
    "mode_vector", "nonlinearity", "operators", "oracle", "phi_equation_rhs",
    "pick_reference", "potential_total", "profiles", "random_smooth", "resolvent_solve",
    "run", "single_mode", "solvability_threshold", "solve_phi", "step", "step_count",
    "step_identity_residual", "stepper", "sweep", "usable_cpus", "v_norm", "v_norm_sq",
    "zero_nonlinearity", "zero_operator", "zero_profile"]


def fresh(code, *args, **env):
    """The JSON that ``code`` prints last, run in a fresh interpreter with
    no thread variable but those in ``env``."""
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**base, "PYTHONPATH": SRC, **env}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule_and_sets_no_variable():
    seen = fresh("import json, os, sys, thermowave; print(json.dumps(["
                 "'numpy' in sys.modules, sorted(m for m in sys.modules if m.startswith("
                 "'thermowave.')), [v for v in %r if v in os.environ]]))" % (THREAD_VARIABLES,))
    assert seen == [False, [], []]


def test_all_keeps_the_public_names():
    assert len(PUBLIC) == 80
    seen = fresh("import json, thermowave; print(json.dumps("
                 "[thermowave.__all__, sorted(set(thermowave.__all__) - set(dir(thermowave)))]))")
    assert seen == [PUBLIC, []]  # dir() lists every name before it loads


def test_every_name_is_its_defining_modules_object():
    code = """
import importlib, json, sys
from thermowave import *
import thermowave
names = {}
for name in thermowave.__all__:
    obj = getattr(thermowave, name)
    if name in %r:  # a submodule
        names[name] = obj is sys.modules["thermowave." + name]
        continue
    # where a class or function is defined; the two boundary constants are operators'
    home = importlib.import_module(getattr(obj, "__module__", "thermowave.operators"))
    names[name] = obj is getattr(home, name) and obj is globals()[name]
print(json.dumps(names))
""" % (SUBMODULES,)
    seen = fresh(code)
    assert sorted(seen) == PUBLIC
    assert [name for name, same in seen.items() if not same] == []


def test_star_import_binds_the_submodules():
    code = ("import json, types; from thermowave import *; "
            "print(json.dumps([isinstance(m, types.ModuleType) and m.__name__ for m in "
            "(convergence, diagnostics, nonlinearity, operators, oracle, profiles, stepper)]))")
    assert fresh(code) == ["thermowave." + name for name in SUBMODULES]


def test_an_unknown_name_raises_attribute_error_naming_it():
    code = """
import json, thermowave
try:
    thermowave.no_such_name
except AttributeError as exc:
    print(json.dumps(str(exc)))
"""
    assert "'no_such_name'" in fresh(code)
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from thermowave import no_such_name", {})


# Runs `run` through the entry with sys.argv set, and reports at exit, once
# NumPy and SciPy's LAPACK extension have loaded, whether the job loaded the
# sweep's module, the process's OS threads, usable_cpus() against the
# affinity set, and the thread variables.
ENTRY_PROBE = """
import atexit, json, os, sys
import thermowave.__main__ as entry

def report():
    sweeps = "thermowave.convergence" in sys.modules
    from thermowave import convergence
    print(json.dumps({
        "loaded": all(m in sys.modules for m in ("numpy", "scipy.linalg._flapack")),
        "sweeps": sweeps,
        "threads": len(os.listdir("/proc/self/task")),
        "usable": convergence.usable_cpus(), "cpus": len(os.sched_getaffinity(0)),
        "variables": [os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS")]}))

atexit.register(report)
sys.argv = ["thermowave", "run", "--config", sys.argv[1], "--out", sys.argv[2]]
entry.main()
"""


def entry_run(tmp_path, **env):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "preset": "P2", "n_interior": 64, "T": 0.125, "h": 1.0 / 64,
        "beta": {"kind": "cubic", "scale": 1.0},
        "initial": {"profile": "random_smooth", "seed": 4}}))
    seen = fresh(ENTRY_PROBE, str(config), str(tmp_path / "out"), **env)
    assert seen["loaded"]
    assert json.loads((tmp_path / "out" / "run.json").read_text())["complete"] is True
    return seen


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or not hasattr(os, "sched_getaffinity"),
                    reason="counts threads in /proc/self/task")
def test_entry_runs_one_blas_thread_by_default(tmp_path):
    seen = entry_run(tmp_path)
    assert not seen["sweeps"]
    assert seen["threads"] == 1
    assert seen["usable"] == seen["cpus"]
    assert seen["variables"] == ["1", "1", "1"]


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2
                    or not os.path.isdir("/proc/self/task"),
                    reason="needs two usable CPUs, so that OpenBLAS starts a pool of two")
def test_a_users_blas_thread_count_wins(tmp_path):
    seen = entry_run(tmp_path, OPENBLAS_NUM_THREADS="2")
    assert seen["threads"] > 1  # the pool runs
    assert seen["usable"] == 1
    assert seen["variables"] == ["2", "1", "1"]
