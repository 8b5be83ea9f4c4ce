import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thermowave.cli as cli
from thermowave import run
from thermowave.cli import ConfigError, build_problem, main, validate_config


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def base_config(**overrides):
    cfg = {
        "preset": "P2",
        "n_interior": 24,
        "T": 0.125,
        "h": 1.0 / 64,
        "epsilon": 1.0,
        "beta": {"kind": "cubic", "scale": 1.0},
        "initial": {"profile": "random_smooth", "seed": 4, "decay": 2.0},
    }
    cfg.update(overrides)
    return cfg


def read_csv(path):
    header = []
    with open(path) as f:
        lines = f.read().splitlines()
    comments = [l for l in lines if l.startswith("# ")]
    body = [l for l in lines if not l.startswith("# ")]
    columns = body[0].split(",")
    rows = [l.split(",") for l in body[1:]]
    return comments, columns, rows


def test_validate_rejects_unknown_preset():
    with pytest.raises(ConfigError):
        validate_config({"preset": "P7"})


def test_validate_collects_field_errors():
    cfg = {"preset": "P2", "n_interior": 1, "T": -1.0, "h": 0.1,
           "m": 3.0, "bc": "robin"}
    with pytest.raises(ConfigError) as info:
        validate_config(cfg)
    text = " ".join(info.value.errors)
    assert "n_interior" in text
    assert "T" in text
    assert "bc" in text
    assert "m" in text


def test_validate_p1_derives_pi_from_m():
    cfg = {"preset": "P1", "n_interior": 8, "T": 0.5, "h": 0.25, "m": 2.0}
    resolved = validate_config(cfg)
    assert resolved["pi"] == {"kind": "linear", "slope": -4.0}
    assert resolved["beta"] == {"kind": "zero"}


def test_validate_p1_rejects_explicit_beta():
    cfg = {"preset": "P1", "n_interior": 8, "T": 0.5, "h": 0.25,
           "beta": {"kind": "cubic", "scale": 1.0}}
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_validate_numeric_strings():
    cfg = {"preset": "P2", "n_interior": 8, "T": "0.5", "h": "0.125",
           "epsilon": "1.0", "beta": {"kind": "zero"}}
    resolved = validate_config(cfg)
    assert resolved["T"] == 0.5
    assert resolved["h"] == 0.125


@pytest.mark.parametrize("field, text", [
    ("epsilon", '"nan"'),
    ("sigma", '"inf"'),
    ("h", '"nan"'),
    ("epsilon", "NaN"),
    ("T", "1" + "0" * 400),
])
def test_non_finite_config_number_exits_1(tmp_path, capsys, field, text):
    cfg = base_config(**{field: "PLACEHOLDER"})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg).replace('"PLACEHOLDER"', text))
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert f"config error: {field}: must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "run.json").exists()


# Malformed fields that escaped as tracebacks, ran a NaN trajectory or were
# coerced to another value before every value rule moved to the library.
MALFORMED_FIELDS = [
    ("run", {"solver": {"newton_tol": -1}}, "solver.newton_tol"),
    ("run", {"solver": {"newton_tol": 0}}, "solver.newton_tol"),
    ("run", {"solver": {"path": "yosida", "yosida_lambdas": [1, 2]}}, "solver.yosida_lambdas"),
    ("run", {"solver": {"path": "yosida", "yosida_lambdas": "abc"}}, "solver.yosida_lambdas"),
    ("run", {"initial": {"profile": "single_mode"}}, "initial.mode"),
    ("run", {"initial": {"profile": "random_smooth"}}, "initial.seed"),
    ("run", {"initial": {"profile": "single_mode", "mode": 99}}, "initial.mode"),
    ("run", {"initial": {"profile": "random_smooth", "seed": 4, "decay": -1}}, "initial.decay"),
    ("run", {"initial": {"profile": "single_mode", "mode": 1, "theta_amp": "x"}},
     "initial.theta_amp"),
    ("run", {"initial": {"profile": "random_smooth", "seed": 4, "amplitude": "inf"}},
     "initial.amplitude"),
    ("run", {"beta": "cubic"}, "beta"),
    ("run", {"pi": [1]}, "pi"),
    ("run", {"beta": {"kind": "cubic", "scale": "nan"}}, "beta.scale"),
    ("sweep", {"T": 0.3, "h_list": [0.1, 0.03]}, "h_list"),
    ("run", {"solver": {"newton_max_iter": True}}, "solver.newton_max_iter"),
    ("run", {"snapshot_stride": True}, "snapshot_stride"),
    ("run", {"initial": {"profile": "random_smooth", "seed": -1}}, "initial.seed"),
    ("sweep", {"h_list": 0.5}, "h_list"),  # expected a list of numbers, got float
    ("run", {"beta": {"kind": "odd_poly", "coeffs": 3}}, "beta.coeffs"),  # ... got int
]


@pytest.mark.parametrize("command, fragment, field", MALFORMED_FIELDS,
                         ids=[f"{i}-{f}" for i, (_, _, f) in enumerate(MALFORMED_FIELDS)])
def test_malformed_field_exits_1(tmp_path, capsys, command, fragment, field):
    cfg = base_config(**fragment)
    if command == "sweep":
        del cfg["h"]
    out = tmp_path / "out"
    rc = main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"config error: {field}: " in err
    assert "Traceback" not in err
    assert not out.exists()


UNKNOWN_KEYS = [
    ({"snapshot_strid": 1}, "snapshot_strid"),
    ({"solver": {"newton_max_itr": 1}}, "solver.newton_max_itr"),
    ({"solver": {"path": "yosida", "yosida_lambdas": [1e-2]}}, "solver.yosida_lambdas"),
    ({"beta": {"kind": "cubic", "scale": 1.0, "scael": 2.0}}, "beta.scael"),
    ({"pi": {"kind": "linear", "slop": -1.0}}, "pi.slop"),
    ({"initial": {"profile": "random_smooth", "seed": 4, "sed": 5}}, "initial.sed"),
]


@pytest.mark.parametrize("fragment, field", UNKNOWN_KEYS, ids=[f for _, f in UNKNOWN_KEYS])
def test_unknown_config_key_exits_1(tmp_path, capsys, fragment, field):
    out = tmp_path / "out"
    rc = main(["run", "--config", write_config(tmp_path, base_config(**fragment)),
               "--out", str(out)])
    assert rc == 1
    assert f"config error: {field}: unknown key" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_keys_are_collected_with_other_errors():
    cfg = base_config(snapshot_strid=1, n_interior=1, solver={"newton_max_itr": 1})
    with pytest.raises(ConfigError) as info:
        validate_config(cfg)
    fields = [msg.split(":")[0] for msg in info.value.errors]
    assert {"snapshot_strid", "n_interior", "solver.newton_max_itr"} <= set(fields)
    assert fields.count("snapshot_strid") == fields.count("solver.newton_max_itr") == 1


@pytest.mark.parametrize("command, steps", [
    ("run", {"T": 0.0625, "h": 1e-300}),
    ("energy-audit", {"T": 0.0625, "h": 1e-300}),
    ("sweep", {"T": 4e-298, "h_list": [4e-300, 2e-300, 1e-300]}),
])
def test_tiny_h_exits_1_with_a_config_error(tmp_path, capsys, command, steps):
    cfg = {k: v for k, v in base_config(**steps).items() if command != "sweep" or k != "h"}
    out = tmp_path / "out"
    rc = main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    field = "h_list" if command == "sweep" else "h"
    assert f"config error: {field}: h must be large enough that 1/h^2 is finite" in err
    assert not out.exists()


def test_snapshot_stride_flag_follows_the_config_rule(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--config", write_config(tmp_path, base_config()), "--out", str(out),
               "--snapshot-stride", "-1"])
    assert rc == 1
    assert "config error: snapshot_stride: must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "energy-audit", "oracle-check"])
def test_snapshot_stride_flag_is_a_run_option(tmp_path, capsys, command):
    cfg = base_config()
    if command == "sweep":
        h = cfg.pop("h")
        cfg["h_list"] = [h, h / 2]
    out = tmp_path / "out"
    rc = main([command, "--config", write_config(tmp_path, cfg), "--out", str(out),
               "--snapshot-stride", "3"])
    assert rc == 1
    assert "unrecognized arguments: --snapshot-stride" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field", ["n_interior", "solver.newton_max_iter", "snapshot_stride",
                                   "initial.mode", "initial.seed"])
@pytest.mark.parametrize("value", [True, 1.7, "x"])
def test_integer_fields_reject_booleans_and_fractions(field, value):
    cfg = base_config(initial={"profile": "single_mode", "mode": 1, "seed": 4})
    if field == "initial.seed":
        cfg["initial"]["profile"] = "random_smooth"
    section, _, key = field.rpartition(".")
    target = cfg.setdefault(section, {}) if section else cfg
    target[key or field] = value
    with pytest.raises(ConfigError) as info:
        validate_config(cfg)
    assert any(msg.startswith(f"{field}: ") for msg in info.value.errors)


def test_integer_fields_accept_whole_numbers():
    cfg = base_config(n_interior="24", snapshot_stride=2.0,
                      initial={"profile": "single_mode", "mode": "2"})
    resolved = validate_config(cfg)
    assert resolved["n_interior"] == 24 and resolved["snapshot_stride"] == 2
    assert resolved["_grid"].n_interior == 24


def test_validate_builds_library_objects_but_not_the_bundle(monkeypatch):
    def no_bundle(*args):
        raise AssertionError("validate_config built the bundle")

    monkeypatch.setattr(cli, "build_bundle", no_bundle)
    resolved = validate_config(base_config())
    assert resolved["_grid"].n_interior == 24
    assert resolved["_preset"].name == "P2"
    assert resolved["_cfg"].h == 1.0 / 64
    monkeypatch.undo()
    grid, bundle, nonlin, initial, cfg = build_problem(resolved)
    assert grid is resolved["_grid"] and nonlin is resolved["_nonlin"]
    assert initial is resolved["_initial"] and cfg is resolved["_cfg"]
    assert bundle.grid is grid


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


# Valid values of each config field, then values that break it.
_VALID_FIELDS = {
    "bc": ["dirichlet", "neumann"],
    "n_interior": [2, 5, 8, "6"],
    "T": [0.125, "0.25"],
    "h": [1 / 16, 1 / 32, "0.125"],
    "h_list": [[1 / 16, 1 / 32], [0.125, "0.0625"], [1 / 16, 1 / 32, 1 / 64]],
    "sigma": [0.5, 2, "1.5"],
    "c": [0.5, 2],
    "gamma": [1.5, 3],
    "m": [0, 0.5, "2"],
    "epsilon": [0, 0.5, 1],
    "beta": [{"kind": "zero"}, {"kind": "cubic", "scale": 1}, {"kind": "cubic", "scale": 100},
             {"kind": "odd_poly", "coeffs": [1, 0, "0.5"]}],
    "pi": [{"kind": "zero"}, {"kind": "linear", "slope": -1},
           {"kind": "scaled_sine", "amplitude": 0.5}],
    "initial": [{"profile": "zero"}, {"profile": "single_mode", "mode": 1, "theta_amp": 0.5},
                {"profile": "random_smooth", "seed": 3, "decay": 1.0, "amplitude": 0.5},
                {"profile": "single_mode", "mode": 1, "theta_amp": 1e8, "phi_amp": 1e8,
                 "v_amp": 1e8}],
    "solver": [{}, {"newton_tol": 1e-10, "newton_max_iter": 30}, {"newton_max_iter": 2},
               {"path": "yosida"}],
    "snapshot_stride": [0, 1, 3],
}
_INVALID_FIELDS = {
    "preset": ["P7", 3, None],
    "bc": ["robin", 1],
    "n_interior": [1, -3, 2.5, True, "x", [8], 1e400, 1e12, None],
    "T": [0, -1, "nan", True, [1], None],
    "h": [0, -0.125, 0.03, True, "x", None],
    "h_list": [[], [1 / 32], [0.1, 0.03], [1 / 16, 1 / 48], [1 / 32, 1 / 16], "x", [True], [0], None],
    "sigma": [0, -1, "inf", False],
    "c": [0, -1, "x", 1e200, 1e80, 1e140, 1e154],
    "gamma": [1, 0.5, "nan", True, 1e300],
    "m": ["x", [1], 1e200],
    "epsilon": [-1, "nan"],
    "beta": [{"kind": "cubic"}, {"kind": "cubic", "scale": -1}, {"kind": "cubic", "scale": "nan"},
             {"kind": "odd_poly", "coeffs": "x"}, {"kind": "odd_poly", "coeffs": [1, 1]},
             {"kind": "quartic"}, {"kind": ["cubic"]}, "cubic", [1]],
    "pi": [{"kind": "linear"}, {"kind": "tanh"}, {"kind": "linear", "slope": "inf"}, [1]],
    "initial": [{"profile": "single_mode", "mode": 99}, {"profile": "single_mode"},
                {"profile": "single_mode", "mode": 1, "v_amp": "x"},
                {"profile": "random_smooth", "seed": -1}, {"profile": "random_smooth", "seed": 1.5},
                {"profile": "random_smooth", "seed": 3, "amplitude": "inf"},
                {"profile": "random_smooth", "seed": 3, "amplitude": 1e308},
                {"profile": "random_smooth", "seed": 3, "decay": -1}, {"profile": "x"}, {},
                "zero"],
    "solver": [{"newton_tol": -1}, {"newton_max_iter": True}, {"newton_max_iter": 0},
               {"path": "yosida", "yosida_lambdas": [1, 2]}, {"path": "bogus"},
               {"yosida_lambdas": "abc"}, []],
    "snapshot_stride": [-1, True, 1.5],
}
_PRESET_FIELDS = {"P1": ("sigma", "c", "gamma", "m"),
                  "P2": ("sigma", "c", "gamma", "epsilon", "beta", "pi"),
                  "P3": ("sigma", "c", "gamma", "epsilon", "beta", "pi"),
                  "P4": ("beta", "pi"), "P5": ("beta", "pi")}


@st.composite
def random_configs(draw, command):
    """A valid config for the command, with up to two fields then broken."""
    preset = draw(st.sampled_from(sorted(_PRESET_FIELDS)))
    steps = "h_list" if command == "sweep" else "h"
    keys = ("bc", "n_interior", "T", steps, "initial", "solver", "snapshot_stride")
    cfg = {"preset": preset}
    for key in keys + _PRESET_FIELDS[preset]:
        if key in ("bc", "n_interior", "T", steps, "initial", "beta") or draw(st.booleans()):
            cfg[key] = draw(st.sampled_from(_VALID_FIELDS[key]))
    for key in draw(st.lists(st.sampled_from(sorted(_INVALID_FIELDS)), max_size=2)):
        value = draw(st.sampled_from(_INVALID_FIELDS[key]))
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    return cfg


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), command=st.sampled_from(["run", "sweep", "energy-audit", "oracle-check"]),
       stride_flag=st.sampled_from([None, None, 0, 2, -1]))
def test_random_config_exits_cleanly_with_strict_json(data, command, stride_flag):
    cfg = data.draw(random_configs(command))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as f:
            json.dump(cfg, f)
        out = os.path.join(tmp, "out")
        argv = [command, "--config", path, "--out", out]
        if stride_flag is not None and command == "run":
            argv += ["--snapshot-stride", str(stride_flag)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(argv)  # an escaping exception fails the test
        assert rc in (0, 1, 2)
        written = os.listdir(out) if os.path.isdir(out) else []
        if rc == 1:
            assert all(line.startswith("config error: ")
                       for line in err.getvalue().splitlines())
            assert written == []
        for name in written:
            if name.endswith(".json"):
                with open(os.path.join(out, name)) as f:
                    json.loads(f.read(), parse_constant=_reject_constant)
            if rc == 0 and name.endswith(".csv"):
                _, columns, rows = read_csv(os.path.join(out, name))
                numeric = [j for j, col in enumerate(columns) if col != "field"]
                for row in rows:
                    assert all(math.isfinite(float(row[j])) for j in numeric), (name, row)


def test_validate_rejects_non_integer_step_count():
    cfg = base_config(h=0.03)
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_run_zero_data(tmp_path):
    cfg = base_config(initial={"profile": "zero"})
    rc = main(["run", "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    comments, columns, rows = read_csv(tmp_path / "out" / "energy.csv")
    assert columns == ["n", "t", "kinetic", "elastic", "thermal", "potential",
                       "dissipation_b1", "dissipation_cross", "identity_residual"]
    assert len(rows) == 9
    for row in rows:
        assert all(float(x) == 0.0 for x in row[2:])
    assert any("coupling_bound" in c for c in comments)
    assert any("h_threshold" in c for c in comments)
    assert any("config:" in c for c in comments)


def test_run_energy_decay_and_outputs(tmp_path):
    cfg = base_config(pi=None)
    cfg.pop("pi", None)
    rc = main(["run", "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path / "out"), "--snapshot-stride", "4"])
    assert rc == 0
    _, cols, rows = read_csv(tmp_path / "out" / "energy.csv")
    loop = [sum(float(x) for x in row[2:6]) for row in rows]
    assert all(b <= a + 1e-10 for a, b in zip(loop, loop[1:]))
    assert (tmp_path / "out" / "steps.csv").exists()
    assert (tmp_path / "out" / "snapshots.csv").exists()
    meta = json.loads((tmp_path / "out" / "run.json").read_text())
    assert meta["complete"] is True
    assert meta["failure_index"] is None
    _, scols, srows = read_csv(tmp_path / "out" / "snapshots.csv")
    assert scols[:3] == ["n", "t", "field"]
    assert {r[2] for r in srows} == {"theta", "phi", "v", "z"}


def test_run_byte_deterministic(tmp_path):
    cfg = base_config()
    cpath = write_config(tmp_path, cfg)
    main(["run", "--config", cpath, "--out", str(tmp_path / "a"), "--snapshot-stride", "2"])
    main(["run", "--config", cpath, "--out", str(tmp_path / "b"), "--snapshot-stride", "2"])
    for name in ("energy.csv", "steps.csv", "snapshots.csv", "run.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_divergence_exit_code(tmp_path, capsys):
    # h above h_threshold; then valid steps below it whose data overflows
    # in Newton's first residual (1e103) or in the step's right-hand side
    # (1e307): each fails step 0 with partial outputs and one error line
    # naming the cause, not a bare exit 2
    newton, resolvent = "Newton did not converge", "resolvent residual audit failed"
    cases = [("run", 0.75, 1.5, 1e8, {"newton_max_iter": 6}, newton),
             ("run", 0.01, 0.02, 1e103, {}, newton),
             ("run", 0.01, 0.02, 1e307, {}, resolvent),
             ("energy-audit", 0.01, 0.02, 1e103, {}, newton)]
    files = {"run": ("energy.csv", "steps.csv", "run.json"),
             "energy-audit": ("audit.csv", "audit.json")}
    for k, (command, h, T, amp, solver, cause) in enumerate(cases):
        cfg = base_config(
            h=h, T=T, n_interior=16,
            beta={"kind": "cubic", "scale": 100.0},
            initial={"profile": "single_mode", "mode": 1, "theta_amp": amp,
                     "phi_amp": amp, "v_amp": amp},
            solver=solver,
        )
        out = tmp_path / f"out{k}"
        capsys.readouterr()
        with pytest.warns(RuntimeWarning):
            rc = main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and errors[0].startswith(f"error: {cause}"), err
        assert "at step 0" in errors[0], err
        assert "Traceback" not in err
        assert all((out / name).exists() for name in files[command])
        meta = json.loads((out / files[command][-1]).read_text())
        assert meta["complete"] is False
        assert meta["failure_index"] == 0


@pytest.mark.parametrize("cfg, message", [
    ({"preset": "nope"}, "config error: preset: "),
    ([base_config()], "config error: config: expected a JSON object, got list"),
], ids=["unknown-preset", "json-list"])
def test_bad_config_exit_code(tmp_path, capsys, cfg, message):
    rc = main(["run", "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert message in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    rc = main(["run", "--config", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 1


def test_run_energy_csv_evaluates_energy_once_per_state(tmp_path, energy_calls):
    rc = main(["run", "--config", write_config(tmp_path, base_config()),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    _, _, rows = read_csv(tmp_path / "out" / "energy.csv")
    assert len(energy_calls) == len(rows) == 9  # one row per state, T / h = 8 steps


def test_energy_audit_evaluates_energy_once_per_state(tmp_path, energy_calls):
    rc = main(["energy-audit", "--config", write_config(tmp_path, base_config()),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    _, _, rows = read_csv(tmp_path / "out" / "audit.csv")
    assert len(energy_calls) == len(rows) + 1


def test_sweep_outputs(tmp_path):
    cfg = base_config()
    del cfg["h"]
    cfg["h_list"] = [1.0 / 16, 1.0 / 32, 1.0 / 64]
    cfg["initial"] = {"profile": "single_mode", "mode": 1, "theta_amp": 0.5,
                      "phi_amp": 0.5, "v_amp": 0.0}
    rc = main(["sweep", "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    meta = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert meta["fitted_order"] >= 0.45
    assert meta["fitted_M"] > 0
    _, cols, rows = read_csv(tmp_path / "out" / "sweep.csv")
    assert cols == ["h", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "total"]
    assert len(rows) == 3


def test_sweep_divergence_exit_code(tmp_path):
    cfg = base_config(
        T=3.0, n_interior=16,
        beta={"kind": "cubic", "scale": 100.0},
        initial={"profile": "single_mode", "mode": 1, "theta_amp": 1e8,
                 "phi_amp": 1e8, "v_amp": 1e8},
    )
    del cfg["h"]
    cfg["h_list"] = [1.5, 0.75]
    rc = main(["sweep", "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2


def test_sweep_byte_deterministic(tmp_path):
    cfg = base_config()
    del cfg["h"]
    cfg["h_list"] = [1.0 / 16, 1.0 / 32]
    cfg["initial"] = {"profile": "single_mode", "mode": 1, "theta_amp": 0.5,
                      "phi_amp": 0.5, "v_amp": 0.0}
    cpath = write_config(tmp_path, cfg)
    main(["sweep", "--config", cpath, "--out", str(tmp_path / "a")])
    main(["sweep", "--config", cpath, "--out", str(tmp_path / "b")])
    for name in ("sweep.csv", "sweep.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_sweep_members_run_with_the_solver_settings(tmp_path):
    """One Newton iteration cannot meet the tolerance on this cubic problem,
    so the sweep diverges where the default solver completes."""
    cfg = base_config(n_interior=16, T=0.25)
    del cfg["h"]
    cfg["h_list"] = [1.0 / 16, 1.0 / 32]
    rc = main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "a")])
    assert rc == 0
    cfg["solver"] = {"newton_max_iter": 1}
    resolved = validate_config(cfg, need_h_list=True)
    assert [(c.h, c.newton_max_iter) for c in resolved["_cfgs"]] == [(1 / 16, 1), (1 / 32, 1)]
    rc = main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "b")])
    assert rc == 2
    meta = json.loads((tmp_path / "b" / "sweep.json").read_text())
    assert meta["complete"] is False and meta["diverged_h"] == 1 / 16


def test_sweep_requires_h_list(tmp_path):
    cfg = base_config()
    rc = main(["sweep", "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 1


def test_energy_audit_checked_mode(tmp_path):
    cfg = base_config(initial={"profile": "single_mode", "mode": 1,
                               "theta_amp": 0.5, "phi_amp": 0.5, "v_amp": 0.0})
    rc = main(["energy-audit", "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    meta = json.loads((tmp_path / "out" / "audit.json").read_text())
    assert meta["pi_zero"] is True
    assert meta["lyapunov_mode"] == "checked"
    assert meta["lyapunov_violations"] == []
    assert meta["max_identity_residual"] <= 1e-10


def test_energy_audit_monitor_mode(tmp_path):
    cfg = base_config(pi={"kind": "scaled_sine", "amplitude": 0.5})
    rc = main(["energy-audit", "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    meta = json.loads((tmp_path / "out" / "audit.json").read_text())
    assert meta["lyapunov_mode"] == "monitor_only"
    _, cols, rows = read_csv(tmp_path / "out" / "audit.csv")
    assert "pi_source_term" in cols


@pytest.mark.parametrize("amplitude", [0.5, 0.0])
def test_energy_audit_pi_source_term(tmp_path, amplitude):
    pi = {"kind": "scaled_sine", "amplitude": amplitude} if amplitude else {"kind": "zero"}
    cfg = base_config(pi=pi)
    rc = main(["energy-audit", "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    _, cols, rows = read_csv(tmp_path / "out" / "audit.csv")
    grid, bundle, nonlin, initial, step_cfg = build_problem(validate_config(cfg))
    states = run(initial, bundle, nonlin, cfg["T"], step_cfg).states
    assert len(rows) == len(states) - 1
    j = cols.index("pi_source_term")
    for row, s in zip(rows, states[1:]):
        got = float(row[j])
        if amplitude == 0.0:
            assert got == 0.0
        else:
            want = cfg["h"] * grid.dx * math.fsum(amplitude * math.sin(p) * v
                                                  for p, v in zip(s.phi, s.v))
            assert abs(got - want) <= 1e-13 * abs(want)


def test_oracle_check_linear(tmp_path):
    cfg = {
        "preset": "P1", "n_interior": 24, "T": 0.125, "h": 1.0 / 64, "m": 0.5,
        "initial": {"profile": "single_mode", "mode": 1, "theta_amp": 1.0,
                    "phi_amp": 1.0, "v_amp": 0.0},
    }
    rc = main(["oracle-check", "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    _, cols, rows = read_csv(tmp_path / "out" / "oracle.csv")
    assert cols == ["t", "theta_dev", "phi_dev", "v_dev"]
    assert all(float(x) == 0.0 for x in rows[0][1:])  # exact at t = 0
    meta = json.loads((tmp_path / "out" / "oracle.json").read_text())
    assert meta["max_deviation"] < 0.1


def test_oracle_check_rejects_nonlinear(tmp_path, capsys):
    cfg = base_config()
    rc = main(["oracle-check", "--config", write_config(tmp_path, cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "linear" in capsys.readouterr().err


def test_oracle_check_nonlinear_leaves_no_out_directory(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["oracle-check", "--config", write_config(tmp_path, base_config()),
               "--out", str(out)])
    assert rc == 1
    assert ("config error: beta/pi: oracle-check needs a linear configuration"
            in capsys.readouterr().err)
    assert not out.exists()


def test_header_embeds_resolved_config(tmp_path):
    cfg = base_config(initial={"profile": "zero"})
    cpath = write_config(tmp_path, cfg)
    main(["run", "--config", cpath, "--out", str(tmp_path / "out")])
    comments, _, _ = read_csv(tmp_path / "out" / "energy.csv")
    blob = next(c for c in comments if "config:" in c)
    embedded = json.loads(blob.split("config: ", 1)[1])
    assert embedded["preset"] == "P2"
    assert embedded["h"] == cfg["h"]
    assert embedded["solver"]["newton_tol"] == 1e-12


@pytest.mark.parametrize("command,files", [
    ("run", ("energy.csv", "steps.csv", "run.json")),
    ("energy-audit", ("audit.csv", "audit.json")),
])
def test_step_audit_failure_writes_partial_outputs(tmp_path, monkeypatch, capsys, command,
                                                  files):
    import thermowave.stepper as stepper
    # a phi+ off the solution Newton accepted fails P3's first audit at n = 1024
    real_stages = stepper._stages

    def perturbed(*args):
        phi, iters, res, terms = real_stages(*args)
        return phi + 1.0, iters, res, terms

    monkeypatch.setattr(stepper, "_stages", perturbed)
    cfg = base_config(preset="P3", n_interior=1024, h=1.0 / 256, T=8.0 / 256,
                      initial={"profile": "random_smooth", "seed": 7})
    out = tmp_path / "out"
    rc = main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert rc == 2
    assert "error: scheme residual audit failed at step 0" in capsys.readouterr().err
    for name in files:
        assert (out / name).exists()
    meta = json.loads((out / files[-1]).read_text())
    assert meta["complete"] is False
    assert meta["failure_index"] == 0


# P2 cubic Dirichlet, random_smooth seed 3, T = 1/4, one Newton iteration:
# (n_interior, 1/h, newton_tol) of the configs with n_interior in {16, 64,
# 256}, 1/h in {64, 256} and newton_tol from 1e-3 to 1e-8 whose one iterate
# lies within newton_tol (1 + |g|) but outside the step audit's bound
CAPPED_NEWTON_CASES = [(16, 64, 1e-6), (16, 256, 1e-8), (64, 64, 1e-4), (64, 64, 1e-5),
                       (64, 64, 1e-6), (64, 256, 1e-8), (256, 64, 1e-5), (256, 64, 1e-6),
                       (256, 256, 1e-8)]


@pytest.mark.parametrize("n, steps_per_unit, tol", CAPPED_NEWTON_CASES)
def test_a_capped_newton_that_misses_the_audits_bound_fails_in_newton(tmp_path, capsys, n,
                                                                      steps_per_unit, tol):
    # Newton accepts only an iterate the step audit passes, so the step
    # fails in Newton, naming the residual allowed and the cap
    cfg = base_config(n_interior=n, T=0.25, h=1.0 / steps_per_unit,
                      initial={"profile": "random_smooth", "seed": 3},
                      solver={"newton_tol": tol, "newton_max_iter": 1})
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error: ")]
    assert len(errors) == 1, errors
    assert errors[0].startswith("error: Newton did not converge in 1 iterations (last residual ")
    assert " above the allowed " in errors[0]
    assert errors[0].endswith(" at newton_max_iter 1) at step 0"), errors
    assert json.loads((out / "run.json").read_text())["failure_index"] == 0


@pytest.mark.parametrize("kind", ["member", "reference"])
def test_sweep_divergence_error_line_names_its_cause(tmp_path, capsys, kind):
    # a cubic member with a one-iteration Newton budget; a fine reference
    # whose data overflows in Newton's first residual
    if kind == "member":
        cfg = base_config(n_interior=16, T=0.25, initial={"profile": "random_smooth", "seed": 4},
                          solver={"newton_max_iter": 1})
        h_list, line = [0.25, 0.125], "error: sweep member h = 0.25 diverged: "
        cause = "Newton did not converge in 1 iterations"
    else:
        cfg = base_config(n_interior=16, T=0.02, beta={"kind": "cubic", "scale": 100.0},
                          initial={"profile": "single_mode", "mode": 1, "theta_amp": 1e103,
                                   "phi_amp": 1e103, "v_amp": 1e103})
        h_list, line = [0.01, 0.005], "error: fine reference h = 0.00015625 diverged: "
        cause = "Newton did not converge in 0 iterations (last residual inf)"
    del cfg["h"]
    cfg["h_list"] = h_list
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # h above threshold; overflow
        rc = main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert rc == 2
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error: ")]
    assert len(errors) == 1 and errors[0].startswith(line + cause), errors
    assert errors[0].endswith(" at step 0")
    meta = json.loads((out / "sweep.json").read_text())
    assert meta["complete"] is False and meta["failure_index"] == 0


def test_sweep_reference_divergence_writes_partial_outputs(tmp_path, monkeypatch, capsys):
    import thermowave.stepper as stepper
    real_step = stepper.step
    h_list = [1.0 / 16, 1.0 / 32]

    def failing_reference(state, bundle, nonlin, cfg, plan=None):
        if cfg.h < h_list[-1] and state.t_index == 5:
            raise stepper.NewtonDivergedError(cfg.newton_max_iter, 1.0)
        return real_step(state, bundle, nonlin, cfg, plan)

    monkeypatch.setattr(stepper, "step", failing_reference)
    cfg = base_config()
    del cfg["h"]
    cfg["h_list"] = h_list
    out = tmp_path / "out"
    rc = main(["sweep", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert rc == 2
    assert "error: fine reference" in capsys.readouterr().err
    meta = json.loads((out / "sweep.json").read_text())
    assert meta["complete"] is False
    assert meta["reference"] == "fine_step"
    assert meta["failure_index"] == 5
    assert meta["diverged_h"] == h_list[-1] / 32
    _, _, rows = read_csv(out / "sweep.csv")
    assert rows == []


def test_non_finite_output_value_exits_2(tmp_path, monkeypatch, capsys):
    import thermowave.cli as cli
    real_meta = cli._json_meta

    def meta_with_nan(*args):
        payload = real_meta(*args)
        payload["coupling_bound"] = float("nan")
        return payload

    monkeypatch.setattr(cli, "_json_meta", meta_with_nan)
    out = tmp_path / "out"
    rc = main(["run", "--config", write_config(tmp_path, base_config()), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: run.json not written") and "Traceback" not in err
    assert not (out / "run.json").exists()


# ----------------------------------------------------------------------
# the output contract, the same for every command

def _command_configs():
    sweep = base_config(initial={"profile": "single_mode", "mode": 1, "theta_amp": 0.5,
                                 "phi_amp": 0.5, "v_amp": 0.0})
    del sweep["h"]
    sweep["h_list"] = [1.0 / 16, 1.0 / 32]
    oracle = {"preset": "P1", "n_interior": 24, "T": 0.125, "h": 1.0 / 64, "m": 0.5,
              "initial": {"profile": "random_smooth", "seed": 2}}
    return {"run": (base_config(snapshot_stride=3), ("energy.csv", "steps.csv", "snapshots.csv"),
                    "run.json"),
            "sweep": (sweep, ("sweep.csv",), "sweep.json"),
            "energy-audit": (base_config(), ("audit.csv",), "audit.json"),
            "oracle-check": (oracle, ("oracle.csv",), "oracle.json")}


@pytest.mark.parametrize("command", ["energy-audit", "oracle-check"])
def test_byte_deterministic(tmp_path, command):
    cfg, tables, summary = _command_configs()[command]
    cpath = write_config(tmp_path, cfg)
    for out in ("a", "b"):
        assert main([command, "--config", cpath, "--out", str(tmp_path / out)]) == 0
    for name in tables + (summary,):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("command", ["run", "sweep", "energy-audit", "oracle-check"])
def test_csv_headers_carry_the_json_summary_meta(tmp_path, monkeypatch, command):
    meta_calls = []
    real_meta = cli._json_meta

    def counted(*args):
        meta_calls.append(args)
        return real_meta(*args)

    monkeypatch.setattr(cli, "_json_meta", counted)
    cfg, tables, summary = _command_configs()[command]
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    assert len(meta_calls) == 1
    meta = json.loads((out / summary).read_text())
    assert sorted(os.listdir(out)) == sorted(tables + (summary,))
    for name in tables:
        comments, _, _ = read_csv(out / name)
        header = dict(line[2:].split(": ", 1) for line in comments)
        assert sorted(header) == ["config", "coupling_bound", "h_threshold"]
        assert json.loads(header["config"]) == meta["config"]
        assert float(header["coupling_bound"]) == meta["coupling_bound"]
        assert float(header["h_threshold"]) == meta["h_threshold"]


@pytest.mark.parametrize("argv", [
    ["run", "--config", "cfg.json"],
    ["bogus", "--config", "cfg.json", "--out", "out"],
    [],
    ["run", "--config", "cfg.json", "--out", "out", "--snapshot-stride", "x"],
    ["run", "--config", "cfg.json", "--out", "out", "--unknown"],
])
def test_usage_errors_exit_1(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, base_config(), name="cfg.json")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: thermowave") and "error: " in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
def test_help_exits_0(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: thermowave")


@pytest.mark.parametrize("under", [False, True])
def test_out_that_cannot_be_created_exits_1(tmp_path, capsys, under):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    out = blocker / "out" if under else blocker
    rc = main(["run", "--config", write_config(tmp_path, base_config()), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: --out: "), err
    assert blocker.read_text() == "not a directory\n"
    assert sorted(os.listdir(tmp_path)) == ["blocker", "config.json"]


def test_config_that_is_not_utf8_exits_1(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"preset": "P2\xff"}')
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,steps,message", [
    ("run", {"T": 1.0, "h": 1e-150}, "h: 1e+150 steps, more than the limit of 1e+07"),
    ("sweep", {"T": 1.0, "h_list": [1e-6, 5e-7]},
     "h_list: 6.7e+07 steps, more than the limit of 1e+07"),
    ("run", {"T": 1e300, "h": 1e-100},
     "h: h = 1e-100 divides T = 1e+300 into more steps than a float can count")],
    ids=["run", "sweep", "overflow"])
def test_step_count_beyond_the_limit_exits_1_at_once(tmp_path, capsys, command, steps, message):
    # 1/h^2 is finite at h = 1e-150, so StepConfig takes it; 1e150 steps
    # would never end.  A sweep counts its members and the fine reference
    # at h_min / 32: 1e6 + 2e6 + 6.4e7 steps.  T / h may even overflow.
    cfg = {k: v for k, v in base_config().items() if k != "h"}
    cfg.update(steps)
    out = tmp_path / "out"
    start = time.perf_counter()
    rc = main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
    assert not out.exists()


def test_step_limit_admits_the_largest_count():
    cfg = base_config(T=1.0, h=1.0 / cli.MAX_STEPS)
    assert validate_config(cfg)["_cfg"].h == 1.0 / cli.MAX_STEPS
    with pytest.raises(ConfigError, match="more than the limit"):
        validate_config(base_config(T=1.0, h=1.0 / (cli.MAX_STEPS + 1)))


@pytest.mark.parametrize("cfg,message", [
    (base_config(c=1e200), "c: c must be small enough that c^2 is finite, got 1e+200"),
    (base_config(initial={"profile": "random_smooth", "seed": 3, "amplitude": 1e308}),
     "initial: the random_smooth profile overflows to non-finite data; "
     "its amplitudes are too large"),
    (base_config(n_interior=1e12), "n_interior: 1e+12 unknowns, more than the limit of 16384"),
    (base_config(c=1e80),
     "c: h_threshold is not finite; (gamma - 1) * coupling_bound = 1e+160 is too large"),
    (base_config(c=1e140),
     "c: h_threshold is not finite; (gamma - 1) * coupling_bound = 1e+280 is too large"),
    (base_config(c=1e154), "c: the coupling bound is not finite; c is too large for this grid"),
    (base_config(gamma=1e300),
     "gamma: h_threshold is not finite; (gamma - 1) * coupling_bound = 1e+300 is too large"),
    ({"preset": "P1", "n_interior": 24, "T": 0.125, "h": 1.0 / 64, "m": 1e200},
     "m: m must be small enough that m^2 is finite, got 1e+200"),
    (base_config(T=1.0 / 16, epsilon=1e300, initial={"profile": "random_smooth", "seed": 1}),
     "epsilon: h * |damping| = 1.56e+298 is too large; its square must be finite")],
    ids=["c", "initial", "n_interior", "c-1e80", "c-1e140", "c-1e154", "gamma-1e300", "m-1e200",
         "epsilon-1e300"])
def test_values_beyond_the_float_or_size_range_exit_1(tmp_path, capsys, cfg, message):
    # c^2 or m^2 overflows in ProblemPreset, the coupling bound (c^2 / dx^2)
    # or h_threshold (which squares (gamma - 1) * coupling_bound) in the
    # derived constants of the header, the data overflow to inf in
    # synthesis, and 1e12 unknowns cannot be allocated; no warning may
    # escape either
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("command,summary", [("energy-audit", "audit.json"),
                                             ("oracle-check", "oracle.json")])
def test_error_line_names_the_step_failure_behind_an_unwritten_summary(tmp_path, capsys,
                                                                       command, summary):
    # h = 1/64 is above h_threshold with this pi: the run diverges at step
    # 456, by when the summary's largest residual or deviation is inf
    cfg = {"preset": "P2", "n_interior": 16, "T": 8.0, "h": 1.0 / 64,
           "pi": {"kind": "linear", "slope": -1e4},
           "initial": {"profile": "random_smooth", "seed": 7}}
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert rc == 2
    assert [line for line in capsys.readouterr().err.splitlines() if "error" in line] == [
        "error: Newton did not converge in 0 iterations (last residual inf) at step 456; "
        f"{summary} not written: Out of range float values are not JSON compliant: inf"]
    assert not (out / summary).exists()


def test_unknowns_limit_admits_the_largest_grid():
    zero = {"profile": "zero"}
    cfg = base_config(n_interior=cli.MAX_UNKNOWNS, initial=zero)
    assert validate_config(cfg)["_grid"].n_interior == cli.MAX_UNKNOWNS
    with pytest.raises(ConfigError, match="more than the limit"):
        validate_config(base_config(n_interior=cli.MAX_UNKNOWNS + 1, initial=zero))


def test_python_m_thermowave_exit_codes(tmp_path):
    """Each command on a 16-point config exits 0; a missing --out, an unknown
    command and an --out naming a file exit 1; none prints a traceback."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    calls = []
    for command, (cfg, _, _) in _command_configs().items():
        cfg = dict(cfg, n_interior=16)
        cpath = write_config(tmp_path, cfg, name=f"{command}.json")
        calls.append(([command, "--config", cpath, "--out", str(tmp_path / command)], 0))
    cpath = str(tmp_path / "run.json")
    calls += [(["run", "--config", cpath], 1),
              (["bogus", "--config", cpath, "--out", str(tmp_path / "bogus")], 1),
              (["run", "--config", cpath, "--out", str(blocker)], 1)]
    for argv, want in calls:
        proc = subprocess.run([sys.executable, "-m", "thermowave", *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == want, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr, (argv, proc.stderr)
