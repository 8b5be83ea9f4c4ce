import json
import os

import numpy as np
import pytest

from thermowave.cli import ConfigError, main, validate_config


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


def test_run_divergence_exit_code(tmp_path):
    cfg = base_config(
        h=0.75, T=1.5, n_interior=16,
        beta={"kind": "cubic", "scale": 100.0},
        initial={"profile": "single_mode", "mode": 1, "theta_amp": 1e8,
                 "phi_amp": 1e8, "v_amp": 1e8},
        solver={"newton_max_iter": 6},
    )
    with pytest.warns(RuntimeWarning):
        rc = main(["run", "--config", write_config(tmp_path, cfg),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    meta = json.loads((tmp_path / "out" / "run.json").read_text())
    assert meta["complete"] is False
    assert meta["failure_index"] == 0


def test_bad_config_exit_code(tmp_path, capsys):
    rc = main(["run", "--config", write_config(tmp_path, {"preset": "nope"}),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    rc = main(["run", "--config", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 1


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
def test_step_audit_failure_writes_partial_outputs(tmp_path, monkeypatch, command, files):
    import thermowave.stepper as stepper
    # without the rounding floors the audit rejects P3's first step at n = 1024
    monkeypatch.setattr(stepper, "_EPS", 0.0)
    cfg = base_config(preset="P3", n_interior=1024, h=1.0 / 256, T=8.0 / 256,
                      initial={"profile": "random_smooth", "seed": 7})
    out = tmp_path / "out"
    rc = main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert rc == 2
    for name in files:
        assert (out / name).exists()
    meta = json.loads((out / files[-1]).read_text())
    assert meta["complete"] is False
    assert meta["failure_index"] == 0


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
