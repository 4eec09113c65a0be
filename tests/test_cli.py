import json

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import CIRCULANT_MATRIX
from privsig import cli as cli_mod
from privsig import solve as solve_mod
from privsig import sweep as sweep_mod
from privsig.cli import EXIT_CONFIG, EXIT_NO_CONVERGENCE, main
from privsig.config import load_config_file, receiver_policy_to_json, sender_policy_to_json
from privsig.game import ReceiverPolicy, SenderPolicy, expected_distortion, leakage
from privsig.multi import MultiReceiverPolicy
from privsig.prob import JointPXZW


@pytest.fixture
def runner():
    return CliRunner()


def all_text(result) -> str:
    text = result.output
    try:
        text += result.stderr
    except (ValueError, AttributeError):
        pass
    return text


def circulant_config(tmp_path, name="game.json", **overrides):
    doc = {
        "schema_version": 1,
        "x_size": 5,
        "w_size": 5,
        "y_size": 5,
        "joint": JointPXZW.from_xw_matrix(CIRCULANT_MATRIX).p.tolist(),
        "rho": 0.5,
        "dynamics": {"epsilon": 0.01},
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def failing_dynamics(after=0):
    """thresholded_dynamics that runs `after` times, then raises as it does
    when play exceeds its round bound."""
    calls = []
    inner = sweep_mod.thresholded_dynamics

    def run(*args):
        calls.append(1)
        if len(calls) > after:
            raise RuntimeError("thresholded play exceeded its round bound 7")
        return inner(*args)

    return run


def assert_no_convergence_exit(result):
    assert result.exit_code == EXIT_NO_CONVERGENCE, all_text(result)
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in all_text(result)
    assert "error: thresholded play exceeded its round bound 7" in result.stderr


def binary_multi_config(tmp_path, name="multi.json", **overrides):
    p = np.zeros((2, 2, 2, 2, 2))
    for x in range(2):
        for w1 in range(2):
            for w2 in range(2):
                f1 = 0.8 if w1 == x else 0.2
                f2 = 0.8 if w2 == x else 0.2
                p[x, x, x, w1, w2] = 0.5 * f1 * f2
    doc = {
        "schema_version": 1,
        "mode": "multi",
        "x_size": 2,
        "n": 2,
        "w_sizes": [2, 2],
        "y_sizes": [2, 2],
        "joint": p.tolist(),
        "rho": 0.3,
        "dynamics": {"epsilon": 0.05},
        "seed": 11,
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ----------------------------------------------------------------- validate


def test_validate_accepts_bundled_preset(runner):
    result = runner.invoke(main, ["validate", "--config", "circulant5"])
    assert result.exit_code == 0
    assert "config OK" in result.output
    assert "5x5x5" in result.output


def test_validate_rejects_bad_config(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"schema_version": 1, "x_size": 5, "rho": -2}))
    result = runner.invoke(main, ["validate", "--config", str(path)])
    assert result.exit_code == EXIT_CONFIG
    assert "error:" in all_text(result)


@pytest.mark.parametrize("command", ["validate", "solve"])
def test_nan_rho_is_a_config_error(runner, tmp_path, command):
    cfg = circulant_config(tmp_path, rho=float("nan"))  # json.dumps writes NaN
    out = tmp_path / "o"
    args = [command, "--config", cfg] + (["--out", str(out)] if command == "solve" else [])
    result = runner.invoke(main, args)
    assert result.exit_code == EXIT_CONFIG, all_text(result)
    assert "error: rho: expected a finite number" in all_text(result)
    assert not out.exists()


def test_validate_unknown_preset(runner):
    result = runner.invoke(main, ["validate", "--config", "no_such_preset"])
    assert result.exit_code == EXIT_CONFIG
    assert "neither a file nor a bundled preset" in all_text(result)


def test_missing_config_option_is_a_usage_error(runner):
    result = runner.invoke(main, ["solve"])
    assert result.exit_code == 2


# -------------------------------------------------------------------- solve


def test_solve_writes_equilibrium_outputs(runner, tmp_path):
    cfg = circulant_config(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, ["solve", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, all_text(result)
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["member"] is True
    assert report["rho"] == 0.5
    assert report["expected_distortion"] == pytest.approx(0.0704, abs=2e-3)
    assert (out / "alpha.json").exists() and (out / "beta.json").exists()
    assert "distortion=" in result.output


def test_solve_explicit_needs_as_many_messages_as_states(runner, tmp_path):
    cfg = circulant_config(tmp_path, y_size=4)
    out = tmp_path / "out"
    result = runner.invoke(main, ["solve", "--config", cfg, "--out", str(out)])
    assert result.exit_code == EXIT_CONFIG, all_text(result)
    assert "Traceback" not in all_text(result)
    assert "error: explicit construction needs message alphabet = state alphabet" in result.stderr
    assert not (out / "report.json").exists()


def test_solve_alphabet_error_leaves_no_output_directory(runner, tmp_path):
    # the alphabets are checked before anything is written, so the failed
    # command leaves no empty --out behind
    cfg = circulant_config(tmp_path, y_size=4)
    out = tmp_path / "out"
    result = runner.invoke(main, ["solve", "--config", cfg, "--out", str(out)])
    assert result.exit_code == EXIT_CONFIG == 2, all_text(result)
    assert not out.exists()


def test_solve_is_deterministic(runner, tmp_path):
    cfg = circulant_config(tmp_path)
    first, second = tmp_path / "a", tmp_path / "b"
    assert runner.invoke(main, ["solve", "--config", cfg, "--out", str(first)]).exit_code == 0
    assert runner.invoke(main, ["solve", "--config", cfg, "--out", str(second)]).exit_code == 0
    assert (first / "alpha.json").read_bytes() == (second / "alpha.json").read_bytes()
    assert (first / "beta.json").read_bytes() == (second / "beta.json").read_bytes()


def test_solve_explicit_solves_one_best_response(runner, tmp_path, monkeypatch):
    cfg_path = circulant_config(tmp_path)
    calls = []
    inner = solve_mod._minimize_over_blocks

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(solve_mod, "_minimize_over_blocks", counted)
    out = tmp_path / "out"
    result = runner.invoke(main, ["solve", "--config", cfg_path, "--out", str(out)])
    assert result.exit_code == 0, all_text(result)
    assert len(calls) == 1
    report = json.loads((out / "report.json").read_text())

    # the same numbers as solving the equilibrium, its best response and the
    # check separately through the public functions
    cfg = load_config_file(cfg_path)
    g = cfg.build_single(cfg.scalar_rho())
    alpha, beta = solve_mod.explicit_equilibrium(g, cfg.solver)
    br = solve_mod.sender_best_response(g, beta, cfg.solver)
    check = solve_mod.epsilon_nash_check(g, alpha, beta, cfg.dynamics.epsilon, cfg.solver)
    assert report["member"] == check.member
    assert report["sender_gap"] == check.sender_gap
    assert report["receiver_gap"] == check.receiver_gap
    assert report["sender_stationarity_gap"] == check.sender_stationarity_gap
    assert report["iterations"] == br.iterations
    assert report["converged"] == br.converged
    assert report["expected_distortion"] == expected_distortion(g, alpha, beta)
    assert report["leakage_nats"] == leakage(g, alpha)


def test_solve_requires_scalar_rho(runner, tmp_path):
    cfg = circulant_config(tmp_path, rho={"start": 0.0, "stop": 1.0, "steps": 3})
    result = runner.invoke(main, ["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert result.exit_code == EXIT_CONFIG
    assert "scalar" in all_text(result)


def test_solve_via_dynamics_method(runner, tmp_path):
    cfg = circulant_config(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["solve", "--config", cfg, "--out", str(out), "--method", "dynamics"]
    )
    assert result.exit_code == 0, all_text(result)
    report = json.loads((out / "report.json").read_text())
    assert report["method"] == "dynamics"
    assert report["member"] is True


def test_solve_via_dynamics_round_bound_error_exits_3(runner, tmp_path, monkeypatch):
    monkeypatch.setattr(cli_mod, "thresholded_dynamics", failing_dynamics())
    cfg = circulant_config(tmp_path)
    result = runner.invoke(
        main, ["solve", "--config", cfg, "--out", str(tmp_path / "o"), "--method", "dynamics"]
    )
    assert_no_convergence_exit(result)


# ----------------------------------------------------------------- dynamics


def test_dynamics_writes_trajectory(runner, tmp_path):
    cfg = circulant_config(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, ["dynamics", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, all_text(result)
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "k,mover,potential,sender_cost,receiver_cost,accepted"
    assert lines[1].startswith("0,none,")
    assert lines[1].endswith(",true")
    report = json.loads((out / "report.json").read_text())
    assert report["reached_eps_nash"] is True
    assert report["iteration_bound"] >= report["iterations_used"]
    assert "bound" in result.output


def test_dynamics_plain_round_cap_exits_nonzero(runner, tmp_path):
    cfg = circulant_config(tmp_path, dynamics={"variant": "plain", "max_rounds": 1})
    out = tmp_path / "out"
    result = runner.invoke(main, ["dynamics", "--config", cfg, "--out", str(out)])
    assert result.exit_code == EXIT_NO_CONVERGENCE
    assert "did not reach" in all_text(result)
    # outputs are still written for inspection
    assert (out / "trajectory.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["reached_eps_nash"] is False
    assert report["iteration_bound"] is None


def test_dynamics_log_base_override(runner, tmp_path):
    cfg = circulant_config(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["dynamics", "--config", cfg, "--out", str(out), "--log-base", "bits"]
    )
    assert result.exit_code == 0, all_text(result)
    assert json.loads((out / "report.json").read_text())["log_base"] == "bits"


def test_dynamics_round_bound_error_exits_3(runner, tmp_path, monkeypatch):
    monkeypatch.setattr(cli_mod, "thresholded_dynamics", failing_dynamics())
    cfg = circulant_config(tmp_path)
    result = runner.invoke(
        main,
        ["dynamics", "--config", cfg, "--out", str(tmp_path / "o"), "--variant", "thresholded"],
    )
    assert_no_convergence_exit(result)


# -------------------------------------------------------------------- multi


def test_multi_writes_per_sender_policies(runner, tmp_path):
    cfg = binary_multi_config(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, ["multi", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, all_text(result)
    for name in ("alpha_1.json", "alpha_2.json", "beta.json", "trajectory.csv"):
        assert (out / name).exists()
    report = json.loads((out / "report.json").read_text())
    assert report["n"] == 2
    assert report["member"] is True
    assert len(report["coalition_leakage_nats"]) == 2
    assert len(report["sender_gaps"]) == 2
    # each sender gap is exact up to its best response's certificate
    assert len(report["sender_stationarity_gaps"]) == 2
    assert all(0.0 <= gap <= 1e-8 for gap in report["sender_stationarity_gaps"])


def test_multi_same_seed_same_trajectory(runner, tmp_path):
    cfg = binary_multi_config(tmp_path)
    one, two = tmp_path / "one", tmp_path / "two"
    for out in (one, two):
        assert (
            runner.invoke(
                main, ["multi", "--config", cfg, "--out", str(out), "--seed", "3"]
            ).exit_code
            == 0
        )
    assert (one / "trajectory.csv").read_bytes() == (two / "trajectory.csv").read_bytes()


# -------------------------------------------------------------------- sweep


def test_sweep_reports_critical_rho(runner, tmp_path):
    cfg = circulant_config(
        tmp_path,
        rho={"start": 0.2, "stop": 0.6, "steps": 5},
        reference_critical_rho=0.38,
    )
    out = tmp_path / "out"
    result = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(out)])
    assert result.exit_code == 0, all_text(result)
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "rho,expected_distortion,mutual_information,potential,iterations,converged,method"
    assert len(lines) == 6
    assert all(row.endswith(",explicit") for row in lines[1:])
    report = json.loads((out / "report.json").read_text())
    assert report["all_converged"] is True
    assert report["critical_rho"]["nats"] == pytest.approx(0.379, abs=0.01)
    assert report["critical_rho"]["bits"] == pytest.approx(0.263, abs=0.01)
    assert report["nearest_base"] == "nats"
    assert "critical rho (nats)" in result.output


def test_sweep_rejects_scalar_rho(runner, tmp_path):
    cfg = circulant_config(tmp_path)
    result = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
    assert result.exit_code == EXIT_CONFIG


def test_sweep_rejects_multi_sender_config(runner, tmp_path):
    cfg = binary_multi_config(tmp_path, rho={"start": 0.2, "stop": 0.6, "steps": 3})
    out = tmp_path / "out"
    result = runner.invoke(main, ["sweep", "--config", cfg, "--out", str(out)])
    assert result.exit_code == EXIT_CONFIG, all_text(result)
    assert "error: mode: sweep supports single-sender configs" in result.stderr
    assert not out.exists()


def test_sweep_has_no_seed_option(runner, tmp_path):
    # only multi draws a random move order, so only multi takes a seed
    result = runner.invoke(
        main, ["sweep", "--config", "circulant5", "--out", str(tmp_path / "o"), "--seed", "3"]
    )
    assert result.exit_code == 2
    assert "No such option" in all_text(result)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("after", [0, 3], ids=["grid", "bisection"])
def test_sweep_via_dynamics_round_bound_error_exits_3(runner, tmp_path, monkeypatch, after):
    # the grid has 3 points, so after 3 runs the error comes from the
    # critical-ratio bisection
    monkeypatch.setattr(sweep_mod, "thresholded_dynamics", failing_dynamics(after))
    cfg = circulant_config(tmp_path, rho={"start": 0.2, "stop": 0.6, "steps": 3})
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["sweep", "--config", cfg, "--out", str(out), "--method", "dynamics"]
    )
    assert_no_convergence_exit(result)
    # the grid's rows are written once they are all solved
    assert (out / "sweep.csv").exists() == bool(after)
    assert not (out / "report.json").exists()


# ------------------------------------------------------------------- verify


def test_verify_round_trip(runner, tmp_path):
    cfg = circulant_config(tmp_path)
    out = tmp_path / "out"
    assert runner.invoke(main, ["solve", "--config", cfg, "--out", str(out)]).exit_code == 0
    result = runner.invoke(
        main,
        [
            "verify",
            "--config", cfg,
            "--out", str(tmp_path / "check"),
            "--alpha", str(out / "alpha.json"),
            "--beta", str(out / "beta.json"),
        ],
    )
    assert result.exit_code == 0, all_text(result)
    assert "PASS" in result.output
    report = json.loads((tmp_path / "check" / "report.json").read_text())
    assert report["member"] is True


def test_verify_flags_non_equilibrium_without_failing(runner, tmp_path):
    cfg = circulant_config(tmp_path)
    out = tmp_path / "out"
    assert runner.invoke(main, ["solve", "--config", cfg, "--out", str(out)]).exit_code == 0
    bad_beta = tmp_path / "bad_beta.json"
    bad_beta.write_text(receiver_policy_to_json(ReceiverPolicy.constant(0, 5, 5)))
    result = runner.invoke(
        main,
        [
            "verify",
            "--config", cfg,
            "--out", str(tmp_path / "check"),
            "--alpha", str(out / "alpha.json"),
            "--beta", str(bad_beta),
        ],
    )
    assert result.exit_code == 0, all_text(result)
    assert "FAIL" in result.output


def test_verify_epsilon_override(runner, tmp_path):
    cfg = circulant_config(tmp_path)
    out = tmp_path / "out"
    assert runner.invoke(main, ["solve", "--config", cfg, "--out", str(out)]).exit_code == 0
    result = runner.invoke(
        main,
        [
            "verify",
            "--config", cfg,
            "--out", str(tmp_path / "check"),
            "--alpha", str(out / "alpha.json"),
            "--beta", str(out / "beta.json"),
            "--epsilon", "1e-6",
        ],
    )
    assert result.exit_code == 0, all_text(result)
    assert "eps=1e-06" in result.output


def verify_multi(runner, tmp_path, alpha_paths, beta_path):
    cfg = binary_multi_config(tmp_path)
    args = ["verify", "--config", cfg, "--out", str(tmp_path / "check"), "--beta", beta_path]
    for path in alpha_paths:
        args += ["--alpha", path]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, all_text(result)
    report = json.loads((tmp_path / "check" / "report.json").read_text())
    assert sorted(report) == [
        "epsilon", "member", "mode", "receiver_gap", "sender_gaps", "sender_stationarity_gaps",
    ]
    assert report["mode"] == "multi"
    assert report["epsilon"] == 0.05
    assert len(report["sender_gaps"]) == 2
    assert len(report["sender_stationarity_gaps"]) == 2
    return result, report


def test_verify_multi_round_trip(runner, tmp_path):
    out = tmp_path / "out"
    cfg = binary_multi_config(tmp_path)
    assert runner.invoke(main, ["multi", "--config", cfg, "--out", str(out)]).exit_code == 0
    alphas = [str(out / "alpha_1.json"), str(out / "alpha_2.json")]
    result, report = verify_multi(runner, tmp_path, alphas, str(out / "beta.json"))
    assert "PASS" in result.output
    assert report["member"] is True


def test_verify_multi_flags_non_equilibrium(runner, tmp_path):
    # both senders reveal their measurement, which is the state, but the
    # decoder always estimates state 0: the receiver gains 0.5 by listening
    a = np.zeros((2, 2, 2))
    a[0, 0, :] = a[1, 1, :] = 1.0
    alphas = []
    for i in (1, 2):
        alphas.append(str(tmp_path / f"alpha_{i}.json"))
        (tmp_path / f"alpha_{i}.json").write_text(sender_policy_to_json(SenderPolicy(a)))
    b = np.zeros((2, 2, 2))
    b[0] = 1.0
    (tmp_path / "beta.json").write_text(receiver_policy_to_json(MultiReceiverPolicy(b)))
    result, report = verify_multi(runner, tmp_path, alphas, str(tmp_path / "beta.json"))
    assert "FAIL" in result.output
    assert report["member"] is False
    assert report["receiver_gap"] == pytest.approx(0.5)
