import json

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import CIRCULANT_MATRIX, summed_block_gap
from privsig import sweep as sweep_mod
from privsig.cli import main
from privsig.config import load_config, preset_text
from privsig.prob import LN2, JointPXZW
from privsig.solve import _cost_slack, _linear_coeffs, sender_cost_gradient
from privsig.sweep import CRITICAL_WIDTH, run_sweep, sweep_report


def circulant_sweep_config(log_base: str, start: float, stop: float, steps: int):
    return load_config(json.dumps({
        "schema_version": 1,
        "x_size": 5,
        "w_size": 5,
        "y_size": 5,
        "joint": JointPXZW.from_xw_matrix(CIRCULANT_MATRIX).p.tolist(),
        "rho": {"start": start, "stop": stop, "steps": steps},
        "log_base": log_base,
    }))


def test_critical_rho_is_bisected_once_and_converted(monkeypatch):
    cfg = circulant_sweep_config("bits", 0.2, 0.6, 5)
    rows = run_sweep(cfg)
    solved = []
    point = sweep_mod._point

    def counted(*args):
        solved.append(args[1])
        return point(*args)

    monkeypatch.setattr(sweep_mod, "_point", counted)
    crit = sweep_report(cfg, rows, "explicit")["critical_rho"]
    # only the bisection of the 0.1-wide bracket runs, no scan of the other base
    assert len(solved) == 7
    assert all(0.2 <= rho <= 0.3 for rho in solved)
    assert crit["bits"] == pytest.approx(0.3803 * LN2, abs=CRITICAL_WIDTH)
    assert crit["nats"] == pytest.approx(crit["bits"] / LN2, rel=1e-15)


@pytest.mark.parametrize("start, stop", [(0.0, 0.1), (0.8, 1.0)])
def test_critical_rho_is_null_in_both_bases_without_transition(start, stop):
    cfg = circulant_sweep_config("nats", start, stop, 3)
    report = sweep_report(cfg, run_sweep(cfg), "explicit")
    assert report["critical_rho"] == {"nats": None, "bits": None}


def recorded_circulant5_sweep(cold: bool) -> dict:
    """The bundled circulant5 sweep and its critical-ratio bisection, with
    every best response recorded as (game, decoder, start, result); cold
    drops each start the sweep passes."""
    solves = []
    inner = sweep_mod._identity_best_response

    def recording(g, settings, start=None):
        res, beta = inner(g, settings, None if cold else start)
        solves.append((g, beta, start, res))
        return res, beta

    cfg = load_config(preset_text("circulant5"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep_mod, "_identity_best_response", recording)
        rows = run_sweep(cfg)
        grid = len(solves)
        report = sweep_report(cfg, rows, "explicit")
    return {"rows": rows, "solves": solves, "grid": grid, "report": report}


@pytest.fixture(scope="module")
def circulant5_sweeps():
    return {"warm": recorded_circulant5_sweep(False), "cold": recorded_circulant5_sweep(True)}


def test_sweep_points_start_from_the_previous_point(circulant5_sweeps):
    warm = circulant5_sweeps["warm"]
    solves, grid = warm["solves"], warm["grid"]
    assert grid == 101 and len(solves) > grid
    # the grid and the bisection each start cold, then chain their solves
    for i, (_, _, start, _) in enumerate(solves):
        if i in (0, grid):
            assert start is None
        else:
            assert start is solves[i - 1][3].policy


def test_warm_sweep_converges_at_every_point(circulant5_sweeps):
    warm = circulant5_sweeps["warm"]
    assert all(row.converged for row in warm["rows"])
    assert all(res.converged for _, _, _, res in warm["solves"])


def test_warm_and_cold_sweeps_agree_within_their_certificates(circulant5_sweeps):
    warm, cold = circulant5_sweeps["warm"], circulant5_sweeps["cold"]
    assert len(warm["solves"]) == len(cold["solves"])
    for (g, beta, _, w), (g_cold, _, _, c) in zip(warm["solves"], cold["solves"]):
        assert g.rho == g_cold.rho
        # both costs lie above the optimum by at most their summed gaps, and
        # each is rounded to a few ulps
        bound = summed_block_gap(g, beta, w) + summed_block_gap(g, beta, c)
        assert abs(w.cost - c.cost) <= bound + _cost_slack(c.cost)
    assert warm["report"]["critical_rho"] == cold["report"]["critical_rho"]


def test_rho_zero_sweep_point_has_a_gradient_and_a_zero_gap(circulant5_sweeps):
    # the rho = 0 answer is one-hot, on the boundary, where the gradient is
    # the distortion coefficients alone
    g, beta, _, res = circulant5_sweeps["warm"]["solves"][0]
    assert g.rho == 0.0 and res.policy.a.min() == 0.0
    np.testing.assert_array_equal(sender_cost_gradient(g, res.policy, beta), _linear_coeffs(g, beta))
    assert summed_block_gap(g, beta, res) == 0.0


def test_warm_sweep_takes_fewer_iterations(circulant5_sweeps):
    def total(run):
        return sum(res.iterations for _, _, _, res in run["solves"])

    # 1154 against 4361 when measured
    assert total(circulant5_sweeps["warm"]) <= 0.4 * total(circulant5_sweeps["cold"])


def test_warm_sweep_output_is_byte_deterministic(tmp_path):
    runner = CliRunner()
    outs = [tmp_path / "one", tmp_path / "two"]
    for out in outs:
        result = runner.invoke(main, ["sweep", "--config", "circulant5", "--out", str(out)])
        assert result.exit_code == 0, result.output
    for name in ("sweep.csv", "report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
