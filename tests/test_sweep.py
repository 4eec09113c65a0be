import copy
import json

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import CIRCULANT_MATRIX, CIRCULANT_MI_NATS, circulant_game, summed_block_gap
from privsig import sweep as sweep_mod
from privsig.cli import main
from privsig.config import load_config, preset_text
from privsig.game import (
    DistortionMatrix,
    GameInstance,
    ReceiverPolicy,
    SenderPolicy,
    expected_distortion,
    hamming_distortion,
)
from privsig.prob import LN2, FiniteSpace, JointPXZW
from privsig.solve import _linear_coeffs, sender_best_response, sender_cost_gradient
from privsig.sweep import CRITICAL_WIDTH, _truthful_critical_rho, run_sweep, sweep_report


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
    every best response recorded as (game, decoder, warm start, result), the
    warm start (encoder, mirror step and Newton basis) copied as the solve
    received it; cold drops the whole warm start the sweep passes."""
    solves = []
    inner = sweep_mod.explicit_equilibrium

    def recording(g, settings, start):
        entry = (start, copy.copy(start))
        res, beta = inner(g, settings, None if cold else start)
        solves.append((g, beta, entry, res))
        return res, beta

    cfg = load_config(preset_text("circulant5"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep_mod, "explicit_equilibrium", recording)
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
    # the grid's chain starts with the exact rho = 0 answer and then solves
    # its 101 points; the bisection, seeded from the grid, solves 4
    assert grid == 102 and len(solves) == grid + 4
    # the grid and the bisection each have a chain of their own. Every solve
    # starts from the previous point's answer, with the step the previous
    # solve's last mirror phase would have taken next and its last Newton
    # basis, built for the same P{Z, W}. The 38 points up to rho* = 0.3789
    # return the truthful encoder they start from as it stands, so the first
    # point that moves, rho = 0.38, starts from it with no step or basis;
    # the bisection's first starts from the grid's chain as it stood after
    # the bracket's low end, that same 0.38, which is what the grid's next
    # solve started from
    first = next(i for i, (_, _, _, res) in enumerate(solves) if res.iterations > 0)
    assert first == 39 and solves[first][0].rho == 0.38
    truthful = SenderPolicy.truthful(5, 5).a
    for i, (g, _, (chain, start), _) in enumerate(solves):
        assert chain is solves[0 if i < grid else grid][2][0]
        assert start.basis is None or np.array_equal(start.basis.pzw, g.joint.pzw)
        if i == 0:
            assert g.rho == 0.0 and start.a is None
        elif i == grid:
            after_low = solves[first + 1][2][1]
            np.testing.assert_array_equal(start.a, solves[first][3].policy.a)
            assert start.step == after_low.step and start.basis is after_low.basis
        else:
            np.testing.assert_array_equal(start.a, solves[i - 1][3].policy.a)
            if i <= first:
                np.testing.assert_array_equal(start.a, truthful)
                assert start.step is None and start.basis is None
            else:
                assert start.step is not None and start.basis is not None
    assert solves[grid][2][0] is not solves[0][2][0]


def test_bisection_starts_from_the_grid_only_with_run_sweeps_rows(circulant5_sweeps):
    # plain rows carry no warm start, so sweep_report bisects them from a
    # chain of its own, started with the exact rho = 0 answer, to the same
    # critical ratio
    warm = circulant5_sweeps["warm"]
    starts = []
    inner = sweep_mod.explicit_equilibrium

    def recording(g, settings, start):
        starts.append(copy.copy(start))
        return inner(g, settings, start)

    cfg = load_config(preset_text("circulant5"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep_mod, "explicit_equilibrium", recording)
        report = sweep_report(cfg, list(warm["rows"]), "explicit")
    assert len(starts) == 5 and starts[0].a is None and starts[0].step is None
    np.testing.assert_array_equal(starts[1].a, SenderPolicy.truthful(5, 5).a)
    assert starts[1].step is None and starts[1].basis is None
    assert report == warm["report"]


def test_sweep_rows_up_to_rho_star_are_the_truthful_encoder(circulant5_sweeps):
    rows, report = circulant5_sweeps["warm"]["rows"], circulant5_sweeps["warm"]["report"]
    exact = report["truthful_critical_rho"]
    assert 0.3789 <= exact["nats"] <= 0.3790 and exact["nats"] <= report["critical_rho"]["nats"]
    assert exact["bits"] == exact["nats"] * LN2
    below = [row for row in rows if row.rho <= exact["nats"]]
    assert len(below) == 38
    for row in below:
        assert row.expected_distortion == 0.0 and row.iterations == 0 and row.converged
        assert row.mutual_information == pytest.approx(CIRCULANT_MI_NATS, rel=1e-12, abs=0.0)
    assert all(row.expected_distortion > 0.0 for row in rows[len(below):])


def test_warm_sweep_converges_at_every_point(circulant5_sweeps):
    warm = circulant5_sweeps["warm"]
    assert all(row.converged for row in warm["rows"])
    assert all(res.converged for _, _, _, res in warm["solves"])


def test_warm_sweep_certifies_every_point_by_the_summed_gap(circulant5_sweeps):
    # the rho = 0.5 grid point, reached by warm starts from rho = 0, once
    # reported converged on its largest block gap at a summed gap of 1.4e-8
    grad_tol = load_config(preset_text("circulant5")).solver.grad_tol
    for g, beta, _, res in circulant5_sweeps["warm"]["solves"]:
        assert res.converged
        assert res.stationarity_gap == summed_block_gap(g, beta, res) <= grad_tol


def test_warm_and_cold_sweeps_agree_within_their_certificates(circulant5_sweeps):
    warm, cold = circulant5_sweeps["warm"], circulant5_sweeps["cold"]
    assert len(warm["solves"]) == len(cold["solves"])
    for (g, beta, _, w), (g_cold, _, _, c) in zip(warm["solves"], cold["solves"]):
        assert g.rho == g_cold.rho
        # both costs lie above the optimum by at most their summed gaps, and
        # each is rounded to a few ulps
        bound = summed_block_gap(g, beta, w) + summed_block_gap(g, beta, c)
        assert abs(w.cost - c.cost) <= bound + 1e-15 * max(1.0, abs(c.cost))
    assert warm["report"]["critical_rho"] == cold["report"]["critical_rho"]


def test_rho_zero_sweep_point_has_a_gradient_and_a_zero_gap(circulant5_sweeps):
    # the rho = 0 point, like every point up to rho*, is the truthful encoder
    # with 0 iterations: one-hot, on the boundary, where the gradient at rho
    # = 0 is the distortion coefficients alone
    row = circulant5_sweeps["warm"]["rows"][0]
    assert row.rho == 0.0 and row.iterations == 0 and row.expected_distortion == 0.0
    g, beta, _, res = circulant5_sweeps["warm"]["solves"][1]
    assert g.rho == 0.0 and res.iterations == 0 and res.converged
    np.testing.assert_array_equal(res.policy.a, SenderPolicy.truthful(5, 5).a)
    np.testing.assert_array_equal(sender_cost_gradient(g, res.policy, beta), _linear_coeffs(g, beta))
    assert summed_block_gap(g, beta, res) == 0.0 == res.stationarity_gap


def test_warm_sweep_takes_fewer_iterations(circulant5_sweeps):
    def total(run):
        return sum(res.iterations for _, _, _, res in run["solves"])

    # 415 against 3330 when measured; the cold sweep also solves the points
    # up to rho*, which the warm one returns as they start, with 0 iterations
    assert total(circulant5_sweeps["warm"]) <= 0.4 * total(circulant5_sweeps["cold"])


def test_warm_sweep_output_is_byte_deterministic(tmp_path):
    runner = CliRunner()
    outs = [tmp_path / "one", tmp_path / "two"]
    for out in outs:
        result = runner.invoke(main, ["sweep", "--config", "circulant5", "--out", str(out)])
        assert result.exit_code == 0, result.output
    for name in ("sweep.csv", "report.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


# ------------------------------------------------ the exact critical ratio


def truthful_gap(g: GameInstance) -> float:
    """The truthful encoder's summed block gap against the identity decoder,
    from the gradient c + rho P{z, w} log P{Z=y, W=w} / (P{Z=y} P{W=w})
    written out afresh."""
    m = g.x_space.size
    t = SenderPolicy.truthful(m, g.w_space.size).a
    c = _linear_coeffs(g, ReceiverPolicy.identity(m))
    pzw = g.joint.pzw
    ratio = np.log(pzw / (pzw.sum(axis=1, keepdims=True) * pzw.sum(axis=0, keepdims=True)))
    grad = c + g.rho * pzw[None] * ratio[:, None, :]
    return float(((t * grad).sum(axis=0) - grad.min(axis=0)).sum())


def test_truthful_gap_is_zero_exactly_up_to_rho_star():
    rho_star = _truthful_critical_rho(circulant_game(0.0))
    assert rho_star == pytest.approx(0.378923, abs=1e-6)
    # started there, the solve returns the truthful encoder as it stands
    truthful, beta = SenderPolicy.truthful(5, 5), ReceiverPolicy.identity(5)
    for rho in (0.0, 0.2, rho_star * (1.0 - 1e-9)):
        assert truthful_gap(circulant_game(rho)) == 0.0
        res = sender_best_response(circulant_game(rho), beta, start=truthful)
        np.testing.assert_array_equal(res.policy.a, truthful.a)
        assert res.iterations == 0 and res.converged and res.stationarity_gap == 0.0
    above = circulant_game(rho_star * (1.0 + 1e-6))
    assert truthful_gap(above) > 0.0
    res = sender_best_response(above, beta, start=truthful)
    assert res.iterations > 0 and res.converged and res.policy.a.min() > 0.0


def test_solver_leaves_the_truthful_encoder_past_rho_star():
    # 1.3e-13 at rho* (1 - 1e-3) and 2.3e-4 at rho* (1 + 1e-3) when measured
    rho_star = _truthful_critical_rho(circulant_game(0.0))
    beta = ReceiverPolicy.identity(5)
    for factor, low, high in ((1.0 - 1e-3, 0.0, 1e-9), (1.0 + 1e-3, 1e-4, 1e-3)):
        g = circulant_game(rho_star * factor)
        res = sender_best_response(g, beta)
        assert res.converged and low < expected_distortion(g, res.policy, beta) < high


def test_rho_star_matches_a_bisection_on_the_truthful_gap():
    rng = np.random.default_rng(2215)
    for _ in range(12):
        m, q = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        pxw = rng.random((m, q)) + 0.02
        d = rng.random((m, m)) * (1.0 - np.eye(m)) + 0.05 * (1.0 - np.eye(m))

        def game(rho):
            joint = JointPXZW.from_xw_matrix(pxw / pxw.sum())
            return GameInstance(joint, DistortionMatrix(d), FiniteSpace(m), rho)

        rho_star = _truthful_critical_rho(game(0.0))
        lo, hi = 0.0, 1.0
        while truthful_gap(game(hi)) == 0.0:
            lo, hi = hi, 2.0 * hi
        while hi - lo > 1e-12 * hi:
            mid = 0.5 * (lo + hi)
            if truthful_gap(game(mid)) == 0.0:
                lo = mid
            else:
                hi = mid
        assert rho_star == pytest.approx(lo, rel=1e-9)


def test_rho_star_is_none_where_its_conditions_fail():
    joint = JointPXZW.from_xw_matrix(CIRCULANT_MATRIX)
    assert _truthful_critical_rho(circulant_game(0.4)) is not None
    # reporting measurement 0 as 1 is cheaper than reporting it truthfully,
    # so the truthful encoder is not the rho = 0 best response
    d = np.ones((5, 5)) - np.eye(5)
    d[0, 0], d[0, 1] = 0.5, 0.2
    assert _truthful_critical_rho(GameInstance(joint, DistortionMatrix(d), FiniteSpace(5), 0.4)) is None
    # P{Z, W} has a zero cell, which the truthful encoder leaves empty
    pxw = CIRCULANT_MATRIX.copy()
    pxw[0, 3] = 0.0
    sparse = JointPXZW.from_xw_matrix(pxw / pxw.sum())
    assert _truthful_critical_rho(GameInstance(sparse, hamming_distortion(5), FiniteSpace(5), 0.4)) is None
    # no truthful encoder without a message per state
    assert _truthful_critical_rho(GameInstance(joint, hamming_distortion(5), FiniteSpace(4), 0.4)) is None


def test_sweep_without_rho_star_solves_every_point():
    pxw = CIRCULANT_MATRIX.copy()
    pxw[0, 3] = 0.0
    cfg = load_config(json.dumps({
        "schema_version": 1, "x_size": 5, "w_size": 5, "y_size": 5,
        "joint": JointPXZW.from_xw_matrix(pxw / pxw.sum()).p.tolist(),
        "rho": {"start": 0.2, "stop": 0.6, "steps": 5},
    }))
    rows = run_sweep(cfg)
    report = sweep_report(cfg, rows, "explicit")
    assert report["truthful_critical_rho"] is None and report["all_converged"]
    assert all(row.expected_distortion > 0.0 for row in rows)


def test_truthful_point_above_rho_star_falls_back_to_a_solve():
    # past rho* the truthful encoder the chain carries has a summed gap above
    # grad_tol, so those points are solved, to the answers of cold solves
    cfg = circulant_sweep_config("nats", 0.3, 0.5, 5)
    rows = run_sweep(cfg)
    assert [row.iterations == 0 for row in rows] == [True, True, False, False, False]
    assert [row.expected_distortion == 0.0 for row in rows] == [True, True, False, False, False]
    inner = sweep_mod.explicit_equilibrium
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep_mod, "explicit_equilibrium", lambda g, settings, start: inner(g, settings))
        cold = run_sweep(cfg)
    for row, want in zip(rows, cold):
        assert row.converged and want.converged
        assert row.potential == pytest.approx(want.potential, abs=1e-8)


def test_sweep_from_above_zero_keeps_the_truthful_encoder_up_to_rho_star():
    # a grid that starts above 0 starts its chain from the exact rho = 0
    # answer all the same, so every point up to rho* returns it exactly
    answers = []
    inner = sweep_mod.explicit_equilibrium

    def recording(g, settings, start):
        res, beta = inner(g, settings, start)
        answers.append((g.rho, res))
        return res, beta

    cfg = circulant_sweep_config("nats", 0.2, 0.6, 5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep_mod, "explicit_equilibrium", recording)
        rows = run_sweep(cfg)
    rho_star = _truthful_critical_rho(circulant_game(0.0))
    assert [rho for rho, _ in answers] == [0.0, 0.2, 0.3, 0.4, 0.5, 0.6]
    below = [row for row in rows if row.rho <= rho_star]
    assert len(below) == 2
    for row, (_, res) in zip(below, answers[1:]):
        np.testing.assert_array_equal(res.policy.a, SenderPolicy.truthful(5, 5).a)
        assert row.iterations == 0 and row.expected_distortion == 0.0 and row.converged


def test_bits_sweep_reports_rho_star_in_both_bases():
    reports = {}
    for base in ("nats", "bits"):
        cfg = circulant_sweep_config(base, 0.2, 0.6, 5)
        reports[base] = sweep_report(cfg, run_sweep(cfg), "explicit")
    assert reports["nats"]["truthful_critical_rho"] == reports["bits"]["truthful_critical_rho"]
    assert reports["bits"]["truthful_critical_rho"]["bits"] <= reports["bits"]["critical_rho"]["bits"]
