import math

import numpy as np
import pytest

from conftest import (
    circulant_game,
    random_game,
    random_receiver,
    random_sender,
    recorded_checks,
)
from privsig import dynamics as dynamics_module
from privsig.dynamics import (
    DynamicsReport,
    best_response_dynamics,
    default_initial_pair,
    thresholded_dynamics,
    trajectory_rows,
)
from privsig.game import (
    ReceiverPolicy,
    SenderPolicy,
    potential,
    receiver_cost,
    sender_cost,
)
from privsig.solve import babbling_equilibrium, epsilon_nash_check


def truthful_pair():
    return SenderPolicy.truthful(5, 5), ReceiverPolicy.identity(5)


def accepted_moves(report: DynamicsReport) -> int:
    return sum(1 for rec in report.trajectory if rec.k > 0 and rec.accepted)


def assert_potential_monotone(report: DynamicsReport, tol: float = 1e-9):
    psis = [rec.potential for rec in report.trajectory]
    for before, after in zip(psis, psis[1:]):
        assert after <= before + tol


# ------------------------------------------------------------------ plain


def test_plain_truthful_start_rho_zero_is_immediate():
    g = circulant_game(0.0)
    report = best_response_dynamics(g, *truthful_pair(), epsilon=1e-6)
    assert report.reached_eps_nash
    assert report.iterations_used <= 2
    assert receiver_cost(g, *report.final_pair) == 0.0


def test_plain_babbling_start_stops_immediately():
    g = circulant_game(0.7)
    alpha, beta = babbling_equilibrium(g)
    report = best_response_dynamics(g, alpha, beta, epsilon=1e-6)
    assert report.reached_eps_nash
    assert report.iterations_used <= 2
    # prior guessing keeps exactly the self-transition mass
    assert receiver_cost(g, *report.final_pair) == pytest.approx(0.8, abs=1e-12)


def test_plain_random_starts_reach_eps_nash():
    g = circulant_game(0.0)
    for seed in (3, 7, 11):
        gen = np.random.default_rng(seed)
        alpha0 = random_sender(gen, 5, 5, 5)
        beta0 = random_receiver(gen, 5, 5)
        report = best_response_dynamics(g, alpha0, beta0, epsilon=1e-6)
        assert report.reached_eps_nash
        assert epsilon_nash_check(g, *report.final_pair, 1e-6).member
        assert_potential_monotone(report)
        v0 = receiver_cost(g, alpha0, beta0)
        assert receiver_cost(g, *report.final_pair) <= v0 + 1e-12


def test_plain_from_truthful_improves_then_settles():
    g = circulant_game(0.5)
    report = best_response_dynamics(g, *truthful_pair(), epsilon=0.01)
    assert report.reached_eps_nash
    assert accepted_moves(report) >= 1
    assert_potential_monotone(report)
    assert epsilon_nash_check(g, *report.final_pair, 0.01).member


def test_plain_round_cap_reports_not_reached():
    g = circulant_game(0.5)
    report = best_response_dynamics(g, *truthful_pair(), epsilon=1e-9, max_rounds=1)
    assert not report.reached_eps_nash
    assert report.iterations_used == 1
    assert report.iteration_bound is None


def test_potential_monotone_along_plain_trajectories(rng):
    for _ in range(6):
        g = random_game(rng, 3, 2, 3, float(rng.random() * 1.5))
        alpha0 = random_sender(rng, 3, 3, 2)
        beta0 = random_receiver(rng, 3, 3)
        report = best_response_dynamics(g, alpha0, beta0, epsilon=0.01)
        assert report.reached_eps_nash
        assert_potential_monotone(report)


# ------------------------------------------------------------ thresholded


def test_thresholded_iteration_bound_formula():
    g = circulant_game(0.5)
    alpha0, beta0 = truthful_pair()
    psi0 = potential(g, alpha0, beta0)
    for eps in (0.01, 0.05, 0.1):
        report = thresholded_dynamics(g, alpha0, beta0, eps)
        assert report.iteration_bound == math.ceil(3.0 + psi0 / eps)
        assert report.iterations_used <= report.iteration_bound
        assert report.reached_eps_nash
        assert_potential_monotone(report)


def test_thresholded_accepted_moves_beat_epsilon(rng):
    eps = 0.01
    runs = [thresholded_dynamics(circulant_game(0.5), *truthful_pair(), eps)]
    for _ in range(4):
        g = random_game(rng, 3, 2, 3, float(rng.random() * 1.5))
        runs.append(
            thresholded_dynamics(
                g, random_sender(rng, 3, 3, 2), random_receiver(rng, 3, 3), eps
            )
        )
    for report in runs:
        assert report.reached_eps_nash
        # an adopted move improves its mover by more than eps, and the
        # potential difference equals the mover's improvement exactly
        psis = [rec.potential for rec in report.trajectory]
        for rec, before, after in zip(report.trajectory[1:], psis, psis[1:]):
            if rec.accepted:
                assert before - after > eps - 1e-9


def test_thresholded_large_epsilon_freezes_in_place():
    g = circulant_game(0.5)
    alpha0, beta0 = truthful_pair()
    eps = 2.0 * potential(g, alpha0, beta0)
    report = thresholded_dynamics(g, alpha0, beta0, eps)
    assert report.reached_eps_nash
    assert report.iterations_used <= 3
    assert accepted_moves(report) == 0
    alpha, beta = report.final_pair
    np.testing.assert_array_equal(alpha.a, alpha0.a)
    np.testing.assert_array_equal(beta.b, beta0.b)


def test_thresholded_fixed_point_rerun_is_silent():
    g = circulant_game(0.5)
    first = thresholded_dynamics(g, *default_initial_pair(g), 0.01)
    assert first.reached_eps_nash
    rerun = thresholded_dynamics(g, *first.final_pair, 0.01)
    assert rerun.reached_eps_nash
    assert accepted_moves(rerun) == 0
    assert rerun.iterations_used == 2


def test_thresholded_babbling_start_never_moves():
    g = circulant_game(0.7)
    alpha, beta = babbling_equilibrium(g)
    report = thresholded_dynamics(g, alpha, beta, 0.01)
    assert report.reached_eps_nash
    assert accepted_moves(report) == 0
    assert report.iteration_bound == math.ceil(3.0 + potential(g, alpha, beta) / 0.01)


# ----------------------------------------------------------- shared loop


def play_cases():
    """(game, start) pairs whose play adopts moves of both players."""
    rng = np.random.default_rng(20240817)
    cases = [(circulant_game(0.5), truthful_pair()), (circulant_game(0.5), None)]
    for _ in range(3):
        g = random_game(rng, 3, 2, 3, float(rng.random() * 1.5))
        cases.append((g, (random_sender(rng, 3, 3, 2), random_receiver(rng, 3, 3))))
    return [(g, start or default_initial_pair(g)) for g, start in cases]


def test_alternating_play_checks_once_per_round_and_never_repeats_a_check(monkeypatch):
    # a player is checked only after its opponent adopted a move since its
    # last check, or, against the same opponent, after adopting an answer
    # not certified within epsilon (inflate); play never checks a player
    # whose state and opponent are both unchanged, which is why it keeps no
    # best-response cache
    checks = []
    decide, respond = dynamics_module._improvement_reference, dynamics_module.receiver_best_response

    def receiver_check(g, alpha):
        checks.append(("receiver", None, alpha.a))
        return respond(g, alpha)

    monkeypatch.setattr(dynamics_module, "receiver_best_response", receiver_check)
    repeats = {False: 0, True: 0}
    for inflate in (False, True):
        answer = recorded_checks(decide, [], inflate)

        def sender_check(c, pzw, pw, rho, alpha, *args):
            checks.append(("sender", alpha.a, c))
            return answer(c, pzw, pw, rho, alpha, *args)

        monkeypatch.setattr(dynamics_module, "_improvement_reference", sender_check)
        for g, (alpha0, beta0) in play_cases():
            for play in (best_response_dynamics, thresholded_dynamics):
                checks.clear()
                report = play(g, alpha0, beta0, 0.01)
                assert report.reached_eps_nash
                assert len(checks) == report.iterations_used
                assert [who for who, _, _ in checks] == [
                    rec.mover for rec in report.trajectory[1:]
                ]
                last = {}
                for who, own, opponent in checks:
                    if who in last and np.array_equal(last[who][1], opponent):
                        assert who == "sender" and not np.array_equal(last[who][0], own)
                        repeats[inflate] += 1
                    last[who] = (own, opponent)
    assert repeats[False] == 0 and repeats[True] > 0


def test_uncertified_adoption_leaves_its_mover_unfrozen(monkeypatch):
    # with certified answers, play from these starts ends on the sender's
    # adoption, its mover frozen; an adopted answer not certified within
    # epsilon leaves the sender to be checked again, so that its last check
    # is a rejection
    decide = dynamics_module._improvement_reference
    ended_on_adoption = 0
    for g, start in play_cases():
        for inflate in (False, True):
            calls = []
            monkeypatch.setattr(
                dynamics_module, "_improvement_reference", recorded_checks(decide, calls, inflate)
            )
            assert thresholded_dynamics(g, *start, 0.01).reached_eps_nash
            _, adopted = calls[-1]
            if inflate:
                assert not adopted
            else:
                ended_on_adoption += adopted
    assert ended_on_adoption > 0


@pytest.mark.parametrize("rho, reached", [(0.5, True), (1e3, True), (1e8, False), (1e15, False)])
def test_thresholded_reached_is_a_proof(rho, reached):
    # at rho = 1e8 and 1e15 the sender's answers are not certified and its
    # rejection is not proven, so play ends unreached, where it once
    # reported an epsilon-equilibrium that the check did not confirm
    g, eps = circulant_game(rho), 1e-3
    report = thresholded_dynamics(g, *default_initial_pair(g), eps)
    assert report.reached_eps_nash is reached
    if reached:
        assert epsilon_nash_check(g, *report.final_pair, eps).member


# -------------------------------------------------------------- interface


def test_epsilon_must_be_positive():
    g = circulant_game(0.5)
    alpha0, beta0 = truthful_pair()
    # NaN used to pass a plain epsilon <= 0 guard and then spin play to its
    # round cap or fail converting the round bound to an integer
    for bad in (0.0, -0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            best_response_dynamics(g, alpha0, beta0, bad)
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            thresholded_dynamics(g, alpha0, beta0, bad)
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            epsilon_nash_check(g, alpha0, beta0, bad)


def test_default_initial_pair_shapes():
    g = circulant_game(0.5)
    alpha, beta = default_initial_pair(g)
    np.testing.assert_array_equal(beta.b, np.eye(5))
    assert np.all(alpha.a == 0.2)

    rng = np.random.default_rng(2)
    g2 = random_game(rng, 3, 2, 4, 0.5)
    alpha2, beta2 = default_initial_pair(g2)
    assert alpha2.a.shape == (4, 3, 2)
    assert beta2.b.shape == (3, 4)
    # prior-optimal constant decoder: one estimate row carries everything
    assert np.all(beta2.b.sum(axis=0) == 1.0)
    assert np.all((beta2.b == 0.0) | (beta2.b == 1.0))


def test_trajectory_rows_layout():
    g = circulant_game(0.5)
    report = thresholded_dynamics(g, *truthful_pair(), 0.01)
    rows = trajectory_rows(report)
    assert len(rows) == len(report.trajectory)
    assert rows[0][0] == 0 and rows[0][1] == "none"
    ks = [row[0] for row in rows]
    assert ks == sorted(ks)
    for row in rows:
        assert len(row) == 6
        assert row[1] in ("none", "receiver", "sender")
        assert isinstance(row[5], bool)
    # the potential column of the final row matches the final pair
    alpha, beta = report.final_pair
    assert rows[-1][2] == pytest.approx(potential(g, alpha, beta), abs=1e-12)
    assert rows[-1][3] == pytest.approx(sender_cost(g, alpha, beta), abs=1e-12)
    assert rows[-1][4] == pytest.approx(receiver_cost(g, alpha, beta), abs=1e-12)
