import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import privsig
from conftest import (
    CIRCULANT_MI_NATS,
    circulant_game,
    random_game,
    random_receiver,
    random_sender,
)
from privsig.game import (
    DistortionMatrix,
    GameInstance,
    ReceiverPolicy,
    SenderPolicy,
    expected_distortion,
    hamming_distortion,
    leakage,
    receiver_cost,
    sender_cost,
)
from privsig.prob import FiniteSpace, JointPXZW, _mutual_information
from privsig.solve import (
    DEFAULT_SETTINGS,
    SolverSettings,
    babbling_equilibrium,
    epsilon_nash_check,
    explicit_equilibrium,
    receiver_best_response,
    sender_best_response,
    sender_cost_gradient,
)

# ---------------------------------------------------------------- oracles


def linear_coeffs_oracle(g, beta) -> np.ndarray:
    """c[y,z,w] = sum_{x,xhat} d(x,xhat) beta[xhat,y] p(x,z,w)."""
    return np.einsum("xk,ky,xzw->yzw", g.distortion.d, beta.b, g.joint.p)


def cost_raw_oracle(g, beta, a: np.ndarray) -> float:
    """Sender cost as a smooth function of the raw tensor.

    The secret marginal stays fixed at the joint's value, which agrees with
    the true cost whenever the blocks of ``a`` sum to one.
    """
    xi = float((linear_coeffs_oracle(g, beta) * a).sum())
    jyw = np.einsum("yzw,zw->yw", a, g.joint.pzw)
    py = jyw.sum(axis=1)
    pw = g.joint.pw
    mask = jyw > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(mask, jyw * np.log(jyw / (py[:, None] * pw[None, :])), 0.0)
    return xi + g.rho * float(terms.sum())


def fd_gradient_oracle(g, beta, a: np.ndarray, h: float = 1e-6) -> np.ndarray:
    out = np.zeros_like(a)
    for idx in np.ndindex(a.shape):
        up = a.copy()
        up[idx] += h
        dn = a.copy()
        dn[idx] -= h
        out[idx] = (cost_raw_oracle(g, beta, up) - cost_raw_oracle(g, beta, dn)) / (2 * h)
    return out


def enumerate_receiver_cost(g, alpha) -> float:
    """Exhaustive minimum of V over all deterministic decoders."""
    m, r = g.x_space.size, g.y_space.size
    best = math.inf
    for choice in itertools.product(range(m), repeat=r):
        beta = ReceiverPolicy.deterministic(np.array(choice), m)
        best = min(best, expected_distortion(g, alpha, beta))
    return best


def grid_oracle_cost(g, beta) -> float:
    """Brute-force sender cost on a binary game: per-block grid of the mass
    on message 0, 21 coarse points refined to 0.01 around the best combo."""
    c = linear_coeffs_oracle(g, beta)
    pzw, pw, rho = g.joint.pzw, g.joint.pw, g.rho

    def eval_combos(axes):
        combos = np.stack(
            [x.ravel() for x in np.meshgrid(*axes, indexing="ij")], axis=1
        )
        a = np.empty((combos.shape[0], 2, 2, 2))
        a[:, 0, :, :] = combos.reshape(-1, 2, 2)
        a[:, 1, :, :] = 1.0 - a[:, 0, :, :]
        xi = np.einsum("nyzw,yzw->n", a, c)
        jyw = np.einsum("nyzw,zw->nyw", a, pzw)
        py = jyw.sum(axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(
                jyw > 0.0,
                jyw * np.log(jyw / (py[:, :, None] * pw[None, None, :])),
                0.0,
            )
        costs = xi + rho * terms.sum(axis=(1, 2))
        k = int(np.argmin(costs))
        return float(costs[k]), combos[k]

    coarse = np.linspace(0.0, 1.0, 21)
    cost, best = eval_combos([coarse] * 4)
    fine = [
        np.clip(t + np.linspace(-0.05, 0.05, 11), 0.0, 1.0) for t in best
    ]
    fine_cost, _ = eval_combos(fine)
    return min(cost, fine_cost)


# ------------------------------------------------------- receiver responses


def test_receiver_br_babbling_circulant_picks_first_symbol():
    g = circulant_game(1.0)
    beta = receiver_best_response(g, SenderPolicy.uniform(5, 5, 5))
    # five-way tie at expected distortion 0.8; lowest index wins
    np.testing.assert_array_equal(beta.b[0, :], np.ones(5))
    assert abs(expected_distortion(g, SenderPolicy.uniform(5, 5, 5), beta) - 0.8) < 1e-15


def test_receiver_br_truthful_is_identity():
    g = circulant_game(0.3)
    beta = receiver_best_response(g, SenderPolicy.truthful(5, 5))
    np.testing.assert_array_equal(beta.b, np.eye(5))


def test_receiver_br_two_symbol_example():
    p = np.zeros((2, 2, 1))
    p[0, 0, 0], p[0, 1, 0] = 0.4, 0.1
    p[1, 0, 0], p[1, 1, 0] = 0.1, 0.4
    g = GameInstance(
        JointPXZW.from_tensor(p), hamming_distortion(2), FiniteSpace(2), 1.0
    )
    alpha = SenderPolicy.truthful(2, 1)
    beta = receiver_best_response(g, alpha)
    np.testing.assert_array_equal(beta.b, np.eye(2))
    assert expected_distortion(g, alpha, beta) == enumerate_receiver_cost(g, alpha)


def test_receiver_br_matches_enumeration(rng):
    for _ in range(40):
        m = int(rng.integers(2, 4))
        r = int(rng.integers(2, 4))
        g = random_game(rng, m, 2, r, 1.0)
        alpha = random_sender(rng, r, m, 2)
        beta = receiver_best_response(g, alpha)
        assert expected_distortion(g, alpha, beta) == enumerate_receiver_cost(g, alpha)


def test_receiver_br_dead_message_gets_prior_estimate():
    g = circulant_game(1.0)
    # encoder never uses message 4
    a = np.zeros((5, 5, 5))
    a[0, :, :] = 0.5
    a[1, :, :] = 0.5
    beta = receiver_best_response(g, SenderPolicy(a))
    assert beta.b[0, 4] == 1.0  # prior tie resolves to the first symbol


def test_receiver_br_beats_random_decoders(rng):
    for _ in range(500):
        m = int(rng.integers(2, 4))
        r = int(rng.integers(2, 5))
        g = random_game(rng, m, 2, r, 1.0)
        alpha = random_sender(rng, r, m, 2)
        beta = receiver_best_response(g, alpha)
        v = expected_distortion(g, alpha, beta)
        rivals = rng.random((100, m, r)) + 0.01
        rivals /= rivals.sum(axis=1, keepdims=True)
        costs = np.einsum(
            "xy,nky,xk->n",
            np.einsum("yzw,xzw->xy", alpha.a, g.joint.p),
            rivals,
            g.distortion.d,
        )
        assert v <= float(costs.min()) + 1e-12


# ---------------------------------------------------------------- gradient


def test_gradient_matches_finite_differences(rng):
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 4))
        q = int(rng.integers(2, 4))
        r = int(rng.integers(2, 4))
        g = random_game(rng, m, q, r, float(rng.random() * 2.0))
        alpha = random_sender(rng, r, m, q)
        beta = random_receiver(rng, m, r)
        analytic = sender_cost_gradient(g, alpha, beta)
        fd = fd_gradient_oracle(g, beta, np.array(alpha.a))
        rel = float(np.abs(analytic - fd).max()) / max(1.0, float(np.abs(analytic).max()))
        worst = max(worst, rel)
    assert worst < 1e-5


def test_gradient_tangent_directional_derivative_of_public_cost(rng):
    # along block-tangent directions the interior cost itself is the oracle
    g = random_game(rng, 3, 2, 3, 1.1)
    alpha = random_sender(rng, 3, 3, 2)
    beta = random_receiver(rng, 3, 3)
    grad = sender_cost_gradient(g, alpha, beta)
    h = 1e-6
    for _ in range(10):
        direction = rng.standard_normal(alpha.a.shape)
        direction -= direction.mean(axis=0, keepdims=True)
        up = SenderPolicy(alpha.a + h * direction)
        dn = SenderPolicy(alpha.a - h * direction)
        fd = (sender_cost(g, up, beta) - sender_cost(g, dn, beta)) / (2 * h)
        want = float((grad * direction).sum())
        assert abs(fd - want) < 1e-6 * max(1.0, abs(want))


def test_gradient_rho_zero_is_linear_part(rng):
    g = random_game(rng, 3, 2, 2, 0.0)
    alpha = random_sender(rng, 2, 3, 2)
    beta = random_receiver(rng, 3, 2)
    np.testing.assert_allclose(
        sender_cost_gradient(g, alpha, beta), linear_coeffs_oracle(g, beta), atol=1e-14
    )


def test_gradient_leakage_part_vanishes_at_uniform(rng):
    g = random_game(rng, 3, 2, 4, 1.7)
    beta = random_receiver(rng, 3, 4)
    alpha = SenderPolicy.uniform(4, 3, 2)
    np.testing.assert_allclose(
        sender_cost_gradient(g, alpha, beta), linear_coeffs_oracle(g, beta), atol=1e-12
    )


def test_gradient_requires_interior_point():
    g = circulant_game(1.0)
    with pytest.raises(ValueError, match="interior"):
        sender_cost_gradient(g, SenderPolicy.truthful(5, 5), ReceiverPolicy.identity(5))


# ------------------------------------------------------------- sender BR


def test_sender_br_rho_zero_reaches_zero_cost():
    g = circulant_game(0.0)
    res = sender_best_response(g, ReceiverPolicy.identity(5))
    assert res.converged
    assert res.cost <= 1e-10
    assert res.stationarity_gap <= DEFAULT_SETTINGS.grad_tol


def test_sender_br_huge_rho_goes_silent():
    g = circulant_game(1e3)
    res = sender_best_response(g, ReceiverPolicy.identity(5))
    assert res.converged
    assert leakage(g, res.policy) < 1e-6


@pytest.mark.parametrize("rho", [0.2, 0.38, 0.6])
def test_sender_br_converges_on_eight_symbol_circulant(rho):
    # 512 encoder coordinates, inside the dense Newton phase's reach: the
    # secret is the state with probability 0.7, otherwise a cyclic shift of
    # it with weight falling off as 1 / cyclic distance
    m = 8
    dist = np.minimum(np.arange(1, m), m - np.arange(1, m))
    row = np.concatenate([[0.7], 0.3 / dist / (1.0 / dist).sum()])
    pxw = np.array([np.roll(row, x) for x in range(m)]) / m
    g = GameInstance(JointPXZW.from_xw_matrix(pxw), hamming_distortion(m), FiniteSpace(m), rho)
    beta = ReceiverPolicy.identity(m)
    res = sender_best_response(g, beta)
    assert res.converged
    a = res.policy.a
    grad = sender_cost_gradient(g, res.policy, beta)
    gap = float(((a * grad).sum(axis=0) - grad.min(axis=0)).max())
    assert gap <= DEFAULT_SETTINGS.grad_tol


def stochastic_decoder_draw(seed: int, index: int):
    """Draw number `index` of a seeded stream of random games and decoders."""
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        m = int(rng.integers(2, 5))
        q = int(rng.integers(2, 4))
        r = int(rng.integers(2, 5))
        g = random_game(rng, m, q, r, float(rng.random() * 2.0))
        beta = random_receiver(rng, m, r)
    return g, beta


# Against these decoders a frozen coordinate in a heavy message row wants to
# grow (only a crossing move lifts it), a boundary-pinned Newton step needs
# its blockers crossed, or one Newton phase stalls and a second round of
# support re-shaping is needed.
@pytest.mark.parametrize(
    "seed, index",
    [(7, 127), (8, 22), (8, 290), (8, 379), (8, 462), (8, 509), (8, 733), (8, 833)],
)
def test_sender_br_converges_against_hard_stochastic_decoders(seed, index):
    g, beta = stochastic_decoder_draw(seed, index)
    res = sender_best_response(g, beta)
    assert res.converged
    a = res.policy.a
    grad = sender_cost_gradient(g, res.policy, beta)
    assert float(((a * grad).sum(axis=0) - grad.min(axis=0)).max()) <= DEFAULT_SETTINGS.grad_tol


def test_sender_br_matches_grid_oracle(rng):
    for _ in range(20):
        g = random_game(rng, 2, 2, 2, float(rng.random() * 2.0))
        beta = random_receiver(rng, 2, 2)
        res = sender_best_response(g, beta)
        assert res.converged
        oracle = grid_oracle_cost(g, beta)
        assert res.cost <= oracle + 1e-4
        assert abs(res.cost - oracle) <= 1e-4


def test_sender_br_result_invariants(rng):
    g = random_game(rng, 3, 2, 3, 0.9)
    beta = random_receiver(rng, 3, 3)
    res = sender_best_response(g, beta)
    assert res.iterations <= DEFAULT_SETTINGS.max_iters
    if res.converged:
        assert res.stationarity_gap <= DEFAULT_SETTINGS.grad_tol
    # reported cost is the cost of the reported policy
    assert abs(res.cost - sender_cost(g, res.policy, beta)) < 1e-12


def test_sender_br_respects_max_iters_budget():
    g = circulant_game(0.4)
    tight = SolverSettings(max_iters=3, grad_tol=1e-14)
    res = sender_best_response(g, ReceiverPolicy.identity(5), tight)
    assert res.iterations <= 3
    assert not res.converged


def test_sender_br_newton_phase_stays_within_max_iters():
    # the mirror phase hands off after about 20 iterations here, leaving the
    # Newton phase less than its own iteration cap
    g = circulant_game(0.3)
    tight = SolverSettings(max_iters=23)
    res = sender_best_response(g, ReceiverPolicy.identity(5), tight)
    assert res.iterations <= 23


def test_sender_br_stuck_newton_phase_stops_at_huge_rho():
    # circulant5 at rho = 1e8 sticks at a gap of about 3e-1, where the Newton
    # line search accepts steps inside the cost slack that lower nothing;
    # counted as moves they held the phase for its whole budget (120
    # iterations in all). Which point it sticks at depends on the summation
    # order, so the solve runs with one BLAS thread, as the benchmark does.
    code = (
        "from conftest import circulant_game\n"
        "from privsig.game import ReceiverPolicy\n"
        "from privsig.solve import sender_best_response\n"
        "res = sender_best_response(circulant_game(1e8), ReceiverPolicy.identity(5))\n"
        "print(res.iterations, res.converged)\n"
    )
    path = os.pathsep.join([str(Path(privsig.__file__).parents[1]), str(Path(__file__).parent)])
    one = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = dict(os.environ, PYTHONPATH=path, **one)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    iterations, converged = out.stdout.split()
    assert converged == "True" or int(iterations) <= 60


def test_solver_settings_validation():
    with pytest.raises(ValueError):
        SolverSettings(max_iters=0)
    with pytest.raises(ValueError):
        SolverSettings(grad_tol=0.0)
    with pytest.raises(ValueError):
        SolverSettings(step_init=-1.0)


# ----------------------------------------------------------- equilibria


def test_babbling_equilibrium_circulant():
    g = circulant_game(1.0)
    alpha, beta = babbling_equilibrium(g)
    assert np.all(alpha.a == 0.2)
    np.testing.assert_array_equal(beta.b[0, :], np.ones(5))
    report = epsilon_nash_check(g, alpha, beta, 1e-9)
    assert report.member
    assert report.receiver_gap <= 1e-9
    assert report.sender_gap <= 1e-9


def test_babbling_mode_selection():
    p = np.zeros((2, 2, 2))
    p[0, 0, :] = 0.05
    p[1, 1, :] = 0.45
    g = GameInstance(
        JointPXZW.from_tensor(p), hamming_distortion(2), FiniteSpace(2), 0.5
    )
    _, beta = babbling_equilibrium(g)
    assert beta.b[1, 0] == 1.0 and beta.b[1, 1] == 1.0


def test_babbling_general_distortion_uses_prior_cost():
    # mode is symbol 0, but mistaking 1 for 0 is five times worse than the
    # reverse, so the prior-optimal estimate is symbol 1
    p = np.zeros((2, 2, 1))
    p[0, 0, 0] = 0.6
    p[1, 1, 0] = 0.4
    d = DistortionMatrix(np.array([[0.0, 1.0], [5.0, 0.0]]))
    g = GameInstance(JointPXZW.from_tensor(p), d, FiniteSpace(2), 0.5)
    alpha, beta = babbling_equilibrium(g)
    assert beta.b[1, 0] == 1.0
    assert epsilon_nash_check(g, alpha, beta, 1e-9).member


def test_explicit_equilibrium_rho_zero_circulant():
    g = circulant_game(0.0)
    alpha, beta = explicit_equilibrium(g)
    np.testing.assert_array_equal(beta.b, np.eye(5))
    assert expected_distortion(g, alpha, beta) <= 1e-10
    assert abs(leakage(g, alpha) - CIRCULANT_MI_NATS) < 1e-6


def test_explicit_equilibrium_large_rho_suppresses_leakage():
    # at rho=10 the encoder nearly silences the channel yet still beats the
    # babbling cost: scrambling only where measurements are ambiguous keeps
    # distortion well below the prior-guessing level
    g = circulant_game(10.0)
    alpha, beta = explicit_equilibrium(g)
    assert leakage(g, alpha) < 1e-3
    babbling_cost = 0.8
    assert sender_cost(g, alpha, beta) < babbling_cost - 0.1
    report = epsilon_nash_check(g, alpha, beta, 1e-6)
    assert report.member


def test_explicit_equilibrium_requires_matching_alphabets():
    rng = np.random.default_rng(5)
    g = random_game(rng, 3, 2, 2, 0.5)
    with pytest.raises(ValueError, match="alphabet"):
        explicit_equilibrium(g)


def test_explicit_equilibrium_independent_secret_stays_truthful():
    # W carries nothing about (X, Z), so reporting Z verbatim leaks nothing
    rng = np.random.default_rng(9)
    px = np.array([0.3, 0.7])
    pw = np.array([0.25, 0.75])
    p = np.zeros((2, 2, 2))
    for x in range(2):
        p[x, x, :] = px[x] * pw
    for rho in (0.0, 0.7, 3.0):
        g = GameInstance(
            JointPXZW.from_tensor(p), hamming_distortion(2), FiniteSpace(2), rho
        )
        alpha, beta = explicit_equilibrium(g)
        assert expected_distortion(g, alpha, beta) <= 1e-8
        assert leakage(g, alpha) <= 1e-8
        np.testing.assert_allclose(alpha.a, SenderPolicy.truthful(2, 2).a, atol=1e-6)


def test_epsilon_nash_check_flags_non_equilibrium():
    g = circulant_game(1.0)
    report = epsilon_nash_check(
        g, SenderPolicy.truthful(5, 5), ReceiverPolicy.constant(0, 5, 5), 1e-6
    )
    assert report.receiver_gap > 0.0
    assert not report.member
    with pytest.raises(ValueError):
        epsilon_nash_check(g, SenderPolicy.truthful(5, 5), ReceiverPolicy.identity(5), 0.0)


def test_explicit_equilibrium_receiver_side(rng):
    # identity decoding is already optimal against the constructed encoder
    for _ in range(10):
        m = int(rng.integers(2, 4))
        g = random_game(rng, m, 2, m, float(rng.random() * 1.5))
        alpha, beta = explicit_equilibrium(g)
        best = receiver_best_response(g, alpha)
        assert expected_distortion(g, alpha, best) >= expected_distortion(g, alpha, beta) - 1e-8


def test_data_processing_inequality(rng):
    for _ in range(200):
        m = int(rng.integers(2, 4))
        q = int(rng.integers(2, 4))
        r = int(rng.integers(2, 5))
        g = random_game(rng, m, q, r, 1.0)
        alpha = random_sender(rng, r, m, q)
        beta = random_receiver(rng, m, r)
        i_wy = leakage(g, alpha)
        j_wxh = np.einsum("xzw,yzw,ky->wk", g.joint.p, alpha.a, beta.b)
        i_wxh = _mutual_information(j_wxh)
        assert i_wxh <= i_wy + 1e-10
