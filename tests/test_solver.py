import itertools
import math
import os
import subprocess
import sys
import tracemalloc
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
    summed_block_gap,
)
from privsig.game import (
    DistortionMatrix,
    GameInstance,
    ReceiverPolicy,
    SenderPolicy,
    _joint_yw,
    expected_distortion,
    hamming_distortion,
    leakage,
    receiver_cost,
    sender_cost,
)
import privsig.solve
from privsig.prob import FiniteSpace, JointPXZW, _mutual_information
from privsig.solve import (
    _FREEZE_MASS,
    _MASS_FLOOR,
    DEFAULT_SETTINGS,
    SolverSettings,
    _active_set_basis,
    _cost_slack,
    _gradient,
    _log_floored,
    _newton_direction,
    _objective_parts,
    _rescale_crossings,
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


def masked_leakage_parts(a, pzw, pw):
    """Reference: the leakage kernel that masks every (y, w) cell, by
    P{W} > 0 and P{Y, W} > 0, whether or not any cell lacks mass."""
    jyw = np.einsum("yzw,zw->yw", a, pzw)
    py = jyw.sum(axis=1)
    valid = (pw[None, :] > 0.0) & (jyw > 0.0)
    logratio = np.where(
        valid,
        np.log(np.where(valid, jyw, 1.0))
        - np.log(np.maximum(py, 1e-300))[:, None] - np.log(np.maximum(pw, 1e-300))[None, :],
        0.0,
    )
    return float((jyw * logratio).sum()), logratio


def test_leakage_parts_match_masked_reference_to_the_bit():
    # the kernel skips the masking when every (y, w) cell has mass
    rng = np.random.default_rng(53)
    every_cell = 0
    for k in range(300):
        r, m, q = (int(v) for v in rng.integers(2, 6, 3))
        pzw = rng.random((m, q)) ** 2
        pzw[rng.random((m, q)) < 0.2] = 0.0  # zero-probability cells
        if k % 3 == 0:
            pzw[:, rng.integers(q)] = 0.0  # a secret of probability zero
        pzw[0, 0] += 0.1
        pzw /= pzw.sum()
        pw = pzw.sum(axis=0)
        a = rng.random((r, m, q))
        a[rng.random(a.shape) < 0.3] = 0.0  # messages left without mass
        a /= np.maximum(a.sum(axis=0), 1e-300)
        zeta, logratio = privsig.solve._leakage_parts(a, pzw, privsig.solve._log_floored(pw))
        zeta_ref, logratio_ref = masked_leakage_parts(a, pzw, pw)
        assert zeta == zeta_ref
        np.testing.assert_array_equal(logratio, logratio_ref)
        every_cell += bool(np.einsum("yzw,zw->yw", a, pzw).all())
    assert 50 <= every_cell <= 250


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


def test_sender_br_single_message_returns_the_only_encoder(rng):
    # with |Y| = 1 every block's simplex is one point: no iterations, no gap
    g = random_game(rng, 3, 2, 1, 0.7)
    beta = random_receiver(rng, 3, 1)
    res = sender_best_response(g, beta)
    assert (res.iterations, res.converged, res.stationarity_gap) == (0, True, 0.0)
    np.testing.assert_array_equal(res.policy.a, np.ones((1, 3, 2)))
    assert res.cost == pytest.approx(sender_cost(g, res.policy, beta), rel=1e-12)


def test_sender_br_huge_rho_goes_silent():
    g = circulant_game(1e3)
    res = sender_best_response(g, ReceiverPolicy.identity(5))
    assert res.converged
    assert leakage(g, res.policy) < 1e-6


def shifted_circulant_game(m: int, rho: float) -> GameInstance:
    """The secret is the state with probability 0.7, otherwise a cyclic shift
    of it with weight falling off as 1 / cyclic distance."""
    dist = np.minimum(np.arange(1, m), m - np.arange(1, m))
    row = np.concatenate([[0.7], 0.3 / dist / (1.0 / dist).sum()])
    pxw = np.array([np.roll(row, x) for x in range(m)]) / m
    return GameInstance(JointPXZW.from_xw_matrix(pxw), hamming_distortion(m), FiniteSpace(m), rho)


def assert_certified(g, beta, res):
    assert res.converged
    assert summed_block_gap(g, beta, res) <= DEFAULT_SETTINGS.grad_tol


@pytest.mark.parametrize("rho", [0.2, 0.38, 0.6])
def test_sender_br_converges_on_eight_symbol_circulant(rho):
    # 512 encoder coordinates, below _POLISH_MAX_VARS, so the Newton phase
    # runs
    g = shifted_circulant_game(8, rho)
    beta = ReceiverPolicy.identity(8)
    assert_certified(g, beta, sender_best_response(g, beta))


@pytest.mark.parametrize("rho", [0.2, 0.38, 0.6])
def test_sender_br_twelve_symbol_newton_systems_stay_small(rho, monkeypatch):
    # 1728 encoder coordinates: the Newton step solves systems at most
    # |Y| + 1 wide, after a thin QR of each secret's message loads in its
    # Helmert rows, never a system over a secret's or every coordinate, and
    # a batch of crossing moves evaluates the full objective at most once
    sizes, qr_shapes = [], []
    solve, qr = np.linalg.solve, np.linalg.qr

    def recording_solve(mat, rhs):
        sizes.append(mat.shape[-1])
        return solve(mat, rhs)

    def recording_qr(mat, *args, **kwargs):
        qr_shapes.append(mat.shape[-2:])
        return qr(mat, *args, **kwargs)

    batches, inside = [], []  # full objective evaluations per crossing batch
    crossings, leakage_parts = privsig.solve._rescale_crossings, privsig.solve._leakage_parts

    def counting_crossings(*args):
        batches.append(0)
        inside.append(True)
        try:
            return crossings(*args)
        finally:
            inside.pop()

    def counting_leakage_parts(*args):
        if inside:
            batches[-1] += 1
        return leakage_parts(*args)

    monkeypatch.setattr(privsig.solve.np.linalg, "solve", recording_solve)
    monkeypatch.setattr(privsig.solve.np.linalg, "qr", recording_qr)
    monkeypatch.setattr(privsig.solve, "_rescale_crossings", counting_crossings)
    monkeypatch.setattr(privsig.solve, "_leakage_parts", counting_leakage_parts)
    g = shifted_circulant_game(12, rho)
    beta = ReceiverPolicy.identity(12)
    res = sender_best_response(g, beta)
    monkeypatch.undo()
    assert sizes, "the Newton phase never ran"
    assert max(sizes) <= 12 + 1
    assert qr_shapes, "no active set needed a QR"
    assert all(rows <= (12 - 1) * 12 and cols <= 12 for rows, cols in qr_shapes)
    assert batches, "no crossing moves were tried"
    assert max(batches) <= 1
    assert_certified(g, beta, res)


def evaluate(c, pzw, pw, rho, a):
    """The solver's evaluation of a: (cost, log-ratio, gradient)."""
    cost, logratio = _objective_parts(c, pzw, _log_floored(pw), rho, a)
    return cost, logratio, _gradient(c, rho * pzw, logratio)


def dense_newton_direction(pzw, rho, a, heavy, grad, lam):
    """Reference: the damped KKT system over every heavy coordinate.

    [lam I + H, A^T; A, 0] [d; nu] = [-grad; 0], with H the leakage Hessian
    rho P(z,w) P(z',w') [y = y'] ([w = w'] / P(y,w) - 1 / P(y)) and A summing
    each (z, w) block that holds a heavy coordinate.
    """
    ys, zs, ws = (ix[heavy] for ix in np.indices(a.shape))
    jyw = np.einsum("yzw,zw->yw", a, pzw)
    pz = pzw[zs, ws]
    jv = jyw[ys, ws]
    inv_j = np.divide(1.0, jv, out=np.zeros_like(jv), where=jv > 0.0)
    same_y = ys[:, None] == ys[None, :]
    same_w = ws[:, None] == ws[None, :]
    hess = rho * np.outer(pz, pz) * same_y * (same_w * inv_j[:, None] - 1.0 / jyw.sum(axis=1)[ys][:, None])
    blocks = zs * a.shape[2] + ws
    rows = (blocks[None, :] == np.unique(blocks)[:, None]).astype(float)
    n, k = blocks.size, rows.shape[0]
    kkt = np.block([[hess + lam * np.eye(n), rows.T], [rows, np.zeros((k, k))]])
    sol = np.linalg.solve(kkt, np.concatenate([-grad[heavy], np.zeros(k)]))
    d = np.zeros(a.shape)
    d[heavy] = sol[:n]
    return d.reshape(-1)


def test_newton_direction_matches_dense_kkt_solve():
    rng = np.random.default_rng(31)
    compared = tiny_lam = 0
    for _ in range(300):
        r, m, q = (int(v) for v in rng.integers(2, 6, 3))
        pzw = rng.random((m, q)) ** 2
        pzw[rng.random((m, q)) < 0.2] = 0.0  # zero-probability cells
        pzw[0, 0] += 0.1
        pzw /= pzw.sum()
        a = rng.random((r, m, q))
        frozen = rng.random(a.shape) < 0.3
        a[frozen] = 10.0 ** rng.uniform(-300.0, -11.0, frozen.sum())
        a /= a.sum(axis=0)
        rho = 10.0 ** rng.uniform(-2.0, 3.0)
        grad = evaluate(rng.random(a.shape), pzw, pzw.sum(axis=0), rho, a)[2]
        heavy = a >= _FREEZE_MASS
        if rng.random() < 0.5:
            # a block whose coordinates are all frozen
            heavy[:, rng.integers(m), rng.integers(q)] = False
        direction = _newton_direction(pzw, rho, a, heavy, grad)
        for lam in 10.0 ** np.arange(-12, 1):
            dense = dense_newton_direction(pzw, rho, a, heavy, grad, lam)
            scale = float(np.abs(dense).max())
            if scale > 2.0:
                continue
            # 1e-15 is a few ulps of a block's unit mass: a zero direction
            # has no relative scale
            assert float(np.abs(direction(lam) - dense).max()) <= 1e-9 * scale + 1e-15
            compared += 1
            tiny_lam += lam <= 1e-10
    assert compared >= 300 and tiny_lam >= 20


def rank_deficient_state(rng, case: str):
    """A random Newton state whose active set leaves curvature-free moves.

    lone-message: message 0's heavy coordinates are each alone in their
    block, so its load in the Helmert rows is 0. narrow-secret: two secrets;
    secret 0 has probability only in block 0 and more rows than |Y|, most
    of them in zero-probability cells, so the batch needs a QR, while
    secret 1 has between 1 and |Y| dimensions of moves. zero-cells: about
    half the (z, w) cells have probability zero. The distortion
    coefficients vanish on zero-probability cells, as in a game, so the
    gradient is 0 there. Every block keeps a heavy coordinate.
    """
    r, m, q = (int(v) for v in rng.integers(3, 6, 3))
    if case == "narrow-secret":
        q = 2
    pzw = rng.random((m, q)) ** 2
    pzw[0, 0] += 0.1
    if case == "zero-cells":
        pzw[rng.random((m, q)) < 0.5] = 0.0
    elif case == "narrow-secret":
        pzw[1:, 0] = 0.0
    pzw /= pzw.sum()
    frozen = rng.random((r, m, q)) < {"lone-message": 0.3, "narrow-secret": 0.75, "zero-cells": 0.6}[case]
    zi, wi = np.arange(m)[:, None], np.arange(q)
    keep = rng.integers(1, r, (m, q))
    frozen[keep, zi, wi] = False
    if case == "lone-message":
        alone = rng.random((m, q)) < 0.5
        frozen[:, alone] = True
        frozen[0] = ~alone
    elif case == "narrow-secret":
        # secret 0: two or three heavy messages in its one block of positive
        # probability, every message heavy in the others
        frozen[:, :, 0] = False
        frozen[1:, 0, 0] = True
        frozen[[keep[0, 0], r - 1], 0, 0] = False
        # secret 1: one heavy message a block, then a pair in block 0 and
        # r - 1 more coordinates, each adding at most one dimension
        frozen[:, :, 1] = True
        frozen[keep[:, 1], np.arange(m), 1] = False
        frozen[0, 0, 1] = False
        extra = rng.integers(0, (r, m), size=(r - 1, 2))
        frozen[extra[:, 0], extra[:, 1], 1] = False
    # heavy masses of at least 0.05 keep every frozen one below the freeze
    # mass once its block is normalized
    a = rng.random((r, m, q)) + 0.05
    a[frozen] = 10.0 ** rng.uniform(-300.0, -12.0, frozen.sum())
    a /= a.sum(axis=0)
    c = np.where(pzw == 0.0, 0.0, rng.random(a.shape))
    rho = 10.0 ** rng.uniform(-2.0, 3.0)
    return pzw, rho, a, a >= _FREEZE_MASS, evaluate(c, pzw, pzw.sum(axis=0), rho, a)[2]


def constraint_dims(heavy: np.ndarray) -> np.ndarray:
    """Dimensions of each secret's mass-conserving moves of heavy coordinates."""
    return np.maximum(heavy.sum(axis=0) - 1, 0).sum(axis=0)


@pytest.mark.parametrize("case", ["lone-message", "narrow-secret", "zero-cells"])
def test_newton_direction_matches_dense_kkt_solve_on_rank_deficient_active_sets(case):
    # where a secret's moves outnumber |Y| the curvature-free part is taken
    # and divided by lam; anywhere else it is rounding residue, which a small
    # lam would lift far above the tolerance
    rng = np.random.default_rng({"lone-message": 41, "narrow-secret": 42, "zero-cells": 43}[case])
    compared = small_lam = tiny_lam = 0
    for _ in range(200):
        pzw, rho, a, heavy, grad = rank_deficient_state(rng, case)
        basis = _active_set_basis(pzw, heavy)
        dims = constraint_dims(heavy)
        if case == "lone-message":
            assert heavy[0].any() and not np.any(basis.r[..., 0])
        elif case == "narrow-secret":
            assert basis.q is not None and dims[0] > a.shape[0] and 1 <= dims[1] <= a.shape[0]
        else:
            assert np.any(heavy & (pzw == 0.0) & (heavy.sum(axis=0) > 1))
        direction = _newton_direction(pzw, rho, a, heavy, grad, basis)
        for lam in 10.0 ** np.arange(-12, 1):
            dense = dense_newton_direction(pzw, rho, a, heavy, grad, lam)
            scale = float(np.abs(dense).max())
            if scale > 2.0:
                continue
            assert float(np.abs(direction(lam) - dense).max()) <= 1e-9 * scale + 1e-15
            compared += 1
            small_lam += lam <= 1e-6
            tiny_lam += lam <= 1e-10
    assert compared >= 250 and small_lam >= 30 and tiny_lam >= 10


def test_newton_phase_builds_one_basis_per_active_set(monkeypatch):
    # the QR of the Helmert-row loads depends only on the active set and
    # P{Z, W}, so a Newton iteration whose active set is unchanged reuses it
    problems = [(circulant_game(rho), ReceiverPolicy.identity(5)) for rho in (0.2, 0.38, 0.6, 0.9)]
    problems.append((shifted_circulant_game(12, 0.38), ReceiverPolicy.identity(12)))
    phases, built, qr_calls = [], [], [0]
    polish, direction = privsig.solve._newton_polish, privsig.solve._newton_direction
    basis, qr = privsig.solve._active_set_basis, np.linalg.qr

    def recording_polish(*args):
        phases.append([])
        return polish(*args)

    def recording_direction(pzw, rho, a, heavy, *rest):
        phases[-1].append(heavy.tobytes())
        return direction(pzw, rho, a, heavy, *rest)

    def recording_basis(*args):
        built.append(basis(*args))
        return built[-1]

    def counting_qr(*args, **kwargs):
        qr_calls[0] += 1
        return qr(*args, **kwargs)

    monkeypatch.setattr(privsig.solve, "_newton_polish", recording_polish)
    monkeypatch.setattr(privsig.solve, "_newton_direction", recording_direction)
    monkeypatch.setattr(privsig.solve, "_active_set_basis", recording_basis)
    monkeypatch.setattr(privsig.solve.np.linalg, "qr", counting_qr)
    for g, beta in problems:
        assert sender_best_response(g, beta).converged
    monkeypatch.undo()
    changes = sum(1 + sum(x != y for x, y in zip(sets, sets[1:])) for sets in phases if sets)
    directions = sum(len(sets) for sets in phases)
    assert len(built) == changes < directions
    # a basis needs a QR where some secret has more rows than |Y|
    assert qr_calls[0] == sum(b.q is not None for b in built) >= 3


def test_damping_skip_drops_only_overlong_directions(monkeypatch):
    # a damping value whose curvature-free part alone makes the direction
    # longer than the Newton phase accepts is skipped without a solve; the
    # solve it skips would have been rejected as overlong
    problems = [(circulant_game(rho), ReceiverPolicy.identity(5)) for rho in (0.1, 0.38, 0.9)]
    problems += [stochastic_decoder_draw(7, i) for i in range(10)]
    skipped, overlong = [], []
    direction = privsig.solve._newton_direction

    def checking_direction(*args):
        inner = direction(*args)

        def checked(lam, limit=np.inf):
            d = inner(lam, limit)
            if d is None:
                skipped.append(lam)
                overlong.append(float(np.abs(inner(lam)).max()) > limit)
            return d

        return checked

    monkeypatch.setattr(privsig.solve, "_newton_direction", checking_direction)
    for g, beta in problems:
        assert sender_best_response(g, beta).converged
    monkeypatch.undo()
    assert len(skipped) >= 20 and all(overlong)


def full_evaluation_crossings(c, pzw, pw, rho, a, ys, zs, ws, blocks, lam_b, coords, cost):
    """Reference: each crossing move priced by evaluating the full objective
    of a copy of the encoder, against a freshly built (y, w) joint.

    Returns the final encoder and cost, and (y, z, w, mass, cost change) for
    every candidate priced, in order.
    """
    priced = []
    for i in coords:
        y, z, w = int(ys[i]), int(zs[i]), int(ws[i])
        p = pzw[z, w]
        if p <= 0.0 or pw[w] <= 0.0:
            continue
        jy = _joint_yw(pzw, a)[y]
        own = p * a[y, z, w]
        j0, p0 = jy[w] - own, jy.sum() - own
        with np.errstate(over="ignore"):
            k = pw[w] * np.exp((float(lam_b[blocks[i]]) - c[y, z, w]) / (rho * p))
        if k >= 1.0:
            m = 0.5
        else:
            m = min(max((k * p0 - j0) / (p * (1.0 - k)), _MASS_FLOOR), 0.5)
        if abs(np.log(m) - np.log(max(a[y, z, w], _MASS_FLOOR))) < 1e-9:
            continue
        cand = a.copy()
        cand[:, z, w] *= (1.0 - m) / (1.0 - cand[y, z, w])
        cand[y, z, w] = m
        cand_cost = evaluate(c, pzw, pw, rho, cand)[0]
        priced.append((y, z, w, m, cand_cost - cost))
        if cand_cost <= cost + _cost_slack(cost):
            a, cost = cand, cand_cost
    return a, cost, priced


def test_crossing_moves_priced_incrementally_match_full_evaluation(monkeypatch):
    seen = []  # (encoder, coordinate, mass, cost change) per candidate priced
    price = privsig.solve._price_crossing

    def recording_price(c, pzw, pw, rho, a, jyw, py, fsums, y, z, w, m):
        out = price(c, pzw, pw, rho, a, jyw, py, fsums, y, z, w, m)
        seen.append((a.copy(), (y, z, w), m, out[-1]))
        return out

    monkeypatch.setattr(privsig.solve, "_price_crossing", recording_price)
    rng = np.random.default_rng(47)
    compared = accepted = moved_batches = 0
    for _ in range(300):
        r, m, q = (int(v) for v in rng.integers(2, 6, 3))
        pzw = rng.random((m, q)) ** 2
        pzw[rng.random((m, q)) < 0.2] = 0.0  # zero-probability cells
        pzw[0, 0] += 0.1
        pzw /= pzw.sum()
        pw = pzw.sum(axis=0)
        a = rng.random((r, m, q)) ** 3
        a /= a.sum(axis=0)
        a[rng.random(a.shape) < 0.3] = _MASS_FLOOR
        a /= a.sum(axis=0)
        rho = 10.0 ** rng.uniform(-2.0, 3.0)
        c = rng.random(a.shape) * pzw
        cost, logratio, grad = evaluate(c, pzw, pw, rho, a)
        lam_b = np.where(a >= _FREEZE_MASS, grad, np.inf).min(axis=0).reshape(-1)
        ys, zs, ws = (ix.reshape(-1) for ix in np.indices(a.shape))
        blocks = zs * q + ws
        coords = rng.permutation(a.size)[: int(rng.integers(1, a.size + 1))]
        fixed = (c, pzw, pw, rho)
        index = (ys, zs, ws, blocks, lam_b)
        a_in = a.copy()

        seen.clear()
        with np.errstate(divide="ignore", invalid="ignore"):
            got_a, got_cost, got_ratio, moved = _rescale_crossings(
                *fixed, a, cost, logratio, grad, coords
            )
            # each candidate against the reference, from the state it was
            # priced in
            for state, coord, mass, delta in seen:
                now = evaluate(*fixed, state)[0]
                one = [np.ravel_multi_index(coord, a.shape)]
                ((*coord_ref, mass_ref, full),) = full_evaluation_crossings(
                    *fixed, state, *index, one, now
                )[2]
                assert tuple(coord_ref) == coord
                # near the floor the crossing's numerator cancels, so the
                # running and the fresh joint agree on it only absolutely
                assert abs(mass - mass_ref) <= 1e-9 * mass_ref + 1e-12
                if not np.isfinite(full):
                    # a column the coordinate owns whole has no rest to rescale
                    assert not np.isfinite(delta)
                    continue
                # the objective sums terms up to rho in size, so the full
                # evaluation's own rounding is a few ulps of cost + rho
                assert abs(delta - full) <= 2.0 * _cost_slack(now + rho), (delta, full)
                compared += 1
                accepted += delta <= _cost_slack(now)
        np.testing.assert_array_equal(a, a_in)  # the input is not mutated

        # the returned cost and log-ratio are the returned encoder's,
        # evaluated afresh; a batch counts as a move only if it lowered that
        # cost
        want_cost, want_ratio, _ = evaluate(*fixed, got_a)
        assert got_cost == want_cost
        np.testing.assert_array_equal(got_ratio, want_ratio)
        assert moved == (got_cost < cost)
        if moved:
            moved_batches += 1
        else:
            assert got_a is a and got_cost == cost and got_ratio is logratio
    assert compared >= 1000 and accepted >= 300 and moved_batches >= 100


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
# support re-shaping is needed. Draws 505 and 758 of seed 8 each bisect once
# for a row rebalance's scale, a branch no other test reaches.
@pytest.mark.parametrize(
    "seed, index",
    [(7, 127), (8, 22), (8, 290), (8, 379), (8, 462), (8, 505), (8, 509), (8, 733),
     (8, 758), (8, 833)],
)
def test_sender_br_converges_against_hard_stochastic_decoders(seed, index):
    g, beta = stochastic_decoder_draw(seed, index)
    assert_certified(g, beta, sender_best_response(g, beta))


def test_sender_solver_evaluates_each_iterate_once(monkeypatch):
    # the evaluation that accepts a step or a lift (or hands an iterate to
    # the next phase) carries its log-ratio on, so no evaluation repeats an
    # encoder within a solve, the row rebalance's and the crossing moves'
    # included
    problems = [stochastic_decoder_draw(7, i) for i in range(20)] + [
        (shifted_circulant_game(m, rho), ReceiverPolicy.identity(m))
        for m in (5, 8, 16) for rho in (0.2, 0.38, 0.6)
    ]
    plain = [sender_best_response(g, beta) for g, beta in problems]

    scope = ["solver"]
    evaluated = {}  # encoder bytes -> the scope of its first evaluation
    repeats = []
    leakage_parts = privsig.solve._leakage_parts

    def recording(a, *rest):
        key = a.tobytes()
        if key in evaluated:
            repeats.append((scope[-1], evaluated[key]))
        evaluated.setdefault(key, scope[-1])
        return leakage_parts(a, *rest)

    def scoped(name, inner):
        def wrapper(*args):
            scope.append(name)
            try:
                return inner(*args)
            finally:
                scope.pop()
        return wrapper

    monkeypatch.setattr(privsig.solve, "_leakage_parts", recording)
    for name, helper in [
        ("mirror", "_mirror_phase"), ("newton", "_newton_polish"),
        ("rebalance", "_row_rebalance"), ("crossings", "_rescale_crossings"),
    ]:
        monkeypatch.setattr(privsig.solve, helper, scoped(name, getattr(privsig.solve, helper)))
    phases_run = set()
    for (g, beta), want in zip(problems, plain):
        evaluated.clear()
        got = sender_best_response(g, beta)
        phases_run.update(evaluated.values())
        assert got.iterations == want.iterations and got.converged == want.converged
        assert repr((got.cost, got.stationarity_gap)) == repr((want.cost, want.stationarity_gap))
        np.testing.assert_array_equal(got.policy.a, want.policy.a)
    monkeypatch.undo()
    assert phases_run == {"solver", "mirror", "newton", "rebalance", "crossings"}
    assert not repeats, f"{len(repeats)} repeated evaluations, e.g. {repeats[:3]}"


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


def test_sender_br_start_with_zeros_is_floored(monkeypatch):
    # the truthful encoder has exact zeros, which multiplicative steps could
    # never lift; the solver starts from it floored and renormalized
    g = circulant_game(0.38)
    beta = ReceiverPolicy.identity(5)
    start = SenderPolicy.truthful(5, 5)
    entries = []
    mirror = privsig.solve._mirror_phase

    def recording_mirror(c, pzw, pw, rho, a, *rest):
        entries.append(a.copy())
        return mirror(c, pzw, pw, rho, a, *rest)

    monkeypatch.setattr(privsig.solve, "_mirror_phase", recording_mirror)
    warm = sender_best_response(g, beta, start=start)
    monkeypatch.undo()
    first = entries[0]
    assert first.min() >= 0.5 * _FREEZE_MASS
    np.testing.assert_allclose(first.sum(axis=0), 1.0, rtol=0.0, atol=1e-15)
    assert_certified(g, beta, warm)
    cold = sender_best_response(g, beta)
    bound = summed_block_gap(g, beta, warm) + summed_block_gap(g, beta, cold)
    assert abs(warm.cost - cold.cost) <= bound + _cost_slack(cold.cost)


def test_sender_br_start_of_wrong_shape_is_rejected():
    g = circulant_game(0.38)
    with pytest.raises(ValueError, match="shape"):
        sender_best_response(g, ReceiverPolicy.identity(5), start=SenderPolicy.uniform(4, 5, 5))


def test_solver_seed_has_no_effect():
    # the solver is deterministic; seed is accepted for schema_version 1 only
    g = circulant_game(0.38)
    beta = ReceiverPolicy.identity(5)
    one = sender_best_response(g, beta, SolverSettings(seed=0))
    two = sender_best_response(g, beta, SolverSettings(seed=12345))
    assert one.iterations == two.iterations and one.cost == two.cost
    np.testing.assert_array_equal(one.policy.a, two.policy.a)


def test_sender_br_newton_phase_holds_one_system_at_a_time():
    # the Newton phase holds one active-set basis, (|W|, |X| |Y|, |Y|) moves
    # and the QR's factors, 0.17 MB each at m = 12, and systems at most
    # |Y| + 1 wide; a dense (|W|, n + |X|, n + |X|) system per direction
    # took the peak to 3.0 MB, and with the previous iteration's still alive
    # to 5.6 MB
    g = shifted_circulant_game(12, 0.38)
    beta = ReceiverPolicy.identity(12)
    # a first solve does the lazy imports, whose allocations would count too
    sender_best_response(circulant_game(0.38), ReceiverPolicy.identity(5))
    tracemalloc.start()
    try:
        res = sender_best_response(g, beta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.converged
    assert peak <= 1.5 * 2**20


def run_circulant5(rhos, threads: int) -> list[str]:
    """Solve circulant5 at each rho in a fresh interpreter with this many BLAS
    threads; one line per rho: iterations, converged, cost, gap."""
    code = (
        "from conftest import circulant_game\n"
        "from privsig.game import ReceiverPolicy\n"
        "from privsig.solve import sender_best_response\n"
        f"for rho in {list(rhos)!r}:\n"
        "    res = sender_best_response(circulant_game(rho), ReceiverPolicy.identity(5))\n"
        "    print(res.iterations, res.converged, repr(res.cost), repr(res.stationarity_gap))\n"
    )
    path = os.pathsep.join([str(Path(privsig.__file__).parents[1]), str(Path(__file__).parent)])
    blas = {name: str(threads) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = dict(os.environ, PYTHONPATH=path, **blas)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines()


def test_sender_br_stuck_newton_phase_stops_at_huge_rho():
    # circulant5 at rho = 1e8 sticks at a gap of about 3e-1, where the Newton
    # line search accepts steps inside the cost slack that lower nothing;
    # counted as moves they held the phase for its whole budget (120
    # iterations in all). The solve runs with one BLAS thread, as the
    # benchmark does.
    (line,) = run_circulant5([1e8], threads=1)
    iterations, converged = line.split()[:2]
    assert converged == "True" or int(iterations) <= 60


def test_sender_br_huge_rho_same_answer_for_any_blas_thread_count():
    # the ill-conditioned Newton phase at huge rho follows last-bit
    # differences, so a summation order that depends on the BLAS thread count
    # would change the answer; whether it converges is not asserted here
    rhos = [1e8, 1e15]
    assert run_circulant5(rhos, threads=1) == run_circulant5(rhos, threads=2)


def test_solver_settings_validation():
    with pytest.raises(ValueError):
        SolverSettings(max_iters=0)
    with pytest.raises(ValueError):
        SolverSettings(grad_tol=0.0)
    with pytest.raises(ValueError):
        SolverSettings(step_init=-1.0)
    for field in ("grad_tol", "obj_tol", "step_init"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                SolverSettings(**{field: value})


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
