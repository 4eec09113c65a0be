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
    CIRCULANT_MATRIX,
    CIRCULANT_MI_NATS,
    circulant_game,
    drawn_game,
    drawn_receiver,
    drawn_sender,
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
    expected_distortion,
    hamming_distortion,
    leakage,
    receiver_cost,
    sender_cost,
)
import privsig.solve
from privsig.multi import MultiEpsilonNashReport, MultiGameInstance, MultiJoint
from privsig.prob import FiniteSpace, JointPXZW, _mutual_information
from privsig.solve import (
    _FREEZE_MASS,
    _MASS_FLOOR,
    DEFAULT_SETTINGS,
    SolverSettings,
    _active_set_basis,
    _batch_lift,
    _block_gaps,
    _cost_slack,
    _has_gradient,
    _linear_coeffs,
    _newton_direction,
    _newton_polish,
    _Problem,
    _WarmStart,
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
    P{W} > 0 and P{Y, W} > 0, whether or not any cell lacks mass. Its value
    is summed as the kernel sums it, by one dot."""
    jyw = np.einsum("yzw,zw->yw", a, pzw)
    py = jyw.sum(axis=1)
    valid = (pw[None, :] > 0.0) & (jyw > 0.0)
    logratio = np.where(
        valid,
        np.log(np.where(valid, jyw, 1.0))
        - np.log(np.maximum(py, 1e-300))[:, None] - np.log(np.maximum(pw, 1e-300))[None, :],
        0.0,
    )
    return float(np.vdot(jyw, logratio)), logratio


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


def test_pricing_kernel_matches_the_public_cost_gap_and_leakage():
    # the kernel that prices an encoder, against the public functions, on
    # games with zero-probability cells, a secret of probability zero and
    # encoders with emptied messages: the cost, the summed gap wherever a
    # gradient exists, and multi-sender play's own leakage, which must never
    # read below 0 (the uniform encoder leaks exactly nothing)
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = set()

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.integers(2, 4), st.integers(2, 3), st.integers(2, 4), st.floats(0.0, 2.0),
        st.booleans(), st.integers(0, 2**32 - 1),
    )
    def check(m, q, r, rho, dead_secret, seed):
        gen = np.random.default_rng(seed)
        p = gen.random((m, m, q)) ** 2
        p[gen.random(p.shape) < 0.3] = 0.0  # zero-probability cells
        if dead_secret:
            p[:, :, q - 1] = 0.0  # a secret of probability zero
        p[0, 0, 0] += 0.1
        g = GameInstance(
            JointPXZW.from_tensor(p / p.sum()),
            DistortionMatrix(gen.random((m, m)) * (1.0 - np.eye(m))), FiniteSpace(r), rho,
        )
        gm = MultiGameInstance(
            MultiJoint(FiniteSpace(m), (FiniteSpace(q),), g.joint.p), g.distortion,
            (FiniteSpace(r),), rho,
        )
        a = gen.random((r, m, q))
        a[gen.random(a.shape) < 0.4] = 0.0  # emptied messages
        a[0][a.sum(axis=0) == 0.0] = 1.0
        a /= a.sum(axis=0)
        beta = random_receiver(gen, m, r)
        prob = _Problem(_linear_coeffs(g, beta), g.joint.pzw, g.joint.pw, rho)
        for enc in (a, np.full_like(a, 1.0 / r)):
            alpha = SenderPolicy(enc)
            cost = sender_cost(g, alpha, beta)
            assert abs(prob.evaluate(enc)[0] - cost) <= 1e-12 * (1.0 + abs(cost))
            cert = prob.certificate(enc)
            has = _has_gradient(g.joint.pzw, g.joint.pw, rho, enc)
            seen.add(has)
            if has:
                gap = float(_block_gaps(enc, sender_cost_gradient(g, alpha, beta)).sum())
                assert abs(cert[0] - cost) <= 1e-12 * (1.0 + abs(cost))
                assert abs(cert[1] - gap) <= 1e-12 * (1.0 + abs(gap))
            else:
                assert cert is None
            zeta = privsig.multi._leakage(gm, enc, 0)
            assert zeta >= 0.0
            assert abs(zeta - _mutual_information(np.einsum("yzw,zw->yw", enc, g.joint.pzw))) <= 1e-12

    check()
    assert seen == {False, True}


def test_blind_encoder_loads_the_lowest_cheapest_message():
    # random prices and prices drawn from three values, so that most blocks
    # tie; against the scatter it replaced, bit for bit
    rng = np.random.default_rng(61)
    ties = 0
    for k in range(200):
        r, m, q = (int(v) for v in rng.integers(1, 5, 3))
        c = rng.random((r, m, q)) if k % 2 else rng.integers(0, 3, (r, m, q)).astype(float)
        lowest = np.argmax(c == c.min(axis=0), axis=0)
        ties += int(((c == c.min(axis=0)).sum(axis=0) > 1).sum())
        for rho in (0.0, 0.3):
            a = privsig.solve._blind_encoder(c, rho)
            scatter = np.zeros_like(c)
            np.put_along_axis(scatter, np.argmin(c, axis=0)[None], 1.0, axis=0)
            if rho > 0.0:
                scatter = np.maximum(scatter, _MASS_FLOOR)
            assert a.tobytes() == scatter.tobytes()
            loaded = np.arange(r)[:, None, None] == lowest
            assert np.all(a[loaded] == 1.0)
            assert np.all(a[~loaded] == (_MASS_FLOOR if rho > 0.0 else 0.0))
            assert np.all(a.sum(axis=0) == 1.0)
    assert ties > 100


def test_gradient_requires_interior_point():
    # the truthful encoder, on the boundary, loads every (y, w) cell and has
    # a gradient; reporting measurement 1 as message 0 empties message 1
    g = circulant_game(1.0)
    sender_cost_gradient(g, SenderPolicy.truthful(5, 5), ReceiverPolicy.identity(5))
    a = SenderPolicy.truthful(5, 5).a.copy()
    a[:, 1, :] = a[:, 0, :]
    with pytest.raises(ValueError, match="cell"):
        sender_cost_gradient(g, SenderPolicy(a), ReceiverPolicy.identity(5))


def boundary_encoder(rng, r: int, m: int, q: int, empty_cell: bool) -> np.ndarray:
    """A random encoder that never sends message 0 from measurement 0, so
    that it loads every (y, w) cell through the other measurements; with
    empty_cell, message 0 is unused under secret 0 too."""
    a = rng.random((r, m, q)) + 0.05
    a[0, 0, :] = 0.0
    if empty_cell:
        a[0, :, 0] = 0.0
    return a / a.sum(axis=0)


def test_own_gap_certifies_boundary_encoders_that_load_every_cell():
    # where every (y, w) cell carries mass the cost has a gradient on the
    # boundary too: it matches one-sided differences along the moves that
    # keep each block's mass, and the encoder's own summed gap, which the
    # solver's certificate gives, bounds its cost above the optimum. An
    # encoder that empties a cell has none
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(0, 2**32 - 1))
    def check(seed):
        rng = np.random.default_rng(seed)
        m, q, r = (int(v) for v in rng.integers(2, 5, 3))
        g = random_game(rng, m, q, r, 0.05 + float(rng.random()) * 2.0)
        beta = random_receiver(rng, m, r)
        alpha = SenderPolicy(boundary_encoder(rng, r, m, q, empty_cell=False))
        grad = sender_cost_gradient(g, alpha, beta)
        own = sender_cost(g, alpha, beta)
        solved = sender_best_response(g, beta)
        assert solved.converged
        gap = float(privsig.solve._block_gaps(alpha.a, grad).sum())
        assert own - gap <= solved.cost + 1e-12
        c, pzw, pw = _linear_coeffs(g, beta), g.joint.pzw, g.joint.pw
        prob = _Problem(c, pzw, pw, g.rho)
        cert = prob.certificate(alpha.a)
        assert cert[1] == gap and cert[0] == pytest.approx(own, rel=1e-12, abs=1e-12)
        h = 1e-7
        for k in range(6):
            # the first move grows a zero entry, (0, 0, w)
            z, w = (0 if k == 0 else int(rng.integers(m))), int(rng.integers(q))
            src = int(rng.choice(np.flatnonzero(alpha.a[:, z, w] > h)))
            dst = 0 if k == 0 else int(rng.choice([y for y in range(r) if y != src]))
            moved = alpha.a.copy()
            moved[src, z, w] -= h
            moved[dst, z, w] += h
            slope = (sender_cost(g, SenderPolicy(moved), beta) - own) / h
            assert slope == pytest.approx(grad[dst, z, w] - grad[src, z, w], rel=1e-4, abs=1e-5)

        empty = SenderPolicy(boundary_encoder(rng, r, m, q, empty_cell=True))
        with pytest.raises(ValueError, match="cell"):
            sender_cost_gradient(g, empty, beta)
        assert prob.certificate(empty.a) is None
        cost = sender_cost(g, empty, beta)
        ref = privsig.solve._improvement_reference(
            c, pzw, pw, g.rho, empty, cost, 1e9, DEFAULT_SETTINGS
        )
        assert ref.policy is not empty
        res = sender_best_response(g, beta, start=empty)
        assert res.converged and res.policy.a.min() > 0.0

    check()


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
    # 512 encoder coordinates; the Newton phase runs
    g = shifted_circulant_game(8, rho)
    beta = ReceiverPolicy.identity(8)
    assert_certified(g, beta, sender_best_response(g, beta))


def test_sender_br_certifies_sixteen_symbol_non_circulant():
    # 4096 encoder coordinates. Each row is drawn on its own, so the game is
    # not a circulant: 0.7 on the diagonal, the rest spread by weights
    # falling off as 1 / cyclic distance. The mirror phase crawls from a
    # largest block gap of about 1e-3 and hands off after 62 iterations; the
    # Newton phase certifies the answer in 9 more. A mirror phase that kept
    # the whole budget stalled after 717 iterations at 2.1e-5
    m, rng = 16, np.random.default_rng(4)
    dist = np.minimum(np.arange(1, m), m - np.arange(1, m))
    rows = []
    for x in range(m):
        u = rng.uniform(0.5, 1.5, m - 1) / dist
        rows.append(np.roll(np.concatenate([[0.7], 0.3 * u / u.sum()]), x))
    g = GameInstance(
        JointPXZW.from_xw_matrix(np.array(rows) / m), hamming_distortion(m), FiniteSpace(m), 0.38
    )
    beta = ReceiverPolicy.identity(m)
    res = sender_best_response(g, beta)
    assert_certified(g, beta, res)


@pytest.mark.parametrize("rho", [0.2, 0.38, 0.6])
def test_sender_br_converges_on_sixteen_symbol_circulant(rho):
    # 4096 encoder coordinates run the same mirror and Newton rounds as any
    # other size: 35, 58 and 75 iterations, where a mirror phase that kept
    # the whole budget took 35, 308 and 593
    g = shifted_circulant_game(16, rho)
    beta = ReceiverPolicy.identity(16)
    res = sender_best_response(g, beta)
    assert_certified(g, beta, res)
    assert res.iterations <= 150


def test_sender_br_sixteen_symbol_heap_stays_small():
    # the Newton phase at m = 16 keeps one active set's R and either Q or
    # its rows as moves, up to 0.5 MB, and builds W a batch of secrets at a
    # time; the peak was 3.2 MB when the basis also held the dense Helmert
    # tensor and the moves N^T Q
    g = shifted_circulant_game(16, 0.6)
    beta = ReceiverPolicy.identity(16)
    # a first solve does the lazy imports, whose allocations would count too
    sender_best_response(circulant_game(0.38), ReceiverPolicy.identity(5))
    tracemalloc.start()
    try:
        res = sender_best_response(g, beta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.converged
    assert peak <= 2.0 * 2**20


def rx_game(m: int, seed: int, rho: float) -> GameInstance:
    """0.7 on the diagonal; each row spreads the rest over the other secrets
    by weights uniform(0.5, 1.5) / cyclic distance, drawn row by row from
    default_rng(seed)."""
    rng = np.random.default_rng(seed)
    dist = np.minimum(np.arange(1, m), m - np.arange(1, m))
    rows = []
    for x in range(m):
        u = rng.uniform(0.5, 1.5, m - 1) / dist
        rows.append(np.roll(np.concatenate([[0.7], 0.3 * u / u.sum()]), x))
    joint = JointPXZW.from_xw_matrix(np.array(rows) / m)
    return GameInstance(joint, hamming_distortion(m), FiniteSpace(m), rho)


def test_sender_solver_evaluates_each_encoder_once_where_it_repeated(monkeypatch):
    # the m = 16 games stalled a mirror phase that kept the whole budget:
    # once its step fell below rounding, each halving built the same
    # candidate again (up to 11 in a row), and the Newton phase re-evaluated
    # it once more on entry. In seed 8 draw 291 a refused blocker lift and
    # the next iteration's grower lift, two coordinate lists, built the same
    # batch at one iterate
    problems = [
        (rx_game(16, seed, rho), ReceiverPolicy.identity(16)) for seed in (9, 12) for rho in (0.38, 0.6)
    ]
    problems.append(stochastic_decoder_draw(8, 291))
    evaluated, repeats = set(), []
    leakage_parts = privsig.solve._leakage_parts

    def recording(a, *rest):
        key = a.tobytes()
        if key in evaluated:
            repeats.append(key)
        evaluated.add(key)
        return leakage_parts(a, *rest)

    monkeypatch.setattr(privsig.solve, "_leakage_parts", recording)
    results = []
    for g, beta in problems:
        evaluated.clear()
        results.append(sender_best_response(g, beta))
    monkeypatch.undo()
    for (g, beta), res in zip(problems, results):
        assert_certified(g, beta, res)
    assert not repeats, f"{len(repeats)} repeated evaluations"


def test_mirror_phase_stops_halving_below_rounding(monkeypatch):
    # from a certified answer with grad_tol out of reach the steps shrink
    # below rounding; the mirror phase then stops instead of evaluating the
    # same candidate for every halving down to _TINY_STEP, and the Newton
    # phase that follows evaluates none of its candidates again
    settings = SolverSettings(grad_tol=1e-300)
    for g, m in [(circulant_game(0.38), 5), (shifted_circulant_game(8, 0.6), 8)]:
        beta = ReceiverPolicy.identity(m)
        a = sender_best_response(g, beta).policy.a
        prob = _Problem(privsig.solve._linear_coeffs(g, beta), g.joint.pzw, g.joint.pw, g.rho)
        cost, logratio = prob.evaluate(a)
        keys = []
        leakage_parts = privsig.solve._leakage_parts

        def recording(x, *rest):
            keys.append(x.tobytes())
            return leakage_parts(x, *rest)

        monkeypatch.setattr(privsig.solve, "_leakage_parts", recording)
        out = privsig.solve._mirror_phase(prob, a, cost, logratio, settings, 200, 0.0, 0.0)
        privsig.solve._newton_polish(prob, *out[:3], settings, 10)
        monkeypatch.undo()
        assert out[4] < 200  # the mirror phase stopped before its budget
        assert len(keys) == len(set(keys))


@pytest.mark.parametrize("rho", [0.2, 0.38, 0.6])
def test_sender_br_twelve_symbol_newton_systems_stay_small(rho, monkeypatch):
    # 1728 encoder coordinates: the Newton step solves systems at most
    # |Y| + 1 wide, after a thin QR of each secret's message loads in its
    # Helmert rows, never a system over a secret's or every coordinate, and
    # a batch lift evaluates the full objective at most once
    sizes, qr_shapes = [], []
    solve, qr = np.linalg.solve, np.linalg.qr

    def recording_solve(mat, rhs):
        sizes.append(mat.shape[-1])
        return solve(mat, rhs)

    def recording_qr(mat, *args, **kwargs):
        qr_shapes.append(mat.shape[-2:])
        return qr(mat, *args, **kwargs)

    batches, inside = [], []  # full objective evaluations per batch lift
    batch_lift, leakage_parts = privsig.solve._batch_lift, privsig.solve._leakage_parts

    def counting_batch_lift(*args):
        batches.append(0)
        inside.append(True)
        try:
            return batch_lift(*args)
        finally:
            inside.pop()

    def counting_leakage_parts(*args):
        if inside:
            batches[-1] += 1
        return leakage_parts(*args)

    monkeypatch.setattr(privsig.solve.np.linalg, "solve", recording_solve)
    monkeypatch.setattr(privsig.solve.np.linalg, "qr", recording_qr)
    monkeypatch.setattr(privsig.solve, "_batch_lift", counting_batch_lift)
    monkeypatch.setattr(privsig.solve, "_leakage_parts", counting_leakage_parts)
    g = shifted_circulant_game(12, rho)
    beta = ReceiverPolicy.identity(12)
    res = sender_best_response(g, beta)
    monkeypatch.undo()
    assert sizes, "the Newton phase never ran"
    assert max(sizes) <= 12 + 1
    assert qr_shapes, "no active set needed a QR"
    assert all(rows <= (12 - 1) * 12 and cols <= 12 for rows, cols in qr_shapes)
    assert batches, "no batch lift was tried"
    assert max(batches) <= 1
    assert_certified(g, beta, res)


def evaluate(c, pzw, pw, rho, a):
    """The solver's evaluation of a: (cost, log-ratio, gradient)."""
    prob = _Problem(c, pzw, pw, rho)
    cost, logratio = prob.evaluate(a)
    return cost, logratio, prob.gradient(logratio)


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


@pytest.mark.parametrize("rho", [1e-4, 0.01, 0.1])
def test_newton_phase_solves_nothing_without_two_heavy_coordinates_in_a_block(rho, monkeypatch):
    # the truthful encoder, floored below the freeze mass, has one heavy
    # coordinate per block and, at these rho, no grower. No move keeps the
    # block masses, so the direction would be 0 at every damping: the phase
    # ends without building a basis or solving a system
    g, beta = circulant_game(rho), ReceiverPolicy.identity(5)
    a = np.maximum(SenderPolicy.truthful(5, 5).a, 1e-12)
    a /= a.sum(axis=0)
    prob = _Problem(_linear_coeffs(g, beta), g.joint.pzw, g.joint.pw, rho)
    cost, logratio = prob.evaluate(a)
    solves, builds = [], []
    solve, basis = np.linalg.solve, privsig.solve._active_set_basis
    monkeypatch.setattr(privsig.solve.np.linalg, "solve", lambda *args: solves.append(1) or solve(*args))
    monkeypatch.setattr(privsig.solve, "_active_set_basis", lambda *args: builds.append(1) or basis(*args))
    out = _newton_polish(prob, a, cost, logratio, SolverSettings(grad_tol=1e-300), 10)
    monkeypatch.undo()
    assert out[0] is a and out[4] == 1 and not out[5]
    assert not solves and not builds


def test_batch_lift_hands_back_its_own_evaluation(monkeypatch):
    # on random states and coordinate sets: the cost and log-ratio returned
    # are the returned encoder's, evaluated afresh; a call counts as a move
    # exactly when it lowered the cost, and moves only the blocks of its
    # coordinates; a call evaluates at most two candidates, the second only
    # after the first is refused
    evaluations = []
    leakage_parts = privsig.solve._leakage_parts

    def counting(*args):
        evaluations.append(args[0].copy())
        return leakage_parts(*args)

    monkeypatch.setattr(privsig.solve, "_leakage_parts", counting)
    rng = np.random.default_rng(47)
    moved_calls = second_tries = 0
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
        fixed = (c, pzw, pw, rho)
        cost, logratio, grad = evaluate(*fixed, a)
        coords = rng.permutation(a.size)[: int(rng.integers(1, a.size + 1))]
        a_in = a.copy()

        evaluations.clear()
        with np.errstate(divide="ignore", invalid="ignore"):
            got_a, got_cost, got_ratio, moved = _batch_lift(
                _Problem(*fixed), a, cost, logratio, grad, coords, set()
            )
        tried = list(evaluations)
        np.testing.assert_array_equal(a, a_in)  # the input is not mutated
        assert len(tried) <= 2
        if len(tried) == 2:
            second_tries += 1
            assert not np.array_equal(tried[0], tried[1])
        want_cost, want_ratio, _ = evaluate(*fixed, got_a)
        assert got_cost == want_cost
        np.testing.assert_array_equal(got_ratio, want_ratio)
        assert moved == (got_cost < cost)
        if moved:
            moved_calls += 1
            np.testing.assert_array_equal(got_a, tried[-1])
            touched = np.zeros(a.size, dtype=bool)
            touched[coords] = True
            kept = ~touched.reshape(a.shape).any(axis=0)
            np.testing.assert_array_equal(got_a[:, kept], a[:, kept])
            assert got_a.min() > 0.0
            np.testing.assert_allclose(got_a.sum(axis=0), 1.0, rtol=0.0, atol=1e-15)
        else:
            assert got_a is a and got_cost == cost and got_ratio is logratio
    assert moved_calls >= 200 and second_tries >= 50


def stochastic_decoder_draws(seed: int, count: int):
    """The first `count` draws of a seeded stream of random games and decoders."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(2, 5))
        q = int(rng.integers(2, 4))
        r = int(rng.integers(2, 5))
        g = random_game(rng, m, q, r, float(rng.random() * 2.0))
        yield g, random_receiver(rng, m, r)


def stochastic_decoder_draw(seed: int, index: int):
    """Draw number `index` of a seeded stream of random games and decoders."""
    *_, last = stochastic_decoder_draws(seed, index + 1)
    return last


# Against these decoders a frozen coordinate in a heavy message row wants to
# grow (only a batch lift of its crossing, or of a Newton step along its
# move, lifts it), a boundary-pinned Newton step needs its blockers cut, or
# one Newton phase stalls and a second round of support re-shaping is
# needed. Draws 505 and 758 of seed 8 certify through row rebalances, each
# at its row's own mass (test_row_rebalance_keeps_the_row_mass). Seed 7
# draws 2, 78, 103 and 109 and seed 8 draws 90, 130, 172, 509, 711, 903 and
# 972 stalled in the Newton phase in builds whose mirror phase handed off
# earlier than at 1e-5 (seed 8 draw 972: a grower at the floor in a row of
# mass 0.70 held a block gap of 4.6e-5, its crossing rejected on every
# iteration). Seed 8 draw 795 stalled
# at a gap of 1.9e-4 with the growers of one (y, w) cell each taking its
# whole Newton step along its move: together they overshoot.
@pytest.mark.parametrize(
    "seed, index",
    [(7, 2), (7, 78), (7, 103), (7, 109), (7, 127), (8, 22), (8, 90), (8, 130),
     (8, 172), (8, 290), (8, 379), (8, 462), (8, 505), (8, 509), (8, 711), (8, 733),
     (8, 758), (8, 795), (8, 833), (8, 903), (8, 972)],
)
def test_sender_br_converges_against_hard_stochastic_decoders(seed, index):
    g, beta = stochastic_decoder_draw(seed, index)
    assert_certified(g, beta, sender_best_response(g, beta))


@pytest.mark.parametrize("seed, count, budget", [(7, 200, 30_000), (8, 1000, 130_000)])
def test_sender_br_converges_on_every_stream_draw(seed, count, budget):
    # a seeded stream's first draws, each certified: the summed block gap
    # <= grad_tol. The mirror phase hands a crawling gap to the Newton phase,
    # which keeps the seed-7 replay near 18,000 iterations and the seed-8 one
    # near 100,000 (about 70,000 and 357,000 when it waited for 1e-5)
    total = 0
    for g, beta in stochastic_decoder_draws(seed, count):
        res = sender_best_response(g, beta)
        assert res.converged
        assert summed_block_gap(g, beta, res) <= DEFAULT_SETTINGS.grad_tol
        total += res.iterations
    assert total <= budget


def test_a_solve_takes_log_pw_once(monkeypatch):
    # a solve poses its problem once (_Problem), so log P{W} is taken once
    # per best response; each phase, lift and start check took it again,
    # 4 to 46 times per solve on these draws
    log_floored = privsig.solve._log_floored
    for g, beta in stochastic_decoder_draws(7, 40):
        calls = []
        monkeypatch.setattr(
            privsig.solve, "_log_floored", lambda x: calls.append(x is g.joint.pw) or log_floored(x)
        )
        res = sender_best_response(g, beta)
        monkeypatch.undo()
        assert res.converged
        assert sum(calls) == 1


def test_row_rebalance_keeps_the_row_mass(monkeypatch):
    # a rebalance re-profiles a light row at its own mass P{Y=y}; only the
    # 0.45 cap on a cell, or the token mass 1e-200 that revives a row which
    # has died to the floor, changes it. These draws move 10 rows, two of
    # them at masses near 5e-4 that a search for the row's scale moved
    rebalance = privsig.solve._row_rebalance
    moved = []

    def recording(prob, a, *rest):
        out = rebalance(prob, a, *rest)
        if out[3]:
            y, pzw = rest[3], prob.pzw
            moved.append((float((pzw * a[y]).sum()), float((pzw * out[0][y]).sum()), out[0][y].max()))
        return out

    monkeypatch.setattr(privsig.solve, "_row_rebalance", recording)
    for index in (505, 758):
        g, beta = stochastic_decoder_draw(8, index)
        assert_certified(g, beta, sender_best_response(g, beta))
    assert len(moved) >= 5
    for before, after, top in moved:
        if top < 0.45:
            assert after == pytest.approx(max(before, 1e-200), rel=1e-9, abs=0.0)


def test_sender_br_subnormal_rho_raises_no_warning():
    # at rho = 1e-310 the row rebalance's price-to-coupling ratio overflows;
    # it must leave the row unmoved without a RuntimeWarning, which the test
    # suite turns into an error
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = random_game(rng, 3, 2, 3, 1e-310)
        res = sender_best_response(g, random_receiver(rng, 3, 3))
        assert res.converged and res.stationarity_gap <= DEFAULT_SETTINGS.grad_tol


def test_sender_solver_evaluates_each_iterate_once(monkeypatch):
    # the evaluation that accepts a step or a lift (or hands an iterate to
    # the next phase) carries its log-ratio on, and a lift refused at an
    # iterate is not tried there again, so no evaluation repeats an encoder
    # within a solve, the row rebalance's and the batch lift's included.
    # Seed 8 draws 734 and 862 each re-tried a refused rebalance when the
    # lifts were remembered by their coordinate lists
    problems = [stochastic_decoder_draw(7, i) for i in range(20)] + [
        stochastic_decoder_draw(8, 734), stochastic_decoder_draw(8, 862)] + [
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
        ("rebalance", "_row_rebalance"), ("batch lift", "_batch_lift"),
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
    assert phases_run == {"solver", "mirror", "newton", "rebalance", "batch lift"}
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


def test_sender_br_certificate_bounds_the_grid_oracle_at_any_budget():
    # the reported gap bounds the answer's cost above the optimum, converged
    # or not, and the grid oracle's cost is never below the optimum
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(0, 2**32 - 1), st.floats(0.0, 2.0), st.integers(1, 60))
    def check(seed, rho, budget):
        rng = np.random.default_rng(seed)
        g = random_game(rng, 2, 2, 2, rho)
        beta = random_receiver(rng, 2, 2)
        res = sender_best_response(g, beta, SolverSettings(max_iters=budget))
        assert res.cost - grid_oracle_cost(g, beta) <= res.stationarity_gap + 1e-12

    check()


def test_sender_br_reports_the_summed_gap_of_its_answer():
    # converged or not, the reported gap is the summed block gap of the
    # returned encoder, recomputed from the public gradient, and converged
    # says whether it meets grad_tol
    for g, beta in stochastic_decoder_draws(7, 40):
        for budget in (3, 20, DEFAULT_SETTINGS.max_iters):
            res = sender_best_response(g, beta, SolverSettings(max_iters=budget))
            assert res.stationarity_gap == summed_block_gap(g, beta, res)
            assert res.converged == (res.stationarity_gap <= DEFAULT_SETTINGS.grad_tol)


@pytest.mark.parametrize("rho", [0.2, 0.4, 0.6, 1.0])
def test_sender_br_gap_bounds_the_cost_under_any_budget(rho):
    # each budget stops the solve short; the answer's reported gap still
    # bounds its cost above the certified answer's. The largest block gap,
    # reported before, fell short in each of these 28 solves, by up to 20x
    g, beta = circulant_game(rho), ReceiverPolicy.identity(5)
    ref = sender_best_response(g, beta)
    assert_certified(g, beta, ref)
    for budget in (1, 2, 3, 5, 8, 13, 21):
        res = sender_best_response(g, beta, SolverSettings(max_iters=budget))
        assert res.converged == (res.stationarity_gap <= DEFAULT_SETTINGS.grad_tol)
        assert res.cost - ref.cost <= res.stationarity_gap


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
    # never lift; past rho* = 0.3789 its own gap does not certify it, and the
    # solver starts from it floored and renormalized
    g = circulant_game(0.38)
    beta = ReceiverPolicy.identity(5)
    start = SenderPolicy.truthful(5, 5)
    entries = []
    mirror = privsig.solve._mirror_phase

    def recording_mirror(prob, a, *rest):
        entries.append(a.copy())
        return mirror(prob, a, *rest)

    monkeypatch.setattr(privsig.solve, "_mirror_phase", recording_mirror)
    warm = sender_best_response(g, beta, start=start)
    monkeypatch.undo()
    first = entries[0]
    assert first.min() >= 0.5 * _FREEZE_MASS
    np.testing.assert_allclose(first.sum(axis=0), 1.0, rtol=0.0, atol=1e-15)
    assert_certified(g, beta, warm)
    cold = sender_best_response(g, beta)
    bound = summed_block_gap(g, beta, warm) + summed_block_gap(g, beta, cold)
    assert abs(warm.cost - cold.cost) <= bound + 1e-15 * max(1.0, abs(cold.cost))


def test_sender_br_checks_only_a_start_with_a_zero_entry(monkeypatch):
    # an interior start is never checked, and a start with a zero entry whose
    # own gap is above grad_tol is checked and then solved: both run the
    # iterates of a solve that makes no check
    g, beta = circulant_game(0.5), ReceiverPolicy.identity(5)
    has_gradient = privsig.solve._has_gradient
    interior = random_sender(np.random.default_rng(5), 5, 5, 5)
    for start, checks in ((interior, 0), (SenderPolicy.truthful(5, 5), 1)):
        checked = []
        monkeypatch.setattr(
            privsig.solve, "_has_gradient", lambda *args: checked.append(1) or has_gradient(*args)
        )
        res = sender_best_response(g, beta, start=start)
        monkeypatch.setattr(privsig.solve, "_has_gradient", lambda *args: False)
        unchecked = sender_best_response(g, beta, start=start)
        assert len(checked) == checks and res.iterations > 0
        np.testing.assert_array_equal(res.policy.a, unchecked.policy.a)
        assert (res.cost, res.iterations, res.stationarity_gap) == (
            unchecked.cost, unchecked.iterations, unchecked.stationarity_gap
        )


def test_sender_br_start_of_wrong_shape_is_rejected():
    g = circulant_game(0.38)
    with pytest.raises(ValueError, match="shape"):
        sender_best_response(g, ReceiverPolicy.identity(5), start=SenderPolicy.uniform(4, 5, 5))


def test_warm_start_reuses_a_basis_only_for_its_own_pzw(monkeypatch):
    # a chain's next solve starts with the last Newton basis while P{Z, W} is
    # the one it was built for, as along a sweep. After P{Z, W} moves by
    # 1e-6 it builds its own, although the active set is the carried one
    chain = _WarmStart()
    explicit_equilibrium(circulant_game(0.38), DEFAULT_SETTINGS, chain)
    built, used = [], []
    basis, direction = privsig.solve._active_set_basis, privsig.solve._newton_direction

    def recording_basis(*args):
        built.append(basis(*args))
        return built[-1]

    def recording_direction(pzw, rho, a, heavy, grad, b):
        used.append((pzw, b))
        return direction(pzw, rho, a, heavy, grad, b)

    monkeypatch.setattr(privsig.solve, "_active_set_basis", recording_basis)
    monkeypatch.setattr(privsig.solve, "_newton_direction", recording_direction)
    carried = chain.basis
    assert explicit_equilibrium(circulant_game(0.39), DEFAULT_SETTINGS, chain)[0].converged
    assert not built and used[0][1] is carried
    nudged = CIRCULANT_MATRIX.copy()
    nudged[0, :2] += [1e-6, -1e-6]
    g = GameInstance(JointPXZW.from_xw_matrix(nudged), hamming_distortion(5), FiniteSpace(5), 0.4)
    carried, used[:] = chain.basis, []
    assert explicit_equilibrium(g, DEFAULT_SETTINGS, chain)[0].converged
    monkeypatch.undo()
    assert built and np.array_equal(built[0].heavy, carried.heavy)
    assert all(b is not carried and np.array_equal(b.pzw, pzw) for pzw, b in used)
    assert chain.basis is built[-1]


def test_warm_start_carries_no_stalled_step(monkeypatch):
    # from its certified answer with grad_tol out of reach, this game's last
    # mirror phase stalls below rounding: the chain then passes no step, and
    # its next solve starts at step_init, not at the stalled step
    g, beta = shifted_circulant_game(8, 0.6), ReceiverPolicy.identity(8)
    settings = SolverSettings(grad_tol=1e-300)
    chain = _WarmStart(sender_best_response(g, beta).policy.a, 100.0)
    phases = []
    mirror = privsig.solve._mirror_phase

    def recording(*args):
        # the solver passes the first trial step last
        out = mirror(*args)
        phases.append((args[-1], out[6]))
        return out

    monkeypatch.setattr(privsig.solve, "_mirror_phase", recording)
    explicit_equilibrium(g, settings, chain)
    assert phases[0][0] == 100.0 and all(entry is None for entry, _ in phases[1:])
    assert phases[-1][1] is None and chain.step is None
    phases.clear()
    explicit_equilibrium(g, settings, chain)
    monkeypatch.undo()
    assert phases[0][0] is None


def test_solver_seed_has_no_effect():
    # the solver is deterministic; seed is accepted for schema_version 1 only
    g = circulant_game(0.38)
    beta = ReceiverPolicy.identity(5)
    one = sender_best_response(g, beta, SolverSettings(seed=0))
    two = sender_best_response(g, beta, SolverSettings(seed=12345))
    assert one.iterations == two.iterations and one.cost == two.cost
    np.testing.assert_array_equal(one.policy.a, two.policy.a)


def test_solver_obj_tol_has_no_effect():
    # no stopping rule reads the cost's progress; obj_tol is accepted for
    # schema_version 1 only. A mirror phase that stops when the cost stalls
    # changes 10 of these 40 solves at obj_tol = 1e-3
    loose = SolverSettings(obj_tol=1e-3)
    for g, beta in stochastic_decoder_draws(7, 40):
        one = sender_best_response(g, beta)
        two = sender_best_response(g, beta, loose)
        assert one.iterations == two.iterations and one.cost == two.cost
        assert one.policy.a.tobytes() == two.policy.a.tobytes()


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


@pytest.mark.parametrize("rho", [1e2, 1e3])
def test_cost_slack_covers_the_objectives_rounding(rho):
    # relabeling the secrets leaves the cost unchanged in exact arithmetic and
    # changes only the order of its rho-scaled terms. A slack of 1e-15
    # max(1, |cost|) was exceeded here by up to 29 times, so that rounding
    # decided the Newton phase's no-worse tests
    for seed in range(200):
        rng = np.random.default_rng(seed)
        g = random_game(rng, 4, 3, 4, rho)
        beta = random_receiver(rng, 4, 4)
        a = random_sender(rng, 4, 4, 3).a
        c, pzw, pw = _linear_coeffs(g, beta), g.joint.pzw, g.joint.pw
        cost, _ = _Problem(c, pzw, pw, rho).evaluate(a)
        relabeled, _ = _Problem(c[..., ::-1], pzw[:, ::-1], pw[::-1], rho).evaluate(a[..., ::-1])
        assert abs(relabeled - cost) <= _cost_slack(cost, rho)


def test_sender_br_certifies_a_draw_the_cost_rounding_stalled():
    # draw 246 of this stream (m = 3, |W| = 4, |Y| = 4, rho = 70.78) ended
    # unconverged after 1,270 iterations at a summed gap of 2.3e-5 while the
    # Newton phase's cost slack ignored the rho-sized terms; it certifies in
    # 664
    rng = np.random.default_rng(12)
    for _ in range(247):
        m, q, r = int(rng.integers(2, 6)), int(rng.integers(2, 5)), int(rng.integers(2, 6))
        g = random_game(rng, m, q, r, float(10 ** rng.uniform(-2, 2)))
        beta = random_receiver(rng, m, r)
    assert (m, q, r) == (3, 4, 4) and 70.0 < g.rho < 71.0
    assert_certified(g, beta, sender_best_response(g, beta))


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
    br, beta = explicit_equilibrium(g)
    alpha = br.policy
    np.testing.assert_array_equal(beta.b, np.eye(5))
    assert expected_distortion(g, alpha, beta) <= 1e-10
    assert abs(leakage(g, alpha) - CIRCULANT_MI_NATS) < 1e-6


def test_explicit_equilibrium_large_rho_suppresses_leakage():
    # at rho=10 the encoder nearly silences the channel yet still beats the
    # babbling cost: scrambling only where measurements are ambiguous keeps
    # distortion well below the prior-guessing level
    g = circulant_game(10.0)
    br, beta = explicit_equilibrium(g)
    alpha = br.policy
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
        br, beta = explicit_equilibrium(g)
        alpha = br.policy
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


@pytest.mark.parametrize("rho, sender_gap", [(1e3, 0.3001), (1e8, 0.2561), (1e15, None)])
def test_epsilon_nash_check_fails_uniform_encoder_at_large_rho(rho, sender_gap):
    # the zero-leakage LP encoder costs 0.5 against the uniform encoder's
    # 0.8, so the sender can improve by at least 0.3. At rho = 1e15 the best
    # response stops uncertified at about the uniform encoder's cost (sender
    # gap 4.4e-16, summed gap 0.8), and the check once passed on the sender
    # gap alone
    g = circulant_game(rho)
    report = epsilon_nash_check(g, SenderPolicy.uniform(5, 5, 5), ReceiverPolicy.identity(5), 1e-3)
    assert not report.member
    if sender_gap is not None:
        assert report.sender_gap == pytest.approx(sender_gap, abs=1e-4)
    assert report.sender_gap + report.sender_stationarity_gap > 0.3


def test_epsilon_nash_reports_carry_the_three_valued_verdict():
    # PASS is a proven membership; FAIL needs a gap above epsilon, an
    # improvement some policy attains; anything else is UNCERTIFIED
    g = circulant_game(0.5)
    br, beta = explicit_equilibrium(g)
    assert epsilon_nash_check(g, br.policy, beta, 1e-6).verdict == "PASS"
    g = circulant_game(1.0)
    lying = epsilon_nash_check(g, SenderPolicy.truthful(5, 5), ReceiverPolicy.constant(0, 5, 5), 1e-6)
    assert lying.receiver_gap > 1e-6 and lying.verdict == "FAIL"
    g = circulant_game(1e15)
    unproven = epsilon_nash_check(g, SenderPolicy.uniform(5, 5, 5), ReceiverPolicy.identity(5), 1e-3)
    assert unproven.sender_gap <= 1e-3 and unproven.verdict == "UNCERTIFIED"
    # the multi-sender report reads the receiver gap and every sender gap
    assert MultiEpsilonNashReport(True, 0.0, (0.0, 0.0), (0.0, 0.0), 0.1).verdict == "PASS"
    assert MultiEpsilonNashReport(False, 0.0, (0.0, 0.2), (0.0, 0.0), 0.1).verdict == "FAIL"
    assert MultiEpsilonNashReport(False, 0.05, (0.0, 0.05), (0.0, 0.3), 0.1).verdict == "UNCERTIFIED"


def explicit_draw(index: int) -> GameInstance:
    """Draw number `index` of the stream default_rng(2026): m = integers(2, 6),
    |W| = integers(2, 5) and rho = 10^uniform(-2, 2), then random_game with
    |Y| = m."""
    rng = np.random.default_rng(2026)
    for _ in range(index + 1):
        m, q = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        g = random_game(rng, m, q, m, 10.0 ** rng.uniform(-2.0, 2.0))
    return g


@pytest.mark.parametrize("index", [0, 1, 2, 4, 30, 203, 279])
def test_explicit_equilibrium_carries_a_faithful_converged_flag(index):
    # the pair is an equilibrium only as far as its best response is
    # certified, so the best response comes back with its flag, which says
    # whether its encoder's summed gap meets grad_tol. Draws 30 and 203
    # (m = 5, rho = 52.9 and 74.5) and 279 (m = 3, rho = 0.0128) ended
    # unconverged here, at summed gaps of 6.7e-3, 7.0e-3 and 8.1e-8
    g = explicit_draw(index)
    br, beta = explicit_equilibrium(g)
    np.testing.assert_array_equal(beta.b, np.eye(g.x_space.size))
    assert br.converged == (summed_block_gap(g, beta, br) <= DEFAULT_SETTINGS.grad_tol)


def test_explicit_equilibrium_receiver_side(rng):
    # identity decoding is already optimal against the constructed encoder
    for _ in range(10):
        m = int(rng.integers(2, 4))
        g = random_game(rng, m, 2, m, float(rng.random() * 1.5))
        br, beta = explicit_equilibrium(g)
        alpha = br.policy
        best = receiver_best_response(g, alpha)
        assert expected_distortion(g, alpha, best) >= expected_distortion(g, alpha, beta) - 1e-8


def test_data_processing_inequality():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check(data):
        m, q, r = data.draw(st.integers(2, 3)), data.draw(st.integers(2, 3)), data.draw(st.integers(2, 4))
        g = drawn_game(data, m, q, r, data.draw(st.floats(0.0, 2.0, exclude_max=True)))
        alpha = drawn_sender(data, r, m, q)
        beta = drawn_receiver(data, m, r)
        i_wy = leakage(g, alpha)
        j_wxh = np.einsum("xzw,yzw,ky->wk", g.joint.p, alpha.a, beta.b)
        i_wxh = _mutual_information(j_wxh)
        assert i_wxh <= i_wy + 1e-10

    check()
