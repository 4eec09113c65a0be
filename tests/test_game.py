import math

import numpy as np
import pytest

from conftest import (
    CIRCULANT_MATRIX,
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
    induced_estimate_joint,
    leakage,
    message_secret_joint,
    potential,
    receiver_cost,
    sender_cost,
)
from privsig.prob import FiniteSpace, JointPXZW, entropy, mutual_information


def xi_oracle(g, alpha, beta) -> float:
    """Five-fold nested sum of d(x,xhat) * beta * alpha * p."""
    m, q, r = g.x_space.size, g.w_space.size, g.y_space.size
    total = 0.0
    for x in range(m):
        for z in range(m):
            for w in range(q):
                for y in range(r):
                    for xh in range(m):
                        total += (
                            g.distortion.d[x, xh]
                            * beta.b[xh, y]
                            * alpha.a[y, z, w]
                            * g.joint.p[x, z, w]
                        )
    return total


def test_hamming_matrices():
    np.testing.assert_array_equal(hamming_distortion(FiniteSpace(1)).d, [[0.0]])
    np.testing.assert_array_equal(
        hamming_distortion(FiniteSpace(2)).d, [[0.0, 1.0], [1.0, 0.0]]
    )
    d5 = hamming_distortion(5).d
    assert d5.shape == (5, 5)
    assert np.all(np.diag(d5) == 0.0) and d5.sum() == 20.0


def test_distortion_validation():
    with pytest.raises(ValueError):
        DistortionMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        DistortionMatrix(np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_policy_block_validation():
    with pytest.raises(ValueError):
        SenderPolicy(np.full((2, 2), 0.5))
    bad = np.full((2, 2, 2), 0.4)
    with pytest.raises(ValueError, match="normalization"):
        SenderPolicy(bad)
    off = np.full((2, 2, 2), 0.5)
    off[0, 0, 0] += 2e-10
    with pytest.warns(UserWarning, match="renormalizing"):
        pol = SenderPolicy(off)
    np.testing.assert_allclose(pol.a.sum(axis=0), 1.0, atol=1e-15)
    with pytest.raises(ValueError):
        ReceiverPolicy(np.array([[0.5, 0.7], [0.5, 0.5]]))


def test_policy_constructors():
    u = SenderPolicy.uniform(4, 3, 2)
    assert u.a.shape == (4, 3, 2) and np.all(u.a == 0.25)
    t = SenderPolicy.truthful(3, 2)
    assert t.a[1, 1, 0] == 1.0 and t.a[0, 1, 0] == 0.0
    det = SenderPolicy.deterministic(np.array([[2, 0], [1, 1]]), 3)
    assert det.a[2, 0, 0] == 1.0 and det.a[1, 1, 1] == 1.0
    ident = ReceiverPolicy.identity(3)
    np.testing.assert_array_equal(ident.b, np.eye(3))
    const = ReceiverPolicy.constant(1, 3, 4)
    assert np.all(const.b[1, :] == 1.0) and const.b.sum() == 4.0
    rdet = ReceiverPolicy.deterministic(np.array([1, 0, 2]), 3)
    assert rdet.b[1, 0] == 1.0 and rdet.b[2, 2] == 1.0


def test_game_instance_validation():
    joint = JointPXZW.from_xw_matrix(CIRCULANT_MATRIX)
    with pytest.raises(ValueError, match="rho"):
        GameInstance(joint, hamming_distortion(5), FiniteSpace(5), -0.1)
    for rho in (math.nan, math.inf):
        with pytest.raises(ValueError, match="rho must be nonnegative and finite"):
            GameInstance(joint, hamming_distortion(5), FiniteSpace(5), rho)
    with pytest.raises(ValueError, match="distortion"):
        GameInstance(joint, hamming_distortion(4), FiniteSpace(5), 0.5)
    g = circulant_game(0.5)
    with pytest.raises(ValueError, match="sender policy shape"):
        g.check_sender(SenderPolicy.uniform(5, 4, 5))
    with pytest.raises(ValueError, match="receiver policy shape"):
        g.check_receiver(ReceiverPolicy.identity(4))


def test_distortion_truth_telling_identity_is_zero():
    g = circulant_game(1.0)
    alpha = SenderPolicy.truthful(5, 5)
    assert expected_distortion(g, alpha, ReceiverPolicy.identity(5)) == 0.0


def test_distortion_babbling_constant_estimate():
    # oracle: receiver always says symbol 0, so E{d} = 1 - P{X=0} = 0.8
    g = circulant_game(1.0)
    alpha = SenderPolicy.uniform(5, 5, 5)
    beta = ReceiverPolicy.constant(0, 5, 5)
    assert abs(expected_distortion(g, alpha, beta) - 0.8) < 1e-15


def test_distortion_zero_matrix(rng):
    joint = JointPXZW.from_xw_matrix(CIRCULANT_MATRIX)
    g = GameInstance(joint, DistortionMatrix(np.zeros((5, 5))), FiniteSpace(3), 0.7)
    a = random_sender(rng, 3, 5, 5)
    b = random_receiver(rng, 5, 3)
    assert expected_distortion(g, a, b) == 0.0


def test_distortion_matches_nested_sum_oracle(rng):
    for _ in range(10):
        g = random_game(rng, 3, 2, 2, float(rng.random()))
        a = random_sender(rng, 2, 3, 2)
        b = random_receiver(rng, 3, 2)
        assert abs(expected_distortion(g, a, b) - xi_oracle(g, a, b)) < 1e-12


def test_leakage_uniform_is_zero():
    g = circulant_game(1.0)
    assert leakage(g, SenderPolicy.uniform(5, 5, 5)) == 0.0


def test_leakage_truthful_circulant_matches_frozen_value():
    g = circulant_game(1.0)
    val = leakage(g, SenderPolicy.truthful(5, 5))
    assert abs(val - CIRCULANT_MI_NATS) < 1e-13


def test_leakage_truthful_binary_fully_revealing():
    # Z = X = W uniform binary and Y = Z, so the message equals the secret
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = 0.5
    p[1, 1, 1] = 0.5
    g = GameInstance(
        JointPXZW.from_tensor(p), hamming_distortion(2), FiniteSpace(2), 1.0
    )
    assert abs(leakage(g, SenderPolicy.truthful(2, 2)) - math.log(2.0)) < 1e-15


def test_message_secret_joint_feeds_leakage(rng):
    g = random_game(rng, 3, 3, 2, 1.3)
    a = random_sender(rng, 2, 3, 3)
    assert abs(mutual_information(message_secret_joint(g, a)) - leakage(g, a)) < 1e-15


def test_cost_definitions(rng):
    g = random_game(rng, 3, 2, 3, 0.8)
    a = random_sender(rng, 3, 3, 2)
    b = random_receiver(rng, 3, 3)
    xi = expected_distortion(g, a, b)
    zeta = leakage(g, a)
    assert abs(sender_cost(g, a, b) - (xi + 0.8 * zeta)) < 1e-15
    assert receiver_cost(g, a, b) == xi
    assert potential(g, a, b) == sender_cost(g, a, b)


def test_rho_zero_aligns_costs(rng):
    g = random_game(rng, 2, 2, 2, 0.0)
    a = random_sender(rng, 2, 2, 2)
    b = random_receiver(rng, 2, 2)
    assert sender_cost(g, a, b) == receiver_cost(g, a, b)


def test_potential_difference_identities(rng):
    """Unilateral cost differences equal potential differences."""
    for _ in range(500):
        m = int(rng.integers(2, 4))
        q = int(rng.integers(2, 4))
        r = int(rng.integers(2, 4))
        g = random_game(rng, m, q, r, float(rng.random() * 2.0))
        a, a2 = random_sender(rng, r, m, q), random_sender(rng, r, m, q)
        b, b2 = random_receiver(rng, m, r), random_receiver(rng, m, r)
        lhs_r = receiver_cost(g, a, b) - receiver_cost(g, a, b2)
        rhs_r = potential(g, a, b) - potential(g, a, b2)
        assert abs(lhs_r - rhs_r) < 1e-10
        lhs_s = sender_cost(g, a, b) - sender_cost(g, a2, b)
        rhs_s = potential(g, a, b) - potential(g, a2, b)
        assert abs(lhs_s - rhs_s) < 1e-10


def test_distortion_is_bilinear(rng):
    g = random_game(rng, 3, 2, 2, 1.0)
    a1, a2 = random_sender(rng, 2, 3, 2), random_sender(rng, 2, 3, 2)
    b1, b2 = random_receiver(rng, 3, 2), random_receiver(rng, 3, 2)
    lam = 0.35
    mix_a = SenderPolicy(lam * a1.a + (1 - lam) * a2.a)
    mix_b = ReceiverPolicy(lam * b1.b + (1 - lam) * b2.b)
    want_a = lam * expected_distortion(g, a1, b1) + (1 - lam) * expected_distortion(g, a2, b1)
    assert abs(expected_distortion(g, mix_a, b1) - want_a) < 1e-10
    want_b = lam * expected_distortion(g, a1, b1) + (1 - lam) * expected_distortion(g, a1, b2)
    assert abs(expected_distortion(g, a1, mix_b) - want_b) < 1e-10


def test_leakage_is_convex_in_policy(rng):
    for _ in range(50):
        g = random_game(rng, 3, 3, 3, 1.0)
        a1, a2 = random_sender(rng, 3, 3, 3), random_sender(rng, 3, 3, 3)
        lam = float(rng.random())
        mix = SenderPolicy(lam * a1.a + (1 - lam) * a2.a)
        assert leakage(g, mix) <= lam * leakage(g, a1) + (1 - lam) * leakage(g, a2) + 1e-10


def test_cost_bounds(rng):
    for _ in range(50):
        g = random_game(rng, 3, 2, 4, 1.0)
        a = random_sender(rng, 4, 3, 2)
        b = random_receiver(rng, 3, 4)
        xi = expected_distortion(g, a, b)
        assert 0.0 <= xi <= float(g.distortion.d.max()) + 1e-15
        zeta = leakage(g, a)
        bound = min(math.log(4.0), entropy(g.joint.pw))
        assert zeta <= bound + 1e-10


def test_induced_estimate_joint_truthful_identity():
    g = circulant_game(1.0)
    j = induced_estimate_joint(g, SenderPolicy.truthful(5, 5), ReceiverPolicy.identity(5))
    np.testing.assert_allclose(j.p, np.diag(np.full(5, 0.2)), atol=1e-15)


def test_induced_estimate_joint_babbling_is_product(rng):
    g = random_game(rng, 3, 2, 3, 1.0)
    alpha = SenderPolicy.uniform(3, 3, 2)
    beta = random_receiver(rng, 3, 3)
    j = induced_estimate_joint(g, alpha, beta).p
    np.testing.assert_allclose(j, np.outer(j.sum(axis=1), j.sum(axis=0)), atol=1e-12)


def test_induced_estimate_joint_contracts_to_distortion(rng):
    for _ in range(10):
        g = random_game(rng, 3, 2, 2, 1.0)
        a = random_sender(rng, 2, 3, 2)
        b = random_receiver(rng, 3, 2)
        j = induced_estimate_joint(g, a, b)
        assert abs(float(j.p.sum()) - 1.0) < 1e-12
        via_joint = float((j.p * g.distortion.d).sum())
        assert abs(via_joint - expected_distortion(g, a, b)) < 1e-12
