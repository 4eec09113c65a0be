"""Shared builders and frozen reference values for the test suite."""
from dataclasses import replace

import numpy as np
import pytest

from privsig.game import (
    DistortionMatrix,
    GameInstance,
    ReceiverPolicy,
    SenderPolicy,
    hamming_distortion,
)
from privsig.prob import FiniteSpace, JointPXZW
from privsig.solve import _block_gaps, sender_cost_gradient

# State/secret matrix of the bundled circulant5 preset. Rows and columns each
# sum to 0.2, so both marginals are uniform.
CIRCULANT_MATRIX = np.array(
    [
        [0.14, 0.02, 0.01, 0.01, 0.02],
        [0.02, 0.14, 0.02, 0.01, 0.01],
        [0.01, 0.02, 0.14, 0.02, 0.01],
        [0.01, 0.01, 0.02, 0.14, 0.02],
        [0.02, 0.01, 0.01, 0.02, 0.14],
    ]
)

# I(X;W) of CIRCULANT_MATRIX in nats, frozen from a term-by-term evaluation
# with math.log: 5 * (0.14*log(3.5) + 2*0.02*log(0.5) + 2*0.01*log(0.25)).
CIRCULANT_MI_NATS = 0.5996752057227793


def circulant_game(rho: float) -> GameInstance:
    """The bundled 5x5 game: perfect measurement, Hamming distortion."""
    joint = JointPXZW.from_xw_matrix(CIRCULANT_MATRIX)
    return GameInstance(joint, hamming_distortion(5), FiniteSpace(5), rho)


def random_joint(rng, m: int, q: int) -> JointPXZW:
    p = rng.random((m, m, q)) ** 2
    return JointPXZW.from_tensor(p / p.sum())


def random_game(rng, m: int, q: int, r: int, rho: float) -> GameInstance:
    d = rng.random((m, m)) * (1.0 - np.eye(m))
    return GameInstance(
        random_joint(rng, m, q), DistortionMatrix(d), FiniteSpace(r), rho
    )


def random_sender(rng, r: int, m: int, q: int) -> SenderPolicy:
    a = rng.random((r, m, q)) + 0.05
    return SenderPolicy(a / a.sum(axis=0))


def random_receiver(rng, m: int, r: int) -> ReceiverPolicy:
    b = rng.random((m, r)) + 0.05
    return ReceiverPolicy(b / b.sum(axis=0))


def drawn_weights(data, shape) -> np.ndarray:
    """Nonnegative integer weights of the given shape, drawn by hypothesis
    (data is its st.data()), zeros included; an all-zero draw reads as ones."""
    from hypothesis import strategies as st

    size = int(np.prod(shape))
    w = np.array(data.draw(st.lists(st.integers(0, 1000), min_size=size, max_size=size)), dtype=float)
    return w.reshape(shape) if w.any() else np.ones(shape)


def drawn_game(data, m: int, q: int, r: int, rho: float) -> GameInstance:
    """random_game's shapes, with the joint and the distortion drawn by hypothesis."""
    p = drawn_weights(data, (m, m, q))
    d = drawn_weights(data, (m, m)) / 1000.0 * (1.0 - np.eye(m))
    return GameInstance(JointPXZW.from_tensor(p / p.sum()), DistortionMatrix(d), FiniteSpace(r), rho)


def drawn_sender(data, r: int, m: int, q: int) -> SenderPolicy:
    a = drawn_weights(data, (r, m, q))
    a[:, a.sum(axis=0) == 0.0] = 1.0
    return SenderPolicy(a / a.sum(axis=0))


def drawn_receiver(data, m: int, r: int) -> ReceiverPolicy:
    b = drawn_weights(data, (m, r))
    b[:, b.sum(axis=0) == 0.0] = 1.0
    return ReceiverPolicy(b / b.sum(axis=0))


def summed_block_gap(g: GameInstance, beta: ReceiverPolicy, result) -> float:
    """Sum over the (z, w) blocks of the linearized optimality gap at a best
    response's encoder: by convexity, a bound on its cost above the optimum."""
    grad = sender_cost_gradient(g, result.policy, beta)
    return float(_block_gaps(result.policy.a, grad).sum())


def recorded_checks(decide, calls, inflate=False):
    """_improvement_reference's stand-in: decide, handing on play's
    continuation chain when there is one, appending (id of the sender's
    P{Z, W}, whether the answer adopts) to calls for each check. With
    inflate, an adopting answer's summed gap is reported as 2 epsilon, so
    that it certifies nothing."""
    def wrapper(c, pzw, pw, rho, alpha, own, epsilon, settings, start=None):
        ref = decide(c, pzw, pw, rho, alpha, own, epsilon, settings, start)
        adopts = own - ref.cost > epsilon
        calls.append((id(pzw), adopts))
        return replace(ref, stationarity_gap=2.0 * epsilon) if adopts and inflate else ref
    return wrapper


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
