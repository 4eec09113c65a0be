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
