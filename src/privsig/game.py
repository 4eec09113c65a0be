"""Single-sender signaling game: policies, costs, and the potential.

The sender observes a measurement Z of the state X together with a secret W
and emits a message Y; the receiver maps Y to an estimate of X. The sender
pays expected distortion plus ``rho`` times the message/secret leakage, the
receiver pays expected distortion alone. Both objectives share the sender's
functional as an exact potential.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .prob import (
    SUM_TOL,
    RENORM_TOL,
    FiniteSpace,
    JointPXZW,
    Pmf2,
    _freeze,
    _mutual_information,
)


def _check_blocks(arr: np.ndarray, axis: int, what: str) -> np.ndarray:
    """Conditional pmf blocks must each sum to 1 along ``axis``."""
    if np.any(arr < 0.0):
        raise ValueError(f"{what}: negative entry {float(arr.min())!r}")
    sums = arr.sum(axis=axis)
    dev = float(np.abs(sums - 1.0).max())
    if dev <= SUM_TOL:
        return arr
    if dev <= RENORM_TOL:
        warnings.warn(f"{what}: block mass off by {dev:.3e}; renormalizing")
        return arr / np.expand_dims(sums, axis)
    raise ValueError(f"{what}: normalization failed, worst block deviation {dev:.3e}")


@dataclass(frozen=True)
class DistortionMatrix:
    """State/estimate distortion d(x, xhat) >= 0 over a shared alphabet."""

    d: np.ndarray

    def __post_init__(self):
        arr = np.array(self.d, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("distortion must be a square matrix")
        if np.any(arr < 0.0):
            raise ValueError("distortion entries must be nonnegative")
        object.__setattr__(self, "d", _freeze(arr))

    @property
    def size(self) -> int:
        return self.d.shape[0]


def hamming_distortion(space: FiniteSpace | int) -> DistortionMatrix:
    n = space.size if isinstance(space, FiniteSpace) else int(space)
    return DistortionMatrix(np.ones((n, n)) - np.eye(n))


@dataclass(frozen=True)
class SenderPolicy:
    """Randomized encoder P{Y=y | Z=z, W=w}, stored as a (|Y|, |X|, |W|) tensor."""

    a: np.ndarray

    def __post_init__(self):
        arr = np.array(self.a, dtype=float)
        if arr.ndim != 3:
            raise ValueError("sender policy must have rank 3 (y, z, w)")
        arr = _check_blocks(arr, 0, "sender policy")
        object.__setattr__(self, "a", _freeze(arr))

    @property
    def y_size(self) -> int:
        return self.a.shape[0]

    @classmethod
    def uniform(cls, y_size: int, z_size: int, w_size: int) -> "SenderPolicy":
        return cls(np.full((y_size, z_size, w_size), 1.0 / y_size))

    @classmethod
    def truthful(cls, size: int, w_size: int) -> "SenderPolicy":
        """Report the measurement verbatim; needs the message alphabet = state alphabet."""
        a = np.zeros((size, size, w_size))
        for z in range(size):
            a[z, z, :] = 1.0
        return cls(a)

    @classmethod
    def deterministic(cls, choice: np.ndarray, y_size: int) -> "SenderPolicy":
        """Point-mass policy from an integer (z, w) -> y table."""
        choice = np.asarray(choice, dtype=int)
        a = np.zeros((y_size,) + choice.shape)
        for z in range(choice.shape[0]):
            for w in range(choice.shape[1]):
                a[choice[z, w], z, w] = 1.0
        return cls(a)


@dataclass(frozen=True)
class ReceiverPolicy:
    """Randomized decoder P{Xhat=xhat | Y=y}, stored as a (|X|, |Y|) matrix."""

    b: np.ndarray

    def __post_init__(self):
        arr = np.array(self.b, dtype=float)
        if arr.ndim != 2:
            raise ValueError("receiver policy must be a matrix (xhat, y)")
        arr = _check_blocks(arr, 0, "receiver policy")
        object.__setattr__(self, "b", _freeze(arr))

    @property
    def y_size(self) -> int:
        return self.b.shape[1]

    @classmethod
    def identity(cls, size: int) -> "ReceiverPolicy":
        return cls(np.eye(size))

    @classmethod
    def constant(cls, xhat: int, x_size: int, y_size: int) -> "ReceiverPolicy":
        b = np.zeros((x_size, y_size))
        b[xhat, :] = 1.0
        return cls(b)

    @classmethod
    def deterministic(cls, choice: np.ndarray, x_size: int) -> "ReceiverPolicy":
        choice = np.asarray(choice, dtype=int)
        b = np.zeros((x_size, choice.shape[0]))
        for y in range(choice.shape[0]):
            b[choice[y], y] = 1.0
        return cls(b)


@dataclass(frozen=True)
class GameInstance:
    """A complete game: joint pmf, distortion, message alphabet, privacy weight."""

    joint: JointPXZW
    distortion: DistortionMatrix
    y_space: FiniteSpace
    rho: float

    def __post_init__(self):
        if self.distortion.size != self.joint.x_space.size:
            raise ValueError("distortion size does not match the state alphabet")
        if not 0.0 <= self.rho < np.inf:
            raise ValueError("privacy weight rho must be nonnegative and finite")
        object.__setattr__(self, "rho", float(self.rho))

    @property
    def x_space(self) -> FiniteSpace:
        return self.joint.x_space

    @property
    def w_space(self) -> FiniteSpace:
        return self.joint.w_space

    def check_sender(self, alpha: SenderPolicy) -> None:
        want = (self.y_space.size, self.x_space.size, self.w_space.size)
        if alpha.a.shape != want:
            raise ValueError(f"sender policy shape {alpha.a.shape}, expected {want}")

    def check_receiver(self, beta: ReceiverPolicy) -> None:
        want = (self.x_space.size, self.y_space.size)
        if beta.b.shape != want:
            raise ValueError(f"receiver policy shape {beta.b.shape}, expected {want}")


# raw-array workers, shared with the solvers


def _joint_xy(p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """P{X=x, Y=y} induced by the sender policy."""
    return np.einsum("yzw,xzw->xy", a, p)


def _joint_yw(pzw: np.ndarray, a: np.ndarray) -> np.ndarray:
    """P{Y=y, W=w} induced by the sender policy."""
    return np.einsum("yzw,zw->yw", a, pzw)


def _xi(d: np.ndarray, b: np.ndarray, jxy: np.ndarray) -> float:
    """Expected distortion sum d(x, xhat) b[xhat, y] P{x, y}."""
    return float(np.einsum("xy,ky,xk->", jxy, b, d))


def expected_distortion(g: GameInstance, alpha: SenderPolicy, beta: ReceiverPolicy) -> float:
    g.check_sender(alpha)
    g.check_receiver(beta)
    return _xi(g.distortion.d, beta.b, _joint_xy(g.joint.p, alpha.a))


def message_secret_joint(g: GameInstance, alpha: SenderPolicy) -> Pmf2:
    """The (Y, W) joint the leakage is measured on."""
    g.check_sender(alpha)
    return Pmf2(g.y_space, g.w_space, _joint_yw(g.joint.pzw, alpha.a))


def leakage(g: GameInstance, alpha: SenderPolicy) -> float:
    """Mutual information between message and secret, in nats."""
    g.check_sender(alpha)
    return _mutual_information(_joint_yw(g.joint.pzw, alpha.a))


def sender_cost(g: GameInstance, alpha: SenderPolicy, beta: ReceiverPolicy) -> float:
    return expected_distortion(g, alpha, beta) + g.rho * leakage(g, alpha)


def receiver_cost(g: GameInstance, alpha: SenderPolicy, beta: ReceiverPolicy) -> float:
    return expected_distortion(g, alpha, beta)


def potential(g: GameInstance, alpha: SenderPolicy, beta: ReceiverPolicy) -> float:
    """Exact potential of the two-player game; coincides with the sender cost."""
    return sender_cost(g, alpha, beta)


def induced_estimate_joint(g: GameInstance, alpha: SenderPolicy, beta: ReceiverPolicy) -> Pmf2:
    """P{X, Xhat} under the composed policies."""
    g.check_sender(alpha)
    g.check_receiver(beta)
    jxy = _joint_xy(g.joint.p, alpha.a)
    return Pmf2(g.x_space, g.x_space, jxy @ beta.b.T)
