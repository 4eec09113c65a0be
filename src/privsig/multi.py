"""Several senders, one receiver.

Sender i sees its own measurement Z_i of the shared state X plus its own
secret W_i and emits Y_i; the receiver maps the message tuple to an estimate.
Each sender pays the common distortion plus rho times the leakage of its own
secret through its own message; the receiver pays the distortion. The sum of
all leakage terms plus the distortion is an exact potential.

Joint tensors carry axes (x, z_1..z_n, w_1..w_n), and ``_contract`` sums them
against the encoders one sender at a time with ``np.tensordot``, so the full
policy product is never materialized.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import DistortionMatrix, SenderPolicy, _check_blocks, _joint_yw
from .prob import (
    FiniteSpace,
    _check_entries,
    _check_mass,
    _freeze,
    _mutual_information,
)
from .solve import (
    DEFAULT_SETTINGS,
    BestResponseResult,
    SolverSettings,
    _check_epsilon,
    _gradient,
    _leakage_parts,
    _log_floored,
    _minimize_over_blocks,
    _posterior_decoder,
    _prior_estimate,
)
from .dynamics import DynamicsReport, TrajectoryRecord, _inner_settings

#: Dense joint tensors larger than this are rejected.
MAX_JOINT_ENTRIES = 10_000_000
#: The joint carries 1 + 2n axes, well inside numpy's 64-dimension limit; with
#: two or more symbols per alphabet the entry cap binds first (n <= 11).
MAX_SENDERS = 16


@dataclass(frozen=True)
class MultiJoint:
    """Joint pmf of (X, Z_1..Z_n, W_1..W_n); every Z_i shares the X alphabet."""

    x_space: FiniteSpace
    w_spaces: tuple[FiniteSpace, ...]
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w_spaces", tuple(self.w_spaces))
        n = len(self.w_spaces)
        if n < 1:
            raise ValueError("need at least one sender")
        if n > MAX_SENDERS:
            raise ValueError(f"sender count {n} exceeds the cap of {MAX_SENDERS}")
        m = self.x_space.size
        shape = (m,) + (m,) * n + tuple(s.size for s in self.w_spaces)
        if int(np.prod(shape)) > MAX_JOINT_ENTRIES:
            raise ValueError(
                f"joint tensor would hold {int(np.prod(shape))} entries, "
                f"over the {MAX_JOINT_ENTRIES} cap"
            )
        arr = np.array(self.p, dtype=float)
        if arr.shape != shape:
            raise ValueError(f"joint shape {arr.shape} does not match spaces {shape}")
        _check_entries(arr, "joint")
        arr = _check_mass(arr, "joint")
        object.__setattr__(self, "p", _freeze(arr))

    @property
    def n(self) -> int:
        return len(self.w_spaces)

    def px(self) -> np.ndarray:
        return self.p.sum(axis=tuple(range(1, self.p.ndim)))

    def pzw(self, j: int) -> np.ndarray:
        """Marginal P{Z_j, W_j} as a matrix."""
        keep = {1 + j, 1 + self.n + j}
        drop = tuple(ax for ax in range(self.p.ndim) if ax not in keep)
        return self.p.sum(axis=drop)


@dataclass(frozen=True)
class SenderPolicySet:
    """One encoder per sender."""

    policies: tuple[SenderPolicy, ...]

    def __post_init__(self):
        object.__setattr__(self, "policies", tuple(self.policies))
        if not self.policies:
            raise ValueError("need at least one sender policy")

    def __len__(self) -> int:
        return len(self.policies)

    def __getitem__(self, i: int) -> SenderPolicy:
        return self.policies[i]

    def replace(self, i: int, policy: SenderPolicy) -> "SenderPolicySet":
        ps = list(self.policies)
        ps[i] = policy
        return SenderPolicySet(tuple(ps))

    @classmethod
    def uniform(cls, y_sizes, z_size: int, w_sizes) -> "SenderPolicySet":
        return cls(
            tuple(
                SenderPolicy.uniform(y, z_size, w)
                for y, w in zip(y_sizes, w_sizes, strict=True)
            )
        )


@dataclass(frozen=True)
class MultiReceiverPolicy:
    """Decoder over message tuples: tensor (xhat, y_1..y_n)."""

    b: np.ndarray

    def __post_init__(self):
        arr = np.array(self.b, dtype=float)
        if arr.ndim < 2:
            raise ValueError("receiver policy needs an estimate axis plus message axes")
        arr = _check_blocks(arr, 0, "receiver policy")
        object.__setattr__(self, "b", _freeze(arr))


@dataclass(frozen=True)
class MultiGameInstance:
    joint: MultiJoint
    distortion: DistortionMatrix
    y_spaces: tuple[FiniteSpace, ...]
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "y_spaces", tuple(self.y_spaces))
        if len(self.y_spaces) != self.joint.n:
            raise ValueError("one message alphabet per sender required")
        if self.distortion.size != self.joint.x_space.size:
            raise ValueError("distortion size does not match the state alphabet")
        if not 0.0 <= self.rho < np.inf:
            raise ValueError("privacy weight rho must be nonnegative and finite")
        object.__setattr__(self, "rho", float(self.rho))

    @property
    def n(self) -> int:
        return self.joint.n

    def check_policies(self, alphas: SenderPolicySet, beta: MultiReceiverPolicy | None = None):
        if len(alphas) != self.n:
            raise ValueError(f"expected {self.n} sender policies, got {len(alphas)}")
        m = self.joint.x_space.size
        for i, pol in enumerate(alphas.policies):
            want = (self.y_spaces[i].size, m, self.joint.w_spaces[i].size)
            if pol.a.shape != want:
                raise ValueError(f"sender {i + 1} policy shape {pol.a.shape}, expected {want}")
        if beta is not None:
            want_b = (m,) + tuple(s.size for s in self.y_spaces)
            if beta.b.shape != want_b:
                raise ValueError(f"receiver policy shape {beta.b.shape}, expected {want_b}")


def _contract(p: np.ndarray, policies, skip: int | None = None) -> np.ndarray:
    """Sum the joint against every encoder except skip's, one sender at a time.

    Returns axes (x, y_1..y_n), or (x, z_skip, w_skip, y_i for i != skip)
    when a sender is skipped.
    """
    rest = len(policies)  # senders whose (z, w) axes are still in the tensor
    ahead = 0  # 1 once the skipped sender's axes sit before the next sender's
    for i, pol in enumerate(policies):
        if i == skip:
            ahead = 1
            continue
        p = np.tensordot(p, pol.a, axes=([1 + ahead, 1 + rest + ahead], [1, 2]))
        rest -= 1
    return p


def expected_distortion_multi(
    g: MultiGameInstance, alphas: SenderPolicySet, beta: MultiReceiverPolicy
) -> float:
    g.check_policies(alphas, beta)
    q = _contract(g.joint.p, alphas.policies)
    dxy = np.tensordot(g.distortion.d, beta.b, axes=([1], [0]))
    return float((q * dxy).sum())


def leakage_j(g: MultiGameInstance, alphas: SenderPolicySet, j: int) -> float:
    """I(Y_j; W_j) in nats for sender j (0-based)."""
    g.check_policies(alphas)
    return _mutual_information(_joint_yw(g.joint.pzw(j), alphas[j].a))


def coalition_leakage(g: MultiGameInstance, alphas: SenderPolicySet, j: int) -> float:
    """Diagnostic I(Y_1..Y_n; W_j): what all messages jointly reveal of secret j."""
    g.check_policies(alphas)
    rest = _contract(g.joint.p, alphas.policies, skip=j).sum(axis=0)
    # encoder j sums out z_j but keeps w_j, so the last axis is the secret
    joint = np.einsum("zw...,yzw->...yw", rest, alphas[j].a)
    return _mutual_information(joint.reshape(-1, joint.shape[-1]))


def sender_cost_multi(
    g: MultiGameInstance, alphas: SenderPolicySet, beta: MultiReceiverPolicy, j: int
) -> float:
    return expected_distortion_multi(g, alphas, beta) + g.rho * leakage_j(g, alphas, j)


def receiver_cost_multi(
    g: MultiGameInstance, alphas: SenderPolicySet, beta: MultiReceiverPolicy
) -> float:
    return expected_distortion_multi(g, alphas, beta)


def potential_multi(
    g: MultiGameInstance, alphas: SenderPolicySet, beta: MultiReceiverPolicy
) -> float:
    """Distortion plus rho times the sum of every sender's own leakage."""
    total = expected_distortion_multi(g, alphas, beta)
    for j in range(g.n):
        total += g.rho * leakage_j(g, alphas, j)
    return total


def receiver_best_response_multi(
    g: MultiGameInstance, alphas: SenderPolicySet
) -> MultiReceiverPolicy:
    """Per-message-tuple posterior minimizer, prior-optimal on dead tuples."""
    g.check_policies(alphas)
    q = _contract(g.joint.p, alphas.policies)
    b = _posterior_decoder(g.distortion.d, g.joint.px(), q.reshape(q.shape[0], -1))
    return MultiReceiverPolicy(b.reshape(q.shape))


def _linear_coeffs_multi(
    g: MultiGameInstance, alphas: SenderPolicySet, beta: MultiReceiverPolicy, j: int
) -> np.ndarray:
    """Distortion as a linear functional of encoder j, the others held fixed."""
    rest = _contract(g.joint.p, alphas.policies, skip=j)
    dxy = np.tensordot(g.distortion.d, beta.b, axes=([1], [0]))
    dxy = np.moveaxis(dxy, 1 + j, -1)
    # sum x and every other sender's message, leaving (z_j, w_j, y_j)
    c = np.tensordot(rest, dxy, axes=([0, *range(3, rest.ndim)], range(g.n)))
    return np.moveaxis(c, -1, 0)


# sender index -> (problem key, answer) of the last best response solved for
# that index; at most MAX_SENDERS entries. Each entry is one immutable pair,
# read and replaced whole, so threads sharing it can lose a remembered answer
# but never get another problem's.
_last_answers: dict[int, tuple[tuple, BestResponseResult]] = {}


def sender_best_response_multi(
    g: MultiGameInstance,
    alphas: SenderPolicySet,
    beta: MultiReceiverPolicy,
    j: int,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> BestResponseResult:
    """Best response of sender j with every other player held fixed.

    Sender j's problem is its distortion coefficients, its own (Z_j, W_j)
    marginal, rho and the solver settings. The last answer for each sender
    index is remembered, and a request posing the same problem, byte for
    byte, gets that same answer back without a solve: the audit after play
    reuses play's final solves this way. The solver is deterministic, so
    the answer is the one a fresh solve would give.
    """
    g.check_policies(alphas, beta)
    c = _linear_coeffs_multi(g, alphas, beta, j)
    pzw = g.joint.pzw(j)
    key = (c.shape, c.tobytes(), pzw.tobytes(), g.rho, settings)
    last = _last_answers.get(j)
    if last is not None and last[0] == key:
        return last[1]
    a, cost, iterations, converged, gap = _minimize_over_blocks(
        c, pzw, pzw.sum(axis=0), g.rho, settings
    )
    res = BestResponseResult(SenderPolicy(a), cost, iterations, converged, gap)
    _last_answers[j] = (key, res)
    return res


def _improvement_bound(
    g: MultiGameInstance, alphas: SenderPolicySet, beta: MultiReceiverPolicy, j: int
) -> float:
    """Bound on how much any encoder can lower sender j's cost, or inf.

    This is the summed block gap of the solver's own gradient at sender j's
    current encoder. The cost is convex over the product of message
    simplices, so the gap bounds the current cost above the optimum, as the
    Frank-Wolfe duality gap does. With rho > 0 the gradient bounds nothing
    on the boundary, so an encoder with a zero entry gets inf.
    """
    a = alphas[j].a
    if g.rho != 0.0 and not np.all(a > 0.0):
        return np.inf
    c = _linear_coeffs_multi(g, alphas, beta, j)
    pzw = g.joint.pzw(j)
    _, logratio = _leakage_parts(a, pzw, _log_floored(pzw.sum(axis=0)))
    grad = _gradient(c, g.rho * pzw, logratio)
    return float(((a * grad).sum(axis=0) - grad.min(axis=0)).sum())


@dataclass(frozen=True)
class MultiEpsilonNashReport:
    member: bool
    receiver_gap: float
    sender_gaps: tuple[float, ...]
    sender_stationarity_gaps: tuple[float, ...]
    epsilon: float


def epsilon_nash_check_multi(
    g: MultiGameInstance,
    alphas: SenderPolicySet,
    beta: MultiReceiverPolicy,
    epsilon: float,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> MultiEpsilonNashReport:
    """Per-player improvement gaps at a multi-sender strategy state."""
    _check_epsilon(epsilon)
    xi = expected_distortion_multi(g, alphas, beta)
    receiver_gap = xi - expected_distortion_multi(
        g, alphas, receiver_best_response_multi(g, alphas)
    )
    gaps, stat = [], []
    for j in range(g.n):
        res = sender_best_response_multi(g, alphas, beta, j, settings)
        gaps.append(xi + g.rho * leakage_j(g, alphas, j) - res.cost)
        stat.append(res.stationarity_gap)
    member = receiver_gap <= epsilon and all(gap <= epsilon for gap in gaps)
    return MultiEpsilonNashReport(member, receiver_gap, tuple(gaps), tuple(stat), epsilon)


def default_initial_state_multi(
    g: MultiGameInstance,
) -> tuple[SenderPolicySet, MultiReceiverPolicy]:
    """All-uniform encoders plus the constant prior-optimal decoder."""
    alphas = SenderPolicySet.uniform(
        [s.size for s in g.y_spaces],
        g.joint.x_space.size,
        [s.size for s in g.joint.w_spaces],
    )
    m = g.joint.x_space.size
    b = np.zeros((m,) + tuple(s.size for s in g.y_spaces))
    b[_prior_estimate(g.distortion.d, g.joint.px()), ...] = 1.0
    return alphas, MultiReceiverPolicy(b)


def random_best_response_dynamics(
    g: MultiGameInstance,
    alphas0: SenderPolicySet,
    beta0: MultiReceiverPolicy,
    epsilon: float,
    settings: SolverSettings = DEFAULT_SETTINGS,
    max_rounds: int = 1000,
    seed: int = 0,
) -> DynamicsReport:
    """Uniformly random player order with thresholded adoption.

    Each round draws one of the n + 1 players (0 = receiver); the drawn player
    adopts its best response only when that improves its own cost by strictly
    more than epsilon. Play stops once every player has been checked without
    an acceptable improvement since the last adoption.

    A drawn sender whose current encoder already has a summed block gap of at
    most epsilon is checked without a solve: by convexity no best response
    can improve it by more than that gap, so the check could not adopt, and
    play takes the same path as with the solve.
    """
    _check_epsilon(epsilon)
    g.check_policies(alphas0, beta0)
    inner = _inner_settings(settings, epsilon)

    rng = np.random.default_rng(seed)
    alphas, beta = alphas0, beta0
    n = g.n
    # the distortion and each sender's own leakage, refreshed only by the
    # moves that change them
    xi = expected_distortion_multi(g, alphas, beta)
    zetas = [leakage_j(g, alphas, j) for j in range(n)]

    def psi():
        total = xi
        for zeta in zetas:
            total += g.rho * zeta
        return total

    records = [TrajectoryRecord(0, "none", psi(), psi(), xi, True)]
    frozen: set[int] = set()
    reached = False
    rounds = 0
    for k in range(1, max_rounds + 1):
        rounds = k
        pick = int(rng.integers(0, n + 1))
        mover = "receiver" if pick == 0 else f"sender_{pick}"
        accepted = False
        own = xi if pick == 0 else xi + g.rho * zetas[pick - 1]
        if pick not in frozen:
            if pick == 0:
                cand_beta = receiver_best_response_multi(g, alphas)
                after = expected_distortion_multi(g, alphas, cand_beta)
                if xi - after > epsilon:
                    beta, xi, own, accepted = cand_beta, after, after, True
            else:
                i = pick - 1
                if _improvement_bound(g, alphas, beta, i) > epsilon:
                    res = sender_best_response_multi(g, alphas, beta, i, inner)
                    if own - res.cost > epsilon:
                        alphas = alphas.replace(i, res.policy)
                        xi = expected_distortion_multi(g, alphas, beta)
                        zetas[i] = leakage_j(g, alphas, i)
                        own, accepted = res.cost, True
            frozen = {pick} if accepted else frozen | {pick}
        records.append(TrajectoryRecord(k, mover, psi(), own, xi, accepted))
        if len(frozen) == n + 1:
            reached = True
            break

    return DynamicsReport(
        tuple(records), (alphas, beta), epsilon, reached, rounds
    )
