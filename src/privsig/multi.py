"""Several senders, one receiver.

Sender i sees its own measurement Z_i of the shared state X plus its own
secret W_i and emits Y_i; the receiver maps the message tuple to an estimate.
Each sender pays the common distortion plus rho times the leakage of its own
secret through its own message; the receiver pays the distortion. The sum of
all leakage terms plus the distortion is an exact potential.

Joint tensors carry axes (x, z_1..z_n, w_1..w_n), and ``_contract`` sums them
against the encoders one sender at a time, one two-operand ``np.einsum`` per
sender whose subscripts the joint builds once, so the full policy product is
never materialized. Play and the audit compute each contraction once per
state and skip the public functions' validation.
"""
from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from .game import DistortionMatrix, SenderPolicy, _check_blocks
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
    _improvement_reference,
    _leakage_parts,
    _log_floored,
    _minimize_over_blocks,
    _posterior_decoder,
    _prior_estimate,
    _Problem,
    _verdict,
    _WarmStart,
)
from .dynamics import DynamicsReport, TrajectoryRecord, _inner_settings, _play

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
        # the marginals and the contraction plans, built once per joint
        axes = range(arr.ndim)
        pzw = tuple(
            _freeze(arr.sum(axis=tuple(ax for ax in axes if ax not in (1 + j, 1 + n + j))))
            for j in range(n)
        )
        object.__setattr__(self, "_px", _freeze(arr.sum(axis=tuple(axes[1:]))))
        object.__setattr__(self, "_pzw", pzw)
        object.__setattr__(self, "_pw", tuple(_freeze(q.sum(axis=0)) for q in pzw))
        object.__setattr__(
            self, "_plans", {skip: _contraction_plan(n, skip) for skip in (None, *range(n))}
        )

    @property
    def n(self) -> int:
        return len(self.w_spaces)

    def px(self) -> np.ndarray:
        """Marginal P{X}, summed once at construction; read-only."""
        return self._px

    def pzw(self, j: int) -> np.ndarray:
        """Marginal P{Z_j, W_j} as a matrix, summed once at construction; read-only."""
        return self._pzw[j]


def _contraction_plan(n: int, skip: int | None) -> tuple[tuple, str | None]:
    """einsum subscripts of _contract's steps and of the coefficients' sum.

    One letter per axis: x, then z_i, w_i and y_i for each sender i. Each
    step sums one sender's (z_i, w_i) against its encoder and appends y_i
    as the last axis. With a skip, the second item sums the result against
    the distortion table (x, y_1..y_n) down to (y_skip, z_skip, w_skip);
    without one it is None.
    """
    letters = string.ascii_letters
    x = letters[0]
    z, w, y = (letters[k : k + n] for k in (1, 1 + n, 1 + 2 * n))
    axes, steps = x + z + w, []
    for i in range(n):
        if i == skip:
            continue
        out = axes.replace(z[i], "").replace(w[i], "") + y[i]
        steps.append((i, f"{axes},{y[i]}{z[i]}{w[i]}->{out}"))
        axes = out
    coeffs = None if skip is None else f"{axes},{x}{y}->{y[skip]}{z[skip]}{w[skip]}"
    return tuple(steps), coeffs


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


def _contract(joint: MultiJoint, policies, skip: int | None = None) -> np.ndarray:
    """Sum the joint against every encoder except skip's, one sender at a time.

    Returns axes (x, y_1..y_n), or (x, z_skip, w_skip, y_i for i != skip)
    when a sender is skipped. Each step is one two-operand einsum from the
    joint's plan; tensordot's Python-side axis handling cost more than the
    sums themselves on small alphabets.
    """
    p = joint.p
    for i, subscripts in joint._plans[skip][0]:
        p = np.einsum(subscripts, p, policies[i].a)
    return p


def _distortion_table(g: MultiGameInstance, beta: MultiReceiverPolicy) -> np.ndarray:
    """d . beta over the estimate: distortion per (x, y_1..y_n)."""
    b = beta.b
    return (g.distortion.d @ b.reshape(b.shape[0], -1)).reshape((-1,) + b.shape[1:])


def _distortion(q: np.ndarray, table: np.ndarray) -> float:
    """Expected distortion of the contraction q = P{X, Y_1..Y_n} under a table."""
    return float((q * table).sum())


def _leakage(g: MultiGameInstance, a: np.ndarray, j: int) -> float:
    """I(Y_j; W_j) of encoder a for sender j by the solver's kernel
    (_leakage_parts), clamped at 0 as _mutual_information clamps it."""
    return max(0.0, _leakage_parts(a, g.joint.pzw(j), _log_floored(g.joint._pw[j]))[0])


def expected_distortion_multi(
    g: MultiGameInstance, alphas: SenderPolicySet, beta: MultiReceiverPolicy
) -> float:
    g.check_policies(alphas, beta)
    return _distortion(_contract(g.joint, alphas.policies), _distortion_table(g, beta))


def leakage_j(g: MultiGameInstance, alphas: SenderPolicySet, j: int) -> float:
    """I(Y_j; W_j) in nats for sender j (0-based)."""
    g.check_policies(alphas)
    return _leakage(g, alphas[j].a, j)


def coalition_leakage(g: MultiGameInstance, alphas: SenderPolicySet, j: int) -> float:
    """Diagnostic I(Y_1..Y_n; W_j): what all messages jointly reveal of secret j."""
    g.check_policies(alphas)
    rest = _contract(g.joint, alphas.policies, skip=j).sum(axis=0)
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
        total += g.rho * _leakage(g, alphas[j].a, j)
    return total


def receiver_best_response_multi(
    g: MultiGameInstance, alphas: SenderPolicySet
) -> MultiReceiverPolicy:
    """Per-message-tuple posterior minimizer, prior-optimal on dead tuples."""
    g.check_policies(alphas)
    q = _contract(g.joint, alphas.policies)
    b = _posterior_decoder(g.distortion.d, g.joint.px(), q.reshape(q.shape[0], -1))
    return MultiReceiverPolicy(b.reshape(q.shape))


def _linear_coeffs_multi(
    g: MultiGameInstance, alphas: SenderPolicySet, table: np.ndarray, j: int
) -> np.ndarray:
    """Distortion as a linear functional of encoder j, the others held fixed.

    table is the decoder's _distortion_table. The other encoders are
    contracted out of the joint, and one einsum against the table sums x and
    every other sender's message, leaving (y_j, z_j, w_j).
    """
    rest = _contract(g.joint, alphas.policies, skip=j)
    return np.einsum(g.joint._plans[j][1], rest, table)


def sender_best_response_multi(
    g: MultiGameInstance,
    alphas: SenderPolicySet,
    beta: MultiReceiverPolicy,
    j: int,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> BestResponseResult:
    """Best response of sender j with every other player held fixed.

    Sender j's problem is its distortion coefficients, its own (Z_j, W_j)
    marginal, rho and the solver settings.
    """
    g.check_policies(alphas, beta)
    c = _linear_coeffs_multi(g, alphas, _distortion_table(g, beta), j)
    return _minimize_over_blocks(_Problem(c, g.joint.pzw(j), g.joint._pw[j], g.rho), settings)


@dataclass(frozen=True)
class MultiEpsilonNashReport:
    """Sender j's best improvement lies in [sender_gaps[j], sender_gaps[j] +
    sender_stationarity_gaps[j]]; member applies EpsilonNashReport's test
    to every sender (epsilon_nash_check_multi), so a clamped sender gap can
    leave an upper end above epsilon in a member."""

    member: bool
    receiver_gap: float
    sender_gaps: tuple[float, ...]
    sender_stationarity_gaps: tuple[float, ...]
    epsilon: float

    @property
    def verdict(self) -> str:
        """PASS, FAIL or UNCERTIFIED (solve._verdict)."""
        return _verdict(self.member, (self.receiver_gap, *self.sender_gaps), self.epsilon)


def epsilon_nash_check_multi(
    g: MultiGameInstance,
    alphas: SenderPolicySet,
    beta: MultiReceiverPolicy,
    epsilon: float,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> MultiEpsilonNashReport:
    """Decide whether a multi-sender state is an epsilon-equilibrium.

    Each sender is decided as in epsilon_nash_check: by its encoder's own
    summed block gap when that settles it, else by the leakage-blind
    encoder when it is a best response or settles it, else by a solve that
    stops at the first iterate that does. member is a proof, and each
    sender gap is clamped at 0, as there.
    """
    _check_epsilon(epsilon)
    g.check_policies(alphas, beta)
    # one full contraction serves both decoders, and one table every sender
    q = _contract(g.joint, alphas.policies)
    table = _distortion_table(g, beta)
    xi = _distortion(q, table)
    best = receiver_best_response_multi(g, alphas)
    receiver_gap = xi - _distortion(q, _distortion_table(g, best))
    member = receiver_gap <= epsilon
    gaps, stat = [], []
    for j in range(g.n):
        own = xi + g.rho * _leakage(g, alphas[j].a, j)
        ref = _improvement_reference(
            _linear_coeffs_multi(g, alphas, table, j), g.joint.pzw(j), g.joint._pw[j], g.rho,
            alphas[j], own, epsilon, settings,
        )
        gaps.append(max(0.0, own - ref.cost))
        stat.append(ref.stationarity_gap)
        # the floor test's own form, so that a floored answer is always a member
        member = member and ref.cost - ref.stationarity_gap >= own - epsilon
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

    Each round draws one of the n + 1 players (0 = receiver); a drawn player
    that is not frozen is checked, and _play decides adoption, freezing and
    stopping. Play is reached once every player is frozen.

    A drawn sender is checked by _improvement_reference. No solve is made
    when its current encoder's summed block gap is at most epsilon, which by
    convexity bounds any improvement, or when the leakage-blind encoder is
    a best response or proves that no move gains more than epsilon; any
    other check is decided by a solve that stops at the first iterate
    proving no improvement above epsilon. Every solve starts from the
    uniform encoder with the mirror step and the Newton basis of the last
    adopted answer, a continuation chain that carries no encoder; a basis
    built for another P{Z, W} is dropped by the solve. Only an adoption
    advances the chain, and an adopted solve never reached its floor, so
    play adopts and moves exactly as it would with a best response at
    every check that is the blind encoder when that is one, and otherwise
    a full solve started from the same chain.

    Play holds the decoder's distortion table, rebuilt when the receiver
    moves. Distortion is linear in each encoder, so after a sender adopts
    the distortion is its check's coefficients summed against the new
    encoder, and no full contraction is made.
    """
    _check_epsilon(epsilon)
    g.check_policies(alphas0, beta0)
    inner = _inner_settings(settings, epsilon)

    rng = np.random.default_rng(seed)
    alphas, beta = alphas0, beta0
    n = g.n
    # the decoder's table, the distortion and each sender's own leakage,
    # refreshed only by the moves that change them
    table = _distortion_table(g, beta)
    xi = _distortion(_contract(g.joint, alphas.policies), table)
    zetas = [_leakage(g, alphas[j].a, j) for j in range(n)]
    # the cost a sender's adoption leaves it, as its check found it
    adopted = 0.0
    # the mirror step and Newton basis of the last adopted answer
    chain = _WarmStart()

    def psi():
        total = xi
        for zeta in zetas:
            total += g.rho * zeta
        return total

    def check(p):
        if p == 0:
            cand = receiver_best_response_multi(g, alphas)
            cand_table = _distortion_table(g, cand)
            after = _distortion(_contract(g.joint, alphas.policies), cand_table)
            return xi, after, 0.0, (cand, cand_table, after)
        i = p - 1
        own = xi + g.rho * zetas[i]
        c = _linear_coeffs_multi(g, alphas, table, i)
        start = _WarmStart(None, chain.step, chain.basis)
        res = _improvement_reference(
            c, g.joint.pzw(i), g.joint._pw[i], g.rho, alphas[i], own, epsilon, inner, start
        )
        return own, res.cost, res.stationarity_gap, (res, c, start)

    def adopt(p, answer):
        nonlocal alphas, beta, table, xi, adopted
        if p == 0:
            beta, table, xi = answer
        else:
            res, c, start = answer
            chain.step, chain.basis = start.step, start.basis
            alphas = alphas.replace(p - 1, res.policy)
            xi = float((c * res.policy.a).sum())
            zetas[p - 1] = _leakage(g, res.policy.a, p - 1)
            adopted = res.cost

    def row(k, p, accepted):
        if p is None:
            return TrajectoryRecord(0, "none", psi(), psi(), xi, True)
        if p == 0:
            return TrajectoryRecord(k, "receiver", psi(), xi, xi, accepted)
        own = adopted if accepted else xi + g.rho * zetas[p - 1]
        return TrajectoryRecord(k, f"sender_{p}", psi(), own, xi, accepted)

    records, reached, rounds = _play(
        check, adopt, row, lambda k: int(rng.integers(0, n + 1)), n + 1, epsilon, max_rounds
    )
    return DynamicsReport(tuple(records), (alphas, beta), epsilon, reached, rounds)
