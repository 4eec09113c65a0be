"""Best-response play, and the play loop every variant shares.

Rounds are indexed from k = 1. Single-sender play alternates: odd rounds
belong to the receiver, even rounds to the sender. Every variant adopts a
move only when it improves its mover by strictly more than epsilon, except
that plain play's receiver adopts its first best response whatever it
gains. _play decides adoption, freezing and stopping, so reached_eps_nash
is a proof: every player's last check showed it has at most epsilon to gain.
Thresholded play is capped at ceil(3 + potential(start) / epsilon) rounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .game import (
    GameInstance,
    ReceiverPolicy,
    SenderPolicy,
    potential,
    receiver_cost,
    sender_cost,
)
from .solve import (
    DEFAULT_SETTINGS,
    SolverSettings,
    _check_epsilon,
    _improvement_reference,
    _linear_coeffs,
    _prior_estimate,
    receiver_best_response,
)


@dataclass(frozen=True)
class TrajectoryRecord:
    k: int
    mover: str
    potential: float
    sender_cost: float
    receiver_cost: float
    accepted: bool


@dataclass(frozen=True)
class DynamicsReport:
    trajectory: tuple[TrajectoryRecord, ...]
    final_pair: tuple
    epsilon: float
    reached_eps_nash: bool
    iterations_used: int
    iteration_bound: int | None = None


def trajectory_rows(report: DynamicsReport) -> list[tuple]:
    """Trajectory as (k, mover, potential, sender_cost, receiver_cost, accepted) rows."""
    return [
        (r.k, r.mover, r.potential, r.sender_cost, r.receiver_cost, r.accepted)
        for r in report.trajectory
    ]


def default_initial_pair(g: GameInstance) -> tuple[SenderPolicy, ReceiverPolicy]:
    """Uniform encoder; identity decoder when alphabets match, else prior-optimal."""
    alpha = SenderPolicy.uniform(g.y_space.size, g.x_space.size, g.w_space.size)
    if g.y_space.size == g.x_space.size:
        beta = ReceiverPolicy.identity(g.x_space.size)
    else:
        xhat = _prior_estimate(g.distortion.d, g.joint.px)
        beta = ReceiverPolicy.constant(xhat, g.x_space.size, g.y_space.size)
    return alpha, beta


def _inner_settings(settings: SolverSettings, epsilon: float) -> SolverSettings:
    """Inner best responses must resolve improvements well below epsilon."""
    want = min(settings.grad_tol, epsilon / 10.0)
    if want == settings.grad_tol:
        return settings
    return replace(settings, grad_tol=want)


def _play(check, adopt, row, order, players, epsilon, max_rounds, adopt_first=False):
    """The play loop: which checks adopt, which freeze, and when play stops.

    order(k) is the player checked in round k, one of players; row(k, p,
    accepted) is the record after player p's round. check(p) returns (own,
    cost, gap, answer): p's cost now, and its answer with that answer's cost
    and summed block gap (0 for the receiver's exact answer); adopt(p,
    answer) moves p to it. A frozen player is not checked. An adoption,
    which must gain more than epsilon unless adopt_first and k == 1, freezes
    its mover when the gap certifies the answer, and thaws every other
    player. A rejection freezes its player when the answer proves that no
    move gains more than epsilon (_improvement_reference); an unproven one
    stops play unreached. Play is reached when every player is frozen.
    Returns (records, reached, rounds).
    """
    records = [row(0, None, True)]
    frozen: set = set()
    for k in range(1, max_rounds + 1):
        p = order(k)
        accepted = unproven = False
        if p not in frozen:
            own, cost, gap, answer = check(p)
            if own - cost > epsilon or (adopt_first and k == 1):
                adopt(p, answer)
                accepted = True
                frozen = {p} if gap <= epsilon else set()
            # the floor test's own form, so that a floored answer proves it
            elif gap == 0.0 or cost - gap >= own - epsilon:
                frozen.add(p)
            else:
                unproven = True
        records.append(row(k, p, accepted))
        if unproven or len(frozen) == players:
            return records, not unproven, k
    return records, False, max_rounds


def _alternating(g, alpha0, beta0, epsilon, settings, max_rounds, adopt_first=False):
    """Alternating play from (alpha0, beta0), the receiver first."""
    _check_epsilon(epsilon)
    g.check_sender(alpha0)
    g.check_receiver(beta0)
    inner = _inner_settings(settings, epsilon)
    alpha, beta = alpha0, beta0

    def check(p):
        if p == 0:
            cand = receiver_best_response(g, alpha)
            return receiver_cost(g, alpha, beta), receiver_cost(g, alpha, cand), 0.0, cand
        own = sender_cost(g, alpha, beta)
        ref = _improvement_reference(
            _linear_coeffs(g, beta), g.joint.pzw, g.joint.pw, g.rho, alpha, own, epsilon, inner
        )
        return own, ref.cost, ref.stationarity_gap, ref.policy

    def adopt(p, answer):
        nonlocal alpha, beta
        if p == 0:
            beta = answer
        else:
            alpha = answer

    def row(k, p, accepted):
        u = sender_cost(g, alpha, beta)
        mover = ("receiver", "sender")[p] if k else "none"
        return TrajectoryRecord(k, mover, u, u, receiver_cost(g, alpha, beta), accepted)

    records, reached, rounds = _play(
        check, adopt, row, lambda k: (k + 1) % 2, 2, epsilon, max_rounds, adopt_first
    )
    return DynamicsReport(tuple(records), (alpha, beta), epsilon, reached, rounds)


def best_response_dynamics(
    g: GameInstance,
    alpha0: SenderPolicy,
    beta0: ReceiverPolicy,
    epsilon: float,
    settings: SolverSettings = DEFAULT_SETTINGS,
    max_rounds: int = 500,
) -> DynamicsReport:
    """Alternating best responses, stopping at an epsilon-equilibrium.

    The receiver adopts its first best response whatever it gains; every
    later move follows _play's rule.
    """
    return _alternating(g, alpha0, beta0, epsilon, settings, max_rounds, adopt_first=True)


def thresholded_dynamics(
    g: GameInstance,
    alpha0: SenderPolicy,
    beta0: ReceiverPolicy,
    epsilon: float,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> DynamicsReport:
    """Best-response play that adopts only improvements strictly above epsilon.

    Each adoption lowers the potential by more than epsilon, so play with
    certified answers ends within ceil(3 + potential(start) / epsilon)
    rounds; that bound caps play, and reaching it unreached is reported.
    """
    _check_epsilon(epsilon)
    bound = int(math.ceil(3.0 + potential(g, alpha0, beta0) / epsilon))
    rep = _alternating(g, alpha0, beta0, epsilon, settings, bound)
    return replace(rep, iteration_bound=bound)
