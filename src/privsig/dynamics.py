"""Alternating best-response play for the single-sender game.

Rounds are indexed from k = 1; odd rounds belong to the receiver, even rounds
to the sender. The plain variant always adopts the mover's best response and
stops once the current pair is an epsilon-equilibrium. The thresholded
variant adopts a move only when it improves the mover by strictly more than
epsilon, which bounds the number of rounds by ceil(3 + potential(start) / epsilon).
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
    _prior_estimate,
    receiver_best_response,
    sender_best_response,
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


def _record(g, k, mover, alpha, beta, accepted):
    u = sender_cost(g, alpha, beta)
    v = receiver_cost(g, alpha, beta)
    return TrajectoryRecord(k, mover, u, u, v, accepted)


def best_response_dynamics(
    g: GameInstance,
    alpha0: SenderPolicy,
    beta0: ReceiverPolicy,
    epsilon: float,
    settings: SolverSettings = DEFAULT_SETTINGS,
    max_rounds: int = 500,
) -> DynamicsReport:
    """Alternating best responses, stopping at an epsilon-equilibrium.

    After any round the mover's own gap is zero, so the pair is certified as
    soon as the next mover's available improvement is at most epsilon.
    """
    _check_epsilon(epsilon)
    g.check_sender(alpha0)
    g.check_receiver(beta0)
    inner = _inner_settings(settings, epsilon)

    alpha, beta = alpha0, beta0
    records = [_record(g, 0, "none", alpha, beta, True)]
    reached = False
    rounds = 0
    for k in range(1, max_rounds + 1):
        rounds = k
        if k % 2 == 1:
            cand = receiver_best_response(g, alpha)
            gap = receiver_cost(g, alpha, beta) - receiver_cost(g, alpha, cand)
            if k >= 2 and gap <= epsilon:
                reached = True
                break
            beta = cand
            records.append(_record(g, k, "receiver", alpha, beta, True))
        else:
            br = sender_best_response(g, beta, inner)
            gap = sender_cost(g, alpha, beta) - br.cost
            if gap <= epsilon:
                reached = True
                break
            alpha = br.policy
            records.append(_record(g, k, "sender", alpha, beta, True))

    return DynamicsReport(tuple(records), (alpha, beta), epsilon, reached, rounds)


def thresholded_dynamics(
    g: GameInstance,
    alpha0: SenderPolicy,
    beta0: ReceiverPolicy,
    epsilon: float,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> DynamicsReport:
    """Best-response play that adopts only improvements strictly above epsilon.

    Terminates when two consecutive rounds freeze, which certifies the pair up
    to the inner solver's tolerance. Exceeding the potential-based round bound
    is impossible for a sound inner solver, so that raises instead of looping.
    """
    _check_epsilon(epsilon)
    g.check_sender(alpha0)
    g.check_receiver(beta0)
    inner = _inner_settings(settings, epsilon)

    alpha, beta = alpha0, beta0
    psi0 = potential(g, alpha0, beta0)
    bound = int(math.ceil(3.0 + psi0 / epsilon))
    records = [_record(g, 0, "none", alpha, beta, True)]
    # best responses only change when the opponent's policy does, so cache
    # them keyed by the opponent's adoption count
    alpha_version, beta_version = 0, 0
    cached_receiver = (-1, None)
    cached_sender = (-1, None)

    prev_frozen = False
    reached = False
    rounds = 0
    for k in range(1, bound + 1):
        rounds = k
        if k % 2 == 1:
            if cached_receiver[0] != alpha_version:
                cached_receiver = (alpha_version, receiver_best_response(g, alpha))
            cand = cached_receiver[1]
            gap = receiver_cost(g, alpha, beta) - receiver_cost(g, alpha, cand)
            mover = "receiver"
        else:
            if cached_sender[0] != beta_version:
                cached_sender = (beta_version, sender_best_response(g, beta, inner))
            cand = cached_sender[1]
            gap = sender_cost(g, alpha, beta) - cand.cost
            mover = "sender"
        if gap > epsilon:
            if mover == "receiver":
                beta = cand
                beta_version += 1
            else:
                alpha = cand.policy
                alpha_version += 1
            records.append(_record(g, k, mover, alpha, beta, True))
            prev_frozen = False
        else:
            records.append(_record(g, k, mover, alpha, beta, False))
            if prev_frozen:
                reached = True
                break
            prev_frozen = True
    else:
        raise RuntimeError(
            f"thresholded play exceeded its round bound {bound}; "
            "the inner solver is not resolving improvements reliably"
        )

    return DynamicsReport(tuple(records), (alpha, beta), epsilon, reached, rounds, bound)
