"""Privacy-ratio sweeps and the critical-ratio search."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import GameConfig, SweepSpec
from .dynamics import default_initial_pair, thresholded_dynamics
from .game import GameInstance, ReceiverPolicy, SenderPolicy, _joint_xy, _joint_yw, _xi
from .prob import LN2, _mutual_information
from .solve import _leakage_parts, _linear_coeffs, _log_floored, _WarmStart, explicit_equilibrium

#: Distortion at or below this counts as "zero" when locating the transition.
ZERO_DISTORTION = 1e-3
#: Width the critical-ratio bracket is bisected down to.
CRITICAL_WIDTH = 1e-3


@dataclass(frozen=True)
class SweepRow:
    rho: float
    expected_distortion: float
    mutual_information: float
    potential: float
    iterations: int
    converged: bool
    method: str


def _truthful_critical_rho(g: GameInstance) -> float | None:
    """Largest rho, in nats, at which the truthful encoder best-responds to
    the identity decoder; g's own rho is not used.

    At the truthful encoder t, a(y, z, w) = [y = z], the gradient is
    c(y, z, w) + rho P{z, w} L(y, w), with c the identity decoder's
    distortion coefficients and L(y, w) = log P{Z=y, W=w} / (P{Z=y} P{W=w})
    fixed in rho. By convexity t is a best response exactly when each
    block's gap is 0, that is for rho up to

        min over y != z and w with L(z, w) > L(y, w) of
        [c(y, z, w) - c(z, z, w)] / (P{z, w} (L(z, w) - L(y, w))),

    which is inf when no pair bounds it. None when t is not a rho = 0 best
    response (some c(y, z, w) < c(z, z, w)), when a cell of P{Z, W} has no
    mass, so that t leaves a (y, w) cell empty and has no gradient there,
    or when the message alphabet is not the state alphabet. O(|Y| |X| |W|),
    with no solve.
    """
    m, q = g.x_space.size, g.w_space.size
    pzw = g.joint.pzw
    if g.y_space.size != m or not pzw.all():
        return None
    c = _linear_coeffs(g, ReceiverPolicy.identity(m))
    # rise[y, z, w] = c(y, z, w) - c(z, z, w)
    rise = c - c[np.arange(m), np.arange(m)][None]
    if np.any(rise < 0.0):
        return None
    _, logratio = _leakage_parts(SenderPolicy.truthful(m, q).a, pzw, _log_floored(g.joint.pw))
    # drop[y, z, w] = P{z, w} (L(z, w) - L(y, w))
    drop = pzw[None] * (logratio[None] - logratio[:, None])
    bounding = drop > 0.0
    return float((rise[bounding] / drop[bounding]).min()) if bounding.any() else math.inf


class _SweepRows(list):
    """run_sweep's rows, and as seed the chain's warm start as it stood
    after the bracket's low end (critical_rho_from_rows): (that row's rho,
    the warm start), or None. The bisection starts from it."""

    seed = None


def _game_at_zero(cfg: GameConfig) -> GameInstance:
    """The config's game at rho = 0, built from its shared joint and
    distortion rather than by build_single, since it is no sweep point."""
    joint, distortion = cfg._single_parts
    return GameInstance(joint, distortion, cfg.y_spaces[0], 0.0)


def _chain(cfg: GameConfig, method: str) -> _WarmStart:
    """A new continuation chain, started for the explicit method from the
    exact rho = 0 answer to the identity decoder.

    Up to the truthful critical ratio (_truthful_critical_rho) that answer,
    the truthful encoder, certifies itself by its own summed gap, so each
    point returns it as it stands, with 0 iterations (sender_best_response),
    and hands it on to the next.
    """
    chain = _WarmStart()
    if method == "explicit":
        explicit_equilibrium(_game_at_zero(cfg), cfg.solver, chain)
    return chain


def _point(cfg: GameConfig, rho: float, method: str, chain: _WarmStart) -> SweepRow:
    """Solve one point and return its row.

    The explicit method starts from the chain and updates it; the dynamics
    method always starts cold. The row is evaluated by the raw-array
    workers, as both policies were checked against g when they were made.
    """
    g = cfg.build_single(rho)
    if method == "explicit":
        res, beta = explicit_equilibrium(g, cfg.solver, chain)
        alpha = res.policy
        iterations, converged = res.iterations, res.converged
    elif method == "dynamics":
        a0, b0 = default_initial_pair(g)
        rep = thresholded_dynamics(g, a0, b0, cfg.dynamics.epsilon, cfg.solver)
        alpha, beta = rep.final_pair
        iterations, converged = rep.iterations_used, rep.reached_eps_nash
    else:
        raise ValueError(f"unknown sweep method {method!r}")
    xi = _xi(g.distortion.d, beta.b, _joint_xy(g.joint.p, alpha.a))
    zeta = cfg.report_information(_mutual_information(_joint_yw(g.joint.pzw, alpha.a)))
    return SweepRow(float(rho), xi, zeta, xi + rho * zeta, iterations, converged, method)


def run_sweep(cfg: GameConfig, method: str = "explicit") -> list[SweepRow]:
    """Solve the game across the configured rho grid, rows in rho order.

    Neighbouring points have nearly the same optimum and the same P{Z, W},
    so with the explicit method each point starts from the previous point's
    encoder, mirror step and Newton basis, the first from the rho = 0
    answer (_chain). The rows also carry the warm start at the bracket's
    low end, which sweep_report's bisection starts from.
    """
    if not isinstance(cfg.rho, SweepSpec):
        raise ValueError("config rho must be a sweep specification")
    rows, chain = _SweepRows(), _chain(cfg, method)
    low_end = None  # the last row's seed while its distortion is zero
    for r in cfg.rho.grid():
        row = _point(cfg, float(r), method, chain)
        rows.append(row)
        if row.expected_distortion <= ZERO_DISTORTION:
            low_end = (row.rho, _WarmStart(chain.a, chain.step, chain.basis))
        elif low_end is not None:
            # a transition; the bisection brackets the last one
            rows.seed, low_end = low_end, None
    return rows


def _bisect_critical(
    cfg: GameConfig, method: str, lo: float, hi: float, start: _WarmStart | None = None
) -> float | None:
    """Bisect [lo, hi]; the first point starts from start, or from a new
    chain (_chain), and each later one from the previous one's encoder,
    mirror step and Newton basis. Returns None at the first point that does
    not converge, since its distortion proves nothing."""
    chain = _chain(cfg, method) if start is None else _WarmStart(start.a, start.step, start.basis)
    while hi - lo > CRITICAL_WIDTH:
        mid = 0.5 * (lo + hi)
        row = _point(cfg, mid, method, chain)
        if not row.converged:
            return None
        if row.expected_distortion <= ZERO_DISTORTION:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def critical_rho_from_rows(
    cfg: GameConfig, rows: list[SweepRow], method: str
) -> tuple[float | None, bool]:
    """Bisection-refined rho where distortion first departs from zero, and
    whether every bisection point converged.

    The rho is None when the grid shows no transition (all-zero or
    never-zero), or when a bisection point does not converge.
    """
    lo = None
    for i, row in enumerate(rows):
        if row.expected_distortion <= ZERO_DISTORTION:
            if i + 1 < len(rows) and rows[i + 1].expected_distortion > ZERO_DISTORTION:
                lo = i
    if lo is None:
        return None, True
    # run_sweep's rows hand the bisection the grid's warm start at rows[lo]
    seed = getattr(rows, "seed", None)
    start = seed[1] if seed is not None and seed[0] == rows[lo].rho else None
    critical = _bisect_critical(cfg, method, rows[lo].rho, rows[lo + 1].rho, start)
    return critical, critical is not None


def sweep_report(cfg: GameConfig, rows: list[SweepRow], method: str) -> dict:
    """Summary for report.json: critical ratio under both log bases.

    The ratio is bisected in the configured base and converted to the other:
    a bits-valued rho is applied as rho / ln 2 nats, so the bits critical
    ratio is ln 2 times the nats one. The converted value is accurate to
    CRITICAL_WIDTH times that factor: ln 2 times it for a nats sweep, 1/ln 2
    times it for a bits sweep. all_converged covers the bisection's points
    as well as the rows.

    The explicit method also reports truthful_critical_rho, the exact ratio
    up to which the truthful encoder is the sender's answer
    (_truthful_critical_rho), in both bases: null when that function finds
    none, or when the truthful encoder stays the answer at every rho. It
    lies below the bisected ratio, which tests distortion against
    ZERO_DISTORTION, not against 0.
    """
    bisected, bisection_converged = critical_rho_from_rows(cfg, rows, method)
    other, scale = ("bits", LN2) if cfg.log_base == "nats" else ("nats", 1.0 / LN2)
    critical = {cfg.log_base: bisected, other: None if bisected is None else bisected * scale}
    report = {
        "log_base": cfg.log_base,
        "method": method,
        "points": len(rows),
        "rho_start": rows[0].rho if rows else None,
        "rho_stop": rows[-1].rho if rows else None,
        "critical_rho": critical,
    }
    if method == "explicit":
        exact = _truthful_critical_rho(_game_at_zero(cfg))
        finite = exact is not None and math.isfinite(exact)
        report["truthful_critical_rho"] = {"nats": exact, "bits": exact * LN2} if finite else None
    report["all_converged"] = bisection_converged and all(r.converged for r in rows)
    if cfg.reference_critical_rho is not None:
        report["reference_critical_rho"] = cfg.reference_critical_rho
        found = {b: v for b, v in critical.items() if v is not None}
        if found:
            report["nearest_base"] = min(
                found, key=lambda b: abs(found[b] - cfg.reference_critical_rho)
            )
    return report
