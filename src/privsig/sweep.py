"""Privacy-ratio sweeps and the critical-ratio search."""
from __future__ import annotations

from dataclasses import dataclass

from .config import GameConfig, SweepSpec
from .dynamics import default_initial_pair, thresholded_dynamics
from .game import expected_distortion, leakage
from .prob import LN2
from .solve import _identity_best_response, _WarmStart

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


def _point(cfg: GameConfig, rho: float, method: str, chain: _WarmStart) -> SweepRow:
    """Solve one point and return its row.

    The explicit method starts its best response from the chain's warm
    start, which the solve then hands on to the chain's next point; the
    dynamics method always starts cold.
    """
    g = cfg.build_single(rho)
    if method == "explicit":
        res, beta = _identity_best_response(g, cfg.solver, chain)
        alpha = res.policy
        iterations, converged = res.iterations, res.converged
    elif method == "dynamics":
        a0, b0 = default_initial_pair(g)
        rep = thresholded_dynamics(g, a0, b0, cfg.dynamics.epsilon, cfg.solver)
        alpha, beta = rep.final_pair
        iterations, converged = rep.iterations_used, rep.reached_eps_nash
    else:
        raise ValueError(f"unknown sweep method {method!r}")
    xi = expected_distortion(g, alpha, beta)
    zeta = cfg.report_information(leakage(g, alpha))
    return SweepRow(float(rho), xi, zeta, xi + rho * zeta, iterations, converged, method)


def run_sweep(cfg: GameConfig, method: str = "explicit") -> list[SweepRow]:
    """Solve the game across the configured rho grid, rows in rho order.

    Neighbouring points have nearly the same optimum and the same P{Z, W},
    so with the explicit method each point starts from the previous point's
    encoder, mirror step and Newton basis.
    """
    if not isinstance(cfg.rho, SweepSpec):
        raise ValueError("config rho must be a sweep specification")
    chain = _WarmStart()
    return [_point(cfg, float(r), method, chain) for r in cfg.rho.grid()]


def _bisect_critical(cfg: GameConfig, method: str, lo: float, hi: float) -> float | None:
    """Bisect [lo, hi]; each point after the first starts from the previous
    one's encoder, mirror step and Newton basis. Returns None at the first
    point that does not converge, since its distortion proves nothing."""
    chain = _WarmStart()
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
    critical = _bisect_critical(cfg, method, rows[lo].rho, rows[lo + 1].rho)
    return critical, critical is not None


def sweep_report(cfg: GameConfig, rows: list[SweepRow], method: str) -> dict:
    """Summary for report.json: critical ratio under both log bases.

    The ratio is bisected in the configured base and converted to the other:
    a bits-valued rho is applied as rho / ln 2 nats, so the bits critical
    ratio is ln 2 times the nats one. The converted value is accurate to
    CRITICAL_WIDTH times that factor: ln 2 times it for a nats sweep, 1/ln 2
    times it for a bits sweep. all_converged covers the bisection's points
    as well as the rows.
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
        "all_converged": bisection_converged and all(r.converged for r in rows),
    }
    if cfg.reference_critical_rho is not None:
        report["reference_critical_rho"] = cfg.reference_critical_rho
        found = {b: v for b, v in critical.items() if v is not None}
        if found:
            report["nearest_base"] = min(
                found, key=lambda b: abs(found[b] - cfg.reference_critical_rho)
            )
    return report
