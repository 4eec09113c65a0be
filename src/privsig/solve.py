"""Best responses and equilibrium constructions.

The receiver's best response is exact (per-message posterior minimization).
The sender's best response minimizes a convex objective over a product of
message simplices, one per (measurement, secret) pair: exponentiated
gradient steps shape the support, and on problems small enough for a dense
solve an active-set Newton phase closes the gap. Stationarity is measured by
the worst simplex-block gap, which certifies optimality for convex costs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import (
    GameInstance,
    ReceiverPolicy,
    SenderPolicy,
    _joint_xy,
    _joint_yw,
    _xi,
    expected_distortion,
    receiver_cost,
    sender_cost,
)

_TINY_STEP = 1e-18
_MAX_STEP = 1e12
# keeps every iterate strictly positive so gradients stay finite and the
# block gap remains a valid suboptimality certificate
_MASS_FLOOR = 1e-300
# non-commensurate growth keeps the step ladder from locking into a
# power-of-two limit cycle around the scale a flat block needs
_STEP_GROWTH = 1.3
_STALL_PATIENCE = 30
# hand off to the Newton phase once multiplicative steps are this close
_POLISH_AT = 1e-5
_POLISH_ITERS = 100
_POLISH_MAX_VARS = 2000
_PHASE_ONE_CAP = 600
# below this mass a coordinate is held fixed by the Newton phase unless it
# wants to grow, which lifts it; it always counts in the stationarity gap
_FREEZE_MASS = 1e-10
# a row carrying less than this much probability is re-profiled whole by the
# row rebalance instead of moving single coordinates to their crossings
_LIGHT_ROW = 1e-3


@dataclass(frozen=True)
class SolverSettings:
    max_iters: int = 5000
    grad_tol: float = 1e-8
    obj_tol: float = 1e-12
    step_init: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.grad_tol <= 0.0 or self.obj_tol < 0.0 or self.step_init <= 0.0:
            raise ValueError("tolerances and the initial step must be positive")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


DEFAULT_SETTINGS = SolverSettings()


@dataclass(frozen=True)
class BestResponseResult:
    policy: SenderPolicy
    cost: float
    iterations: int
    converged: bool
    stationarity_gap: float


@dataclass(frozen=True)
class EpsilonNashReport:
    member: bool
    sender_gap: float
    receiver_gap: float
    sender_stationarity_gap: float
    epsilon: float


def _prior_estimate(d: np.ndarray, px: np.ndarray) -> int:
    """Estimate minimizing prior expected distortion, lowest index on ties."""
    return int(np.argmin(d.T @ px))


def _posterior_decoder(d: np.ndarray, px: np.ndarray, jxy: np.ndarray) -> np.ndarray:
    """One-hot (estimate, message) decoder for the joint jxy = P{X, Y}.

    Each message column gets its posterior distortion minimizer, ties to the
    lowest estimate; a column with zero mass gets the prior-optimal estimate.
    """
    choice = np.argmin(d.T @ jxy, axis=0)
    dead = jxy.sum(axis=0) == 0.0
    if np.any(dead):
        choice = np.where(dead, _prior_estimate(d, px), choice)
    b = np.zeros((d.shape[1], jxy.shape[1]))
    b[choice, np.arange(jxy.shape[1])] = 1.0
    return b


def receiver_best_response(g: GameInstance, alpha: SenderPolicy) -> ReceiverPolicy:
    """Deterministic decoder: per-message posterior distortion minimizer.

    Messages with zero probability fall back to the prior-optimal estimate.
    Ties break to the lowest estimate index.
    """
    g.check_sender(alpha)
    jxy = _joint_xy(g.joint.p, alpha.a)
    return ReceiverPolicy(_posterior_decoder(g.distortion.d, g.joint.px, jxy))


def _linear_coeffs(g: GameInstance, beta: ReceiverPolicy) -> np.ndarray:
    """Coefficients of the distortion term as a linear functional of the encoder."""
    e = g.distortion.d @ beta.b
    return np.einsum("xy,xzw->yzw", e, g.joint.p)


def _leakage_parts(a: np.ndarray, pzw: np.ndarray, pw: np.ndarray):
    """Leakage value and per-(y, w) log-ratio for the current encoder.

    Treats the secret marginal as fixed, which is what makes the coordinate
    gradient of the leakage exact even off the simplex.
    """
    jyw = _joint_yw(pzw, a)
    py = jyw.sum(axis=1)
    valid = (pw[None, :] > 0.0) & (jyw > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        logratio = np.where(
            valid,
            np.log(jyw) - np.log(np.maximum(py, 1e-300))[:, None] - np.log(np.maximum(pw, 1e-300))[None, :],
            0.0,
        )
    zeta = float((jyw * logratio).sum()) if np.any(valid) else 0.0
    return zeta, logratio


def _sender_objective(c: np.ndarray, pzw: np.ndarray, pw: np.ndarray, rho: float, a: np.ndarray) -> float:
    zeta, _ = _leakage_parts(a, pzw, pw)
    return float((c * a).sum()) + rho * zeta


def _sender_gradient_raw(c: np.ndarray, pzw: np.ndarray, pw: np.ndarray, rho: float, a: np.ndarray) -> np.ndarray:
    _, logratio = _leakage_parts(a, pzw, pw)
    return c + rho * pzw[None, :, :] * logratio[:, None, :]


def sender_cost_gradient(g: GameInstance, alpha: SenderPolicy, beta: ReceiverPolicy) -> np.ndarray:
    """Coordinate gradient of the sender cost at an interior encoder.

    Entry (y, z, w) is the distortion coefficient plus rho times
    P{Z=z, W=w} log [ P{Y=y, W=w} / (P{Y=y} P{W=w}) ].
    """
    g.check_sender(alpha)
    g.check_receiver(beta)
    if np.any(alpha.a <= 0.0):
        raise ValueError("gradient requires a strictly positive (interior) encoder")
    c = _linear_coeffs(g, beta)
    return _sender_gradient_raw(c, g.joint.pzw, g.joint.pw, g.rho, alpha.a)


def _stationarity_gap(a: np.ndarray, grad: np.ndarray) -> float:
    """Worst simplex-block optimality gap of the linearized objective.

    Valid as a suboptimality certificate whenever the iterate is strictly
    positive, which the solver maintains throughout.
    """
    per_block = (a * grad).sum(axis=0) - grad.min(axis=0)
    return float(per_block.max())


def _coordinate_hessian(pzw: np.ndarray, rho: float, a: np.ndarray,
                        ys: np.ndarray, zs: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """Dense objective Hessian over the flattened encoder coordinates.

    Curvature comes only from the leakage term and couples coordinates that
    share a message; zero-probability measurement pairs contribute nothing.
    """
    jyw = _joint_yw(pzw, a)
    py = jyw.sum(axis=1)
    pz = pzw[zs, ws]
    jv = jyw[ys, ws]
    inv_j = np.where(jv > 0.0, 1.0 / np.where(jv > 0.0, jv, 1.0), 0.0)
    inv_p = 1.0 / py[ys]
    same_y = ys[:, None] == ys[None, :]
    same_w = ws[:, None] == ws[None, :]
    return rho * np.outer(pz, pz) * same_y * (same_w * inv_j[:, None] - inv_p[:, None])


def _cost_slack(cost: float) -> float:
    # the objective sums O(1) terms, so differences below a few ulps of one
    # are not measurable and must not fail an acceptance test
    return 1e-15 * max(1.0, abs(cost))


def _rescale_crossings(
    c: np.ndarray, pzw: np.ndarray, pw: np.ndarray, rho: float, a: np.ndarray,
    ys: np.ndarray, zs: np.ndarray, ws: np.ndarray, blocks: np.ndarray,
    lam_b: np.ndarray, coords: np.ndarray, cost: float,
):
    """Move coordinates directly to their stationary mass scale.

    A coordinate many orders of magnitude away from the mass where its
    gradient meets the block minimum either holds the gap open (too small)
    or forces boundary-pinned micro steps (too large), while its effect on
    the objective can sit below float resolution. Each move sets the
    coordinate to that crossing, clipped to [floor, 1/2], and rescales the
    rest of its block to stay normalized. The coordinate's gradient depends
    on its own mass only through P{Y=y, W=w} and P{Y=y}, both affine in it,
    so the crossing solves a linear equation; the floor end means the
    coordinate wants zero mass. Acceptance is on a no-worse cost basis
    rather than strict descent, which float resolution could never certify;
    a move that lands where the coordinate already sits does not count.
    """
    moved = False
    for i in coords:
        y, z, w = int(ys[i]), int(zs[i]), int(ws[i])
        p = pzw[z, w]
        if p <= 0.0 or pw[w] <= 0.0:
            continue
        jy = _joint_yw(pzw, a)[y]
        own = p * a[y, z, w]
        j0, p0 = jy[w] - own, jy.sum() - own
        # the crossing is where P{Y=y, W=w} / P{Y=y} reaches k, which no
        # mass does when k >= 1
        with np.errstate(over="ignore"):
            k = pw[w] * np.exp((float(lam_b[blocks[i]]) - c[y, z, w]) / (rho * p))
        if k >= 1.0:
            m = 0.5
        else:
            m = min(max((k * p0 - j0) / (p * (1.0 - k)), _MASS_FLOOR), 0.5)
        if abs(np.log(m) - np.log(max(a[y, z, w], _MASS_FLOOR))) < 1e-9:
            continue
        cand = a.copy()
        cand[:, z, w] *= (1.0 - m) / (1.0 - cand[y, z, w])
        cand[y, z, w] = m
        cand_cost = _sender_objective(c, pzw, pw, rho, cand)
        if cand_cost <= cost + _cost_slack(cost):
            a, cost, moved = cand, cand_cost, True
    return a, cost, moved


def _row_rebalance(
    c: np.ndarray, pzw: np.ndarray, pw: np.ndarray, rho: float, a: np.ndarray,
    y: int, cost: float, grad_tol: float,
):
    """Re-profile one message row to its stationary shape and scale.

    The leakage term is scale-invariant in a whole message row, so a row
    carrying little mass has its internal proportions decoupled from its
    size, and coordinate-at-a-time moves chase each other through the shared
    row marginal without settling. Against fixed block prices from the other
    rows, the row's cheapest profile routes each secret's mass through the
    measurement pair with the best price-to-coupling ratio and gives the
    cells shares proportional to pw * exp((price - distortion) / (rho *
    coupling)); the scale is then fixed by bisecting for the point where the
    best cell deficit vanishes, and a row priced above the blocks at every
    scale dies at its current token size. Accepted only if the cost is no
    worse. Returns (encoder, cost, moved).
    """
    if rho <= 0.0:
        return a, cost, False
    r, m, q = a.shape
    grad = _sender_gradient_raw(c, pzw, pw, rho, a)
    outside = a >= _FREEZE_MASS
    outside[y] = False
    lam_ex = np.where(outside, grad, np.inf).min(axis=0)
    cells = np.nonzero(pw > 0.0)[0]
    if cells.size == 0:
        return a, cost, False
    usable = (pzw > 0.0) & np.isfinite(lam_ex)
    with np.errstate(divide="ignore", invalid="ignore"):
        tmat = np.where(usable, (lam_ex - c[y]) / (rho * np.where(usable, pzw, 1.0)), -np.inf)
    tbest = tmat.max(axis=0)
    zstar = tmat.argmax(axis=0)
    if not np.all(np.isfinite(tbest[cells])):
        return a, cost, False
    shares = pw[cells] * np.exp(np.clip(tbest[cells], -700.0, 700.0))
    shares /= shares.sum()
    pzstar = pzw[zstar[cells], cells]

    def build(s: float) -> np.ndarray:
        cand = a.copy()
        for j, w in enumerate(cells):
            mass = min(max(s * shares[j] / pzstar[j], _MASS_FLOOR), 0.45)
            for z in range(m):
                mnew = mass if z == zstar[w] else _MASS_FLOOR
                cur = float(cand[y, z, w])
                if abs(np.log(max(cur, _MASS_FLOOR)) - np.log(mnew)) < 1e-12:
                    continue
                rest = 1.0 - cur
                if rest <= 1e-12:
                    # the row owns the whole column, so the complement has no
                    # proportions to preserve; fill it evenly
                    cand[:, z, w] = (1.0 - mnew) / (r - 1)
                else:
                    cand[:, z, w] *= (1.0 - mnew) / rest
                cand[y, z, w] = mnew
        return cand

    def deficit_at(s: float):
        cand = build(s)
        gc = _sender_gradient_raw(c, pzw, pw, rho, cand)
        hv = cand >= _FREEZE_MASS
        hv[y] = False
        lam2 = np.where(hv, gc, np.inf).min(axis=0)
        dvals = lam2[zstar[cells], cells] - gc[y, zstar[cells], cells]
        dvals = dvals[np.isfinite(dvals)]
        return (float(dvals.max()) if dvals.size else -np.inf), cand

    s_max = float(min(0.45, (0.45 * pzstar / shares).min()))
    py_cur = float((pzw * a[y]).sum())
    s_lo = float(min(max(py_cur, 1e-200), s_max))
    quarter = 0.25 * grad_tol
    dval, chosen = deficit_at(s_lo)
    if dval > quarter:
        dval, cand_hi = deficit_at(s_max)
        if dval > quarter:
            chosen = cand_hi
        else:
            lo, hi = np.log(s_lo), np.log(s_max)
            chosen = cand_hi
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                dval, cand_mid = deficit_at(float(np.exp(mid)))
                if dval > quarter:
                    lo = mid
                else:
                    hi = mid
                    chosen = cand_mid
    gap_before = np.log(np.maximum(a[y], _MASS_FLOOR))
    gap_after = np.log(np.maximum(chosen[y], _MASS_FLOOR))
    if float(np.abs(gap_after - gap_before).max()) < 1e-9:
        return a, cost, False
    new_cost = _sender_objective(c, pzw, pw, rho, chosen)
    if new_cost <= cost + _cost_slack(cost):
        return chosen, new_cost, True
    return a, cost, False


def _newton_polish(
    c: np.ndarray, pzw: np.ndarray, pw: np.ndarray, rho: float, a: np.ndarray,
    settings: SolverSettings, budget: int,
):
    """Active-set Newton refinement on the product of simplex blocks.

    Coordinates below the freeze mass are held fixed unless they want to
    grow, which lifts them (a light row by a whole-row rebalance); the rest
    take damped Newton steps constrained to conserve each block's mass, with
    a fraction-to-boundary rule keeping the iterate strictly positive. The
    stationarity gap is always measured over all coordinates, so freezing
    cannot fake convergence. Returns (encoder, cost, gap, iterations,
    converged) after at most min(_POLISH_ITERS, budget) iterations.
    """
    shape = a.shape
    ys, zs, ws = (ix.reshape(-1) for ix in np.indices(shape))
    blocks = zs * shape[2] + ws
    nblocks = shape[1] * shape[2]
    a = np.maximum(a, _MASS_FLOOR)
    a = a / a.sum(axis=0)[None, :, :]
    cost = _sender_objective(c, pzw, pw, rho, a)
    best = (np.inf, a, cost)
    lam = 1e-10
    it = 0
    def work_state(a):
        grad = _sender_gradient_raw(c, pzw, pw, rho, a)
        af = a.reshape(-1)
        gf = grad.reshape(-1)
        heavy = af >= _FREEZE_MASS
        lam_b = np.full(nblocks, np.inf)
        np.minimum.at(lam_b, blocks[heavy], gf[heavy])
        return grad, af, gf, heavy, lam_b

    for it in range(1, min(_POLISH_ITERS, budget) + 1):
        grad, af, gf, heavy, lam_b = work_state(a)
        gap = _stationarity_gap(a, grad)
        if gap <= settings.grad_tol:
            return a, cost, gap, it - 1, True
        if gap < best[0]:
            best = (gap, a, cost)

        deficit = lam_b[blocks] - gf
        growers = np.nonzero(~heavy & (deficit > 0.25 * settings.grad_tol))[0]
        lifted_here = False
        if growers.size:
            row_mass = (pzw[None, :, :] * a).sum(axis=(1, 2))
            light = row_mass[ys[growers]] < _LIGHT_ROW
            for yy in np.unique(ys[growers[light]]):
                a2, c2, moved = _row_rebalance(
                    c, pzw, pw, rho, a, int(yy), cost, settings.grad_tol
                )
                if moved:
                    a, cost, lifted_here = a2, c2, True
            if lifted_here:
                grad, af, gf, heavy, lam_b = work_state(a)
                deficit = lam_b[blocks] - gf
                growers = np.nonzero(~heavy & (deficit > 0.25 * settings.grad_tol))[0]
                row_mass = (pzw[None, :, :] * a).sum(axis=(1, 2))
                light = row_mass[ys[growers]] < _LIGHT_ROW
            growers = growers[~light]
            if growers.size:
                lifted, lcost, moved = _rescale_crossings(
                    c, pzw, pw, rho, a, ys, zs, ws, blocks, lam_b, growers, cost
                )
                if moved:
                    # fall through to the Newton step on the refreshed state,
                    # or lift churn between coupled coordinates can eat the
                    # budget
                    a, cost, lifted_here = lifted, lcost, True
                    grad, af, gf, heavy, lam_b = work_state(a)

        idx = np.nonzero(heavy)[0]
        n = idx.size
        hess = _coordinate_hessian(pzw, rho, a, ys[idx], zs[idx], ws[idx])
        present = np.unique(blocks[idx])
        arows = (blocks[idx][None, :] == present[:, None]).astype(float)
        kkt = np.zeros((n + present.size, n + present.size))
        kkt[:n, n:] = arows.T
        kkt[n:, :n] = arows
        rhs = np.concatenate([-gf[idx], np.zeros(present.size)])
        moved = False
        for _ in range(14):
            kkt[:n, :n] = hess + lam * np.eye(n)
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                lam *= 100.0
                continue
            d = sol[:n]
            slope = float(gf[idx] @ d)
            # an overlong direction means the damping has not yet tamed a
            # near-null curvature direction; trust only sane step lengths
            if not np.isfinite(slope) or slope >= 0.0 or float(np.abs(d).max()) > 2.0:
                lam *= 100.0
                continue
            neg = d < 0.0
            with np.errstate(over="ignore"):
                # a subnormal component overflows the ratio; inf is correct
                ratios = af[idx][neg] / -d[neg]
            tmax = float(ratios.min()) if np.any(neg) else np.inf
            t = min(1.0, 0.995 * tmax)
            for _ in range(30):
                cf = af.copy()
                cf[idx] += t * d
                cand = np.maximum(cf.reshape(shape), _MASS_FLOOR)
                cand /= cand.sum(axis=0)[None, :, :]
                cand_cost = _sender_objective(c, pzw, pw, rho, cand)
                if cand_cost <= cost + 1e-4 * t * slope + _cost_slack(cost):
                    # a step inside the slack that lowers nothing is no move,
                    # or a stuck phase would spend its whole budget on them
                    moved = cand_cost < cost
                    a, cost = cand, cand_cost
                    break
                t *= 0.5
            if tmax < 0.05:
                # a boundary-pinned step leaves the blocking coordinates
                # crawling toward the face a fixed fraction per iteration;
                # crossing them directly removes the pin, and doubles as the
                # rescue move when the step itself was rejected
                order = np.argsort(ratios)
                blockers = idx[neg][order[ratios[order] < 0.05]]
                row_mass = (pzw[None, :, :] * a).sum(axis=(1, 2))
                light = row_mass[ys[blockers]] < _LIGHT_ROW
                for yy in np.unique(ys[blockers[light]]):
                    a2, c2, rb = _row_rebalance(
                        c, pzw, pw, rho, a, int(yy), cost, settings.grad_tol
                    )
                    if rb:
                        a, cost, moved = a2, c2, True
                if blockers[~light].size:
                    dropped, dcost, rb = _rescale_crossings(
                        c, pzw, pw, rho, a, ys, zs, ws, blocks, lam_b,
                        blockers[~light], cost,
                    )
                    if rb:
                        a, cost, moved = dropped, dcost, True
            if moved:
                break
            lam *= 100.0
        if not moved and not lifted_here:
            break
        lam = max(lam * 0.25, 1e-12)

    grad = _sender_gradient_raw(c, pzw, pw, rho, a)
    gap = _stationarity_gap(a, grad)
    if best[0] < gap:
        gap, a, cost = best
    return a, cost, gap, it, gap <= settings.grad_tol


def _mirror_phase(
    c: np.ndarray, pzw: np.ndarray, pw: np.ndarray, rho: float, a: np.ndarray,
    cost: float, settings: SolverSettings, budget: int, handoff: float,
):
    """Multiplicative-weights segment with Armijo backtracking.

    Runs until the gap tolerance, the handoff threshold, a stall, or the
    budget, and reports the best certified iterate seen. Returns
    (a, cost, gap, used, converged).
    """
    step = settings.step_init
    best = (np.inf, a, cost)
    anchor = np.inf
    stalled = 0
    used = 0
    for used in range(1, budget + 1):
        grad = _sender_gradient_raw(c, pzw, pw, rho, a)
        gap = _stationarity_gap(a, grad)
        if gap < best[0]:
            best = (gap, a, cost)
        if gap <= settings.grad_tol:
            return a, cost, gap, used - 1, True
        if gap <= handoff:
            return a, cost, gap, used - 1, False
        if gap < 0.97 * anchor:
            anchor = gap
            stalled = 0

        shifted = grad - grad.min(axis=0)[None, :, :]
        new_a = a
        new_cost = cost
        while True:
            cand = np.maximum(a * np.exp(-step * shifted), _MASS_FLOOR)
            cand /= cand.sum(axis=0)[None, :, :]
            cand_cost = _sender_objective(c, pzw, pw, rho, cand)
            predicted = float((grad * (a - cand)).sum())
            if cand_cost <= cost - 1e-4 * predicted:
                new_a, new_cost = cand, cand_cost
                break
            step *= 0.5
            if step < _TINY_STEP:
                break
        if step < _TINY_STEP:
            break
        rel_drop = (cost - new_cost) / max(1.0, abs(cost))
        a, cost = new_a, new_cost
        step = min(step * _STEP_GROWTH, _MAX_STEP)
        # objective progress routinely drops below measurable resolution while
        # the stationarity certificate is still improving, so stagnation only
        # counts when the certificate has flatlined too
        stalled = stalled + 1 if rel_drop <= settings.obj_tol else 0
        if stalled >= _STALL_PATIENCE:
            break

    grad = _sender_gradient_raw(c, pzw, pw, rho, a)
    gap = _stationarity_gap(a, grad)
    if best[0] < gap:
        gap, a, cost = best
    return a, cost, gap, used, gap <= settings.grad_tol


def _minimize_over_blocks(
    c: np.ndarray, pzw: np.ndarray, pw: np.ndarray, rho: float, settings: SolverSettings
):
    """Minimize (c . a) + rho * leakage over the product of message simplices.

    Alternates a multiplicative-weights phase that shapes the support with
    an active-set Newton phase that closes the stationarity gap, keeping the
    best certified iterate across rounds. Returns
    (a, cost, iterations, converged, gap).
    """
    r = c.shape[0]
    a = np.full_like(c, 1.0 / r)
    cost = _sender_objective(c, pzw, pw, rho, a)
    if r == 1:
        return a, cost, 0, True, 0.0
    if rho == 0.0:
        # no leakage term: each block independently loads its cheapest message
        a = np.zeros_like(c)
        rows = np.argmin(c, axis=0)
        mi, qi = np.indices(rows.shape)
        a[rows, mi, qi] = 1.0
        return a, float((c * a).sum()), 0, True, 0.0

    polish_ok = a.size <= _POLISH_MAX_VARS
    best = (np.inf, a, cost)
    spent = 0
    while spent < settings.max_iters:
        round_entry = best[0]
        budget = settings.max_iters - spent
        if polish_ok:
            # after a stalled Newton phase, re-shape the support until the
            # certificate is well below the best so far
            budget = min(_PHASE_ONE_CAP, budget)
            handoff = min(_POLISH_AT, 0.03 * best[0])
        else:
            handoff = 0.0
        a, cost, gap, used, conv = _mirror_phase(
            c, pzw, pw, rho, a, cost, settings, budget, handoff
        )
        spent += used
        if gap < best[0]:
            best = (gap, a, cost)
        if conv:
            return a, cost, spent, True, gap
        if not polish_ok or spent >= settings.max_iters:
            break
        a, cost, gap, used, conv = _newton_polish(
            c, pzw, pw, rho, a, settings, settings.max_iters - spent
        )
        spent += used
        if gap < best[0]:
            best = (gap, a, cost)
        if conv:
            return a, cost, spent, True, gap
        # neither phase moved the certificate much: stuck, stop honestly
        if best[0] > 0.9 * round_entry:
            break
    gap, a, cost = best
    return a, cost, spent, gap <= settings.grad_tol, gap


def sender_best_response(
    g: GameInstance, beta: ReceiverPolicy, settings: SolverSettings = DEFAULT_SETTINGS
) -> BestResponseResult:
    """Approximate sender best response against a fixed decoder."""
    g.check_receiver(beta)
    c = _linear_coeffs(g, beta)
    a, cost, iterations, converged, gap = _minimize_over_blocks(
        c, g.joint.pzw, g.joint.pw, g.rho, settings
    )
    return BestResponseResult(SenderPolicy(a), cost, iterations, converged, gap)


def babbling_equilibrium(g: GameInstance) -> tuple[SenderPolicy, ReceiverPolicy]:
    """Uninformative equilibrium: uniform encoder, constant prior-optimal decoder."""
    alpha = SenderPolicy.uniform(g.y_space.size, g.x_space.size, g.w_space.size)
    beta = ReceiverPolicy.constant(
        _prior_estimate(g.distortion.d, g.joint.px), g.x_space.size, g.y_space.size
    )
    return alpha, beta


def _identity_best_response(
    g: GameInstance, settings: SolverSettings
) -> tuple[BestResponseResult, ReceiverPolicy]:
    """Sender best response to the identity decoder, and that decoder."""
    if g.y_space.size != g.x_space.size:
        raise ValueError("explicit construction needs message alphabet = state alphabet")
    beta = ReceiverPolicy.identity(g.x_space.size)
    return sender_best_response(g, beta, settings), beta


def explicit_equilibrium(
    g: GameInstance, settings: SolverSettings = DEFAULT_SETTINGS
) -> tuple[SenderPolicy, ReceiverPolicy]:
    """Equilibrium built from the identity decoder.

    Requires the message alphabet to equal the state alphabet. The sender
    best-responds to the identity decoder; data processing makes the identity
    decoder optimal in return.
    """
    br, beta = _identity_best_response(g, settings)
    return br.policy, beta


def _nash_report(
    g: GameInstance, alpha: SenderPolicy, beta: ReceiverPolicy, epsilon: float, br: BestResponseResult
) -> EpsilonNashReport:
    """Both players' improvement gaps, the sender's against br, a best response to beta."""
    receiver_gap = receiver_cost(g, alpha, beta) - receiver_cost(
        g, alpha, receiver_best_response(g, alpha)
    )
    sender_gap = sender_cost(g, alpha, beta) - br.cost
    member = (sender_gap <= epsilon) and (receiver_gap <= epsilon)
    return EpsilonNashReport(member, sender_gap, receiver_gap, br.stationarity_gap, epsilon)


def epsilon_nash_check(
    g: GameInstance,
    alpha: SenderPolicy,
    beta: ReceiverPolicy,
    epsilon: float,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> EpsilonNashReport:
    """Measure both players' improvement gaps at a strategy pair.

    The receiver gap is exact; the sender gap is relative to the iterative
    best response, so it is meaningful down to the solver's stationarity gap.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    return _nash_report(g, alpha, beta, epsilon, sender_best_response(g, beta, settings))
