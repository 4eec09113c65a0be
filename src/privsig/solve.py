"""Best responses and equilibrium constructions.

The receiver's best response is exact (per-message posterior minimization).
The sender's best response minimizes a convex objective over a product of
message simplices, one per (measurement, secret) pair: exponentiated
gradient steps shape the support and an active-set Newton phase closes the
gap, its steps solved in each secret's mass-conserving coordinates, where the
leakage curvature has rank |Y| at most. Every problem size runs the same
rounds: the mirror phase hands off at a largest block gap of _POLISH_AT, or
as soon as a gap below _CRAWL_AT stops halving within _STALL_PATIENCE
iterations, a rule on the iterates' progress alone; the Newton phase then
finds the active set itself, cutting shrinking coordinates at the floor and
lifting growers to their crossings, each set of them in one evaluated batch.
The certificate is the sum of the simplex-block gaps (_block_gaps), which by
convexity bounds the cost above the optimum; it sets converged and the
reported gap. The largest block gap only measures the phases' progress.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import _check_settings
from .game import (
    GameInstance,
    ReceiverPolicy,
    SenderPolicy,
    _joint_xy,
    _joint_yw,
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
# hand off to the Newton phase once multiplicative steps are this close, or
# once they crawl below _CRAWL_AT: a gap that has not halved in
# _STALL_PATIENCE iterations. On small problems the mirror phase otherwise
# spends most of a solve creeping from 1e-3 to 1e-5 (the 200 seed-7 games
# against stochastic decoders in tests/test_solver.py: 69,769 iterations in
# all, 18,958 with the crawl hand-off)
_POLISH_AT = 1e-5
_CRAWL_AT = 1e-3
_POLISH_ITERS = 100
_PHASE_ONE_CAP = 600
# entries of W one batched QR takes at most (_active_set_basis), so that W
# and LAPACK's copy of it stay small beside Q
_QR_BATCH = 1 << 14
# below this mass a coordinate is held fixed by the Newton phase unless it
# wants to grow, which lifts it; it always counts in the stationarity gap
_FREEZE_MASS = 1e-10
# a Newton direction longer than this in any coordinate means the damping
# has not yet tamed a near-null curvature direction; only shorter ones are
# trusted
_NEWTON_MAX_LEN = 2.0
# a row carrying less than this much probability is re-profiled whole by the
# row rebalance instead of joining the batch lift of single coordinates
_LIGHT_ROW = 1e-3


@dataclass(frozen=True)
class SolverSettings:
    """Iteration budget and tolerances of the sender best response.

    seed has no effect: the solver is deterministic and draws no random
    numbers. It is validated and kept so that schema_version 1 configs,
    which carry solver.seed, load and round-trip unchanged.
    """

    max_iters: int = 5000
    grad_tol: float = 1e-8
    obj_tol: float = 1e-12
    step_init: float = 1.0
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails each comparison
        _check_settings("solver", self, ("grad_tol", "obj_tol", "step_init"), [
            ("max_iters", self.max_iters >= 1, "must be positive"),
            ("grad_tol", self.grad_tol > 0.0, "must be positive"),
            ("obj_tol", self.obj_tol >= 0.0, "must be nonnegative"),
            ("step_init", self.step_init > 0.0, "must be positive"),
            ("seed", self.seed >= 0, "must be nonnegative"),
        ])


DEFAULT_SETTINGS = SolverSettings()


@dataclass(frozen=True)
class BestResponseResult:
    """stationarity_gap, the summed block gap at policy, bounds cost above
    the optimum; converged means it meets grad_tol."""

    policy: SenderPolicy
    cost: float
    iterations: int
    converged: bool
    stationarity_gap: float


@dataclass(frozen=True)
class EpsilonNashReport:
    """sender_gap is exact up to its best response's summed block gap."""

    member: bool
    sender_gap: float
    receiver_gap: float
    sender_stationarity_gap: float
    epsilon: float


def _check_epsilon(epsilon: float) -> None:
    """Reject an epsilon that no improvement threshold can use."""
    # written so that NaN fails the comparison
    if not 0.0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")


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


def _log_floored(x: np.ndarray) -> np.ndarray:
    """log x, with x clamped at _MASS_FLOOR so that no log of zero is taken."""
    return np.log(np.maximum(x, _MASS_FLOOR))


def _leakage_parts(a: np.ndarray, pzw: np.ndarray, log_pw: np.ndarray):
    """Leakage value and per-(y, w) log-ratio for the current encoder.

    log_pw is _log_floored(P{W}), fixed for a whole solve, with P{W} the
    secret marginal of pzw, so a secret of probability zero leaves its
    (y, w) cells without mass. Treats the secret marginal as fixed, which is
    what makes the coordinate gradient of the leakage exact even off the
    simplex.
    """
    jyw = _joint_yw(pzw, a)
    log_py = _log_floored(jyw.sum(axis=1))[:, None]
    if jyw.all():
        logratio = np.log(jyw) - log_py - log_pw
    else:
        # log 1 stands in where the ratio goes unused, so no log of zero is
        # taken
        valid = jyw > 0.0
        logratio = np.where(valid, np.log(np.where(valid, jyw, 1.0)) - log_py - log_pw, 0.0)
    return float((jyw * logratio).sum()), logratio


def _objective_parts(c: np.ndarray, pzw: np.ndarray, log_pw: np.ndarray, rho: float, a: np.ndarray):
    """Objective value at a, and a's log-ratio, which gives its gradient."""
    zeta, logratio = _leakage_parts(a, pzw, log_pw)
    return float((c * a).sum()) + rho * zeta, logratio


def _gradient(c: np.ndarray, rho_pzw: np.ndarray, logratio: np.ndarray) -> np.ndarray:
    """Objective gradient from an encoder's log-ratio; rho_pzw is rho * P{Z, W}."""
    return c + rho_pzw * logratio[:, None, :]


def sender_cost_gradient(g: GameInstance, alpha: SenderPolicy, beta: ReceiverPolicy) -> np.ndarray:
    """Coordinate gradient of the sender cost at an interior encoder.

    Entry (y, z, w) is the distortion coefficient plus rho times
    P{Z=z, W=w} log [ P{Y=y, W=w} / (P{Y=y} P{W=w}) ]. At rho = 0 it is the
    distortion coefficients alone, defined on the boundary too, so any
    encoder is accepted there.
    """
    g.check_sender(alpha)
    g.check_receiver(beta)
    if g.rho != 0.0 and np.any(alpha.a <= 0.0):
        raise ValueError("gradient requires a strictly positive (interior) encoder")
    pzw = g.joint.pzw
    _, logratio = _leakage_parts(alpha.a, pzw, _log_floored(g.joint.pw))
    return _gradient(_linear_coeffs(g, beta), g.rho * pzw, logratio)


def _block_gaps(a: np.ndarray, grad: np.ndarray, low: np.ndarray | None = None) -> np.ndarray:
    """Each (z, w) block's optimality gap of the linearized objective.

    low is grad's minimum over each block, computed here unless the caller
    has it at hand. By convexity the sum of the gaps, the Frank-Wolfe
    duality gap, bounds the cost of a above the optimum: the solver's
    certificate. The largest gap alone bounds nothing, and the solver reads
    it only as a progress measure. Valid whenever a is strictly positive,
    which every iterate is, or rho is 0.
    """
    return (a * grad).sum(axis=0) - (grad.min(axis=0) if low is None else low)


def _helmert_rows(heavy: np.ndarray):
    """Each block's Helmert rows, one per heavy coordinate after the first.

    Block (z, w) with k heavy messages gets k - 1 rows, an orthonormal basis
    of the moves of its heavy coordinates that keep its mass. The row that
    ends at the heavy message of place p (counting from 1 in message order)
    reads 1 on each earlier heavy message and 1 - p on its own, over its
    length sqrt(p (p - 1)). Returns (place, length), both (|Y|, |X|, |W|):
    place is 0 on a frozen coordinate, and length is inf where no row ends.
    """
    place = np.cumsum(heavy, axis=0) * heavy
    return place, np.where(place >= 2, np.sqrt(place * (place - 1.0)), np.inf)


class _ActiveSetBasis(NamedTuple):
    """One active set's Newton coordinates (_active_set_basis)."""

    heavy: np.ndarray  # the active set it was built for
    r: np.ndarray  # (|W|, k, |Y|)
    # where no QR was needed, the rows as coordinate moves (|Y| |X|, |W|, 1,
    # k); otherwise None
    moves: np.ndarray | None
    # where a QR was needed: _helmert_rows of heavy and each secret's padded
    # rows as (message, measurement) pairs in its order, Q (|W|, size, |Y|),
    # the secrets with more loaded rows than |Y|, and each secret's heavy
    # coordinate count; otherwise None
    rows: tuple | None
    q: np.ndarray | None
    crowded: np.ndarray | None
    count: np.ndarray | None


def _from_rows(rows: np.ndarray, basis: _ActiveSetBasis) -> np.ndarray:
    """The coordinate move N^T u of weights u on the Helmert rows N.

    rows is (|W|, size): each secret's row weights in its own order
    (_active_set_basis). Returns (|Y|, |X|, |W|), 0 on frozen coordinates.
    """
    place, length, ys, zs = basis.rows
    us = np.zeros(place.shape)
    us[ys, zs, np.arange(place.shape[2])[:, None]] = rows
    us /= length
    # on the heavy message of place p: the weights of the rows ending at
    # later messages, plus 1 - p times that of the row ending at it
    later = np.cumsum(us[::-1], axis=0)[::-1]
    return np.where(place > 0, later - place * us, 0.0)


def _active_set_basis(pzw: np.ndarray, heavy: np.ndarray) -> _ActiveSetBasis:
    """Orthonormal coordinates of each secret's mass-conserving moves.

    In a block's Helmert rows N (_helmert_rows) message y's load p_y
    (P{Z=., W=w} on row y) becomes column y of W, so the projected leakage
    Hessian is W K W^T with K diagonal: rank |Y| at most, whatever the block
    count. Where a secret has more rows than |Y|, W = Q R by a thin QR,
    batched over the secrets; elsewhere Q is the identity and R is W. Each
    secret lists its rows with a load first, then those of zero-probability
    cells, then zero padding up to the largest count, so that no Householder
    step pivots on a zero row while a loaded one is left. W is built from
    the Helmert formula and factored a batch of secrets at a time. The
    basis keeps Q, whose moves N^T Q v are applied as N^T (Q v) (_from_rows),
    or, with no QR, the rows themselves as moves, which is cheaper for small
    problems; either holds at most |Y|^2 |X| |W| entries. Depends only on
    heavy and P{Z, W}, so the Newton phase rebuilds it only when the active
    set changes.
    """
    r, m, nq = heavy.shape
    place, length = _helmert_rows(heavy)
    real = place >= 2
    size = max(1, int(real.sum(axis=(0, 1)).max()))
    # a secret's rows in (measurement, message) order
    rank = np.where(real, pzw == 0.0, 2).transpose(2, 1, 0).reshape(nq, -1)
    order = np.argsort(rank, axis=1, kind="stable")[:, :size]
    zs, ys = np.divmod(order, r)
    w_col = np.arange(nq)[:, None]
    # row (z, y): 1 on each earlier heavy message of its block and 1 - place
    # on y, over its length; its loads are these times P{z, w}
    unit = 1.0 / length[ys, zs, w_col]
    own = (1.0 - place[ys, zs, w_col]) * unit
    blocks = np.ascontiguousarray(heavy.transpose(2, 1, 0))
    k = min(size, r)
    r_mat = np.empty((nq, k, r))
    q_mat = np.empty((nq, size, k)) if size > r else None
    moves = np.zeros((r, m, nq, k)) if size <= r else None
    # a batch of secrets at a time, so that W and the QR's own copy of it
    # hold at most about _QR_BATCH entries
    step = max(1, _QR_BATCH // (size * r))
    for w0 in range(0, nq, step):
        zc, yc, wc = zs[w0:w0 + step], ys[w0:w0 + step], w_col[w0:w0 + step]
        row = (blocks[wc, zc] & (np.arange(r) < yc[..., None])) * unit[w0:w0 + step, :, None]
        row[np.arange(len(wc))[:, None], np.arange(size), yc] = own[w0:w0 + step]
        load = row * pzw[zc, wc][..., None]
        if q_mat is not None:
            q_mat[w0:w0 + step], r_mat[w0:w0 + step] = np.linalg.qr(load)
        else:
            r_mat[w0:w0 + step] = load
            moves[:, zc, wc, np.arange(size)] = row.transpose(2, 0, 1)
    if q_mat is None:
        return _ActiveSetBasis(heavy, r_mat, moves.reshape(r * m, nq, 1, k), None, None, None, None)
    return _ActiveSetBasis(
        heavy, r_mat, None, (place, length, ys, zs), q_mat, (rank == 0).sum(axis=1) > r,
        heavy.sum(axis=(0, 1)),
    )


def _newton_direction(
    pzw: np.ndarray, rho: float, a: np.ndarray, heavy: np.ndarray, grad: np.ndarray,
    basis: _ActiveSetBasis | None = None,
):
    """Damped Newton direction on the heavy coordinates, in the active set's basis.

    The leakage Hessian couples coordinates sharing a message y: within a
    secret w by rho p_y p_y^T / P{Y=y, W=w}, across secrets by
    -rho s s^T / P{Y=y}, s = P{Z, W}, a load on the message total s . d.
    In a secret's Helmert rows N (_active_set_basis, built here unless
    given) [lam I + H, A^T; A, 0] [d; nu] = [-grad; 0] reads
    (lam I + W K W^T) u = b plus the totals' loads. With W = Q R, Q^T b and
    each load (Q^T W = R) take one k x k system per secret, k <= |Y|, and
    one |Y| x |Y| system fixes the message totals: two small solves per
    damping value. Only the curvature-free part (I - Q Q^T) b / lam divides
    by lam. It is taken only in secrets with more rows than |Y|, and there
    only past the first |Y| rows unless more than |Y| rows carry a load:
    anywhere else it is rounding residue, which a tiny lam would magnify.
    Frozen coordinates get no direction. Returns direction(lam, limit=inf)
    over the flat encoder; it is None, without a solve, when the
    curvature-free part alone makes |d|inf exceed limit.
    """
    basis = basis or _active_set_basis(pzw, heavy)
    r, m, nq = a.shape
    jyw = _joint_yw(pzw, a)
    q = basis.q
    free, reach = None, 0.0
    if q is None:
        # b = N (-grad), as the moves are N^T
        qb = -(basis.moves[:, :, 0].transpose(1, 2, 0) @ grad.reshape(r * m, nq).T[..., None])
    else:
        # b = N (-grad), a secret's rows in its order, and Q^T b
        place, length, ys, zs = basis.rows
        b = ((place * grad - np.cumsum(grad * heavy, axis=0)) / length)[ys, zs, np.arange(nq)[:, None]]
        qb = q.transpose(0, 2, 1) @ b[..., None]
        # (I - Q Q^T) b. Where a secret has at most |Y| loaded rows, Q spans
        # its first |Y| rows and none of the rest, so the part is 0 and b
        # there; only a secret with more loaded rows keeps the subtraction's
        # rounding residue
        rest = b - (q @ qb)[..., 0]
        rest[~basis.crowded, :r] = 0.0
        # over a secret's n heavy coordinates |d|inf >= |d|2 / sqrt(n), and
        # |d|2 >= |rest|2 / lam
        reach = float(np.sqrt((rest * rest).sum(axis=1) / np.maximum(basis.count, 1)).max())
        free = _from_rows(rest, basis).reshape(-1)
    # columns: b's part in Q, then each message's load
    r_mat = basis.r
    rhs = np.concatenate([qb, r_mat * (rho / jyw.sum(axis=1))], axis=2)
    inv_j = rho / np.where(jyw > 0.0, jyw, np.inf)
    curv = (r_mat * inv_j.T[:, None, :]) @ r_mat.transpose(0, 2, 1)
    diag = curv.reshape(nq, -1)[:, ::curv.shape[1] + 1]
    top = diag.copy()
    flat_r, ident = r_mat.reshape(-1, r).T, np.eye(r)
    # [1; t]: the right-hand side's solution enters whole, each load's by
    # its message total
    coef = np.ones(r + 1)

    def direction(lam: float, limit: float = np.inf) -> np.ndarray | None:
        if reach > limit * lam:
            return None
        np.add(top, lam, out=diag)
        x = np.linalg.solve(curv, rhs)
        # row y: message y's totals of the column solutions, so the totals
        # solve t = tmat[:, 0] + tmat[:, 1:] t
        tmat = flat_r @ x.reshape(-1, r + 1)
        coef[1:] = np.linalg.solve(ident - tmat[:, 1:], tmat[:, 0])
        u = (x @ coef)[..., None]
        if q is None:
            return (basis.moves @ u).reshape(-1)
        return _from_rows((q @ u)[..., 0], basis).reshape(-1) + free / lam

    return direction


def _cost_slack(cost: float, rho: float) -> float:
    # the objective sums terms up to rho in size, so differences below a few
    # ulps of their scale are rounding and must not fail an acceptance test
    return 1e-15 * max(1.0, abs(cost) + rho)


def _row_rebalance(
    c: np.ndarray, pzw: np.ndarray, pw: np.ndarray, rho: float, a: np.ndarray,
    cost: float, logratio: np.ndarray, grad: np.ndarray, y: int, grad_tol: float,
    refused: set | None = None,
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
    scale dies at its current token size. Starts from a with its cost,
    log-ratio (_objective_parts) and gradient, and evaluates each candidate
    scale once. Accepted only if the cost is no worse. A rebalance depends
    only on its row and a, so refused, when given, holds the rows refused
    at a: a row in it returns unmoved at once, and a refused row joins it.
    Returns (encoder, cost, log-ratio, moved).
    """
    if refused is not None and y in refused:
        return a, cost, logratio, False
    r, m, q = a.shape
    log_pw, rho_pzw = _log_floored(pw), rho * pzw
    outside = a >= _FREEZE_MASS
    outside[y] = False
    lam_ex = np.where(outside, grad, np.inf).min(axis=0)
    cells = np.nonzero(pw > 0.0)[0]
    usable = (pzw > 0.0) & np.isfinite(lam_ex)
    # a subnormal rho overflows the ratio; the isfinite test below then
    # returns a unmoved
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        tmat = np.where(usable, (lam_ex - c[y]) / (rho * np.where(usable, pzw, 1.0)), -np.inf)
    tbest = tmat.max(axis=0)
    zstar = tmat.argmax(axis=0)
    if not np.all(np.isfinite(tbest[cells])):
        return a, cost, logratio, False
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
        # a scale that moves nothing keeps a's own evaluation
        if np.array_equal(cand, a):
            cand_cost, cand_ratio = cost, logratio
        else:
            cand_cost, cand_ratio = _objective_parts(c, pzw, log_pw, rho, cand)
        gc = _gradient(c, rho_pzw, cand_ratio)
        hv = cand >= _FREEZE_MASS
        hv[y] = False
        lam2 = np.where(hv, gc, np.inf).min(axis=0)
        dvals = lam2[zstar[cells], cells] - gc[y, zstar[cells], cells]
        dvals = dvals[np.isfinite(dvals)]
        return (float(dvals.max()) if dvals.size else -np.inf), (cand, cand_cost, cand_ratio)

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
    new_a, new_cost, new_ratio = chosen
    gap_before = np.log(np.maximum(a[y], _MASS_FLOOR))
    gap_after = np.log(np.maximum(new_a[y], _MASS_FLOOR))
    if float(np.abs(gap_after - gap_before).max()) >= 1e-9 and new_cost <= cost + _cost_slack(cost, rho):
        return new_a, new_cost, new_ratio, True
    if refused is not None:
        refused.add(y)
    return a, cost, logratio, False


def _batch_lift(
    c: np.ndarray, pzw: np.ndarray, pw: np.ndarray, rho: float, a: np.ndarray,
    cost: float, logratio: np.ndarray, grad: np.ndarray, coords: np.ndarray,
    refused: set | None = None,
):
    """Move the coordinates coords (flat indices) toward their stationary mass at once.

    Against the block minima over heavy coordinates, a coordinate whose
    gradient lies above its block's minimum wants to shrink and is cut at
    the floor; one whose gradient lies below it grows to its crossing, the
    mass where the two meet. The gradient depends on the coordinate's own
    mass only through P{Y=y, W=w} and P{Y=y}, both affine in it, so the
    crossing solves a linear equation in a's (y, w) joint; it is clipped to
    [floor, 1/2], and a coordinate already at its target stays. Each move
    rescales the rest of its block to keep its mass. The batch is evaluated
    once and kept only if it lowers the cost.

    A cut can overshoot, and in a heavy row a grower's gradient moves slowly
    with its mass, so its crossing lies far out and the rest of the block,
    rescaled to make room, can price the move above its start. Then each
    coordinate takes a Newton step along its move instead: setting
    a[y, z, w] = x and rescaling the rest of its block is a line v in the
    block's column, with slope grad . v and curvature rho P{z, w}^2
    sum_y' v_y'^2 (1 / P{Y=y', W=w} - 1 / P{Y=y'}). Coordinates that share a
    (y, w) cell all shift P{Y=y, W=w}, so each takes an equal share of its
    step; a grower stops at mass 1/2 and a shrinking coordinate at the
    floor. This batch too is evaluated once and kept only if it lowers the
    cost. A batch is its coordinates and their target masses, and none is
    evaluated twice at a: refused, when given, holds the batches refused
    there, from this call or from another coordinate list, and a refused
    batch joins it. Starts from a with its cost, log-ratio (_objective_parts)
    and gradient. Returns (encoder, cost, log-ratio, moved).
    """
    ys, zs, ws = np.unravel_index(coords, a.shape)
    p, cur = pzw[zs, ws], a[ys, zs, ws]
    jyw = _joint_yw(pzw, a)
    py = jyw.sum(axis=1)
    lam_b = np.where(a >= _FREEZE_MASS, grad, np.inf).min(axis=0)[zs, ws]
    # a zero-probability cell moves nothing; as P{W=w} >= P{z, w}, this also
    # leaves out every secret of probability zero
    shrink = (p > 0.0) & (grad[ys, zs, ws] > lam_b)
    grow = (p > 0.0) & (grad[ys, zs, ws] < lam_b)
    own = p * cur
    j0, p0 = jyw[ys, ws] - own, py[ys] - own
    # a subnormal rho overflows the exponent; the crossing is then 1/2, the
    # floor or NaN, which moves nothing
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # the crossing is where P{Y=y, W=w} / P{Y=y} reaches k, which no mass
        # does when k >= 1
        k = pw[ws] * np.exp((lam_b - c[ys, zs, ws]) / (rho * p))
        cross = np.where(k >= 1.0, 0.5, np.clip((k * p0 - j0) / (p * (1.0 - k)), _MASS_FLOOR, 0.5))
        mass = np.where(shrink, _MASS_FLOOR, cross)
        first = (shrink | grow) & (np.abs(np.log(mass) - np.log(np.maximum(cur, _MASS_FLOOR))) >= 1e-9)

    refused = set() if refused is None else refused

    def attempt(sel, x):
        # a batch is its coordinates and their target masses, whichever
        # coordinate list it came from
        key = (coords[sel].tobytes(), x[sel].tobytes())
        if not sel.any() or key in refused:
            return None
        y, z, w, cy = ys[sel], zs[sel], ws[sel], cur[sel]
        cand = a.copy()
        # a lone move in its block ends at mass x once the block is
        # renormalized
        cand[y, z, w] = x[sel] * (1.0 - cy) / (1.0 - x[sel])
        # each moved block once: a column per coordinate would take |Y|
        # times the coordinate count
        moved = np.zeros(pzw.shape, dtype=bool)
        moved[z, w] = True
        cand /= np.where(moved, cand.sum(axis=0), 1.0)
        cand_cost, cand_ratio = _objective_parts(c, pzw, _log_floored(pw), rho, cand)
        if cand_cost < cost:
            return cand, cand_cost, cand_ratio, True
        refused.add(key)
        return None

    out = attempt(first, mass)
    if out is None:
        v = a[:, zs, ws] / (cur - 1.0)
        v[ys, np.arange(ys.size)] = 1.0
        slope = (grad[:, zs, ws] * v).sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            curv = rho * p * p * (v * v * (1.0 / jyw[:, ws] - 1.0 / py[:, None])).sum(axis=0)
            again = np.where(grow, slope < 0.0, shrink & (slope > 0.0)) & (0.0 < curv) & (curv < np.inf)
            cell = np.where(again, ys * pw.size + ws, -1)
            _, at, count = np.unique(cell, return_inverse=True, return_counts=True)
            x = cur - slope / (curv * count[at])
        x = np.where(grow, np.minimum(x, 0.5), np.maximum(x, _MASS_FLOOR))
        out = attempt(again, x)
    return out or (a, cost, logratio, False)


def _newton_polish(
    c: np.ndarray, pzw: np.ndarray, pw: np.ndarray, rho: float, a: np.ndarray,
    cost: float, logratio: np.ndarray, settings: SolverSettings, budget: int,
):
    """Active-set Newton refinement on the product of simplex blocks.

    Starts from a, strictly positive like every iterate the solver makes,
    with its cost and log-ratio (_objective_parts). Coordinates
    below the freeze mass are held fixed unless they want to grow, which
    lifts them (a light row by a whole-row rebalance, the others in one
    batch, _batch_lift); the rest take damped Newton steps constrained to
    conserve each block's mass.
    A step that overshoots is first tried whole, with the shrinking
    coordinates it overshoots cut at the floor; otherwise a
    fraction-to-boundary rule keeps the iterate strictly positive. The
    block gaps are always measured over all coordinates, so freezing
    cannot fake convergence, and the phase stops once their sum meets
    grad_tol. Returns (encoder, cost, log-ratio, largest block gap,
    iterations, converged) after at most min(_POLISH_ITERS, budget)
    iterations; converged means the encoder's summed gap meets grad_tol.
    """
    shape = a.shape
    log_pw, rho_pzw = _log_floored(pw), rho * pzw
    best = (np.inf, a, cost, logratio)
    lam = 1e-10
    basis = None

    def trial(flat):
        cand = np.maximum(flat.reshape(shape), _MASS_FLOOR)
        cand /= cand.sum(axis=0)[None, :, :]
        return (cand, *_objective_parts(c, pzw, log_pw, rho, cand))

    refused = (None, set())  # an iterate, and the lifts refused at it

    def lift(a, cost, logratio, grad, coords):
        # moves coords (flat indices) toward their stationary mass: a message
        # row carrying less than _LIGHT_ROW is re-profiled whole, the other
        # coordinates move as one batch. The blockers a step leaves behind
        # are often the next iteration's growers, so each move remembers what
        # was refused at the iterate and does not try it there again
        nonlocal refused
        rows = coords // (shape[1] * shape[2])
        light = (pzw * a).sum(axis=(1, 2))[rows] < _LIGHT_ROW
        moves = [(_row_rebalance, (y, settings.grad_tol)) for y in np.unique(rows[light]).tolist()]
        if not light.all():
            moves.append((_batch_lift, (coords[~light],)))
        lifted = False
        for move, args in moves:
            if refused[0] is not a:
                refused = (a, set())
            a, cost, logratio, moved = move(c, pzw, pw, rho, a, cost, logratio, grad, *args, refused[1])
            if moved:
                grad, lifted = _gradient(c, rho_pzw, logratio), True
        return a, cost, logratio, lifted

    it = 0
    for it in range(1, min(_POLISH_ITERS, budget) + 1):
        grad = _gradient(c, rho_pzw, logratio)
        blocks = _block_gaps(a, grad)
        gap = float(blocks.max())
        if float(blocks.sum()) <= settings.grad_tol:
            return a, cost, logratio, gap, it - 1, True
        if gap < best[0]:
            best = (gap, a, cost, logratio)

        heavy = a >= _FREEZE_MASS
        lam_b = np.where(heavy, grad, np.inf).min(axis=0)
        growers = np.flatnonzero(~heavy & (lam_b - grad > 0.25 * settings.grad_tol))
        lifted_here = False
        if growers.size:
            a, cost, logratio, lifted_here = lift(a, cost, logratio, grad, growers)
            if lifted_here:
                # fall through to the Newton step on the refreshed state, or
                # lift churn between coupled coordinates can eat the budget
                grad = _gradient(c, rho_pzw, logratio)
                heavy = a >= _FREEZE_MASS

        af, gf = a.reshape(-1), grad.reshape(-1)
        idx = np.flatnonzero(heavy)
        # the basis and its QR depend on the active set alone. The last
        # direction, and a basis of another active set, are let go first, or
        # they are alive at the heap's peak while the next basis is built
        direction = None
        if basis is not None and not np.array_equal(basis.heavy, heavy):
            basis = None
        basis = basis or _active_set_basis(pzw, heavy)
        direction = _newton_direction(pzw, rho, a, heavy, grad, basis)
        moved = adopted = False
        for _ in range(14):
            try:
                d = direction(lam, _NEWTON_MAX_LEN)
            except np.linalg.LinAlgError:
                d = None
            if d is None:
                lam *= 100.0
                continue
            d = d[idx]
            slope = float(gf[idx] @ d)
            if not np.isfinite(slope) or slope >= 0.0 or float(np.abs(d).max()) > _NEWTON_MAX_LEN:
                lam *= 100.0
                continue
            neg = d < 0.0
            with np.errstate(over="ignore"):
                # a subnormal component overflows the ratio; inf is correct
                ratios = af[idx][neg] / -d[neg]
            tmax = float(ratios.min()) if np.any(neg) else np.inf
            t = min(1.0, 0.995 * tmax)
            cut = False
            if tmax < 1.0:
                # an overshooting step is tried whole, with the coordinates
                # it overshoots cut at the floor if each of them wants to
                # shrink: it finds the next active set and the step on it in
                # one evaluation
                full = af.copy()
                full[idx] += d
                lam_b = np.where(heavy, grad, np.inf).min(axis=0)
                if np.all((grad > lam_b).reshape(-1)[full < _MASS_FLOOR]):
                    cand, cand_cost, cand_ratio = trial(full)
                    if cand_cost <= cost + 1e-4 * float(gf @ (cand.reshape(-1) - af)):
                        moved, adopted, cut = cand_cost < cost, True, True
                        a, cost, logratio = cand, cand_cost, cand_ratio
            for _ in range(0 if adopted else 30):
                cf = af.copy()
                cf[idx] += t * d
                cand, cand_cost, cand_ratio = trial(cf)
                if cand_cost <= cost + 1e-4 * t * slope + _cost_slack(cost, rho):
                    # a step inside the slack that lowers nothing is no move,
                    # or a stuck phase would spend its whole budget on them
                    moved, adopted = cand_cost < cost, True
                    a, cost, logratio = cand, cand_cost, cand_ratio
                    break
                t *= 0.5
            if tmax < 0.05 and not cut:
                # a boundary-pinned step leaves the blocking coordinates
                # crawling toward the face a fixed fraction per iteration;
                # lifting them in one batch removes the pin, and doubles as
                # the rescue move when the step itself was rejected
                blockers = idx[neg][ratios < 0.05]
                a, cost, logratio, lifted = lift(
                    a, cost, logratio, _gradient(c, rho_pzw, logratio), blockers
                )
                moved |= lifted
            # a retry's step starts from the iteration's entry state, so
            # none may follow an adopted step
            if moved or adopted:
                break
            lam *= 100.0
        if not moved and not lifted_here:
            break
        lam = max(lam * 0.25, 1e-12)

    blocks = _block_gaps(a, _gradient(c, rho_pzw, logratio))
    gap, conv = float(blocks.max()), float(blocks.sum()) <= settings.grad_tol
    if best[0] < gap and not conv:
        gap, a, cost, logratio = best
    return a, cost, logratio, gap, it, conv


def _mirror_phase(
    c: np.ndarray, pzw: np.ndarray, pw: np.ndarray, rho: float, a: np.ndarray,
    cost: float, logratio: np.ndarray, settings: SolverSettings, budget: int,
    handoff: float, crawl: float,
):
    """Multiplicative-weights segment with Armijo backtracking.

    Starts from a with its cost and log-ratio (_objective_parts); the
    evaluation that accepts a step gives the next iterate's gradient. Runs
    until the summed block gap meets grad_tol, the largest one meets the
    handoff threshold or crawls (at most crawl and more than half its value
    _STALL_PATIENCE iterations earlier), a stall, or the budget, and returns
    the iterate with the smallest largest gap, or, when certified or at the
    handoff or a crawl, the current one. handoff and crawl 0 keep the phase
    to the end. Returns (a, cost, log-ratio, largest gap, used, converged).
    """
    log_pw, rho_pzw = _log_floored(pw), rho * pzw
    step = settings.step_init
    best = (np.inf, a, cost, logratio)
    anchor = np.inf
    stalled = 0
    used = 0
    gaps = []
    for used in range(1, budget + 1):
        grad = _gradient(c, rho_pzw, logratio)
        low = grad.min(axis=0)
        blocks = _block_gaps(a, grad, low)
        gap = float(blocks.max())
        if gap < best[0]:
            best = (gap, a, cost, logratio)
        # the sum is at least the largest gap: sum only once that meets grad_tol
        if gap <= settings.grad_tol and float(blocks.sum()) <= settings.grad_tol:
            return a, cost, logratio, gap, used - 1, True
        if gap <= handoff:
            return a, cost, logratio, gap, used - 1, False
        # a largest gap that has not halved in _STALL_PATIENCE iterations is
        # crawling: the Newton phase closes it from here in fewer iterations
        gaps.append(gap)
        if gap <= crawl and len(gaps) > _STALL_PATIENCE and 2.0 * gap > gaps[-1 - _STALL_PATIENCE]:
            return a, cost, logratio, gap, used - 1, False
        if gap < 0.97 * anchor:
            anchor = gap
            stalled = 0

        shifted = grad - low
        new_a, new_cost, new_ratio = a, cost, logratio
        refused = None
        while True:
            cand = np.maximum(a * np.exp(-step * shifted), _MASS_FLOOR)
            cand /= cand.sum(axis=0)[None, :, :]
            if refused == cand.tobytes():
                # the step is below rounding: halving it builds the refused
                # candidate again
                step = 0.0
                break
            cand_cost, cand_ratio = _objective_parts(c, pzw, log_pw, rho, cand)
            predicted = float((grad * (a - cand)).sum())
            if cand_cost <= cost - 1e-4 * predicted:
                new_a, new_cost, new_ratio = cand, cand_cost, cand_ratio
                break
            refused = cand.tobytes()
            step *= 0.5
            if step < _TINY_STEP:
                break
        if step < _TINY_STEP:
            break
        rel_drop = (cost - new_cost) / max(1.0, abs(cost))
        a, cost, logratio = new_a, new_cost, new_ratio
        step = min(step * _STEP_GROWTH, _MAX_STEP)
        # objective progress routinely drops below measurable resolution while
        # the largest block gap is still improving, so stagnation only counts
        # when that gap has flatlined too
        stalled = stalled + 1 if rel_drop <= settings.obj_tol else 0
        if stalled >= _STALL_PATIENCE:
            break

    blocks = _block_gaps(a, _gradient(c, rho_pzw, logratio))
    gap, conv = float(blocks.max()), float(blocks.sum()) <= settings.grad_tol
    if best[0] < gap and not conv:
        gap, a, cost, logratio = best
    return a, cost, logratio, gap, used, conv


def _minimize_over_blocks(
    c: np.ndarray, pzw: np.ndarray, pw: np.ndarray, rho: float, settings: SolverSettings,
    start: np.ndarray | None = None,
):
    """Minimize (c . a) + rho * leakage over the product of message simplices.

    Starts from the uniform encoder, or from start floored at _FREEZE_MASS
    and renormalized per block, so that every coordinate can still grow.
    Alternates a multiplicative-weights phase that shapes the support with
    an active-set Newton phase that closes the gap, keeping the iterate
    with the smallest largest block gap across rounds; each phase hands the
    next its iterate's cost and log-ratio, so no encoder is evaluated again.
    A mirror phase runs at most _PHASE_ONE_CAP iterations and hands off at
    _POLISH_AT or when its largest gap crawls below _CRAWL_AT, both lowered
    to 0.03 times the best after a stalled Newton phase; a certified phase
    or a round in which neither phase cuts the best by a tenth ends the
    solve. Returns (a, cost, iterations, converged, gap), gap a's summed
    block gap and converged whether it meets grad_tol.
    """
    if rho == 0.0:
        # no leakage term: each block independently loads its cheapest message
        a = np.zeros_like(c)
        rows = np.argmin(c, axis=0)
        mi, qi = np.indices(rows.shape)
        a[rows, mi, qi] = 1.0
        return a, float((c * a).sum()), 0, True, 0.0
    if start is None:
        a = np.full_like(c, 1.0 / c.shape[0])
    else:
        a = np.maximum(start, _FREEZE_MASS)
        a /= a.sum(axis=0)[None, :, :]
    cost, logratio = _objective_parts(c, pzw, _log_floored(pw), rho, a)

    best = (np.inf, a, cost, logratio)
    spent = 0
    while spent < settings.max_iters:
        round_entry = best[0]
        # after a stalled Newton phase, re-shape the support until the
        # largest block gap is well below the best so far
        a, cost, logratio, gap, used, conv = _mirror_phase(
            c, pzw, pw, rho, a, cost, logratio, settings,
            min(_PHASE_ONE_CAP, settings.max_iters - spent),
            min(_POLISH_AT, 0.03 * best[0]), min(_CRAWL_AT, 0.03 * best[0]),
        )
        spent += used
        if gap < best[0]:
            best = (gap, a, cost, logratio)
        if conv or spent >= settings.max_iters:
            break
        a, cost, logratio, gap, used, conv = _newton_polish(
            c, pzw, pw, rho, a, cost, logratio, settings, settings.max_iters - spent
        )
        spent += used
        if gap < best[0]:
            best = (gap, a, cost, logratio)
        # neither phase moved the largest gap much: stuck, stop honestly
        if conv or best[0] > 0.9 * round_entry:
            break
    if not conv:
        _, a, cost, logratio = best
    gap = float(_block_gaps(a, _gradient(c, rho * pzw, logratio)).sum())
    return a, cost, spent, gap <= settings.grad_tol, gap


def sender_best_response(
    g: GameInstance,
    beta: ReceiverPolicy,
    settings: SolverSettings = DEFAULT_SETTINGS,
    start: SenderPolicy | None = None,
) -> BestResponseResult:
    """Approximate sender best response against a fixed decoder.

    The solver starts from the uniform encoder, or from start when given:
    typically the answer to a nearby problem, such as the previous point of
    a sweep. start must have this game's shape; its entries are floored at
    _FREEZE_MASS (1e-10) and each block renormalized, so a zero entry can
    still grow. The answer is certified the same way from either start.
    """
    g.check_receiver(beta)
    if start is not None:
        g.check_sender(start)
    c = _linear_coeffs(g, beta)
    a, cost, iterations, converged, gap = _minimize_over_blocks(
        c, g.joint.pzw, g.joint.pw, g.rho, settings,
        None if start is None else start.a,
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
    g: GameInstance, settings: SolverSettings, start: SenderPolicy | None = None
) -> tuple[BestResponseResult, ReceiverPolicy]:
    """Sender best response to the identity decoder, from start if given, and that decoder."""
    if g.y_space.size != g.x_space.size:
        raise ValueError("explicit construction needs message alphabet = state alphabet")
    beta = ReceiverPolicy.identity(g.x_space.size)
    return sender_best_response(g, beta, settings, start), beta


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
    best response, so it is exact up to that answer's summed block gap,
    reported as sender_stationarity_gap.
    """
    _check_epsilon(epsilon)
    return _nash_report(g, alpha, beta, epsilon, sender_best_response(g, beta, settings))
