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
A solve poses its problem once, as a _Problem, which holds log P{W} and
rho P{Z, W} and evaluates the cost, its gradient and the certificate.
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

    seed and obj_tol have no effect: the solver is deterministic and draws
    no random numbers, and no stopping rule reads the cost's progress. Both
    are validated and kept so that schema_version 1 configs, which carry
    them, load and round-trip unchanged.
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


def _verdict(member: bool, gaps, epsilon: float) -> str:
    """PASS when membership is proven; FAIL when a gap, an improvement that
    some policy attains, exceeds epsilon; UNCERTIFIED when neither is shown."""
    if member:
        return "PASS"
    return "FAIL" if max(gaps) > epsilon else "UNCERTIFIED"


@dataclass(frozen=True)
class EpsilonNashReport:
    """The sender's best improvement lies in [sender_gap, sender_gap +
    sender_stationarity_gap], measured at an encoder ref. member means
    receiver_gap <= epsilon and ref.cost - ref.stationarity_gap >= own -
    epsilon, own the sender's cost (epsilon_nash_check); where sender_gap
    was clamped at 0 the upper end can exceed epsilon in a member, and the
    interval still contains the improvement."""

    member: bool
    sender_gap: float
    receiver_gap: float
    sender_stationarity_gap: float
    epsilon: float

    @property
    def verdict(self) -> str:
        """PASS, FAIL or UNCERTIFIED (_verdict)."""
        return _verdict(self.member, (self.sender_gap, self.receiver_gap), self.epsilon)


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
    simplex. The value is one dot (np.vdot) of P{Y, W} with the log-ratio,
    which is 0 on a cell without mass. The Armijo test's predicted decrease
    is formed from the block gaps, not from this value (_mirror_phase).
    """
    jyw = _joint_yw(pzw, a)
    full = np.logical_and.reduce(jyw, None)
    # log 1 stands in where the ratio goes unused, so no log of zero is taken
    logratio = np.log(jyw if full else np.where(jyw > 0.0, jyw, 1.0))
    logratio -= _log_floored(np.add.reduce(jyw, 1))[:, None]
    logratio -= log_pw
    if not full:
        logratio[jyw == 0.0] = 0.0
    return float(np.vdot(jyw, logratio)), logratio


def _has_gradient(pzw: np.ndarray, pw: np.ndarray, rho: float, a: np.ndarray) -> bool:
    """Whether the cost has a finite gradient at a: rho is 0, or every (y, w)
    cell of a secret with mass carries mass. Then a's summed block gap
    (_block_gaps) bounds its cost above the optimum, on the boundary too."""
    return bool(rho == 0.0 or a.all() or _joint_yw(pzw, a)[:, pw > 0.0].all())


def sender_cost_gradient(g: GameInstance, alpha: SenderPolicy, beta: ReceiverPolicy) -> np.ndarray:
    """Coordinate gradient of the sender cost at an encoder that has one.

    Entry (y, z, w) is the distortion coefficient plus rho times
    P{Z=z, W=w} log [ P{Y=y, W=w} / (P{Y=y} P{W=w}) ]. Encoders without a
    finite gradient (_has_gradient) are refused.
    """
    g.check_sender(alpha)
    g.check_receiver(beta)
    if not _has_gradient(g.joint.pzw, g.joint.pw, g.rho, alpha.a):
        raise ValueError("gradient requires every (message, secret) cell with mass to carry mass")
    prob = _Problem(_linear_coeffs(g, beta), g.joint.pzw, g.joint.pw, g.rho)
    return prob.gradient(prob.evaluate(alpha.a)[1])


def _block_gaps(a: np.ndarray, grad: np.ndarray, low: np.ndarray | None = None) -> np.ndarray:
    """Each (z, w) block's optimality gap of the linearized objective.

    low is grad's minimum over each block, computed here unless the caller
    has it at hand. By convexity the sum of the gaps, the Frank-Wolfe
    duality gap, bounds the cost of a above the optimum: the solver's
    certificate. The largest gap alone bounds nothing, and the solver reads
    it only as a progress measure. Valid wherever the cost has a gradient
    at a (_has_gradient), as at every iterate, which is strictly positive.
    """
    return np.add.reduce(a * grad, 0) - (np.minimum.reduce(grad, 0) if low is None else low)


class _Problem:
    """One sender's problem: minimize (c . a) + rho * leakage over the
    product of message simplices.

    c is the distortion coefficients (_linear_coeffs), pzw the P{Z, W} and
    pw its secret marginal. log P{W} (_log_floored) and rho P{Z, W} are
    computed here, once per solve.
    """

    __slots__ = ("c", "pzw", "pw", "rho", "log_pw", "rho_pzw")

    def __init__(self, c: np.ndarray, pzw: np.ndarray, pw: np.ndarray, rho: float):
        self.c, self.pzw, self.pw, self.rho = c, pzw, pw, rho
        self.log_pw, self.rho_pzw = _log_floored(pw), rho * pzw

    def evaluate(self, a: np.ndarray):
        """The cost at a, and a's log-ratio (_leakage_parts), which gives its
        gradient. The distortion term keeps numpy's pairwise sum: a dot's
        order moves solver paths. The Armijo test's predicted decrease comes
        from the block gaps (_mirror_phase)."""
        zeta, logratio = _leakage_parts(a, self.pzw, self.log_pw)
        return float(np.add.reduce(self.c * a, None)) + self.rho * zeta, logratio

    def gradient(self, logratio: np.ndarray) -> np.ndarray:
        """The cost's gradient at the encoder with this log-ratio."""
        return self.c + self.rho_pzw * logratio[:, None, :]

    def certificate(self, a: np.ndarray):
        """(cost, summed block gap) at a, the gap bounding the cost above the
        optimum, or None where the cost has no gradient at a (_has_gradient)."""
        if not _has_gradient(self.pzw, self.pw, self.rho, a):
            return None
        cost, logratio = self.evaluate(a)
        return cost, float(np.add.reduce(_block_gaps(a, self.gradient(logratio)), None))


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
    pzw: np.ndarray  # and the P{Z, W}
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
        return _ActiveSetBasis(heavy, pzw, r_mat, moves.reshape(r * m, nq, 1, k), None, None, None, None)
    return _ActiveSetBasis(
        heavy, pzw, r_mat, None, (place, length, ys, zs), q_mat, (rank == 0).sum(axis=1) > r,
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
    prob: _Problem, a: np.ndarray, cost: float, logratio: np.ndarray, grad: np.ndarray,
    y: int, refused: set,
):
    """Re-profile one message row to its stationary shape at its current mass.

    The leakage term is scale-invariant in a whole message row, so a row
    carrying little mass has its internal proportions decoupled from its
    size, and coordinate-at-a-time moves chase each other through the shared
    row marginal without settling. Against fixed block prices from the other
    rows, the row's cheapest profile routes each secret's mass through the
    measurement pair with the best price-to-coupling ratio and gives the
    cells shares proportional to pw * exp((price - distortion) / (rho *
    coupling)). The row keeps its mass P{Y=y}, each cell capped at 0.45, and
    a row that has died to the floor takes a token mass of 1e-200; its size
    is left to the Newton steps and lifts that follow. Starts from a with
    its cost, log-ratio (_Problem.evaluate) and gradient, and evaluates the
    one candidate once, unless it leaves the row as it is. Accepted only if
    the cost is no worse. A rebalance depends only on its row and a, so
    refused holds the rows refused at a: a row in it returns unmoved at
    once, and a refused row joins it. Returns (encoder, cost, log-ratio,
    moved).
    """
    if y in refused:
        return a, cost, logratio, False
    pzw, pw = prob.pzw, prob.pw
    r, m = a.shape[:2]
    outside = a >= _FREEZE_MASS
    outside[y] = False
    lam_ex = np.where(outside, grad, np.inf).min(axis=0)
    cells = np.nonzero(pw > 0.0)[0]
    usable = (pzw > 0.0) & np.isfinite(lam_ex)
    # a subnormal rho overflows the ratio; the isfinite test below then
    # returns a unmoved
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        tmat = np.where(usable, (lam_ex - prob.c[y]) / np.where(usable, prob.rho_pzw, prob.rho), -np.inf)
    tbest = tmat.max(axis=0)
    zstar = tmat.argmax(axis=0)
    if not np.all(np.isfinite(tbest[cells])):
        return a, cost, logratio, False
    shares = pw[cells] * np.exp(np.clip(tbest[cells], -700.0, 700.0))
    shares /= shares.sum()
    row_mass = max(float((pzw * a[y]).sum()), 1e-200)
    cand = a.copy()
    for j, w in enumerate(cells):
        mass = min(max(row_mass * shares[j] / pzw[zstar[w], w], _MASS_FLOOR), 0.45)
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
    shift = np.log(np.maximum(cand[y], _MASS_FLOOR)) - np.log(np.maximum(a[y], _MASS_FLOOR))
    if float(np.abs(shift).max()) >= 1e-9:
        cand_cost, cand_ratio = prob.evaluate(cand)
        if cand_cost <= cost + _cost_slack(cost, prob.rho):
            return cand, cand_cost, cand_ratio, True
    refused.add(y)
    return a, cost, logratio, False


def _batch_lift(
    prob: _Problem, a: np.ndarray, cost: float, logratio: np.ndarray, grad: np.ndarray,
    coords: np.ndarray, refused: set,
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
    evaluated twice at a: refused holds the batches refused there, from
    this call or from another coordinate list, and a refused batch joins
    it. Starts from a with its cost, log-ratio (_Problem.evaluate) and
    gradient. Returns (encoder, cost, log-ratio, moved).
    """
    pzw = prob.pzw
    ys, zs, ws = np.unravel_index(coords, a.shape)
    p, rho_p, cur = pzw[zs, ws], prob.rho_pzw[zs, ws], a[ys, zs, ws]
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
        k = prob.pw[ws] * np.exp((lam_b - prob.c[ys, zs, ws]) / rho_p)
        cross = np.where(k >= 1.0, 0.5, np.clip((k * p0 - j0) / (p * (1.0 - k)), _MASS_FLOOR, 0.5))
        mass = np.where(shrink, _MASS_FLOOR, cross)
        first = (shrink | grow) & (np.abs(np.log(mass) - np.log(np.maximum(cur, _MASS_FLOOR))) >= 1e-9)

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
        cand_cost, cand_ratio = prob.evaluate(cand)
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
            curv = rho_p * p * (v * v * (1.0 / jyw[:, ws] - 1.0 / py[:, None])).sum(axis=0)
            again = np.where(grow, slope < 0.0, shrink & (slope > 0.0)) & (0.0 < curv) & (curv < np.inf)
            cell = np.where(again, ys * prob.pw.size + ws, -1)
            _, at, count = np.unique(cell, return_inverse=True, return_counts=True)
            x = cur - slope / (curv * count[at])
        x = np.where(grow, np.minimum(x, 0.5), np.maximum(x, _MASS_FLOOR))
        out = attempt(again, x)
    return out or (a, cost, logratio, False)


def _newton_polish(
    prob: _Problem, a: np.ndarray, cost: float, logratio: np.ndarray, settings: SolverSettings,
    budget: int, floor: float = -math.inf, basis: _ActiveSetBasis | None = None,
):
    """Active-set Newton refinement on the product of simplex blocks.

    Starts from a, strictly positive like every iterate the solver makes,
    with its cost and log-ratio (_Problem.evaluate). Coordinates
    below the freeze mass are held fixed unless they want to grow, which
    lifts them (a light row by a whole-row rebalance, the others in one
    batch, _batch_lift); the rest take damped Newton steps constrained to
    conserve each block's mass.
    A step that overshoots is first tried whole, with the shrinking
    coordinates it overshoots cut at the floor; otherwise a
    fraction-to-boundary rule keeps the iterate strictly positive. The
    block gaps are always measured over all coordinates, so freezing
    cannot fake convergence, and the phase stops once their sum meets
    grad_tol or cost minus their sum reaches floor. An iteration whose
    active set has no block with two heavy coordinates has no move that
    keeps the block masses, so it solves no direction and ends the phase
    unless it lifted. basis, when given, is an active-set basis
    (_active_set_basis) built for this P{Z, W}, reused while the active set
    is the one it was built for. Returns (encoder, cost, log-ratio, largest
    block gap, iterations, done, basis, summed block gap) after at most
    min(_POLISH_ITERS, budget) iterations (_phase_end); done means the
    encoder's summed gap meets grad_tol or its lower bound reaches floor,
    and basis is the last one used.
    """
    shape, pzw = a.shape, prob.pzw
    # with the iterate's block gaps, so that its sum is at hand if it returns
    best = (np.inf, a, cost, logratio, None)
    lam = 1e-10

    def trial(flat):
        cand = np.maximum(flat.reshape(shape), _MASS_FLOOR)
        cand /= cand.sum(axis=0)[None, :, :]
        return (cand, *prob.evaluate(cand))

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
        moves = [(_row_rebalance, (y,)) for y in np.unique(rows[light]).tolist()]
        if not light.all():
            moves.append((_batch_lift, (coords[~light],)))
        lifted = False
        for move, args in moves:
            if refused[0] is not a:
                refused = (a, set())
            a, cost, logratio, moved = move(prob, a, cost, logratio, grad, *args, refused[1])
            if moved:
                grad, lifted = prob.gradient(logratio), True
        return a, cost, logratio, lifted

    it = 0
    for it in range(1, min(_POLISH_ITERS, budget) + 1):
        grad = prob.gradient(logratio)
        blocks = _block_gaps(a, grad)
        gap, total = float(blocks.max()), float(blocks.sum())
        if total <= settings.grad_tol or (floor > -math.inf and cost - total >= floor):
            return a, cost, logratio, gap, it - 1, True, basis, total
        if gap < best[0]:
            best = (gap, a, cost, logratio, blocks)

        heavy = a >= _FREEZE_MASS
        lam_b = np.where(heavy, grad, np.inf).min(axis=0)
        growers = np.flatnonzero(~heavy & (lam_b - grad > 0.25 * settings.grad_tol))
        lifted_here = False
        if growers.size:
            a, cost, logratio, lifted_here = lift(a, cost, logratio, grad, growers)
            if lifted_here:
                # fall through to the Newton step on the refreshed state, or
                # lift churn between coupled coordinates can eat the budget
                grad = prob.gradient(logratio)
                heavy = a >= _FREEZE_MASS
                lam_b = np.where(heavy, grad, np.inf).min(axis=0)
        if not np.any(heavy.sum(axis=0) > 1):
            # no move keeps the block masses: the direction is 0 at every
            # damping, so no damping value can move
            if lifted_here:
                continue
            break

        af, gf = a.reshape(-1), grad.reshape(-1)
        idx = heavy.reshape(-1).nonzero()[0]
        # the basis and its QR depend on the active set alone. The last
        # direction, and a basis of another active set, are let go first, or
        # they are alive at the heap's peak while the next basis is built.
        # Active sets of one P{Z, W} are compared by their bytes, which
        # costs less than np.array_equal; another message count gives
        # another byte count
        direction = None
        if basis is not None and basis.heavy.tobytes() != heavy.tobytes():
            basis = None
        basis = basis or _active_set_basis(pzw, heavy)
        direction = _newton_direction(pzw, prob.rho, a, heavy, grad, basis)
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
                if np.all((grad > lam_b).reshape(-1)[full < _MASS_FLOOR]):
                    cand, cand_cost, cand_ratio = trial(full)
                    if cand_cost <= cost + 1e-4 * float(gf @ (cand.reshape(-1) - af)):
                        moved, adopted, cut = cand_cost < cost, True, True
                        a, cost, logratio = cand, cand_cost, cand_ratio
            for _ in range(0 if adopted else 30):
                cf = af.copy()
                cf[idx] += t * d
                cand, cand_cost, cand_ratio = trial(cf)
                if cand_cost <= cost + 1e-4 * t * slope + _cost_slack(cost, prob.rho):
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
                a, cost, logratio, lifted = lift(a, cost, logratio, prob.gradient(logratio), blockers)
                moved |= lifted
            # a retry's step starts from the iteration's entry state, so
            # none may follow an adopted step
            if moved or adopted:
                break
            lam *= 100.0
        if not moved and not lifted_here:
            break
        lam = max(lam * 0.25, 1e-12)
    return _phase_end(prob, settings, best, a, cost, logratio, it, basis)


def _phase_end(prob: _Problem, settings: SolverSettings, best: tuple, a, cost, logratio, used, carry):
    """A phase's answer once its loop ends: (encoder, cost, log-ratio,
    largest gap, used, converged, carry, summed gap) at a, or at best, the
    iterate with the smallest largest gap, if that is smaller and a is not
    certified. best is (largest gap, encoder, cost, log-ratio, block gaps)."""
    blocks = _block_gaps(a, prob.gradient(logratio))
    gap, total = float(blocks.max()), float(blocks.sum())
    conv = total <= settings.grad_tol
    if best[0] < gap and not conv:
        gap, a, cost, logratio, blocks = best
        total = float(blocks.sum())
    return a, cost, logratio, gap, used, conv, carry, total


def _mirror_phase(
    prob: _Problem, a: np.ndarray, cost: float, logratio: np.ndarray, settings: SolverSettings,
    budget: int, handoff: float, crawl: float, floor: float = -math.inf, step: float | None = None,
):
    """Multiplicative-weights segment with Armijo backtracking.

    Starts from a with its cost and log-ratio (_Problem.evaluate), and with
    step, or settings.step_init when step is None, as its first trial step;
    the evaluation that accepts a step gives the next iterate's gradient. Runs
    until the summed block gap meets grad_tol or the certified lower bound,
    cost minus that sum, reaches floor, the largest gap meets the handoff
    threshold or crawls (at most crawl and more than half its value
    _STALL_PATIENCE iterations earlier), the Armijo search stalls with its
    step below _TINY_STEP, or the budget runs out; progress in the cost
    alone ends nothing, as it falls below rounding while the largest gap
    still shrinks. Returns the iterate with the smallest largest gap
    (_phase_end), or, when certified, floored, at the handoff or at a
    crawl, the current one. handoff and crawl 0 keep the phase to the end.
    Returns (a, cost, log-ratio, largest gap, used, done, step, summed gap),
    done meaning certified or floored and step the one the phase would have
    tried next, or None when it stalled below _TINY_STEP.
    A step to cand is accepted when it lowers cost by at least 1e-4 times the
    predicted decrease grad . (a - cand), formed as the summed block gap at
    a less one dot, shifted . cand (shifted: grad less its block minima);
    both terms lie in about [0, gap], so it rounds as the gap, not the cost.
    """
    step = settings.step_init if step is None else step
    # with the iterate's block gaps, so that its sum is at hand if it returns
    best = (np.inf, a, cost, logratio, None)
    used = 0
    gaps = []
    for used in range(1, budget + 1):
        grad = prob.gradient(logratio)
        low = np.minimum.reduce(grad, 0)
        blocks = _block_gaps(a, grad, low)
        gap, total = float(np.maximum.reduce(blocks, None)), float(np.add.reduce(blocks, None))
        if gap < best[0]:
            best = (gap, a, cost, logratio, blocks)
        if total <= settings.grad_tol or (floor > -math.inf and cost - total >= floor):
            return a, cost, logratio, gap, used - 1, True, step, total
        # a largest gap that has not halved in _STALL_PATIENCE iterations is
        # crawling: the Newton phase closes it from here in fewer iterations
        gaps.append(gap)
        crawling = gap <= crawl and len(gaps) > _STALL_PATIENCE and 2.0 * gap > gaps[-1 - _STALL_PATIENCE]
        if gap <= handoff or crawling:
            return a, cost, logratio, gap, used - 1, False, step, total

        shifted = grad - low
        refused = None
        while True:
            cand = np.multiply(shifted, -step)
            np.exp(cand, out=cand)
            cand *= a
            np.maximum(cand, _MASS_FLOOR, out=cand)
            cand /= np.add.reduce(cand, 0)
            if refused is not None and refused == cand.tobytes():
                # the step is below rounding: halving it builds the refused
                # candidate again
                step = 0.0
                break
            cand_cost, cand_ratio = prob.evaluate(cand)
            if cand_cost <= cost - 1e-4 * (total - float(np.vdot(shifted, cand))):
                a, cost, logratio = cand, cand_cost, cand_ratio
                break
            refused = cand.tobytes()
            step *= 0.5
            if step < _TINY_STEP:
                break
        if step < _TINY_STEP:
            break
        step = min(step * _STEP_GROWTH, _MAX_STEP)
    return _phase_end(prob, settings, best, a, cost, logratio, used, step if step >= _TINY_STEP else None)


def _blind_encoder(c: np.ndarray, rho: float) -> np.ndarray:
    """The encoder that ignores leakage: each (z, w) block loads its
    cheapest message under c, ties to the lowest. With rho > 0 it is
    floored at _MASS_FLOOR, so that a message unused everywhere still has
    a gradient; a block's sum stays 1.0 in floating point."""
    cheapest = np.arange(c.shape[0])[:, None, None] == np.argmin(c, axis=0)
    return np.where(cheapest, 1.0, _MASS_FLOOR if rho > 0.0 else 0.0)


class _WarmStart:
    """What a solve hands the next one on a continuation chain.

    The points of a sweep differ only in rho, so each solve starts from the
    previous answer a, with the step its last mirror phase would have taken
    next as the first trial step and its last Newton basis, whose P{Z, W} is
    the same. Multi-sender play hands on the step and the basis alone, with
    a None, so that its solves start from the uniform encoder. An empty one
    starts a chain cold; a None step is settings' step_init. A plain class, not a dataclass, so that code that prints or
    digests a call's arguments does not format the basis's arrays.
    """

    __slots__ = ("a", "step", "basis")

    def __init__(
        self, a: np.ndarray | None = None, step: float | None = None,
        basis: _ActiveSetBasis | None = None,
    ):
        self.a, self.step, self.basis = a, step, basis


def _minimize_over_blocks(
    prob: _Problem, settings: SolverSettings, start: _WarmStart | None = None,
    floor: float = -math.inf,
) -> BestResponseResult:
    """Solve prob: minimize (c . a) + rho * leakage over the product of message simplices.

    A start.a with a zero entry whose certificate (_Problem.certificate)
    meets grad_tol is returned as it stands, with 0 iterations, and start
    is left as it was. Otherwise the solve starts from the uniform encoder,
    or from start.a floored at _FREEZE_MASS and renormalized per block, so
    that every coordinate can still grow.
    Alternates a multiplicative-weights phase that shapes the support with
    an active-set Newton phase that closes the gap, keeping the iterate
    with the smallest largest block gap across rounds; each phase hands the
    next its iterate's cost and log-ratio, so no encoder is evaluated again.
    A mirror phase runs at most _PHASE_ONE_CAP iterations and hands off at
    _POLISH_AT or when its largest gap crawls below _CRAWL_AT, both lowered
    to 0.03 times the best after a stalled Newton phase; a certified phase
    or a round in which neither phase cuts the best by a tenth ends the
    solve. So does an iterate whose certified lower bound on the optimum,
    its cost minus its summed block gap, reaches floor: that iterate is
    returned. A solve that never reaches floor runs the iterates of the
    solve without one. The result's stationarity_gap is its encoder's
    summed block gap, and converged says whether that meets grad_tol.

    The first mirror phase's first trial step is start.step, the later
    phases' settings.step_init. Each Newton phase starts with the last basis
    built, or with start.basis if it was built for this P{Z, W}; a basis
    depends only on P{Z, W} and the active set, so which one a phase starts
    with changes no iterate. start, when given, is then updated to this
    solve's answer, its last mirror phase's next step and its last basis, to
    start the next solve of a continuation chain.
    """
    start = start or _WarmStart()
    c = prob.c
    if prob.rho == 0.0:
        # no leakage term: the leakage-blind encoder is the answer
        a = start.a = _blind_encoder(c, 0.0)
        return BestResponseResult(SenderPolicy(a), float((c * a).sum()), 0, True, 0.0)
    a = start.a
    # the floor below would move a start with a zero entry off its face
    cert = None if a is None or a.all() else prob.certificate(a)
    if cert is not None and cert[1] <= settings.grad_tol:
        return BestResponseResult(SenderPolicy(a), cert[0], 0, True, cert[1])
    if a is None:
        a = np.full_like(c, 1.0 / c.shape[0])
    else:
        a = np.maximum(a, _FREEZE_MASS)
        a /= a.sum(axis=0)[None, :, :]
    cost, logratio = prob.evaluate(a)
    step, basis = start.step, start.basis
    if basis is not None and not np.array_equal(basis.pzw, prob.pzw):
        basis = None

    # with the iterate's summed gap, so that it is at hand if it is returned
    best = (np.inf, a, cost, logratio, np.inf)
    spent = 0
    while spent < settings.max_iters:
        round_entry = best[0]
        # after a stalled Newton phase, re-shape the support until the
        # largest block gap is well below the best so far
        a, cost, logratio, gap, used, conv, next_step, total = _mirror_phase(
            prob, a, cost, logratio, settings, min(_PHASE_ONE_CAP, settings.max_iters - spent),
            min(_POLISH_AT, 0.03 * best[0]), min(_CRAWL_AT, 0.03 * best[0]), floor, step,
        )
        step = None
        spent += used
        if gap < best[0]:
            best = (gap, a, cost, logratio, total)
        if conv or spent >= settings.max_iters:
            break
        a, cost, logratio, gap, used, conv, basis, total = _newton_polish(
            prob, a, cost, logratio, settings, settings.max_iters - spent, floor, basis
        )
        spent += used
        if gap < best[0]:
            best = (gap, a, cost, logratio, total)
        # neither phase moved the largest gap much: stuck, stop honestly
        if conv or best[0] > 0.9 * round_entry:
            break
    if not conv:
        _, a, cost, logratio, total = best
    start.a, start.step, start.basis = a, next_step, basis
    return BestResponseResult(SenderPolicy(a), cost, spent, total <= settings.grad_tol, total)


def sender_best_response(
    g: GameInstance,
    beta: ReceiverPolicy,
    settings: SolverSettings = DEFAULT_SETTINGS,
    start: SenderPolicy | None = None,
) -> BestResponseResult:
    """Approximate sender best response against a fixed decoder.

    The solver starts from the uniform encoder, or from start when given:
    typically the answer to a nearby problem, such as the previous point of
    a sweep. start must have this game's shape. A start with a zero entry
    whose own summed block gap certifies it (_has_gradient) is the answer,
    with 0 iterations, as the truthful encoder is against the identity
    decoder up to the critical ratio. Any other start is floored at
    _FREEZE_MASS (1e-10) and each block renormalized, so a zero entry can
    still grow. The answer is certified the same way from either start.
    """
    g.check_receiver(beta)
    if isinstance(start, SenderPolicy):
        g.check_sender(start)
        start = _WarmStart(start.a)
    # otherwise start is None or a continuation chain's _WarmStart (sweep.py),
    # which the solve updates for the chain's next one
    prob = _Problem(_linear_coeffs(g, beta), g.joint.pzw, g.joint.pw, g.rho)
    return _minimize_over_blocks(prob, settings, start)


def babbling_equilibrium(g: GameInstance) -> tuple[SenderPolicy, ReceiverPolicy]:
    """Uninformative equilibrium: uniform encoder, constant prior-optimal decoder."""
    alpha = SenderPolicy.uniform(g.y_space.size, g.x_space.size, g.w_space.size)
    beta = ReceiverPolicy.constant(
        _prior_estimate(g.distortion.d, g.joint.px), g.x_space.size, g.y_space.size
    )
    return alpha, beta


def explicit_equilibrium(
    g: GameInstance, settings: SolverSettings = DEFAULT_SETTINGS, start: SenderPolicy | None = None
) -> tuple[BestResponseResult, ReceiverPolicy]:
    """Equilibrium built from the identity decoder: the sender's best
    response to it, and that decoder.

    Requires the message alphabet to equal the state alphabet. The sender
    best-responds to the identity decoder; data processing makes the identity
    decoder optimal in return. The pair is an equilibrium only as far as the
    best response is one: its converged flag says whether its summed block
    gap meets grad_tol. start is sender_best_response's, or a continuation
    chain's _WarmStart (sweep.py), which the solve reads and then updates.
    """
    if g.y_space.size != g.x_space.size:
        raise ValueError("explicit construction needs message alphabet = state alphabet")
    beta = ReceiverPolicy.identity(g.x_space.size)
    return sender_best_response(g, beta, settings, start), beta


def _improvement_reference(
    c: np.ndarray, pzw: np.ndarray, pw: np.ndarray, rho: float, alpha: SenderPolicy,
    own: float, epsilon: float, settings: SolverSettings, start: _WarmStart | None = None,
) -> BestResponseResult:
    """The encoder that decides whether a sender can lower own by more than epsilon.

    c is the sender's distortion coefficients (_linear_coeffs), pzw its
    P{Z, W} and pw the secret marginal of pzw; own is its cost at alpha. For
    the returned ref, the best improvement on own lies in [own - ref.cost,
    own - ref.cost + ref.stationarity_gap] by convexity (_block_gaps), and
    ref.cost - ref.stationarity_gap >= own - epsilon proves that it is at
    most epsilon. ref is alpha itself, at cost own and without a solve, when
    alpha has a certificate (_Problem.certificate) whose summed gap is at
    most epsilon. Next, also without a solve, ref is the leakage-blind
    encoder (_blind_encoder), the answer below the critical ratio, when its
    summed gap is at most grad_tol, a best response, or when it proves the
    bound. Otherwise ref is the answer of a solve floored at own - epsilon
    (_minimize_over_blocks): it stops at the first iterate that proves the
    bound, and a solve that never does returns the unfloored answer.
    own - ref.cost > epsilon holds for a proof or a floored answer exactly
    when it holds for the unfloored answer. For the blind best response it
    holds as for any other best response, unless the improvement lies
    within the two answers' summed gaps of epsilon.

    start, when given, is a continuation chain's warm start, which the
    solve reads and then updates (_minimize_over_blocks); a check decided
    without a solve leaves it as it was. A solve that adopts never reached
    its floor, so it leaves start as the unfloored solve would.
    """
    prob = _Problem(c, pzw, pw, rho)
    cert = prob.certificate(alpha.a)
    if cert is not None and cert[1] <= epsilon:
        return BestResponseResult(alpha, own, 0, cert[1] <= settings.grad_tol, cert[1])
    blind = _blind_encoder(c, rho)
    cost, gap = prob.certificate(blind)
    if gap <= settings.grad_tol or cost - gap >= own - epsilon:
        return BestResponseResult(SenderPolicy(blind), cost, 0, gap <= settings.grad_tol, gap)
    return _minimize_over_blocks(prob, settings, start, own - epsilon)


def epsilon_nash_check(
    g: GameInstance,
    alpha: SenderPolicy,
    beta: ReceiverPolicy,
    epsilon: float,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> EpsilonNashReport:
    """Decide whether a strategy pair is an epsilon-equilibrium.

    The receiver gap is exact. The sender's best improvement lies in
    [sender_gap, sender_gap + sender_stationarity_gap], both measured at the
    encoder _improvement_reference picks: alpha itself when its own summed
    block gap settles the question, else the leakage-blind encoder when it
    is a best response or settles it, else the first solver iterate that
    does, else a full best response. No improvement is negative, so
    sender_gap is clamped at 0 where that encoder costs more than alpha.
    member requires the receiver gap, and alpha's cost minus that encoder's
    certified lower bound on the optimum (its cost minus its summed gap), to
    be at most epsilon, so it is a proof; a pair whose best response the
    solver cannot certify closely enough is not a member.
    """
    _check_epsilon(epsilon)
    own = sender_cost(g, alpha, beta)
    ref = _improvement_reference(
        _linear_coeffs(g, beta), g.joint.pzw, g.joint.pw, g.rho, alpha, own, epsilon, settings
    )
    receiver_gap = receiver_cost(g, alpha, beta) - receiver_cost(
        g, alpha, receiver_best_response(g, alpha)
    )
    # the floor test's own form, so that a floored answer is always a member
    proven = ref.cost - ref.stationarity_gap >= own - epsilon
    return EpsilonNashReport(
        proven and receiver_gap <= epsilon, max(0.0, own - ref.cost), receiver_gap,
        ref.stationarity_gap, epsilon,
    )
