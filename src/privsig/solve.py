"""Best responses and equilibrium constructions.

The receiver's best response is exact (per-message posterior minimization).
The sender's best response minimizes a convex objective over a product of
message simplices, one per (measurement, secret) pair: exponentiated
gradient steps shape the support and an active-set Newton phase closes the
gap, its steps solved in each secret's mass-conserving coordinates, where the
leakage curvature has rank |Y| at most. The mirror phase hands off at a
largest block gap of _POLISH_AT, or as soon as a gap below _CRAWL_AT stops
halving within _STALL_PATIENCE iterations, a rule on the iterates' progress
alone; the Newton phase then finds the active set itself, cutting shrinking
coordinates at the floor and lifting growers along their moves. Above
_POLISH_MAX_VARS coordinates the Newton phase runs only after a mirror phase
that stalls. Stationarity is measured by the worst simplex-block gap. By
convexity the sum of the block gaps bounds the cost above the optimum, so
the worst gap bounds it only once multiplied by the block count |Z| |W|;
the Newton phase stops on the sum, and reporting it is ROADMAP item B(a).
"""
from __future__ import annotations

import functools
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
# hand off to the Newton phase once multiplicative steps are this close, or
# once they crawl below _CRAWL_AT: a gap that has not halved in
# _STALL_PATIENCE iterations. On small problems the mirror phase otherwise
# spends most of a solve creeping from 1e-3 to 1e-5 (the 200 seed-7 games
# against stochastic decoders in tests/test_solver.py: 69,769 iterations in
# all, 18,958 with the crawl hand-off)
_POLISH_AT = 1e-5
_CRAWL_AT = 1e-3
_POLISH_ITERS = 100
# above this many coordinates a mirror phase keeps the whole remaining budget
# and the Newton phase runs only after it stalls: handing off at _POLISH_AT
# made m = 16 circulants (4096 coordinates, rho 0.2/0.38/0.6) take 87-136 ms
# each, not 5-102 ms, about two thirds of it in crossing moves and a tenth in
# the Newton direction
_POLISH_MAX_VARS = 2000
_PHASE_ONE_CAP = 600
# below this mass a coordinate is held fixed by the Newton phase unless it
# wants to grow, which lifts it; it always counts in the stationarity gap
_FREEZE_MASS = 1e-10
# a Newton direction longer than this in any coordinate means the damping
# has not yet tamed a near-null curvature direction; only shorter ones are
# trusted
_NEWTON_MAX_LEN = 2.0
# a row carrying less than this much probability is re-profiled whole by the
# row rebalance instead of moving single coordinates to their crossings
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


def _stationarity_gap(a: np.ndarray, grad: np.ndarray, low: np.ndarray) -> float:
    """Largest simplex-block optimality gap of the linearized objective.

    low is grad's minimum over each (z, w) block. By convexity the sum of
    the block gaps bounds the cost above the optimum, so the largest one
    bounds it only once multiplied by the block count |Z| |W| (reporting the
    sum is ROADMAP item B(a)). Valid whenever the iterate is strictly
    positive, which the solver maintains throughout.
    """
    per_block = (a * grad).sum(axis=0) - low
    return float(per_block.max())


@functools.lru_cache(maxsize=None)
def _helmert_table(r: int):
    """Helmert coefficients for blocks of up to r heavy messages.

    Entry [k, p, j] is row j's coefficient on the p-th heavy message,
    counting from 1, of a block with k of them: 1 on the first j + 1,
    -(j + 1) on the next, 0 after, scaled to unit length; row j is real
    when j < k - 1, and p = 0 (a frozen coordinate) reads 0. Returns
    (coefficients, real).
    """
    k, p, j = np.arange(r + 1)[:, None, None], np.arange(r + 1)[:, None], np.arange(r - 1)
    real = j < k[:, 0] - 1
    coef = np.where(p <= j + 1, 1.0, np.where(p == j + 2, -(j + 1.0), 0.0)) / np.sqrt((j + 1.0) * (j + 2.0))
    coef = np.where(real[:, None, :] & (p > 0), coef, 0.0)
    # every caller shares the cached arrays
    coef.flags.writeable = real.flags.writeable = False
    return coef, real


class _ActiveSetBasis(NamedTuple):
    """One active set's Newton coordinates (_active_set_basis)."""

    heavy: np.ndarray  # the active set it was built for
    r: np.ndarray  # (|W|, k, |Y|)
    moves: np.ndarray  # (|Y| |X|, |W|, 1, k): Q's columns as coordinate moves
    # where a QR was needed, for the curvature-free part: the Helmert rows
    # (|W|, |X|, |Y| - 1, |Y|), the (z, j) row behind each padded row, Q,
    # the secrets with more loaded rows than |Y|, and each secret's heavy
    # coordinate count; otherwise None
    helmert: np.ndarray | None
    order: np.ndarray | None
    q: np.ndarray | None
    crowded: np.ndarray | None
    count: np.ndarray | None


def _active_set_basis(pzw: np.ndarray, heavy: np.ndarray) -> _ActiveSetBasis:
    """Orthonormal coordinates of each secret's mass-conserving moves.

    Block (z, w) with k heavy messages gets k - 1 Helmert rows, an
    orthonormal basis of the moves of its heavy coordinates that keep its
    mass. In these rows message y's load p_y (P{Z=., W=w} on row y)
    becomes column y of W, so the projected leakage Hessian is W K W^T with
    K diagonal: rank |Y| at most, whatever the block count. Where a secret
    has more rows than |Y|, W = Q R by a thin QR, batched over the secrets;
    elsewhere Q is the identity and R is W. Each secret lists its rows with
    a load first, then those of zero-probability cells, then zero padding
    up to the largest count, so that no Householder step pivots on a zero
    row while a loaded one is left. Depends only on heavy and P{Z, W}, so
    the Newton phase rebuilds it only when the active set changes.
    """
    r, m, nq = heavy.shape
    hv = heavy.transpose(2, 1, 0)
    count = hv.sum(axis=2)
    coef, real = _helmert_table(r)
    place = np.cumsum(hv, axis=2) * hv
    helmert = coef[count[..., None, None], place[:, :, None, :], np.arange(r - 1)[:, None]]
    real = real[count]
    size = max(1, int(real.sum(axis=(1, 2)).max()))
    rank = np.where(real, pzw.T[..., None] == 0.0, 2).reshape(nq, -1)
    order = np.argsort(rank, axis=1, kind="stable")[:, :size]
    w_col = np.arange(nq)[:, None]
    load = (helmert * pzw.T[:, :, None, None]).reshape(nq, -1, r)[w_col, order]
    q_mat, r_mat = np.linalg.qr(load) if size > r else (np.eye(size), load)
    spread = np.zeros((nq, m * (r - 1), min(size, r)))
    spread[w_col, order] = q_mat
    moves = helmert.transpose(0, 1, 3, 2) @ spread.reshape(nq, m, r - 1, -1)
    moves = np.ascontiguousarray(moves.transpose(2, 1, 0, 3)).reshape(r * m, nq, 1, -1)
    if size <= r:
        return _ActiveSetBasis(heavy, r_mat, moves, None, None, None, None, None)
    return _ActiveSetBasis(
        heavy, r_mat, moves, helmert, order, q_mat, (rank == 0).sum(axis=1) > r, count.sum(axis=1)
    )


def _newton_direction(
    pzw: np.ndarray, rho: float, a: np.ndarray, heavy: np.ndarray, grad: np.ndarray,
    basis: _ActiveSetBasis | None = None,
):
    """Damped Newton direction on the heavy coordinates, in the active set's basis.

    The leakage Hessian couples coordinates sharing a message y: within a
    secret w by rho p_y p_y^T / P{Y=y, W=w}, across secrets by
    -rho s s^T / P{Y=y}, s = P{Z, W}, a load on the message total s . d.
    In a secret's Helmert rows (_active_set_basis, built here unless given)
    [lam I + H, A^T; A, 0] [d; nu] = [-grad; 0] reads
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
    # Q^T b, b = N^T (-grad) in the Helmert rows N, as the moves are N Q
    qb = -(basis.moves[:, :, 0].transpose(1, 2, 0) @ grad.reshape(r * m, nq).T[..., None])
    free, reach = None, 0.0
    if basis.q is not None:
        # (I - Q Q^T) b. Where a secret has at most |Y| loaded rows, Q spans
        # its first |Y| rows and none of the rest, so the part is 0 and b
        # there; only a secret with more loaded rows keeps the subtraction's
        # rounding residue
        b = basis.helmert @ grad.transpose(2, 1, 0)[..., None]
        b = -b.reshape(nq, -1)[np.arange(nq)[:, None], basis.order]
        rest = b - (basis.q @ (b[:, None, :] @ basis.q).transpose(0, 2, 1))[..., 0]
        rest[~basis.crowded, :r] = 0.0
        # over a secret's n heavy coordinates |d|inf >= |d|2 / sqrt(n), and
        # |d|2 >= |rest|2 / lam
        reach = float(np.sqrt((rest * rest).sum(axis=1) / np.maximum(basis.count, 1)).max())
        full = np.zeros((nq, m * (r - 1)))
        full[np.arange(nq)[:, None], basis.order] = rest
        free = (full.reshape(nq, m, 1, r - 1) @ basis.helmert).reshape(nq, m, r)
        free = free.transpose(2, 1, 0).reshape(r * m, nq, 1, 1)
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
        d = basis.moves @ (x @ coef)[..., None]
        return d.reshape(-1) if free is None else (d + free / lam).reshape(-1)

    return direction


def _cost_slack(cost: float) -> float:
    # the objective sums O(1) terms, so differences below a few ulps of one
    # are not measurable and must not fail an acceptance test
    return 1e-15 * max(1.0, abs(cost))


def _xlogx_sum(x: np.ndarray) -> float:
    """Sum of x log x, with 0 log 0 = 0."""
    return float(x @ _log_floored(x))


def _price_crossing(
    c: np.ndarray, pzw: np.ndarray, pw: np.ndarray, rho: float, a: np.ndarray,
    jyw: np.ndarray, py: np.ndarray, fsums: list, y: int, z: int, w: int, m: float,
):
    """Cost change of setting a[y, z, w] to m and rescaling the rest of its block.

    The move changes one column, so of the (y, w) joint only P{Y, W=w} and
    P{Y} move, each by P{z, w} times the column change. The leakage is then
    sum x log x over the joint, less that over P{Y} and the joint's column
    sums times log P{W}; the last term moves only by the rounding in the
    column's mass. fsums holds the current sums over each P{Y, W=w}, then
    over P{Y}. Returns (new column, new P{Y, W=w}, new P{Y}, their sums,
    cost change).
    """
    col = a[:, z, w]
    new = col * ((1.0 - m) / (1.0 - col[y]))
    new[y] = m
    dcol = new - col
    shift = pzw[z, w] * dcol
    jw, py_new = jyw[:, w] + shift, py + shift
    f = _xlogx_sum(jw), _xlogx_sum(py_new)
    leak = f[0] - fsums[w] - f[1] + fsums[-1] - float(shift.sum()) * math.log(pw[w])
    return new, jw, py_new, f, float(c[:, z, w] @ dcol) + rho * leak


def _rescale_crossings(
    c: np.ndarray, pzw: np.ndarray, pw: np.ndarray, rho: float, a: np.ndarray,
    cost: float, logratio: np.ndarray, grad: np.ndarray, coords: np.ndarray,
):
    """Move coordinates directly to their stationary mass scale.

    A coordinate many orders of magnitude away from the mass where its
    gradient meets the block minimum over heavy coordinates either holds the
    gap open (too small) or forces boundary-pinned micro steps (too large),
    while its effect on the objective can sit below float resolution. Each move sets the
    coordinate to that crossing, clipped to [floor, 1/2], and rescales the
    rest of its block to stay normalized. The coordinate's gradient depends
    on its own mass only through P{Y=y, W=w} and P{Y=y}, both affine in it,
    so the crossing solves a linear equation; the floor end means the
    coordinate wants zero mass. Moves are tried in order against a running
    (y, w) joint, each priced by its cost change (_price_crossing), and
    accepted on a no-worse basis rather than strict descent, which float
    resolution could never certify; a move that lands where the coordinate
    already sits is not tried. Starts from a with its cost, log-ratio
    (_objective_parts) and gradient; coords index the flattened encoder. The
    batch counts only if the cost, evaluated afresh once at the end, is lower
    than on entry; otherwise the input is returned. Returns (encoder, cost,
    log-ratio, moved).
    """
    start, a_in, ratio_in = cost, a, logratio
    lam_b = np.where(a >= _FREEZE_MASS, grad, np.inf).min(axis=0)
    ys, zs, ws = np.unravel_index(coords, a.shape)
    p = pzw[zs, ws]
    # the crossing is where P{Y=y, W=w} / P{Y=y} reaches k, which no mass
    # does when k >= 1
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        k = pw[ws] * np.exp((lam_b[zs, ws] - c[ys, zs, ws]) / (rho * p))
    a = a.copy()
    jyw = _joint_yw(pzw, a)
    py = jyw.sum(axis=1)
    fsums = [_xlogx_sum(col) for col in jyw.T] + [_xlogx_sum(py)]
    accepted = False
    for y, z, w, pv, kv in zip(ys.tolist(), zs.tolist(), ws.tolist(), p.tolist(), k.tolist()):
        if pv <= 0.0:
            # a zero-probability cell moves nothing; as P{W=w} >= P{z, w},
            # this also skips every secret of probability zero
            continue
        cur = a.item(y, z, w)
        own = pv * cur
        j0, p0 = jyw.item(y, w) - own, py.item(y) - own
        m = 0.5 if kv >= 1.0 else min(max((kv * p0 - j0) / (pv * (1.0 - kv)), _MASS_FLOOR), 0.5)
        if abs(math.log(m) - math.log(max(cur, _MASS_FLOOR))) < 1e-9:
            continue
        new, jw, py_new, f, delta = _price_crossing(
            c, pzw, pw, rho, a, jyw, py, fsums, y, z, w, m
        )
        if delta <= _cost_slack(cost):
            a[:, z, w], jyw[:, w], py = new, jw, py_new
            fsums[w], fsums[-1] = f
            cost += delta
            accepted = True
    if not accepted:
        return a_in, start, ratio_in, False
    cost, logratio = _objective_parts(c, pzw, _log_floored(pw), rho, a)
    if cost < start:
        return a, cost, logratio, True
    return a_in, start, ratio_in, False


def _row_rebalance(
    c: np.ndarray, pzw: np.ndarray, pw: np.ndarray, rho: float, a: np.ndarray,
    y: int, cost: float, logratio: np.ndarray, grad: np.ndarray, grad_tol: float,
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
    scale once. Accepted only if the cost is no worse. Returns (encoder,
    cost, log-ratio, moved).
    """
    r, m, q = a.shape
    log_pw, rho_pzw = _log_floored(pw), rho * pzw
    outside = a >= _FREEZE_MASS
    outside[y] = False
    lam_ex = np.where(outside, grad, np.inf).min(axis=0)
    cells = np.nonzero(pw > 0.0)[0]
    if cells.size == 0:
        return a, cost, logratio, False
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
    if float(np.abs(gap_after - gap_before).max()) >= 1e-9 and new_cost <= cost + _cost_slack(cost):
        return new_a, new_cost, new_ratio, True
    return a, cost, logratio, False


def _admit_growers(
    c: np.ndarray, pzw: np.ndarray, pw: np.ndarray, rho: float, a: np.ndarray,
    cost: float, logratio: np.ndarray, grad: np.ndarray, coords: np.ndarray,
):
    """Lift growers that no crossing lifted by one Newton step along their move.

    A crossing tracks only the grower's own gradient. In a heavy row that
    gradient moves slowly with the grower's mass, so the crossing lies far
    out, and the rest of the block, rescaled to make room, prices the move
    above its start. The move that sets a[y, z, w] = x and rescales the rest
    of its block is a line v in the block's column, with slope grad . v and
    curvature rho P{z, w}^2 sum_y' v_y'^2 (1 / P{Y=y', W=w} - 1 / P{Y=y'});
    each grower takes that line's Newton step, capped at mass 1/2. All of
    them move together from a's (y, w) joint, and the batch is evaluated
    once and kept only if it lowers the cost. Returns (encoder, cost,
    log-ratio, moved).
    """
    jyw = _joint_yw(pzw, a)
    py = jyw.sum(axis=1)
    cand = a.copy()
    for y, z, w in zip(*(ix.tolist() for ix in np.unravel_index(coords, a.shape))):
        p = pzw[z, w]
        if p <= 0.0:
            continue
        col = a[:, z, w]
        v = col / (col[y] - 1.0)
        v[y] = 1.0
        slope = float(grad[:, z, w] @ v)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            curv = rho * p * p * float((v * v) @ (1.0 / jyw[:, w] - 1.0 / py))
        if not slope < 0.0 < curv < math.inf:
            continue
        x = min(col[y] - slope / curv, 0.5)
        cand[:, z, w] = col * ((1.0 - x) / (1.0 - col[y]))
        cand[y, z, w] = x
    if np.array_equal(cand, a):
        return a, cost, logratio, False
    cand_cost, cand_ratio = _objective_parts(c, pzw, _log_floored(pw), rho, cand)
    if cand_cost < cost:
        return cand, cand_cost, cand_ratio, True
    return a, cost, logratio, False


def _lift(
    c: np.ndarray, pzw: np.ndarray, pw: np.ndarray, rho: float, a: np.ndarray,
    cost: float, logratio: np.ndarray, grad: np.ndarray, coords: np.ndarray,
    grad_tol: float,
):
    """Move the coordinates coords (flat indices) toward their stationary mass.

    A message row carrying less than _LIGHT_ROW is re-profiled whole
    (_row_rebalance); the other coordinates move to their crossings
    (_rescale_crossings) against block minima of the state they start from.
    Starts from a with its cost, log-ratio and gradient. Returns (encoder,
    cost, log-ratio, moved).
    """
    rows = coords // (a.shape[1] * a.shape[2])
    light = (pzw[None, :, :] * a).sum(axis=(1, 2))[rows] < _LIGHT_ROW
    lifted = False
    for y in np.unique(rows[light]).tolist():
        a, cost, logratio, moved = _row_rebalance(
            c, pzw, pw, rho, a, y, cost, logratio, grad, grad_tol
        )
        if moved:
            grad, lifted = _gradient(c, rho * pzw, logratio), True
    if not light.all():
        a, cost, logratio, moved = _rescale_crossings(
            c, pzw, pw, rho, a, cost, logratio, grad, coords[~light]
        )
        lifted |= moved
    return a, cost, logratio, lifted


def _newton_polish(
    c: np.ndarray, pzw: np.ndarray, pw: np.ndarray, rho: float, a: np.ndarray,
    cost: float, logratio: np.ndarray, settings: SolverSettings, budget: int,
):
    """Active-set Newton refinement on the product of simplex blocks.

    Starts from a with its cost and log-ratio (_objective_parts). Coordinates
    below the freeze mass are held fixed unless they want to grow, which
    lifts them (a light row by a whole-row rebalance, others by crossings or,
    where a crossing is rejected, by a Newton step along their move); the
    rest take damped Newton steps constrained to conserve each block's mass.
    A step that overshoots is first tried whole, with the shrinking
    coordinates it overshoots cut at the floor; otherwise a
    fraction-to-boundary rule keeps the iterate strictly positive. The
    stationarity gap is always measured over all coordinates, so freezing
    cannot fake convergence, and the phase stops once the summed gap meets
    grad_tol. Returns (encoder, cost, log-ratio, largest block gap,
    iterations, converged) after at most min(_POLISH_ITERS, budget)
    iterations; converged means the largest block gap meets grad_tol.
    """
    shape = a.shape
    log_pw, rho_pzw = _log_floored(pw), rho * pzw
    floored = np.maximum(a, _MASS_FLOOR)
    floored /= floored.sum(axis=0)[None, :, :]
    # an iterate that the floor and renormalization leave unchanged keeps the
    # evaluation it was handed with
    if not np.array_equal(floored, a):
        a = floored
        cost, logratio = _objective_parts(c, pzw, log_pw, rho, a)
    best = (np.inf, a, cost, logratio)
    lam = 1e-10
    basis = None

    def trial(flat):
        cand = np.maximum(flat.reshape(shape), _MASS_FLOOR)
        cand /= cand.sum(axis=0)[None, :, :]
        return (cand, *_objective_parts(c, pzw, log_pw, rho, cand))

    refused = None  # the last lift refused, and the iterate it was refused at

    def lift(a, cost, logratio, grad, coords):
        # the blockers a step leaves behind are often the next iteration's
        # growers; a lift refused at this very iterate would be refused again
        nonlocal refused
        if refused is not None and refused[0] is a and np.array_equal(refused[1], coords):
            return a, cost, logratio, False
        out = _lift(c, pzw, pw, rho, a, cost, logratio, grad, coords, settings.grad_tol)
        refused = None if out[3] else (a, coords)
        return out

    it = 0
    for it in range(1, min(_POLISH_ITERS, budget) + 1):
        grad = _gradient(c, rho_pzw, logratio)
        per_block = (a * grad).sum(axis=0) - grad.min(axis=0)
        gap = float(per_block.max())
        # the summed gap, which bounds the cost above the optimum, sets the
        # phase's own stop: near the answer a quadratic step closes it for
        # about the price of the largest one
        if float(per_block.sum()) <= settings.grad_tol:
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
            stuck = growers[a.reshape(-1)[growers] < _FREEZE_MASS]
            if stuck.size:
                a, cost, logratio, admitted = _admit_growers(
                    c, pzw, pw, rho, a, cost, logratio, grad, stuck
                )
                if admitted:
                    grad, lifted_here = _gradient(c, rho_pzw, logratio), True
                    heavy = a >= _FREEZE_MASS

        af, gf = a.reshape(-1), grad.reshape(-1)
        idx = np.flatnonzero(heavy)
        # the basis and its QR depend on the active set alone
        if basis is None or not np.array_equal(basis.heavy, heavy):
            basis = _active_set_basis(pzw, heavy)
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
            if tmax < 1.0 and lam <= 1.0:
                # an overshooting step, not yet damped into a short gradient
                # step: taken whole with the coordinates it overshoots cut at
                # the floor, if each of them wants to shrink, it finds in one
                # evaluation the active set that blocker crossings reach one
                # coordinate at a time. Heavier damping cut on a gradient's
                # say-so and churned (circulant5 at rho = 1e8)
                full = af.copy()
                full[idx] += d
                lam_b = np.where(heavy, grad, np.inf).min(axis=0)
                if np.all((grad > lam_b).reshape(-1)[full < _MASS_FLOOR]):
                    cand, cand_cost, cand_ratio = trial(full)
                    if cand_cost <= cost + 1e-4 * float(gf @ (cand.reshape(-1) - af)):
                        moved, adopted, cut = cand_cost < cost, True, True
                        a, cost, logratio = cand, cand_cost, cand_ratio
            # a step whose whole predicted decrease is below the rounding of a
            # cost that sums terms up to rho in size cannot be ranked by the
            # cost. Near the answer the certificate can: the first trial is
            # taken if it halves the largest block gap
            now = np.inf
            if not adopted and -slope <= 1e-15 * (abs(cost) + rho):
                now = _stationarity_gap(a, grad, grad.min(axis=0))
            for k in range(0 if adopted else 30):
                cf = af.copy()
                cf[idx] += t * d
                cand, cand_cost, cand_ratio = trial(cf)
                if cand_cost <= cost + 1e-4 * t * slope + _cost_slack(cost):
                    # a step inside the slack that lowers nothing is no move,
                    # or a stuck phase would spend its whole budget on them
                    moved, adopted = cand_cost < cost, True
                elif k == 0 and now <= _POLISH_AT:
                    cand_grad = _gradient(c, rho_pzw, cand_ratio)
                    moved = adopted = _stationarity_gap(cand, cand_grad, cand_grad.min(axis=0)) <= 0.5 * now
                if adopted:
                    a, cost, logratio = cand, cand_cost, cand_ratio
                    break
                t *= 0.5
            if tmax < 0.05 and not cut:
                # a boundary-pinned step leaves the blocking coordinates
                # crawling toward the face a fixed fraction per iteration;
                # crossing them directly removes the pin, and doubles as the
                # rescue move when the step itself was rejected
                order = np.argsort(ratios)
                blockers = idx[neg][order[ratios[order] < 0.05]]
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

    grad = _gradient(c, rho_pzw, logratio)
    gap = _stationarity_gap(a, grad, grad.min(axis=0))
    if best[0] < gap:
        gap, a, cost, logratio = best
    return a, cost, logratio, gap, it, gap <= settings.grad_tol


def _mirror_phase(
    c: np.ndarray, pzw: np.ndarray, pw: np.ndarray, rho: float, a: np.ndarray,
    cost: float, logratio: np.ndarray, settings: SolverSettings, budget: int,
    handoff: float, crawl: float,
):
    """Multiplicative-weights segment with Armijo backtracking.

    Starts from a with its cost and log-ratio (_objective_parts); the
    evaluation that accepts a step gives the next iterate's gradient. Runs
    until the gap tolerance, the handoff threshold, a crawl (a gap at most
    crawl that is more than half its value _STALL_PATIENCE iterations
    earlier), a stall, or the budget, and reports the best certified iterate
    seen; at the handoff or a crawl it returns the current iterate for the
    Newton phase. handoff and crawl 0 keep the phase to the end. Returns (a,
    cost, log-ratio, gap, used, converged).
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
        gap = _stationarity_gap(a, grad, low)
        if gap < best[0]:
            best = (gap, a, cost, logratio)
        if gap <= settings.grad_tol:
            return a, cost, logratio, gap, used - 1, True
        if gap <= handoff:
            return a, cost, logratio, gap, used - 1, False
        # a certificate that has not halved in _STALL_PATIENCE iterations is
        # crawling: the Newton phase closes it from here in fewer iterations
        gaps.append(gap)
        if gap <= crawl and len(gaps) > _STALL_PATIENCE and 2.0 * gap > gaps[-1 - _STALL_PATIENCE]:
            return a, cost, logratio, gap, used - 1, False
        if gap < 0.97 * anchor:
            anchor = gap
            stalled = 0

        shifted = grad - low
        new_a, new_cost, new_ratio = a, cost, logratio
        while True:
            cand = np.maximum(a * np.exp(-step * shifted), _MASS_FLOOR)
            cand /= cand.sum(axis=0)[None, :, :]
            cand_cost, cand_ratio = _objective_parts(c, pzw, log_pw, rho, cand)
            predicted = float((grad * (a - cand)).sum())
            if cand_cost <= cost - 1e-4 * predicted:
                new_a, new_cost, new_ratio = cand, cand_cost, cand_ratio
                break
            step *= 0.5
            if step < _TINY_STEP:
                break
        if step < _TINY_STEP:
            break
        rel_drop = (cost - new_cost) / max(1.0, abs(cost))
        a, cost, logratio = new_a, new_cost, new_ratio
        step = min(step * _STEP_GROWTH, _MAX_STEP)
        # objective progress routinely drops below measurable resolution while
        # the stationarity certificate is still improving, so stagnation only
        # counts when the certificate has flatlined too
        stalled = stalled + 1 if rel_drop <= settings.obj_tol else 0
        if stalled >= _STALL_PATIENCE:
            break

    grad = _gradient(c, rho_pzw, logratio)
    gap = _stationarity_gap(a, grad, grad.min(axis=0))
    if best[0] < gap:
        gap, a, cost, logratio = best
    return a, cost, logratio, gap, used, gap <= settings.grad_tol


def _minimize_over_blocks(
    c: np.ndarray, pzw: np.ndarray, pw: np.ndarray, rho: float, settings: SolverSettings,
    start: np.ndarray | None = None,
):
    """Minimize (c . a) + rho * leakage over the product of message simplices.

    Starts from the uniform encoder, or from start floored at _FREEZE_MASS
    and renormalized per block, so that every coordinate can still grow.
    Alternates a multiplicative-weights phase that shapes the support with
    an active-set Newton phase that closes the stationarity gap, keeping the
    best certified iterate across rounds; each phase hands the next its
    iterate's cost and log-ratio, so no encoder is evaluated again. A mirror
    phase hands off at _POLISH_AT or when its gap crawls below _CRAWL_AT,
    both lowered to 0.03 times the best gap after a stalled Newton phase.
    Above _POLISH_MAX_VARS coordinates it hands off only when it stalls.
    Returns (a, cost, iterations, converged, gap).
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

    best = (np.inf, a, cost)
    spent = 0
    while spent < settings.max_iters:
        round_entry = best[0]
        budget, handoff, crawl = settings.max_iters - spent, 0.0, 0.0
        if a.size <= _POLISH_MAX_VARS:
            # after a stalled Newton phase, re-shape the support until the
            # certificate is well below the best so far
            budget = min(_PHASE_ONE_CAP, budget)
            handoff = min(_POLISH_AT, 0.03 * best[0])
            crawl = min(_CRAWL_AT, 0.03 * best[0])
        a, cost, logratio, gap, used, conv = _mirror_phase(
            c, pzw, pw, rho, a, cost, logratio, settings, budget, handoff, crawl
        )
        spent += used
        if gap < best[0]:
            best = (gap, a, cost)
        if conv:
            return a, cost, spent, True, gap
        if spent >= settings.max_iters:
            break
        a, cost, logratio, gap, used, conv = _newton_polish(
            c, pzw, pw, rho, a, cost, logratio, settings, settings.max_iters - spent
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
    best response, so it is meaningful down to the solver's stationarity gap.
    """
    _check_epsilon(epsilon)
    return _nash_report(g, alpha, beta, epsilon, sender_best_response(g, beta, settings))
