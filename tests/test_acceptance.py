"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and then asserts, so the suite doubles as a readable checklist. Random seeds
are fixed; every expected value is either exact, derived from an independent
oracle coded here, or a declared tolerance band.
"""
import itertools
import math
import time

import numpy as np

from conftest import (
    circulant_game,
    random_game,
    random_receiver,
    random_sender,
)
from privsig.config import load_config, preset_text
from privsig.dynamics import best_response_dynamics, thresholded_dynamics
from privsig.game import (
    DistortionMatrix,
    GameInstance,
    ReceiverPolicy,
    SenderPolicy,
    expected_distortion,
    hamming_distortion,
    leakage,
    message_secret_joint,
    potential,
    receiver_cost,
    sender_cost,
)
from privsig.multi import (
    MultiGameInstance,
    MultiJoint,
    MultiReceiverPolicy,
    SenderPolicySet,
    epsilon_nash_check_multi,
    expected_distortion_multi,
    leakage_j,
    potential_multi,
    random_best_response_dynamics,
    receiver_best_response_multi,
    receiver_cost_multi,
    sender_best_response_multi,
    sender_cost_multi,
)
from privsig.prob import FiniteSpace, _mutual_information
from privsig.solve import (
    _linear_coeffs,
    babbling_equilibrium,
    epsilon_nash_check,
    explicit_equilibrium,
    receiver_best_response,
    sender_best_response,
    sender_cost_gradient,
)
from privsig.sweep import run_sweep, sweep_report


def _report(num: int, name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {verdict}{suffix}")
    assert ok, f"criterion {num} {name}: {detail}"


_SWEEP_CACHE: dict = {}


def _sweep():
    """The 101-point circulant sweep, shared between criteria 1 and 2."""
    if not _SWEEP_CACHE:
        cfg = load_config(preset_text("circulant5"))
        t0 = time.perf_counter()
        rows = run_sweep(cfg, "explicit")
        report = sweep_report(cfg, rows, "explicit")
        _SWEEP_CACHE.update(
            cfg=cfg, rows=rows, report=report, elapsed=time.perf_counter() - t0
        )
    return _SWEEP_CACHE


def _varied_game(rng):
    m = int(rng.integers(2, 5))
    q = int(rng.integers(2, 4))
    r = int(rng.integers(2, 5))
    return random_game(rng, m, q, r, float(rng.random() * 2.0))


def test_criterion_1_sweep_transition():
    data = _sweep()
    rows, report = data["rows"], data["report"]
    quiet = [r for r in rows if r.rho <= 0.3 + 1e-12]
    loud = [r for r in rows if r.rho >= 0.5 - 1e-12]
    quiet_ok = all(abs(r.expected_distortion) <= 1e-3 for r in quiet)
    loud_ok = all(r.expected_distortion > 0.05 for r in loud)
    crit = report["critical_rho"]
    window_ok = any(
        v is not None and 0.30 <= v <= 0.46 for v in crit.values()
    )
    nearest_ok = report.get("nearest_base") == "nats"
    time_ok = data["elapsed"] < 120.0
    _report(
        1,
        "distortion transition on the 101-point sweep",
        quiet_ok and loud_ok and window_ok and nearest_ok and time_ok,
        f"critical={ {k: None if v is None else round(v, 4) for k, v in crit.items()} }, "
        f"nearest_base={report.get('nearest_base')}, {data['elapsed']:.1f}s",
    )


def test_criterion_2_sweep_monotonicity():
    rows = _sweep()["rows"]
    xi_ok = all(
        later.expected_distortion >= earlier.expected_distortion - 1e-3
        for earlier, later in zip(rows, rows[1:])
    )
    zeta_ok = all(
        later.mutual_information <= earlier.mutual_information + 1e-3
        for earlier, later in zip(rows, rows[1:])
    )
    worst_xi = max(
        (e.expected_distortion - l.expected_distortion for e, l in zip(rows, rows[1:])),
        default=0.0,
    )
    worst_zeta = max(
        (l.mutual_information - e.mutual_information for e, l in zip(rows, rows[1:])),
        default=0.0,
    )
    _report(
        2,
        "distortion rises and leakage falls along the sweep",
        xi_ok and zeta_ok,
        f"worst xi drop={worst_xi:.2e}, worst leakage rise={worst_zeta:.2e}",
    )


def test_criterion_3_babbling_is_equilibrium():
    rng = np.random.default_rng(301)
    worst_gap = 0.0
    worst_stat = 0.0
    ok = True
    for _ in range(100):
        g = _varied_game(rng)
        alpha, beta = babbling_equilibrium(g)
        check = epsilon_nash_check(g, alpha, beta, 1e-9)
        ok = ok and check.member and check.sender_stationarity_gap <= 1e-8
        worst_gap = max(worst_gap, check.sender_gap, check.receiver_gap)
        worst_stat = max(worst_stat, check.sender_stationarity_gap)
    _report(
        3,
        "babbling passes the 1e-9 equilibrium check on 100 games",
        ok,
        f"worst gap={worst_gap:.2e}, worst stationarity={worst_stat:.2e}",
    )


def test_criterion_4_explicit_equilibrium():
    rng = np.random.default_rng(401)
    worst_gap = 0.0
    worst_dpi = -np.inf
    ok = True
    for _ in range(100):
        m = int(rng.integers(2, 5))
        q = int(rng.integers(2, 4))
        g = random_game(rng, m, q, m, float(rng.random() * 2.0))
        br, beta = explicit_equilibrium(g)
        alpha = br.policy
        check = epsilon_nash_check(g, alpha, beta, 1e-6)
        ok = ok and check.member
        worst_gap = max(worst_gap, check.sender_gap, check.receiver_gap)
        # any decoder is a processing of the message, so it cannot learn
        # more about the secret than the message carries
        jyw = message_secret_joint(g, alpha).p
        rand_b = random_receiver(rng, m, m)
        jxw = rand_b.b @ jyw
        dpi = _mutual_information(jxw) - _mutual_information(jyw)
        worst_dpi = max(worst_dpi, dpi)
        ok = ok and dpi <= 1e-10
    _report(
        4,
        "explicit construction is a 1e-6 equilibrium on 100 games",
        ok,
        f"worst gap={worst_gap:.2e}, worst processing excess={worst_dpi:.2e}",
    )


def test_criterion_5_potential_identities():
    rng = np.random.default_rng(501)
    worst = 0.0
    for _ in range(500):
        g = _varied_game(rng)
        r, m, q = g.y_space.size, g.x_space.size, g.w_space.size
        alpha, alpha2 = random_sender(rng, r, m, q), random_sender(rng, r, m, q)
        beta, beta2 = random_receiver(rng, m, r), random_receiver(rng, m, r)
        psi = potential(g, alpha, beta)
        dev = [
            abs(
                (potential(g, alpha2, beta) - psi)
                - (sender_cost(g, alpha2, beta) - sender_cost(g, alpha, beta))
            ),
            abs(
                (potential(g, alpha, beta2) - psi)
                - (receiver_cost(g, alpha, beta2) - receiver_cost(g, alpha, beta))
            ),
            abs(psi - sender_cost(g, alpha, beta)),
            abs(psi - receiver_cost(g, alpha, beta) - g.rho * leakage(g, alpha)),
        ]
        worst = max(worst, *dev)
    single_ok = worst <= 1e-10

    worst_multi = 0.0
    for _ in range(200):
        n_shape = (2, 2, 2, 2, 2)
        p = rng.random(n_shape) ** 2
        joint = MultiJoint(FiniteSpace(2), (FiniteSpace(2), FiniteSpace(2)), p / p.sum())
        d = rng.random((2, 2)) * (1.0 - np.eye(2))
        g = MultiGameInstance(
            joint, DistortionMatrix(d), (FiniteSpace(2), FiniteSpace(2)),
            float(rng.random() * 2.0),
        )
        alphas = SenderPolicySet(
            tuple(random_sender(rng, 2, 2, 2) for _ in range(2))
        )
        alphas2 = SenderPolicySet(
            tuple(random_sender(rng, 2, 2, 2) for _ in range(2))
        )
        b = rng.random((2, 2, 2)) + 0.05
        beta = MultiReceiverPolicy(b / b.sum(axis=0))
        b2 = rng.random((2, 2, 2)) + 0.05
        beta2 = MultiReceiverPolicy(b2 / b2.sum(axis=0))
        psi = potential_multi(g, alphas, beta)
        dev = []
        for j in range(2):
            moved = alphas.replace(j, alphas2[j])
            dev.append(
                abs(
                    (potential_multi(g, moved, beta) - psi)
                    - (
                        sender_cost_multi(g, moved, beta, j)
                        - sender_cost_multi(g, alphas, beta, j)
                    )
                )
            )
        dev.append(
            abs(
                (potential_multi(g, alphas, beta2) - psi)
                - (
                    receiver_cost_multi(g, alphas, beta2)
                    - receiver_cost_multi(g, alphas, beta)
                )
            )
        )
        zetas = sum(leakage_j(g, alphas, j) for j in range(2))
        dev.append(abs(psi - receiver_cost_multi(g, alphas, beta) - g.rho * zetas))
        worst_multi = max(worst_multi, *dev)
    multi_ok = worst_multi <= 1e-10
    _report(
        5,
        "potential differences equal cost differences",
        single_ok and multi_ok,
        f"single worst={worst:.2e} (500 pairs), multi worst={worst_multi:.2e} (200 pairs)",
    )


def test_criterion_6_dynamics_bounds():
    rng = np.random.default_rng(601)
    plain_ok = True
    bound_ok = True
    worst_rise = 0.0
    games = 0
    for _ in range(100):
        g = _varied_game(rng)
        r, m, q = g.y_space.size, g.x_space.size, g.w_space.size
        alpha0 = random_sender(rng, r, m, q)
        beta0 = random_receiver(rng, m, r)
        games += 1

        plain = best_response_dynamics(g, alpha0, beta0, 0.01)
        psis = [rec.potential for rec in plain.trajectory]
        for before, after in zip(psis, psis[1:]):
            worst_rise = max(worst_rise, after - before)
            plain_ok = plain_ok and after <= before + 1e-9

        psi0 = potential(g, alpha0, beta0)
        for eps in (0.01, 0.05, 0.1):
            rep = thresholded_dynamics(g, alpha0, beta0, eps)
            bound = math.ceil(3.0 + psi0 / eps)
            bound_ok = (
                bound_ok
                and rep.iteration_bound == bound
                and rep.iterations_used <= bound
                and rep.reached_eps_nash
            )
            psis = [rec.potential for rec in rep.trajectory]
            for before, after in zip(psis, psis[1:]):
                worst_rise = max(worst_rise, after - before)
                plain_ok = plain_ok and after <= before + 1e-9
    _report(
        6,
        "potential monotone and thresholded play respects its round bound",
        plain_ok and bound_ok,
        f"{games} games x (plain + 3 epsilons), worst potential rise={worst_rise:.2e}",
    )


def _grid_oracle_cost(g: GameInstance, beta: ReceiverPolicy) -> float:
    """Best sender cost in a 2x2x2 game by dense simplex search.

    Each of the four (z, w) blocks holds one free mass, so the feasible set is
    the unit 4-cube; a coarse grid plus two local refinements brackets the
    optimum well inside 1e-4.
    """
    c = _linear_coeffs(g, beta)
    pzw, pw = g.joint.pzw, g.joint.pw

    def batch_cost(t):
        a = np.empty((2, 2, 2, t.shape[1]))
        a[0, 0, 0], a[1, 0, 0] = t[0], 1.0 - t[0]
        a[0, 0, 1], a[1, 0, 1] = t[1], 1.0 - t[1]
        a[0, 1, 0], a[1, 1, 0] = t[2], 1.0 - t[2]
        a[0, 1, 1], a[1, 1, 1] = t[3], 1.0 - t[3]
        lin = np.einsum("yzw,yzwn->n", c, a)
        j = np.einsum("yzwn,zw->ywn", a, pzw)
        py = j.sum(axis=1)
        denom = np.maximum(py[:, None, :] * pw[None, :, None], 1e-300)
        mi = np.where(j > 0.0, j * np.log(np.maximum(j, 1e-300) / denom), 0.0)
        return lin + g.rho * mi.sum(axis=(0, 1))

    def best_on(axes):
        grids = np.meshgrid(*axes, indexing="ij")
        t = np.stack([grid.ravel() for grid in grids])
        costs = batch_cost(t)
        i = int(np.argmin(costs))
        return float(costs[i]), t[:, i]

    axes = [np.linspace(0.0, 1.0, 21)] * 4
    best, arg = best_on(axes)
    for width in (0.05, 0.005, 0.0005):
        axes = [np.clip(np.linspace(v - width, v + width, 11), 0.0, 1.0) for v in arg]
        cost, arg = best_on(axes)
        best = min(best, cost)
    return best


def test_criterion_7_binary_best_responses():
    rng = np.random.default_rng(701)
    worst_sender = 0.0
    receiver_exact = True
    ok = True
    for _ in range(25):
        g = random_game(rng, 2, 2, 2, float(rng.random() * 2.0))
        beta = random_receiver(rng, 2, 2)
        res = sender_best_response(g, beta)
        oracle = _grid_oracle_cost(g, beta)
        gap = abs(res.cost - oracle)
        worst_sender = max(worst_sender, gap)
        ok = ok and res.converged and gap <= 1e-4

        alpha = random_sender(rng, 2, 2, 2)
        br = receiver_best_response(g, alpha)
        br_cost = receiver_cost(g, alpha, br)
        lowest = min(
            receiver_cost(
                g, alpha, ReceiverPolicy.deterministic([e0, e1], 2)
            )
            for e0, e1 in itertools.product(range(2), repeat=2)
        )
        receiver_exact = receiver_exact and br_cost == lowest
    _report(
        7,
        "binary best responses match dense oracles",
        ok and receiver_exact,
        f"25 games, worst sender deviation={worst_sender:.2e}, receiver exact={receiver_exact}",
    )


def test_criterion_8_gradient_matches_finite_differences():
    rng = np.random.default_rng(801)

    def raw_cost(g, a, beta):
        # same off-simplex extension the analytic gradient uses: the secret
        # marginal is treated as a constant when coordinates move
        c = _linear_coeffs(g, beta)
        pzw, pw = g.joint.pzw, g.joint.pw
        jyw = np.einsum("yzw,zw->yw", a, pzw)
        py = jyw.sum(axis=1)
        ratio = np.where(jyw > 0.0, jyw / np.maximum(py[:, None] * pw[None, :], 1e-300), 1.0)
        ent = float((jyw * np.log(np.maximum(ratio, 1e-300))).sum())
        return float((c * a).sum()) + g.rho * ent

    worst = 0.0
    ok = True
    h = 1e-6
    for _ in range(100):
        g = _varied_game(rng)
        r, m, q = g.y_space.size, g.x_space.size, g.w_space.size
        alpha = random_sender(rng, r, m, q)
        beta = random_receiver(rng, m, r)
        grad = sender_cost_gradient(g, alpha, beta)
        fd = np.zeros_like(grad)
        a = alpha.a
        for idx in np.ndindex(a.shape):
            up, down = a.copy(), a.copy()
            up[idx] += h
            down[idx] -= h
            fd[idx] = (raw_cost(g, up, beta) - raw_cost(g, down, beta)) / (2.0 * h)
        rel = float(np.abs(grad - fd).max() / max(float(np.abs(fd).max()), 1e-12))
        worst = max(worst, rel)
        ok = ok and rel < 1e-5
    _report(
        8,
        "analytic gradient agrees with central differences",
        ok,
        f"100 interior points, worst relative error={worst:.2e}",
    )


def _two_sender_binary(rho: float = 0.3) -> MultiGameInstance:
    p = np.zeros((2, 2, 2, 2, 2))
    for x in range(2):
        for w1 in range(2):
            for w2 in range(2):
                f1 = 0.8 if w1 == x else 0.2
                f2 = 0.8 if w2 == x else 0.2
                p[x, x, x, w1, w2] = 0.5 * f1 * f2
    joint = MultiJoint(FiniteSpace(2), (FiniteSpace(2), FiniteSpace(2)), p)
    return MultiGameInstance(
        joint, hamming_distortion(2), (FiniteSpace(2), FiniteSpace(2)), rho
    )


def test_criterion_9_multi_sender():
    rng = np.random.default_rng(901)
    # n=1 reduction agrees with the single-sender pipeline
    single_worst = 0.0
    for _ in range(20):
        g = _varied_game(rng)
        gm = MultiGameInstance(
            MultiJoint(g.x_space, (g.w_space,), g.joint.p),
            g.distortion,
            (g.y_space,),
            g.rho,
        )
        r, m, q = g.y_space.size, g.x_space.size, g.w_space.size
        alpha = random_sender(rng, r, m, q)
        beta = random_receiver(rng, m, r)
        alphas = SenderPolicySet((alpha,))
        mbeta = MultiReceiverPolicy(beta.b)
        single_worst = max(
            single_worst,
            abs(
                expected_distortion_multi(gm, alphas, mbeta)
                - expected_distortion(g, alpha, beta)
            ),
            abs(leakage_j(gm, alphas, 0) - leakage(g, alpha)),
            abs(potential_multi(gm, alphas, mbeta) - potential(g, alpha, beta)),
            abs(
                receiver_cost_multi(gm, alphas, receiver_best_response_multi(gm, alphas))
                - receiver_cost(g, alpha, receiver_best_response(g, alpha))
            ),
            abs(
                sender_best_response_multi(gm, alphas, mbeta, 0).cost
                - sender_best_response(g, beta).cost
            ),
        )
    reduction_ok = single_worst <= 1e-10

    # n=2 distortion against the defining nested sum
    pair_worst = 0.0
    for _ in range(10):
        shape = (2, 2, 2, 2, 2)
        p = rng.random(shape) ** 2
        joint = MultiJoint(FiniteSpace(2), (FiniteSpace(2), FiniteSpace(2)), p / p.sum())
        g2 = MultiGameInstance(
            joint,
            DistortionMatrix(rng.random((2, 2)) * (1.0 - np.eye(2))),
            (FiniteSpace(2), FiniteSpace(2)),
            0.4,
        )
        alphas = SenderPolicySet(tuple(random_sender(rng, 2, 2, 2) for _ in range(2)))
        b = rng.random((2, 2, 2)) + 0.05
        beta = MultiReceiverPolicy(b / b.sum(axis=0))
        direct = 0.0
        for x, z1, z2, w1, w2 in np.ndindex(g2.joint.p.shape):
            mass = g2.joint.p[x, z1, z2, w1, w2]
            if mass == 0.0:
                continue
            for y1 in range(2):
                for y2 in range(2):
                    route = alphas[0].a[y1, z1, w1] * alphas[1].a[y2, z2, w2]
                    for xh in range(2):
                        direct += (
                            mass * route * beta.b[xh, y1, y2] * g2.distortion.d[x, xh]
                        )
        pair_worst = max(
            pair_worst, abs(expected_distortion_multi(g2, alphas, beta) - direct)
        )
    pair_ok = pair_worst <= 1e-12

    # 200 seeded randomized runs on the fixed binary game, all audited
    g = _two_sender_binary()
    eps = 0.05
    runs_ok = True
    worst_audit = 0.0
    t0 = time.perf_counter()
    for seed in range(200):
        gen = np.random.default_rng(10_000 + seed)
        alphas0 = SenderPolicySet(
            tuple(random_sender(gen, 2, 2, 2) for _ in range(2))
        )
        b = gen.random((2, 2, 2)) + 0.05
        beta0 = MultiReceiverPolicy(b / b.sum(axis=0))
        psi0 = potential_multi(g, alphas0, beta0)
        cap = 10 * (g.n + 1) * math.ceil(3.0 + psi0 / eps)
        rep = random_best_response_dynamics(
            g, alphas0, beta0, eps, max_rounds=cap, seed=seed
        )
        audit = epsilon_nash_check_multi(g, *rep.final_pair, eps)
        runs_ok = runs_ok and rep.reached_eps_nash and audit.member
        worst_audit = max(worst_audit, audit.receiver_gap, *audit.sender_gaps)
    elapsed = time.perf_counter() - t0
    _report(
        9,
        "multi-sender reductions and randomized play",
        reduction_ok and pair_ok and runs_ok,
        f"n=1 worst={single_worst:.2e}, n=2 worst={pair_worst:.2e}, "
        f"200 runs worst audited gap={worst_audit:.2e} in {elapsed:.1f}s",
    )
