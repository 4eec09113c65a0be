import itertools
import math

import numpy as np
import pytest

from conftest import (
    circulant_game,
    random_game,
    random_receiver,
    random_sender,
    recorded_checks,
)
from privsig import multi as multi_module
from privsig.game import (
    DistortionMatrix,
    ReceiverPolicy,
    SenderPolicy,
    hamming_distortion,
    sender_cost,
)
from privsig.multi import (
    MAX_SENDERS,
    _distortion_table,
    _linear_coeffs_multi,
    MultiGameInstance,
    MultiJoint,
    MultiReceiverPolicy,
    SenderPolicySet,
    coalition_leakage,
    default_initial_state_multi,
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
from privsig.prob import FiniteSpace
from privsig import solve as solve_module
from privsig.solve import (
    BestResponseResult,
    _block_gaps,
    _Problem,
    epsilon_nash_check,
    receiver_best_response,
    sender_best_response,
)

# ---------------------------------------------------------------- fixtures


def lift_single(g):
    """Wrap a single-sender game as the n=1 multi game over the same tensor."""
    joint = MultiJoint(g.x_space, (g.w_space,), g.joint.p)
    return MultiGameInstance(joint, g.distortion, (g.y_space,), g.rho)


def random_multi(rng, m, w_sizes, y_sizes, rho):
    n = len(w_sizes)
    shape = (m,) + (m,) * n + tuple(w_sizes)
    p = rng.random(shape) ** 2
    joint = MultiJoint(FiniteSpace(m), tuple(FiniteSpace(w) for w in w_sizes), p / p.sum())
    d = rng.random((m, m)) * (1.0 - np.eye(m))
    return MultiGameInstance(
        joint, DistortionMatrix(d), tuple(FiniteSpace(y) for y in y_sizes), rho
    )


def random_state(rng, g):
    alphas = SenderPolicySet(
        tuple(
            random_sender(rng, g.y_spaces[i].size, g.joint.x_space.size, g.joint.w_spaces[i].size)
            for i in range(g.n)
        )
    )
    b = rng.random((g.joint.x_space.size,) + tuple(s.size for s in g.y_spaces)) + 0.05
    return alphas, MultiReceiverPolicy(b / b.sum(axis=0))


def binary_senders(n: int, rho: float = 0.3) -> MultiGameInstance:
    # uniform binary state observed perfectly by every sender; each secret
    # agrees with the state with probability 0.8, independently
    p = np.zeros((2,) * (1 + 2 * n))
    for x in range(2):
        for ws in itertools.product(range(2), repeat=n):
            mass = 0.5
            for w in ws:
                mass *= 0.8 if w == x else 0.2
            p[(x,) * (1 + n) + ws] = mass
    joint = MultiJoint(FiniteSpace(2), (FiniteSpace(2),) * n, p)
    return MultiGameInstance(joint, hamming_distortion(2), (FiniteSpace(2),) * n, rho)


def two_sender_binary(rho: float = 0.3) -> MultiGameInstance:
    return binary_senders(2, rho)


# ----------------------------------------------------------------- oracles


def xi_multi_oracle_n2(g, alphas, beta) -> float:
    """Distortion for two senders, straight from the defining sum."""
    p = g.joint.p
    a1, a2 = alphas[0].a, alphas[1].a
    b = beta.b
    d = g.distortion.d
    total = 0.0
    m = p.shape[0]
    w1s, w2s = p.shape[3], p.shape[4]
    r1, r2 = a1.shape[0], a2.shape[0]
    for x in range(m):
        for z1 in range(m):
            for z2 in range(m):
                for w1 in range(w1s):
                    for w2 in range(w2s):
                        mass = p[x, z1, z2, w1, w2]
                        if mass == 0.0:
                            continue
                        for y1 in range(r1):
                            for y2 in range(r2):
                                route = a1[y1, z1, w1] * a2[y2, z2, w2]
                                if route == 0.0:
                                    continue
                                est = sum(
                                    b[xh, y1, y2] * d[x, xh] for xh in range(m)
                                )
                                total += mass * route * est
    return total


def leakage_oracle(g, alphas, j) -> float:
    """I(Y_j; W_j) from an explicitly assembled pair joint."""
    pzw = g.joint.pzw(j)
    a = alphas[j].a
    r, m, q = a.shape
    pair = np.zeros((r, q))
    for y in range(r):
        for z in range(m):
            for w in range(q):
                pair[y, w] += a[y, z, w] * pzw[z, w]
    py = pair.sum(axis=1)
    pw = pair.sum(axis=0)
    out = 0.0
    for y in range(r):
        for w in range(q):
            if pair[y, w] > 0.0:
                out += pair[y, w] * math.log(pair[y, w] / (py[y] * pw[w]))
    return out


def state_message_secret_oracle(g, alphas, j) -> np.ndarray:
    """P{X, Y_1..Y_n, W_j} for any n, one term of the defining sum at a time."""
    p = g.joint.p
    n = g.n
    m = p.shape[0]
    ys = [a.a.shape[0] for a in alphas.policies]
    out = np.zeros([m] + ys + [p.shape[1 + n + j]])
    for idx in itertools.product(*(range(s) for s in p.shape)):
        mass = p[idx]
        if mass == 0.0:
            continue
        x, zs, ws = idx[0], idx[1 : 1 + n], idx[1 + n :]
        for msg in itertools.product(*(range(r) for r in ys)):
            route = 1.0
            for i in range(n):
                route *= alphas[i].a[msg[i], zs[i], ws[i]]
            out[(x,) + msg + (ws[j],)] += mass * route
    return out


def xi_multi_oracle(g, alphas, beta) -> float:
    """Distortion for any n, from the defining sum over states and messages."""
    q = state_message_secret_oracle(g, alphas, 0).sum(axis=-1)
    d, b = g.distortion.d, beta.b
    total = 0.0
    for idx in itertools.product(*(range(s) for s in q.shape)):
        x, msg = idx[0], idx[1:]
        for xh in range(d.shape[1]):
            total += q[idx] * b[(xh,) + msg] * d[x, xh]
    return total


def coalition_leakage_oracle(g, alphas, j) -> float:
    """I(Y_1..Y_n; W_j) from an explicitly assembled (Y_1..Y_n, W_j) joint."""
    joint = state_message_secret_oracle(g, alphas, j).sum(axis=0)
    py = joint.sum(axis=-1)
    pw = joint.reshape(-1, joint.shape[-1]).sum(axis=0)
    out = 0.0
    for idx in itertools.product(*(range(s) for s in joint.shape)):
        if joint[idx] > 0.0:
            out += joint[idx] * math.log(joint[idx] / (py[idx[:-1]] * pw[idx[-1]]))
    return out


# ----------------------------------------------- single-sender consistency


def test_n1_matches_single_sender_pipeline(rng):
    for _ in range(5):
        g = random_game(rng, 3, 2, 3, float(rng.random() * 1.5))
        gm = lift_single(g)
        alpha = random_sender(rng, 3, 3, 2)
        beta = random_receiver(rng, 3, 3)
        alphas = SenderPolicySet((alpha,))
        mbeta = MultiReceiverPolicy(beta.b)

        from privsig.game import expected_distortion, leakage, potential, sender_cost

        assert expected_distortion_multi(gm, alphas, mbeta) == pytest.approx(
            expected_distortion(g, alpha, beta), abs=1e-10
        )
        assert leakage_j(gm, alphas, 0) == pytest.approx(leakage(g, alpha), abs=1e-10)
        assert potential_multi(gm, alphas, mbeta) == pytest.approx(
            potential(g, alpha, beta), abs=1e-10
        )
        assert sender_cost_multi(gm, alphas, mbeta, 0) == pytest.approx(
            sender_cost(g, alpha, beta), abs=1e-10
        )

        br_multi = receiver_best_response_multi(gm, alphas)
        br_single = receiver_best_response(g, alpha)
        np.testing.assert_allclose(br_multi.b, br_single.b, atol=1e-10)

        res_multi = sender_best_response_multi(gm, alphas, mbeta, 0)
        res_single = sender_best_response(g, beta)
        assert res_multi.converged and res_single.converged
        assert res_multi.cost == pytest.approx(res_single.cost, abs=1e-10)


# ----------------------------------------------------------- two senders


def test_distortion_matches_nested_loop_oracle(rng):
    for _ in range(4):
        g = random_multi(rng, 2, (2, 2), (2, 2), 0.5)
        alphas, beta = random_state(rng, g)
        got = expected_distortion_multi(g, alphas, beta)
        assert got == pytest.approx(xi_multi_oracle_n2(g, alphas, beta), abs=1e-12)


def test_three_sender_contractions_match_oracles(rng):
    # unequal alphabets, so a contraction over the wrong axis fails on shape
    # or on value; the linear coefficients and the coalition joint leave one
    # sender's axes out of the contraction
    g = random_multi(rng, 3, (2, 3, 2), (3, 2, 2), 0.7)
    alphas, beta = random_state(rng, g)
    xi = expected_distortion_multi(g, alphas, beta)
    assert xi == pytest.approx(xi_multi_oracle(g, alphas, beta), abs=1e-12)
    other, _ = random_state(rng, g)
    table = _distortion_table(g, beta)
    for j in range(3):
        c = _linear_coeffs_multi(g, alphas, table, j)
        assert (c * alphas[j].a).sum() == pytest.approx(xi, abs=1e-12)
        moved = alphas.replace(j, other[j])
        assert (c * other[j].a).sum() == pytest.approx(
            expected_distortion_multi(g, moved, beta), abs=1e-12
        )
        assert coalition_leakage(g, alphas, j) == pytest.approx(
            coalition_leakage_oracle(g, alphas, j), abs=1e-12
        )


def test_leakage_j_matches_oracle(rng):
    g = random_multi(rng, 3, (2, 4), (3, 2), 0.5)
    alphas, _ = random_state(rng, g)
    for j in range(2):
        assert leakage_j(g, alphas, j) == pytest.approx(
            leakage_oracle(g, alphas, j), abs=1e-12
        )


def test_potential_difference_identities():
    # a unilateral move changes the mover's cost and the potential by the
    # same amount, for every sender and the receiver, at n = 1, 2 and 3 with
    # unequal alphabets
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.integers(1, 3), st.integers(2, 3), st.floats(0.0, 2.0), st.integers(0, 2**32 - 1)
    )
    def check(n, m, rho, seed):
        gen = np.random.default_rng(seed)
        w_sizes = tuple(int(w) for w in gen.integers(1, 4, size=n))
        y_sizes = tuple(int(y) for y in gen.integers(2, 4, size=n))
        g = random_multi(gen, m, w_sizes, y_sizes, rho)
        alphas, beta = random_state(gen, g)
        other, other_beta = random_state(gen, g)
        psi = potential_multi(g, alphas, beta)
        for j in range(n):
            moved = alphas.replace(j, other[j])
            own = sender_cost_multi(g, moved, beta, j) - sender_cost_multi(g, alphas, beta, j)
            assert potential_multi(g, moved, beta) - psi == pytest.approx(own, abs=1e-10)
        own = receiver_cost_multi(g, alphas, other_beta) - receiver_cost_multi(g, alphas, beta)
        assert potential_multi(g, alphas, other_beta) - psi == pytest.approx(own, abs=1e-10)

    check()


def test_potential_decomposition(rng):
    g = random_multi(rng, 3, (2, 2), (2, 3), 1.3)
    alphas, beta = random_state(rng, g)
    v = receiver_cost_multi(g, alphas, beta)
    zetas = sum(leakage_j(g, alphas, j) for j in range(2))
    assert potential_multi(g, alphas, beta) == pytest.approx(v + 1.3 * zetas, abs=1e-12)


def test_receiver_best_response_matches_enumeration(rng):
    g = random_multi(rng, 2, (2, 2), (2, 2), 0.5)
    alphas, _ = random_state(rng, g)
    best = receiver_best_response_multi(g, alphas)
    best_cost = receiver_cost_multi(g, alphas, best)
    tuples = list(itertools.product(range(2), range(2)))
    lowest = np.inf
    for assignment in itertools.product(range(2), repeat=len(tuples)):
        b = np.zeros((2, 2, 2))
        for (y1, y2), xh in zip(tuples, assignment):
            b[xh, y1, y2] = 1.0
        lowest = min(lowest, receiver_cost_multi(g, alphas, MultiReceiverPolicy(b)))
    assert best_cost == pytest.approx(lowest, abs=1e-12)


def test_sender_best_response_rho_zero_matches_enumeration(rng):
    # with no privacy term the best response is a vertex, so enumerating all
    # deterministic encoders of one sender is a complete oracle
    g = random_multi(rng, 2, (2, 2), (2, 2), 0.0)
    alphas, beta = random_state(rng, g)
    res = sender_best_response_multi(g, alphas, beta, 0)
    assert res.converged
    cells = list(itertools.product(range(2), range(2)))
    lowest = np.inf
    for assignment in itertools.product(range(2), repeat=len(cells)):
        a = np.zeros((2, 2, 2))
        for (z, w), y in zip(cells, assignment):
            a[y, z, w] = 1.0
        trial = alphas.replace(0, SenderPolicy(a))
        lowest = min(lowest, sender_cost_multi(g, trial, beta, 0))
    assert res.cost == pytest.approx(lowest, abs=1e-12)


def test_sender_best_response_huge_rho_goes_quiet(rng):
    g = random_multi(rng, 2, (2, 2), (2, 2), 1e3)
    alphas, beta = random_state(rng, g)
    res = sender_best_response_multi(g, alphas, beta, 0)
    assert res.converged
    assert leakage_j(g, alphas.replace(0, res.policy), 0) < 1e-6


def test_coalition_leakage_dominates_own_channel(rng):
    for _ in range(5):
        g = random_multi(rng, 2, (2, 3), (2, 2), 0.4)
        alphas, _ = random_state(rng, g)
        for j in range(2):
            assert coalition_leakage(g, alphas, j) >= leakage_j(g, alphas, j) - 1e-10


# ---------------------------------------------------------------- dynamics


def test_randomized_dynamics_same_seed_same_trajectory():
    g = two_sender_binary()
    gen = np.random.default_rng(77)
    alphas0, beta0 = random_state(gen, g)
    one = random_best_response_dynamics(g, alphas0, beta0, 0.05, seed=5)
    two = random_best_response_dynamics(g, alphas0, beta0, 0.05, seed=5)
    assert one.iterations_used == two.iterations_used
    assert [
        (r.k, r.mover, r.potential, r.accepted) for r in one.trajectory
    ] == [(r.k, r.mover, r.potential, r.accepted) for r in two.trajectory]


@pytest.mark.parametrize("n", [2, 3])
def test_randomized_dynamics_trajectory_bookkeeping(n):
    # play keeps the distortion and the leakages between rounds instead of
    # re-evaluating them; the first and last rows must still match fresh
    # evaluations of the start and of the final state
    gen = np.random.default_rng(11 + n)
    g = random_multi(gen, 2, (2,) * n, (2,) * n, 0.4)
    alphas0, beta0 = random_state(gen, g)
    report = random_best_response_dynamics(g, alphas0, beta0, 0.02, seed=n)
    # both kinds of move, the last one a sender's, so no receiver move
    # re-evaluates the distortion after it
    moved = [rec.mover.split("_")[0] for rec in report.trajectory[1:] if rec.accepted]
    assert set(moved) == {"sender", "receiver"} and moved[-1] == "sender"
    first, last = report.trajectory[0], report.trajectory[-1]
    psi0 = potential_multi(g, alphas0, beta0)
    assert first.potential == pytest.approx(psi0, abs=1e-12)
    assert first.sender_cost == pytest.approx(psi0, abs=1e-12)
    final = report.final_pair
    assert last.potential == pytest.approx(potential_multi(g, *final), abs=1e-12)
    assert last.receiver_cost == pytest.approx(receiver_cost_multi(g, *final), abs=1e-12)


def test_randomized_dynamics_from_quiet_start_freezes():
    g = two_sender_binary()
    alphas0, beta0 = default_initial_state_multi(g)
    report = random_best_response_dynamics(g, alphas0, beta0, 0.05, seed=1)
    assert report.reached_eps_nash
    assert all(not rec.accepted for rec in report.trajectory if rec.k > 0)


def test_randomized_dynamics_accepted_moves_beat_epsilon():
    g = two_sender_binary()
    gen = np.random.default_rng(13)
    alphas0, beta0 = random_state(gen, g)
    eps = 0.05
    report = random_best_response_dynamics(g, alphas0, beta0, eps, seed=3)
    assert report.reached_eps_nash
    psis = [rec.potential for rec in report.trajectory]
    for rec, before, after in zip(report.trajectory[1:], psis, psis[1:]):
        if rec.accepted:
            assert before - after > eps - 1e-9
        else:
            assert after == pytest.approx(before, abs=1e-12)


def test_randomized_dynamics_terminal_state_passes_audit():
    g = two_sender_binary()
    for seed in range(10):
        gen = np.random.default_rng(1000 + seed)
        alphas0, beta0 = random_state(gen, g)
        report = random_best_response_dynamics(g, alphas0, beta0, 0.05, seed=seed)
        assert report.reached_eps_nash
        audit = epsilon_nash_check_multi(g, *report.final_pair, 0.05)
        assert audit.member
        assert audit.receiver_gap <= 0.05
        assert all(gap <= 0.05 for gap in audit.sender_gaps)


def test_randomized_dynamics_rho_zero_reaches_low_distortion():
    g = two_sender_binary(rho=0.0)
    gen = np.random.default_rng(4)
    alphas0, beta0 = random_state(gen, g)
    report = random_best_response_dynamics(g, alphas0, beta0, 0.01, seed=9)
    assert report.reached_eps_nash
    # both senders see the state perfectly, so play settles essentially at zero
    assert receiver_cost_multi(g, *report.final_pair) <= 0.01


# ------------------------------------------------ skipped and reused solves


def play_fingerprint(report):
    """Every trajectory row, the final policies' bytes and the verdict."""
    alphas, beta = report.final_pair
    return (
        [(r.k, r.mover, r.potential, r.sender_cost, r.receiver_cost, r.accepted)
         for r in report.trajectory],
        b"".join(pol.a.tobytes() for pol in alphas.policies) + beta.b.tobytes(),
        report.reached_eps_nash,
    )


def skip_cases():
    """(name, game, encoders, decoder, seed): seeded n = 2 and n = 3 games at
    rho 0.4, the binary game at rho 0, and a rho > 0 start whose first
    encoder has zero entries and leaves message 1 unused under secret 0."""
    cases = []
    # draws whose play adopts moves of both kinds before it freezes
    for n, draw in ((2, 45), (3, 31)):
        gen = np.random.default_rng(draw)
        g = random_multi(gen, 2, (2,) * n, (2,) * n, 0.4)
        cases.append((f"n{n}", g, *random_state(gen, g), n))
    g = two_sender_binary(rho=0.0)
    cases.append(("rho0", g, *random_state(np.random.default_rng(4), g), 9))
    g = two_sender_binary()
    alphas, beta = random_state(np.random.default_rng(13), g)
    a = alphas[0].a.copy()
    a[:, :, 0] = ((1.0, 1.0), (0.0, 0.0))
    cases.append(("zero_entry", g, alphas.replace(0, SenderPolicy(a)), beta, 3))
    return cases


def full_reference(c, pzw, pw, rho, alpha, own, epsilon, settings, start=None):
    """_improvement_reference's stand-in: the leakage-blind encoder when its
    summed gap makes it a best response, else a full unfloored best
    response, started from play's continuation chain."""
    prob = _Problem(c, pzw, pw, rho)
    blind = solve_module._blind_encoder(c, rho)
    cost, gap = prob.certificate(blind)
    if gap <= settings.grad_tol:
        return BestResponseResult(SenderPolicy(blind), cost, 0, True, gap)
    return solve_module._minimize_over_blocks(prob, settings, start)


def test_certificate_skip_leaves_play_unchanged(monkeypatch):
    # play decides each sender check by the encoder's own gap, the
    # leakage-blind encoder's gap or a floored solve; with a best response
    # at every check that takes the blind encoder first when it is one, and
    # else solves in full from the same continuation chain, it takes the
    # same path. Two best responses can differ along a flat face of the
    # cost (the n2 case adopts the blind always-message-0 encoder where a
    # solve ends at the uniform one, at the same cost), so the stand-in
    # accepts the blind one first as play does
    eps = 0.02
    decide = multi_module._improvement_reference
    skips, floored, zero_solves = {}, {}, {}

    for name, g, alphas0, beta0, seed in skip_cases():
        skips[name], floored[name], zero_solves[name] = 0, 0, 0

        def counted(c, pzw, pw, rho, alpha, own, epsilon, settings, start=None):
            ref = decide(c, pzw, pw, rho, alpha, own, epsilon, settings, start)
            skipped = ref.policy is alpha
            skips[name] += skipped
            floored[name] += not skipped and own - ref.cost <= epsilon
            if rho > 0.0 and not np.einsum("yzw,zw->yw", alpha.a, pzw)[:, pw > 0.0].all():
                # an emptied (y, w) cell leaves the cost without a gradient,
                # so even an epsilon above any gap is decided by a solve
                assert decide(c, pzw, pw, rho, alpha, own, 1e9, settings).policy is not alpha
                zero_solves[name] += 1
            return ref

        monkeypatch.setattr(multi_module, "_improvement_reference", counted)
        decided = random_best_response_dynamics(g, alphas0, beta0, eps, seed=seed)
        monkeypatch.setattr(multi_module, "_improvement_reference", full_reference)
        solved = random_best_response_dynamics(g, alphas0, beta0, eps, seed=seed)
        assert play_fingerprint(decided) == play_fingerprint(solved)
        assert decided.reached_eps_nash

    assert all(count > 0 for count in skips.values()), skips
    assert sum(floored.values()) > 0, floored
    # the start's encoder with an emptied cell faced a solve when its sender
    # was drawn
    assert zero_solves["zero_entry"] > 0


def binary_cases():
    """(game, encoders, decoder, seed): seeded random starts of the n = 2
    and n = 3 binary games, whose senders share one P{Z, W}."""
    cases = []
    for n in (2, 3):
        g = binary_senders(n)
        for seed in range(8):
            cases.append((g, *random_state(np.random.default_rng(seed), g), seed))
    return cases


def screened_checks(monkeypatch, decide, checks):
    """decide (an _improvement_reference), appending (adopts, summed gap,
    grad_tol) to checks for each check that the leakage-blind encoder
    decided: one that returned another encoder than alpha without a solve."""
    solves = []
    minimize = solve_module._minimize_over_blocks

    def counted(*args, **kwargs):
        solves.append(1)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(solve_module, "_minimize_over_blocks", counted)

    def wrapper(c, pzw, pw, rho, alpha, own, epsilon, settings, start=None):
        before = len(solves)
        ref = decide(c, pzw, pw, rho, alpha, own, epsilon, settings, start)
        if ref.policy is not alpha and len(solves) == before:
            checks.append((own - ref.cost > epsilon, ref.stationarity_gap, settings.grad_tol))
        return ref
    return wrapper


def test_blind_encoder_decides_binary_checks_without_a_solve(monkeypatch):
    # in the binary games the leakage-blind encoder often loads one message
    # everywhere, which leaks nothing and is a best response, or proves that
    # no move gains more than epsilon; either decides the check without a
    # solve, and an adopted blind answer is certified within grad_tol
    checks = []
    monkeypatch.setattr(multi_module, "_improvement_reference", screened_checks(
        monkeypatch, multi_module._improvement_reference, checks))
    for g, alphas0, beta0, seed in binary_cases():
        assert random_best_response_dynamics(g, alphas0, beta0, 0.05, seed=seed).reached_eps_nash
    adopted = [(gap, tol) for adopts, gap, tol in checks if adopts]
    assert adopted and len(adopted) < len(checks), checks
    assert all(gap <= tol for gap, tol in adopted), adopted


def test_only_an_adoption_advances_the_chain(monkeypatch):
    # each sender check's solve starts from play's chain, which carries a
    # mirror step and a Newton basis but no encoder, and updates a copy of
    # it; play keeps that copy only when it adopts, so a floored solve that
    # rejects leaves the chain's step and basis as they were
    decide = multi_module._improvement_reference
    counts = dict.fromkeys(("adopted", "rejected_solves", "rejected_moves", "kept_basis"), 0)
    cases = [case[1:] for case in skip_cases()] + binary_cases()
    for g, alphas0, beta0, seed in cases:
        checks = []

        def recorded(c, pzw, pw, rho, alpha, own, epsilon, settings, start=None):
            assert start.a is None
            before = (start.step, start.basis)
            ref = decide(c, pzw, pw, rho, alpha, own, epsilon, settings, start)
            checks.append((before, (start.step, start.basis), own - ref.cost > epsilon, ref.iterations))
            return ref

        monkeypatch.setattr(multi_module, "_improvement_reference", recorded)
        assert random_best_response_dynamics(g, alphas0, beta0, 0.05, seed=seed).reached_eps_nash
        chain = (None, None)
        for before, after, adopts, iterations in checks:
            assert before[0] is chain[0] and before[1] is chain[1]
            counts["kept_basis"] += before[1] is not None
            if adopts:
                chain = after
                counts["adopted"] += 1
            elif iterations:
                # a floored solve that took steps before it proved the
                # bound moved its own copy, which play let go
                counts["rejected_solves"] += 1
                counts["rejected_moves"] += after[0] is not before[0] or after[1] is not before[1]
    assert all(counts.values()), counts
    assert counts["rejected_moves"] == counts["rejected_solves"], counts


def test_chained_play_spends_fewer_solver_iterations(monkeypatch):
    # the senders of the binary games share rho and P{Z, W}, so a solve
    # that starts from the last adopted answer's step and basis skips part
    # of the step ladder's climb from step_init (303 iterations against
    # 320 cold here, 407 against 449 when the mirror phase waited for a
    # largest gap of 1e-5; the checks whose answer is the leakage-blind
    # encoder, where the chain saved most, are decided without a solve);
    # every play still reaches an equilibrium
    decide, minimize = multi_module._improvement_reference, solve_module._minimize_over_blocks
    spent = {}

    def counted(*args, **kwargs):
        out = minimize(*args, **kwargs)
        spent[mode] += out.iterations
        return out

    def cold(c, pzw, pw, rho, alpha, own, epsilon, settings, start=None):
        return decide(c, pzw, pw, rho, alpha, own, epsilon, settings)

    monkeypatch.setattr(solve_module, "_minimize_over_blocks", counted)
    for mode, check in (("chained", decide), ("cold", cold)):
        spent[mode] = 0
        monkeypatch.setattr(multi_module, "_improvement_reference", check)
        for g, alphas0, beta0, seed in binary_cases():
            assert random_best_response_dynamics(g, alphas0, beta0, 0.05, seed=seed).reached_eps_nash
    assert spent["chained"] <= 0.96 * spent["cold"], spent


def test_chained_play_is_deterministic():
    # the chain lives in one play: the same start and seed give the same
    # bytes, whatever ran in between
    cases = binary_cases()[::4]
    first = [play_fingerprint(random_best_response_dynamics(g, a, b, 0.05, seed=s))
             for g, a, b, s in cases]
    second = [play_fingerprint(random_best_response_dynamics(g, a, b, 0.05, seed=s))
              for g, a, b, s in reversed(cases)]
    assert first == second[::-1]


def test_uncertified_adoption_leaves_its_mover_unfrozen(monkeypatch):
    # with certified answers some play ends with a sender whose last check
    # adopted, frozen since; an adopted answer not certified within epsilon
    # leaves its sender to be checked again before play is reached, so
    # that every sender's last check is a rejection
    decide = multi_module._improvement_reference
    ended_on_adoption = 0
    for name, g, alphas0, beta0, seed in skip_cases():
        for inflate in (False, True):
            calls = []
            monkeypatch.setattr(
                multi_module, "_improvement_reference", recorded_checks(decide, calls, inflate)
            )
            report = random_best_response_dynamics(g, alphas0, beta0, 0.02, seed=seed)
            assert report.reached_eps_nash
            # each sender's last check, senders keyed by their P{Z, W}
            last = dict(calls).values()
            if inflate:
                assert not any(last)
            else:
                ended_on_adoption += any(last)
    assert ended_on_adoption > 0


def counted(counts, name, inner):
    """inner, counting its calls under name."""
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return inner(*args, **kwargs)
    return wrapper


def test_play_computes_each_checks_coefficients_once(monkeypatch):
    # a drawn sender's check computes its distortion coefficients once, and
    # play builds one distortion table per decoder: the start's and each
    # receiver check's candidate
    eps = 0.02
    counts = dict.fromkeys(("coeffs", "checks", "tables", "receiver"), 0)
    for name, fn in (
        ("coeffs", "_linear_coeffs_multi"), ("checks", "_improvement_reference"),
        ("tables", "_distortion_table"), ("receiver", "receiver_best_response_multi"),
    ):
        monkeypatch.setattr(multi_module, fn, counted(counts, name, getattr(multi_module, fn)))
    plays = 0
    for name, g, alphas0, beta0, seed in skip_cases():
        random_best_response_dynamics(g, alphas0, beta0, eps, seed=seed)
        plays += 1
    assert 0 < counts["coeffs"] == counts["checks"], counts
    assert 0 < counts["receiver"] and counts["tables"] == plays + counts["receiver"], counts


def test_joint_marginals_are_cached_read_only(rng):
    g = random_multi(rng, 3, (2, 4, 3), (2, 3, 2), 0.5)
    p = g.joint.p
    assert g.joint.px() is g.joint.px()
    np.testing.assert_array_equal(g.joint.px(), p.sum(axis=(1, 2, 3, 4, 5, 6)))
    for j in range(3):
        pzw = g.joint.pzw(j)
        assert pzw is g.joint.pzw(j)
        drop = tuple(ax for ax in range(p.ndim) if ax not in (1 + j, 4 + j))
        np.testing.assert_array_equal(pzw, p.sum(axis=drop))
        assert pzw.shape == (3, g.joint.w_spaces[j].size)
    for arr in (g.joint.px(), *(g.joint.pzw(j) for j in range(3))):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def full_contractions(monkeypatch, counts):
    """Count _contract's calls without a skipped sender, and those with one."""
    contract = multi_module._contract

    def wrapper(joint, policies, skip=None):
        counts["full" if skip is None else "skip"] += 1
        return contract(joint, policies, skip)

    monkeypatch.setattr(multi_module, "_contract", wrapper)


def test_adoption_makes_no_full_contraction(monkeypatch):
    # play contracts the whole joint once at the start and twice per receiver
    # check (in the best response and for its candidate's distortion); a
    # sender's adoption sums its check's coefficients against the new encoder
    counts = dict.fromkeys(("full", "skip", "receiver", "checks", "adopted"), 0)
    full_contractions(monkeypatch, counts)
    monkeypatch.setattr(multi_module, "receiver_best_response_multi", counted(
        counts, "receiver", multi_module.receiver_best_response_multi))
    monkeypatch.setattr(multi_module, "_improvement_reference", counted(
        counts, "checks", multi_module._improvement_reference))
    plays = 0
    for name, g, alphas0, beta0, seed in skip_cases():
        report = random_best_response_dynamics(g, alphas0, beta0, 0.02, seed=seed)
        plays += 1
        counts["adopted"] += sum(
            rec.accepted and rec.mover != "receiver" for rec in report.trajectory
        )
    assert counts["adopted"] > 0, counts
    assert counts["full"] == plays + 2 * counts["receiver"], counts
    assert counts["skip"] == counts["checks"], counts


def test_audit_full_contractions_are_bounded(monkeypatch, rng):
    # the audit contracts the whole joint twice, once for both decoders'
    # distortions and once in the receiver best response, and each sender's
    # coefficients once
    g = random_multi(rng, 2, (2, 3, 2), (3, 2, 2), 0.4)
    alphas, beta = random_state(rng, g)
    counts = {"full": 0, "skip": 0}
    full_contractions(monkeypatch, counts)
    epsilon_nash_check_multi(g, alphas, beta, 0.05)
    assert counts == {"full": 2, "skip": 3}


def test_play_running_values_match_fresh_evaluations(monkeypatch):
    # play keeps the distortion and the leakages between rounds, a sender's
    # adoption setting the distortion from its check's coefficients; every
    # row must match fresh evaluations of the state after its round
    decide, respond = multi_module._improvement_reference, multi_module.receiver_best_response_multi
    adopted = 0
    for name, g, alphas0, beta0, seed in skip_cases():
        answers = []

        def recorded(inner):
            def wrapper(*args):
                answers.append(inner(*args))
                return answers[-1]
            return wrapper

        monkeypatch.setattr(multi_module, "_improvement_reference", recorded(decide))
        monkeypatch.setattr(multi_module, "receiver_best_response_multi", recorded(respond))
        report = random_best_response_dynamics(g, alphas0, beta0, 0.02, seed=seed)
        monkeypatch.undo()
        # replay the trajectory: each round of a player not yet frozen made
        # one check, in order
        alphas, beta, frozen, pending = alphas0, beta0, set(), iter(answers)
        for rec in report.trajectory[1:]:
            pick = 0 if rec.mover == "receiver" else int(rec.mover.split("_")[1])
            if pick not in frozen:
                answer = next(pending)
                if rec.accepted and pick == 0:
                    beta = answer
                elif rec.accepted:
                    alphas = alphas.replace(pick - 1, answer.policy)
                adopted += rec.accepted
                frozen = {pick} if rec.accepted else frozen | {pick}
            xi = expected_distortion_multi(g, alphas, beta)
            assert rec.receiver_cost == pytest.approx(xi, abs=1e-12)
            assert rec.potential == pytest.approx(potential_multi(g, alphas, beta), abs=1e-12)
            if pick > 0:
                # the running leakage of the drawn sender, or its answer's cost
                own = xi + g.rho * leakage_j(g, alphas, pick - 1)
                assert rec.sender_cost == pytest.approx(own, abs=1e-12)
        assert next(pending, None) is None
        final_alphas, final_beta = report.final_pair
        assert final_beta is beta
        assert all(got is want for got, want in zip(final_alphas.policies, alphas.policies))
    assert adopted > 0


def test_improvement_bound_is_sound():
    # the interval an epsilon check reports holds the best improvement, and
    # member proves that it is at most epsilon, against a full best
    # response of cost c* and summed gap g*, single- and multi-sender
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.integers(0, 3), st.integers(2, 3), st.floats(0.0, 2.0), st.floats(1e-4, 0.1),
        st.booleans(), st.integers(0, 2**32 - 1),
    )
    def check(n, m, rho, eps, answered, seed):
        gen = np.random.default_rng(seed)
        if n == 0:
            g = random_game(gen, m, int(gen.integers(1, 4)), int(gen.integers(2, 4)), rho)
            alpha = random_sender(gen, g.y_space.size, m, g.w_space.size)
            beta = random_receiver(gen, m, g.y_space.size)
            best = sender_best_response(g, beta)
            if answered:
                # the solver's own answer, whose gap settles the check
                alpha = best.policy
            own = sender_cost(g, alpha, beta)
            report = epsilon_nash_check(g, alpha, beta, eps)
            gap, stat = report.sender_gap, report.sender_stationarity_gap
        else:
            w_sizes = tuple(int(w) for w in gen.integers(1, 4, size=n))
            y_sizes = tuple(int(y) for y in gen.integers(2, 4, size=n))
            g = random_multi(gen, m, w_sizes, y_sizes, rho)
            alphas, beta = random_state(gen, g)
            j = int(gen.integers(n))
            best = sender_best_response_multi(g, alphas, beta, j)
            if answered:
                alphas = alphas.replace(j, best.policy)
            own = sender_cost_multi(g, alphas, beta, j)
            report = epsilon_nash_check_multi(g, alphas, beta, eps)
            gap, stat = report.sender_gaps[j], report.sender_stationarity_gaps[j]
        assert gap <= own - (best.cost - best.stationarity_gap) + 1e-12
        assert own - best.cost <= gap + stat + 1e-12
        if report.member:
            assert own - best.cost <= eps

    check()


def test_blind_screen_decides_as_a_full_best_response(monkeypatch):
    # wherever the leakage-blind encoder decides a check without a solve, a
    # full unfloored best response adopts or rejects the same way, unless
    # its improvement lies within the two answers' summed gaps of epsilon
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    minimize = solve_module._minimize_over_blocks
    checks = []
    decide = screened_checks(monkeypatch, solve_module._improvement_reference, checks)
    settings = solve_module.DEFAULT_SETTINGS

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.integers(2, 3), st.integers(1, 3), st.integers(2, 3), st.floats(0.01, 2.0),
        st.floats(1e-4, 0.3), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1),
    )
    def check(m, q, r, rho, eps, mix, seed):
        gen = np.random.default_rng(seed)
        g = random_game(gen, m, q, r, rho)
        beta = random_receiver(gen, m, r)
        c = solve_module._linear_coeffs(g, beta)
        if mix < 0.5:
            # a random deterministic encoder, whose emptied cells can leave
            # it without a gradient
            a = np.zeros((r, m, q))
            mi, qi = np.indices((m, q))
            a[gen.integers(0, r, size=(m, q)), mi, qi] = 1.0
        else:
            # a random encoder, pulled toward the blind one
            a = (2.0 * mix - 1.0) * random_sender(gen, r, m, q).a
            a += (2.0 - 2.0 * mix) * solve_module._blind_encoder(c, 0.0)
        alpha = SenderPolicy(a)
        own = sender_cost(g, alpha, beta)
        before = len(checks)
        decide(c, g.joint.pzw, g.joint.pw, rho, alpha, own, eps, settings)
        if len(checks) == before:
            return
        adopts, gap, tol = checks[-1]
        full = minimize(_Problem(c, g.joint.pzw, g.joint.pw, rho), settings)
        if gap > tol:
            # a rejection proven by the blind encoder's lower bound on the
            # optimum, which no best response's cost lies under
            assert not adopts and own - full.cost <= eps + 1e-12
        elif abs(own - full.cost - eps) > gap + full.stationarity_gap + 1e-12:
            assert adopts == (own - full.cost > eps)

    check()
    assert any(adopts for adopts, _, _ in checks), checks
    assert any(gap > tol for _, gap, tol in checks), checks


def emptied_truthful_check(rho):
    """circulant5 at rho against the identity decoder, with the truthful
    encoder reporting measurement 1 as message 0 under secret 0, which
    leaves message 1 unused there, so the cost has no gradient at it.
    Returns (game, encoder, decoder, its cost)."""
    g = circulant_game(rho)
    a = SenderPolicy.truthful(5, 5).a.copy()
    a[:, 1, 0] = np.eye(5)[0]
    alpha, beta = SenderPolicy(a), ReceiverPolicy.identity(5)
    return g, alpha, beta, sender_cost(g, alpha, beta)


def test_blind_encoder_proves_the_bound_from_its_lower_bound(monkeypatch):
    # just above the critical ratio the leakage-blind encoder, the truthful
    # one, is no best response, but its cost minus its summed gap bounds the
    # optimum below: it decides the check without a solve exactly when that
    # bound proves that no move gains more than epsilon
    g, alpha, beta, own = emptied_truthful_check(0.4)
    settings = solve_module.DEFAULT_SETTINGS
    c = solve_module._linear_coeffs(g, beta)
    cost, gap = _Problem(c, g.joint.pzw, g.joint.pw, g.rho).certificate(
        solve_module._blind_encoder(c, g.rho))
    assert gap > settings.grad_tol
    checks = []
    decide = screened_checks(monkeypatch, solve_module._improvement_reference, checks)
    for eps in (own - (cost - gap) + 1e-6, own - (cost - gap) - 1e-6):
        decide(c, g.joint.pzw, g.joint.pw, g.rho, alpha, own, eps, settings)
    assert checks == [(False, gap, settings.grad_tol)]


def test_epsilon_checks_clamp_sender_gaps_at_zero():
    # the encoder costs 0.349 here and has no gradient. Above the critical
    # ratio the leakage-blind encoder, the truthful one, is no best
    # response and proves no bound at this epsilon, so the check is decided
    # by the solve floored at own - epsilon, which stops at an iterate that
    # costs 0.573. No move improves by a negative amount, so both checks
    # report 0
    eps = 0.1
    g, alpha, beta, own = emptied_truthful_check(0.5)
    ref = solve_module._improvement_reference(
        solve_module._linear_coeffs(g, beta), g.joint.pzw, g.joint.pw, g.rho, alpha, own, eps,
        solve_module.DEFAULT_SETTINGS,
    )
    assert ref.iterations > 0 and ref.cost > own + 0.2
    single = epsilon_nash_check(g, alpha, beta, eps)
    multi = epsilon_nash_check_multi(
        lift_single(g), SenderPolicySet((alpha,)), MultiReceiverPolicy(beta.b), eps
    )
    assert single.member and multi.member
    assert single.sender_gap == 0.0 and multi.sender_gaps == (0.0,)


def test_audit_solves_only_what_play_did_not(monkeypatch):
    # after play, a sender whose encoder's summed gap is at most epsilon is
    # audited without a solve, and the others by a solve that stops at the
    # first iterate proving the bound
    gen = np.random.default_rng(31)
    g = random_multi(gen, 2, (2,) * 3, (2,) * 3, 0.4)
    alphas0, beta0 = random_state(gen, g)
    eps = 0.05
    report = random_best_response_dynamics(g, alphas0, beta0, eps, seed=3)
    alphas, beta = report.final_pair

    iterations = []
    minimize = solve_module._minimize_over_blocks

    def counted(*args, **kwargs):
        out = minimize(*args, **kwargs)
        iterations[-1] += out.iterations
        return out

    monkeypatch.setattr(solve_module, "_minimize_over_blocks", counted)
    decide = multi_module._improvement_reference

    def per_sender(*args):
        iterations.append(0)
        return decide(*args)

    monkeypatch.setattr(multi_module, "_improvement_reference", per_sender)
    audit = epsilon_nash_check_multi(g, alphas, beta, eps)
    assert audit.member
    settled, rest = [], []
    for j in range(g.n):
        c, pzw = _linear_coeffs_multi(g, alphas, _distortion_table(g, beta), j), g.joint.pzw(j)
        a = alphas[j].a
        prob = _Problem(c, pzw, pzw.sum(axis=0), g.rho)
        gap = float(_block_gaps(a, prob.gradient(prob.evaluate(a)[1])).sum())
        full = sender_best_response_multi(g, alphas, beta, j)
        (settled if gap <= eps else rest).append((iterations[j], full.iterations))
    assert settled and rest, (settled, rest)
    assert all(spent == 0 for spent, _ in settled)
    # a full best response takes over 50 iterations on each of them
    assert all(spent <= 5 < full for spent, full in rest), rest


# ----------------------------------------------------------------- guards


def test_joint_rejects_oversized_tensor():
    # 40^4 * 2^3 entries crosses the dense-tensor cap
    with pytest.raises(ValueError, match="entries"):
        MultiJoint(FiniteSpace(40), (FiniteSpace(2),) * 3, np.zeros(1))


def test_joint_rejects_too_many_senders():
    spaces = (FiniteSpace(2),) * (MAX_SENDERS + 1)
    with pytest.raises(ValueError, match="sender count"):
        MultiJoint(FiniteSpace(2), spaces, np.zeros(1))


def test_joint_rejects_wrong_shape():
    with pytest.raises(ValueError, match="shape"):
        MultiJoint(FiniteSpace(2), (FiniteSpace(2),), np.full((2, 2), 0.25))


def test_game_rejects_mismatched_policies():
    g = two_sender_binary()
    alphas, beta = default_initial_state_multi(g)
    with pytest.raises(ValueError, match="sender policies"):
        g.check_policies(SenderPolicySet((alphas[0],)))
    bad = SenderPolicySet((alphas[0], SenderPolicy.uniform(3, 2, 2)))
    with pytest.raises(ValueError, match="sender 2"):
        g.check_policies(bad)
    with pytest.raises(ValueError, match="receiver"):
        g.check_policies(alphas, MultiReceiverPolicy(np.full((2, 2), 0.5)))


def test_game_rejects_negative_rho():
    with pytest.raises(ValueError, match="rho"):
        two_sender_binary(rho=-0.5)


@pytest.mark.parametrize("rho", [math.nan, math.inf])
def test_game_rejects_non_finite_rho(rho):
    with pytest.raises(ValueError, match="rho must be nonnegative and finite"):
        two_sender_binary(rho=rho)


def test_epsilon_validation():
    g = two_sender_binary()
    alphas, beta = default_initial_state_multi(g)
    # NaN used to pass a plain epsilon <= 0 guard, and play then reported an
    # epsilon-equilibrium after n + 1 idle rounds
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            epsilon_nash_check_multi(g, alphas, beta, bad)
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            random_best_response_dynamics(g, alphas, beta, bad)
