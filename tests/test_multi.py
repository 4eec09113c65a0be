import itertools
import math
import sys
import threading

import numpy as np
import pytest

from conftest import random_game, random_receiver, random_sender
from privsig import multi as multi_module
from privsig.game import (
    DistortionMatrix,
    ReceiverPolicy,
    SenderPolicy,
    hamming_distortion,
)
from privsig.multi import (
    MAX_SENDERS,
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
from privsig.solve import SolverSettings, receiver_best_response, sender_best_response

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


def two_sender_binary(rho: float = 0.3) -> MultiGameInstance:
    # uniform binary state observed perfectly by both senders; each secret
    # agrees with the state with probability 0.8, independently
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
    for j in range(3):
        c = _linear_coeffs_multi(g, alphas, beta, j)
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


def test_potential_difference_identities(rng):
    for _ in range(20):
        g = random_multi(rng, 2, (2, 3), (3, 2), float(rng.random() * 2.0))
        alphas, beta = random_state(rng, g)
        alphas2, beta2 = random_state(rng, g)
        psi = potential_multi(g, alphas, beta)
        for j in range(2):
            moved = alphas.replace(j, alphas2[j])
            lhs = potential_multi(g, moved, beta) - psi
            rhs = sender_cost_multi(g, moved, beta, j) - sender_cost_multi(
                g, alphas, beta, j
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)
        lhs = potential_multi(g, alphas, beta2) - psi
        rhs = receiver_cost_multi(g, alphas, beta2) - receiver_cost_multi(g, alphas, beta)
        assert lhs == pytest.approx(rhs, abs=1e-10)


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
    encoder has a zero entry."""
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
    a[:, 0, 0] = (1.0, 0.0)
    cases.append(("zero_entry", g, alphas.replace(0, SenderPolicy(a)), beta, 3))
    return cases


def test_certificate_skip_leaves_play_unchanged(monkeypatch):
    eps = 0.02
    bound, solve = multi_module._improvement_bound, multi_module.sender_best_response_multi
    skips, zero_solves = {}, {}

    for name, g, alphas0, beta0, seed in skip_cases():
        skips[name], zero_solves[name] = 0, 0

        def counted_bound(g, alphas, beta, j):
            out = bound(g, alphas, beta, j)
            skips[name] += out <= eps
            if g.rho > 0.0 and np.any(alphas[j].a == 0.0):
                assert out == math.inf
            return out

        def counted_solve(g, alphas, beta, j, settings):
            zero_solves[name] += bool(np.any(alphas[j].a == 0.0))
            return solve(g, alphas, beta, j, settings)

        monkeypatch.setattr(multi_module, "_improvement_bound", counted_bound)
        monkeypatch.setattr(multi_module, "sender_best_response_multi", counted_solve)
        with_skip = random_best_response_dynamics(g, alphas0, beta0, eps, seed=seed)
        monkeypatch.setattr(multi_module, "_improvement_bound", lambda *args: math.inf)
        without = random_best_response_dynamics(g, alphas0, beta0, eps, seed=seed)
        assert play_fingerprint(with_skip) == play_fingerprint(without)
        assert with_skip.reached_eps_nash

    assert all(count > 0 for count in skips.values()), skips
    # the start's zero-entry encoder faced a solve when its sender was drawn
    assert zero_solves["zero_entry"] > 0


def test_improvement_bound_is_sound():
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
        j = int(gen.integers(n))
        own = sender_cost_multi(g, alphas, beta, j)
        best = sender_best_response_multi(g, alphas, beta, j).cost
        assert own - best <= multi_module._improvement_bound(g, alphas, beta, j) + 1e-12

    check()


def test_audit_solves_only_what_play_did_not(monkeypatch):
    gen = np.random.default_rng(33)
    g = random_multi(gen, 2, (2,) * 3, (2,) * 3, 0.4)
    alphas0, beta0 = random_state(gen, g)
    eps = 0.05
    report = random_best_response_dynamics(g, alphas0, beta0, eps, seed=3)
    alphas, beta = report.final_pair

    solves = []
    minimize = multi_module._minimize_over_blocks

    def counted(*args, **kwargs):
        solves.append(1)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(multi_module, "_minimize_over_blocks", counted)
    audit = epsilon_nash_check_multi(g, alphas, beta, eps)
    assert len(solves) < g.n
    multi_module._last_answers.clear()
    solves.clear()
    fresh = epsilon_nash_check_multi(g, alphas, beta, eps)
    assert len(solves) == g.n
    assert repr(audit) == repr(fresh)
    # the same request again is answered from memory
    solves.clear()
    epsilon_nash_check_multi(g, alphas, beta, eps)
    assert not solves
    # other solver settings, or another decoder, pose another problem
    epsilon_nash_check_multi(g, alphas, beta, eps, SolverSettings(grad_tol=1e-9))
    assert len(solves) == g.n
    b = gen.random(beta.b.shape) + 0.05
    epsilon_nash_check_multi(g, alphas, MultiReceiverPolicy(b / b.sum(axis=0)), eps)
    assert len(solves) == 2 * g.n


def test_remembered_answers_stay_with_their_problem_across_threads():
    # threads alternate two problems for the same sender index, so each
    # call replaces the other problem's remembered answer; every call must
    # still get its own problem's answer
    gen = np.random.default_rng(8)
    g = random_multi(gen, 2, (2, 2), (2, 2), 0.4)
    states = [random_state(gen, g) for _ in range(2)]
    multi_module._last_answers.clear()
    want = [sender_best_response_multi(g, *state, 0) for state in states]
    wrong = []

    def work(t):
        for k in range(30):
            s = (t + k) % 2
            res = sender_best_response_multi(g, *states[s], 0)
            if res.policy.a.tobytes() != want[s].policy.a.tobytes() or res.cost != want[s].cost:
                wrong.append((t, k))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not wrong


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
