"""The benchmark workloads: seeded inputs, tasks and output checks.

Each workload class generates its inputs with numpy alone (``generate`` runs
in the parent process, which never imports privsig). Everything else runs
in the worker process: ``load`` imports privsig and reads the inputs,
``warmup`` pays first-call costs, ``run`` performs one timed task, and
``check`` verifies that task's output outside the timed span, returning
``None`` on success or the reason it failed.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


def _stochastic(rng, shape) -> np.ndarray:
    """Random conditional pmf over axis 0, bounded away from zero."""
    a = rng.random(shape) + 0.05
    return a / a.sum(axis=0)


def _mutual_information(j: np.ndarray) -> float:
    """I between the two axes of a joint matrix, in nats, with 0 log 0 = 0."""
    row = j.sum(axis=1, keepdims=True)
    col = j.sum(axis=0, keepdims=True)
    mask = j > 0.0
    return float((j[mask] * np.log(j[mask] / (row * col)[mask])).sum())


def _cli(main, args: list[str]) -> tuple[int, str]:
    """Run the privsig CLI in-process; returns (exit code, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            main(args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            return code, err.getvalue()
    return 0, err.getvalue()


class SweepCirculant5:
    """`privsig sweep --config circulant5`, through privsig.cli.main."""

    PRESET = "circulant5"

    @staticmethod
    def generate(rng, inputs: Path, tiny: bool) -> dict:
        return {"tasks": 1, "input": "bundled circulant5 preset, 101-point rho grid"}

    def load(self, inputs: Path) -> None:
        from privsig import cli, config, game, solve

        self.cli, self.game, self.solve = cli, game, solve
        self.cfg = config.resolve_config(self.PRESET)
        self.tasks = 1

    def warmup(self, scratch: Path) -> None:
        _cli(self.cli.main, ["validate", "--config", self.PRESET])
        g = self.cfg.build_single(0.38)
        beta = self.game.ReceiverPolicy.identity(g.x_space.size)
        self.solve.sender_best_response(g, beta, self.cfg.solver)

    def run(self, i: int, out: Path):
        return _cli(self.cli.main, ["sweep", "--config", self.PRESET, "--out", str(out)])

    def check(self, i: int, out: Path, outcome) -> str | None:
        code, err = outcome
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        crit = report["critical_rho"].get("nats")
        if not report["all_converged"]:
            return "not all sweep points converged"
        if crit is None or not 0.30 <= crit <= 0.46:
            return f"nats critical rho {crit} outside [0.30, 0.46]"
        if report.get("nearest_base") != "nats":
            return f"nearest_base is {report.get('nearest_base')!r}, not 'nats'"
        return None


class SolveRandom:
    """`privsig solve` on seeded random single-sender games, one game per task."""

    COMBOS = [(m, q) for m in (2, 3, 4) for q in (2, 3)]
    STRATA = 16
    # the games are drawn once from this seed; the run's seed relabels them
    GAMES_SEED = 1509

    @classmethod
    def generate(cls, rng, inputs: Path, tiny: bool) -> dict:
        strata = 1 if tiny else cls.STRATA
        games = np.random.default_rng(cls.GAMES_SEED)
        receivers = []
        index = 0
        # every (|X|, |W|) combination once per rho stratum, spreading rho
        # evenly over [0, 2). Drawing fresh games per seed would change the
        # work by about 20% from seed to seed, so each seed gets the same
        # games with states (and, with them, observations and estimates)
        # and secrets relabeled: the same work, posed differently.
        for k in range(strata):
            for m, q in cls.COMBOS:
                p = games.random((m, m, q)) ** 2
                dist = games.random((m, m)) * (1.0 - np.eye(m))
                rho = 2.0 * (k + games.random()) / strata
                x, w = rng.permutation(m), rng.permutation(q)
                p = p[np.ix_(x, x, w)]
                doc = {
                    "schema_version": 1,
                    "mode": "single",
                    "x_size": m,
                    "w_size": q,
                    "y_size": m,
                    "joint": (p / p.sum()).tolist(),
                    "distortion": dist[np.ix_(x, x)].tolist(),
                    "rho": rho,
                }
                _write_json(inputs / f"game{index:03d}.json", doc)
                receivers.append(_stochastic(rng, (m, m)).tolist())
                index += 1
        _write_json(inputs / "receivers.json", receivers)
        return {
            "tasks": index,
            "input": (f"{index} games, |X|=|Y| in 2..4, |W| in 2..3, rho in {strata} strata "
                      "of [0, 2), relabeled by the seed"),
        }

    def load(self, inputs: Path) -> None:
        from privsig import cli, config, game, solve

        self.cli, self.config, self.game, self.solve = cli, config, game, solve
        self.paths = sorted(str(p) for p in inputs.glob("game*.json"))
        receivers = json.loads((inputs / "receivers.json").read_text(encoding="utf-8"))
        self.receivers = [np.array(b) for b in receivers]
        self.tasks = len(self.paths)

    def warmup(self, scratch: Path) -> None:
        self.run(0, scratch / "warmup")

    def run(self, i: int, out: Path):
        return _cli(self.cli.main, ["solve", "--config", self.paths[i], "--out", str(out)])

    def check(self, i: int, out: Path, outcome) -> str | None:
        code, err = outcome
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        config = self.config
        cfg = config.load_config_file(self.paths[i])
        g = cfg.build_single(cfg.scalar_rho())
        alpha = config.sender_policy_from_json((out / "alpha.json").read_text(encoding="utf-8"))
        beta = config.receiver_policy_from_json((out / "beta.json").read_text(encoding="utf-8"))
        g.check_sender(alpha)
        g.check_receiver(beta)
        rep = self.solve.epsilon_nash_check(g, alpha, beta, 1e-6, cfg.solver)
        if not rep.member:
            return (f"not a 1e-6 equilibrium: sender gap {rep.sender_gap:.3e}, "
                    f"receiver gap {rep.receiver_gap:.3e}")
        # no decoder can learn more about the secret than the message carries
        jyw = self.game.message_secret_joint(g, alpha).p
        excess = _mutual_information(self.receivers[i] @ jyw) - _mutual_information(jyw)
        if excess > 1e-10:
            return f"data-processing inequality violated by {excess:.3e}"
        return None


class MultiBinary:
    """Seeded random starts of randomized best-response play, each audited."""

    # starts per sender count; n = 3 runs take about 2.5 times as long, and
    # with fewer of them the median task lies inside the n = 2 cluster
    # instead of in the gap between the two
    STARTS = {2: 120, 3: 60}
    STARTS_SEED = 1509
    EPSILON = 0.05
    RHO = 0.3

    @classmethod
    def generate(cls, rng, inputs: Path, tiny: bool) -> dict:
        for n in cls.STARTS:
            # binary state, each sender sees it exactly and holds a secret
            # that matches it with probability 0.8, independently
            p = np.zeros((2,) * (1 + 2 * n))
            for x in range(2):
                for ws in itertools.product(range(2), repeat=n):
                    p[(x,) * (1 + n) + ws] = 0.5 * math.prod(0.8 if w == x else 0.2 for w in ws)
            _write_json(inputs / f"game{n}.json", {
                "schema_version": 1,
                "mode": "multi",
                "x_size": 2,
                "n": n,
                "w_sizes": [2] * n,
                "y_sizes": [2] * n,
                "joint": p.tolist(),
                "rho": cls.RHO,
                "dynamics": {"epsilon": cls.EPSILON},
            })
        counts = {n: 1 if tiny else c for n, c in cls.STARTS.items()}
        # fresh random starts per seed change the work by about 15% from
        # seed to seed (a start takes 4 to 40 rounds), so the starts and
        # their move orders are drawn once, and the run's seed relabels
        # each sender's messages: the same play, posed differently
        starts = cls._random_starts(np.random.default_rng(cls.STARTS_SEED), counts)
        for start in starts:
            flips = [rng.permutation(2) for _ in range(start["n"])]
            start["alphas"] = [np.array(a)[f].tolist() for a, f in zip(start["alphas"], flips)]
            beta = np.array(start["beta"])
            for j, f in enumerate(flips):
                beta = np.take(beta, f, axis=1 + j)
            start["beta"] = beta.tolist()
        _write_json(inputs / "starts.json", starts)
        # the warm-up plays starts of its own
        fixed = np.random.default_rng(0)
        _write_json(inputs / "warmup.json", cls._random_starts(fixed, dict.fromkeys(cls.STARTS, 1)))
        return {
            "tasks": len(starts),
            "input": ", ".join(f"{c} random starts with n={n} binary senders" for n, c in counts.items())
            + ", messages relabeled by the seed",
        }

    @staticmethod
    def _random_starts(rng, counts: dict) -> list:
        return [
            {
                "n": n,
                "alphas": [_stochastic(rng, (2, 2, 2)).tolist() for _ in range(n)],
                "beta": _stochastic(rng, (2,) * (1 + n)).tolist(),
                "seed": int(rng.integers(2**31)),
            }
            for n, count in counts.items()
            for _ in range(count)
        ]

    def _load_starts(self, path: Path) -> list:
        from privsig import game

        starts = []
        for s in json.loads(path.read_text(encoding="utf-8")):
            alphas = self.multi.SenderPolicySet(
                tuple(game.SenderPolicy(np.array(a)) for a in s["alphas"])
            )
            beta = self.multi.MultiReceiverPolicy(np.array(s["beta"]))
            starts.append((s["n"], alphas, beta, s["seed"]))
        return starts

    def load(self, inputs: Path) -> None:
        from privsig import config, multi

        self.multi = multi
        self.games, self.settings = {}, {}
        for n in self.STARTS:
            cfg = config.load_config_file(str(inputs / f"game{n}.json"))
            self.games[n] = cfg.build_multi(cfg.scalar_rho())
            self.settings[n] = (cfg.dynamics.epsilon, cfg.solver)
        self.starts = self._load_starts(inputs / "starts.json")
        self.warmup_starts = self._load_starts(inputs / "warmup.json")
        self.tasks = len(self.starts)

    def warmup(self, scratch: Path) -> None:
        for start in self.warmup_starts:
            self._play(start)

    def run(self, i: int, out: Path):
        return self._play(self.starts[i])

    def _play(self, start):
        multi = self.multi
        n, alphas0, beta0, seed = start
        g = self.games[n]
        eps, settings = self.settings[n]
        psi0 = multi.potential_multi(g, alphas0, beta0)
        cap = 10 * (n + 1) * math.ceil(3.0 + psi0 / eps)
        rep = multi.random_best_response_dynamics(
            g, alphas0, beta0, eps, settings, max_rounds=cap, seed=seed
        )
        audit = multi.epsilon_nash_check_multi(g, *rep.final_pair, eps, settings)
        return rep, audit

    def check(self, i: int, out: Path, outcome) -> str | None:
        rep, audit = outcome
        if not rep.reached_eps_nash:
            return f"no epsilon-equilibrium within {rep.iterations_used} rounds"
        if not audit.member:
            return (f"audit rejects the final state: receiver gap {audit.receiver_gap:.3e}, "
                    f"sender gaps {list(audit.sender_gaps)}")
        return None


class ScaleCirculant:
    """One sender best response against the identity decoder per task."""

    SIZES = (5, 8, 12, 16)
    RHOS = (0.2, 0.38, 0.6)
    # the m = 12 tasks take most of a pass, so a run holds two or three;
    # the short tasks, which decide the median, are repeated within a pass
    REPEAT_S = 0.3

    @classmethod
    def generate(cls, rng, inputs: Path, tiny: bool) -> dict:
        sizes = cls.SIZES[:2] if tiny else cls.SIZES
        for m in sizes:
            # secret = state shifted by a cyclic offset: no shift with
            # probability 0.7, the rest falling off as 1 / cyclic distance
            # (m = 5 gives the bundled circulant5 matrix); the seed only
            # relabels states and secrets, so every seed poses the same game
            dist = np.minimum(np.arange(1, m), m - np.arange(1, m))
            row = np.concatenate([[0.7], 0.3 / dist / (1.0 / dist).sum()])
            pxw = np.array([np.roll(row, x) for x in range(m)]) / m
            pxw = pxw[np.ix_(rng.permutation(m), rng.permutation(m))]
            joint = np.zeros((m, m, m))
            joint[np.arange(m), np.arange(m), :] = pxw
            _write_json(inputs / f"circulant{m}.json", {
                "schema_version": 1,
                "mode": "single",
                "x_size": m,
                "w_size": m,
                "y_size": m,
                "joint": joint.tolist(),
                "rho": cls.RHOS[0],
            })
        tasks = len(sizes) * len(cls.RHOS)
        return {"tasks": tasks, "input": f"circulant games, m in {list(sizes)}, rho in {list(cls.RHOS)}"}

    def load(self, inputs: Path) -> None:
        from privsig import config, game, solve

        self.solve = solve
        self.cases = []
        for path in sorted(inputs.glob("circulant*.json"), key=lambda p: int(p.stem[9:])):
            cfg = config.load_config_file(str(path))
            beta = game.ReceiverPolicy.identity(cfg.x_space.size)
            for rho in self.RHOS:
                self.cases.append((cfg.build_single(rho), beta, cfg.solver))
        self.tasks = len(self.cases)

    def warmup(self, scratch: Path) -> None:
        self.run(0, scratch)

    def run(self, i: int, out: Path):
        g, beta, settings = self.cases[i]
        return self.solve.sender_best_response(g, beta, settings)

    def check(self, i: int, out: Path, outcome) -> str | None:
        g, beta, settings = self.cases[i]
        if not outcome.converged:
            return f"best response did not converge in {outcome.iterations} iterations"
        a = outcome.policy.a
        grad = self.solve.sender_cost_gradient(g, outcome.policy, beta)
        gap = float(((a * grad).sum(axis=0) - grad.min(axis=0)).max())
        if gap > settings.grad_tol:
            return f"stationarity gap {gap:.3e} above grad_tol {settings.grad_tol:.1e}"
        return None


WORKLOADS = {
    "sweep-circulant5": SweepCirculant5,
    "solve-random": SolveRandom,
    "multi-binary": MultiBinary,
    "scale-circulant": ScaleCirculant,
}
