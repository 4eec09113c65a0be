"""Command-line harness.

Exit codes: 0 on success, 2 on configuration/schema problems, 3 when a solver
or dynamics run fails to converge. All file outputs land under --out.
"""
from __future__ import annotations

import json
import os
import sys
from dataclasses import fields, replace

import click

from . import multi as multi_mod
from .config import (
    ConfigError,
    GameConfig,
    receiver_policy_from_json,
    receiver_policy_to_json,
    resolve_config,
    sender_policy_from_json,
    sender_policy_set_from_json,
    sender_policy_to_json,
)
from .dynamics import (
    TrajectoryRecord,
    best_response_dynamics,
    default_initial_pair,
    thresholded_dynamics,
)
from .game import expected_distortion, leakage, potential, receiver_cost, sender_cost
from .prob import nats_to_bits
from .solve import _identity_best_response, _nash_report, epsilon_nash_check
from .sweep import SweepRow, run_sweep, sweep_report

EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3


def _fail_config(exc: ConfigError):
    for line in exc.errors:
        click.echo(f"error: {line}", err=True)
    sys.exit(EXIT_CONFIG)


def _fail_no_convergence(exc: RuntimeError):
    click.echo(f"error: {exc}", err=True)
    sys.exit(EXIT_NO_CONVERGENCE)


def _load(config_path: str, log_base: str | None, seed: int | None = None) -> GameConfig:
    cfg = resolve_config(config_path)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if log_base is not None:
        cfg = replace(cfg, log_base=log_base)
    return cfg


def _game(
    config_path: str, out: str, log_base: str | None, multi: bool = False, seed: int | None = None
):
    """(config, scalar rho, game) for a command that plays one game, with out
    created; exits with EXIT_CONFIG on a config problem."""
    try:
        cfg = _load(config_path, log_base, seed)
        rho = cfg.scalar_rho()
        g = cfg.build_multi(rho) if multi else cfg.build_single(rho)
    except ConfigError as exc:
        _fail_config(exc)
    os.makedirs(out, exist_ok=True)
    return cfg, rho, g


def _write(out: str, name: str, text: str) -> str:
    path = os.path.join(out, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(out: str, name: str, record_type, records) -> str:
    """One column per field of the record dataclass, headed by its name."""
    names = [f.name for f in fields(record_type)]
    lines = [",".join(names)]
    for record in records:
        lines.append(",".join(_fmt(getattr(record, n)) for n in names))
    return _write(out, name, "\n".join(lines) + "\n")


def _write_policies(out: str, alpha, beta) -> None:
    """alpha.json, or alpha_1.json, alpha_2.json, ... for a multi-sender set, and beta.json."""
    if isinstance(alpha, multi_mod.SenderPolicySet):
        for i, pol in enumerate(alpha.policies, start=1):
            _write(out, f"alpha_{i}.json", sender_policy_to_json(pol))
    else:
        _write(out, "alpha.json", sender_policy_to_json(alpha))
    _write(out, "beta.json", receiver_policy_to_json(beta))


def _json_report(out: str, doc: dict) -> str:
    return _write(out, "report.json", json.dumps(doc, indent=2) + "\n")


config_opt = click.option("--config", "config_path", required=True, help="Config file or bundled preset name.")
out_opt = click.option("--out", default="out", show_default=True, help="Output directory.")
base_opt = click.option(
    "--log-base", type=click.Choice(["nats", "bits"]), default=None, help="Override the config log base."
)


@click.group()
def main():
    """Equilibrium solvers for finite-alphabet privacy signaling games."""


@main.command()
@config_opt
def validate(config_path):
    """Check a config file and report every schema violation."""
    try:
        cfg = resolve_config(config_path)
    except ConfigError as exc:
        _fail_config(exc)
    shape = "x".join(str(s) for s in cfg.joint.shape)
    click.echo(f"config OK: mode={cfg.mode}, joint {shape}, log_base={cfg.log_base}")


@main.command()
@config_opt
@out_opt
@base_opt
@click.option(
    "--method",
    type=click.Choice(["explicit", "dynamics"]),
    default="explicit",
    show_default=True,
    help="Equilibrium construction to use.",
)
def solve(config_path, out, log_base, method):
    """Compute one equilibrium at the configured scalar rho."""
    cfg, rho, g = _game(config_path, out, log_base)
    if method == "explicit":
        try:
            br, beta = _identity_best_response(g, cfg.solver)
        except ValueError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        alpha = br.policy
        converged, iterations = br.converged, br.iterations
        # the best response just computed is the one the check needs
        check = _nash_report(g, alpha, beta, cfg.dynamics.epsilon, br)
    else:
        a0, b0 = default_initial_pair(g)
        try:
            rep = thresholded_dynamics(g, a0, b0, cfg.dynamics.epsilon, cfg.solver)
        except RuntimeError as exc:
            _fail_no_convergence(exc)
        alpha, beta = rep.final_pair
        converged, iterations = rep.reached_eps_nash, rep.iterations_used
        check = epsilon_nash_check(g, alpha, beta, cfg.dynamics.epsilon, cfg.solver)
    xi = expected_distortion(g, alpha, beta)
    zeta_nats = leakage(g, alpha)
    _write_policies(out, alpha, beta)
    _json_report(out, {
        "mode": "single",
        "method": method,
        "rho": rho,
        "log_base": cfg.log_base,
        "expected_distortion": xi,
        "leakage_nats": zeta_nats,
        "leakage_bits": nats_to_bits(zeta_nats),
        "sender_cost": xi + g.rho * zeta_nats,
        "epsilon": cfg.dynamics.epsilon,
        "member": check.member,
        "sender_gap": check.sender_gap,
        "receiver_gap": check.receiver_gap,
        "sender_stationarity_gap": check.sender_stationarity_gap,
        "iterations": iterations,
        "converged": converged,
    })
    click.echo(
        f"rho={rho:g} ({cfg.log_base}): distortion={xi:.6f}, leakage={cfg.report_information(zeta_nats):.6f}"
    )
    if not converged:
        click.echo("error: solver did not converge", err=True)
        sys.exit(EXIT_NO_CONVERGENCE)


@main.command()
@config_opt
@out_opt
@base_opt
@click.option(
    "--variant",
    type=click.Choice(["plain", "thresholded"]),
    default=None,
    help="Override the config dynamics variant.",
)
def dynamics(config_path, out, log_base, variant):
    """Run best-response play at the configured scalar rho."""
    cfg, rho, g = _game(config_path, out, log_base)
    variant = variant or cfg.dynamics.variant
    a0, b0 = default_initial_pair(g)
    if variant == "thresholded":
        try:
            rep = thresholded_dynamics(g, a0, b0, cfg.dynamics.epsilon, cfg.solver)
        except RuntimeError as exc:
            _fail_no_convergence(exc)
    else:
        rep = best_response_dynamics(
            g, a0, b0, cfg.dynamics.epsilon, cfg.solver, cfg.dynamics.max_rounds
        )
    alpha, beta = rep.final_pair
    _write_csv(out, "trajectory.csv", TrajectoryRecord, rep.trajectory)
    _write_policies(out, alpha, beta)
    _json_report(out, {
        "mode": "single",
        "variant": variant,
        "rho": rho,
        "log_base": cfg.log_base,
        "epsilon": rep.epsilon,
        "reached_eps_nash": rep.reached_eps_nash,
        "iterations_used": rep.iterations_used,
        "iteration_bound": rep.iteration_bound,
        "potential": potential(g, alpha, beta),
        "expected_distortion": receiver_cost(g, alpha, beta),
        "sender_cost": sender_cost(g, alpha, beta),
    })
    if rep.iteration_bound is not None:
        click.echo(f"iterations used: {rep.iterations_used} (bound: {rep.iteration_bound})")
    else:
        click.echo(f"iterations used: {rep.iterations_used}")
    if not rep.reached_eps_nash:
        click.echo("error: dynamics did not reach an epsilon-equilibrium", err=True)
        sys.exit(EXIT_NO_CONVERGENCE)


@main.command()
@config_opt
@out_opt
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@base_opt
def multi(config_path, out, seed, log_base):
    """Run randomized best-response play for a multi-sender game."""
    cfg, rho, g = _game(config_path, out, log_base, multi=True, seed=seed)
    alphas0, beta0 = multi_mod.default_initial_state_multi(g)
    rep = multi_mod.random_best_response_dynamics(
        g,
        alphas0,
        beta0,
        cfg.dynamics.epsilon,
        cfg.solver,
        cfg.dynamics.max_rounds,
        cfg.seed,
    )
    alphas, beta = rep.final_pair
    _write_csv(out, "trajectory.csv", TrajectoryRecord, rep.trajectory)
    _write_policies(out, alphas, beta)
    audit = multi_mod.epsilon_nash_check_multi(g, alphas, beta, rep.epsilon, cfg.solver)
    xi = multi_mod.receiver_cost_multi(g, alphas, beta)
    _json_report(out, {
        "mode": "multi",
        "n": g.n,
        "rho": rho,
        "log_base": cfg.log_base,
        "seed": cfg.seed,
        "epsilon": rep.epsilon,
        "reached_eps_nash": rep.reached_eps_nash,
        "iterations_used": rep.iterations_used,
        "member": audit.member,
        "receiver_gap": audit.receiver_gap,
        "sender_gaps": list(audit.sender_gaps),
        "expected_distortion": xi,
        "potential": multi_mod.potential_multi(g, alphas, beta),
        "leakage_nats": [multi_mod.leakage_j(g, alphas, j) for j in range(g.n)],
        "coalition_leakage_nats": [
            multi_mod.coalition_leakage(g, alphas, j) for j in range(g.n)
        ],
    })
    click.echo(
        f"rounds used: {rep.iterations_used}, reached: {rep.reached_eps_nash}, "
        f"distortion: {xi:.6f}"
    )
    if not rep.reached_eps_nash:
        click.echo("error: dynamics did not reach an epsilon-equilibrium", err=True)
        sys.exit(EXIT_NO_CONVERGENCE)


@main.command()
@config_opt
@out_opt
@base_opt
@click.option(
    "--method",
    type=click.Choice(["explicit", "dynamics"]),
    default="explicit",
    show_default=True,
    help="Per-point equilibrium construction.",
)
def sweep(config_path, out, log_base, method):
    """Sweep rho over the configured grid and locate the critical ratio."""
    try:
        cfg = _load(config_path, log_base)
        if cfg.mode != "single":
            raise ConfigError(["mode: sweep supports single-sender configs"])
        rows = run_sweep(cfg, method)
    except ConfigError as exc:
        _fail_config(exc)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except RuntimeError as exc:
        _fail_no_convergence(exc)
    os.makedirs(out, exist_ok=True)
    _write_csv(out, "sweep.csv", SweepRow, rows)
    try:
        # the critical-ratio bisection solves more points
        report = sweep_report(cfg, rows, method)
    except RuntimeError as exc:
        _fail_no_convergence(exc)
    _json_report(out, report)
    crit = report["critical_rho"]
    click.echo(f"sweep: {len(rows)} points, log_base={cfg.log_base}")
    for base in ("nats", "bits"):
        val = crit.get(base)
        click.echo(f"critical rho ({base}): {'none' if val is None else f'{val:.4f}'}")
    if "nearest_base" in report:
        click.echo(
            f"nearest base to reference {report['reference_critical_rho']:g}: "
            f"{report['nearest_base']}"
        )
    if not report["all_converged"]:
        click.echo("error: some sweep points did not converge", err=True)
        sys.exit(EXIT_NO_CONVERGENCE)


@main.command()
@config_opt
@out_opt
@base_opt
@click.option("--alpha", "alpha_paths", multiple=True, required=True, help="Sender policy JSON (repeat for multi).")
@click.option("--beta", "beta_path", required=True, help="Receiver policy JSON.")
@click.option("--epsilon", type=float, default=None, help="Override the config epsilon.")
def verify(config_path, out, log_base, alpha_paths, beta_path, epsilon):
    """Check whether saved policies form an epsilon-equilibrium."""
    try:
        cfg = _load(config_path, log_base)
        rho = cfg.scalar_rho()
        eps = epsilon if epsilon is not None else cfg.dynamics.epsilon
        texts = []
        for path in alpha_paths:
            with open(path, "r", encoding="utf-8") as fh:
                texts.append(fh.read())
        with open(beta_path, "r", encoding="utf-8") as fh:
            beta_text = fh.read()
        if cfg.mode == "single":
            if len(texts) != 1:
                raise ConfigError(["alpha: single-sender verify takes exactly one policy"])
            g = cfg.build_single(rho)
            alpha = sender_policy_from_json(texts[0])
            beta = receiver_policy_from_json(beta_text)
            g.check_sender(alpha)
            g.check_receiver(beta)
            check = epsilon_nash_check(g, alpha, beta, eps, cfg.solver)
            doc = {
                "mode": "single",
                "epsilon": eps,
                "member": check.member,
                "sender_gap": check.sender_gap,
                "receiver_gap": check.receiver_gap,
                "sender_stationarity_gap": check.sender_stationarity_gap,
            }
            gaps = f"sender_gap={check.sender_gap:.3e}, receiver_gap={check.receiver_gap:.3e}"
        else:
            g = cfg.build_multi(rho)
            alphas = sender_policy_set_from_json(texts)
            beta = receiver_policy_from_json(beta_text, multi=True)
            check = multi_mod.epsilon_nash_check_multi(g, alphas, beta, eps, cfg.solver)
            doc = {
                "mode": "multi",
                "epsilon": eps,
                "member": check.member,
                "receiver_gap": check.receiver_gap,
                "sender_gaps": list(check.sender_gaps),
            }
            gaps = f"receiver_gap={check.receiver_gap:.3e}, sender_gaps={list(check.sender_gaps)}"
    except ConfigError as exc:
        _fail_config(exc)
    except (OSError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    os.makedirs(out, exist_ok=True)
    _json_report(out, doc)
    verdict = "PASS" if doc["member"] else "FAIL"
    click.echo(f"epsilon-equilibrium check at eps={eps:g}: {verdict} ({gaps})")


if __name__ == "__main__":
    main()
