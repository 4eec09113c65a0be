"""Replay the sender solver's families of test problems and report each one.

Run from the root of a checkout:

    PYTHONPATH=src python tools/replay.py --family S7,RX16,L12 [--json]

Every problem is one cold sender_best_response with the default settings.
Per family it prints the unconverged draws, the total, median and largest
iteration count per solve, the worst summed block gap of a converged answer
(recomputed from sender_cost_gradient) and the wall time. --json prints one
JSON record instead, with each draw's iterations, flag, summed gap and a
digest of its encoder, so that two trees' answers can be compared draw by
draw. Set OPENBLAS_NUM_THREADS=1, as the benchmark does, for wall times
that compare with its figures.

The families:

- S7 / S8: stochastic_decoder_draws in tests/test_solver.py, seed 7 draws
  0-199 and seed 8 draws 0-999.
- C5: circulant5 against the identity decoder, rho = 0, 0.01, ..., 1.
- SC: shifted_circulant_game, m in {5, 8, 12, 16} x rho in {0.2, 0.38, 0.6}.
- RC12 / RC16: random circulants, seeds 0-19 x rho in {0.2, 0.38, 0.6}. The
  diagonal is 0.7, the rest of the row 0.3 u / sum(u), u_k = uniform(0.5,
  1.5) / cyclic distance drawn once from default_rng(seed); every row is a
  roll of that row. RC names both.
- RX12 / RX16: the same with a u drawn for each row (rx_game in
  tests/test_solver.py). RX names both.
- L12: default_rng(12), 300 draws of m = integers(2, 6), |W| = integers(2,
  5), |Y| = integers(2, 6) and rho = 10^uniform(-2, 2), then random_game and
  random_receiver from tests/conftest.py.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import circulant_game, random_game, random_receiver, summed_block_gap  # noqa: E402
from test_solver import rx_game, shifted_circulant_game, stochastic_decoder_draws  # noqa: E402

from privsig.game import GameInstance, ReceiverPolicy, hamming_distortion  # noqa: E402
from privsig.prob import FiniteSpace, JointPXZW  # noqa: E402
from privsig.solve import sender_best_response  # noqa: E402

RHOS = (0.2, 0.38, 0.6)


def rc_game(m: int, seed: int, rho: float) -> GameInstance:
    """A circulant whose first row spreads 0.3 off the diagonal by weights
    uniform(0.5, 1.5) / cyclic distance, drawn from default_rng(seed)."""
    dist = np.minimum(np.arange(1, m), m - np.arange(1, m))
    u = np.random.default_rng(seed).uniform(0.5, 1.5, m - 1) / dist
    row = np.concatenate([[0.7], 0.3 * u / u.sum()])
    pxw = np.array([np.roll(row, x) for x in range(m)]) / m
    return GameInstance(JointPXZW.from_xw_matrix(pxw), hamming_distortion(m), FiniteSpace(m), rho)


def identity_problems(games):
    for g in games:
        yield g, ReceiverPolicy.identity(g.x_space.size)


def l12_draws():
    rng = np.random.default_rng(12)
    for _ in range(300):
        m, q, r = int(rng.integers(2, 6)), int(rng.integers(2, 5)), int(rng.integers(2, 6))
        rho = float(10.0 ** rng.uniform(-2.0, 2.0))
        g = random_game(rng, m, q, r, rho)
        yield g, random_receiver(rng, m, r)


FAMILIES = {
    "S7": lambda: stochastic_decoder_draws(7, 200),
    "S8": lambda: stochastic_decoder_draws(8, 1000),
    "C5": lambda: identity_problems(circulant_game(i / 100) for i in range(101)),
    "SC": lambda: identity_problems(shifted_circulant_game(m, rho) for m in (5, 8, 12, 16) for rho in RHOS),
    "RC12": lambda: identity_problems(rc_game(12, s, rho) for s in range(20) for rho in RHOS),
    "RC16": lambda: identity_problems(rc_game(16, s, rho) for s in range(20) for rho in RHOS),
    "RX12": lambda: identity_problems(rx_game(12, s, rho) for s in range(20) for rho in RHOS),
    "RX16": lambda: identity_problems(rx_game(16, s, rho) for s in range(20) for rho in RHOS),
    "L12": l12_draws,
}
ALIASES = {"RC": ("RC12", "RC16"), "RX": ("RX12", "RX16")}


def replay(name: str) -> dict:
    """Solve every problem of a family; its summary and per-draw records."""
    draws = []
    start = time.perf_counter()
    for g, beta in FAMILIES[name]():
        res = sender_best_response(g, beta)
        gap = summed_block_gap(g, beta, res)
        digest = hashlib.sha256(res.policy.a.tobytes()).hexdigest()[:16]
        draws.append((res.iterations, res.converged, gap, digest))
    wall = time.perf_counter() - start
    iters = [d[0] for d in draws]
    converged_gaps = [d[2] for d in draws if d[1]]
    return {
        "family": name,
        "draws": len(draws),
        "unconverged": [i for i, d in enumerate(draws) if not d[1]],
        "iterations": sum(iters),
        "median_iterations": statistics.median(iters),
        "max_iterations": max(iters),
        "worst_converged_gap": max(converged_gaps, default=None),
        "wall_s": round(wall, 3),
        "answers": [list(d) for d in draws],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--family", default="S7,S8,C5,SC,RC,RX,L12",
        help="comma-separated families: " + ", ".join([*FAMILIES, *ALIASES]),
    )
    parser.add_argument("--json", action="store_true", help="print one JSON record")
    args = parser.parse_args(argv)
    names = []
    for name in args.family.split(","):
        name = name.strip().upper()
        if name not in FAMILIES and name not in ALIASES:
            parser.error(f"unknown family {name!r}")
        names.extend(ALIASES.get(name, (name,)))
    results = [replay(name) for name in names]
    if args.json:
        json.dump({"families": results}, sys.stdout)
        print()
        return 0
    print(f"{'family':<7} {'draws':>5} {'uncvg':>5} {'iters':>8} {'median':>7} {'max':>6} "
          f"{'worst gap':>10} {'wall s':>7}  unconverged draws")
    for r in results:
        worst = r["worst_converged_gap"]
        print(f"{r['family']:<7} {r['draws']:>5} {len(r['unconverged']):>5} {r['iterations']:>8,} "
              f"{r['median_iterations']:>7g} {r['max_iterations']:>6} "
              f"{'-' if worst is None else f'{worst:.2e}':>10} {r['wall_s']:>7.2f}  "
              f"{' '.join(map(str, r['unconverged']))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
