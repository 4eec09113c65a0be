import json

import pytest

from conftest import CIRCULANT_MATRIX
from privsig import sweep as sweep_mod
from privsig.config import load_config
from privsig.prob import LN2, JointPXZW
from privsig.sweep import CRITICAL_WIDTH, run_sweep, sweep_report


def circulant_sweep_config(log_base: str, start: float, stop: float, steps: int):
    return load_config(json.dumps({
        "schema_version": 1,
        "x_size": 5,
        "w_size": 5,
        "y_size": 5,
        "joint": JointPXZW.from_xw_matrix(CIRCULANT_MATRIX).p.tolist(),
        "rho": {"start": start, "stop": stop, "steps": steps},
        "log_base": log_base,
    }))


def test_critical_rho_is_bisected_once_and_converted(monkeypatch):
    cfg = circulant_sweep_config("bits", 0.2, 0.6, 5)
    rows = run_sweep(cfg)
    solved = []
    point = sweep_mod._point

    def counted(*args):
        solved.append(args[1])
        return point(*args)

    monkeypatch.setattr(sweep_mod, "_point", counted)
    crit = sweep_report(cfg, rows, "explicit")["critical_rho"]
    # only the bisection of the 0.1-wide bracket runs, no scan of the other base
    assert len(solved) == 7
    assert all(0.2 <= rho <= 0.3 for rho in solved)
    assert crit["bits"] == pytest.approx(0.3803 * LN2, abs=CRITICAL_WIDTH)
    assert crit["nats"] == pytest.approx(crit["bits"] / LN2, rel=1e-15)


@pytest.mark.parametrize("start, stop", [(0.0, 0.1), (0.8, 1.0)])
def test_critical_rho_is_null_in_both_bases_without_transition(start, stop):
    cfg = circulant_sweep_config("nats", start, stop, 3)
    report = sweep_report(cfg, run_sweep(cfg), "explicit")
    assert report["critical_rho"] == {"nats": None, "bits": None}
