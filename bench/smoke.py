"""Smoke test of the benchmark itself; exits non-zero on the first problem.

    python3 bench/smoke.py

Checks, in about a minute:
- the self-time arithmetic on synthetic nested spans;
- that the speed gauge times a task shorter than its period, and keeps its
  own time out of a task's latency;
- that a tampered policy file fails the solve-random check;
- a tiny run of every workload, untraced and traced, reports exactly the
  metric names and units that BENCHMARK.json lists;
- that run.py exits non-zero, printing no result, without a src/ tree.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"smoke FAIL: {what}")


def check_self_times() -> None:
    S = spans.Span
    synthetic = [
        S("cli", "main", 0.0, 10.0),
        S("config", "load_config_file", 1.0, 4.0, parent=0),
        S("config", "load_config", 2.0, 3.0, parent=1),
        S("solve.sender_br", "sender_best_response", 3.0, 6.0, parent=0),  # overlaps span 1
        S("game.eval", "leakage", 8.0, 12.0, parent=0),  # runs past its parent's end
    ]
    got = spans.self_times_ms(synthetic)
    # cli: 10 - |[1, 6] u [8, 10]| = 3; load_config_file: 3 - 1 = 2
    want = [3e3, 2e3, 1e3, 3e3, 4e3]
    expect(all(math.isclose(g, w) for g, w in zip(got, want)), f"self times {got} != {want}")
    m = spans.layer_metrics(synthetic)
    expect(math.isclose(m["cli.self_ms"], 3e3), f"cli.self_ms {m['cli.self_ms']}")
    # nested config calls count once, at the outer one
    expect(math.isclose(m["config.ms"], 3e3), f"config.ms {m['config.ms']}")
    expect(m["solve.sender_br.calls"] == 1 and m["game.eval.calls"] == 1, "call counts")


def check_gauge(tmp: Path) -> None:
    """A task that ends before the gauge's first signal is gauged too, and
    the handler's time is not counted as the task's."""

    class Instant:
        tasks = 1

        def run(self, i, out):
            return None

    class Busy(Instant):
        def run(self, i, out):
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass

    for wl in (Instant(), Busy()):
        records = []
        with worker.Gauge() as gauge:
            worker._run_pass(wl, tmp, 0, None, gauge, records)
        (r,) = records
        expect(r.reference is not None and r.reference > 0.0, f"reference time {r.reference}")
    expect(len(gauge.ticks) > 5, f"{len(gauge.ticks)} gauge ticks in 0.2 s")
    # the busy task's 0.2 s of wall time include the ticks after the first
    expect(r.latency < 0.2 - 0.5 * sum(gauge.ticks[1:]), f"latency {r.latency} includes the ticks")


def check_tampered_policy(tmp: Path) -> None:
    inputs, out = tmp / "inputs", tmp / "out"
    inputs.mkdir()
    # an informative equilibrium (low rho), so the uniform encoder is far from it
    p = [[[0.30, 0.05], [0.02, 0.01], [0.01, 0.01]],
         [[0.01, 0.02], [0.05, 0.25], [0.01, 0.01]],
         [[0.01, 0.01], [0.01, 0.02], [0.10, 0.10]]]
    (inputs / "game000.json").write_text(json.dumps({
        "schema_version": 1, "mode": "single", "x_size": 3, "w_size": 2, "y_size": 3,
        "joint": p, "rho": 0.05,
    }))
    (inputs / "receivers.json").write_text(json.dumps([[[0.5] * 3, [0.2] * 3, [0.3] * 3]]))
    wl = workloads.SolveRandom()
    wl.load(inputs)
    outcome = wl.run(0, out)
    expect(worker.check(wl, 0, out, outcome) is None, "untampered solve output fails its check")

    alpha = json.loads((out / "alpha.json").read_text())
    alpha["a"] = [[[1.0 / 3.0] * 2] * 3] * 3
    (out / "alpha.json").write_text(json.dumps(alpha))
    expect(worker.check(wl, 0, out, outcome) is not None, "uniform encoder passes the check")
    (out / "alpha.json").write_text("{not json")
    expect(worker.check(wl, 0, out, outcome) is not None, "unreadable policy passes the check")


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_tiny_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    groups = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect(groups[0] == run.END_TO_END, "BENCHMARK.json end_to_end differs from run.END_TO_END")
    expect(groups[1] == spans.PER_LAYER, "BENCHMARK.json per_layer differs from spans.PER_LAYER")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "workload names")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            expect(proc.returncode == 0, f"{name} trace={trace} exit {proc.returncode}: {proc.stderr}")
            res = last_json(proc.stdout)
            expect(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{name} result keys")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{name} trace={trace}: {res['failed']} of {res['attempted']} tasks failed")
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(units == groups[trace], f"{name} trace={trace} metrics {sorted(units)}")
            print(f"smoke ok: {name} trace={trace}, {res['attempted']} tasks")


def check_no_program(tmp: Path) -> None:
    bare = tmp / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "solve-random", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode != 0 and not proc.stdout.strip(), "run.py without src/ must fail silently")


def main() -> int:
    check_self_times()
    runs = ROOT / ".bench_runs"
    runs.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="smoke-", dir=runs))
    try:
        check_gauge(tmp)
        check_tampered_policy(tmp)
        check_no_program(tmp)
        check_tiny_runs()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
