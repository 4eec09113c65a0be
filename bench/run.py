"""privsig benchmark: one seeded workload, measured end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The inputs are generated from the seed,
then each measurement runs in a fresh interpreter that imports privsig
from the checkout's src/ with one BLAS thread. With --trace 0 the set-up is
repeated in SETUP_SAMPLES interpreters and the end-to-end metrics are
reported, their times in reference time (see worker.Gauge); with --trace 1
the per-layer metrics of traced passes are. Every
metric is printed as a line "metric NAME VALUE UNIT"; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. Everything written goes under .bench_runs/ in the
checkout: a results file per run, and spans of the last traced run of
each workload.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 7
BLAS_THREADS = 1
# a run must exit within this many seconds, children included
RUN_LIMIT_S = 170.0
# task_p90_ms needs at least ten tasks beyond the 90th percentile
P90_MIN_TASKS = 100

END_TO_END = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(spec: dict, tmp: Path, env: dict, deadline: float) -> dict:
    spec_path = tmp / f"spec-{spec['mode']}.json"
    result_path = tmp / f"result-{spec['mode']}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("worker.py")), str(spec_path), str(result_path)],
        env=env,
        cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def summarize(setups: list[tuple[float, float]], res: dict) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run, plus (value, unit) of the
    figures it prints that BENCHMARK.json does not gate.

    Gated times are in reference time (see worker.Gauge). ``setups`` holds
    (wall, reference) set-up seconds.
    """
    passed_share = 1.0 - res["failed"] / res["attempted"]
    ref_ms = [t * 1e3 for t in res["task_mean_ref_s"]]
    metrics = {
        "setup_s": statistics.median(ref for _, ref in setups),
        "tasks_per_s": passed_share * len(ref_ms) / (sum(ref_ms) / 1e3),
        "task_p50_ms": statistics.median(ref_ms),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    extra = {"fail_ratio": (res["failed"] / res["attempted"], "ratio")}
    if len(ref_ms) >= P90_MIN_TASKS:
        extra["task_p90_ms"] = (statistics.quantiles(ref_ms, n=10)[8], "ms")
    extra.update({
        "wall_setup_s": (statistics.median(wall for wall, _ in setups), "s"),
        "wall_tasks_per_s": (passed_share * len(ref_ms) / sum(res["task_mean_s"]), "1/s"),
        "wall_task_p50_ms": (statistics.median(res["task_mean_s"]) * 1e3, "ms"),
        "gauge_loop_ms": (res["loop_s"] * 1e3, "ms"),
    })
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    src = ROOT / "src"
    if not (src / "privsig" / "__init__.py").is_file():
        print(f"error: no privsig package under {src}", file=sys.stderr)
        return 2
    runs = ROOT / ".bench_runs"
    runs.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    try:
        inputs, scratch = tmp / "inputs", tmp / "scratch"
        inputs.mkdir()
        scratch.mkdir()
        cls = workloads.WORKLOADS[args.workload]
        size = cls.generate(np.random.default_rng(args.seed), inputs, args.tiny)
        env = child_env(src)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        spec = {
            "workload": args.workload,
            "src": str(src),
            "inputs": str(inputs),
            "scratch": str(scratch),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "spans": str(runs / f"spans-{args.workload}.jsonl") if args.trace else None,
        }
        samples = 2 if args.tiny else SETUP_SAMPLES
        setups = []
        if not args.trace:
            for _ in range(samples - 1):
                r = run_child(dict(spec, mode="setup"), tmp, env, deadline)
                setups.append((r["setup_s"], r["setup_ref_s"]))
        res = run_child(dict(spec, mode="measure"), tmp, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setups.append((res["setup_s"], res["setup_ref_s"]))

    if args.trace:
        metrics, units, extra = res["layer"], spans.PER_LAYER, {}
    else:
        (metrics, extra), units = summarize(setups, res), END_TO_END
    env_record = dict(
        res["env"], nproc=os.cpu_count(), seed=args.seed, workload=args.workload,
        trace=args.trace, setup_samples=len(setups),
    )
    record = {
        "env": env_record, "size": size, "passes": res["passes"],
        "attempted": res["attempted"], "failed": res["failed"], "failures": res["failures"],
        "metrics": metrics, "extra": extra,
    }
    (runs / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print("env " + json.dumps(env_record))
    print("input " + json.dumps(dict(size, passes=res["passes"])))
    for f in res["failures"]:
        print(f"failed task {f['task']}: {f['reason'].strip().splitlines()[-1]}")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
