"""One benchmark process: set a workload up, then optionally measure it.

Started by run.py in a fresh interpreter whose PYTHONPATH is the checkout's
src/, with the BLAS thread count fixed in its environment.

    python3 bench/worker.py SPEC_JSON RESULT_JSON

The spec names the workload, its input directory, a scratch directory, the
mode ("setup" or "measure"), the seconds to measure and whether to trace.
The result JSON holds the set-up time in wall and reference time (see
Gauge) and, when measuring, each task's mean latency over its runs, also in
reference time when untraced, the speed gauge's mean loop time, check
failures, peak memory, environment and traced metrics.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def _environment() -> dict:
    import numpy as np
    import privsig

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "privsig": privsig.__file__,
    }


class Gauge:
    """The host's speed, sampled by a timer while the workload runs.

    A shared host slows every process on it by up to two times, for
    stretches of milliseconds to minutes. Every ``PERIOD_S`` of wall time a
    SIGALRM handler runs one fixed loop of numpy calls on arrays of 6 to 125
    elements, like the program's own, and records its time. The loop's mean
    time over a stretch measures the host's speed over that stretch, so a
    wall time divided by it, counting one loop as ``REF_LOOP_S`` of
    reference time, is steady where neither is alone. Time spent in the
    handler is not counted as the task's.
    """

    PERIOD_S = 0.01
    REF_LOOP_S = 1e-3
    # a task shorter than this many ticks is gauged by the last ones
    RECENT = 8

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.v = rng.random(8)
        self.w = rng.random(125)
        self.t3 = rng.random((2, 2, 2))
        self.t4 = rng.random((2, 2, 2, 2))
        self.m = rng.random((6, 6)) + 6.0 * np.eye(6)
        self.loop()  # first calls pay one-off costs
        self.ticks: list[float] = []
        self.total_s = 0.0
        self._busy = False

    def loop(self) -> float:
        np, v, w = self.np, self.v, self.w
        s = 0.0
        for _ in range(40):
            s += float(v @ v)
            s += float(np.log(np.maximum(0.5 * w + w, 0.1)).sum())
            s += float(np.einsum("ijk,ijkl->l", self.t3, self.t4)[0])
            s += float(np.linalg.solve(self.m, v[:6])[0])
        return s

    def _tick(self, signum=None, frame=None) -> None:
        if self._busy:  # a tick due while one runs is dropped
            return
        self._busy = True
        begin = time.perf_counter()
        try:
            self.loop()
        finally:
            spent = time.perf_counter() - begin
            self.ticks.append(spent)
            self.total_s += spent
            self._busy = False

    def __enter__(self) -> "Gauge":
        self._tick()  # so that a task ending before the first signal is gauged
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        # a signal from the timer may still be on its way; SIG_DFL would
        # let it end the process
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def reference(self, seconds: float, ticks: int) -> float:
        """``seconds`` of work during which the last ``ticks`` ticks ran, in
        reference time."""
        recent = self.ticks[-max(ticks, self.RECENT):]
        return seconds * self.REF_LOOP_S * len(recent) / sum(recent)

    @property
    def loop_s(self) -> float:
        return self.total_s / len(self.ticks)


class Run(NamedTuple):
    task: int
    out: Path
    latency: float  # wall seconds, less the gauge's ticks
    reference: float | None  # the latency in reference time, if gauged
    outcome: object
    error: str | None
    traced: bool


def _run_task(wl, i: int, out: Path, records: list, traced: bool, gauge) -> float:
    """Run task ``i`` once and record it; returns its latency in seconds."""
    clock = time.perf_counter
    if gauge is not None:
        ticks, paused = len(gauge.ticks), gauge.total_s
    t = clock()
    try:
        outcome, error = wl.run(i, out), None
    except Exception:  # a failed task is counted, not fatal
        outcome, error = None, traceback.format_exc(limit=3)
    latency = clock() - t
    reference = None
    if gauge is not None:
        latency -= gauge.total_s - paused
        reference = gauge.reference(latency, len(gauge.ticks) - ticks)
    records.append(Run(i, out, latency, reference, outcome, error, traced))
    return latency


def _run_pass(wl, scratch: Path, k: int, tracer, gauge, records: list) -> dict:
    """Run every task once, or with a tracer twice: untraced and traced.

    Without a tracer, a task is repeated until its runs in the pass have
    taken the workload's ``REPEAT_S``, if it has one, so that short tasks
    get several samples. The traced and untraced runs of a task follow each
    other, in alternating order, so their difference measures the tracing
    overhead on the same input under the same machine load. Returns the
    summed latencies.
    """
    sums = {False: 0.0, True: 0.0}
    repeat_s = getattr(wl, "REPEAT_S", 0.0)
    for i in range(wl.tasks):
        if tracer is None:
            spent, j = 0.0, 0
            while j == 0 or spent < repeat_s:
                spent += _run_task(wl, i, scratch / f"pass{k}-task{i}-{j}", records, False, gauge)
                j += 1
            sums[False] += spent
            continue
        modes = (False, True) if i % 2 == 0 else (True, False)
        for traced in modes:
            out = scratch / f"pass{k}-task{i}{'-traced' if traced else ''}"
            if not traced:
                sums[False] += _run_task(wl, i, out, records, False, gauge)
                continue
            tracer.task = i
            tracer.install()
            try:
                sums[True] += _run_task(wl, i, out, records, True, None)
            finally:
                tracer.uninstall()
    return sums


def check(wl, i: int, out: Path, outcome) -> str | None:
    """The workload's check of task ``i``; an exception in it is a failure too."""
    try:
        return wl.check(i, out, outcome)
    except Exception:
        return traceback.format_exc(limit=3)


def task_means(records: list, field: str) -> list:
    """Each task's mean of ``field`` over its untraced runs, in task order."""
    runs: dict = {}
    for r in records:
        if not r.traced:
            runs.setdefault(r.task, []).append(getattr(r, field))
    return [statistics.fmean(runs[i]) for i in sorted(runs)]


def measure(wl, scratch: Path, seconds: float, trace: bool, spans_path: Path | None) -> dict:
    """Whole passes over the inputs while another pass fits in ``seconds``,
    each checked after it, outside the timed span.

    An untraced run is sampled by a gauge; a traced one is not.
    """
    tracer = spans.Tracer() if trace else None
    gauge = None if trace else Gauge()
    records: list = []
    pass_sums, pass_spans, failures = [], [], []
    checking = 0.0
    begin = time.perf_counter()
    with gauge or contextlib.nullcontext():
        while True:
            first = len(records)
            pass_sums.append(_run_pass(wl, scratch, len(pass_sums), tracer, gauge, records))
            if trace:
                pass_spans.append(tracer.take())
            k = len(pass_sums)
            elapsed = time.perf_counter() - begin - checking
            # check the pass's outputs and let them go, so that the memory
            # held does not grow with the number of passes
            t = time.perf_counter()
            for j in range(first, len(records)):
                r = records[j]
                error = r.error or check(wl, r.task, r.out, r.outcome)
                if error is not None:
                    failures.append({"task": r.task, "reason": error})
                records[j] = r._replace(outcome=None)
            checking += time.perf_counter() - t
            if elapsed * (k + 1) / k > seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:20],
        "task_mean_s": task_means(records, "latency"),
        "passes": k,
        "peak_rss_mb": peak_rss_mb,
    }
    if gauge is not None:
        result["task_mean_ref_s"] = task_means(records, "reference")
        result["loop_s"] = gauge.loop_s
    if trace:
        per_pass = [spans.layer_metrics(s) for s in pass_spans]
        layer = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        layer["trace.pass_ms"] = statistics.median(s[True] for s in pass_sums) * 1e3
        layer["trace.overhead_ms"] = statistics.median(s[True] - s[False] for s in pass_sums) * 1e3
        result["layer"] = layer
        if spans_path is not None:
            with open(spans_path, "w", encoding="utf-8") as fh:
                for p, rows in enumerate(pass_spans):
                    origin = rows[0].start if rows else 0.0
                    for row in spans.span_rows(rows, p, origin):
                        fh.write(json.dumps(row) + "\n")
    return result


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    with Gauge() as gauge:
        wl = workloads.WORKLOADS[spec["workload"]]()
        wl.load(Path(spec["inputs"]))
        import privsig

        if Path(privsig.__file__).resolve().parent.parent != src:
            print(f"privsig imported from {privsig.__file__}, not from {src}", file=sys.stderr)
            return 2
        scratch = Path(spec["scratch"])
        wl.warmup(scratch)
        setup_s = time.perf_counter() - T0 - gauge.total_s
    result = {"setup_s": setup_s, "setup_ref_s": setup_s * gauge.REF_LOOP_S / gauge.loop_s}
    if spec["mode"] == "measure":
        spans_path = spec.get("spans")
        result.update(measure(
            wl, scratch, float(spec["seconds"]), bool(spec["trace"]),
            Path(spans_path) if spans_path else None,
        ))
        result["env"] = _environment()
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
