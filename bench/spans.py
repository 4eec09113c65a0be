"""Span recording and per-layer metrics for traced benchmark passes.

A ``Tracer`` wraps the public functions of each privsig layer, but only while
it is installed: ``install`` patches every privsig module binding of each
wrapped function, so a call is traced whichever module looks the name up,
and ``uninstall`` restores the originals. Each call records a span (layer,
function, start, end, parent span, task id) in memory, plus counts read
from the returned result. ``layer_metrics`` turns one pass of spans into
the per-layer numbers listed in ``PER_LAYER``.
"""
from __future__ import annotations

import dataclasses
import hashlib
import inspect
import sys
import time
from collections import defaultdict

# layer -> (module, attribute) of every public function traced for it;
# "Class.method" attributes are patched on the class
LAYERS: dict[str, list[tuple[str, str]]] = {
    "cli": [("privsig.cli", "main")],
    "config": [
        ("privsig.config", name)
        for name in (
            "resolve_config",
            "load_config",
            "load_config_file",
            "preset_text",
            "config_to_json",
            "sender_policy_to_json",
            "receiver_policy_to_json",
            "sender_policy_from_json",
            "receiver_policy_from_json",
            "GameConfig.build_single",
            "GameConfig.build_multi",
        )
    ],
    "sweep.run": [("privsig.sweep", "run_sweep")],
    "sweep.report": [("privsig.sweep", "sweep_report")],
    "solve.explicit": [("privsig.solve", "explicit_equilibrium")],
    "solve.sender_br": [("privsig.solve", "sender_best_response")],
    "solve.receiver_br": [("privsig.solve", "receiver_best_response")],
    "solve.eps_check": [("privsig.solve", "epsilon_nash_check")],
    "multi.dynamics": [("privsig.multi", "random_best_response_dynamics")],
    "multi.eps_check": [("privsig.multi", "epsilon_nash_check_multi")],
    "multi.sender_br": [("privsig.multi", "sender_best_response_multi")],
    "multi.receiver_br": [("privsig.multi", "receiver_best_response_multi")],
    "multi.eval": [
        ("privsig.multi", name)
        for name in (
            "potential_multi",
            "sender_cost_multi",
            "receiver_cost_multi",
            "expected_distortion_multi",
            "leakage_j",
        )
    ],
    "game.eval": [
        ("privsig.game", name)
        for name in (
            "expected_distortion",
            "leakage",
            "sender_cost",
            "receiver_cost",
            "potential",
            "message_secret_joint",
            "induced_estimate_joint",
        )
    ],
}

# every per-layer metric a traced run reports, with its unit
PER_LAYER: dict[str, str] = {
    "solve.sender_br.calls": "count",
    "solve.sender_br.ms": "ms",
    "solve.sender_br.iters": "count",
    "solve.sender_br.ms_per_iter": "ms",
    "solve.sender_br.unconverged": "count",
    "solve.sender_br.unique_ratio": "ratio",
    "solve.sender_br.max_gap": "cost",
    "solve.receiver_br.calls": "count",
    "solve.receiver_br.ms": "ms",
    "solve.eps_check.calls": "count",
    "solve.eps_check.self_ms": "ms",
    "sweep.points": "count",
    "sweep.run_ms": "ms",
    "sweep.report_ms": "ms",
    "multi.sender_br.calls": "count",
    "multi.sender_br.ms": "ms",
    "multi.sender_br.iters": "count",
    "multi.sender_br.max_gap": "cost",
    "multi.receiver_br.ms": "ms",
    "multi.eval.calls": "count",
    "multi.eval.ms": "ms",
    "multi.dynamics.rounds": "count",
    "game.eval.calls": "count",
    "game.eval.ms": "ms",
    "cli.self_ms": "ms",
    "config.ms": "ms",
    "trace.pass_ms": "ms",
    "trace.overhead_ms": "ms",
}


@dataclasses.dataclass
class Span:
    layer: str
    fn: str
    start: float = 0.0
    end: float = 0.0
    parent: int | None = None
    task: int | None = None
    counts: dict = dataclasses.field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


def _best_response_counts(span: Span, bound, result) -> None:
    span.counts["iters"] = int(getattr(result, "iterations", 0))
    span.counts["unconverged"] = int(not getattr(result, "converged", True))
    span.counts["gap"] = float(getattr(result, "stationarity_gap", 0.0))


def _single_best_response_counts(span: Span, bound, result) -> None:
    _best_response_counts(span, bound, result)
    span.counts["key"] = _input_key(bound.arguments.values())


def _dynamics_counts(span: Span, bound, result) -> None:
    span.counts["rounds"] = int(getattr(result, "iterations_used", 0))


# layer -> hook(span, bound arguments, result) that adds counts to the span
_HOOKS = {
    "solve.sender_br": _single_best_response_counts,
    "multi.sender_br": _best_response_counts,
    "multi.dynamics": _dynamics_counts,
}


def _input_key(values) -> str:
    """Digest of a call's inputs: the arrays and scalars in their dataclass fields."""
    h = hashlib.blake2b(digest_size=16)

    def feed(obj, depth):
        if hasattr(obj, "tobytes"):
            h.update(repr((obj.shape, obj.dtype.str)).encode())
            h.update(obj.tobytes())
        elif depth < 4 and dataclasses.is_dataclass(obj):
            for f in dataclasses.fields(obj):
                h.update(f.name.encode())
                feed(getattr(obj, f.name), depth + 1)
        else:
            h.update(repr(obj).encode())

    for value in values:
        feed(value, 0)
    return h.hexdigest()


class Tracer:
    """Holds the spans of traced calls; wrappers exist only while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.task: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        hook = _HOOKS.get(layer)
        signature = inspect.signature(fn) if hook is not None else None
        name = getattr(fn, "__qualname__", None) or getattr(fn, "name", layer)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(layer, name, parent=stack[-1] if stack else None, task=self.task)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(span, bound, result)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "privsig" or name.startswith("privsig."))
        ]
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                owner = sys.modules.get(module_name)
                cls_name, _, fn_name = attr.rpartition(".")
                if owner is not None and cls_name:
                    owner = getattr(owner, cls_name, None)
                fn = getattr(owner, fn_name, None) if owner is not None else None
                if fn is None:
                    continue
                wrapper = self._wrap(layer, fn)
                if cls_name:
                    self._patch(owner, fn_name, wrapper)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, name, wrapper)

    def _patch(self, owner, name: str, new) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        while self._patched:
            owner, name, old = self._patched.pop()
            setattr(owner, name, old)

    def take(self) -> list[Span]:
        """Hand over the recorded spans and start an empty list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a traced call is open")
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times_ms(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children[i]):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append((s.end - s.start - covered) * 1e3)
    return out


def _has_ancestor(spans: list[Span], s: Span, layers) -> bool:
    p = s.parent
    while p is not None:
        if spans[p].layer in layers:
            return True
        p = spans[p].parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but the trace.* ones)."""
    self_ms = self_times_ms(spans)

    def outer(layer):
        # calls into the layer from outside it; nested calls are its own work
        return [
            (s, self_ms[i]) for i, s in enumerate(spans)
            if s.layer == layer and not _has_ancestor(spans, s, (layer,))
        ]

    def total(pairs, what="ms"):
        if what == "ms":
            return float(sum(s.ms for s, _ in pairs))
        if what == "self_ms":
            return float(sum(own for _, own in pairs))
        return float(sum(s.counts.get(what, 0) for s, _ in pairs))

    m: dict[str, float] = {}
    sbr = outer("solve.sender_br")
    m["solve.sender_br.calls"] = float(len(sbr))
    m["solve.sender_br.ms"] = total(sbr)
    m["solve.sender_br.iters"] = total(sbr, "iters")
    iters = m["solve.sender_br.iters"]
    m["solve.sender_br.ms_per_iter"] = m["solve.sender_br.ms"] / iters if iters else 0.0
    m["solve.sender_br.unconverged"] = total(sbr, "unconverged")
    keys = {s.counts.get("key") for s, _ in sbr}
    m["solve.sender_br.unique_ratio"] = len(keys) / len(sbr) if sbr else 0.0
    m["solve.sender_br.max_gap"] = max((s.counts.get("gap", 0.0) for s, _ in sbr), default=0.0)
    rbr = outer("solve.receiver_br")
    m["solve.receiver_br.calls"] = float(len(rbr))
    m["solve.receiver_br.ms"] = total(rbr)
    eps = outer("solve.eps_check")
    m["solve.eps_check.calls"] = float(len(eps))
    m["solve.eps_check.self_ms"] = total(eps, "self_ms")

    sweep_layers = ("sweep.run", "sweep.report")
    m["sweep.points"] = float(sum(
        1 for s in spans
        if s.fn.endswith("build_single") and _has_ancestor(spans, s, sweep_layers)
    ))
    m["sweep.run_ms"] = total(outer("sweep.run"))
    m["sweep.report_ms"] = total(outer("sweep.report"))

    mbr = outer("multi.sender_br")
    m["multi.sender_br.calls"] = float(len(mbr))
    m["multi.sender_br.ms"] = total(mbr)
    m["multi.sender_br.iters"] = total(mbr, "iters")
    m["multi.sender_br.max_gap"] = max((s.counts.get("gap", 0.0) for s, _ in mbr), default=0.0)
    m["multi.receiver_br.ms"] = total(outer("multi.receiver_br"))
    mev = outer("multi.eval")
    m["multi.eval.calls"] = float(len(mev))
    m["multi.eval.ms"] = total(mev)
    m["multi.dynamics.rounds"] = total(outer("multi.dynamics"), "rounds")

    gev = outer("game.eval")
    m["game.eval.calls"] = float(len(gev))
    m["game.eval.ms"] = total(gev)
    m["cli.self_ms"] = total(outer("cli"), "self_ms")
    m["config.ms"] = total(outer("config"))
    return m


def span_rows(spans: list[Span], pass_index: int, origin: float) -> list[list]:
    """Spans as JSON-ready rows, times in ms from the start of their pass."""
    return [
        [pass_index, s.task, s.layer, s.fn, (s.start - origin) * 1e3,
         (s.end - origin) * 1e3, s.parent,
         {k: v for k, v in s.counts.items() if k != "key"}]
        for s in spans
    ]
