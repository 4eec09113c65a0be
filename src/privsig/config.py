"""JSON configuration and policy-file handling for the command line.

Configs are flat JSON objects with an explicit ``schema_version``. Loading
either returns a fully validated ``GameConfig`` or raises ``ConfigError``
with one message per problem, each prefixed by the offending field path.
Floats are serialized with ``repr`` precision, so save/load round-trips are
bit-exact.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cached_property
from importlib import resources

import numpy as np

from .errors import ConfigError, _check_settings
from .game import DistortionMatrix, GameInstance, ReceiverPolicy, SenderPolicy, hamming_distortion
from .multi import MultiGameInstance, MultiJoint, MultiReceiverPolicy, SenderPolicySet
from .prob import LN2, FiniteSpace, JointPXZW
from .solve import SolverSettings

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SweepSpec:
    start: float
    stop: float
    steps: int
    scale: str = "linear"

    def __post_init__(self):
        # written so that NaN fails each comparison
        _check_settings("rho", self, ("start", "stop"), [
            ("start", self.start >= 0, "must be nonnegative"),
            ("start", self.start < self.stop, "must be strictly below rho.stop"),
            ("steps", self.steps >= 2, "must be at least 2"),
            ("scale", self.scale in ("linear", "log"), "must be 'linear' or 'log'"),
            ("scale", self.scale != "log" or self.start > 0, "log spacing needs start > 0"),
        ])

    def grid(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.steps)
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class DynamicsSettings:
    epsilon: float = 0.01
    max_rounds: int = 500
    variant: str = "thresholded"

    def __post_init__(self):
        # written so that NaN fails the comparison
        _check_settings("dynamics", self, ("epsilon",), [
            ("epsilon", self.epsilon > 0, "must be positive"),
            ("max_rounds", self.max_rounds >= 1, "must be at least 1"),
            ("variant", self.variant in ("plain", "thresholded"), "must be 'plain' or 'thresholded'"),
        ])


@dataclass(frozen=True)
class GameConfig:
    mode: str
    x_space: FiniteSpace
    w_spaces: tuple[FiniteSpace, ...]
    y_spaces: tuple[FiniteSpace, ...]
    joint: np.ndarray
    distortion: np.ndarray | None
    rho: float | SweepSpec
    solver: SolverSettings
    dynamics: DynamicsSettings
    seed: int
    log_base: str
    reference_critical_rho: float | None = None

    def internal_rho(self, rho: float) -> float:
        """Map a user-facing weight to the nats-internal one."""
        return rho / LN2 if self.log_base == "bits" else rho

    def report_information(self, nats: float) -> float:
        return nats / LN2 if self.log_base == "bits" else nats

    def scalar_rho(self) -> float:
        if isinstance(self.rho, SweepSpec):
            raise ConfigError(["rho: this command needs a scalar rho, not a sweep"])
        return float(self.rho)

    def distortion_matrix(self) -> DistortionMatrix:
        if self.distortion is None:
            return hamming_distortion(self.x_space)
        return DistortionMatrix(self.distortion)

    @cached_property
    def _single_parts(self) -> tuple[JointPXZW, DistortionMatrix]:
        """The validated joint and distortion of a single-sender config.

        They do not depend on rho, so they are built once, and every game
        built from the config, as along a sweep, shares them and the
        marginals they cache.
        """
        if self.mode != "single":
            raise ConfigError(["mode: expected a single-sender config"])
        joint = JointPXZW(self.x_space, self.x_space, self.w_spaces[0], self.joint)
        return joint, self.distortion_matrix()

    def build_single(self, rho: float) -> GameInstance:
        joint, distortion = self._single_parts
        return GameInstance(joint, distortion, self.y_spaces[0], self.internal_rho(rho))

    def build_multi(self, rho: float) -> MultiGameInstance:
        if self.mode != "multi":
            raise ConfigError(["mode: expected a multi-sender config"])
        joint = MultiJoint(self.x_space, self.w_spaces, self.joint)
        return MultiGameInstance(
            joint, self.distortion_matrix(), self.y_spaces, self.internal_rho(rho)
        )


def _want(errors, obj, key, kind, label=None, required=False, default=None):
    """obj[key] if it has the given kind, else default with the problem
    recorded. The kinds are "dict", "list" and the annotation names of the
    settings fields: "int", "float" (any finite number) and "str"."""
    label = label or key
    if key not in obj:
        if required:
            errors.append(f"{label}: missing required field")
        return default
    val = obj[key]
    if kind == "int":
        if isinstance(val, bool) or not isinstance(val, int):
            errors.append(f"{label}: expected an integer, got {val!r}")
            return default
    elif kind == "float":
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            errors.append(f"{label}: expected a number, got {val!r}")
            return default
        try:
            val = float(val)
        except OverflowError:  # an integer beyond the float range
            val = math.inf
        if not math.isfinite(val):
            errors.append(f"{label}: expected a finite number, got {val!r}")
            return default
    elif kind == "str":
        if not isinstance(val, str):
            errors.append(f"{label}: expected a string, got {val!r}")
            return default
    elif kind == "dict":
        if not isinstance(val, dict):
            errors.append(f"{label}: expected an object, got {val!r}")
            return default
    elif kind == "list":
        if not isinstance(val, list):
            errors.append(f"{label}: expected an array, got {val!r}")
            return default
    return val


def _space(errors, size, labels, name):
    if size is None:
        return None
    if size < 1:
        errors.append(f"{name}: alphabet size must be positive")
        return None
    try:
        return FiniteSpace(size, tuple(labels) if labels else None)
    except ValueError as exc:
        errors.append(f"{name}: {exc}")
        return None


def _labeled_space(errors, obj, name):
    """The space of the {name}_size and {name}_labels fields."""
    size = _want(errors, obj, f"{name}_size", "int", required=True)
    return _space(errors, size, _want(errors, obj, f"{name}_labels", "list"), f"{name}_size")


def _section(errors, cls, raw, label):
    """Settings dataclass cls built from the JSON object raw.

    Each field's kind is its annotation, a field without a default is
    required, and keys that are not fields are flagged.
    """
    sub: list[str] = []
    kwargs = {}
    for f in fields(cls):
        val = _want(sub, raw, f.name, f.type, f"{label}.{f.name}", required=f.default is MISSING)
        if val is not None:
            kwargs[f.name] = val
    names = {f.name for f in fields(cls)}
    sub += [f"{label}.{key}: unknown field" for key in sorted(set(raw) - names)]
    if not sub:
        try:
            return cls(**kwargs)
        except ConfigError as exc:
            sub = exc.errors
    errors.extend(sub)
    return None


def _rho_field(errors, obj):
    raw = obj.get("rho")
    if isinstance(raw, dict):
        return _section(errors, SweepSpec, raw, "rho")
    rho = _want(errors, obj, "rho", "float", required=True)
    if rho is not None and rho < 0:
        errors.append("rho: must be nonnegative")
        return None
    return rho


def _array_field(errors, raw, name):
    try:
        arr = np.array(raw, dtype=float)
    except OverflowError:
        # an integer too large for a float, which the check below rejects
        arr = np.array(math.inf)
    except (ValueError, TypeError):
        errors.append(f"{name}: ragged or non-numeric nested arrays")
        return None
    if not np.all(np.isfinite(arr)):
        errors.append(f"{name}: entries must be finite")
        return None
    return arr


def load_config(text: str) -> GameConfig:
    """Parse and validate a JSON config; raises ConfigError listing every problem."""
    errors: list[str] = []
    try:
        obj = json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or an integer literal too long to convert
        raise ConfigError([f"json: {exc}"]) from exc
    if not isinstance(obj, dict):
        raise ConfigError(["json: top level must be an object"])

    version = _want(errors, obj, "schema_version", "int", required=True)
    if version is not None and version != SCHEMA_VERSION:
        errors.append(f"schema_version: unsupported version {version}")
    mode = _want(errors, obj, "mode", "str", default="single")
    if mode not in ("single", "multi"):
        errors.append(f"mode: must be 'single' or 'multi', got {mode!r}")
        raise ConfigError(errors)

    x_space = _labeled_space(errors, obj, "x")
    if mode == "single":
        w_spaces = [_labeled_space(errors, obj, "w")]
        y_spaces = [_labeled_space(errors, obj, "y")]
        mode_keys = {"w_size", "w_labels", "y_size", "y_labels"}
    else:
        n = _want(errors, obj, "n", "int", required=True)
        if n is not None and n < 1:
            errors.append("n: must be at least 1")
            n = None
        w_sizes = _want(errors, obj, "w_sizes", "list", required=True)
        y_sizes = _want(errors, obj, "y_sizes", "list", required=True)
        w_spaces, y_spaces = [], []
        for label, sizes, spaces in (("w_sizes", w_sizes, w_spaces), ("y_sizes", y_sizes, y_spaces)):
            if sizes is None:
                continue
            if n is not None and len(sizes) != n:
                errors.append(f"{label}: expected {n} entries")
                continue
            for i, s in enumerate(sizes):
                if isinstance(s, bool) or not isinstance(s, int):
                    errors.append(f"{label}[{i}]: expected an integer")
                    spaces.append(None)
                else:
                    spaces.append(_space(errors, s, None, f"{label}[{i}]"))
        mode_keys = {"n", "w_sizes", "y_sizes"}

    joint_raw = _want(errors, obj, "joint", "list", required=True)
    joint = None if joint_raw is None else _array_field(errors, joint_raw, "joint")
    d_raw = _want(errors, obj, "distortion", "list")
    distortion = None if d_raw is None else _array_field(errors, d_raw, "distortion")

    rho = _rho_field(errors, obj)
    solver_raw = _want(errors, obj, "solver", "dict", default={})
    solver = _section(errors, SolverSettings, solver_raw, "solver")
    dynamics_raw = _want(errors, obj, "dynamics", "dict", default={})
    dynamics = _section(errors, DynamicsSettings, dynamics_raw, "dynamics")
    seed = _want(errors, obj, "seed", "int", default=0)
    if seed is not None and seed < 0:
        errors.append("seed: must be nonnegative")
    log_base = _want(errors, obj, "log_base", "str", default="nats")
    if log_base not in ("nats", "bits"):
        errors.append(f"log_base: must be 'nats' or 'bits', got {log_base!r}")
    reference = _want(errors, obj, "reference_critical_rho", "float")

    known = mode_keys | {
        "schema_version", "mode", "x_size", "x_labels", "joint", "distortion",
        "rho", "solver", "dynamics", "seed", "log_base", "reference_critical_rho",
    }
    for key in sorted(set(obj) - known):
        errors.append(f"{key}: unknown field")

    # shape and pmf validation, once the skeleton fields parsed
    if joint is not None and x_space is not None and all(s is not None for s in w_spaces):
        want = (x_space.size,) * (1 + len(w_spaces)) + tuple(s.size for s in w_spaces)
        if joint.shape != want:
            errors.append(f"joint: shape {joint.shape} does not match spaces {want}")
        else:
            try:
                if mode == "single":
                    JointPXZW(x_space, x_space, w_spaces[0], joint)
                else:
                    MultiJoint(x_space, tuple(w_spaces), joint)
            except ValueError as exc:
                errors.append(f"joint: {exc}")
    if distortion is not None and x_space is not None:
        if distortion.shape != (x_space.size, x_space.size):
            errors.append(
                f"distortion: shape {distortion.shape} does not match the state alphabet"
            )
        elif np.any(distortion < 0):
            errors.append("distortion: entries must be nonnegative")

    if errors:
        raise ConfigError(errors)
    return GameConfig(
        mode=mode,
        x_space=x_space,
        w_spaces=tuple(w_spaces),
        y_spaces=tuple(y_spaces),
        joint=joint,
        distortion=distortion,
        rho=rho,
        solver=solver,
        dynamics=dynamics,
        seed=seed,
        log_base=log_base,
        reference_critical_rho=reference,
    )


def load_config_file(path: str) -> GameConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError([f"config: cannot read {path}: {exc}"]) from exc
    return load_config(text)


def preset_text(name: str) -> str:
    """Text of a bundled preset config, e.g. 'circulant5'."""
    base = name[:-5] if name.endswith(".json") else name
    ref = resources.files("privsig").joinpath("presets", f"{base}.json")
    if not ref.is_file():
        raise ConfigError([f"config: no bundled preset named {name!r}"])
    return ref.read_text(encoding="utf-8")


def resolve_config(path_or_preset: str) -> GameConfig:
    """Load a config from a file path, falling back to bundled preset names."""
    if os.path.exists(path_or_preset):
        return load_config_file(path_or_preset)
    try:
        text = preset_text(path_or_preset)
    except ConfigError as exc:
        raise ConfigError(
            [f"config: {path_or_preset!r} is neither a file nor a bundled preset"]
        ) from exc
    return load_config(text)


# policy serialization


def sender_policy_to_json(policy: SenderPolicy) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "sender_policy",
        "shape": list(policy.a.shape),
        "a": policy.a.tolist(),
    }
    return json.dumps(doc, indent=2)


def receiver_policy_to_json(policy: ReceiverPolicy | MultiReceiverPolicy) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "receiver_policy",
        "shape": list(policy.b.shape),
        "b": policy.b.tolist(),
    }
    return json.dumps(doc, indent=2)


def _policy_doc(text: str, kind: str, field: str) -> np.ndarray:
    errors: list[str] = []
    try:
        obj = json.loads(text)
    except ValueError as exc:  # as in load_config
        raise ConfigError([f"policy: {exc}"]) from exc
    if not isinstance(obj, dict):
        raise ConfigError(["policy: top level must be an object"])
    if obj.get("schema_version") != SCHEMA_VERSION:
        errors.append("policy.schema_version: missing or unsupported")
    if obj.get("kind") != kind:
        errors.append(f"policy.kind: expected {kind!r}, got {obj.get('kind')!r}")
    arr = _array_field(errors, obj.get(field), f"policy.{field}")
    if arr is not None and list(arr.shape) != obj.get("shape"):
        errors.append(f"policy.shape: {obj.get('shape')} does not match data {arr.shape}")
    if errors or arr is None:
        raise ConfigError(errors or ["policy: missing data"])
    return arr


def sender_policy_from_json(text: str) -> SenderPolicy:
    arr = _policy_doc(text, "sender_policy", "a")
    try:
        return SenderPolicy(arr)
    except ValueError as exc:
        raise ConfigError([f"policy: {exc}"]) from exc


def receiver_policy_from_json(text: str, multi: bool = False):
    arr = _policy_doc(text, "receiver_policy", "b")
    try:
        return MultiReceiverPolicy(arr) if multi else ReceiverPolicy(arr)
    except ValueError as exc:
        raise ConfigError([f"policy: {exc}"]) from exc


def sender_policy_set_from_json(texts: list[str]) -> SenderPolicySet:
    return SenderPolicySet(tuple(sender_policy_from_json(t) for t in texts))


def config_to_json(cfg: GameConfig) -> str:
    """Serialize a config back to JSON (round-trips bit-exactly)."""
    doc: dict = {"schema_version": SCHEMA_VERSION, "mode": cfg.mode}
    spaces = {"x": cfg.x_space}
    if cfg.mode == "single":
        spaces.update(w=cfg.w_spaces[0], y=cfg.y_spaces[0])
    for name, space in spaces.items():
        doc[f"{name}_size"] = space.size
        if space.labels:
            doc[f"{name}_labels"] = list(space.labels)
    if cfg.mode == "multi":
        doc["n"] = len(cfg.w_spaces)
        doc["w_sizes"] = [s.size for s in cfg.w_spaces]
        doc["y_sizes"] = [s.size for s in cfg.y_spaces]
    doc["joint"] = cfg.joint.tolist()
    if cfg.distortion is not None:
        doc["distortion"] = cfg.distortion.tolist()
    doc["rho"] = asdict(cfg.rho) if isinstance(cfg.rho, SweepSpec) else cfg.rho
    doc["solver"] = asdict(cfg.solver)
    doc["dynamics"] = asdict(cfg.dynamics)
    doc["seed"] = cfg.seed
    doc["log_base"] = cfg.log_base
    if cfg.reference_critical_rho is not None:
        doc["reference_critical_rho"] = cfg.reference_critical_rho
    return json.dumps(doc, indent=2)
