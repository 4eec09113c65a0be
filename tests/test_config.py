import json
import math
from dataclasses import fields

import numpy as np
import pytest

from conftest import CIRCULANT_MATRIX
from privsig.config import (
    ConfigError,
    DynamicsSettings,
    GameConfig,
    SweepSpec,
    config_to_json,
    load_config,
    load_config_file,
    preset_text,
    receiver_policy_from_json,
    receiver_policy_to_json,
    resolve_config,
    sender_policy_from_json,
    sender_policy_set_from_json,
    sender_policy_to_json,
)
from privsig.game import ReceiverPolicy, SenderPolicy
from privsig.multi import MultiReceiverPolicy
from privsig.prob import FiniteSpace, JointPXZW
from privsig.solve import SolverSettings


MINIMAL_SINGLE = {
    "schema_version": 1,
    "x_size": 2,
    "w_size": 2,
    "y_size": 2,
    "joint": [[[0.2, 0.2], [0.0, 0.0]], [[0.0, 0.0], [0.3, 0.3]]],
    "rho": 0.5,
}


def single_text(**overrides) -> str:
    doc = dict(MINIMAL_SINGLE)
    doc.update(overrides)
    return json.dumps(doc)


def multi_text(**overrides) -> str:
    doc = {
        "schema_version": 1,
        "mode": "multi",
        "x_size": 2,
        "n": 2,
        "w_sizes": [2, 2],
        "y_sizes": [2, 2],
        "joint": np.full((2, 2, 2, 2, 2), 1.0 / 32).tolist(),
        "rho": 0.3,
    }
    doc.update(overrides)
    return json.dumps(doc)


def errors_of(text: str) -> list[str]:
    with pytest.raises(ConfigError) as err:
        load_config(text)
    return err.value.errors


# ----------------------------------------------------------------- preset


def test_bundled_preset_loads():
    cfg = load_config(preset_text("circulant5"))
    assert cfg.mode == "single"
    assert cfg.x_space.size == 5
    assert cfg.x_space.labels == ("1", "2", "3", "4", "5")
    assert isinstance(cfg.rho, SweepSpec)
    assert (cfg.rho.start, cfg.rho.stop, cfg.rho.steps) == (0.0, 1.0, 101)
    assert cfg.log_base == "nats"
    assert cfg.reference_critical_rho == pytest.approx(0.38)
    lifted = JointPXZW.from_xw_matrix(CIRCULANT_MATRIX)
    np.testing.assert_array_equal(cfg.joint, lifted.p)


def test_preset_accepts_json_suffix():
    assert preset_text("circulant5.json") == preset_text("circulant5")


def test_preset_builds_playable_game():
    cfg = load_config(preset_text("circulant5"))
    g = cfg.build_single(0.5)
    assert g.rho == 0.5
    assert g.x_space.size == g.y_space.size == g.w_space.size == 5


def test_unknown_preset_is_reported():
    with pytest.raises(ConfigError, match="no bundled preset"):
        preset_text("missing_preset")
    with pytest.raises(ConfigError, match="neither a file nor a bundled preset"):
        resolve_config("missing_preset")


def test_resolve_config_prefers_files(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(single_text())
    cfg = resolve_config(str(path))
    assert cfg.x_space.size == 2
    assert cfg.rho == 0.5


def test_load_config_file_missing_path():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config_file("/nonexistent/game.json")


# ------------------------------------------------------------- validation


def test_every_problem_is_listed_with_its_field_path():
    text = json.dumps(
        {
            "x_size": "five",
            "w_size": 2,
            "y_size": 2,
            "joint": [[[0.5, 0.5]]],
            "rho": {"start": 1.0, "stop": 0.5, "steps": 1},
            "solver": {"max_iters": 100, "mystery": 3},
            "seed": -4,
            "log_base": "trits",
        }
    )
    errors = errors_of(text)
    joined = "\n".join(errors)
    assert "schema_version: missing required field" in joined
    assert "x_size: expected an integer" in joined
    assert "rho.start: must be strictly below rho.stop" in joined
    assert "rho.steps: must be at least 2" in joined
    assert "solver.mystery: unknown field" in joined
    assert "seed: must be nonnegative" in joined
    assert "log_base: must be 'nats' or 'bits'" in joined


def test_joint_shape_and_mass_are_checked():
    errors = errors_of(single_text(joint=[[0.5, 0.5], [0.0, 0.0]]))
    assert any(e.startswith("joint: shape") for e in errors)

    half = [[[0.1, 0.1], [0.0, 0.0]], [[0.0, 0.0], [0.15, 0.15]]]
    errors = errors_of(single_text(joint=half))
    assert any("normalization" in e for e in errors)

    negative = [[[0.6, 0.6], [0.0, 0.0]], [[0.0, 0.0], [-0.1, -0.1]]]
    errors = errors_of(single_text(joint=negative))
    assert any("negative entry" in e for e in errors)

    oversized = [[[1.2, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    errors = errors_of(single_text(joint=oversized))
    assert any("out of range" in e for e in errors)


def test_joint_rejects_ragged_and_nonfinite():
    assert any(
        "ragged or non-numeric" in e
        for e in errors_of(single_text(joint=[[0.5], [0.25, 0.25]]))
    )
    nan_joint = [[[0.2, 0.2], [0.0, 0.0]], [[0.0, 0.0], [0.3, None]]]
    assert any("joint" in e for e in errors_of(single_text(joint=nan_joint)))
    huge_joint = [[[0.2, 0.2], [0.0, 0.0]], [[0.0, 0.0], [0.3, 10**400]]]
    assert "joint: entries must be finite" in errors_of(single_text(joint=huge_joint))


def test_rho_field_forms():
    assert load_config(single_text(rho=0)).rho == 0.0
    sweep = load_config(single_text(rho={"start": 0.1, "stop": 1.0, "steps": 5, "scale": "log"}))
    assert isinstance(sweep.rho, SweepSpec)
    np.testing.assert_allclose(
        sweep.rho.grid(), np.geomspace(0.1, 1.0, 5), rtol=0, atol=0
    )
    assert any("rho: must be nonnegative" in e for e in errors_of(single_text(rho=-1.0)))
    assert any("rho: expected a number" in e for e in errors_of(single_text(rho="big")))
    assert any(
        "rho.scale: log spacing needs start > 0" in e
        for e in errors_of(
            single_text(rho={"start": 0.0, "stop": 1.0, "steps": 3, "scale": "log"})
        )
    )
    doc = dict(MINIMAL_SINGLE)
    del doc["rho"]
    assert any("rho: missing required field" in e for e in errors_of(json.dumps(doc)))


def patched_preset(patches):
    """The circulant5 preset with each (path, value) of patches applied, a
    path being a tuple of keys."""
    doc = json.loads(preset_text("circulant5"))
    for path, value in patches:
        node = doc
        for parent in path[:-1]:
            if not isinstance(node.get(parent), dict):
                node[parent] = {}
            node = node[parent]
        node[path[-1]] = value
    return doc


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize(
    "path",
    [("rho",), ("rho", "start"), ("solver", "grad_tol"), ("dynamics", "epsilon"),
     ("reference_critical_rho",)],
    ids=".".join,
)
def test_non_finite_numbers_are_rejected(path, literal):
    # json.loads reads NaN, Infinity and overflowing literals as floats
    text = json.dumps(patched_preset([(path, "@@")])).replace('"@@"', literal)
    label = ".".join(path)
    assert any(e.startswith(f"{label}: expected a finite number") for e in errors_of(text))


def test_overlong_integer_literal_is_a_config_error():
    # json.loads refuses integers past Python's digit limit with a ValueError
    with pytest.raises(ConfigError, match="json:"):
        load_config(single_text().replace('"rho": 0.5', '"rho": ' + "9" * 5000))


def test_sweep_grid_linear_hits_endpoints():
    grid = SweepSpec(0.0, 1.0, 101).grid()
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert grid.size == 101


def test_unknown_top_level_field_is_flagged():
    assert any(
        "mystery_knob: unknown field" in e for e in errors_of(single_text(mystery_knob=1))
    )


def test_dynamics_validation():
    bad = single_text(dynamics={"epsilon": -0.5, "variant": "eager"})
    errors = errors_of(bad)
    assert any("dynamics.epsilon" in e for e in errors) or any(
        "dynamics.variant" in e for e in errors
    )
    cfg = load_config(single_text(dynamics={"epsilon": 0.2}))
    assert cfg.dynamics == DynamicsSettings(epsilon=0.2)


def test_settings_validate_on_construction():
    with pytest.raises(ConfigError) as err:
        SweepSpec(1.0, 0.5, 1, "cubic")
    assert err.value.errors == [
        "rho.start: must be strictly below rho.stop",
        "rho.steps: must be at least 2",
        "rho.scale: must be 'linear' or 'log'",
    ]
    with pytest.raises(ConfigError) as err:
        DynamicsSettings(epsilon=-1.0, max_rounds=0, variant="eager")
    assert err.value.errors == [
        "dynamics.epsilon: must be positive",
        "dynamics.max_rounds: must be at least 1",
        "dynamics.variant: must be 'plain' or 'thresholded'",
    ]
    with pytest.raises(ConfigError, match="rho.start: must be nonnegative"):
        SweepSpec(float("nan"), 1.0, 3)


def test_rho_sweep_object_flags_unknown_keys():
    rho = {"start": 0.1, "stop": 1.0, "steps": 3, "spacing": "log"}
    assert errors_of(single_text(rho=rho)) == ["rho.spacing: unknown field"]


def test_keys_of_the_other_mode_are_unknown_fields():
    errors = errors_of(multi_text(w_size=2, w_labels=["a", "b"], y_size=2, y_labels=["c", "d"]))
    assert errors == [
        "w_labels: unknown field", "w_size: unknown field",
        "y_labels: unknown field", "y_size: unknown field",
    ]
    errors = errors_of(single_text(n=1, w_sizes="junk", y_sizes=[2]))
    assert errors == ["n: unknown field", "w_sizes: unknown field", "y_sizes: unknown field"]


def test_multi_config_builds():
    cfg = load_config(multi_text())
    assert cfg.mode == "multi"
    g = cfg.build_multi(0.3)
    assert g.n == 2
    with pytest.raises(ConfigError, match="single-sender"):
        cfg.build_single(0.3)
    single = load_config(single_text())
    with pytest.raises(ConfigError, match="multi-sender"):
        single.build_multi(0.5)


def test_multi_config_size_list_mismatch():
    assert any(
        "w_sizes: expected 2 entries" in e for e in errors_of(multi_text(w_sizes=[2]))
    )
    assert any(
        "y_sizes[1]: expected an integer" in e
        for e in errors_of(multi_text(y_sizes=[2, "two"]))
    )


def test_scalar_rho_accessor_rejects_sweeps():
    cfg = load_config(preset_text("circulant5"))
    with pytest.raises(ConfigError, match="scalar"):
        cfg.scalar_rho()
    assert load_config(single_text()).scalar_rho() == 0.5


# ------------------------------------------------------------- log bases


def test_internal_rho_conversion():
    nats = load_config(single_text(log_base="nats"))
    bits = load_config(single_text(log_base="bits"))
    assert nats.internal_rho(0.7) == 0.7
    assert bits.internal_rho(1.0) == pytest.approx(1.0 / math.log(2.0), rel=1e-15)
    assert bits.report_information(math.log(2.0)) == pytest.approx(1.0, rel=1e-15)
    assert nats.report_information(0.25) == 0.25


# ------------------------------------------------------------ round-trips


def test_config_round_trip_is_bit_exact():
    for text in (preset_text("circulant5"), single_text(), multi_text()):
        cfg = load_config(text)
        dumped = config_to_json(cfg)
        again = load_config(dumped)
        np.testing.assert_array_equal(cfg.joint, again.joint)
        assert cfg.rho == again.rho
        assert cfg.solver == again.solver
        assert cfg.dynamics == again.dynamics
        assert cfg.log_base == again.log_base
        assert config_to_json(again) == dumped


def test_sender_policy_round_trip():
    policy = SenderPolicy(np.array([[[0.125, 1.0]], [[0.875, 0.0]]]))
    text = sender_policy_to_json(policy)
    back = sender_policy_from_json(text)
    np.testing.assert_array_equal(back.a, policy.a)
    [one] = sender_policy_set_from_json([text]).policies
    np.testing.assert_array_equal(one.a, policy.a)


def test_receiver_policy_round_trip_both_flavors():
    single = ReceiverPolicy(np.array([[0.25, 1.0], [0.75, 0.0]]))
    back = receiver_policy_from_json(receiver_policy_to_json(single))
    np.testing.assert_array_equal(back.b, single.b)

    multi = MultiReceiverPolicy(np.full((2, 2, 2), [[0.5, 0.5], [0.5, 0.5]]))
    again = receiver_policy_from_json(receiver_policy_to_json(multi), multi=True)
    assert isinstance(again, MultiReceiverPolicy)
    np.testing.assert_array_equal(again.b, multi.b)


def test_policy_documents_are_validated():
    with pytest.raises(ConfigError, match="kind"):
        sender_policy_from_json(
            json.dumps({"schema_version": 1, "kind": "receiver_policy", "a": [[[1.0]]], "shape": [1, 1, 1]})
        )
    with pytest.raises(ConfigError, match="shape"):
        sender_policy_from_json(
            json.dumps({"schema_version": 1, "kind": "sender_policy", "a": [[[1.0]]], "shape": [2, 1, 1]})
        )
    with pytest.raises(ConfigError, match="schema_version"):
        receiver_policy_from_json(json.dumps({"kind": "receiver_policy", "b": [[1.0]], "shape": [1, 1]}))
    with pytest.raises(ConfigError):
        sender_policy_from_json("not json at all")
    with pytest.raises(ConfigError, match="policy:"):
        sender_policy_from_json('{"a": ' + "9" * 5000 + "}")


# ----------------------------------------------------------- properties


def config_numbers(cfg: GameConfig) -> list[float]:
    """Every float a loaded config carries."""
    rho = cfg.rho
    numbers = [rho.start, rho.stop] if isinstance(rho, SweepSpec) else [rho]
    numbers += [cfg.solver.grad_tol, cfg.solver.obj_tol, cfg.solver.step_init, cfg.dynamics.epsilon]
    numbers += cfg.joint.ravel().tolist()
    if cfg.distortion is not None:
        numbers += cfg.distortion.ravel().tolist()
    if cfg.reference_critical_rho is not None:
        numbers.append(cfg.reference_critical_rho)
    return numbers


def test_random_json_fields_load_finite_or_fail_cleanly():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    preset = json.loads(preset_text("circulant5"))
    paths = [(key,) for key in preset] + [
        (key, sub) for key in ("rho", "solver", "dynamics") for sub in preset[key]
    ]
    scalars = (
        st.none() | st.booleans() | st.text(max_size=5)
        | st.integers(min_value=-(10**400), max_value=10**400)
        | st.floats(allow_nan=True, allow_infinity=True)
    )
    values = st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.sampled_from(["start", "stop", "steps", "scale"]), inner, max_size=4),
        max_leaves=12,
    )
    patches = st.lists(st.tuples(st.sampled_from(paths), values), min_size=1, max_size=3)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(patches)
    def check(patch):
        try:
            cfg = load_config(json.dumps(patched_preset(patch)))
        except ConfigError:
            return
        assert all(math.isfinite(v) for v in config_numbers(cfg))

    check()


def same_config(a: GameConfig, b: GameConfig) -> bool:
    """Field by field, arrays compared bit for bit."""
    for f in fields(GameConfig):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            if not (isinstance(y, np.ndarray) and x.dtype == y.dtype and x.shape == y.shape
                    and x.tobytes() == y.tobytes()):
                return False
        elif type(x) is not type(y) or x != y:
            return False
    return True


def test_random_configs_round_trip_exactly():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    weights = st.just(0.0) | st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False)
    nonneg = st.floats(min_value=0.0, allow_infinity=False)
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    finite = st.floats(allow_nan=False, allow_infinity=False)

    def space(size, labeled=True):
        labels = st.lists(st.text(max_size=3), min_size=size, max_size=size, unique=True)
        return st.builds(FiniteSpace, st.just(size), (st.none() | labels) if labeled else st.none())

    @st.composite
    def sweeps(draw):
        start = draw(st.floats(min_value=0.0, max_value=1e300))
        stop = draw(st.floats(min_value=start, exclude_min=True, allow_infinity=False))
        scale = draw(st.sampled_from(["linear", "log"] if start > 0 else ["linear"]))
        return SweepSpec(start, stop, draw(st.integers(2, 10**6)), scale)

    @st.composite
    def configs(draw):
        mode = draw(st.sampled_from(["single", "multi"]))
        m = draw(st.integers(1, 3))
        if mode == "single":
            w_spaces = (draw(space(draw(st.integers(1, 3)))),)
            y_spaces = (draw(space(draw(st.integers(1, 3)))),)
        else:
            n = draw(st.integers(1, 2))
            w_spaces = tuple(draw(space(draw(st.integers(1, 2)), False)) for _ in range(n))
            y_spaces = tuple(draw(space(draw(st.integers(1, 2)), False)) for _ in range(n))
        shape = (m,) * (1 + len(w_spaces)) + tuple(s.size for s in w_spaces)
        size = math.prod(shape)
        raw = np.array(draw(st.lists(weights, min_size=size, max_size=size)))
        if raw.sum() == 0.0:
            raw[:] = 1.0
        distortion = draw(st.none() | st.lists(nonneg, min_size=m * m, max_size=m * m))
        return GameConfig(
            mode=mode,
            x_space=draw(space(m)),
            w_spaces=w_spaces,
            y_spaces=y_spaces,
            joint=(raw / raw.sum()).reshape(shape),
            distortion=None if distortion is None else np.array(distortion).reshape(m, m),
            rho=draw(nonneg | sweeps()),
            solver=draw(st.builds(
                SolverSettings, max_iters=st.integers(1, 10**9), grad_tol=positive,
                obj_tol=nonneg, step_init=positive, seed=st.integers(0, 2**63),
            )),
            dynamics=draw(st.builds(
                DynamicsSettings, epsilon=positive, max_rounds=st.integers(1, 10**9),
                variant=st.sampled_from(["plain", "thresholded"]),
            )),
            seed=draw(st.integers(0, 2**63)),
            log_base=draw(st.sampled_from(["nats", "bits"])),
            reference_critical_rho=draw(st.none() | finite),
        )

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(configs())
    def check(cfg):
        text = config_to_json(cfg)
        again = load_config(text)
        assert same_config(again, cfg)
        assert config_to_json(again) == text

    check()


def test_random_policies_round_trip_bit_exactly():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    weights = st.just(0.0) | st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False)

    @st.composite
    def stochastic(draw, rank):
        """An array of the given rank, each slice along axis 0 a pmf."""
        shape = tuple(draw(st.integers(1, 3)) for _ in range(rank))
        raw = np.array(draw(st.lists(weights, min_size=math.prod(shape), max_size=math.prod(shape))))
        raw = raw.reshape(shape)
        raw[:, raw.sum(axis=0) == 0.0] = 1.0
        return raw / raw.sum(axis=0)

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(stochastic(3), stochastic(2), stochastic(3))
    def check(a, b, b_multi):
        sender = SenderPolicy(a)
        back = sender_policy_from_json(sender_policy_to_json(sender))
        assert back.a.shape == a.shape and back.a.tobytes() == sender.a.tobytes()
        receiver = ReceiverPolicy(b)
        back = receiver_policy_from_json(receiver_policy_to_json(receiver))
        assert back.b.shape == b.shape and back.b.tobytes() == receiver.b.tobytes()
        joint = MultiReceiverPolicy(b_multi)
        back = receiver_policy_from_json(receiver_policy_to_json(joint), multi=True)
        assert back.b.shape == b_multi.shape and back.b.tobytes() == joint.b.tobytes()

    check()
