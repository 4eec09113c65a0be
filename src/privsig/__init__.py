"""Equilibrium solvers for finite-alphabet privacy signaling games."""

from .prob import (
    FiniteSpace,
    JointPXZW,
    Pmf2,
    entropy,
    marginal,
    mutual_information,
    nats_to_bits,
    validate_joint,
)
from .game import (
    DistortionMatrix,
    GameInstance,
    ReceiverPolicy,
    SenderPolicy,
    expected_distortion,
    hamming_distortion,
    induced_estimate_joint,
    leakage,
    message_secret_joint,
    potential,
    receiver_cost,
    sender_cost,
)
from .solve import (
    BestResponseResult,
    EpsilonNashReport,
    SolverSettings,
    babbling_equilibrium,
    epsilon_nash_check,
    explicit_equilibrium,
    receiver_best_response,
    sender_best_response,
    sender_cost_gradient,
)
from .dynamics import (
    DynamicsReport,
    TrajectoryRecord,
    best_response_dynamics,
    default_initial_pair,
    thresholded_dynamics,
    trajectory_rows,
)
from .multi import (
    MultiEpsilonNashReport,
    MultiGameInstance,
    MultiJoint,
    MultiReceiverPolicy,
    SenderPolicySet,
    coalition_leakage,
    default_initial_state_multi,
    epsilon_nash_check_multi,
    expected_distortion_multi,
    leakage_j,
    potential_multi,
    random_best_response_dynamics,
    receiver_best_response_multi,
    receiver_cost_multi,
    sender_best_response_multi,
    sender_cost_multi,
)
from .config import (
    ConfigError,
    DynamicsSettings,
    GameConfig,
    SweepSpec,
    load_config,
    load_config_file,
    resolve_config,
)
from .sweep import SweepRow, critical_rho_from_rows, run_sweep, sweep_report

__version__ = "0.1.0"
