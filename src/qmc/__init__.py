"""Spectral, statistical, and Monte-Carlo analysis of quantum Markov chains."""

from . import errors, qubit_example
from .channels import (
    DEFAULT_TENSOR_CAP,
    Isometry,
    Superoperator,
    apply_steps,
    channel,
    dilation,
    isometry_from_kraus,
    sandwich_map,
)
from .ergodic import (
    ErgodicTol,
    SpectralProfile,
    access_span_check,
    analyze,
    output_state,
    stationary_eigenbasis,
)
from .gauge import (
    TangentSplit,
    act,
    equivalence_witness,
    mode_decompose,
    restricted_resolvent_solve,
    singular_dimension,
    split,
    stabiliser,
    stabiliser_tangent_action,
    tangent_inner,
    witness_matches,
)
from .gaussian import (
    ModePoint,
    lambda_k,
    mixture_gram,
    mixture_trace_distance,
    mode_point,
    predicted_component_limit,
    zeta_gram,
)
from .statmodel import (
    DeformedChannel,
    LocalObservable,
    asymptotic_variance,
    component_overlap,
    finite_window_variance,
    joint_overlap,
    qfi_curve,
    qfi_rate,
    retract,
    stationary_mean,
    weak_qlan_curve,
    weak_qlan_error,
    weak_qlan_report,
)
from .trajectories import (
    BlockMeasurement,
    FluctuationStats,
    TrajectoryRecord,
    block_kraus,
    fluctuation_stats,
    run_estimator,
    sample,
    sample_batch,
    standard_measurement,
)

__version__ = "0.1.0"
