import signal
import warnings

import numpy as np
import pytest

from qmc import gauge, gaussian, io, statmodel
from qmc.channels import (
    Isometry,
    apply_steps,
    block_length,
    channel,
    dilation,
    isometry_from_kraus,
    real_transfer,
    sandwich_map,
)
from qmc.errors import (
    DimensionMismatch,
    GaugeConstraintViolated,
    IncompleteMeasurement,
    IndexOutOfRange,
    InvalidCount,
    NotHermitian,
    NotTangent,
    OutOfInterval,
    RetractionFailure,
    SizeCap,
    UnitDimMismatch,
)
from qmc.ergodic import access_span_check, analyze, output_state, stationary_eigenbasis
from qmc.gauge import (
    act,
    equivalence_witness,
    mode_decompose,
    restricted_resolvent_solve,
    split,
    tangent_inner,
)
from qmc.gaussian import mixture_gram, mode_point
from qmc.linalg import bordered_solve, dag, herm_coords, herm_vec, proj_distance, vec
from qmc.qubit_example import (
    closed_form_mean,
    closed_form_qfi_rate,
    fixture_s,
    golden_tangent,
    invert_mean,
    isometry,
    mean_derivative,
    measurement,
    periodic_point,
    reference_theta,
)
from qmc.statmodel import (
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
    weak_qlan_report,
)
from qmc.trajectories import (
    BlockMeasurement,
    block_kraus,
    fluctuation_stats,
    run_estimator,
    sample,
    sample_batch,
    standard_measurement,
)

import oracles


def _tangent(rng, iso):
    """A raw direction with hermitian v^dag a, the retraction's domain."""
    raw = rng.standard_normal(iso.v.shape) + 1j * rng.standard_normal(iso.v.shape)
    vh_a = dag(iso.v) @ raw
    return raw - iso.v @ (0.5 * (vh_a - dag(vh_a)))


def test_joint_overlap_against_tensor_oracle():
    rng = np.random.default_rng(20)
    for _ in range(4):
        i1 = Isometry(oracles.random_isometry(rng, 2, 2), 2, 2)
        i2 = Isometry(oracles.random_isometry(rng, 2, 2), 2, 2)
        phi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        phi /= np.linalg.norm(phi)
        for n in (1, 3, 5):
            fast = joint_overlap(i1, i2, phi, n)
            ref = oracles.overlap_oracle(i1, i2, phi, n)
            assert abs(fast - ref) < 1e-12


def test_retract_gives_isometry_through_given_velocity():
    rng = np.random.default_rng(21)
    iso = isometry("m1", 0.3)
    x = _tangent(rng, iso)
    t = 1e-5
    vt = retract(iso, x, t)
    assert np.linalg.norm(dag(vt.v) @ vt.v - np.eye(2)) < 1e-12
    # first order in t the retraction moves along i x, up to a gauge piece
    # generated by the non-hermitian part (absent here by construction)
    vel = (retract(iso, x, t).v - retract(iso, x, -t).v) / (2 * t)
    herm = 0.5 * (dag(iso.v) @ x + dag(x) @ iso.v)
    expected = 1j * (x - iso.v @ (dag(iso.v) @ x - herm))
    assert np.linalg.norm(vel - expected) < 1e-6


def test_deformed_channel_accepts_isometries_at_their_tolerance():
    # Isometry admits a defect ||v* v - 1|| up to 1e-8; scaling two valid
    # isometries by 1 + 5e-10 gives a defect of about 1.4e-9 and a deformed
    # channel of spectral radius about 1 + 1e-9, still a valid pair
    rng = np.random.default_rng(23)
    scale = 1.0 + 5e-10
    left = Isometry(scale * oracles.random_isometry(rng, 2, 2), 2, 2)
    right = Isometry(scale * oracles.random_isometry(rng, 2, 2), 2, 2)
    for iso in (left, right):
        assert 5e-10 < np.linalg.norm(dag(iso.v) @ iso.v - np.eye(2)) < 1e-8
    dc = DeformedChannel(left, left)
    assert dc.superop.spectral_radius() > 1.0 + 1e-10
    assert DeformedChannel(left, right).superop.m.shape == (4, 4)


def test_iterate_matches_repeated_application():
    # up to n = 2 min(D, _SQUARING_PRICE) + 1, D = d^2 = 4, iterate is plain matvecs
    rng = np.random.default_rng(24)
    dc = DeformedChannel(isometry("m1", 0.3), isometry("m1", 0.31))
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    plain = 2 * min(4, statmodel._SQUARING_PRICE) + 1
    y = x
    for n in range(1, plain + 1):
        y = dc.superop(y)
        assert np.array_equal(dc.iterate(x, n), y), n
    assert np.array_equal(dc.iterate(x, 0), x)
    with pytest.raises(DimensionMismatch):
        dc.iterate(np.eye(3), 2)


def _count_call(kind, n):
    profile = analyze(isometry("m1", 0.3))
    iso = profile.iso
    x = golden_tangent("m1")[0]
    if kind == "iterate":
        return DeformedChannel(iso, iso).iterate(np.eye(2), n)
    if kind == "weak_qlan_report":
        return weak_qlan_report(profile, x, -x, n)
    if kind == "joint_overlap":
        return joint_overlap(iso, iso, np.array([1.0, 0.0]), n)
    if kind == "qfi_curve":
        return qfi_curve(iso, x, np.array([1.0, 0.0]), [4, n])
    if kind == "window_variance":
        return finite_window_variance(profile, np.diag([1.0, 0.0]), n)
    if kind == "dilation":
        return dilation(iso, n)
    if kind == "apply_steps":
        return apply_steps(iso, np.array([1.0, 0.0]), n)
    if kind == "output_state":
        return output_state(iso, 0.5 * np.eye(2), n)
    return qfi_curve(iso, x, np.array([1.0, 0.0]), [n])[0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "kind,n,error",
    [
        ("iterate", -3, InvalidCount),
        ("iterate", 2.5, InvalidCount),
        ("iterate", np.float64(4.0), InvalidCount),
        ("weak_qlan_report", 0, InvalidCount),
        ("weak_qlan_report", -4, InvalidCount),
        ("weak_qlan_report", 2.5, InvalidCount),
        ("joint_overlap", 0, InvalidCount),
        ("joint_overlap", "3", InvalidCount),
        ("qfi_point", 0, InvalidCount),
        ("qfi_point", 2.5, InvalidCount),
        ("qfi_curve", 2.5, InvalidCount),
        ("qfi_curve", 0, InvalidCount),
        ("window_variance", 2.5, InvalidCount),
        ("window_variance", np.nan, InvalidCount),
        ("dilation", -1, InvalidCount),
        ("apply_steps", 2.5, InvalidCount),
        ("output_state", 2.5, InvalidCount),
    ],
    ids=[
        "iterate-negative",
        "iterate-fraction",
        "iterate-float",
        "weak-zero",
        "weak-negative",
        "weak-fraction",
        "overlap-zero",
        "overlap-string",
        "qfi-zero",
        "qfi-fraction",
        "qfi-grid-fraction",
        "qfi-grid-zero",
        "window-fraction",
        "window-nan",
        "dilation-negative",
        "apply-steps-fraction",
        "output-state-fraction",
    ],
)
def test_n_step_functionals_reject_bad_counts(kind, n, error):
    with pytest.raises(error):
        _count_call(kind, n)


def _huge_input(kind):
    profile = analyze(isometry("m1", 0.3))
    a = golden_tangent("m1")[0]
    q = np.diag([1.0, 0.0])
    if kind == "qfi_curve":
        return qfi_curve(profile.iso, 1e300 * a, np.array([1.0, 0.0]), [3])
    if kind == "qfi_rate":
        return qfi_rate(profile, 1e300 * a)
    if kind == "window_variance":
        return finite_window_variance(profile, 1e200 * q, 16)
    return asymptotic_variance(profile, 1e200 * q)


def _qutrit_chain():
    return Isometry(oracles.random_isometry(np.random.default_rng(3), 3, 2), 3, 2)


def _string_meas_fluctuation_stats():
    profile = analyze(isometry("m1", 0.3))
    return fluctuation_stats(profile.iso, profile, np.diag([1.0, 0.0]), 8, 2, 0, meas="x")


_BAD_MODEL = np.zeros((7, 7))  # compared with a name, it made numpy's ambiguous-truth ValueError

BAD_INPUTS = [
    ("measurement-negative-block", lambda: standard_measurement(2, -1), InvalidCount),
    ("measurement-fractional-block", lambda: standard_measurement(2, 1.5), InvalidCount),
    ("retract-string-t", lambda: retract(isometry("m1", 0.3), np.zeros((4, 2)), "x"), OutOfInterval),
    ("closed-form-rate-pole", lambda: closed_form_qfi_rate(0.5), OutOfInterval),
    ("closed-form-rate-nan", lambda: closed_form_qfi_rate(np.nan), OutOfInterval),
    ("reference-theta-unknown-model", lambda: reference_theta("m9"), DimensionMismatch),
    ("closed-form-rate-string", lambda: closed_form_qfi_rate("x"), OutOfInterval),
    ("isometry-string-theta", lambda: isometry("m1", "x"), OutOfInterval),
    ("measurement-fractional-unit-dim", lambda: standard_measurement(2.5, 1), InvalidCount),
    ("measurement-negative-unit-dim", lambda: standard_measurement(-1, 1), InvalidCount),
    ("act-string-phase", lambda: act(("x", np.eye(2)), isometry("m1", 0.3)), GaugeConstraintViolated),
    ("isometry-string-dimension", lambda: Isometry(np.eye(4)[:, :2], "x", 2), DimensionMismatch),
    ("isometry-bool-dimension", lambda: Isometry(np.eye(4)[:, :1], True, 4), DimensionMismatch),
    # a measurement that is not a BlockMeasurement, caught before any attribute read
    ("block-kraus-string-meas", lambda: block_kraus(isometry("m1", 0.3), "x"), DimensionMismatch),
    ("sample-batch-string-meas",
     lambda: sample_batch(isometry("m1", 0.3), np.eye(2) / 2, 4, "x", 0, 2), DimensionMismatch),
    ("sample-string-meas",
     lambda: sample(isometry("m1", 0.3), np.eye(2) / 2, 4, "x", 0), DimensionMismatch),
    ("fluctuation-stats-string-meas", _string_meas_fluctuation_stats, DimensionMismatch),
    # integer arguments read through as_integer, not compared as they come
    ("block-length-string-k", lambda: block_length(2, "x"), InvalidCount),
    ("local-observable-string-k", lambda: LocalObservable(np.eye(2), "x"), InvalidCount),
    ("block-measurement-string-k", lambda: BlockMeasurement(np.eye(2), "x"), InvalidCount),
    ("dilation-string-cap", lambda: dilation(isometry("m1", 0.3), 2, cap="x"), InvalidCount),
    ("asymptotic-variance-string-cap",
     lambda: asymptotic_variance(analyze(isometry("m1", 0.3)), np.eye(2), cap="x"), InvalidCount),
    # a chain or a tolerance of the wrong kind, read before any attribute
    ("analyze-string-tol", lambda: analyze(isometry("m1", 0.3), tol="x"), DimensionMismatch),
    ("analyze-string-chain", lambda: analyze("x"), DimensionMismatch),
    ("access-span-string-chain", lambda: access_span_check("x"), DimensionMismatch),
    # raises that no other test reaches
    ("local-observable-non-square", lambda: LocalObservable(np.ones((2, 4)), 2), DimensionMismatch),
    ("local-observable-block-4", lambda: LocalObservable(np.eye(16), 2), SizeCap),
    ("local-observable-non-hermitian",
     lambda: LocalObservable(np.array([[0.0, 1.0], [0.0, 0.0]]), 2), NotHermitian),
    ("block-measurement-1d", lambda: BlockMeasurement(np.ones(2), 2), DimensionMismatch),
    ("block-measurement-incomplete",
     lambda: BlockMeasurement(np.ones((2, 2)), 2), IncompleteMeasurement),
    ("block-kraus-unit-dimension",
     lambda: block_kraus(isometry("m1", 0.3), standard_measurement(3)), DimensionMismatch),
    ("deformed-channel-system-dimension",
     lambda: DeformedChannel(isometry("m1", 0.3), _qutrit_chain()), DimensionMismatch),
    ("witness-system-dimension",
     lambda: equivalence_witness(isometry("m1", 0.3), _qutrit_chain()), DimensionMismatch),
    ("herm-vec-not-square", lambda: herm_vec(np.ones(3)), DimensionMismatch),
    # the linalg exports read their operand through errors.as_complex_array
    ("herm-vec-string", lambda: herm_vec("x"), DimensionMismatch),
    ("herm-vec-scalar", lambda: herm_vec(1.0), DimensionMismatch),
    ("herm-coords-string", lambda: herm_coords("x"), DimensionMismatch),
    ("herm-coords-not-square", lambda: herm_coords(np.ones((2, 3))), DimensionMismatch),
    ("vec-string", lambda: vec("x"), DimensionMismatch),
    ("bordered-solve-scalar", lambda: bordered_solve(1.0, 1.0, 1.0, 1.0, 1.0), DimensionMismatch),
    ("proj-distance-shapes", lambda: proj_distance(np.eye(2), np.eye(3)), DimensionMismatch),
    ("mean-derivative-unknown-model", lambda: mean_derivative("m9", 0.3), DimensionMismatch),
    ("measurement-unknown-model", lambda: measurement("m9"), DimensionMismatch),
    ("invert-mean-unknown-model", lambda: invert_mean("m9", 0.5), DimensionMismatch),
    ("golden-tangent-unknown-model", lambda: golden_tangent("m9"), DimensionMismatch),
    # a model that is not a name, read by theta_interval before any comparison
    ("isometry-array-model", lambda: isometry(_BAD_MODEL, 0.3), DimensionMismatch),
    ("closed-form-mean-array-model", lambda: closed_form_mean(_BAD_MODEL, 0.3), DimensionMismatch),
    ("mean-derivative-array-model", lambda: mean_derivative(_BAD_MODEL, 0.3), DimensionMismatch),
    ("invert-mean-array-model", lambda: invert_mean(_BAD_MODEL, 0.5), DimensionMismatch),
    ("run-estimator-array-model",
     lambda: run_estimator(_BAD_MODEL, 0.35, 20, 4, 1), DimensionMismatch),
    ("measurement-array-model", lambda: measurement(_BAD_MODEL), DimensionMismatch),
    ("invert-mean-string-x-bar", lambda: invert_mean("m1", "x"), OutOfInterval),
    ("invert-mean-none-x-bar", lambda: invert_mean("m1", None), OutOfInterval),
    ("invert-mean-string-entry", lambda: invert_mean("m1", [0.3, "x"]), OutOfInterval),
    # NaN and +-Inf, which float() reads without complaint
    ("invert-mean-nan-x-bar", lambda: invert_mean("m1", np.nan), OutOfInterval),
    ("invert-mean-nan-entry", lambda: invert_mean("m1", [0.3, np.nan]), OutOfInterval),
    ("invert-mean-inf-entry", lambda: invert_mean("m3", np.array([0.3, -np.inf])), OutOfInterval),
    ("mean-derivative-nan-theta", lambda: mean_derivative("m1", np.nan), OutOfInterval),
    ("mean-derivative-inf-theta", lambda: mean_derivative("m1", np.inf), OutOfInterval),
    ("golden-tangent-nan-theta0", lambda: golden_tangent("m1", np.nan), OutOfInterval),
    ("golden-tangent-inf-theta0", lambda: golden_tangent("m1", np.inf), OutOfInterval),
    # the periodic-point parameters and the block size, each through its one reader
    ("periodic-point-string-w", lambda: periodic_point("x", 0.3), OutOfInterval),
    ("periodic-point-none-w", lambda: periodic_point(None, 0.3), OutOfInterval),
    ("periodic-point-array-z", lambda: periodic_point(0.3, np.zeros((7, 7))), OutOfInterval),
    ("block-length-string-dim", lambda: block_length("x", 2), InvalidCount),
    ("block-length-none-dim", lambda: block_length(None, 2), InvalidCount),
    ("block-length-array-dim", lambda: block_length(np.zeros((7, 7)), 2), InvalidCount),
    # finite but huge inputs: the functionals are quadratic in them and would overflow
    ("qfi-curve-huge-tangent", lambda: _huge_input("qfi_curve"), NotTangent),
    ("qfi-rate-huge-tangent", lambda: _huge_input("qfi_rate"), NotTangent),
    ("window-variance-huge-q", lambda: _huge_input("window_variance"), NotHermitian),
    ("asymptotic-variance-huge-q", lambda: _huge_input("asymptotic_variance"), NotHermitian),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("label,call,error", BAD_INPUTS, ids=[c[0] for c in BAD_INPUTS])
def test_bad_inputs_raise_typed_errors(label, call, error):
    with pytest.raises(error):
        call()


def _timed_out(signum, frame):
    raise TimeoutError("block_length(inf, 2) did not return within 2 s")


def test_block_length_of_an_infinite_size_returns_at_once():
    # while k**b < inf grew b without end; the alarm turns a regression into a failure
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(2)
    try:
        with pytest.raises(InvalidCount):
            block_length(float("inf"), 2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# each export whose first argument is a profile, with "x" in its place
_A, _Q = golden_tangent("m1")[0], np.diag([1.0, 0.0])
PROFILE_FIRST = {
    "stationary_eigenbasis": lambda: stationary_eigenbasis("x"),
    "witness_matches": lambda: gauge.witness_matches("x", (1.0, np.eye(2)), (1.0, np.eye(2))),
    "stabiliser": lambda: gauge.stabiliser("x"),
    "restricted_resolvent_solve": lambda: restricted_resolvent_solve("x", np.eye(2)),
    "split": lambda: split("x", _A),
    "tangent_inner": lambda: tangent_inner("x", _A, _A),
    "stabiliser_tangent_action": lambda: gauge.stabiliser_tangent_action("x", 1, _A),
    "mode_decompose": lambda: mode_decompose("x", _A),
    "singular_dimension": lambda: gauge.singular_dimension("x"),
    "mode_point": lambda: mode_point("x", _A),
    "zeta_gram": lambda: gaussian.zeta_gram("x", _A, _A),
    "lambda_k": lambda: gaussian.lambda_k("x", _A, _A),
    "predicted_component_limit":
        lambda: gaussian.predicted_component_limit("x", 0, 0, 0, 0, 0, _A, _A),
    "mixture_gram": lambda: mixture_gram("x", [_A]),
    "mixture_trace_distance": lambda: gaussian.mixture_trace_distance("x", _A, _A),
    "weak_qlan_curve": lambda: weak_qlan_curve("x", _A, _A, [4]),
    "weak_qlan_report": lambda: weak_qlan_report("x", _A, _A, 4),
    "weak_qlan_error": lambda: statmodel.weak_qlan_error("x", _A, _A, 4),
    "qfi_rate": lambda: qfi_rate("x", _A),
    "qfi_rate_pair": lambda: qfi_rate("x", _A, _A),
    "stationary_mean": lambda: stationary_mean("x", _Q),
    "asymptotic_variance": lambda: asymptotic_variance("x", _Q),
    "finite_window_variance": lambda: finite_window_variance("x", _Q, 8),
    "profile_report": lambda: io.profile_report("x"),
}


@pytest.mark.parametrize("entry", PROFILE_FIRST)
def test_a_profile_of_the_wrong_kind_raises_dimension_mismatch(entry):
    # each used to escape as AttributeError from the first attribute it read
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch, match="SpectralProfile"):
            PROFILE_FIRST[entry]()


# each export that takes a chain, with "x" in its place
_ISO, _RHO, _MEAS = isometry("m1", 0.3), np.eye(2) / 2, standard_measurement(2)
CHAIN_TAKING = {
    "output_state": lambda: output_state("x", _RHO, 2),
    "sample_batch": lambda: sample_batch("x", _RHO, 4, _MEAS, 0, 2),
    "sample": lambda: sample("x", _RHO, 4, _MEAS, 0),
    "block_kraus": lambda: block_kraus("x", _MEAS),
    "fluctuation_stats": lambda: fluctuation_stats("x", analyze(_ISO), _Q, 8, 2, 0),
    "dilation": lambda: dilation("x", 2),
    "apply_steps": lambda: apply_steps("x", [1.0, 0.0], 2),
    "real_transfer": lambda: real_transfer("x"),
    "channel": lambda: channel("x"),
    "sandwich_map": lambda: sandwich_map(_ISO, "x"),
    "DeformedChannel": lambda: DeformedChannel("x", _ISO),
    "joint_overlap": lambda: joint_overlap(_ISO, "x", [1.0, 0.0], 3),
    "qfi_curve": lambda: qfi_curve("x", _A, [1.0, 0.0], [4]),
    "retract": lambda: retract("x", _A, 0.1),
    "act": lambda: act((1.0, np.eye(2)), "x"),
}


@pytest.mark.parametrize("entry", CHAIN_TAKING)
def test_a_chain_of_the_wrong_kind_raises_dimension_mismatch(entry):
    # each used to escape as AttributeError from the first attribute it read
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch, match="must be an Isometry"):
            CHAIN_TAKING[entry]()


# each export that reads a matrix operand, with "x" in its place
STRING_OPERANDS = {
    "split": lambda prof: split(prof, "x"),
    "tangent_inner": lambda prof: tangent_inner(prof, "x", "x"),
    "mode_decompose": lambda prof: mode_decompose(prof, "x"),
    "mode_point": lambda prof: mode_point(prof, "x"),
    "mixture_gram": lambda prof: mixture_gram(prof, ["x"]),
    "qfi_rate": lambda prof: qfi_rate(prof, "x"),
    "retract": lambda prof: retract(prof.iso, "x", 0.1),
    "stationary_mean": lambda prof: stationary_mean(prof, "x"),
    "asymptotic_variance": lambda prof: asymptotic_variance(prof, "x"),
    "finite_window_variance": lambda prof: finite_window_variance(prof, "x", 8),
    "restricted_resolvent_solve": lambda prof: restricted_resolvent_solve(prof, "x"),
    "weak_qlan_curve": lambda prof: weak_qlan_curve(prof, "x", "x", [4]),
    "qfi_curve-phi": lambda prof: qfi_curve(prof.iso, golden_tangent("m1")[0], "x", [4]),
    "Isometry": lambda prof: Isometry("x", 2, 2),
    "isometry_from_kraus": lambda prof: isometry_from_kraus([np.eye(2), "x"]),
    "act-unitary": lambda prof: act((1.0, "x"), prof.iso),
    "apply_steps": lambda prof: apply_steps(prof.iso, "x", 2),
    "output_state": lambda prof: output_state(prof.iso, "x", 2),
    "BlockMeasurement": lambda prof: BlockMeasurement("x", 2),
    "sample_batch": lambda prof: sample_batch(prof.iso, "x", 4, standard_measurement(2), 0, 2),
    "sample": lambda prof: sample(prof.iso, "x", 4, standard_measurement(2), 0),
    "fluctuation_stats": lambda prof: fluctuation_stats(prof.iso, prof, "x", 8, 2, 0),
    "DeformedChannel.iterate": lambda prof: DeformedChannel(prof.iso, prof.iso).iterate("x", 3),
    "sandwich_map": lambda prof: sandwich_map(prof.iso, prof.iso)("x"),
}


@pytest.mark.parametrize("entry", STRING_OPERANDS)
def test_string_operand_raises_dimension_mismatch(entry):
    # numpy's ValueError from np.asarray("x", dtype=complex) used to escape
    profile = analyze(isometry("m1", 0.3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch, match="not an array of numbers"):
            STRING_OPERANDS[entry](profile)


def test_n_step_functionals_accept_numpy_integers():
    dc = DeformedChannel(isometry("m1", 0.3), isometry("m1", 0.31))
    x = np.eye(2, dtype=complex)
    for n in (7, 100):
        assert np.array_equal(dc.iterate(x, np.int64(n)), dc.iterate(x, n))
    rep = _count_call("weak_qlan_report", np.int32(64))
    assert rep == _count_call("weak_qlan_report", 64)
    assert type(rep["n"]) is int


def test_local_observable_block_at_unit_dimension_one():
    assert LocalObservable(np.eye(1), 1).block == 1
    assert LocalObservable(np.eye(8), 2).block == 3
    for q, k in [(np.eye(2), 1), (np.eye(3), 2)]:
        with pytest.raises(DimensionMismatch):
            LocalObservable(q, k)


def test_non_finite_operands_are_rejected():
    # each guard used to read `x > tol`, which is False for NaN
    iso = isometry("m1", 0.3)
    profile = analyze(iso)
    nan = np.full((2, 2), np.nan)
    for bad in (nan, np.diag([np.inf, 0.0])):
        with pytest.raises(NotHermitian):
            LocalObservable(bad, 2)
        with pytest.raises(NotHermitian):
            asymptotic_variance(profile, bad)
    with pytest.raises(DimensionMismatch):
        joint_overlap(iso, iso, np.array([np.nan, 1.0]), 3)
    with pytest.raises(RetractionFailure):
        retract(iso, np.full((4, 2), np.nan), 0.05)


def test_qfi_rejects_non_finite_or_zero_inputs():
    # each of these used to return NaN
    profile = analyze(isometry("m1", 0.3))
    iso = profile.iso
    x = golden_tangent("m1")[0]
    phi = np.array([1.0, 0.0])
    for bad in (np.nan, np.inf):
        a = x.copy()
        a[0, 1] = bad
        with pytest.raises(NotTangent):
            qfi_curve(iso, a, phi, [3])
    for grid in ([], 5):
        with pytest.raises(DimensionMismatch):
            qfi_curve(iso, x, phi, grid)
    bad_phis = (np.array([np.nan, 1.0]), np.array([np.inf, 0.0]), np.zeros(2), np.ones(3))
    for bad_phi in bad_phis:
        with pytest.raises(DimensionMismatch):
            qfi_curve(iso, x, bad_phi, [3])
        with pytest.raises(DimensionMismatch):
            joint_overlap(iso, iso, bad_phi, 3)


def test_retract_rejects_non_tangent():
    rng = np.random.default_rng(22)
    iso = isometry("m1", 0.3)
    raw = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    raw += iso.v @ np.array([[0, 1], [-1, 0]])  # guarantee a skew component
    with pytest.raises(RetractionFailure):
        retract(iso, raw, 0.05)


def test_qfi_matches_fidelity_differences():
    """Independent route: QFI from the curvature of the overlap with the
    retracted chain, against the closed-form finite-n assembly."""
    rng = np.random.default_rng(23)
    iso = isometry("m1", 0.3)
    a = _tangent(rng, iso)
    phi = np.array([1.0, 1.0]) / np.sqrt(2)
    n = 4
    eps = 1e-4
    f_plus = abs(joint_overlap(iso, retract(iso, a, eps), phi, n)) ** 2
    f_minus = abs(joint_overlap(iso, retract(iso, a, -eps), phi, n)) ** 2
    oracle = 2.0 * (2.0 - f_plus - f_minus) / eps**2
    fast = qfi_curve(iso, a, phi, [n])[0]
    assert abs(fast - oracle) < 1e-4 * max(1.0, abs(oracle))


def test_qfi_rate_closed_form_model1():
    profile = analyze(isometry("m1", 0.3))
    a, a_id = golden_tangent("m1")
    rate = qfi_rate(profile, split(profile, a).a_id)
    assert abs(rate - 14.697802197802197) < 1e-9
    assert abs(rate - closed_form_qfi_rate(0.3)) < 1e-9
    # the raw and identifiable representatives give the same rate
    assert abs(qfi_rate(profile, a) - rate) < 1e-9


def test_qfi_curve_rate_and_pure_phase():
    iso = isometry("m1", 0.3)
    profile = analyze(iso)
    a, _ = golden_tangent("m1")
    phi = np.linalg.eigh(profile.rho_ss)[1][:, -1]
    rate = qfi_rate(profile, a)
    # at even n the cyclic transient cancels exactly; at odd n it leaves a
    # fixed offset, so F_n/n approaches the rate like 1/n from one parity
    evens = [50, 100, 400]
    for n, fn in zip(evens, qfi_curve(iso, a, phi, evens)):
        assert abs(fn / n - rate) < 1e-10 * rate, n
    odds = [25, 101, 401]
    offsets = [(fn - rate * n) for n, fn in zip(odds, qfi_curve(iso, a, phi, odds))]
    assert abs(offsets[0] - offsets[-1]) < 0.05 * abs(offsets[0])
    assert abs(offsets[0]) > 1.0
    # a global phase direction carries no information at any n
    f0 = qfi_curve(iso, 1j * iso.v, phi, evens + odds)
    assert np.max(np.abs(f0)) < 1e-9


def test_stationary_mean_matches_closed_forms():
    grids = {
        "m1": np.linspace(0.26, 0.49, 25),
        "m2": np.linspace(-0.55, 0.55, 25),
        "m3": np.linspace(0.05, 1.5, 25),
    }
    for model, grid in grids.items():
        meas, q = measurement(model)
        for theta in grid:
            profile = analyze(isometry(model, float(theta)))
            mean = stationary_mean(profile, q)
            assert abs(mean - closed_form_mean(model, float(theta))) < 1e-10


def test_variance_details_at_swap_point():
    profile = analyze(fixture_s())
    det = asymptotic_variance(profile, np.diag([1.0, 0.0]), details=True)
    assert abs(det["sigma2"]) < 1e-12
    assert abs(det["c0"] - 0.25) < 1e-12
    assert abs(det["tail"] - (-0.125)) < 1e-12
    assert abs(profile.resolvent_cond - 2.0) < 1e-9
    assert det["lags"] == []
    # the exact finite window variance vanishes at even n as well
    assert abs(finite_window_variance(profile, np.diag([1.0, 0.0]), 64)) < 1e-12


def test_variance_window_converges_model1():
    profile = analyze(isometry("m1", 0.35))
    q = np.diag([1.0, 0.0])
    sigma2 = asymptotic_variance(profile, q)
    assert abs(sigma2 - 0.17869687499999998) < 1e-12
    # the covariance tail sums exactly for this model: the window is flat
    assert abs(finite_window_variance(profile, q, 64) - sigma2) < 1e-12
    assert abs(finite_window_variance(profile, q, 256) - sigma2) < 1e-12
    # same story on the second model, whose variance is exactly rational
    p2 = analyze(isometry("m2", 0.3))
    meas2, q2 = measurement("m2")
    assert abs(asymptotic_variance(p2, q2) - 0.1843) < 1e-12
    assert abs(stationary_mean(p2, q2) - 0.2436798876404741) < 1e-12


def test_two_block_chain_frozen_statistics():
    iso = isometry("m3", 0.1)
    power = Isometry(dilation(iso, 2), 2, 4)
    profile = analyze(power)
    assert profile.is_irreducible and profile.period == 1
    meas, q = measurement("m3", block=2)
    mean = stationary_mean(profile, q)
    assert abs(mean - 0.01837778335278868) < 1e-12
    sigma2 = asymptotic_variance(profile, q)
    assert abs(sigma2 - 0.018008984189377405) < 1e-12
    # the window estimate converges to the same number from below
    w1024 = finite_window_variance(profile, q, 1024)
    assert abs(w1024 - sigma2) < 1e-5
    # the same observable read as an overlapping time average on the base
    # chain has its own (larger) CLT variance; keep the two pinned apart
    base = analyze(iso)
    sigma2_overlap = asymptotic_variance(base, q)
    assert abs(sigma2_overlap - 0.034530473601172035) < 1e-12
    assert abs(stationary_mean(base, q) - mean) < 1e-12
    w_base = finite_window_variance(base, q, 1024)
    assert abs(w_base - sigma2_overlap) < 1e-4


def test_component_overlap_against_vector_enumeration():
    """The O(n d^4) channel iteration must agree with explicitly enumerated
    k^n component vectors."""
    profile = analyze(fixture_s())
    _, a_id = golden_tangent("m2")
    x = 0.4 * a_id
    y = -0.25 * a_id
    n = 4
    vx = retract(profile.iso, x, 1.0 / np.sqrt(n))
    vy = retract(profile.iso, y, 1.0 / np.sqrt(n))
    vecs_x = oracles.output_component_vectors(vx, profile, n)
    vecs_y = oracles.output_component_vectors(vy, profile, n)
    for a in range(2):
        for b in range(2):
            fast = component_overlap(vx, vy, profile, a, b, 0, 0, n)
            ref = np.vdot(vecs_y[(a, 0, b, 0)], vecs_x[(a, 0, b, 0)])
            assert abs(fast - ref) < 1e-12


def test_component_overlap_rejects_indices_outside_the_blocks():
    profile = analyze(fixture_s())  # period 2, one eigenvector per block
    iso = profile.iso
    for a, b, i, j in [(2, 0, 0, 0), (0, -1, 0, 0), (0, 1, 1, 0), (0, 1, 0, 1), (0, 1, -1, 0)]:
        with pytest.raises(IndexOutOfRange):
            component_overlap(iso, iso, profile, a, b, i, j, 3)


def test_deformed_channel_rejects_unequal_unit_dimensions():
    iso3 = Isometry(oracles.random_isometry(np.random.default_rng(4), 2, 3), 2, 3)
    with pytest.raises(UnitDimMismatch):
        DeformedChannel(isometry("m1", 0.3), iso3)


def test_weak_qlan_overlap_structure():
    profile = analyze(isometry("m1", 0.3))
    a, _ = golden_tangent("m1")
    x = split(profile, a).a_id
    x = x / np.sqrt(tangent_inner(profile, x, x).real)
    rep_same = weak_qlan_report(profile, x, x, 256)
    assert abs(rep_same["prediction"] - 1.0) < 1e-12
    assert rep_same["error"] < 5e-3
    rep = weak_qlan_report(profile, x, -x, 4096)
    # limit is a genuine gaussian overlap, strictly inside the unit disc
    assert abs(rep["prediction"]) < 1.0
    assert rep["error"] < 5e-3
    assert abs(rep["corrected"] - rep["prediction"]) == rep["error"]


@pytest.mark.parametrize("period", [1, 2])
def test_weak_qlan_curve_equals_pointwise_reports(period):
    rng = np.random.default_rng(40 + period)
    if period == 1:
        iso = Isometry(oracles.random_isometry(rng, 4, 2), 4, 2)
    else:
        iso = Isometry(oracles.cyclic_isometry(rng, 4, 2, 2), 4, 2)
    profile = analyze(iso)
    assert profile.period == period
    raw = rng.standard_normal((2,) + iso.v.shape) + 1j * rng.standard_normal((2,) + iso.v.shape)
    x, y = (0.5 * t.a_id for t in split(profile, raw))
    grid = [64, 8, 1, 64, 300]
    curve = weak_qlan_curve(profile, x, y, grid)
    assert [rep["n"] for rep in curve] == grid
    for n, rep in zip(grid, curve):
        assert rep == weak_qlan_report(profile, x, y, n)
    for bad, error in (
        ([], DimensionMismatch),
        (8, DimensionMismatch),
        ([8, 0], InvalidCount),
        ([2.5], InvalidCount),
    ):
        with pytest.raises(error):
            weak_qlan_curve(profile, x, y, bad)


@pytest.mark.parametrize("period", [1, 2, 3])
def test_weak_qlan_prediction_matches_the_pairwise_coherent_overlap(period):
    # the prediction is exp(-1/2 beta(dx, dx) + i sigma(x_id, y_id)) of the
    # identifiable parts, whatever the theta parts and the chain's period
    rng = np.random.default_rng(70 + period)
    profile = analyze(Isometry(oracles.cyclic_isometry(rng, 6, 2, period), 6, 2))
    assert profile.is_irreducible and profile.period == period
    raw = rng.standard_normal((2, 12, 6)) + 1j * rng.standard_normal((2, 12, 6))
    x, y = (0.4 * t.a_id for t in split(profile, raw))
    x, y = x + 0.3 * profile.iso.v, y - 0.2 * profile.iso.v
    sx, sy = split(profile, np.stack([x, y]))
    want = oracles.coherent_overlap_pairwise(profile, sx.a_id, sy.a_id)
    assert 1e-3 < abs(want) < 1.0
    assert abs(weak_qlan_curve(profile, x, y, [1])[0]["prediction"] - want) <= 1e-12


@pytest.mark.parametrize("model,block", [("m1", 1), ("m3", 2), ("m3", 3)])
def test_window_variance_grid_equals_lone_calls(model, block):
    profile = analyze(isometry(model, 0.3))
    if block < 3:
        _, q = measurement(model, block=block)
    else:
        rng = np.random.default_rng(3)
        q = rng.standard_normal((profile.k**block,) * 2)
        q = q + q.T
    grid = [64, block, 16, 64, block + 1, 300, 5]
    values = finite_window_variance(profile, q, grid)
    assert len(values) == len(grid)
    for n, got in zip(grid, values):
        # one sweep reads every window off the same lags, in the same order
        assert got == finite_window_variance(profile, q, n)
    with pytest.raises(DimensionMismatch, match=f"window n = {block - 1} shorter"):
        finite_window_variance(profile, q, [16, block - 1, 8])
    with pytest.raises(DimensionMismatch):
        finite_window_variance(profile, q, [])
    with pytest.raises(InvalidCount):
        finite_window_variance(profile, q, [16, 2.5])


@pytest.mark.parametrize("label", [0.5, 1.0, np.array([0, 1])], ids=["half", "float-one", "array"])
def test_component_overlap_rejects_labels_that_are_not_integers(label):
    profile = analyze(fixture_s())
    iso = profile.iso
    for args in [(label, 0, 0, 0), (0, label, 0, 0), (0, 0, label, 0), (0, 1, 0, label)]:
        with pytest.raises(InvalidCount):
            component_overlap(iso, iso, profile, *args, 3)


def test_qfi_curve_reads_a_grid_once():
    # a generator grid gives the values of the same grid as a list
    iso = isometry("m1", 0.3)
    a = golden_tangent("m1")[0]
    phi = np.array([1.0, 0.0])
    f = qfi_curve(iso, a, phi, (n for n in (2, 4)))
    assert np.array_equal(f, qfi_curve(iso, a, phi, [2, 4])) and len(f) == 2
