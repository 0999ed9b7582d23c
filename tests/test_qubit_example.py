import numpy as np
import pytest

from qmc.errors import DimensionMismatch, OutOfInterval, ReducibleParameters
from qmc.ergodic import analyze
from qmc.gauge import split
from qmc.linalg import dag
from qmc.qubit_example import (
    MODELS,
    closed_form_mean,
    closed_form_qfi_rate,
    consistency_notes,
    fixture_s,
    golden_modes,
    golden_tangent,
    invert_mean,
    isometry,
    mean_derivative,
    measurement,
    omega_vector,
    periodic_point,
    reference_theta,
    snr_spectral_data,
    theta_interval,
)
from qmc.statmodel import stationary_mean


def test_model_inventory_and_reference_points():
    assert MODELS == ("m1", "m2", "m3")
    for model in MODELS:
        lo, hi = theta_interval(model)
        assert lo < reference_theta(model) < hi or reference_theta(model) == lo


def test_intervals_are_enforced():
    for model, bad in (("m1", 0.25), ("m1", 0.5), ("m2", 1 / np.sqrt(3)), ("m3", np.pi / 2)):
        with pytest.raises(OutOfInterval):
            isometry(model, bad)
    # the extended window lets the reflected copies of model 3 through
    isometry("m3", -0.3, strict=False)
    isometry("m3", np.pi - 0.3, strict=False)
    with pytest.raises(OutOfInterval):
        isometry("m3", 3 * np.pi / 2, strict=False)


def test_printed_isometries_spot_values():
    v1 = isometry("m1", 0.3).v
    assert abs(v1[0, 1] - np.sqrt(1 - 4 * 0.09)) < 1e-12
    assert abs(v1[1, 1] - 0.6) < 1e-12
    assert abs(v1[2, 0] - 0.3) < 1e-12
    assert abs(v1[3, 0] - 1j * np.sqrt(1 - 0.09)) < 1e-12
    c = np.sqrt(1 - 3 * 0.04)
    v2 = isometry("m2", 0.2).v
    assert np.allclose(v2, [[0.2, c], [0.2j, -0.2], [-0.2, 0.2j], [c, -0.2]])
    s, cth = np.sin(0.7), np.cos(0.7)
    v3 = isometry("m3", 0.7).v
    expected = np.array(
        [
            [np.sqrt(2 / 3) * s, np.sqrt(1 / 3) * cth],
            [np.sqrt(1 / 3) * s, -np.sqrt(2 / 3) * cth],
            [cth / np.sqrt(2), s / np.sqrt(2)],
            [-cth / np.sqrt(2), s / np.sqrt(2)],
        ]
    )
    assert np.allclose(v3, expected)
    for model, theta in (("m1", 0.35), ("m2", -0.4), ("m3", 1.2)):
        v = isometry(model, theta).v
        assert np.linalg.norm(dag(v) @ v - np.eye(2)) < 1e-12


def test_periodic_point_family():
    iso = fixture_s()
    swap = np.zeros((4, 2))
    swap[0, 1] = swap[3, 0] = 1.0
    assert np.linalg.norm(iso.v - swap) < 1e-12
    with pytest.raises(ReducibleParameters):
        periodic_point(0.5, 0.5)
    with pytest.raises(OutOfInterval):
        periodic_point(1.2, 0.1)
    profile = analyze(periodic_point(0.4 - 0.2j, 0.9))
    assert profile.is_irreducible and profile.period == 2


def test_golden_tangents_are_numerical_derivatives():
    h = 1e-6
    for model in MODELS:
        theta0 = reference_theta(model)
        a, a_id = golden_tangent(model)
        num = (isometry(model, theta0 + h, strict=False).v - isometry(model, theta0 - h, strict=False).v) / (2 * h)
        assert np.linalg.norm(num - a) < 1e-7, model
        profile = analyze(isometry(model, theta0))
        s = split(profile, num)
        assert np.linalg.norm(s.a_id - a_id) < 1e-7, model


def test_model1_golden_tangent_is_identifiable():
    a, a_id = golden_tangent("m1")
    assert np.linalg.norm(a - a_id) < 1e-12
    iso = isometry("m1", 0.3)
    assert np.linalg.norm(dag(iso.v) @ a_id) < 1e-12


def test_model2_golden_modes_content():
    modes = golden_modes()
    _, a_id = golden_tangent("m2")
    assert np.linalg.norm(modes["B0"] + modes["B1"] - a_id) < 1e-12
    expected_b0 = np.array([[0, 0], [0, -1], [-1, 0], [0, 0]], dtype=complex)
    expected_b1 = np.array([[0, 0], [-1 + 1j, 0], [0, 1 + 1j], [0, 0]], dtype=complex)
    assert np.linalg.norm(modes["B0"] - expected_b0) < 1e-12
    assert np.linalg.norm(modes["B1"] - expected_b1) < 1e-12
    img = np.array([[0, 0], [1 - 1j, -1], [-1, -(1 + 1j)], [0, 0]], dtype=complex)
    assert np.linalg.norm(modes["stabiliser_image"] - img) < 1e-12


def test_means_and_derivatives_match_numerics():
    h = 1e-6
    grids = {
        ("m1", 1): (0.27, 0.42),
        ("m2", 1): (-0.5, 0.5),
        ("m3", 1): (0.2, 1.3),
        ("m3", 2): (0.0, 1.55),
    }
    for (model, block), (lo, hi) in grids.items():
        for theta in np.linspace(lo, hi, 9):
            theta = float(theta)
            up = closed_form_mean(model, theta + h, block)
            num = (up - closed_form_mean(model, theta - h, block)) / (2 * h)
            assert abs(num - mean_derivative(model, theta, block)) < 1e-6, (model, block, theta)
    # the pair-outcome closed form against the transfer-operator mean
    _, q = measurement("m3", block=2)
    for theta in np.linspace(0.0, 1.55, 32):
        mean = stationary_mean(analyze(isometry("m3", float(theta))), q)
        assert abs(mean - closed_form_mean("m3", theta, block=2)) < 1e-12, theta


def test_invert_mean_round_trips():
    # the m2 mean curve folds at 1/sqrt(6); the estimator lives on the
    # central branch, so only that range can round trip
    fold = 1 / np.sqrt(6)
    cases = (("m1", 0.26, 0.49), ("m2", -fold + 0.01, fold - 0.01), ("m3", 0.05, 1.5))
    for model, lo, hi in cases:
        for theta in np.linspace(lo, hi, 21):
            theta = float(theta)
            x = closed_form_mean(model, theta)
            assert abs(invert_mean(model, x) - theta) < 1e-9, (model, theta)
    # beyond the fold the estimate still reproduces the observed mean
    for theta in (0.45, 0.52, -0.5):
        x = closed_form_mean("m2", theta)
        assert abs(closed_form_mean("m2", invert_mean("m2", x)) - x) < 1e-9
    # the pair-outcome curve of m3 peaks at theta about 0.8047; the
    # estimator lives on the rising branch
    for theta in np.linspace(0.05, 0.78, 21):
        theta = float(theta)
        x = closed_form_mean("m3", theta, block=2)
        assert abs(invert_mean("m3", x, block=2) - theta) < 1e-9, theta


def test_invert_mean_clips_out_of_range_observations():
    # an average outside the reachable band must still produce a finite
    # parameter at the matching end of the interval
    assert np.isfinite(invert_mean("m1", 0.9))
    assert np.isfinite(invert_mean("m1", -0.2))
    assert np.isfinite(invert_mean("m2", 1.2))
    est = invert_mean("m2", np.array([0.1, 0.4, 0.9]))
    assert est.shape == (3,)
    # m3's pair estimator clips to its rising branch [0, asin sqrt((A + B) / 2A)]
    est = invert_mean("m3", np.array([-0.1, 0.9]), block=2)
    assert est[0] == 0.0 and abs(est[1] - 0.8046638238862884) < 1e-7


def test_closed_forms_are_single_site_only():
    with pytest.raises(DimensionMismatch):
        closed_form_mean("m1", 0.3, block=2)


def test_omega_vector_and_completion():
    omega = omega_vector()
    assert abs(np.linalg.norm(omega) - 1.0) < 1e-12
    assert np.allclose(omega, np.array([np.sqrt(2), 0, 0, -1]) / np.sqrt(3))
    meas, q = measurement("m3", block=2)
    vecs = np.asarray(meas.vectors)
    assert vecs.shape == (4, 4)
    assert np.linalg.norm(vecs @ vecs.conj().T - np.eye(4)) < 1e-12
    assert np.linalg.norm(vecs[0] - omega) < 1e-12
    assert np.linalg.norm(q - np.outer(omega, omega.conj())) < 1e-12


def test_measurement_defaults():
    meas, q = measurement("m1")
    assert np.allclose(q, np.diag([1.0, 0.0]))
    meas2, q2 = measurement("m2")
    assert np.allclose(np.asarray(meas2.vectors), np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    assert np.allclose(q2, np.full((2, 2), 0.5))


def test_qfi_rate_closed_form_frozen():
    assert abs(closed_form_qfi_rate(0.3) - 14.697802197802197) < 1e-12
    notes = consistency_notes(0.3)
    assert abs(notes["m1_qfi_rate"] - 14.697802197802197) < 1e-9
    assert notes["rejected_rate_variant"] > notes["m1_qfi_rate"]
    assert abs(notes["variant_ratio"] - notes["rejected_rate_variant"] / notes["m1_qfi_rate"]) < 1e-12


def test_snr_spectral_data_tracks_closed_form():
    # near the periodic point the slow direction of the two-step transfer
    # operator is the one predicted by the closed form; further out a pair
    # of coherence eigenvalues overtakes it and dominance is lost
    for theta in (0.01, 0.05, 0.08):
        data = snr_spectral_data(theta)
        assert data["dominant"], theta
        assert abs(data["radius"] - data["predicted"]) < 1e-12, theta
        assert abs(data["predicted"] - (1 - 2 * np.sin(theta) ** 2) ** 2) < 1e-12
        assert data["z_residual"] < 1e-10
    far = snr_spectral_data(0.3)
    assert not far["dominant"]
    assert far["radius"] > far["predicted"]
    assert far["z_residual"] < 1e-10
    for theta in (1.6, -0.1, float("nan")):
        with pytest.raises(OutOfInterval):
            snr_spectral_data(theta)
