import numpy as np
import pytest

from qmc.channels import Isometry, channel, isometry_from_kraus
from qmc.errors import NotIrreducible
from qmc.ergodic import (
    ErgodicTol,
    access_span_check,
    analyze,
    ergodic_projection,
    output_state,
    periodic_projections,
    stationary_eigenbasis,
)
from qmc.linalg import dag
from qmc.qubit_example import fixture_s, isometry, periodic_point

import oracles


def _block_diag_iso():
    # two one-dimensional chains glued together: eigenvalue 1 is degenerate
    v = np.zeros((4, 2), dtype=complex)
    v[0, 0] = 1.0  # K_0 = |0><0|
    v[3, 1] = 1.0  # K_1 = |1><1|
    return Isometry(v, 2, 2)


def test_swap_fixture_profile():
    profile = analyze(fixture_s())
    assert profile.is_irreducible
    assert profile.period == 2
    assert abs(profile.gamma - (-1)) < 1e-12
    assert np.linalg.norm(profile.rho_ss - np.eye(2) / 2) < 1e-12
    assert sorted(profile.block_dims) == [1, 1]
    for key in ("cyclic_labeling", "z_eigenrelation", "block_weights"):
        assert profile.residuals[key] <= 1e-9, key
    # peripheral spectrum is exactly the square roots of unity
    per = np.sort_complex(np.asarray([trip[0] for trip in profile.peripheral]))
    assert np.linalg.norm(per - np.array([-1.0, 1.0])) < 1e-10


def test_projections_resolve_identity_and_cycle():
    profile = analyze(fixture_s())
    projs = periodic_projections(profile)
    total = sum(projs)
    assert np.linalg.norm(total - np.eye(2)) < 1e-10
    schro = channel(profile.iso, "schrodinger")
    p = profile.period
    for a, pa in enumerate(projs):
        # one cycle step: the support of block a is mapped onto block a-1
        image = schro(pa / np.trace(pa).real * profile.period)
        target = projs[(a - 1) % p]
        assert np.linalg.norm(image * target - image) < 1e-9


def test_zmat_is_peripheral_eigenvector():
    # m1 is periodic along the whole curve; m2 and m3 only at theta = 0
    cases = (("m1", 0.3, 2), ("m2", 0.2, 1), ("m2", 0.0, 2), ("m3", 0.4, 1), ("m3", 0.0, 2))
    for model, theta, period in cases:
        profile = analyze(isometry(model, theta))
        assert profile.period == period, (model, theta)
        z = profile.zmat
        assert np.linalg.norm(z @ dag(z) - np.eye(2)) < 1e-9
        schro = channel(profile.iso, "schrodinger")
        lhs = schro(z @ profile.rho_ss)
        rhs = profile.gamma * (z @ profile.rho_ss)
        assert np.linalg.norm(lhs - rhs) < 1e-8


def test_random_chains_agree_with_span_oracle():
    rng = np.random.default_rng(7)
    for _ in range(12):
        v = oracles.random_isometry(rng, 2, 2)
        iso = Isometry(v, 2, 2)
        assert analyze(iso).is_irreducible == access_span_check(iso)


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_span_oracle_near_reducible_boundary(eps):
    # |1> is invariant under K0 = diag(sqrt(1 - eps^2), 1) and K1 = eps |1><0|
    # for every eps, so the chain is reducible however small eps is
    k1 = np.zeros((2, 2))
    k1[1, 0] = eps
    iso = isometry_from_kraus([np.diag([np.sqrt(1.0 - eps * eps), 1.0]), k1])
    assert not analyze(iso).is_irreducible
    assert not access_span_check(iso)


def test_reducible_chain_is_flagged():
    iso = _block_diag_iso()
    profile = analyze(iso)
    assert not profile.is_irreducible
    assert not access_span_check(iso)
    assert "reason" in profile.diagnostics
    with pytest.raises(NotIrreducible):
        profile.require_irreducible()


def test_periodic_point_stationary_blocks():
    iso = periodic_point(0.3 + 0.1j, 0.8)
    profile = analyze(iso)
    assert profile.is_irreducible
    assert profile.period == 2
    projs = periodic_projections(profile)
    for pa in projs:
        # each cyclic block carries stationary weight 1/p
        w = np.trace(pa @ profile.rho_ss).real
        assert abs(w - 0.5) < 1e-9


def test_stationary_eigenbasis_shapes_and_weights():
    profile = analyze(fixture_s())
    basis = stationary_eigenbasis(profile)
    assert len(basis) == profile.period
    total = 0.0
    for block in basis:
        for weight, phi in block:
            assert abs(np.linalg.norm(phi) - 1.0) < 1e-12
            total += weight
    assert abs(total - 1.0) < 1e-12


def test_ergodic_projection_is_cycle_aligned_limit():
    profile = analyze(isometry("m1", 0.3))
    rho0 = np.array([[0.9, 0.2], [0.2, 0.1]], dtype=complex)
    out = ergodic_projection(profile, rho0)
    assert abs(np.trace(out) - 1.0) < 1e-12
    # E_* is the limit of T^(pn): iterate an even number of steps
    schro = channel(profile.iso, "schrodinger")
    cur = rho0.astype(complex)
    for _ in range(200):
        cur = schro(cur)
    assert np.linalg.norm(cur - out) < 1e-10
    # and it is exactly period-p under the dynamics
    cycled = schro(schro(out))
    assert np.linalg.norm(cycled - out) < 1e-12


def test_output_state_matches_string_probabilities():
    iso = isometry("m2", 0.25)
    rho = np.array([[0.6, 0.0], [0.0, 0.4]], dtype=complex)
    n = 3
    sigma = output_state(iso, rho, n)
    assert abs(np.trace(sigma) - 1.0) < 1e-12
    evals = np.linalg.eigvalsh(sigma)
    assert evals.min() > -1e-12
    ref = oracles.string_probs(iso, rho, n)
    assert np.linalg.norm(np.diag(sigma).real - ref) < 1e-12


def test_tolerance_overrides_change_verdict():
    from qmc.errors import PeripheralMismatch

    iso = isometry("m1", 0.3)
    assert analyze(iso).is_irreducible
    assert analyze(iso, tol=ErgodicTol(peripheral_band=1e-6)).is_irreducible
    # an absurdly wide band sweeps decaying eigenvalues into the peripheral
    # set; that is a tolerance misconfiguration, not a verdict
    with pytest.raises(PeripheralMismatch):
        analyze(iso, tol=ErgodicTol(peripheral_band=0.9))
    # a band narrower than the roundoff of the computed eigenvalue 1 leaves
    # the peripheral set empty; that used to divide by zero
    iso = Isometry(oracles.random_isometry(np.random.default_rng(3), 4, 2), 4, 2)
    with pytest.raises(PeripheralMismatch):
        analyze(iso, tol=ErgodicTol(peripheral_band=1e-300))


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("field", ["peripheral_band", "faithfulness_floor", "simplicity_gap"])
def test_tolerances_must_be_finite(field, value):
    with pytest.raises(ValueError):
        ErgodicTol(**{field: value})


def test_nan_spectrum_is_not_a_verdict(monkeypatch):
    # `dist > simplicity_gap` is False for NaN, so a NaN spectrum used to
    # pass the eigenvalue-1 check and fail later with ZeroDivisionError
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: np.full(m.shape[0], np.nan + 0j))
    profile = analyze(isometry("m2", 0.2))
    assert not profile.is_irreducible
    assert profile.diagnostics["reason"] == "no eigenvalue within simplicity_gap of 1"


def test_nan_projection_fails_the_cyclic_check(monkeypatch):
    import qmc.ergodic as ergodic
    from qmc.errors import LabelingFailure

    canonical = ergodic._canonical_z

    def nan_first_projection(u, p, tol):
        z, projections = canonical(u, p, tol)
        projections[0] = np.full_like(projections[0], np.nan)
        return z, projections

    monkeypatch.setattr(ergodic, "_canonical_z", nan_first_projection)
    with pytest.raises(LabelingFailure):
        analyze(fixture_s())


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_nan_stabiliser_spectrum_is_rejected(monkeypatch):
    from qmc.ergodic import _canonical_z
    from qmc.errors import PeripheralMismatch

    monkeypatch.setattr(
        np.linalg, "eig", lambda m: (np.full(m.shape[0], np.nan + 0j), np.eye(m.shape[0]))
    )
    with pytest.raises(PeripheralMismatch, match="roots of unity"):
        _canonical_z(np.diag([1.0, -1.0]).astype(complex), 2, ErgodicTol())
