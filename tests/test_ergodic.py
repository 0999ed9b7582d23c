import numpy as np
import pytest

import qmc.ergodic as ergodic
from qmc.channels import Isometry, channel, isometry_from_kraus
from qmc.errors import NotHermitian, NotIrreducible, NotPSD, OutOfInterval
from qmc.ergodic import (
    ErgodicTol,
    access_span_check,
    analyze,
    output_state,
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
    projs = profile.projections
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


_SPAN_CHAINS = {
    "random-k2": lambda rng, d: Isometry(oracles.random_isometry(rng, d, 2), d, 2),
    "random-k3": lambda rng, d: Isometry(oracles.random_isometry(rng, d, 3), d, 3),
    "cyclic-p2": lambda rng, d: Isometry(oracles.cyclic_isometry(rng, d, 2, 2), d, 2),
    # period 3 needs 3 | d: d = 6 and 15 stand in for 8 and 16
    "cyclic-p3": lambda rng, d: Isometry(
        oracles.cyclic_isometry(rng, d - d % 3, 2, 3), d - d % 3, 2
    ),
    "block-diag": lambda rng, d: oracles.block_diag_chain(rng, d, 2),
}


@pytest.mark.parametrize("d", [8, 16])
@pytest.mark.parametrize("kind", list(_SPAN_CHAINS))
def test_span_oracle_agrees_with_analyze_at_larger_d(kind, d):
    iso = _SPAN_CHAINS[kind](np.random.default_rng(29 * d), d)
    verdict = access_span_check(iso)
    assert verdict == (kind != "block-diag")
    assert verdict == analyze(iso).is_irreducible


@pytest.mark.parametrize("d, a", [(8, 3), (12, 5), (16, 1), (16, 8)])
def test_span_oracle_on_block_upper_triangular_chains(d, a):
    # the first a basis vectors span an invariant subspace at eps = 0, so the
    # chain is reducible, and every level ends in many room-sized chunks; any
    # leak eps > 0 makes it irreducible.  analyze is compared only down to
    # eps = 1e-2: its eigenvalue 1 splits by about eps^2, which below
    # simplicity_gap = 1e-8 it reads, by that documented tolerance, as
    # double.  The oracle sees eps itself, so it says irreducible there too,
    # down to the 1e-8 its docstring states it resolves
    for eps in (0.0, 1e-2, 1e-4, 1e-6, 1e-8):
        iso = oracles.block_upper_chain(np.random.default_rng(d + a), d, a, eps)
        assert access_span_check(iso) == (eps > 0), eps
        if eps in (0.0, 1e-2):
            assert analyze(iso).is_irreducible == (eps > 0), eps


def test_span_oracle_of_a_one_dimensional_chain():
    # the identity already fills the 1-dimensional space: the first level has
    # no room, and the full-basis check ends the call
    iso = isometry_from_kraus([np.array([[0.6]]), np.array([[0.8j]])])
    assert access_span_check(iso)


def _spy_span_svds(monkeypatch):
    # (rows of the SVD, directions it adds) for every SVD the oracle makes
    calls = []
    svd = np.linalg.svd

    def spy(a, full_matrices=True):
        u, sv, vh = svd(a, full_matrices=full_matrices)
        calls.append((a.shape[0], int(np.sum(sv > ergodic._SPAN_RANK_TOL))))
        return u, sv, vh

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


def test_span_oracle_svds_never_exceed_the_room_left(monkeypatch):
    rng = np.random.default_rng(2029)
    random16 = Isometry(oracles.random_isometry(rng, 16, 2), 16, 2)
    chains = [
        random16,
        Isometry(oracles.random_isometry(rng, 16, 3), 16, 3),
        Isometry(oracles.cyclic_isometry(rng, 16, 2, 2), 16, 2),
        oracles.block_diag_chain(rng, 16, 2),
        oracles.block_upper_chain(rng, 16, 1, 0.0),
    ]
    calls = _spy_span_svds(monkeypatch)
    for iso in chains:
        calls.clear()
        access_span_check(iso)
        size = 1  # the basis starts from the identity
        for rows, added in calls:
            assert rows <= iso.d**2 - size
            size += added
    # the levels of a random d = 16, k = 2 chain add 2, 4, ..., 128
    # directions, and one row then fills the space: 255 rows where one SVD
    # per level would take 2 + 4 + ... + 256 = 510
    calls.clear()
    assert access_span_check(random16)
    assert sum(rows for rows, _ in calls) == 255
    assert [rows for rows, _ in calls] == [2, 4, 8, 16, 32, 64, 128, 1]


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
    projs = profile.projections
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


def test_stationary_eigenbasis_aligns_degenerate_clusters():
    # rho_ss = 1/2 on the single block of m3, so both eigenvectors form one
    # cluster, rotated onto the QR of the projected standard basis: up to a
    # phase each, e_0 and e_1
    profile = analyze(isometry("m3", 0.3))
    (block,) = stationary_eigenbasis(profile)
    frame = np.stack([phi for _, phi in block], axis=1)
    q, _ = np.linalg.qr(frame @ dag(frame))
    for (pi, phi), col, e in zip(block, q.T, np.eye(2)):
        assert abs(pi - 0.5) < 1e-12
        assert abs(abs(np.vdot(col, phi)) - 1.0) < 1e-12
        assert abs(abs(np.vdot(e, phi)) - 1.0) < 1e-12


def test_ergodic_projection_is_cycle_aligned_limit():
    profile = analyze(isometry("m1", 0.3))
    rho0 = np.array([[0.9, 0.2], [0.2, 0.1]], dtype=complex)
    out = oracles.ergodic_projection(profile, rho0)
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

    # the d = 16 chain is certified primitive without the spectrum at the
    # default tolerances.  Its computed eigenvalue 1 has modulus below 1, so
    # at band 1e-300 the dense route's rim is empty: the certificate must
    # leave that verdict to it
    d16 = Isometry(oracles.random_isometry(np.random.default_rng(2035), 16, 2), 16, 2)
    for iso in (isometry("m1", 0.3), d16):
        assert analyze(iso).is_irreducible
        assert analyze(iso, tol=ErgodicTol(peripheral_band=1e-6)).is_irreducible
        # an absurdly wide band sweeps decaying eigenvalues into the peripheral
        # set; that is a tolerance misconfiguration, not a verdict
        with pytest.raises(PeripheralMismatch):
            analyze(iso, tol=ErgodicTol(peripheral_band=0.9))
    # a band narrower than the roundoff of the computed eigenvalue 1 leaves
    # the peripheral set empty; that used to divide by zero
    for iso in (Isometry(oracles.random_isometry(np.random.default_rng(3), 4, 2), 4, 2), d16):
        with pytest.raises(PeripheralMismatch):
            analyze(iso, tol=ErgodicTol(peripheral_band=1e-300))


@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), 0.0, -1e-8, "x"],
    ids=["nan", "inf", "zero", "negative", "string"],
)
@pytest.mark.parametrize("field", ["peripheral_band", "faithfulness_floor", "simplicity_gap"])
def test_tolerances_must_be_finite(field, value):
    with pytest.raises(OutOfInterval):
        ErgodicTol(**{field: value})


def _amplitude_damping():
    k1 = np.zeros((2, 2), dtype=complex)
    k1[0, 1] = np.sqrt(0.3)
    return isometry_from_kraus([np.diag([1.0, np.sqrt(0.7)]).astype(complex), k1])


def _count_stationary_solves(monkeypatch):
    calls = []
    solve = ergodic._stationary

    def spy(r, d):
        calls.append(d)
        return solve(r, d)

    monkeypatch.setattr(ergodic, "_stationary", spy)
    return calls


def test_declined_certificate_reuses_the_stationary_solve(monkeypatch):
    # amplitude damping: eigenvalue 1 is simple but rho_ss = |0><0| is not
    # faithful, so a certified period is declined and the dense checks
    # read the one solve already made
    iso = _amplitude_damping()
    reason = analyze(iso).diagnostics["reason"]
    assert reason.startswith("stationary state not faithful")
    calls = _count_stationary_solves(monkeypatch)
    monkeypatch.setattr(ergodic, "_certify", lambda r, chain, tol: 1)
    profile = analyze(iso)
    assert len(calls) == 1
    assert not profile.is_irreducible
    assert profile.diagnostics["reason"] == reason


def test_reducible_chain_makes_no_stationary_solve(monkeypatch):
    rng = np.random.default_rng(12)
    kraus = []
    for a, b in zip(*(Isometry(oracles.random_isometry(rng, 6, 2), 6, 2).kraus for _ in range(2))):
        m = np.zeros((12, 12), dtype=complex)
        m[:6, :6], m[6:, 6:] = a, b
        kraus.append(m)
    calls = _count_stationary_solves(monkeypatch)
    # the d = 2 chain goes to the dense checks, which stop at the
    # multiplicity; the d = 12 chain reaches the certificate, which
    # certifies the multiplicity and so makes no solve either
    for iso in (_block_diag_iso(), isometry_from_kraus(kraus)):
        profile = analyze(iso)
        assert not profile.is_irreducible
        assert profile.diagnostics["reason"].startswith("eigenvalue 1 has multiplicity 2")
    assert calls == []


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

    def nan_first_projection(u, p):
        z, projections = canonical(u, p)
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
        _canonical_z(np.diag([1.0, -1.0]).astype(complex), 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", ["output_state", "resolvent"])
def test_non_finite_input_is_rejected(entry, bad):
    from qmc.errors import NotHermitian
    from qmc.gauge import restricted_resolvent_solve

    iso = isometry("m1", 0.3)
    profile = analyze(iso)
    x = np.eye(2, dtype=complex) / 2
    x[0, 1] = bad
    call = {
        "output_state": lambda: output_state(iso, x, 2),
        "resolvent": lambda: restricted_resolvent_solve(profile, x),
    }[entry]
    with pytest.raises(NotHermitian, match="non-finite"):
        call()


def test_output_state_reads_its_state_like_the_sampler():
    # output_state used to take a non-Hermitian matrix as its Hermitian part
    # and a zero matrix as the zero state; the sampler rejected both
    iso = isometry("m1", 0.3)
    with pytest.raises(NotHermitian):
        output_state(iso, np.array([[0.5, 0.5], [0.0, 0.5]]), 2)
    with pytest.raises(NotPSD):
        output_state(iso, np.zeros((2, 2)), 2)
