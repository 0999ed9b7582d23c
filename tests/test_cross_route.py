"""Fast routes against the earlier implementations they replaced.

``analyze`` takes the stationary state and the peripheral eigen-operator
from bordered solves, and ``restricted_resolvent_solve`` solves a bordered
system instead of compressing onto a null-space basis.  ``qfi_curve`` runs
one forward recurrence on real Hermitian-basis coordinates instead of
summing antidiagonals of an O(n^2) Gram, and the variances read every non-overlapping covariance off one
reduced operator sigma_Q instead of one dilation per lag.  The replaced
routes live in ``oracles``; on fixtures with and without periodicity both
must agree to 1e-10 relative.  ``resolvent_cond`` comes from one
values-only SVD of the compressed resolvent, which the dense SVD oracle
pins up to condition number 24000.  It is computed only when read: each
solve checks the cap with a bound from Gaussian probe columns, which must
never read below the exact value, and falls back to the exact value above
the cap.

The trajectory sampler steps a batch of states, held as real Hermitian-
basis coordinates, through one stacked real operator instead of three
einsums; its outcomes must equal the einsum oracle's exactly, and its
final states to 1e-12.  The blocks of that operator must sum to the real
transfer matrix of the b-step chain, and its weight rows must give each
outcome's trace.

The spectral layer works on the real matrix R of the Schrodinger map in
the Hermitian operator basis.  R must equal U* T U for the complex matrix
T, R^T the Heisenberg matrix in that basis, and its spectrum that of T.

``analyze`` certifies a primitive chain by a traceless power iteration, and
a periodic one by block subspace iteration with Rayleigh-Ritz and a
deflated decay, and then computes the spectrum only when it is read.  The
certified route must give the dense route's profile bit for bit: verdict,
period, rho_ss, Z, residuals, diagnostics (values and key order) and report
bytes.  Periodic chains pulled off the circle by eps^2 test both routes
where peripheral_band puts the boundary.

``equivalence_witness`` finds the peripheral eigenvector of the sandwich
map by power iteration in Kraus form and falls back to every eigenvalue of
its dense matrix when that is undecided.  Both routes must return None on
the same pairs, and otherwise witnesses that agree to 1e-10 modulo the
stabiliser family (gamma^m, Z^m).
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmc.channels import Isometry, channel, dilation, isometry_from_kraus, real_transfer
from qmc import channels, ergodic, gauge, io
from qmc.ergodic import ErgodicTol, analyze
from qmc.errors import (
    PeripheralMismatch,
    QmcError,
    ResolventIllConditioned,
    SingularResolvent,
    WitnessInconsistent,
)
from qmc.gauge import act, equivalence_witness, restricted_resolvent_solve, split, witness_matches
from qmc.linalg import bordered_solve, herm_coords, herm_vec, proj_distance
from qmc.qubit_example import fixture_s, golden_tangent, isometry, measurement, snr_spectral_data
from qmc.statmodel import (
    DeformedChannel,
    asymptotic_variance,
    finite_window_variance,
    qfi_curve,
    retract,
)
from qmc.trajectories import (
    BlockMeasurement,
    _step_operator,
    block_kraus,
    sample,
    sample_batch,
    standard_measurement,
)

import oracles

TOL = 1e-10


def _chains():
    yield "swap", fixture_s(), 2
    rng = np.random.default_rng(2026)
    for d in (2, 8, 16):
        for k in (2, 3):
            yield f"random-d{d}k{k}", Isometry(oracles.random_isometry(rng, d, k), d, k), 1
    yield "cyclic-d8p2", Isometry(oracles.cyclic_isometry(rng, 8, 2, 2), 8, 2), 2
    yield "cyclic-d6p3", Isometry(oracles.cyclic_isometry(rng, 6, 2, 3), 6, 2), 3


CHAINS = list(_chains())


def _rel(x, ref):
    return float(np.linalg.norm(np.asarray(x) - np.asarray(ref)) / np.linalg.norm(ref))


@pytest.mark.parametrize("label,iso,period", CHAINS, ids=[c[0] for c in CHAINS])
def test_bordered_routes_match_dense_oracles(label, iso, period):
    profile = analyze(iso)
    assert profile.is_irreducible
    assert profile.period == period

    rho = oracles.stationary_state_eig(iso)
    assert _rel(profile.rho_ss, rho) <= TOL
    z, projections = oracles.peripheral_eig(iso, period)
    assert _rel(profile.zmat, z) <= TOL
    for got, ref in zip(profile.projections, projections):
        assert _rel(got, ref) <= TOL

    rng = np.random.default_rng(iso.d * 10 + iso.k)
    a = rng.standard_normal(iso.v.shape) + 1j * rng.standard_normal(iso.v.shape)
    sp = split(profile, a)
    theta_c, kgen, a_id, cond = oracles.split_nullspace(iso, rho, a)
    assert abs(complex(sp.theta, sp.theta_im) - theta_c) <= TOL * abs(theta_c)
    assert _rel(sp.kgen, kgen) <= TOL
    assert _rel(sp.a_id, a_id) <= TOL
    assert abs(sp.resolvent_cond - cond) <= TOL * cond


def test_condition_cap_checked_on_every_call(monkeypatch):
    profile = analyze(next(iso for label, iso, _ in CHAINS if label == "random-d8k2"))
    rhs = np.diag(np.arange(profile.d)).astype(complex)
    rhs -= np.trace(profile.rho_ss @ rhs) * np.eye(profile.d)
    restricted_resolvent_solve(profile, rhs)
    cond = profile.resolvent_cond
    assert cond > 1.0
    # the condition number is stored after the first read; a smaller cap on
    # a later call must still be enforced
    with monkeypatch.context() as m:
        m.setattr(gauge, "_COND_CAP", 0.5 * cond)
        with pytest.raises(ResolventIllConditioned):
            restricted_resolvent_solve(profile, rhs)
    x = restricted_resolvent_solve(profile, rhs)
    cond2 = profile.resolvent_cond
    assert cond2 == cond
    assert abs(np.trace(profile.rho_ss @ x)) <= 1e-12 * np.linalg.norm(x)


def test_one_dimensional_chain_has_trivial_resolvent():
    # d = 1: {x : Tr(rho_ss x) = 0} is {0}, so the gauge part is theta alone
    iso = Isometry(np.array([[0.6], [0.8j]]), 1, 2)
    sp = split(analyze(iso), np.array([[0.3], [1.0]], dtype=complex))
    assert sp.kgen.shape == (1, 1) and sp.kgen[0, 0] == 0
    assert sp.resolvent_cond == 1.0


def _qfi_chains():
    rng = np.random.default_rng(2027)
    for d in (2, 4, 8):
        for k in (2, 3):
            yield f"random-d{d}k{k}", Isometry(oracles.random_isometry(rng, d, k), d, k)
    yield "cyclic-d4p2", Isometry(oracles.cyclic_isometry(rng, 4, 2, 2), 4, 2)


QFI_CHAINS = list(_qfi_chains())


@pytest.mark.parametrize("label,iso", QFI_CHAINS, ids=[c[0] for c in QFI_CHAINS])
def test_qfi_recurrence_matches_gram_oracle(label, iso):
    rng = np.random.default_rng(iso.d * 10 + iso.k)
    a = rng.standard_normal(iso.v.shape) + 1j * rng.standard_normal(iso.v.shape)
    phi = rng.standard_normal(iso.d) + 1j * rng.standard_normal(iso.d)
    nmax = 300
    # the sweep's polarization of Herm(sigma) must not lose digits when the
    # tangent is far smaller or larger than the Kraus operators
    for scale in (1.0, 1e-8, 1e8):
        f = qfi_curve(iso, scale * a, phi, range(1, nmax + 1))
        assert _rel(f, oracles.qfi_gram(iso, scale * a, phi, nmax)) <= TOL


def _variance_cases():
    yield "swap", analyze(fixture_s()), np.diag([1.0, 0.0]), 1
    yield "m1", analyze(isometry("m1", 0.35)), np.diag([1.0, 0.0]), 1
    yield "m2", analyze(isometry("m2", 0.3)), measurement("m2")[1], 1
    m3 = isometry("m3", 0.1)
    q3 = measurement("m3", block=2)[1]
    yield "m3-two-block", analyze(Isometry(dilation(m3, 2), 2, 4)), q3, 1
    yield "m3-overlapping", analyze(m3), q3, 2
    rng = np.random.default_rng(2028)
    q = rng.standard_normal((4, 4))
    yield "random-d8", analyze(Isometry(oracles.random_isometry(rng, 8, 2), 8, 2)), q + q.T, 2


VARIANCE_CASES = list(_variance_cases())


def _close(x, ref):
    # the absolute floor only matters where the swap point's variances are 0
    return abs(x - ref) <= TOL * abs(ref) + 1e-15


@pytest.mark.parametrize(
    "label,profile,q,block", VARIANCE_CASES, ids=[c[0] for c in VARIANCE_CASES]
)
def test_variances_match_per_lag_oracle(label, profile, q, block):
    ref = oracles.asymptotic_variance_per_lag(profile, q, block)
    assert _close(asymptotic_variance(profile, q), ref)
    for n in (block, block + 1, 5, 64, 1024):
        ref = oracles.finite_window_variance_per_lag(profile, q, block, n)
        assert _close(finite_window_variance(profile, q, n), ref), n


def test_qfi_curve_memory_is_bounded_in_n():
    iso = isometry("m1", 0.3)
    phi = np.linalg.eigh(analyze(iso).rho_ss)[1][:, -1]
    a = golden_tangent("m1")[0]
    tracemalloc.start()
    try:
        f = qfi_curve(iso, a, phi, [20000])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(f[0])
    assert peak < 10 * 2**20


# --------------------------------------------------------------------------
# deformed-channel powers by squaring


EPS = np.finfo(float).eps
# powers of two per d, so that some n stay at or below 2 d^2 + 1 (no
# squaring, plain matvecs) and some exceed it (at least one squaring)
ITERATE_POWERS = {2: (3, 8, 12), 4: (4, 6, 10), 8: (5, 8, 11), 16: (10, 11)}


def _iterate_pairs():
    for d, powers in ITERATE_POWERS.items():
        rng = np.random.default_rng(300 + d)
        base = Isometry(oracles.random_isometry(rng, d, 2), d, 2)
        other = Isometry(oracles.random_isometry(rng, d, 2), d, 2)
        raw = rng.standard_normal(base.v.shape) + 1j * rng.standard_normal(base.v.shape)
        h = base.v.conj().T @ raw
        tangent = raw - base.v @ (0.5 * (h - h.conj().T))
        cyclic = Isometry(oracles.cyclic_isometry(rng, d, 2, 2), d, 2)
        rotation = Isometry(oracles.random_unitary(rng, d), d, 1)
        yield f"random-d{d}", base, other, powers
        yield f"unital-d{d}", base, base, powers
        near = (retract(base, tangent, 1e-2), retract(base, tangent, -1e-2))
        yield f"near-identical-d{d}", *near, powers
        yield f"period2-d{d}", cyclic, cyclic, powers
        # X -> U* X U never settles, so every step count gives its own result
        yield f"rotation-d{d}", rotation, rotation, powers
    # spectral radius about 1 + 1e-9, as in the statmodel tolerance test
    rng = np.random.default_rng(23)
    scale = 1.0 + 5e-10
    left = Isometry(scale * oracles.random_isometry(rng, 2, 2), 2, 2)
    yield "radius-above-one-d2", left, left, ITERATE_POWERS[2]


ITERATE_PAIRS = list(_iterate_pairs())


@pytest.mark.parametrize(
    "label,left,right,powers", ITERATE_PAIRS, ids=[c[0] for c in ITERATE_PAIRS]
)
def test_powered_iterate_matches_sequential_oracle(label, left, right, powers):
    dc = DeformedChannel(left, right)
    x = _random_matrix(7, left.d)
    n_values = {1, 2, 7}
    for k in powers:
        n_values |= {2**k - 1, 2**k, 2**k + 1}
    side = left.d**2
    assert min(n_values) <= 2 * side + 1 < max(n_values)  # both j = 0 and j > 0
    ref = oracles.iterate_sequential(dc, x, n_values)
    for n in sorted(n_values):
        got = dc.iterate(x, n)
        if n <= 2 * side + 1:
            assert np.array_equal(got, ref[n]), n
        else:
            assert np.linalg.norm(got - ref[n]) <= n * EPS * np.linalg.norm(x), n


def test_powered_iterate_against_extended_precision():
    # a rotation, so that a wrong step count would change E^n(x)
    _, left, right, _ = next(c for c in ITERATE_PAIRS if c[0] == "rotation-d2")
    dc = DeformedChannel(left, right)
    x = _random_matrix(8, 2)
    n = 2**16
    exact = oracles.iterate_sequential(dc, x, [n], dtype=np.clongdouble)[n]
    errors = {
        "powered": float(np.linalg.norm(dc.iterate(x, n) - exact)),
        "sequential": float(np.linalg.norm(oracles.iterate_sequential(dc, x, [n])[n] - exact)),
    }
    print(f"n = {n}: error against clongdouble {errors}")
    for err in errors.values():
        assert err <= n * EPS * np.linalg.norm(x)


def _sampler_cases():
    yield "m1", isometry("m1", 0.35), measurement("m1")[0]
    yield "m3-block2", isometry("m3", 0.3), measurement("m3", block=2)[0]
    yield "swap", fixture_s(), standard_measurement(2)
    rng = np.random.default_rng(2029)
    for d in (2, 4, 8):
        for k in (2, 3):
            iso = Isometry(oracles.random_isometry(rng, d, k), d, k)
            for b in (1, 2):
                yield f"random-d{d}k{k}b{b}", iso, standard_measurement(k, b)


SAMPLER_CASES = list(_sampler_cases())
SAMPLER_IDS = [c[0] for c in SAMPLER_CASES]


def _assert_same_outcomes(got, ref):
    bad = np.argwhere(got != ref)
    assert bad.size == 0, f"first differing (trial, step): {tuple(bad[0])}"


@pytest.mark.parametrize("label,iso,meas", SAMPLER_CASES, ids=SAMPLER_IDS)
def test_superoperator_step_matches_einsum_oracle(label, iso, meas):
    rho = analyze(iso).rho_ss
    outcomes, states = sample_batch(iso, rho, 200, meas, 3, 40)
    ref_out, ref_states = oracles.sample_batch_einsum(block_kraus(iso, meas), rho, 200, 3, 40)
    _assert_same_outcomes(outcomes, ref_out)
    assert np.max(np.abs(states - ref_states)) <= 1e-12


@pytest.mark.parametrize(
    "label", ["m3-block2", "random-d8k3b2"], ids=["m3-block2", "random-d8k3b2"]
)
def test_superoperator_step_is_batch_invariant(label):
    _, iso, meas = SAMPLER_CASES[SAMPLER_IDS.index(label)]
    rho = analyze(iso).rho_ss
    outcomes, states = sample_batch(iso, rho, 150, meas, 9, 12)
    for t in (0, 5, 11):
        rec = sample(iso, rho, 150, meas, 9, trial=t)
        assert np.array_equal(rec.outcomes, outcomes[t])
        assert np.max(np.abs(rec.final_state - states[t])) <= 1e-12


# --------------------------------------------------------------------------
# real Hermitian-basis spectral layer


def _random_chain(seed, d, k):
    rng = np.random.default_rng(seed)
    return Isometry(oracles.random_isometry(rng, d, k), d, k)


def _random_matrix(seed, d):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


DIMS = st.integers(min_value=1, max_value=8)
UNITS = st.integers(min_value=1, max_value=3)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=60, deadline=None)
@given(d=DIMS, seed=SEEDS)
def test_herm_coords_round_trip(d, seed):
    x = _random_matrix(seed, d)
    assert np.max(np.abs(herm_vec(herm_coords(x)) - x)) <= 1e-15 * max(1.0, np.max(np.abs(x)))
    h = x + x.conj().T
    assert np.array_equal(herm_coords(h).imag, np.zeros(d * d))


BATCH_SHAPES = st.lists(st.integers(min_value=0, max_value=3), max_size=2).map(tuple)


@settings(max_examples=60, deadline=None)
@given(d=DIMS, shape=BATCH_SHAPES, seed=SEEDS)
def test_herm_coords_round_trip_over_batch_axes(d, shape, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape + (d, d)) + 1j * rng.standard_normal(shape + (d, d))
    c = herm_coords(x)
    assert c.shape == shape + (d * d,)
    back = herm_vec(c)
    assert back.shape == x.shape
    for i in np.ndindex(shape):
        assert np.array_equal(c[i], herm_coords(x[i]))
        assert np.array_equal(back[i], herm_vec(c[i]))
    assert np.max(np.abs(back - x), initial=0.0) <= 1e-15 * max(1.0, np.max(np.abs(x), initial=0.0))


@settings(max_examples=40, deadline=None)
@given(d=DIMS, k=UNITS, b=st.integers(min_value=1, max_value=2), seed=SEEDS)
def test_step_operator_blocks_sum_to_the_block_chain_transfer(d, k, b, seed):
    iso = _random_chain(seed, d, k)
    rng = np.random.default_rng(seed)
    dim = k**b
    basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    meas = BlockMeasurement(basis, k)
    n = d * d
    op = _step_operator(block_kraus(iso, meas))
    blocks = op.reshape(dim, n + 1, n)
    r, w = blocks[:, :n], blocks[:, n]
    chain = Isometry(dilation(iso, meas.block), d, k**meas.block)
    assert np.max(np.abs(r.sum(axis=0) - real_transfer(chain))) <= 1e-13
    assert np.max(np.abs(w - r[:, :d].sum(axis=1))) <= 1e-13
    x = _random_matrix(seed + 1, d)
    rho = x @ x.conj().T
    c = herm_coords(rho).real
    tr = np.trace(rho).real
    assert abs((w @ c).sum() - tr) <= 1e-13 * tr


@settings(max_examples=40, deadline=None)
@given(d=DIMS, k=UNITS, seed=SEEDS)
def test_real_transfer_is_the_basis_change_of_the_complex_matrix(d, k, seed):
    iso = _random_chain(seed, d, k)
    u = oracles.herm_basis_unitary(d)
    r = real_transfer(iso)
    assert r.dtype == np.float64 and r.shape == (d * d, d * d)
    schr = u.conj().T @ channel(iso, "schrodinger").m @ u
    heis = u.conj().T @ channel(iso, "heisenberg").m @ u
    assert np.max(np.abs(schr - r)) <= 1e-13
    assert np.max(np.abs(heis - r.T)) <= 1e-13


def _near_boundary(eps):
    # |1> is invariant under K0 = diag(sqrt(1 - eps^2), 1) and K1 = eps |1><0|
    k1 = np.zeros((2, 2))
    k1[1, 0] = eps
    return isometry_from_kraus([np.diag([np.sqrt(1.0 - eps * eps), 1.0]), k1])


SPECTRUM_CASES = [(label, iso) for label, iso, _ in CHAINS] + [
    (f"near-boundary-{eps:.0e}", _near_boundary(eps)) for eps in (1e-2, 1e-3, 1e-4)
]


@pytest.mark.parametrize("label,iso", SPECTRUM_CASES, ids=[c[0] for c in SPECTRUM_CASES])
def test_real_spectrum_matches_complex_oracle(label, iso):
    profile = analyze(iso)
    ref = oracles.spectrum_complex(iso)
    assert len(profile.eigenvalues) == len(ref)
    assert oracles.spectrum_distance(profile.eigenvalues, ref) <= 1e-12 * np.max(np.abs(ref))
    gap = profile.diagnostics["spectral_gap"]
    assert abs(gap - oracles.spectral_gap_complex(iso, profile.tol.peripheral_band)) <= 1e-12
    if label.startswith("near-boundary"):
        assert not profile.is_irreducible


def test_eigenvalue_order_is_deterministic():
    # modulus descending, then imaginary part, then real part: a conjugate
    # pair lists its positive imaginary part first, and 1 comes before -1
    for label, iso, _ in CHAINS:
        ev = analyze(iso).eigenvalues
        keys = list(zip(-np.abs(ev), -ev.imag, -ev.real))
        assert keys == sorted(keys), label


def test_bordered_solve_keeps_a_real_system_real(monkeypatch):
    rng = np.random.default_rng(2030)
    m = rng.standard_normal((6, 6))
    col, row = rng.standard_normal((2, 6))
    rhs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    seen = []
    real_solve = np.linalg.solve

    def spy(a, b):
        seen.append((a.dtype, b.dtype))
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    x, s = bordered_solve(m, 1.0, col, row, rhs, 0.5)
    monkeypatch.undo()
    assert seen == [(np.dtype(float), np.dtype(float))]
    big = np.block([[m - np.eye(6), col[:, None]], [row[None, :], np.zeros((1, 1))]])
    ref = np.linalg.solve(big.astype(complex), np.append(rhs, 0.5))
    assert np.max(np.abs(np.append(x, s) - ref)) <= 1e-12 * np.max(np.abs(ref))


# --------------------------------------------------------------------------
# certified route against the dense route


def _analysis(iso, tol):
    try:
        return analyze(iso, tol)
    except QmcError as exc:
        return exc


def _both_routes(iso, tol=None):
    """(certified-route result, dense-route result, the certified period or 0).

    The size rule is lifted, so the certificate is tried at every d; the
    dense result comes from a certificate patched to decline.
    """
    answers = []
    certify = ergodic._certify

    def spy(r, d, tol):
        answers.append(certify(r, d, tol))
        return answers[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ergodic, "_CERTIFY_MIN_D", 1)
        mp.setattr(ergodic, "_certify", spy)
        fast = _analysis(iso, tol)
        mp.setattr(ergodic, "_certify", lambda r, d, tol: 0)
        dense = _analysis(iso, tol)
    return fast, dense, answers[0]


def _assert_same_analysis(fast, dense):
    if isinstance(dense, QmcError):
        assert type(fast) is type(dense) and fast.detail == dense.detail
        return
    # diagnostics first: on the certified route this read computes them
    assert json.dumps(fast.diagnostics) == json.dumps(dense.diagnostics)
    assert fast.is_irreducible == dense.is_irreducible
    assert fast.period == dense.period
    for name in ("rho_ss", "zmat"):
        got, ref = getattr(fast, name), getattr(dense, name)
        assert (got is None and ref is None) or np.array_equal(got, ref), name
    assert fast.residuals == dense.residuals
    assert fast.block_dims == dense.block_dims
    assert np.array_equal(fast.eigenvalues, dense.eigenvalues)
    assert json.dumps(io.profile_report(fast)) == json.dumps(io.profile_report(dense))


@settings(max_examples=40, deadline=None)
@given(d=DIMS, k=UNITS, seed=SEEDS)
def test_certified_route_matches_dense_route_on_random_chains(d, k, seed):
    fast, dense, _ = _both_routes(_random_chain(seed, d, k))
    _assert_same_analysis(fast, dense)


def _coupled_blocks(eps, seed=2031):
    # two random 4-dimensional chains joined by a unitary jump of weight
    # eps^2: reducible at eps = 0, second eigenvalue 1 - O(eps^2)
    rng = np.random.default_rng(seed)
    left = Isometry(oracles.random_isometry(rng, 4, 2), 4, 2).kraus
    right = Isometry(oracles.random_isometry(rng, 4, 2), 4, 2).kraus
    kraus = []
    for a, b in zip(left, right):
        m = np.zeros((8, 8), dtype=complex)
        m[:4, :4], m[4:, 4:] = a, b
        kraus.append(np.sqrt(1.0 - eps * eps) * m)
    kraus.append(eps * oracles.random_unitary(rng, 8))
    return isometry_from_kraus(kraus)


def _reducible(seed, d):
    h = d // 2
    kraus = []
    for a, b in zip(_random_chain(seed, h, 2).kraus, _random_chain(seed + 1, h, 2).kraus):
        m = np.zeros((d, d), dtype=complex)
        m[:h, :h], m[h:, h:] = a, b
        kraus.append(m)
    return isometry_from_kraus(kraus)


def _with_defect(iso, h):
    """v (1 + eta h), eta set so that ||v* v - 1||_F is 0.9e-8, under 1e-8."""
    eta = 0.45e-8 / np.linalg.norm(h)
    return Isometry(iso.v @ (np.eye(iso.d) + eta * h), iso.d, iso.k)


def _near_periodic(d, p, eps, seed):
    # a period-p chain with a unitary jump of weight eps^2 mixed in: primitive
    # for eps > 0, its non-trivial peripheral eigenvalues pulled in by about
    # eps^2, so 1e-4 puts them at the edge of the default peripheral_band
    rng = np.random.default_rng(seed)
    cyclic = Isometry(oracles.cyclic_isometry(rng, d, 2, p), d, 2).kraus
    jump = eps * oracles.random_unitary(rng, d)
    return isometry_from_kraus([np.sqrt(1.0 - eps * eps) * k for k in cyclic] + [jump])


NEAR_PERIODIC = [
    (f"near-periodic-p{p}-{eps:.0e}", _near_periodic(12, p, eps, 2044 + p), p)
    for p in (2, 3)
    for eps in (1e-2, 1e-4, 1e-6)
]


def _route_cases():
    """(label, iso, tol, expected certificate answer or None).

    The answer is the certified period, or 0 when the certificate declines.
    """
    for label, iso, period in CHAINS:
        yield label, iso, None, period if iso.d >= 16 else None
    rng = np.random.default_rng(2034)
    yield "cyclic-d16p2", Isometry(oracles.cyclic_isometry(rng, 16, 2, 2), 16, 2), None, 2
    yield "cyclic-d12p3", Isometry(oracles.cyclic_isometry(rng, 12, 2, 3), 12, 2), None, 3
    yield "cyclic-d10p2", Isometry(oracles.cyclic_isometry(rng, 10, 2, 2), 10, 2), None, 2
    yield "cyclic-d15p5", Isometry(oracles.cyclic_isometry(rng, 15, 2, 5), 15, 2), None, 5
    yield "cyclic-d20p5", Isometry(oracles.cyclic_isometry(rng, 20, 2, 5), 20, 2), None, 5
    # a block of _RITZ_COLUMNS = 6 columns sees at most p = 7
    yield "cyclic-d16p8", Isometry(oracles.cyclic_isometry(rng, 16, 2, 8), 16, 2), None, 0
    yield "reducible-d16", _reducible(2035, 16), None, 0
    yield "reducible-d8", _reducible(2036, 8), None, 0
    for eps in (1e-2, 1e-3, 1e-4):
        yield f"near-boundary-{eps:.0e}", _near_boundary(eps), None, 0
        yield f"coupled-blocks-{eps:.0e}", _coupled_blocks(eps), None, 0
    for label, iso, _ in NEAR_PERIODIC:
        yield label, iso, None, None
    d16, d24 = _random_chain(2037, 16, 2), _random_chain(2038, 24, 2)
    yield "random-d16", d16, None, 1
    yield "random-d24", d24, None, 1
    rng = np.random.default_rng(2039)
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    defects = {"identity": np.eye(16), "corner": np.diag(np.eye(16)[0]), "random": g + g.conj().T}
    for name, h in defects.items():
        yield f"defect-{name}", _with_defect(d16, h), None, 1
    # eigenvalue 1 sits 2.25e-9 from 1.  Outside half a gap of 3e-9 the
    # certified route defers to the dense one, which still finds it simple;
    # with a gap of 2e-9 the dense route finds no eigenvalue near 1
    for gap in (3e-9, 2e-9):
        yield f"defect-identity-gap-{gap:.0e}", _with_defect(d16, np.eye(16)), ErgodicTol(
            simplicity_gap=gap
        ), 1
    for band in (0.9, 1e-300):
        yield f"random-d16-band-{band:.0e}", d16, ErgodicTol(peripheral_band=band), 0


ROUTE_CASES = list(_route_cases())


@pytest.mark.parametrize(
    "label,iso,tol,certified", ROUTE_CASES, ids=[c[0] for c in ROUTE_CASES]
)
def test_certified_route_matches_dense_route(label, iso, tol, certified):
    fast, dense, answer = _both_routes(iso, tol)
    if certified is not None:
        assert answer == certified
    _assert_same_analysis(fast, dense)
    if label.startswith("defect"):
        assert 0.8e-8 <= np.linalg.norm(iso.v.conj().T @ iso.v - np.eye(iso.d)) <= 1e-8


@pytest.mark.parametrize("label,iso,p", NEAR_PERIODIC, ids=[c[0] for c in NEAR_PERIODIC])
def test_near_periodic_verdict_follows_the_spectrum_oracle(label, iso, p):
    # the verdict is read off the complex oracle spectrum, not assumed: p when
    # the p - 1 pulled-in eigenvalues stay within peripheral_band of the
    # circle, 1 when they leave it.  Near the edge of the band a route may
    # raise PeripheralMismatch, but neither may report another period.
    band = ErgodicTol().peripheral_band
    mods = np.abs(oracles.spectrum_complex(iso))
    expected = np.count_nonzero(mods >= 1.0 - band)
    assert expected in (1, p)
    assert ergodic.access_span_check(iso)
    for result in _both_routes(iso)[:2]:
        if isinstance(result, PeripheralMismatch):
            assert np.min(np.abs(mods - (1.0 - band))) <= 1e-12
            continue
        assert result.is_irreducible and result.period == expected


def test_spectrum_is_computed_only_when_read(monkeypatch):
    rng = np.random.default_rng(2040)
    chains = [
        (_random_chain(2040, 16, 2), 1),
        (Isometry(oracles.cyclic_isometry(rng, 16, 2, 2), 16, 2), 2),
        (Isometry(oracles.cyclic_isometry(rng, 24, 2, 3), 24, 2), 3),
    ]
    eigvals = np.linalg.eigvals

    def refuse(m):
        raise RuntimeError("dense eigensolver called")

    for iso, period in chains:
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        profile = analyze(iso)
        assert profile.is_irreducible and profile.period == period
        # the gauge split and the CLT variance need only rho_ss, the
        # projections and the resolvent
        a = rng.standard_normal(iso.v.shape) + 1j * rng.standard_normal(iso.v.shape)
        split(profile, a)
        assert np.isfinite(asymptotic_variance(profile, np.diag([1.0, -1.0])))
        with pytest.raises(RuntimeError, match="dense eigensolver"):
            profile.eigenvalues
        with pytest.raises(RuntimeError, match="dense eigensolver"):
            profile.diagnostics
        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        assert profile.eigenvalues.shape == (iso.d**2,)
        assert list(profile.diagnostics) == [
            "spectral_gap",
            "distance_to_one",
            "stationary_min_eigenvalue",
            "peripheral_deviation",
            "reason",
        ]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ergodic, "_certify", lambda r, d, tol: 0)
            dense = analyze(iso)
        assert json.dumps(profile.diagnostics) == json.dumps(dense.diagnostics)
        assert np.array_equal(profile.eigenvalues, dense.eigenvalues)


def test_channel_functionals_build_no_complex_superoperator(monkeypatch):
    # the QFI sweep, the window variance and the m3 SNR data run on the real
    # transfer matrix; the complex column-stacking matrix is the oracle's
    def refuse(self):
        raise RuntimeError("complex superoperator built")

    monkeypatch.setattr(channels.Superoperator, "__post_init__", refuse)
    iso = isometry("m1", 0.3)
    f = qfi_curve(iso, golden_tangent("m1")[0], np.array([1.0, 0.0]), [1, 50])
    assert np.isfinite(f).all()
    m3 = analyze(isometry("m3", 0.3))
    assert np.isfinite(finite_window_variance(m3, measurement("m3", block=2)[1], 64))
    assert snr_spectral_data(0.3)["z_residual"] <= 1e-12
    with pytest.raises(RuntimeError, match="complex superoperator"):
        channel(iso)


def test_certificate_projects_the_trace_out():
    # a transfer matrix whose images of traceless operators carry trace
    # would feed the eigenvalue-1 direction, which never decays, into an
    # unprojected block; the projected step is blind to it
    iso = _random_chain(2042, 16, 2)
    r = real_transfer(iso)
    one = herm_coords(np.eye(16)).real
    w = np.random.default_rng(2043).standard_normal(256)
    leaky = r + 1e-6 * np.outer(one, w)
    assert ergodic._certify(r, 16, ErgodicTol()) == 1
    assert ergodic._certify(leaky, 16, ErgodicTol()) == 1


def _hidden_eigenvalue_operator(d, block, hidden):
    """Symmetric operator on traceless coordinates with eigenvalues -1, 0.3 and
    ``hidden``; the eigenvector of ``hidden`` is orthogonal to ``block``."""
    n = d * d
    one = np.zeros(n)
    one[:d] = 1.0 / np.sqrt(d)
    rng = np.random.default_rng(2045)
    frame = np.linalg.qr(np.column_stack([one, block]))[0]
    unseen = rng.standard_normal(n)
    unseen -= frame @ (frame.T @ unseen)
    unseen /= np.linalg.norm(unseen)
    seen = rng.standard_normal(n) + block[:, 0]
    for u in (one, unseen):
        seen -= u * (u @ seen)
    seen /= np.linalg.norm(seen)
    rest = np.eye(n) - np.outer(one, one) - np.outer(seen, seen) - np.outer(unseen, unseen)
    return -np.outer(seen, seen) + hidden * np.outer(unseen, unseen) + 0.3 * rest


@pytest.mark.parametrize("hidden,period", [(0.3, 2), (0.99, 0)], ids=["none", "hidden-0.99"])
def test_periodic_certificate_deflates_before_it_decides(hidden, period):
    # the Ritz block never sees an eigenvalue whose eigenvector is orthogonal
    # to its start; only the fresh deflated block can, and 0.99 keeps most of
    # that block over the 36-step budget
    d, tol = 6, ErgodicTol()
    block = ergodic._traceless_block(np.random.default_rng(7), d, ergodic._RITZ_COLUMNS)
    a = _hidden_eigenvalue_operator(d, block, hidden)
    assert ergodic._certify_periodic(a, d, tol, d * d, np.random.default_rng(8), block) == period


# --------------------------------------------------------------------------
# restricted resolvent condition number: one values-only SVD


def _cond_against_oracle(profile, seed):
    """(resolvent_cond from split, the dense SVD oracle's)."""
    iso = profile.iso
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(iso.v.shape) + 1j * rng.standard_normal(iso.v.shape)
    got = split(profile, a).resolvent_cond
    return got, oracles.split_nullspace(iso, profile.rho_ss, a)[3]


@pytest.mark.parametrize("eps", [3e-1, 1e-1, 3e-2, 1e-2], ids=lambda e: f"{e:.0e}")
def test_resolvent_cond_matches_svd_oracle_up_to_cond_24000(eps):
    # cond is about 25, 240, 2700 and 24000
    got, ref = _cond_against_oracle(analyze(_coupled_blocks(eps)), seed=2044)
    assert abs(got - ref) <= TOL * ref


@settings(max_examples=40, deadline=None)
@given(d=DIMS, k=UNITS, seed=SEEDS)
def test_resolvent_cond_matches_svd_oracle_on_random_chains(d, k, seed):
    profile = analyze(_random_chain(seed, d, k))
    if not profile.is_irreducible:
        return
    if d == 1:  # the subspace is {0}; the oracle has no matrix to condition
        assert split(profile, np.ones((k, 1), complex)).resolvent_cond == 1.0
        return
    got, ref = _cond_against_oracle(profile, seed)
    assert abs(got - ref) <= TOL * ref


# --------------------------------------------------------------------------
# restricted resolvent condition number: the probe bound on every call, the
# exact value only when read or when the bound exceeds the cap


BOUND_CHAINS = [(label, iso) for label, iso, _ in CHAINS] + [
    (f"coupled-blocks-{eps:.0e}", _coupled_blocks(eps)) for eps in (3e-1, 1e-1, 3e-2, 1e-2)
]


def _spy(monkeypatch, name, module=gauge):
    """Replace module.<name> by a wrapper; returns the list of its results."""
    seen, fn = [], getattr(module, name)

    def spy(*args):
        seen.append(fn(*args))
        return seen[-1]

    monkeypatch.setattr(module, name, spy)
    return seen


def _tangent(iso, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(iso.v.shape) + 1j * rng.standard_normal(iso.v.shape)


@pytest.mark.parametrize("label,iso", BOUND_CHAINS, ids=[c[0] for c in BOUND_CHAINS])
def test_probe_bound_is_at_least_the_exact_condition_number(label, iso, monkeypatch):
    # the coupled blocks reach cond 24000; the bound must hold there too
    profile = analyze(iso)
    bounds = _spy(monkeypatch, "_cond_bound")
    split(profile, _tangent(iso, 2048))
    assert len(bounds) == 1
    assert profile.resolvent_cond <= bounds[0] <= gauge._COND_CAP


def test_exact_condition_number_is_computed_only_when_read(monkeypatch):
    iso = next(iso for label, iso, _ in CHAINS if label == "cyclic-d8p2")
    profile = analyze(iso)
    exact = _spy(monkeypatch, "_restricted_cond", ergodic)
    split(profile, _tangent(iso, 2049))
    asymptotic_variance(profile, np.diag([1.0, 0.0]))
    assert "resolvent_cond" not in asymptotic_variance(profile, np.diag([1.0, 0.0]), details=True)
    assert exact == []
    cond = profile.resolvent_cond
    assert exact == [cond]
    assert split(profile, _tangent(iso, 2050)).resolvent_cond == cond
    assert exact == [cond]


def test_exact_condition_number_runs_once_when_the_cap_is_below_the_bound(monkeypatch):
    iso = next(iso for label, iso, _ in CHAINS if label == "random-d16k2")
    a = _tangent(iso, 2051)
    with monkeypatch.context() as m:
        bounds = _spy(m, "_cond_bound")
        ref = split(analyze(iso), a)
    profile = analyze(iso)
    exact = _spy(monkeypatch, "_restricted_cond", ergodic)
    # between the exact value (about 10) and the bound: the fallback runs
    # and accepts, and the solution is the one the bound let through
    monkeypatch.setattr(gauge, "_COND_CAP", 0.5 * bounds[0])
    for _ in range(2):
        got = split(profile, a)
        assert np.array_equal(got.kgen, ref.kgen) and np.array_equal(got.a_id, ref.a_id)
    assert len(exact) == 1 and exact[0] < gauge._COND_CAP
    monkeypatch.setattr(gauge, "_COND_CAP", 0.5 * exact[0])
    with pytest.raises(ResolventIllConditioned):
        split(profile, a)
    assert len(exact) == 1


def test_non_finite_bound_falls_back_to_the_exact_value(monkeypatch):
    iso = next(iso for label, iso, _ in CHAINS if label == "random-d8k3")
    a = _tangent(iso, 2052)
    ref = split(analyze(iso), a)
    profile = analyze(iso)
    exact = _spy(monkeypatch, "_restricted_cond", ergodic)
    monkeypatch.setattr(gauge, "_cond_bound", lambda iso, y: np.nan)
    for _ in range(2):
        assert np.array_equal(split(profile, a).kgen, ref.kgen)
    assert len(exact) == 1


def test_singular_system_is_checked_against_the_exact_value(monkeypatch):
    # as when the exact value was checked before every solve, a condition
    # number above the cap wins over the singular LU
    iso = next(iso for label, iso, _ in CHAINS if label == "random-d8k2")
    profile = analyze(iso)

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(gauge, "bordered_solve", singular)
    with pytest.raises(SingularResolvent):
        split(profile, _tangent(iso, 2053))
    monkeypatch.setattr(gauge, "_COND_CAP", 0.5 * profile.resolvent_cond)
    with pytest.raises(ResolventIllConditioned):
        split(profile, _tangent(iso, 2053))


# --------------------------------------------------------------------------
# equivalence witness: Kraus-form power iteration against the dense route


def _witness(iso1, iso2, tol):
    try:
        return equivalence_witness(iso1, iso2, tol)
    except QmcError as exc:
        return exc


def _kraus_verdict(found, tol):
    if found is None:
        return "undecided"
    return "inequivalent" if abs(found[0]) < 1.0 - tol else "equivalent"


def _both_witness_routes(iso1, iso2, tol=1e-8):
    """(Kraus-route witness, dense-route witness, the Kraus stage's verdict).

    The size rule is lifted, so the Kraus stage runs at every d; the dense
    witness comes from a Kraus stage patched to be undecided.
    """
    answers = []
    kraus = gauge._kraus_peripheral

    def spy(*args):
        answers.append(kraus(*args))
        return answers[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ergodic, "_CERTIFY_MIN_D", 1)
        mp.setattr(gauge, "_kraus_peripheral", spy)
        fast = _witness(iso1, iso2, tol)
        mp.setattr(gauge, "_kraus_peripheral", lambda *args: None)
        dense = _witness(iso1, iso2, tol)
    return fast, dense, _kraus_verdict(answers[0], tol) if answers else None


def _gauge_pair(iso, seed):
    rng = np.random.default_rng(seed)
    g = (complex(np.exp(2j * np.pi * rng.random())), oracles.random_unitary(rng, iso.d))
    return iso, act(g, iso)


def _witness_cases():
    """(label, iso1, iso2, tol, equivalent, expected Kraus verdict or None)."""
    for d in (2, 8, 12, 16):
        verdict = "equivalent" if d >= 12 else "undecided"
        iso1, iso2 = _gauge_pair(_random_chain(2050 + d, d, 2), 2060 + d)
        yield f"random-d{d}", iso1, iso2, 1e-8, True, verdict
    rng = np.random.default_rng(2051)
    for d, p in ((16, 2), (12, 3), (15, 5)):
        iso = Isometry(oracles.cyclic_isometry(rng, d, 2, p), d, 2)
        yield f"cyclic-d{d}p{p}", *_gauge_pair(iso, 2070 + p), 1e-8, True, "equivalent"
    for label, iso, _ in NEAR_PERIODIC:
        yield label, *_gauge_pair(iso, 2080), 1e-8, True, None
    m3 = isometry("m3", 0.3)
    for other in (np.pi - 0.3, -0.3):
        reflected = isometry("m3", other, strict=False)
        yield f"m3-reflection-{other:.2f}", m3, reflected, 1e-8, True, None
    yield "m1-0.3-0.32", isometry("m1", 0.3), isometry("m1", 0.32), 1e-8, False, "undecided"
    for d in (8, 12, 16):
        verdict = "inequivalent" if d >= 12 else None
        iso1, iso2 = _random_chain(2090 + d, d, 2), _random_chain(2100 + d, d, 2)
        yield f"random-pair-d{d}", iso1, iso2, 1e-8, False, verdict
        swapped = isometry_from_kraus(iso1.kraus[::-1])
        yield f"index-swapped-d{d}", iso1, swapped, 1e-8, False, verdict
    # below ergodic._CERTIFY_TOL_FLOOR only the dense route reproduces the
    # verdict: at 1 - 1e-300 == 1 it reads the roundoff of the radius
    d16 = _random_chain(2066, 16, 2)
    yield "random-d16-tol-1e-300", *_gauge_pair(d16, 2076), 1e-300, None, "undecided"
    yield "random-pair-d16-tol-1e-300", d16, _random_chain(2116, 16, 2), 1e-300, False, "undecided"


WITNESS_CASES = list(_witness_cases())


@pytest.mark.parametrize(
    "label,iso1,iso2,tol,equivalent,verdict", WITNESS_CASES, ids=[c[0] for c in WITNESS_CASES]
)
def test_kraus_witness_matches_dense_witness(label, iso1, iso2, tol, equivalent, verdict):
    fast, dense, answer = _both_witness_routes(iso1, iso2, tol)
    if verdict is not None:
        assert answer == verdict
    if answer == "undecided":
        # the dense route ran on both sides, so the results are identical
        assert type(fast) is type(dense)
        if fast is not None:
            assert fast[0] == dense[0] and np.array_equal(fast[1], dense[1])
    if equivalent is False:
        assert fast is None and dense is None
    elif equivalent:
        assert fast is not None and dense is not None
        # the element that maps iso1 to iso2 according to the dense witness
        g = (np.conj(dense[0]), dense[1].conj().T)
        assert witness_matches(analyze(iso1), fast, g, tol=1e-10)
        # and both routes return the same member of the stabiliser family
        assert abs(fast[0] - dense[0]) <= 1e-10
        assert proj_distance(fast[1], dense[1]) <= 1e-8


@pytest.mark.parametrize("eps", [1e-12, 1e-10])
def test_proj_distance_resolves_close_matrices(eps):
    # delta is orthogonal to a, so the distance modulo phase is eps ||delta||;
    # sqrt(|a|^2 + |b|^2 - 2 |<a, b>|) cancels to 0 at these eps
    rng = np.random.default_rng(12)
    a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    delta = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    delta -= np.vdot(a, delta) / np.vdot(a, a) * a
    got = proj_distance(a, np.exp(0.7j) * (a + eps * delta))
    assert abs(got - eps * np.linalg.norm(delta)) <= 0.01 * eps * np.linalg.norm(delta)


def test_witness_route_follows_the_size_rule(monkeypatch):
    # primitive and period-2 chains at d = 16: the Kraus route decides, and
    # analyze certifies both chains, so no eigvals call is left
    rng = np.random.default_rng(2052)
    pairs = [
        _gauge_pair(_random_chain(2053, 16, 2), 2054),
        _gauge_pair(Isometry(oracles.cyclic_isometry(rng, 16, 2, 2), 16, 2), 2055),
    ]

    def refuse(*args):
        raise RuntimeError("refused")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvals", refuse)
        for iso1, iso2 in pairs:
            assert equivalence_witness(iso1, iso2) is not None
    # below the size rule the dense route runs, and the Kraus step never does
    monkeypatch.setattr(gauge, "_sandwich_step", refuse)
    assert equivalence_witness(*_gauge_pair(_random_chain(2056, 8, 2), 2057)) is not None
    with pytest.raises(RuntimeError, match="refused"):
        equivalence_witness(*pairs[0])


def _poisoned_sandwich(monkeypatch, poison):
    """Patch the Kraus step to return NaN on the calls ``poison`` accepts;
    returns the list of call numbers seen, from 1."""
    build = gauge._sandwich_step
    calls = []

    def patched(iso1, iso2):
        apply = build(iso1, iso2)

        def step(x):
            calls.append(len(calls) + 1)
            y = apply(x)
            return np.full_like(y, np.nan) if poison(calls[-1]) else y

        return step

    monkeypatch.setattr(gauge, "_sandwich_step", patched)
    return calls


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_witness_kraus_route_rejects_non_finite_iterate(monkeypatch, where):
    # a NaN in the iteration leaves the stage undecided, so the dense route
    # answers; a NaN in the final application, after the Rayleigh value has
    # converged, fails the eigenvector residual.  Never a silent None.
    iso1, iso2 = _gauge_pair(_random_chain(2058, 16, 2), 2059)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gauge, "_kraus_peripheral", lambda *args: None)
        dense = equivalence_witness(iso1, iso2)
    clean = _poisoned_sandwich(monkeypatch, lambda call: False)
    equivalence_witness(iso1, iso2)
    n = len(clean)
    at = {"first": 1, "middle": n // 2, "last": n}[where]
    _poisoned_sandwich(monkeypatch, lambda call: call >= at)
    if where == "last":
        with pytest.raises(WitnessInconsistent, match="eigenvector relative residual"):
            equivalence_witness(iso1, iso2)
        return
    c, w = equivalence_witness(iso1, iso2)
    assert c == dense[0] and np.array_equal(w, dense[1])


def test_kraus_witness_waits_for_a_hidden_rim_eigenvalue(monkeypatch):
    # E multiplies X entrywise: by 1 at the entry where the seeded start is
    # smallest and by 0.995 elsewhere.  The start's rim component is 0.003 of
    # the rest, so the Rayleigh value sits at 0.995 with a residual below
    # 1/100 of its distance to the rim from the first step, while the radius
    # is 1.  Over the 256-step budget the rim entry outgrows the rest only by
    # 3.6, far from 1e8, so the stage must stay undecided
    d = 16
    start = np.random.default_rng(gauge._WITNESS_SEED)
    x0 = start.standard_normal((d, d)) + 1j * start.standard_normal((d, d))
    weights = np.full((d, d), 0.995, dtype=complex)
    weights.flat[np.argmin(np.abs(x0))] = 1.0
    monkeypatch.setattr(gauge, "_sandwich_step", lambda iso1, iso2: lambda x: weights * x)
    iso = _random_chain(2110, d, 2)
    assert gauge._kraus_peripheral(iso, iso, 1, 1e-8) is None
