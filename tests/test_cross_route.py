"""Fast routes against the earlier implementations they replaced.

``analyze`` takes the stationary state and the peripheral eigen-operator
from bordered solves, and ``restricted_resolvent_solve`` solves a bordered
system instead of compressing onto a null-space basis.  ``qfi_curve`` runs
one forward recurrence on real Hermitian-basis coordinates instead of
summing antidiagonals of an O(n^2) Gram, and the variances read every non-overlapping covariance off one
reduced operator sigma_Q instead of one dilation per lag.  The replaced
routes live in ``oracles``; on fixtures with and without periodicity both
must agree to 1e-10 relative.  ``resolvent_cond`` comes from the Gram
spectrum of the compressed resolvent when its condition number is at most
100 and from a values-only SVD above that; the dense SVD oracle pins both
sides of that cut.

The trajectory sampler steps a batch of states, held as real Hermitian-
basis coordinates, through one stacked real operator instead of three
einsums; its outcomes must equal the einsum oracle's exactly, and its
final states to 1e-12.  The blocks of that operator must sum to the real
transfer matrix of the b-step chain, and its weight rows must give each
outcome's trace.

The spectral layer works on the real matrix R of the Schrodinger map in
the Hermitian operator basis.  R must equal U* T U for the complex matrix
T, R^T the Heisenberg matrix in that basis, and its spectrum that of T.

``analyze`` certifies a primitive chain by a traceless power iteration and
then computes the spectrum only when it is read.  The certified route must
give the dense route's profile bit for bit: verdict, period, rho_ss, Z,
residuals, diagnostics (values and key order) and report bytes.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmc.channels import Isometry, channel, dilation, isometry_from_kraus, real_transfer
from qmc import channels, ergodic, io
from qmc.ergodic import ErgodicTol, analyze
from qmc.errors import QmcError, ResolventIllConditioned
from qmc.gauge import restricted_resolvent_solve, split
from qmc.linalg import bordered_solve, herm_coords, herm_vec
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


def test_condition_cap_checked_on_every_call():
    profile = analyze(next(iso for label, iso, _ in CHAINS if label == "random-d8k2"))
    rhs = np.diag(np.arange(profile.d)).astype(complex)
    rhs -= np.trace(profile.rho_ss @ rhs) * np.eye(profile.d)
    _, cond = restricted_resolvent_solve(profile, rhs)
    assert cond > 1.0
    # the condition number is stored after the first call; a smaller cap on
    # a later call must still be enforced
    with pytest.raises(ResolventIllConditioned):
        restricted_resolvent_solve(profile, rhs, cond_cap=0.5 * cond)
    x, cond2 = restricted_resolvent_solve(profile, rhs)
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
def test_superoperator_step_is_batch_and_thread_invariant(label, monkeypatch):
    _, iso, meas = SAMPLER_CASES[SAMPLER_IDS.index(label)]
    rho = analyze(iso).rho_ss
    monkeypatch.delenv("QMC_THREADS", raising=False)
    outcomes, states = sample_batch(iso, rho, 150, meas, 9, 12)
    for t in (0, 5, 11):
        rec = sample(iso, rho, 150, meas, 9, trial=t)
        assert np.array_equal(rec.outcomes, outcomes[t])
        assert np.max(np.abs(rec.final_state - states[t])) <= 1e-12
    monkeypatch.setenv("QMC_THREADS", "2")
    out2, states2 = sample_batch(iso, rho, 150, meas, 9, 12)
    assert np.array_equal(out2, outcomes)
    assert np.max(np.abs(states2 - states)) <= 1e-12


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


def _spectrum_distance(got, ref):
    """Largest distance in a greedy nearest-neighbour matching of two multisets."""
    ref = list(ref)
    worst = 0.0
    for lam in sorted(got, key=lambda z: -abs(z)):
        i = int(np.argmin(np.abs(np.asarray(ref) - lam)))
        worst = max(worst, abs(ref.pop(i) - lam))
    return worst


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
    assert _spectrum_distance(profile.eigenvalues, ref) <= 1e-12 * np.max(np.abs(ref))
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
# certified primitive route against the dense route


def _analysis(iso, tol):
    try:
        return analyze(iso, tol)
    except QmcError as exc:
        return exc


def _both_routes(iso, tol=None):
    """(certified-route result, dense-route result, the certificate's answer).

    The size rule is lifted, so the certificate is tried at every d; the
    dense result comes from a certificate patched to decline.
    """
    answers = []
    certify = ergodic._certify_primitive

    def spy(r, d, tol):
        answers.append(certify(r, d, tol))
        return answers[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ergodic, "_CERTIFY_MIN_D", 1)
        mp.setattr(ergodic, "_certify_primitive", spy)
        fast = _analysis(iso, tol)
        mp.setattr(ergodic, "_certify_primitive", lambda r, d, tol: False)
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


def _route_cases():
    """(label, iso, tol, expected certificate answer or None)."""
    for label, iso, _ in CHAINS:
        yield label, iso, None, True if iso.d >= 16 else None
    rng = np.random.default_rng(2034)
    yield "cyclic-d16p2", Isometry(oracles.cyclic_isometry(rng, 16, 2, 2), 16, 2), None, False
    yield "cyclic-d12p3", Isometry(oracles.cyclic_isometry(rng, 12, 2, 3), 12, 2), None, False
    yield "reducible-d16", _reducible(2035, 16), None, False
    yield "reducible-d8", _reducible(2036, 8), None, False
    for eps in (1e-2, 1e-3, 1e-4):
        yield f"near-boundary-{eps:.0e}", _near_boundary(eps), None, False
        yield f"coupled-blocks-{eps:.0e}", _coupled_blocks(eps), None, False
    d16, d24 = _random_chain(2037, 16, 2), _random_chain(2038, 24, 2)
    yield "random-d16", d16, None, True
    yield "random-d24", d24, None, True
    rng = np.random.default_rng(2039)
    g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    defects = {"identity": np.eye(16), "corner": np.diag(np.eye(16)[0]), "random": g + g.conj().T}
    for name, h in defects.items():
        yield f"defect-{name}", _with_defect(d16, h), None, True
    # eigenvalue 1 sits 2.25e-9 from 1.  Outside half a gap of 3e-9 the
    # certified route defers to the dense one, which still finds it simple;
    # with a gap of 2e-9 the dense route finds no eigenvalue near 1
    for gap in (3e-9, 2e-9):
        yield f"defect-identity-gap-{gap:.0e}", _with_defect(d16, np.eye(16)), ErgodicTol(
            simplicity_gap=gap
        ), True
    for band in (0.9, 1e-300):
        yield f"random-d16-band-{band:.0e}", d16, ErgodicTol(peripheral_band=band), False


ROUTE_CASES = list(_route_cases())


@pytest.mark.parametrize(
    "label,iso,tol,certified", ROUTE_CASES, ids=[c[0] for c in ROUTE_CASES]
)
def test_certified_route_matches_dense_route(label, iso, tol, certified):
    fast, dense, answer = _both_routes(iso, tol)
    if certified is not None:
        assert answer is certified
    _assert_same_analysis(fast, dense)
    if label.startswith("defect"):
        assert 0.8e-8 <= np.linalg.norm(iso.v.conj().T @ iso.v - np.eye(iso.d)) <= 1e-8


def test_spectrum_is_computed_only_when_read(monkeypatch):
    iso = _random_chain(2040, 16, 2)

    def refuse(m):
        raise RuntimeError("dense eigensolver called")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    profile = analyze(iso)
    assert profile.is_irreducible and profile.period == 1
    # the gauge split needs only rho_ss and the resolvent
    rng = np.random.default_rng(2041)
    split(profile, rng.standard_normal(iso.v.shape) + 1j * rng.standard_normal(iso.v.shape))
    with pytest.raises(RuntimeError, match="dense eigensolver"):
        profile.eigenvalues
    with pytest.raises(RuntimeError, match="dense eigensolver"):
        profile.diagnostics
    monkeypatch.undo()
    assert profile.eigenvalues.shape == (256,)
    assert list(profile.diagnostics) == [
        "spectral_gap",
        "distance_to_one",
        "stationary_min_eigenvalue",
        "peripheral_deviation",
        "reason",
    ]


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
    assert ergodic._certify_primitive(r, 16, ErgodicTol())
    assert ergodic._certify_primitive(leaky, 16, ErgodicTol())


# --------------------------------------------------------------------------
# restricted resolvent condition number: Gram spectrum or values-only SVD


def _cond_against_oracle(profile, seed):
    """(resolvent_cond from split, the dense SVD oracle's, whether split ran an SVD)."""
    iso = profile.iso
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(iso.v.shape) + 1j * rng.standard_normal(iso.v.shape)
    svd = np.linalg.svd
    values_only = []

    def spy(m, *args, **kwargs):
        values_only.append(kwargs.get("compute_uv") is False)
        return svd(m, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "svd", spy)
        got = split(profile, a).resolvent_cond
    ref = oracles.split_nullspace(iso, profile.rho_ss, a)[3]
    return got, ref, any(values_only)


@pytest.mark.parametrize("eps", [3e-1, 1e-1, 3e-2, 1e-2], ids=lambda e: f"{e:.0e}")
def test_resolvent_cond_matches_svd_oracle_across_the_gram_cut(eps):
    # cond is about 25, 240, 2700 and 24000; the Gram spectrum serves only
    # the first, since its error grows like eps_mach * cond^2 (1e-9 at 2700)
    got, ref, ran_svd = _cond_against_oracle(analyze(_coupled_blocks(eps)), seed=2044)
    assert abs(got - ref) <= TOL * ref
    assert ran_svd == (ref > 100.0)


@settings(max_examples=40, deadline=None)
@given(d=DIMS, k=UNITS, seed=SEEDS)
def test_resolvent_cond_matches_svd_oracle_on_random_chains(d, k, seed):
    profile = analyze(_random_chain(seed, d, k))
    if not profile.is_irreducible:
        return
    if d == 1:  # the subspace is {0}; the oracle has no matrix to condition
        assert split(profile, np.ones((k, 1), complex)).resolvent_cond == 1.0
        return
    got, ref, _ = _cond_against_oracle(profile, seed)
    assert abs(got - ref) <= TOL * ref
