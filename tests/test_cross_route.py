"""Fast routes against the earlier implementations they replaced.

``analyze`` takes the stationary state and the peripheral eigen-operator
from bordered solves, and ``restricted_resolvent_solve`` solves a bordered
system instead of compressing onto a null-space basis.  ``qfi_curve`` runs
one forward recurrence on real Hermitian-basis coordinates instead of
summing antidiagonals of an O(n^2) Gram, and the variances read every
non-overlapping covariance off one reduced operator sigma_Q instead of one
dilation per lag.  The replaced routes live in ``oracles``; on fixtures
with and without periodicity both must agree to 1e-10 relative.  Both
sweeps read their orbit through ``statmodel._orbit``, a chunk of steps per
product; they must agree to 1e-10 with the one-step-per-n loops they
replaced at chunk edges, on both sides of the chunk size rule.  ``resolvent_cond`` comes from one
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
a periodic or reducible one by block subspace iteration with Rayleigh-Ritz
and a deflated decay, and then computes the spectrum only when it is read.
The certified route must give the dense route's profile bit for bit:
verdict, period, rho_ss, Z, residuals, diagnostics (values and key order)
and report bytes; where it cannot, it must decline.  Periodic chains pulled
off the circle by eps^2, and blocks joined by a leak, test both routes
where peripheral_band and simplicity_gap put the boundary.

``DeformedChannel.iterate`` powers the deformed channel by squarings, and
past the mixing point of a primitive pair by its dominant eigenvalue.
Both routes must meet the first-order roundoff bound against the
sequential loop and against extended precision, a pair that never mixes
must get the squaring route's bits, and the matvecs the mixed route
spends are counted.

``equivalence_witness`` finds the peripheral eigenvector of the sandwich
map by power iteration in Kraus form and falls back to every eigenvalue of
its dense matrix when that is undecided.  Both routes must return None on
the same pairs, and otherwise witnesses that agree to 1e-10 modulo the
stabiliser family (gamma^m, Z^m).
"""

import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmc.channels import (
    Isometry,
    channel,
    dilation,
    isometry_from_kraus,
    kraus_real_matrix,
    real_transfer,
)
from qmc import channels, ergodic, gauge, io, statmodel
from qmc.ergodic import ErgodicTol, analyze, stationary_eigenbasis
from qmc.errors import (
    NotIrreducible,
    PeripheralMismatch,
    QmcError,
    ResolventIllConditioned,
    SingularResolvent,
    WitnessInconsistent,
)
from qmc.gauge import (
    act,
    equivalence_witness,
    restricted_resolvent_solve,
    split,
    tangent_inner,
    witness_matches,
)
from qmc.linalg import bordered_solve, herm_coords, herm_vec, proj_distance
from qmc.qubit_example import fixture_s, golden_tangent, isometry, measurement, snr_spectral_data
from qmc.statmodel import (
    _ORBIT_BLOCK,
    _SQUARING_PRICE,
    DeformedChannel,
    _Lower,
    _orbit,
    _orbit_chunk,
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


def test_qfi_curve_peak_memory_does_not_grow_with_n():
    iso = isometry("m1", 0.3)
    phi = np.linalg.eigh(analyze(iso).rho_ss)[1][:, -1]
    a = golden_tangent("m1")[0]
    tracemalloc.start()
    try:
        f = qfi_curve(iso, a, phi, [200000])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(f[0])
    assert peak < 2**20


# --------------------------------------------------------------------------
# orbit read-out by chunked doubling


def _edge_counts(chunk):
    """Counts at the chunk and block edges, where the orbit changes how it reads."""
    counts = {1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5}
    counts |= {_ORBIT_BLOCK - 1, _ORBIT_BLOCK, _ORBIT_BLOCK + 1}
    return sorted(c for c in counts if c >= 1)


@pytest.mark.parametrize("size", [4, 32, 33, 64])
def test_orbit_reads_plain_powers_in_order(size):
    rng = np.random.default_rng(size)
    half = size // 2
    ops = [rng.standard_normal((size, size)) / np.sqrt(size)]
    if size % 2 == 0:
        ops.append(_Lower(*(rng.standard_normal((2, half, half)) / np.sqrt(half))))
    z0 = rng.standard_normal(size)
    readout = rng.standard_normal((3, size))
    assert _orbit_chunk(size) == (256 if size <= 32 else 1)
    for a in ops:
        dense = a if isinstance(a, np.ndarray) else np.block([[a.r, 0 * a.r], [a.h, a.r]])
        for count in _edge_counts(_orbit_chunk(size)):
            got = np.concatenate(list(_orbit(a, z0, count, readout)), axis=1)
            ref, z = [], z0
            for _ in range(count):
                ref.append(readout @ z)
                z = dense @ z
            assert got.shape == (3, count)
            assert _rel(got, np.array(ref).T) <= 1e-12, count
    assert list(_orbit(ops[0], z0, 0, readout)) == []


def _sequential_chains():
    rng = np.random.default_rng(2029)
    for d in (2, 4, 8):
        yield f"random-d{d}k2", Isometry(oracles.random_isometry(rng, d, 2), d, 2)
    for d in (4, 8):
        yield f"cyclic-d{d}p2", Isometry(oracles.cyclic_isometry(rng, d, 2, 2), d, 2)


SEQUENTIAL_CHAINS = list(_sequential_chains())


@pytest.mark.parametrize("label,iso", SEQUENTIAL_CHAINS, ids=[c[0] for c in SEQUENTIAL_CHAINS])
def test_orbit_sweeps_match_sequential_references(label, iso):
    rng = np.random.default_rng(iso.d)
    a = rng.standard_normal(iso.v.shape) + 1j * rng.standard_normal(iso.v.shape)
    phi = rng.standard_normal(iso.d) + 1j * rng.standard_normal(iso.d)
    counts = _edge_counts(_orbit_chunk(2 * iso.d**2))
    ref = oracles.qfi_sequential(iso, a, phi, max(counts))
    assert _rel(qfi_curve(iso, a, phi, counts), ref[np.array(counts) - 1]) <= TOL

    profile = analyze(iso)
    q = rng.standard_normal((4, 4))
    q = q + q.T  # two-unit block, so lag l >= 2 is orbit step l - 2
    windows = [2 + c for c in _edge_counts(_orbit_chunk(iso.d**2))]
    ref = oracles.finite_window_variance_sequential(profile, q, windows)
    for n, x, r in zip(windows, finite_window_variance(profile, q, windows), ref):
        assert _close(x, r), n


# --------------------------------------------------------------------------
# deformed-channel powers by squaring


EPS = np.finfo(float).eps
# powers of two per d, so that some n stay at or below 2 min(d^2, 93) + 1
# (no squaring, plain matvecs) and some exceed it (at least one squaring);
# at d = 16, n = 2^8 +- 1 lies between the capped bound 187 and 2 d^2 + 1
ITERATE_POWERS = {2: (3, 8, 12), 4: (4, 6, 10), 8: (5, 8, 11), 16: (8, 10, 11)}


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
    plain = 2 * min(left.d**2, _SQUARING_PRICE) + 1  # the largest n with j = 0
    assert min(n_values) <= plain < max(n_values)  # both j = 0 and j > 0
    ref = oracles.iterate_sequential(dc, x, n_values)
    for n in sorted(n_values):
        got = dc.iterate(x, n)
        if n <= plain:
            assert np.array_equal(got, ref[n]), n
            continue
        assert np.linalg.norm(got - ref[n]) <= n * EPS * np.linalg.norm(x), n
        # relative to the result too: the absolute bound alone passes any
        # output once the iterate has decayed far below x.  The norms are
        # taken of arrays scaled by the largest entry of the oracle's: a
        # norm squares the entries, so unscaled it reads 0 from entries of
        # about 1e-154 down, while the iterate is still normal
        scale = np.max(np.abs(ref[n]))
        if scale >= np.finfo(float).tiny:
            err = np.linalg.norm((got - ref[n]) / scale)
            assert err <= n * EPS * np.linalg.norm(ref[n] / scale), n
        else:
            assert not np.any(got), n  # the oracle underflowed


def _converge_channel(iso, n, seed=5):
    """The deformed channel of retract(v, +-x, 1/sqrt(n)) for the unit
    identifiable part x of a seeded Gaussian tangent, as ``qmc converge``
    builds it for its n."""
    profile = analyze(iso)
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(iso.v.shape) + 1j * rng.standard_normal(iso.v.shape)
    a_id = split(profile, raw).a_id
    x = a_id / np.sqrt(tangent_inner(profile, a_id, a_id).real)
    t = 1.0 / np.sqrt(n)
    return DeformedChannel(retract(iso, x, t), retract(iso, -x, t))


def _row(label):
    _, left, right, _ = next(c for c in ITERATE_PAIRS if c[0] == label)
    return DeformedChannel(left, right)


def test_powered_iterate_against_extended_precision():
    # a rotation, so that a wrong step count would change E^n(x), and three
    # primitive pairs on which the iterate mixes, the last at the benchmark's
    # converge size; the mixed route fired on those iff it differs from the
    # squaring route, which is what it falls back to.  (The random rows
    # have |mu| <= 0.80, so from n = 2^12 on every route gives exactly 0.)
    rows = [
        ("rotation-d2", _row("rotation-d2"), 2**16, False),
        ("near-identical-d4", _row("near-identical-d4"), 2**12, True),
        ("unital-d8", _row("unital-d8"), 2**12, True),
        ("converge-d16", _converge_channel(_random_chain(5151, 16, 2), 2**12), 2**12, True),
    ]
    for label, dc, n, mixed in rows:
        x = _random_matrix(8, dc.iso_left.d)
        got = dc.iterate(x, n)
        squared = oracles.iterate_squared(dc, x, n)
        assert np.array_equal(got, squared) is not mixed, label
        exact = oracles.iterate_sequential(dc, x, [n], dtype=np.clongdouble)[n]
        errors = {
            "powered": float(np.linalg.norm(got - exact)),
            "squared": float(np.linalg.norm(squared - exact)),
            "sequential": float(np.linalg.norm(oracles.iterate_sequential(dc, x, [n])[n] - exact)),
        }
        print(f"{label}, n = {n}: error against clongdouble {errors}")
        for err in errors.values():
            assert err <= n * EPS * np.linalg.norm(x), label


def _fallback_cases():
    """(label, channel, n) on which the iterate never mixes: period-2 and
    rotation rows above the plain bound, and the period-2 m1 chain deformed
    as ``qmc converge`` deforms it, at a power of two too cheap to square
    for the mixed route to start and at one below it, where it starts."""
    for label, left, right, powers in ITERATE_PAIRS:
        if label.startswith(("period2-", "rotation-")):
            dc = DeformedChannel(left, right)
            plain = 2 * min(left.d**2, _SQUARING_PRICE) + 1
            for k in powers:
                for n in (2**k - 1, 2**k, 2**k + 1):
                    if n > plain:
                        yield label, dc, n
    for n in (2**14, 2**14 - 1):
        yield "m1-deformed", _converge_channel(isometry("m1", 0.3), n), n


def test_iterate_falls_back_to_the_squaring_route_bit_for_bit():
    for label, dc, n in _fallback_cases():
        x = _random_matrix(9, dc.iso_left.d)
        assert np.array_equal(dc.iterate(x, n), oracles.iterate_squared(dc, x, n)), (label, n)


def test_iterate_without_a_reachable_bar_is_the_squaring_route(monkeypatch):
    monkeypatch.setattr(statmodel, "_MIX_BAR", 0.0)
    for label, left, right, powers in ITERATE_PAIRS:
        dc = DeformedChannel(left, right)
        x = _random_matrix(7, left.d)
        for k in powers:
            for n in (2**k - 1, 2**k, 2**k + 1):
                got = dc.iterate(x, n)
                assert np.array_equal(got, oracles.iterate_squared(dc, x, n)), (label, n)


class _CountingMatrix(np.ndarray):
    """A dense matrix that appends to its ``log`` the ndim of each operand
    it multiplies: 1 for a matvec, 2 for a squaring.  Its squares share
    the log."""

    def __matmul__(self, other):
        self.log.append(np.ndim(other))
        out = np.matmul(self.view(np.ndarray), np.asarray(other))
        if out.ndim == 2:
            out = out.view(_CountingMatrix)
            out.log = self.log
        return out


def _counted_iterate(dc, x, n):
    """(matvecs, squarings) of ``dc.iterate(x, n)``."""
    m = dc.superop.m.view(_CountingMatrix)
    m.log = []
    object.__setattr__(dc.superop, "m", m)
    dc.iterate(x, n)
    return m.log.count(1), m.log.count(2)


def test_iterate_cost_guard():
    # a primitive pair, on the operand of qmc converge, mixes well within
    # its squaring route's cost (P = 93: 593 matvecs)
    n = 2**12
    dc = _converge_channel(_random_chain(5151, 16, 2), n)
    matvecs, squarings = _counted_iterate(dc, np.eye(16), n)
    assert squarings == 0 and matvecs <= 128
    # a period-2 pair stalls: it pays two readings of the residual on top
    # of the squaring route, not a second budget
    n = 2**14
    cyclic = Isometry(oracles.cyclic_isometry(np.random.default_rng(44), 4, 2, 2), 4, 2)
    price = min(16, _SQUARING_PRICE)
    cost = min(s * price + (n >> s) + n % (1 << s) for s in range(n.bit_length() + 1))
    matvecs, squarings = _counted_iterate(_converge_channel(cyclic, n), _random_matrix(4, 4), n)
    assert squarings > 0
    assert matvecs + price * squarings <= cost + 64


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


@pytest.mark.parametrize("d", [1, 2, 3, 8, 16, 24])
def test_real_matrix_keeps_every_bit_of_the_complex_formulas(d):
    # the real build must reproduce the complex formulas' arithmetic to the
    # bit, signed zeros included: 1j z has real part 0 Re z - Im z, which is
    # +0 where -Im z is -0.  Block-diagonal and real Kraus stacks make exact
    # zeros in the real and the imaginary parts of the product
    rng = np.random.default_rng(2040 + d)
    kr = rng.standard_normal((3, d, d)) + 1j * rng.standard_normal((3, d, d))
    blocks = kr.copy()
    blocks[:, : d // 2, d // 2 :] = 0.0
    blocks[:, d // 2 :, : d // 2] = 0.0
    for stack in (kr, blocks, kr.real.astype(complex)):
        got, ref = kraus_real_matrix(stack), oracles.kraus_real_matrix_complex(stack)
        assert got.tobytes() == ref.tobytes()


def _larger_transfer_chains():
    for d in (16, 24, 32):
        yield f"random-d{d}", _random_chain(2030 + d, d, 2)
    rng = np.random.default_rng(2054)
    yield "cyclic-d24p3", Isometry(oracles.cyclic_isometry(rng, 24, 2, 3), 24, 2)
    # two chains side by side: R has exact zeros
    yield "block-diag-d16", oracles.block_diag_chain(rng, 16, 2)


LARGER_TRANSFER_CHAINS = list(_larger_transfer_chains())


@pytest.mark.parametrize(
    "label,iso", LARGER_TRANSFER_CHAINS, ids=[c[0] for c in LARGER_TRANSFER_CHAINS]
)
def test_real_transfer_is_the_basis_change_at_larger_d(label, iso):
    # the sizes at which the spectral layer builds R, and a chain whose R
    # has exact zeros
    u = oracles.herm_basis_unitary(iso.d)
    r = real_transfer(iso)
    schr = u.conj().T @ channel(iso, "schrodinger").m @ u
    heis = u.conj().T @ channel(iso, "heisenberg").m @ u
    assert np.max(np.abs(schr - r)) <= 1e-13
    assert np.max(np.abs(heis - r.T)) <= 1e-13
    if label.startswith("block-diag"):
        assert np.sum(r == 0.0) > 0


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


def test_bordered_solve_keeps_a_real_system_real():
    rng = np.random.default_rng(2030)
    m = rng.standard_normal((6, 6))
    col, row = rng.standard_normal((2, 6))
    rhs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    x, s = bordered_solve(m, 1.0, col, row, rhs, 0.5)
    big = np.block([[m - np.eye(6), col[:, None]], [row[None, :], np.zeros((1, 1))]])
    ref = np.linalg.solve(big.astype(complex), np.append(rhs, 0.5))
    assert np.max(np.abs(np.append(x, s) - ref)) <= 1e-12 * np.max(np.abs(ref))


_ADJOINT_SYSTEMS = {
    "real-m-real-shift": (False, 1.0),
    "real-m-cube-root-shift": (False, np.exp(2j * np.pi / 3)),
    "complex-m": (True, 0.3 - 0.2j),
}


@pytest.mark.parametrize("case", list(_ADJOINT_SYSTEMS))
def test_adjoint_bordered_solve_is_the_solve_of_the_assembled_system(case):
    # the adjoint route writes the transpose of its system and hands LAPACK
    # that transpose's F-contiguous view; LAPACK then reads the same matrix
    # as from the assembled [[m* - s, col], [row, 0]], so the bits agree
    is_complex, shift = _ADJOINT_SYSTEMS[case]
    rng = np.random.default_rng(2031)
    m = rng.standard_normal((7, 7)) + (1j * rng.standard_normal((7, 7)) if is_complex else 0.0)
    col, row = rng.standard_normal((2, 7)) + 1j * rng.standard_normal((2, 7))
    rhs, tail = rng.standard_normal((7, 3)), np.array([0.5, 0.0, -1.0])
    x, s = bordered_solve(m, shift, col, row, rhs, tail, adjoint=True)
    a = m.conj().T.astype(complex)
    a[np.arange(7), np.arange(7)] -= shift
    big = np.block([[a, col[:, None]], [row[None, :], np.zeros((1, 1))]])
    ref = np.linalg.solve(big, np.vstack([rhs, tail]))
    assert np.array_equal(np.vstack([x, s]), ref)


def test_adjoint_bordered_solve_hands_lapack_a_column_major_matrix(monkeypatch):
    profile = analyze(_random_chain(2033, 4, 2))
    assert profile.rho_ss is not None  # its solve is not an adjoint one
    seen = []
    solve = np.linalg.solve

    def spy(a, b):
        seen.append(a.flags.f_contiguous)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    rng = np.random.default_rng(2032)
    m = rng.standard_normal((9, 9))
    col, row = rng.standard_normal((2, 9))
    bordered_solve(m, 1.0, col, row, rng.standard_normal((9, 2)), adjoint=True)
    restricted_resolvent_solve(profile, np.diag([1.0, -1.0, 0.5, -0.5]).astype(complex))
    assert seen == [True, True]


# --------------------------------------------------------------------------
# certified route against the dense route


def _analysis(iso, tol):
    try:
        return analyze(iso, tol)
    except QmcError as exc:
        return exc


def _both_routes(iso, tol=None, kraus_min_d=None):
    """(certified-route result, dense-route result, the certified period or 0).

    The size rule is lifted, so the certificate is tried at every d; the
    dense result comes from a certificate patched to decline.  A
    ``kraus_min_d`` replaces the d from which the certificate steps in
    Kraus form.
    """
    answers = []
    certify = ergodic._certify

    def spy(r, chain, tol):
        answers.append(certify(r, chain, tol))
        return answers[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ergodic, "_CERTIFY_MIN_D", 1)
        if kraus_min_d is not None:
            mp.setattr(ergodic, "_KRAUS_MIN_D", kraus_min_d)
        mp.setattr(ergodic, "_certify", spy)
        fast = _analysis(iso, tol)
        mp.setattr(ergodic, "_certify", lambda r, chain, tol: 0)
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


@settings(max_examples=40, deadline=None)
@given(d=DIMS, k=UNITS, seed=SEEDS)
def test_kraus_certified_route_matches_dense_route_on_random_chains(d, k, seed):
    # the certificate steps in Kraus form at every d
    fast, dense, _ = _both_routes(_random_chain(seed, d, k), kraus_min_d=1)
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

    The answer is the certified period, -m for a certified eigenvalue 1 of
    multiplicity m, or 0 when the certificate declines.
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
    yield "reducible-d16", _reducible(2035, 16), None, -2
    # at d = 8 the 64-step budget cannot decay the deflated block
    yield "reducible-d8", _reducible(2036, 8), None, 0
    rng = np.random.default_rng(2049)
    yield "blocks-d12x3", oracles.block_diag_chain(rng, 12, 2, 3), None, -3
    yield "blocks-d18x3", oracles.block_diag_chain(rng, 18, 2, 3), None, -3
    # the six traceless copies of 1 fill the Ritz block, which may hide more
    yield "blocks-d14x7", oracles.block_diag_chain(rng, 14, 2, 7), None, 0
    # eigenvalue 1 stays simple at every leak; at eps = 0 and 1e-5 rho_ss
    # is not faithful, which the solve after the certificate finds
    for d, a in ((12, 5), (16, 8)):
        for eps in (0.0, 1e-5, 1e-4, 1e-3, 1e-2):
            iso = oracles.block_upper_chain(np.random.default_rng(d + a), d, a, eps)
            yield f"block-upper-d{d}a{a}-{eps:.0e}", iso, None, 1
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
    # a defect on one block moves one copy of 1 by 3.2e-9 and leaves the
    # other: the dense route says multiplicity 2 at a gap of 1e-8 and finds
    # rho_ss not faithful at 3e-9.  A defect of 2.25e-9 against a bar of
    # 5e-10 keeps the certificate from counting copies of 1
    one_block = _with_defect(_reducible(2035, 16), np.diag(np.repeat([1.0, 0.0], 8)))
    for gap in (1e-8, 3e-9):
        yield f"defect-reducible-gap-{gap:.0e}", one_block, ErgodicTol(simplicity_gap=gap), 0
    for band in (0.9, 1e-300):
        yield f"random-d16-band-{band:.0e}", d16, ErgodicTol(peripheral_band=band), 0


ROUTE_CASES = list(_route_cases())


@pytest.mark.parametrize(
    "label,iso,tol,certified", ROUTE_CASES, ids=[c[0] for c in ROUTE_CASES]
)
def test_certified_route_matches_dense_route(label, iso, tol, certified):
    _check_route_case(label, iso, tol, certified, None)


@pytest.mark.parametrize(
    "label,iso,tol,certified", ROUTE_CASES, ids=[c[0] for c in ROUTE_CASES]
)
def test_kraus_certified_route_matches_dense_route(label, iso, tol, certified):
    # the same cases with the certificate stepping in Kraus form at every d
    _check_route_case(label, iso, tol, certified, 1)


def _check_route_case(label, iso, tol, certified, kraus_min_d):
    fast, dense, answer = _both_routes(iso, tol, kraus_min_d)
    if certified is not None:
        assert answer == certified
    _assert_same_analysis(fast, dense)
    if answer < 0:
        # a count of copies of 1 stands only with no eigenvalue between half
        # a gap and a few gaps from 1, where the dense count is a near call
        gap = (tol or ErgodicTol()).simplicity_gap
        dist = np.abs(dense.eigenvalues - 1.0)
        assert not np.any((dist > 0.5 * gap) & (dist < 10.0 * gap))
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
            mp.setattr(ergodic, "_certify", lambda r, chain, tol: 0)
            dense = analyze(iso)
        assert json.dumps(profile.diagnostics) == json.dumps(dense.diagnostics)
        assert np.array_equal(profile.eigenvalues, dense.eigenvalues)

    # a certified reducible chain, at d = 24 through the Kraus-form step:
    # the verdict and its reason come without the spectrum or a bordered
    # solve, every entry point that needs an irreducible chain raises with
    # that reason, and the first read of the spectrum takes one eigvals
    calls = []

    def counted(m):
        calls.append(m.shape)
        return eigvals(m)

    def no_solve(*args):
        raise RuntimeError("bordered solve called")

    for iso in (_reducible(2041, 16), _reducible(2042, 24)):
        a = rng.standard_normal(iso.v.shape) + 1j * rng.standard_normal(iso.v.shape)
        entries = [
            lambda p: split(p, a),
            lambda p: asymptotic_variance(p, np.diag([1.0, -1.0])),
            stationary_eigenbasis,
            lambda p: equivalence_witness(p.iso, p.iso),
        ]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigvals", refuse)
            mp.setattr(np.linalg, "solve", no_solve)
            profile = analyze(iso)
            assert not profile.is_irreducible
            reason = profile._diagnostics["reason"]
            for entry in entries:
                with pytest.raises(NotIrreducible) as caught:
                    entry(profile)
                assert caught.value.detail == reason
        monkeypatch.setattr(np.linalg, "eigvals", counted)
        for read in (lambda p: p.eigenvalues, io.profile_report):
            calls.clear()
            profile = analyze(iso)
            read(profile)
            read(profile)
            assert calls == [(iso.d**2, iso.d**2)]
        monkeypatch.setattr(np.linalg, "eigvals", eigvals)
        # the dense route's count of eigenvalues within simplicity_gap of 1
        near = int(np.sum(np.abs(profile.eigenvalues - 1.0) <= profile.tol.simplicity_gap))
        assert near == 2
        assert reason == f"eigenvalue 1 has multiplicity {near} within simplicity_gap"
        assert profile.diagnostics["reason"] == reason


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
    assert ergodic._certify(r, iso, ErgodicTol()) == 1
    assert ergodic._certify(leaky, iso, ErgodicTol()) == 1


def test_kraus_certificate_projects_the_trace_out(monkeypatch):
    # the same leak in Kraus form: with K_u (1 + eta h), h = |0><0|, sum K* K
    # is 1e-6 from 1, too far for an Isometry, so the certificate reads the
    # family bare; it steps in Kraus form and never reads R.  Unprojected,
    # the block would stall at 2.4e-8 of its start, above the 1e-8 target
    monkeypatch.setattr(ergodic, "_KRAUS_MIN_D", 1)
    iso = _random_chain(2042, 16, 2)
    eta = np.sqrt(1.0 + 1e-6) - 1.0
    kraus = [k @ np.diag(np.append(1.0 + eta, np.ones(15))) for k in iso.kraus]
    defect = np.linalg.norm(sum(k.conj().T @ k for k in kraus) - np.eye(16))
    assert abs(defect - 1e-6) <= 1e-12
    leaky = SimpleNamespace(d=16, k=2, kraus=kraus)
    blind = np.full((256, 256), np.nan)
    assert ergodic._certify(blind, iso, ErgodicTol()) == 1
    assert ergodic._certify(blind, leaky, ErgodicTol()) == 1


def test_kraus_certificate_reads_no_transfer_matrix(monkeypatch):
    # from _KRAUS_MIN_D on no certificate stage multiplies by R: handed a
    # NaN-filled R, which the dense step would turn into a decline, the
    # certificate still finds every period, the deflated stage included
    certify, answers = ergodic._certify, []

    def blind(r, chain, tol):
        answers.append(certify(np.full_like(r, np.nan), chain, tol))
        return answers[-1]

    monkeypatch.setattr(ergodic, "_certify", blind)
    rng = np.random.default_rng(2046)
    d = ergodic._KRAUS_MIN_D
    chains = [
        (_random_chain(2047, d, 2), 1),
        (_random_chain(2048, 32, 2), 1),
        (Isometry(oracles.cyclic_isometry(rng, 24, 2, 3), 24, 2), 3),
        (Isometry(oracles.cyclic_isometry(rng, 24, 2, 2), 24, 2), 2),
    ]
    for iso, period in chains:
        profile = analyze(iso)
        assert answers[-1] == period
        assert profile.is_irreducible and profile.period == period


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
    rng = np.random.default_rng(8)

    def fresh(columns):
        return ergodic._traceless_block(rng, d, columns)

    assert ergodic._certify_periodic(lambda b: a @ b, tol, d * d, fresh, block) == period


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


def _witness(iso1, iso2):
    try:
        return equivalence_witness(iso1, iso2)
    except QmcError as exc:
        return exc


def _kraus_verdict(found, tol):
    if found is None:
        return "undecided"
    return "inequivalent" if abs(found[0]) < 1.0 - tol else "equivalent"


def _both_witness_routes(iso1, iso2, tol):
    """(Kraus-route witness, dense-route witness, the Kraus stage's verdict).

    The size rule is lifted, so the Kraus stage runs at every d, and the
    witness tolerance ``gauge._WITNESS_TOL`` is set to ``tol``; the dense
    witness comes from a Kraus stage patched to be undecided.
    """
    answers = []
    kraus = gauge._kraus_peripheral

    def spy(*args):
        answers.append(kraus(*args))
        return answers[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ergodic, "_CERTIFY_MIN_D", 1)
        mp.setattr(gauge, "_WITNESS_TOL", tol)
        mp.setattr(gauge, "_kraus_peripheral", spy)
        fast = _witness(iso1, iso2)
        mp.setattr(gauge, "_kraus_peripheral", lambda *args: None)
        dense = _witness(iso1, iso2)
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
    monkeypatch.setattr(gauge, "kraus_step", refuse)
    assert equivalence_witness(*_gauge_pair(_random_chain(2056, 8, 2), 2057)) is not None
    with pytest.raises(RuntimeError, match="refused"):
        equivalence_witness(*pairs[0])


def _poisoned_sandwich(monkeypatch, poison):
    """Patch the Kraus step to return NaN on the calls ``poison`` accepts;
    returns the list of call numbers seen, from 1."""
    build = gauge.kraus_step
    calls = []

    def patched(a, b):
        apply = build(a, b)

        def step(x):
            calls.append(len(calls) + 1)
            y = apply(x)
            return np.full_like(y, np.nan) if poison(calls[-1]) else y

        return step

    monkeypatch.setattr(gauge, "kraus_step", patched)
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
    # the rest, so the Rayleigh value sits at 0.995 from the first step, while
    # the radius is 1.  Over the 256-step budget the rim entry outgrows the
    # rest only by 3.6, so the stage must stay undecided
    d = 16
    start = np.random.default_rng(gauge._WITNESS_SEED)
    x0 = start.standard_normal((d, d)) + 1j * start.standard_normal((d, d))
    weights = np.full((d, d), 0.995, dtype=complex)
    weights.flat[np.argmin(np.abs(x0))] = 1.0
    monkeypatch.setattr(gauge, "kraus_step", lambda a, b: lambda x: weights * x)
    iso = _random_chain(2110, d, 2)
    assert gauge._kraus_peripheral(iso, iso, 1, 1e-8) is None
