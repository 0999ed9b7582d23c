"""Fast routes against the earlier implementations they replaced.

``analyze`` takes the stationary state and the peripheral eigen-operator
from bordered solves, and ``restricted_resolvent_solve`` solves a bordered
system instead of compressing onto a null-space basis.  ``qfi_curve`` runs
one forward recurrence instead of summing antidiagonals of an O(n^2)
Gram, and the variances read every non-overlapping covariance off one
reduced operator sigma_Q instead of one dilation per lag.  The replaced
routes live in ``oracles``; on fixtures with and without periodicity both
must agree to 1e-10 relative.

The trajectory sampler steps a batch of vectorised states through one
stacked superoperator instead of three einsums; its outcomes must equal
the einsum oracle's exactly, and its final states to 1e-12.
"""

import tracemalloc

import numpy as np
import pytest

from qmc.channels import Isometry, dilation
from qmc.ergodic import analyze
from qmc.errors import ResolventIllConditioned
from qmc.gauge import restricted_resolvent_solve, split
from qmc.qubit_example import fixture_s, golden_tangent, isometry, measurement
from qmc.statmodel import asymptotic_variance, finite_window_variance, qfi_curve
from qmc.trajectories import block_kraus, sample, sample_batch, standard_measurement

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
    f = qfi_curve(iso, a, phi, range(1, nmax + 1))
    assert _rel(f, oracles.qfi_gram(iso, a, phi, nmax)) <= TOL


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
