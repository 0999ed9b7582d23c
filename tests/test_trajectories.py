import os

import numpy as np
import pytest

from qmc.channels import Isometry
from qmc.errors import (
    DegenerateState,
    DimensionMismatch,
    IncompleteMeasurement,
    InvalidCount,
    NotHermitian,
    NotPSD,
    ObservableNotDiagonal,
)
from qmc.ergodic import analyze
from qmc.qubit_example import fixture_s, isometry, measurement
from qmc.trajectories import (
    BlockMeasurement,
    _diagonal_in_basis,
    _run_batch,
    _stacked_superop,
    block_kraus,
    fluctuation_stats,
    run_estimator,
    sample,
    sample_batch,
    standard_measurement,
)

import oracles


def test_standard_measurement_basis():
    meas = standard_measurement(2, 2)
    assert meas.block == 2
    vecs = np.asarray(meas.vectors)
    assert vecs.shape == (4, 4)
    assert np.linalg.norm(vecs @ vecs.conj().T - np.eye(4)) < 1e-12


def test_block_kraus_are_two_step_products():
    iso = isometry("m2", 0.2)
    meas = standard_measurement(2, 2)
    ops = block_kraus(iso, meas)
    kr = iso.kraus
    # outcome (u1, u2) in chronological order: later unit acts second
    for u1 in range(2):
        for u2 in range(2):
            assert np.linalg.norm(ops[2 * u1 + u2] - kr[u2] @ kr[u1]) < 1e-12


def test_sampled_frequencies_match_born_rule():
    iso = isometry("m2", 0.25)
    profile = analyze(iso)
    n = 3
    trials = 40000
    meas = standard_measurement(2, 1)
    outcomes, _ = sample_batch(iso, profile.rho_ss, n, meas, seed=17, trials=trials)
    words = outcomes[:, 0] * 4 + outcomes[:, 1] * 2 + outcomes[:, 2]
    counts = np.bincount(words, minlength=8)
    probs = oracles.string_probs(iso, profile.rho_ss, n)
    for w in range(8):
        sd = np.sqrt(trials * probs[w] * (1 - probs[w]))
        assert abs(counts[w] - trials * probs[w]) < 4.5 * sd, w


def test_sampling_is_deterministic_and_batch_invariant():
    iso = isometry("m1", 0.3)
    profile = analyze(iso)
    meas = standard_measurement(2, 1)
    a, _ = sample_batch(iso, profile.rho_ss, 40, meas, seed=5, trials=6)
    b, _ = sample_batch(iso, profile.rho_ss, 40, meas, seed=5, trials=6)
    assert np.array_equal(a, b)
    # each trial draws from its own stream, so batching cannot matter
    for t in range(6):
        rec = sample(iso, profile.rho_ss, 40, meas, seed=5, trial=t)
        assert np.array_equal(rec.outcomes, a[t])


def test_thread_count_does_not_change_outcomes():
    iso = isometry("m2", 0.3)
    profile = analyze(iso)
    meas = standard_measurement(2, 1)
    old = os.environ.get("QMC_THREADS")
    try:
        os.environ["QMC_THREADS"] = "1"
        a, _ = sample_batch(iso, profile.rho_ss, 30, meas, seed=8, trials=8)
        os.environ["QMC_THREADS"] = "4"
        b, _ = sample_batch(iso, profile.rho_ss, 30, meas, seed=8, trials=8)
    finally:
        if old is None:
            os.environ.pop("QMC_THREADS", None)
        else:
            os.environ["QMC_THREADS"] = old
    assert np.array_equal(a, b)


def test_swap_chain_alternates_deterministically():
    iso = fixture_s()
    profile = analyze(iso)
    meas = standard_measurement(2, 1)
    outcomes, _ = sample_batch(iso, profile.rho_ss, 50, meas, seed=3, trials=20)
    diffs = np.abs(np.diff(outcomes, axis=1))
    assert np.all(diffs == 1)
    # even-length averages hit 1/2 exactly
    assert np.all(outcomes[:, :50].mean(axis=1) == 0.5)


def test_fluctuation_stats_model1():
    iso = isometry("m1", 0.35)
    profile = analyze(iso)
    q = np.diag([1.0, 0.0])
    st = fluctuation_stats(iso, profile, q, n=400, trials=400, seed=6)
    assert st.n_blocks == 400
    assert abs(st.empirical_var - st.predicted_var) < 4 * st.var_stderr
    assert abs(st.f.mean()) < 5 * np.sqrt(st.predicted_var / 400)


def test_fluctuation_stats_rejects_non_diagonal_observable():
    iso = isometry("m1", 0.3)
    profile = analyze(iso)
    q = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ObservableNotDiagonal):
        fluctuation_stats(iso, profile, q, n=10, trials=2, seed=0)


def test_unit_dimension_one_has_block_one():
    assert BlockMeasurement(np.eye(1), 1).block == 1
    with pytest.raises(DimensionMismatch):
        BlockMeasurement(np.eye(2), 1)
    # a one-dimensional unitary chain emits nothing: zero fluctuations
    iso = Isometry(np.array([[1j]]), 1, 1)
    st = fluctuation_stats(iso, analyze(iso), np.array([[2.0]]), n=10, trials=5, seed=3)
    assert st.block == 1 and st.n_blocks == 10
    assert np.array_equal(st.f, np.zeros(5)) and st.predicted_var == 0.0


def test_run_estimator_concentrates():
    r = run_estimator("m2", 0.25, n=1000, trials=200, seed=4)
    assert r["n"] == 1000
    assert abs(float(np.mean(r["estimates"])) - 0.25) < 0.01
    assert r["outside_fraction"] <= 0.05
    for key in ("snr", "snr_rate", "snr_iid", "snr_iid_rate", "var_xbar", "var_outcome"):
        assert key in r and np.isfinite(r[key])


def test_run_estimator_block_two():
    r = run_estimator("m3", 0.2, n=600, trials=100, seed=7, block=2)
    assert r["block"] == 2
    assert r["n"] == 600
    assert abs(float(np.mean(r["estimates"])) - 0.2) < 0.05


def test_input_state_is_validated():
    iso = isometry("m1", 0.3)
    meas = standard_measurement(2, 1)
    cases = [
        (np.full((2, 2), np.nan), NotHermitian),
        (np.diag([np.inf, 0.0]), NotHermitian),
        (np.array([[0.5, 0.5], [0.0, 0.5]]), NotHermitian),
        (np.diag([2.0, -1.0]), NotPSD),
        (np.zeros((2, 2)), NotPSD),
        (np.eye(3) / 3, DimensionMismatch),
    ]
    for rho, err in cases:
        with pytest.raises(err):
            sample_batch(iso, rho, 5, meas, seed=1, trials=3)
        with pytest.raises(err):
            sample(iso, rho, 5, meas, seed=1)


def test_step_guard_catches_nan_weights():
    # a NaN state must not pass the guard: `psum < 1e-14` is False for NaN
    op = _stacked_superop(block_kraus(isometry("m1", 0.3), standard_measurement(2, 1)))
    with pytest.raises(DegenerateState):
        _run_batch(op, np.full((2, 2), np.nan, dtype=complex), 3, 0, [0, 1])


def test_counts_are_validated(monkeypatch):
    iso = isometry("m1", 0.3)
    profile = analyze(iso)
    meas = standard_measurement(2, 1)
    with pytest.raises(InvalidCount):
        sample_batch(iso, profile.rho_ss, 5, meas, seed=1, trials=0)
    with pytest.raises(DimensionMismatch):
        sample_batch(iso, profile.rho_ss, -1, meas, seed=1, trials=2)
    with pytest.raises(DimensionMismatch):
        sample(iso, profile.rho_ss, -1, meas, seed=1)
    outcomes, states = sample_batch(iso, profile.rho_ss, 0, meas, seed=1, trials=2)
    assert outcomes.shape == (2, 0) and np.array_equal(states[1], profile.rho_ss)
    with pytest.raises(DimensionMismatch):
        run_estimator("m3", 0.3, n=1, trials=5, seed=1, block=2)
    with pytest.raises(InvalidCount):
        run_estimator("m1", 0.3, n=10, trials=1, seed=1)
    with pytest.raises(InvalidCount):
        fluctuation_stats(iso, profile, np.diag([1.0, 0.0]), n=10, trials=1, seed=1)
    monkeypatch.setenv("QMC_THREADS", "two")
    with pytest.raises(InvalidCount, match="QMC_THREADS"):
        sample_batch(iso, profile.rho_ss, 5, meas, seed=1, trials=4)


def test_block_measurement_rejects_non_finite_vectors():
    for vecs in (np.full((2, 2), np.nan), np.array([[1.0, 0.0], [0.0, np.inf]])):
        with pytest.raises(IncompleteMeasurement):
            BlockMeasurement(vecs, 2)
    with pytest.raises(NotHermitian):
        _diagonal_in_basis(np.full((2, 2), np.nan), standard_measurement(2, 1))


BAD_SAMPLER_ARGS = [
    ("negative-seed", dict(seed=-1)),
    ("float-seed", dict(seed=1.5)),
    ("numpy-float-seed", dict(seed=np.float64(2.0))),
    ("float-n-blocks", dict(n_blocks=5.0)),
    ("negative-trial", dict(trial=-1)),
    ("float-trial", dict(trial=0.5)),
]


@pytest.mark.parametrize("label,bad", BAD_SAMPLER_ARGS, ids=[c[0] for c in BAD_SAMPLER_ARGS])
def test_sampler_seeds_and_counts_must_be_non_negative_integers(label, bad):
    iso = isometry("m1", 0.3)
    rho = analyze(iso).rho_ss
    args = dict(n_blocks=5, seed=1, trial=0)
    args.update(bad)
    meas = standard_measurement(2, 1)
    if "trial" not in bad:
        with pytest.raises(InvalidCount):
            sample_batch(iso, rho, args["n_blocks"], meas, args["seed"], 3)
    with pytest.raises(InvalidCount):
        sample(iso, rho, args["n_blocks"], meas, args["seed"], trial=args["trial"])


def test_sampler_accepts_numpy_integers():
    iso = isometry("m1", 0.3)
    rho = analyze(iso).rho_ss
    meas = standard_measurement(2, 1)
    with pytest.raises(InvalidCount):
        sample_batch(iso, rho, 5, meas, 1, 3.0)
    outcomes, _ = sample_batch(iso, rho, 40, meas, 7, 3)
    np_out, _ = sample_batch(iso, rho, np.int64(40), meas, np.uint32(7), np.int16(3))
    assert np.array_equal(np_out, outcomes)
    rec = sample(iso, rho, np.int32(40), meas, np.int64(7), trial=np.uint8(2))
    assert rec.seed == 7 and rec.trial == 2 and type(rec.trial) is int
    assert np.array_equal(rec.outcomes, outcomes[2])
