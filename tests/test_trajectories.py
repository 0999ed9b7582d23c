import tracemalloc

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
    ProfileMismatch,
)
from qmc import trajectories
from qmc.ergodic import analyze
from qmc.qubit_example import fixture_s, isometry, measurement
from qmc.trajectories import (
    BlockMeasurement,
    _run_batch,
    _step_operator,
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


def test_fluctuation_stats_block_two_predicts_from_the_power_chain():
    iso = isometry("m3", 0.3)
    meas, q = measurement("m3", block=2)
    st = fluctuation_stats(iso, analyze(iso), q, n=2000, trials=400, seed=3, meas=meas)
    assert st.block == 2 and st.n_blocks == 1000
    assert abs(st.empirical_var - st.predicted_var) <= 4 * st.var_stderr


def test_fluctuation_stats_rejects_another_chains_profile():
    # it used to sample m1 at 0.3 from the rho_ss of m1 at 0.45 and report the
    # predicted variance of that other chain (0.1577 against its own 0.1561)
    q = np.diag([1.0, 0.0])
    with pytest.raises(ProfileMismatch):
        fluctuation_stats(isometry("m1", 0.3), analyze(isometry("m1", 0.45)), q, 400, 200, 1)


def test_fluctuation_stats_rejects_non_diagonal_observable():
    iso = isometry("m1", 0.3)
    profile = analyze(iso)
    q = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ObservableNotDiagonal):
        fluctuation_stats(iso, profile, q, n=10, trials=2, seed=0)


@pytest.mark.parametrize(
    "q,meas",
    [(np.ones((2, 3)), None), (np.diag([1.0, 0.0, 0.0, 0.0]), standard_measurement(2, 1))],
    ids=["2x3", "4x4-on-one-unit"],
)
def test_fluctuation_stats_reads_its_observable_first(q, meas):
    # both used to escape as numpy's ValueError from the change of basis
    iso = isometry("m1", 0.3)
    with pytest.raises(DimensionMismatch):
        fluctuation_stats(iso, analyze(iso), q, n=10, trials=2, seed=0, meas=meas)


def test_sampler_takes_every_chain_that_isometry_takes():
    # a defect of 6.9e-9 passes Isometry's 1e-8 check; block_kraus used to
    # check the sum of K* K again, at 1e-10, and raise IncompleteMeasurement
    v = oracles.random_isometry(np.random.default_rng(12), 3, 2) * (1.0 + 2e-9)
    defect = np.linalg.norm(v.conj().T @ v - np.eye(3))
    assert 6e-9 < defect < 8e-9
    iso = Isometry(v, 3, 2)
    outcomes, states = sample_batch(iso, np.eye(3) / 3, 50, standard_measurement(2), 1, 3)
    assert outcomes.shape == (3, 50) and np.isfinite(states).all()


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
    op = _step_operator(block_kraus(isometry("m1", 0.3), standard_measurement(2, 1)))
    with pytest.raises(DegenerateState):
        _run_batch(op, np.full((2, 2), np.nan, dtype=complex), 3, 0, [0, 1])


def test_chunked_draws_repeat_one_draw(monkeypatch):
    # each trial's Philox stream continues across chunks, so neither chunk
    # length changes an outcome or a final state
    iso, meas = isometry("m3", 0.3), measurement("m3", block=2)[0]
    rho = analyze(iso).rho_ss
    monkeypatch.setattr(trajectories, "_DRAW_BLOCKS", 10**6)
    monkeypatch.setattr(trajectories, "_COPY_BLOCKS", 10**6)
    ref_out, ref_states = sample_batch(iso, rho, 2500, meas, 4, 7)
    for draw, copy in ((1, 1), (999, 7), (3, 1000), (2500, 64)):
        monkeypatch.setattr(trajectories, "_DRAW_BLOCKS", draw)
        monkeypatch.setattr(trajectories, "_COPY_BLOCKS", copy)
        out, states = sample_batch(iso, rho, 2500, meas, 4, 7)
        assert np.array_equal(out, ref_out), (draw, copy)
        assert np.array_equal(states, ref_states), (draw, copy)


def test_sampler_memory_stays_near_the_output():
    iso, meas = isometry("m1", 0.35), measurement("m1")[0]
    rho = analyze(iso).rho_ss
    tracemalloc.start()
    try:
        outcomes, _ = sample_batch(iso, rho, 20000, meas, 3, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcomes.shape == (100, 20000)
    assert peak <= 1.25 * outcomes.nbytes, f"peak {peak / 2**20:.1f} MB"


def test_counts_are_validated():
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


def test_block_measurement_rejects_non_finite_vectors():
    for vecs in (np.full((2, 2), np.nan), np.array([[1.0, 0.0], [0.0, np.inf]])):
        with pytest.raises(IncompleteMeasurement):
            BlockMeasurement(vecs, 2)
    # a non-finite observable stops at its reader, LocalObservable
    iso = isometry("m1", 0.3)
    with pytest.raises(NotHermitian):
        fluctuation_stats(iso, analyze(iso), np.full((2, 2), np.nan), n=10, trials=2, seed=0)


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


BAD_STATS_COUNTS = [
    ("stats-float-n", "stats", dict(n=1.7), InvalidCount),
    ("stats-string-n", "stats", dict(n="x"), InvalidCount),
    ("stats-string-trials", "stats", dict(trials="x"), InvalidCount),
    ("stats-n-below-block", "stats", dict(n=1, block=2), DimensionMismatch),
    ("estimator-float-n", "estimator", dict(n=1.7), InvalidCount),
    ("estimator-string-n", "estimator", dict(n="x"), InvalidCount),
    ("estimator-string-trials", "estimator", dict(trials="x"), InvalidCount),
]


@pytest.mark.parametrize(
    "label,path,bad,error", BAD_STATS_COUNTS, ids=[c[0] for c in BAD_STATS_COUNTS]
)
def test_sampled_statistics_read_counts_as_integers(label, path, bad, error):
    args = dict(n=10, trials=4, block=1)
    args.update(bad)
    n, trials, b = args["n"], args["trials"], args["block"]
    iso = isometry("m3", 0.3)
    q = np.kron(np.eye(2 ** (b - 1)), np.diag([1.0, 0.0]))
    with pytest.raises(error):
        if path == "estimator":
            run_estimator("m3", 0.3, n=n, trials=trials, seed=1, block=b)
        else:
            fluctuation_stats(iso, analyze(iso), q, n=n, trials=trials, seed=1)


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
