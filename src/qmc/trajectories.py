"""Monte-Carlo sampling of output measurement records and CLT checks.

Outcomes are sampled block by block: a block measurement on b consecutive
units has effective Kraus operators K_j = <omega_j| V(b) ... V(1), so a
trajectory only ever tracks the d-dimensional conditional system state.

Determinism contract: trial t of a run with master seed s draws all its
uniforms from Philox seeded with SeedSequence((s, t)).  Results are
therefore identical however trials are batched or distributed over
threads (QMC_THREADS).
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .channels import DEFAULT_TENSOR_CAP, Isometry, block_length, dilation
from .errors import (
    DegenerateState,
    DimensionMismatch,
    IncompleteMeasurement,
    InvalidCount,
    NotHermitian,
    NotPSD,
    ObservableNotDiagonal,
    as_integer,
)
from .ergodic import analyze
from .linalg import dag
from .statmodel import asymptotic_variance, stationary_mean

__all__ = [
    "BlockMeasurement",
    "TrajectoryRecord",
    "FluctuationStats",
    "standard_measurement",
    "block_kraus",
    "sample",
    "sample_batch",
    "fluctuation_stats",
    "run_estimator",
]


@dataclass(frozen=True)
class BlockMeasurement:
    """Projective measurement given by an orthonormal basis of k^b vectors."""

    vectors: np.ndarray
    k: int
    block: int = field(init=False)

    def __post_init__(self):
        vecs = np.asarray(self.vectors, dtype=complex)
        if vecs.ndim != 2:
            raise DimensionMismatch("vectors must be a (n_outcomes, k^b) array")
        dim = vecs.shape[1]
        b = block_length(dim, self.k)
        if not np.isfinite(vecs).all():
            raise IncompleteMeasurement("measurement vectors have non-finite entries")
        gram = vecs.conj() @ vecs.T
        res = np.linalg.norm(gram - np.eye(vecs.shape[0]))
        comp = np.linalg.norm(dag(vecs) @ vecs - np.eye(dim))
        if not (res <= 1e-10 and comp <= 1e-10):
            raise IncompleteMeasurement(
                f"basis orthonormality defect {res:.3e}, completeness defect {comp:.3e}"
            )
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "block", b)


def standard_measurement(k, b=1):
    """Computational-basis measurement on a block of b units."""
    return BlockMeasurement(np.eye(k**b, dtype=complex), k)


@dataclass(frozen=True)
class TrajectoryRecord:
    seed: int
    trial: int
    outcomes: np.ndarray
    block: int
    final_state: np.ndarray


@dataclass(frozen=True)
class FluctuationStats:
    """Per-trial time averages and fluctuation values of a block observable."""

    n: int
    block: int
    n_blocks: int
    q_bar: np.ndarray
    f: np.ndarray
    mean_target: float
    predicted_var: float
    empirical_var: float
    var_stderr: float


def block_kraus(iso, meas):
    """Effective Kraus operators of a block measurement, one per outcome."""
    if meas.k != iso.k:
        raise DimensionMismatch(f"measurement unit dimension {meas.k} != chain's {iso.k}")
    b = meas.block
    w3 = dilation(iso, b, cap=max(DEFAULT_TENSOR_CAP, iso.k**b)).reshape(
        iso.d, iso.k**b, iso.d
    )
    km = np.einsum("jw,swh->jsh", meas.vectors.conj(), w3)
    comp = sum(dag(k) @ k for k in km)
    if not (np.linalg.norm(comp - np.eye(iso.d)) <= 1e-10):
        raise IncompleteMeasurement("block Kraus operators do not sum to the identity")
    return km


def _trial_uniforms(seed, trial, count):
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, trial))))
    return gen.random(count)


def _stacked_superop(km):
    """[S_0^T | ... | S_{k-1}^T] with S_j = K_j (x) conj(K_j) on row-major vec(rho).

    A batch of row vectors vec(rho_t) times this d^2 x k d^2 matrix gives
    every outcome's unnormalised conditional state K_j rho_t K_j* at once.
    """
    k, d, _ = km.shape
    # s[j, (a, e), (b, c)] = K_j[a, b] conj(K_j[e, c])
    s = np.einsum("jab,jec->jaebc", km, km.conj()).reshape(k, d * d, d * d)
    return np.ascontiguousarray(s.transpose(2, 0, 1).reshape(d * d, k * d * d))


def _run_batch(op, rho_in, n_blocks, seed, trial_indices):
    """Sample n_blocks outcomes per trial with one GEMM per step.

    Row t of ``vecs`` is the row-major vec of trial t's conditional state;
    ``vecs @ op`` holds all k candidate next states, whose traces (read on
    the diagonal positions 0, d+1, 2(d+1), ...) are the outcome weights.
    """
    t = len(trial_indices)
    d = rho_in.shape[0]
    k = op.shape[1] // (d * d)
    rows = np.arange(t)
    diag = np.arange(d) * (d + 1)
    vecs = np.broadcast_to(rho_in.reshape(d * d), (t, d * d)).copy()
    outcomes = np.empty((t, n_blocks), dtype=np.int64)
    uniforms = np.stack([_trial_uniforms(seed, tr, n_blocks) for tr in trial_indices])
    for step in range(n_blocks):
        cand = (vecs @ op).reshape(t, k, d * d)
        traces = cand[:, :, diag].real.sum(axis=2)
        probs = np.clip(traces, 0.0, None)
        psum = probs.sum(axis=1)
        if not np.all(psum >= 1e-14):
            raise DegenerateState("all outcome probabilities vanished along a trajectory")
        cdf = np.cumsum(probs, axis=1) / psum[:, None]
        idx = np.minimum((uniforms[:, step, None] > cdf).sum(axis=1), k - 1)
        vecs = cand[rows, idx] / traces[rows, idx][:, None]
        outcomes[:, step] = idx
    return outcomes, vecs.reshape(t, d, d)


def _thread_count():
    """Worker threads for ``sample_batch`` from QMC_THREADS (unset or empty: 1)."""
    raw = os.environ.get("QMC_THREADS") or "1"
    try:
        return int(raw)
    except ValueError:
        raise InvalidCount(f"QMC_THREADS must be an integer, got {raw!r}") from None


def _prepare(iso, rho_in, n_blocks, meas, seed):
    """(stacked superoperator, rho_in, n_blocks, seed) of a sampling call, validated."""
    seed = as_integer("seed", seed, 0)
    n_blocks = as_integer("n_blocks", n_blocks)
    if n_blocks < 0:
        raise DimensionMismatch(f"n_blocks = {n_blocks}, expected >= 0")
    rho = np.asarray(rho_in, dtype=complex)
    if rho.shape != (iso.d, iso.d):
        raise DimensionMismatch(f"input state shape {rho.shape}, expected ({iso.d}, {iso.d})")
    if not np.isfinite(rho).all():
        raise NotHermitian("input state has non-finite entries")
    scale = max(1.0, np.linalg.norm(rho))
    skew = np.linalg.norm(rho - dag(rho))
    if not (skew <= 1e-10 * scale):
        raise NotHermitian(f"input state is not Hermitian (defect {skew:.3e})")
    low = np.linalg.eigvalsh(rho)[0]
    if not (low >= -1e-10 * scale):
        raise NotPSD(f"input state has eigenvalue {low:.3e} < 0")
    tr = np.trace(rho).real
    if not (tr >= 1e-14):
        raise NotPSD(f"input state has trace {tr:.3e}, expected a positive trace")
    return _stacked_superop(block_kraus(iso, meas)), rho, n_blocks, seed


def sample_batch(iso, rho_in, n_blocks, meas, seed, trials):
    """Outcome records for trials 0..trials-1; deterministic per (seed, trial).

    Set QMC_THREADS to spread trials over a thread pool; the per-trial
    streams make the result independent of the partitioning.
    """
    op, rho_in, n_blocks, seed = _prepare(iso, rho_in, n_blocks, meas, seed)
    trials = as_integer("trials", trials, 1)
    threads = _thread_count()
    trial_indices = list(range(trials))
    if threads <= 1 or trials < 2 * threads:
        return _run_batch(op, rho_in, n_blocks, seed, trial_indices)
    chunks = np.array_split(trial_indices, threads)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(
            pool.map(lambda ch: _run_batch(op, rho_in, n_blocks, seed, list(ch)), chunks)
        )
    outcomes = np.concatenate([p[0] for p in parts], axis=0)
    states = np.concatenate([p[1] for p in parts], axis=0)
    return outcomes, states


def sample(iso, rho_in, n_blocks, meas, seed, trial=0):
    """Single trajectory record; equals row ``trial`` of any batch run."""
    op, rho_in, n_blocks, seed = _prepare(iso, rho_in, n_blocks, meas, seed)
    trial = as_integer("trial", trial, 0)
    outcomes, states = _run_batch(op, rho_in, n_blocks, seed, [trial])
    return TrajectoryRecord(
        seed=seed,
        trial=trial,
        outcomes=outcomes[0],
        block=meas.block,
        final_state=states[0],
    )


def _diagonal_in_basis(q, meas, tol=1e-10):
    """Outcome values of q when q is diagonal in the measured basis."""
    q = np.asarray(q, dtype=complex)
    if not (np.linalg.norm(q - dag(q)) <= 1e-10 * max(1.0, np.linalg.norm(q))):
        raise NotHermitian("observable must be Hermitian")
    qb = meas.vectors.conj() @ q @ meas.vectors.T
    off = qb - np.diag(np.diag(qb))
    if not (np.linalg.norm(off) <= tol * max(1.0, np.linalg.norm(qb))):
        raise ObservableNotDiagonal(
            "observable is not diagonal in the measurement basis; "
            "time averages of its outcomes would not estimate its mean"
        )
    return np.diag(qb).real


def _require_variance_trials(trials):
    if int(trials) < 2:
        raise InvalidCount(f"trials = {trials}; a sample variance needs at least 2")


def fluctuation_stats(iso, profile, q, n, trials, seed, meas=None, rho_in=None):
    """Sampled fluctuation statistics F = sqrt(n_blocks) (Q_bar - m).

    Blocks are measured disjointly.  For block length b >= 2 the predicted
    variance is the CLT variance of the b-step power chain (which must be
    irreducible: at a periodic point with p dividing b it is not, and the
    analysis will say so).
    """
    _require_variance_trials(trials)
    q = np.asarray(q, dtype=complex)
    if meas is None:
        meas = standard_measurement(iso.k, block_length(q.shape[0], iso.k))
    values = _diagonal_in_basis(q, meas)
    b = meas.block
    n_blocks = int(n) // b
    if n_blocks < 1:
        raise DimensionMismatch(f"n = {n} holds no complete block of length {b}")
    if rho_in is None:
        rho_in = profile.rho_ss
    m = stationary_mean(profile, q)
    if b == 1:
        predicted = asymptotic_variance(profile, q)
    else:
        wiso = Isometry(dilation(iso, b, cap=max(DEFAULT_TENSOR_CAP, iso.k**b)), iso.d, iso.k**b)
        pow_profile = analyze(wiso)
        pow_profile.require_irreducible()
        predicted = asymptotic_variance(pow_profile, q)
    outcomes, _ = sample_batch(iso, rho_in, n_blocks, meas, seed, trials)
    q_bar = values[outcomes].mean(axis=1)
    f = np.sqrt(n_blocks) * (q_bar - m)
    emp = float(f.var(ddof=1))
    centred = f - f.mean()
    m4 = float(np.mean(centred**4))
    stderr = float(np.sqrt(max(m4 - emp**2, 0.0) / trials))
    return FluctuationStats(
        n=int(n),
        block=b,
        n_blocks=n_blocks,
        q_bar=q_bar,
        f=f,
        mean_target=m,
        predicted_var=float(predicted),
        empirical_var=emp,
        var_stderr=stderr,
    )


def run_estimator(model, theta, n, trials, seed, block=1):
    """Sample a model's estimator: per-trial estimates, RMSE, localization.

    The measurement, its closed-form mean curve, and the inversion are the
    model's own (frequency of a distinguished outcome, inverted through
    the mean function).  Returns a dict with per-trial estimates, rmse,
    the n^{-0.4} localization band and its empirical coverage, and the
    signal-to-noise data used by the contrast experiments.
    """
    from . import qubit_example as qe

    _require_variance_trials(trials)
    iso = qe.isometry(model, theta)
    profile = analyze(iso)
    profile.require_irreducible()
    meas, q = qe.measurement(model, block=block)
    values = _diagonal_in_basis(q, meas)
    b = meas.block
    n_blocks = int(n) // b
    if n_blocks < 1:
        raise DimensionMismatch(f"n = {n} holds no complete block of length {b}")
    outcomes, _ = sample_batch(iso, profile.rho_ss, n_blocks, meas, seed, trials)
    vals = values[outcomes]
    x_bar = vals.mean(axis=1)
    estimates = qe.invert_mean(model, x_bar, block=block)
    n_used = n_blocks * b
    band = float(n_used) ** (-0.4)
    err = estimates - theta
    rmse = float(np.sqrt(np.mean(err**2)))
    coverage = float(np.mean(np.abs(err) <= band))
    deriv = qe.mean_derivative(model, theta, block=block)
    var_xbar = float(x_bar.var(ddof=1))
    snr = deriv**2 / var_xbar if var_xbar > 0 else np.inf
    # two noise conventions: var_xbar is the variance of the per-trajectory
    # average (correlations included), var_outcome treats the per-block
    # outcomes as if independent, which is the usual back-of-envelope SNR
    var_outcome = float(vals.var(ddof=1))
    snr_iid = (
        n_blocks * deriv**2 / var_outcome if var_outcome > 0 else np.inf
    )
    return {
        "model": model,
        "theta": float(theta),
        "n": int(n_used),
        "block": b,
        "trials": int(trials),
        "estimates": estimates,
        "x_bar": x_bar,
        "rmse": rmse,
        "band": band,
        "coverage": coverage,
        "outside_fraction": 1.0 - coverage,
        "mean_derivative": deriv,
        "var_xbar": var_xbar,
        "var_outcome": var_outcome,
        "snr": float(snr),
        "snr_rate": float(snr / n_used),
        "snr_iid": float(snr_iid),
        "snr_iid_rate": float(snr_iid / n_used),
    }
