"""Monte-Carlo sampling of output measurement records and CLT checks.

Outcomes are sampled block by block: a block measurement on b consecutive
units has effective Kraus operators K_j = <omega_j| V(b) ... V(1), so a
trajectory only ever tracks the d-dimensional conditional system state.

Determinism contract: trial t of a run with master seed s draws all its
uniforms from Philox seeded with SeedSequence((s, t)).  Results are
therefore identical however trials are batched.  A batch runs on one
Python thread; BLAS's own threads, inside the one GEMM per step, are the
only parallelism.
"""

from dataclasses import dataclass, field

import numpy as np

from .channels import (
    DEFAULT_TENSOR_CAP,
    Isometry,
    as_isometry,
    block_length,
    dilation,
    kraus_real_matrix,
)
from .errors import (
    DegenerateState,
    DimensionMismatch,
    IncompleteMeasurement,
    InvalidCount,
    ObservableNotDiagonal,
    ProfileMismatch,
    as_complex_array,
    as_integer,
    as_state,
)
from .ergodic import analyze, as_profile
from .linalg import dag, herm_coords, herm_vec
from .statmodel import LocalObservable, asymptotic_variance, stationary_mean

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
        vecs = as_complex_array("measurement vectors", self.vectors)
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
    k = as_integer("k", k, 1)
    b = as_integer("b", b, 1)
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
    """Per-trial fluctuation values of a block observable and their variance."""

    block: int
    n_blocks: int
    f: np.ndarray
    predicted_var: float
    empirical_var: float
    var_stderr: float


def _check_measurement(meas):
    if not isinstance(meas, BlockMeasurement):
        raise DimensionMismatch(f"meas must be a BlockMeasurement, got a {type(meas).__name__}")


def block_kraus(iso, meas):
    """Effective Kraus operators of a block measurement, one per outcome;
    Isometry and BlockMeasurement guarantee that they resolve the identity."""
    iso = as_isometry("iso", iso)
    _check_measurement(meas)
    if meas.k != iso.k:
        raise DimensionMismatch(f"measurement unit dimension {meas.k} != chain's {iso.k}")
    b = meas.block
    w3 = dilation(iso, b, cap=max(DEFAULT_TENSOR_CAP, iso.k**b)).reshape(
        iso.d, iso.k**b, iso.d
    )
    return np.einsum("jw,swh->jsh", meas.vectors.conj(), w3)


def _trial_generator(seed, trial):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, trial))))


# Uniforms are drawn from each trial's stream this many at a time (16 KiB
# per trial): runs of up to 2048 blocks take one draw per trial, and longer
# runs hold one chunk instead of all their uniforms.  Consecutive draws
# continue one stream, so chunking changes no number.
_DRAW_BLOCKS = 2048
# Outcomes are gathered this many steps at a time and then copied into the
# (trials x n_blocks) result: writing one step's column straight into it
# touches a memory page per trial at every step.
_COPY_BLOCKS = 64


def _step_operator(km):
    """Real (k (n+1)) x n step operator, n = d^2: rows [R_0; w_0; ...; R_{k-1}; w_{k-1}].

    R_j is the real matrix of rho -> K_j rho K_j* in the Hermitian basis of
    ``qmc.linalg.herm_coords`` and w_j holds the coordinates of K_j* K_j,
    so that w_j . c = Tr(K_j rho K_j*) for the coordinates c of rho.  This
    operator times a batch of coordinate columns gives every outcome's
    unnormalised conditional state followed by its weight, so one gather
    reads both the chosen state and its normaliser.
    """
    w = herm_coords(np.conj(np.swapaxes(km, 1, 2)) @ km).real
    blocks = [np.vstack([kraus_real_matrix(km[j : j + 1]), w[j]]) for j in range(len(km))]
    return np.ascontiguousarray(np.concatenate(blocks))


def _run_batch(op, rho_in, n_blocks, seed, trial_indices):
    """Sample n_blocks outcomes per trial with one real GEMM per step.

    Column i of ``c`` holds trial i's conditional state as its n = d^2 real
    Hermitian-basis coordinates.  ``op @ c`` is then k blocks of n + 1 rows,
    candidate state j over its weight, so the reductions over the k
    outcomes and the selection run along contiguous rows of trials.  Each
    trial's uniforms are drawn a chunk of steps at a time, and the outcomes
    are copied into the (trials x n_blocks) result 64 steps at a time, so
    on long runs the peak stays near the size of the result.
    """
    t = len(trial_indices)
    n = op.shape[1]
    k = op.shape[0] // (n + 1)
    c = np.broadcast_to(herm_coords(rho_in).real[:, None], (n, t))
    gens = [None] * t
    outcomes = np.empty((t, n_blocks), dtype=np.int64)
    uniforms = np.empty((min(n_blocks, _DRAW_BLOCKS), t))
    picks = np.empty((min(n_blocks, _COPY_BLOCKS), t), dtype=np.int64)
    # flat offset of row r of trial i within a candidate block
    block = (n + 1) * t
    offsets = np.arange(block).reshape(n + 1, t)
    for step in range(n_blocks):
        u = step % _DRAW_BLOCKS
        if u == 0:
            count = min(_DRAW_BLOCKS, n_blocks - step)
            last = step + count == n_blocks
            for i, tr in enumerate(trial_indices):
                gen = gens[i] or _trial_generator(seed, tr)
                uniforms[:count, i] = gen.random(count)
                # kept only while its stream has chunks left, so a one-chunk
                # run holds one generator at a time
                gens[i] = None if last else gen
        cand = op @ c
        cdf = np.maximum(cand[n :: n + 1], 0.0)
        # running sums by row: faster than an axis-0 cumsum for a few outcomes
        for j in range(1, k):
            cdf[j] += cdf[j - 1]
        psum = cdf[k - 1]
        if not psum.min() >= 1e-14:
            raise DegenerateState("all outcome probabilities vanished along a trajectory")
        idx = (cdf[: k - 1] < uniforms[u] * psum).sum(axis=0)
        row = step % _COPY_BLOCKS
        picks[row] = idx
        if row == _COPY_BLOCKS - 1 or step == n_blocks - 1:
            outcomes[:, step - row : step + 1] = picks[: row + 1].T
        chosen = cand.reshape(-1).take(idx * block + offsets)
        c = chosen[:n] / chosen[n]
    return outcomes, herm_vec(c.T)


def _prepare(iso, rho_in, n_blocks, meas, seed):
    """(step operator, rho_in, n_blocks, seed) of a sampling call, validated."""
    iso = as_isometry("iso", iso)
    seed = as_integer("seed", seed, 0)
    n_blocks = as_integer("n_blocks", n_blocks)
    if n_blocks < 0:
        raise DimensionMismatch(f"n_blocks = {n_blocks}, expected >= 0")
    rho = as_state("input state", rho_in, iso.d)
    return _step_operator(block_kraus(iso, meas)), rho, n_blocks, seed


def sample_batch(iso, rho_in, n_blocks, meas, seed, trials):
    """Outcome records for trials 0..trials-1; deterministic per (seed, trial)."""
    op, rho_in, n_blocks, seed = _prepare(iso, rho_in, n_blocks, meas, seed)
    trials = as_integer("trials", trials, 1)
    return _run_batch(op, rho_in, n_blocks, seed, range(trials))


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


def _diagonal_in_basis(q, meas):
    """Outcome values of a LocalObservable's q, when q is diagonal in the measured basis."""
    qb = meas.vectors.conj() @ q @ meas.vectors.T
    off = qb - np.diag(np.diag(qb))
    if not (np.linalg.norm(off) <= 1e-10 * max(1.0, np.linalg.norm(qb))):
        raise ObservableNotDiagonal(
            "observable is not diagonal in the measurement basis; "
            "time averages of its outcomes would not estimate its mean"
        )
    return np.diag(qb).real


def _variance_trials(trials):
    """``trials`` as an int; InvalidCount unless it is an integer of at least 2."""
    trials = as_integer("trials", trials)
    if trials < 2:
        raise InvalidCount(f"trials = {trials}; a sample variance needs at least 2")
    return trials


def _block_count(n, b):
    """n // b for an integer n; DimensionMismatch if it holds no block of length b."""
    n = as_integer("n", n)
    if n // b < 1:
        raise DimensionMismatch(f"n = {n} holds no complete block of length {b}")
    return n // b


def fluctuation_stats(iso, profile, q, n, trials, seed, meas=None):
    """Sampled fluctuation statistics F = sqrt(n_blocks) (Q_bar - m).

    q is read as a LocalObservable on the chain's units, and ``meas``,
    the computational basis by default, must measure blocks of q's length.
    Trajectories start in rho_ss and blocks are measured disjointly.  For
    block length b >= 2 the predicted variance is the CLT variance of the
    b-step power chain (which must be irreducible: at a periodic point with
    p dividing b it is not, and the analysis will say so).  ``profile``
    must be ``iso``'s, else ProfileMismatch.
    """
    iso = as_isometry("iso", iso)
    if as_profile(profile).iso != iso:
        raise ProfileMismatch("profile belongs to a different chain")
    trials = _variance_trials(trials)
    obs = LocalObservable(q, iso.k)
    q, b = obs.q, obs.block
    if meas is None:
        meas = standard_measurement(iso.k, b)
    _check_measurement(meas)
    if (meas.k, meas.block) != (iso.k, b):
        raise DimensionMismatch(f"measurement (k, b) = {meas.k, meas.block}, observable {iso.k, b}")
    values = _diagonal_in_basis(q, meas)
    n_blocks = _block_count(n, b)
    m = stationary_mean(profile, q)
    if b == 1:
        predicted = asymptotic_variance(profile, q)
    else:
        wiso = Isometry(dilation(iso, b, cap=max(DEFAULT_TENSOR_CAP, iso.k**b)), iso.d, iso.k**b)
        pow_profile = analyze(wiso)
        pow_profile.require_irreducible()
        predicted = asymptotic_variance(pow_profile, q)
    outcomes, _ = sample_batch(iso, profile.rho_ss, n_blocks, meas, seed, trials)
    f = np.sqrt(n_blocks) * (values[outcomes].mean(axis=1) - m)
    emp = float(f.var(ddof=1))
    centred = f - f.mean()
    m4 = float(np.mean(centred**4))
    stderr = float(np.sqrt(max(m4 - emp**2, 0.0) / trials))
    return FluctuationStats(
        block=b,
        n_blocks=n_blocks,
        f=f,
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

    trials = _variance_trials(trials)
    iso = qe.isometry(model, theta)
    profile = analyze(iso)
    profile.require_irreducible()
    meas, q = qe.measurement(model, block=block)
    values = _diagonal_in_basis(LocalObservable(q, iso.k).q, meas)
    b = meas.block
    n_blocks = _block_count(n, b)
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
        "trials": trials,
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
