"""Finite-n statistical functionals of the output process.

Joint-state overlaps through deformed transfer operators, local
asymptotic normality error curves, quantum Fisher information via
transfer-operator sums (no tensor blow-up), and means / correlations /
asymptotic variance of local output observables.

Conventions.  A tangent ``a`` at an isometry ``v`` parametrises the curve
``t -> polar(v + i t a)``; the curve's velocity is ``i a`` once the
anti-Hermitian part of ``v* a`` has been projected away.  Raw curve
velocities (finite differences of ``v(theta)``) can be passed everywhere;
they are symmetrised internally where the curve parametrisation matters
and handled complex-linearly where it does not (gauge splitting).
"""

from dataclasses import dataclass, field

import numpy as np

from .channels import (
    DEFAULT_TENSOR_CAP,
    Isometry,
    apply_steps,
    channel,
    dilation,
    sandwich_map,
)
from .ergodic import analyze, stationary_eigenbasis
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotHermitian,
    RetractionFailure,
    SizeCap,
    UnitDimMismatch,
)
from .gauge import TangentVector, restricted_resolvent_solve, split, tangent_inner
from .linalg import antiherm_part, dag, herm_part

__all__ = [
    "DeformedChannel",
    "LocalObservable",
    "QfiReport",
    "joint_overlap",
    "retract",
    "weak_qlan_report",
    "weak_qlan_error",
    "qfi_finite",
    "qfi_curve",
    "qfi_report",
    "qfi_rate",
    "output_component_vectors",
    "component_overlap",
    "stationary_mean",
    "asymptotic_variance",
    "finite_window_variance",
]


@dataclass(frozen=True)
class DeformedChannel:
    """Two-sided transfer operator X -> V_L* (X (x) 1) V_R.

    Both arguments being isometries makes this a contraction, so only the
    dimensions are checked at construction.
    """

    iso_left: Isometry
    iso_right: Isometry
    superop: object = field(init=False, repr=False)

    def __post_init__(self):
        if self.iso_left.d != self.iso_right.d:
            raise DimensionMismatch(
                f"system dimensions differ: {self.iso_left.d} vs {self.iso_right.d}"
            )
        if self.iso_left.k != self.iso_right.k:
            raise UnitDimMismatch(
                f"unit dimensions differ: {self.iso_left.k} vs {self.iso_right.k}"
            )
        object.__setattr__(self, "superop", sandwich_map(self.iso_left, self.iso_right))

    def __call__(self, x):
        return self.superop(x)


@dataclass(frozen=True)
class LocalObservable:
    """Hermitian observable acting on a block of b consecutive output units."""

    q: np.ndarray
    k: int
    block: int = field(init=False)
    max_block: int = 3

    def __post_init__(self):
        q = np.asarray(self.q, dtype=complex)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise DimensionMismatch(f"observable must be square, got {q.shape}")
        b = int(round(np.log(q.shape[0]) / np.log(self.k)))
        if self.k**b != q.shape[0]:
            raise DimensionMismatch(
                f"observable size {q.shape[0]} is not a power of the unit dimension {self.k}"
            )
        if b > self.max_block:
            raise SizeCap(f"block length {b} exceeds the configured maximum {self.max_block}")
        if np.linalg.norm(q - dag(q)) > 1e-12 * max(1.0, np.linalg.norm(q)):
            raise NotHermitian("local observable must be Hermitian")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "block", b)


@dataclass(frozen=True)
class QfiReport:
    """Finite-n QFI values along a grid together with the limiting rate."""

    n_values: list
    f_n: np.ndarray
    rate: float
    residuals: np.ndarray


def _as_matrix(iso, a):
    if isinstance(a, TangentVector):
        a = a.a
    a = np.asarray(a, dtype=complex)
    if a.shape != iso.v.shape:
        raise DimensionMismatch(f"tangent shape {a.shape}, expected {iso.v.shape}")
    return a


def _as_profile(obj):
    if isinstance(obj, Isometry):
        prof = analyze(obj)
        prof.require_irreducible()
        return prof
    return obj


def joint_overlap(iso1, iso2, phi, n):
    """Overlap <Psi_1(n)|Psi_2(n)> of the joint system+output states.

    Computed by n applications of the deformed channel to the identity,
    O(n d^4), never building the k^n-dimensional output space.
    """
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    dc = DeformedChannel(iso1, iso2)
    phi = np.asarray(phi, dtype=complex).reshape(iso1.d)
    nv = np.linalg.norm(phi)
    if abs(nv - 1.0) > 1e-6:
        raise DimensionMismatch(f"phi must be a unit vector, norm {nv:.6f}")
    phi = phi / nv
    x = np.eye(iso1.d, dtype=complex)
    for _ in range(n):
        x = dc(x)
    return complex(np.vdot(phi, x @ phi))


def retract(iso, x, t):
    """Isometry-valued retraction polar(v + i t x).

    The argument must be tangent to first order: ``(v+itx)*(v+itx) - 1``
    may contain the unavoidable second-order term t^2 x*x but nothing at
    first order.  Larger defects raise RetractionFailure.
    """
    x = _as_matrix(iso, x)
    t = float(t)
    m = iso.v + 1j * t * x
    defect = dag(m) @ m - np.eye(iso.d) - t * t * (dag(x) @ x)
    if np.linalg.norm(defect) > 1e-6 * max(1.0, abs(t) * np.linalg.norm(x)):
        raise RetractionFailure(
            f"first-order isometry defect {np.linalg.norm(defect):.3e}; "
            "argument is not tangent"
        )
    w, _, vh = np.linalg.svd(m, full_matrices=False)
    return Isometry(w @ vh, iso.d, iso.k)


def weak_qlan_report(profile, x, y, n, phi=None):
    """Finite-n joint-overlap against its Gaussian limit prediction.

    Both tangents are pulled back along the local charts
    ``v(x / sqrt(n))``; the overlap is weighted by the stationary state
    unless an explicit initial vector ``phi`` is supplied.  The free
    per-parameter phases are removed by the e^{i(theta_x-theta_y) sqrt(n)}
    correction, and the prediction is
    exp(-1/2 beta(dx, dx) + i sigma(x_id, y_id)) with dx = x_id - y_id.
    """
    profile = _as_profile(profile)
    profile.require_irreducible()
    iso = profile.iso
    x = _as_matrix(iso, x)
    y = _as_matrix(iso, y)
    sx = split(profile, x)
    sy = split(profile, y)
    t = 1.0 / np.sqrt(n)
    vx = retract(iso, x, t)
    vy = retract(iso, y, t)
    dc = DeformedChannel(vx, vy)
    opn = np.eye(iso.d, dtype=complex)
    for _ in range(n):
        opn = dc(opn)
    if phi is None:
        overlap = complex(np.trace(profile.rho_ss @ opn))
    else:
        phi = np.asarray(phi, dtype=complex).reshape(iso.d)
        phi = phi / np.linalg.norm(phi)
        overlap = complex(np.vdot(phi, opn @ phi))
    corrected = overlap * np.exp(1j * (sx.theta - sy.theta) * np.sqrt(n))
    diff = sx.a_id - sy.a_id
    g = tangent_inner(profile, diff, diff).real
    s = tangent_inner(profile, sx.a_id, sy.a_id).imag
    prediction = complex(np.exp(-0.5 * g + 1j * s))
    return {
        "n": int(n),
        "overlap": overlap,
        "corrected": corrected,
        "prediction": prediction,
        "error": float(abs(corrected - prediction)),
    }


def weak_qlan_error(profile, x, y, n, phi=None):
    """Absolute deviation of the corrected finite-n overlap from its limit."""
    return weak_qlan_report(profile, x, y, n, phi=phi)["error"]


def _qfi_accumulate(iso, a, phi, nmax):
    """F_n for n = 1..nmax along the polar curve through ``a``.

    Three-term expansion of 4(||dPsi||^2 - |<Psi|dPsi>|^2): a local term,
    a cross term summing transfer-operator images of v* a over all time
    lags, and the mean-phase subtraction.  All pieces reduce to traces
    against the evolved input state, so the total cost is O(nmax^2) small
    matrix products.
    """
    d, k = iso.d, iso.k
    v = iso.v
    a = _as_matrix(iso, a)
    h = dag(v) @ a
    a_eff = a - v @ antiherm_part(h)  # velocity of the polar curve is i a_eff
    b = herm_part(h)
    phi = np.asarray(phi, dtype=complex).reshape(d)
    phi = phi / np.linalg.norm(phi)
    ts = channel(iso, "schrodinger")
    th = channel(iso, "heisenberg")
    eye_k = np.eye(k)

    rho = np.outer(phi, phi.conj())
    rho_vecs = np.empty((nmax, d * d), dtype=complex)
    local = np.empty(nmax)
    phase = np.empty(nmax, dtype=complex)
    aa = dag(a_eff) @ a_eff
    for i in range(nmax):
        rho_vecs[i] = rho.T.reshape(-1)
        local[i] = np.trace(rho @ aa).real
        phase[i] = np.trace(rho @ b)
        if i + 1 < nmax:
            rho = ts(rho)

    # M_m = v* (S_m (x) 1) a_eff with S_m = sum_{r<=m} T^r(b*)
    mlen = max(nmax - 1, 1)
    m_vecs = np.zeros((mlen, d * d), dtype=complex)
    cur = dag(b)
    s_acc = np.zeros((d, d), dtype=complex)
    for m in range(nmax - 1):
        s_acc = s_acc + cur
        mm = dag(v) @ np.kron(s_acc, eye_k) @ a_eff
        m_vecs[m] = mm.reshape(-1)
        if m + 1 < nmax - 1:
            cur = th(cur)

    # g[i, m] = Tr(rho_i M_m); cross_n = sum over the antidiagonal i+m = n-2
    f = np.empty(nmax)
    sum_local = np.cumsum(local)
    sum_phase = np.cumsum(phase)
    if nmax > 1:
        g = rho_vecs[: nmax - 1] @ m_vecs[: nmax - 1].T
        gf = np.fliplr(g)
        ncols = g.shape[1]
        cross = np.array([np.trace(gf, offset=ncols - 1 - c) for c in range(ncols)])
    else:
        cross = np.zeros(0, dtype=complex)
    for n in range(1, nmax + 1):
        ii = sum_local[n - 1]
        if n >= 2:
            ii = ii + 2.0 * cross[n - 2].real
        f[n - 1] = 4.0 * (ii - abs(sum_phase[n - 1]) ** 2)
    return f


def qfi_finite(iso, a, phi, n):
    """Quantum Fisher information of the joint state at time n."""
    if n < 1:
        raise DimensionMismatch("n must be >= 1")
    return float(_qfi_accumulate(iso, a, phi, int(n))[-1])


def qfi_curve(iso, a, phi, n_values):
    """F_n on a grid of n values, sharing the transfer-operator sweeps."""
    n_values = [int(n) for n in n_values]
    if not n_values or min(n_values) < 1:
        raise DimensionMismatch("n grid must contain positive integers")
    f = _qfi_accumulate(iso, a, phi, max(n_values))
    return np.array([f[n - 1] for n in n_values])


def qfi_report(profile, a, phi, n_values):
    """Finite-n QFI curve together with the limiting rate 4 beta(a_id, a_id)."""
    profile = _as_profile(profile)
    f = qfi_curve(profile.iso, a, phi, n_values)
    rate = qfi_rate(profile, a)
    n_arr = np.asarray([int(n) for n in n_values], dtype=float)
    return QfiReport(
        n_values=[int(n) for n in n_values],
        f_n=f,
        rate=rate,
        residuals=f / n_arr - rate,
    )


def qfi_rate(profile, a, b=None):
    """Limit of F_n / n: 4 Re Tr(rho_ss (a_id)* b_id)."""
    profile = _as_profile(profile)
    sa = split(profile, a)
    sb = sa if b is None else split(profile, b)
    return 4.0 * tangent_inner(profile, sa.a_id, sb.a_id).real


def output_component_vectors(iso, profile, n, cap=DEFAULT_TENSOR_CAP):
    """Component vectors psi^{ab}_{ij}(n)[w] = <phi^b_j| K_w |phi^a_i>.

    The eigenbasis phi (and the weights pi) comes from ``profile``, which
    may belong to a reference point different from ``iso``; this is what
    makes components of perturbed chains comparable across n.  Words w are
    enumerated chronologically (first emitted unit most significant).
    Returns ``(vectors, basis)`` where vectors maps (a, i, b, j) to a
    length-k^n array and basis is the stationary_eigenbasis list.
    """
    d, k = iso.d, iso.k
    if profile.d != d or profile.k != k:
        raise DimensionMismatch("profile and isometry dimensions differ")
    if k**n > cap:
        raise SizeCap(f"k^n = {k**n} exceeds cap {cap}")
    basis = stationary_eigenbasis(profile)
    vectors = {}
    for a, blk_a in enumerate(basis):
        for i, (_, phi_a) in enumerate(blk_a):
            mat = apply_steps(iso, phi_a, n, cap=cap).reshape(d, k**n)
            for b, blk_b in enumerate(basis):
                for j, (_, phi_b) in enumerate(blk_b):
                    vectors[(a, i, b, j)] = phi_b.conj() @ mat
    return vectors, basis


def component_overlap(iso_x, iso_y, profile, a, b, i, j, n):
    """<psi^{ab}_{ij,X}(n) | psi^{ab}_{ij,Y}(n)> without k^n tensors.

    Iterates the deformed channel of (iso_x, iso_y) n times on the rank-one
    projector of phi^b_j and closes with phi^a_i; O(n d^4).
    """
    profile.require_irreducible()
    basis = stationary_eigenbasis(profile)
    p = profile.period
    if not (0 <= a < p and 0 <= b < p):
        raise IndexOutOfRange(f"block labels ({a}, {b}) outside 0..{p - 1}")
    if i >= len(basis[a]) or j >= len(basis[b]):
        raise IndexOutOfRange("eigenvector index outside its block")
    phi_a = basis[a][i][1]
    phi_b = basis[b][j][1]
    dc = DeformedChannel(iso_x, iso_y)
    x = np.outer(phi_b, phi_b.conj())
    for _ in range(n):
        x = dc(x)
    return complex(np.vdot(phi_a, x @ phi_a))


def _observable(profile, q, max_block=3):
    if isinstance(q, LocalObservable):
        return q
    return LocalObservable(q, profile.k, max_block=max_block)


def _block_compress(iso, x, q, b, cap):
    """E_Q(x) = W_b* (x (x) q) W_b for the b-step dilation W_b."""
    w = dilation(iso, b, cap=cap)
    return dag(w) @ np.kron(x, q) @ w


def stationary_mean(profile, q, cap=DEFAULT_TENSOR_CAP):
    """Mean of a block observable in the stationary output, position-free."""
    profile = _as_profile(profile)
    profile.require_irreducible()
    obs = _observable(profile, q)
    a = _block_compress(profile.iso, np.eye(profile.d), obs.q, obs.block, cap)
    return float(np.trace(profile.rho_ss @ a).real)


def asymptotic_variance(profile, q, details=False, cap=DEFAULT_TENSOR_CAP):
    """CLT variance sigma^2(Q) of the fluctuation operator.

    sigma^2 = c_0 + 2 sum_{l>=1} c_l with autocovariances c_l of the
    stationary output process.  Overlapping lags l < b are evaluated on
    explicit (b+l)-unit dilations with the symmetrised product; the tail
    l >= b is summed in closed form through the reduced resolvent of the
    transfer operator on the complement of the stationary direction, which
    Abel-sums the oscillating peripheral contributions of periodic chains.
    """
    profile = _as_profile(profile)
    profile.require_irreducible()
    obs = _observable(profile, q)
    iso, d, b = profile.iso, profile.d, obs.block
    eye_d = np.eye(d)
    a = _block_compress(iso, eye_d, obs.q, b, cap)
    m = float(np.trace(profile.rho_ss @ a).real)
    c0 = float(np.trace(profile.rho_ss @ _block_compress(iso, eye_d, obs.q @ obs.q, b, cap)).real) - m * m
    lags = []
    for l in range(1, b):
        qa = np.kron(obs.q, np.eye(profile.k**l))
        qb = np.kron(np.eye(profile.k**l), obs.q)
        sym = 0.5 * (qa @ qb + qb @ qa)
        val = np.trace(profile.rho_ss @ _block_compress(iso, eye_d, sym, b + l, cap)).real
        lags.append(float(val) - m * m)
    x, cond = restricted_resolvent_solve(profile, a - m * eye_d)
    tail = float(np.trace(profile.rho_ss @ _block_compress(iso, x, obs.q, b, cap)).real)
    sigma2 = c0 + 2.0 * sum(lags) + 2.0 * tail
    if not details:
        return float(sigma2)
    return {
        "sigma2": float(sigma2),
        "mean": m,
        "c0": c0,
        "lags": lags,
        "tail": tail,
        "resolvent_cond": cond,
        "block": b,
    }


def finite_window_variance(profile, q, n, cap=DEFAULT_TENSOR_CAP):
    """Exact variance of F_n(Q) over the n-unit window (oracle path).

    Var F_n = c_0 + 2 sum_{l=1}^{N-1} (1 - l/N) c_l with N = n - b + 1
    overlapping positions; autocovariances beyond the block are chained
    through iterated transfer-operator applications.  Converges to
    asymptotic_variance as n grows (the triangular weights average out the
    peripheral oscillation).
    """
    profile = _as_profile(profile)
    profile.require_irreducible()
    obs = _observable(profile, q)
    iso, d, b = profile.iso, profile.d, obs.block
    nwin = int(n) - b + 1
    if nwin < 1:
        raise DimensionMismatch(f"window n = {n} shorter than the block {b}")
    eye_d = np.eye(d)
    a = _block_compress(iso, eye_d, obs.q, b, cap)
    m = float(np.trace(profile.rho_ss @ a).real)
    c0 = float(np.trace(profile.rho_ss @ _block_compress(iso, eye_d, obs.q @ obs.q, b, cap)).real) - m * m
    cs = []
    for l in range(1, min(b, nwin)):
        qa = np.kron(obs.q, np.eye(profile.k**l))
        qb = np.kron(np.eye(profile.k**l), obs.q)
        sym = 0.5 * (qa @ qb + qb @ qa)
        val = np.trace(profile.rho_ss @ _block_compress(iso, eye_d, sym, b + l, cap)).real
        cs.append(float(val) - m * m)
    th = channel(iso, "heisenberg")
    cur = a.copy()
    for l in range(b, nwin):
        val = np.trace(profile.rho_ss @ _block_compress(iso, cur, obs.q, b, cap)).real
        cs.append(float(val) - m * m)
        cur = th(cur)
    total = c0
    for l, c in enumerate(cs, start=1):
        total += 2.0 * (1.0 - l / nwin) * c
    return float(total)
