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
    block_length,
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
    as_integer,
)
from .gauge import TangentVector, restricted_resolvent_solve, split, tangent_inner
from .gaussian import _coherent_overlap
from .linalg import antiherm_part, dag, herm_part, unvec, vec

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

    def iterate(self, x, n):
        """The map applied n times to x, by matvecs on vec(x) and squarings.

        With D = d^2 the side of the dense matrix M, one squaring costs D
        matvecs.  The number j of squarings minimises the cost
        j D + floor(n / 2^j) + (n mod 2^j) in matvec units: M is applied
        n mod 2^j times, squared j times, and M^(2^j) applied floor(n / 2^j)
        times.  Work is O(min_j(j D + n / 2^j) D^2), at most O(n d^4), and
        the squarings hold at most two D x D matrices besides M.  For
        n <= 2 D + 1 the rule picks j = 0, which is n plain matvecs, bit for
        bit.
        """
        n = as_integer("n", n, 0)
        op = self.superop
        x = np.asarray(x, dtype=complex)
        if x.shape != tuple(op.shape_in):
            raise DimensionMismatch(f"operand shape {x.shape}, expected {op.shape_in}")
        m = op.m
        side = m.shape[0]
        j = min(range(n.bit_length() + 1), key=lambda s: s * side + (n >> s) + n % (1 << s))
        y = vec(x)
        for _ in range(n % (1 << j)):
            y = m @ y
        for _ in range(j):
            m = m @ m
        for _ in range(n >> j):
            y = m @ y
        return unvec(y, tuple(op.shape_out))


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
        b = block_length(q.shape[0], self.k)
        if b > self.max_block:
            raise SizeCap(f"block length {b} exceeds the configured maximum {self.max_block}")
        if not np.isfinite(q).all():
            raise NotHermitian("local observable has non-finite entries")
        if not (np.linalg.norm(q - dag(q)) <= 1e-12 * max(1.0, np.linalg.norm(q))):
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
    if not (abs(nv - 1.0) <= 1e-6):
        raise DimensionMismatch(f"phi must be a unit vector, norm {nv:.6f}")
    phi = phi / nv
    x = dc.iterate(np.eye(iso1.d, dtype=complex), n)
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
    if not (np.linalg.norm(defect) <= 1e-6 * max(1.0, abs(t) * np.linalg.norm(x))):
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
    n = as_integer("n", n, 1)
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
    opn = DeformedChannel(vx, vy).iterate(np.eye(iso.d, dtype=complex), n)
    if phi is None:
        overlap = complex(np.trace(profile.rho_ss @ opn))
    else:
        phi = np.asarray(phi, dtype=complex).reshape(iso.d)
        phi = phi / np.linalg.norm(phi)
        overlap = complex(np.vdot(phi, opn @ phi))
    corrected = overlap * np.exp(1j * (sx.theta - sy.theta) * np.sqrt(n))
    prediction = _coherent_overlap(profile, sx.a_id, sy.a_id)
    return {
        "n": n,
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
    lags, and the mean-phase subtraction.  With rho_i = T_s^i(phi phi*)
    and sigma_i = Tr_K(a_eff rho_i v*), the cross term of F_n is
    sum_{j<=n-2} Tr(W_j b) where W_j = T_s(W_{j-1}) + sigma_j, so one
    forward sweep carrying rho_i, W_j and three running sums gives every
    F_n in O(nmax d^4) time, with memory independent of nmax.
    """
    d, k = iso.d, iso.k
    v = iso.v
    a = _as_matrix(iso, a)
    h = dag(v) @ a
    a_eff = a - v @ antiherm_part(h)  # velocity of the polar curve is i a_eff
    b = herm_part(h)
    phi = np.asarray(phi, dtype=complex).reshape(d)
    phi = phi / np.linalg.norm(phi)
    ts = channel(iso, "schrodinger").m
    # sigma_i = sum_u A_u rho_i K_u* with A_u = a_eff[u::k], so
    # vec(sigma_i) = sm @ vec(rho_i); traces read Tr(y z) = vec(z^T) . vec(y)
    sm = sum(np.kron(kr.conj(), a_eff[u::k]) for u, kr in enumerate(iso.kraus))
    rows = np.stack([vec((dag(a_eff) @ a_eff).T), vec(b.T)])

    state = np.zeros((d * d, 2), dtype=complex)  # columns vec(rho_i), vec(W_{i-1})
    state[:, 0] = vec(np.outer(phi, phi.conj()))
    local = 0.0
    phase = 0.0
    cross = 0.0
    f = np.empty(nmax)
    for i in range(nmax):
        # [[Tr(rho_i a_eff* a_eff), -], [Tr(rho_i b), Tr(W_{i-1} b)]]
        (tr_local, _), (tr_rho_b, tr_w_b) = (rows @ state).tolist()
        local += tr_local.real
        phase += tr_rho_b
        cross += tr_w_b.real
        f[i] = 4.0 * (local + 2.0 * cross - abs(phase) ** 2)
        if i + 1 < nmax:
            rho = state[:, 0]
            state = ts @ state
            state[:, 1] += sm @ rho
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
    x = DeformedChannel(iso_x, iso_y).iterate(np.outer(phi_b, phi_b.conj()), n)
    return complex(np.vdot(phi_a, x @ phi_a))


def _observable(profile, q, max_block=3):
    if isinstance(q, LocalObservable):
        return q
    return LocalObservable(q, profile.k, max_block=max_block)


def _block_compress(w, x, q):
    """E_Q(x) = W_b* (x (x) q) W_b for the b-step dilation W_b."""
    return dag(w) @ np.kron(x, q) @ w


def _block_moments(profile, obs, n_lags, cap):
    """Stationary moments of a block observable Q on one b-step dilation W_b.

    Returns ``(m, a, c0, lags, sigma_q)``: the mean m, a = E_Q(1), the
    variance c0, the autocovariances at the overlapping lags 1..n_lags
    (each on its own (b+l)-unit dilation), and
    sigma_q = Tr_units[(1 (x) q) W_b rho_ss W_b*], through which every
    non-overlapping covariance Tr(rho_ss E_Q(x)) reads Tr(x sigma_q).
    """
    iso, d, k, b = profile.iso, profile.d, profile.k, obs.block
    rho = profile.rho_ss
    eye_d = np.eye(d)
    w = dilation(iso, b, cap=cap)
    a = _block_compress(w, eye_d, obs.q)
    m = float(np.trace(rho @ a).real)
    c0 = float(np.trace(rho @ _block_compress(w, eye_d, obs.q @ obs.q)).real) - m * m
    lags = []
    for l in range(1, n_lags + 1):
        qa = np.kron(obs.q, np.eye(k**l))
        qb = np.kron(np.eye(k**l), obs.q)
        sym = 0.5 * (qa @ qb + qb @ qa)
        val = np.trace(rho @ _block_compress(dilation(iso, b + l, cap=cap), eye_d, sym)).real
        lags.append(float(val) - m * m)
    # rows of W_b are (system s, unit word u); q acts on the words
    w_units = w.reshape(d, k**b, d)
    q_w_rho = np.einsum("uv,svh->suh", obs.q, (w @ rho).reshape(d, k**b, d))
    sigma_q = np.einsum("suh,tuh->st", q_w_rho, w_units.conj())
    return m, a, c0, lags, sigma_q


def stationary_mean(profile, q, cap=DEFAULT_TENSOR_CAP):
    """Mean of a block observable in the stationary output, position-free."""
    profile = _as_profile(profile)
    profile.require_irreducible()
    obs = _observable(profile, q)
    a = _block_compress(dilation(profile.iso, obs.block, cap=cap), np.eye(profile.d), obs.q)
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
    b = obs.block
    m, a, c0, lags, sigma_q = _block_moments(profile, obs, b - 1, cap)
    x, cond = restricted_resolvent_solve(profile, a - m * np.eye(profile.d))
    tail = float(np.trace(x @ sigma_q).real)
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
    b = obs.block
    nwin = int(n) - b + 1
    if nwin < 1:
        raise DimensionMismatch(f"window n = {n} shorter than the block {b}")
    m, a, c0, cs, sigma_q = _block_moments(profile, obs, min(b, nwin) - 1, cap)
    th = channel(profile.iso, "heisenberg")
    cur = a.copy()
    for l in range(b, nwin):
        cs.append(float(np.trace(cur @ sigma_q).real) - m * m)
        cur = th(cur)
    total = c0
    for l, c in enumerate(cs, start=1):
        total += 2.0 * (1.0 - l / nwin) * c
    return float(total)
