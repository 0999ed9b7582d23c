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
Functionals of the stationary output take the chain's profile from
``ergodic.analyze``, tangents as (d k, d) matrices and block observables
as square matrices.
"""

from dataclasses import dataclass, field

import numpy as np

from .channels import (
    DEFAULT_TENSOR_CAP,
    Isometry,
    apply_steps,
    block_length,
    dilation,
    kraus_real_matrix,
    real_transfer,
    sandwich_map,
)
from .ergodic import stationary_eigenbasis
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotHermitian,
    NotTangent,
    OutOfInterval,
    RetractionFailure,
    SizeCap,
    as_integer,
)
from .gauge import _as_matrix, restricted_resolvent_solve, split, tangent_inner
from .gaussian import _coherent_overlap
from .linalg import antiherm_part, dag, herm_coords, herm_part, unvec, vec

__all__ = [
    "DeformedChannel",
    "LocalObservable",
    "QfiReport",
    "joint_overlap",
    "retract",
    "weak_qlan_curve",
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

_MAX_BLOCK = 3  # longest block of output units a LocalObservable may act on


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
        object.__setattr__(self, "superop", sandwich_map(self.iso_left, self.iso_right))

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

    def __post_init__(self):
        q = np.asarray(self.q, dtype=complex)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise DimensionMismatch(f"observable must be square, got {q.shape}")
        b = block_length(q.shape[0], self.k)
        if b > _MAX_BLOCK:
            raise SizeCap(f"block length {b} exceeds the configured maximum {_MAX_BLOCK}")
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


def _system_vector(phi, d):
    """phi as a length-d complex vector; DimensionMismatch for any other length."""
    phi = np.asarray(phi, dtype=complex)
    if phi.size != d:
        raise DimensionMismatch(f"phi has {phi.size} entries, expected d = {d}")
    return phi.reshape(d)


def _unit_vector(phi, d):
    """phi / ||phi||; DimensionMismatch unless phi is a finite nonzero length-d vector."""
    phi = _system_vector(phi, d)
    nv = np.linalg.norm(phi)
    if not (np.isfinite(nv) and nv > 0):
        raise DimensionMismatch(f"phi must be a finite nonzero vector, norm {nv}")
    return phi / nv


def joint_overlap(iso1, iso2, phi, n):
    """Overlap <Psi_1(n)|Psi_2(n)> of the joint system+output states.

    Computed by n applications of the deformed channel to the identity,
    O(n d^4), never building the k^n-dimensional output space.
    """
    n = as_integer("n", n, 1)
    dc = DeformedChannel(iso1, iso2)
    phi = _system_vector(phi, iso1.d)
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
    try:
        t = float(t)
    except (TypeError, ValueError):
        raise OutOfInterval(f"t = {t!r} is not a number") from None
    m = iso.v + 1j * t * x
    defect = dag(m) @ m - np.eye(iso.d) - t * t * (dag(x) @ x)
    if not (np.linalg.norm(defect) <= 1e-6 * max(1.0, abs(t) * np.linalg.norm(x))):
        raise RetractionFailure(
            f"first-order isometry defect {np.linalg.norm(defect):.3e}; "
            "argument is not tangent"
        )
    w, _, vh = np.linalg.svd(m, full_matrices=False)
    return Isometry(w @ vh, iso.d, iso.k)


def weak_qlan_curve(profile, x, y, n_values, phi=None):
    """Finite-n joint overlaps against their Gaussian limit on a grid of n.

    Both tangents are pulled back along the local charts
    ``v(x / sqrt(n))``; the overlap is weighted by the stationary state
    unless an explicit initial vector ``phi`` is supplied.  The free
    per-parameter phases are removed by the e^{i(theta_x-theta_y) sqrt(n)}
    correction, and the prediction is
    exp(-1/2 beta(dx, dx) + i sigma(x_id, y_id)) with dx = x_id - y_id.
    x and y are split together, once for the whole grid; each n then
    iterates its own deformed channel, because the chart point depends on
    n.  Returns one report dict per entry of ``n_values``, in order.
    """
    n_values = [as_integer("n", n, 1) for n in n_values]
    if not n_values:
        raise DimensionMismatch("n grid must not be empty")
    profile.require_irreducible()
    iso = profile.iso
    if phi is not None:
        phi = _unit_vector(phi, iso.d)
    x = _as_matrix(iso, x)
    y = _as_matrix(iso, y)
    sx, sy = split(profile, np.stack([x, y]))
    prediction = _coherent_overlap(profile, sx.a_id, sy.a_id)
    reports = []
    for n in n_values:
        t = 1.0 / np.sqrt(n)
        vx = retract(iso, x, t)
        vy = retract(iso, y, t)
        opn = DeformedChannel(vx, vy).iterate(np.eye(iso.d, dtype=complex), n)
        if phi is None:
            overlap = complex(np.trace(profile.rho_ss @ opn))
        else:
            overlap = complex(np.vdot(phi, opn @ phi))
        corrected = overlap * np.exp(1j * (sx.theta - sy.theta) * np.sqrt(n))
        reports.append(
            {
                "n": n,
                "overlap": overlap,
                "corrected": corrected,
                "prediction": prediction,
                "error": float(abs(corrected - prediction)),
            }
        )
    return reports


def weak_qlan_report(profile, x, y, n, phi=None):
    """:func:`weak_qlan_curve` at the one point n: a report dict."""
    return weak_qlan_curve(profile, x, y, [n], phi=phi)[0]


def weak_qlan_error(profile, x, y, n, phi=None):
    """Absolute deviation of the corrected finite-n overlap from its limit."""
    return weak_qlan_report(profile, x, y, n, phi=phi)["error"]


def _qfi_accumulate(iso, a, phi, nmax):
    """F_n for n = 1..nmax along the polar curve through ``a``.

    Three-term expansion of 4(||dPsi||^2 - |<Psi|dPsi>|^2): a local term,
    a cross term summing transfer-operator images of v* a over all time
    lags, and the mean-phase subtraction.  With rho_i = T_s^i(phi phi*)
    and sigma_i = Tr_K(a_eff rho_i v*), the cross term of F_n is
    sum_{j<=n-2} Tr(H_j b), H_j = T_s(H_{j-1}) + Herm(sigma_j) the Hermitian
    part of W_j = T_s(W_{j-1}) + sigma_j.  One real sweep over the Hermitian
    coordinates of rho_i and H_j gives every F_n in O(nmax d^4) time, with
    memory independent of nmax.
    """
    d = iso.d
    a = _as_matrix(iso, a)
    if not np.isfinite(a).all():
        raise NotTangent("tangent has non-finite entries")
    phi = _unit_vector(phi, d)
    v = iso.v
    h = dag(v) @ a
    a_eff = a - v @ antiherm_part(h)  # velocity of the polar curve is i a_eff
    b = herm_part(h)
    kr = np.stack(iso.kraus)
    ar = np.stack([a_eff[u :: iso.k] for u in range(iso.k)])
    # rho -> Herm(sigma) is (M(K + sA) - M(K - sA)) / 4s, M = kraus_real_matrix; s, the power
    # of two nearest ||K|| / ||A||, keeps both stacks of one size, so only roundoff is lost
    s = 2.0 ** np.round(np.log2(np.linalg.norm(kr) / (np.linalg.norm(ar) or 1.0)))
    hs = (kraus_real_matrix(kr + s * ar) - kraus_real_matrix(kr - s * ar)) / (4.0 * s)
    r = real_transfer(iso)
    # traces read Tr(y z) = herm_coords(y) . herm_coords(z)
    rows = herm_coords(np.stack([dag(a_eff) @ a_eff, b])).real

    state = np.zeros((d * d, 2))  # columns: coordinates of rho_i, H_{i-1}
    state[:, 0] = herm_coords(np.outer(phi, phi.conj())).real
    local = 0.0
    phase = 0.0
    cross = 0.0
    f = np.empty(nmax)
    for i in range(nmax):
        # [[Tr(rho_i a_eff* a_eff), -], [Tr(rho_i b), Tr(H_{i-1} b)]]
        (tr_local, _), (tr_rho_b, tr_h_b) = (rows @ state).tolist()
        local += tr_local
        phase += tr_rho_b
        cross += tr_h_b
        f[i] = 4.0 * (local + 2.0 * cross - phase**2)
        if i + 1 < nmax:
            rho = state[:, 0]
            state = r @ state
            state[:, 1] += hs @ rho
    return f


def qfi_finite(iso, a, phi, n):
    """Quantum Fisher information of the joint state at time n."""
    n = as_integer("n", n, 1)
    return float(_qfi_accumulate(iso, a, phi, n)[-1])


def qfi_curve(iso, a, phi, n_values):
    """F_n on a grid of n values, sharing the transfer-operator sweeps."""
    n_values = [as_integer("n", n, 1) for n in n_values]
    if not n_values:
        raise DimensionMismatch("n grid must not be empty")
    f = _qfi_accumulate(iso, a, phi, max(n_values))
    return np.array([f[n - 1] for n in n_values])


def qfi_report(profile, a, phi, n_values):
    """Finite-n QFI curve together with the limiting rate 4 beta(a_id, a_id)."""
    profile.require_irreducible()  # before the sweep, which does not need it
    f = qfi_curve(profile.iso, a, phi, n_values)
    rate = qfi_rate(profile, a)
    n_values = [int(n) for n in n_values]
    return QfiReport(n_values=n_values, f_n=f, rate=rate, residuals=f / np.array(n_values) - rate)


def qfi_rate(profile, a, b=None):
    """Limit of F_n / n: 4 Re Tr(rho_ss (a_id)* b_id).

    With ``b`` given, a and b are split together, with one factorisation.
    """
    if b is None:
        sa = sb = split(profile, a)
    else:
        sa, sb = split(profile, np.stack([_as_matrix(profile.iso, a), _as_matrix(profile.iso, b)]))
    return 4.0 * tangent_inner(profile, sa.a_id, sb.a_id).real


def output_component_vectors(iso, profile, n):
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
    basis = stationary_eigenbasis(profile)
    vectors = {}
    for a, blk_a in enumerate(basis):
        for i, (_, phi_a) in enumerate(blk_a):
            mat = apply_steps(iso, phi_a, n).reshape(d, k**n)
            for b, blk_b in enumerate(basis):
                for j, (_, phi_b) in enumerate(blk_b):
                    vectors[(a, i, b, j)] = phi_b.conj() @ mat
    return vectors, basis


def component_overlap(iso_x, iso_y, profile, a, b, i, j, n):
    """<psi^{ab}_{ij,X}(n) | psi^{ab}_{ij,Y}(n)> without k^n tensors.

    Iterates the deformed channel of (iso_x, iso_y) n times on the rank-one
    projector of phi^b_j and closes with phi^a_i; O(n d^4).
    """
    a, b, i, j = (as_integer(name, val) for name, val in zip("abij", (a, b, i, j)))
    basis = stationary_eigenbasis(profile)
    p = profile.period
    if not (0 <= a < p and 0 <= b < p):
        raise IndexOutOfRange(f"block labels ({a}, {b}) outside 0..{p - 1}")
    if not (0 <= i < len(basis[a]) and 0 <= j < len(basis[b])):
        raise IndexOutOfRange("eigenvector index outside its block")
    phi_a = basis[a][i][1]
    phi_b = basis[b][j][1]
    x = DeformedChannel(iso_x, iso_y).iterate(np.outer(phi_b, phi_b.conj()), n)
    return complex(np.vdot(phi_a, x @ phi_a))


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


def stationary_mean(profile, q):
    """Mean of a block observable in the stationary output, position-free."""
    profile.require_irreducible()
    obs = LocalObservable(q, profile.k)
    a = _block_compress(dilation(profile.iso, obs.block), np.eye(profile.d), obs.q)
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
    profile.require_irreducible()
    obs = LocalObservable(q, profile.k)
    b = obs.block
    m, a, c0, lags, sigma_q = _block_moments(profile, obs, b - 1, cap)
    x = restricted_resolvent_solve(profile, a - m * np.eye(profile.d))
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
        "block": b,
    }


def finite_window_variance(profile, q, n, cap=DEFAULT_TENSOR_CAP):
    """Exact variance of F_n(Q) over the n-unit window (oracle path).

    Var F_n = c_0 + 2 sum_{l=1}^{N-1} (1 - l/N) c_l with N = n - b + 1
    overlapping positions; autocovariances beyond the block are chained
    through iterated transfer-operator applications.  Converges to
    asymptotic_variance as n grows (the triangular weights average out the
    peripheral oscillation).

    ``n`` is one window length, which returns a float, or a sequence of
    them, which returns a list of floats in the same order, repeats
    included.  A grid shares one moment build and one lag sweep up to its
    longest window; each window sums the first N - 1 lags of that sweep in
    the same order as a lone call, so its value is the same to the bit.
    """
    profile.require_irreducible()
    obs = LocalObservable(q, profile.k)
    b = obs.block
    n_values = [n] if np.ndim(n) == 0 else list(n)
    if not n_values:
        raise DimensionMismatch("n grid must not be empty")
    windows = []
    for n_i in n_values:
        nwin = as_integer("n", n_i, 0) - b + 1
        if nwin < 1:
            raise DimensionMismatch(f"window n = {n_i} shorter than the block {b}")
        windows.append(nwin)
    longest = max(windows)
    m, a, c0, cs, sigma_q = _block_moments(profile, obs, min(b, longest) - 1, cap)
    # on Hermitian coordinates, x -> T*(x) is c -> c @ R and Tr(x y) = c(x) . c(y)
    r = real_transfer(profile.iso)
    sq = herm_coords(sigma_q).real
    c = herm_coords(a).real
    for _ in range(b, longest):
        cs.append(float(c @ sq) - m * m)
        c = c @ r
    cs = np.array(cs)
    out = []
    for nwin in windows:
        lags = np.arange(1, nwin)
        # cumsum adds left to right, as the loop total += term would
        terms = np.concatenate([[c0], 2.0 * (1.0 - lags / nwin) * cs[: nwin - 1]])
        out.append(float(np.cumsum(terms)[-1]))
    return out[0] if np.ndim(n) == 0 else out
