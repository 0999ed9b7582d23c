"""Finite-n statistical functionals of the output process.

Joint-state overlaps through deformed transfer operators, local
asymptotic normality error curves, quantum Fisher information via
transfer-operator sums (no tensor blow-up), and means / correlations /
asymptotic variance of local output observables.

Conventions.  A tangent ``a`` at an isometry ``v`` parametrises the curve
``t -> polar(v + i t a)``; the curve's velocity is ``i a`` once the
anti-Hermitian part of ``v* a`` has been projected away.  A curve
``theta -> v(theta)`` of isometries has the tangent ``a = -i dv/dtheta``:
its ``v* a`` is Hermitian, so nothing is projected away.  The raw
velocity ``dv/dtheta`` is the tangent of another curve; :func:`qfi_curve`
tells the two apart, while :func:`qfi_rate` and the gauge split,
complex-linear in the tangent, give both the same rate.
Functionals of the stationary output take the chain's profile from
``ergodic.analyze``, tangents as (d k, d) matrices and block observables
as square matrices.
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
    real_transfer,
    sandwich_map,
)
from .ergodic import as_profile, stationary_eigenbasis
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotHermitian,
    RetractionFailure,
    SizeCap,
    as_complex_array,
    as_integer,
    as_real,
    as_vector,
)
from .gauge import (
    _as_matrix,
    _check_tangent_entries,
    restricted_resolvent_solve,
    split,
    tangent_inner,
)
from .gaussian import _mode_gram
from .linalg import antiherm_part, dag, herm_coords, herm_part, over_cap, unvec, vec

__all__ = [
    "DeformedChannel",
    "LocalObservable",
    "joint_overlap",
    "retract",
    "weak_qlan_curve",
    "weak_qlan_report",
    "weak_qlan_error",
    "qfi_curve",
    "qfi_rate",
    "component_overlap",
    "stationary_mean",
    "asymptotic_variance",
    "finite_window_variance",
]

_MAX_BLOCK = 3  # longest block of output units a LocalObservable may act on
# DeformedChannel.iterate prices one D x D squaring at min(D, this) matvecs: a
# complex squaring measured 93 matvecs at D = 256, at one BLAS thread.  The
# priced cost of its squaring route is also the budget of its mixed route
_SQUARING_PRICE = 93
# The mixed route reads the iterate's Rayleigh residual after _MIX_FIRST
# matvecs and every _MIX_EVERY after that, and stops at or below _MIX_BAR
_MIX_FIRST = 48
_MIX_EVERY = 16
_MIX_BAR = 1e-15


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
        as_isometry("iso_left", self.iso_left)
        as_isometry("iso_right", self.iso_right)
        if self.iso_left.d != self.iso_right.d:
            raise DimensionMismatch(
                f"system dimensions differ: {self.iso_left.d} vs {self.iso_right.d}"
            )
        object.__setattr__(self, "superop", sandwich_map(self.iso_left, self.iso_right))

    def iterate(self, x, n):
        """The map applied n times to x, by matvecs on vec(x) and squarings.

        With D = d^2 the side of the dense matrix M, one squaring is priced
        at P = min(D, _SQUARING_PRICE) matvecs.  Measured at one BLAS
        thread, a complex D x D squaring costs about 4 matvecs at D = 16,
        19 at D = 64 and 93 at D = 256: BLAS-3 products run near peak while
        the matvecs are memory-bound, so D overprices a squaring at every D.
        The price is a constant, never measured at run time, so that the
        result does not depend on the host.  The number j of squarings
        minimises the cost C = j P + floor(n / 2^j) + (n mod 2^j) in matvec
        units: M is applied n mod 2^j times, squared j times, and M^(2^j)
        applied floor(n / 2^j) times.  Work is O(j D^3 + (n / 2^j) D^2) with
        j <= log2(n) + 1, and the squarings hold at most two D x D matrices
        besides M.  For n <= 2 P + 1 the rule picks j = 0, which is n plain
        matvecs, bit for bit.

        Above that, and when C leaves room for two readings of the residual
        (C >= _MIX_FIRST + _MIX_EVERY), the mixed route runs first: plain
        matvecs until the iterate is the dominant eigenvector of M, then
        M^n vec(x) = mu^(n - s) M^s vec(x) (:func:`_mixed_power`).  It takes
        at most C matvecs.  When the iterate does not mix within them, as
        for a periodic or unitary pair, the squaring route runs from the
        start, so its result is the same bits as without the mixed route.
        """
        n = as_integer("n", n, 0)
        op = self.superop
        x = as_complex_array("operand", x)
        if x.shape != tuple(op.shape_in):
            raise DimensionMismatch(f"operand shape {x.shape}, expected {op.shape_in}")
        m = op.m
        price = min(m.shape[0], _SQUARING_PRICE)
        costs = [s * price + (n >> s) + n % (1 << s) for s in range(n.bit_length() + 1)]
        cost = min(costs)
        j = costs.index(cost)
        y = vec(x)
        if j > 0 and cost >= _MIX_FIRST + _MIX_EVERY and np.isfinite(y).all():
            z = _mixed_power(m, y, n, cost)
            if z is not None:
                return unvec(z, tuple(op.shape_out))
        for _ in range(n % (1 << j)):
            y = m @ y
        for _ in range(j):
            m = m @ m
        for _ in range(n >> j):
            y = m @ y
        return unvec(y, tuple(op.shape_out))


def _mixed_power(m, y, n, budget):
    """M^n y as mu^(n - s) M^s y once M^s y has mixed, or None.

    For a primitive pair M has one eigenvalue mu of largest modulus, so
    after s matvecs M^s y is its eigenvector up to |lambda_2 / mu|^s and
    every further matvec multiplies it by mu (the power method, Golub &
    Van Loan, *Matrix Computations*, section 7.3).  At s = _MIX_FIRST,
    _MIX_FIRST + _MIX_EVERY, ... matvecs, with z = M^s y and y the iterate
    before it, mu is the Rayleigh quotient <y, z> / <y, y> and the relative
    residual is ||z - mu y|| / ||z||.  At or below _MIX_BAR the iterate has
    mixed.  The power of mu then comes from one more stretch of _MIX_EVERY
    matvecs: their ratio <z, M^L z> / <z, z>, read in extended precision,
    corrects mu^L, so an error of a few eps grows (n - s) / L-fold instead
    of (n - s)-fold.  Every reading leaves room for that stretch within
    ``budget`` matvecs.  From the second reading on, the residual's rate
    over the last stretch is extrapolated to the last reading that does: a
    residual that does not fall, or one that would not reach the bar there,
    returns None at once.  So a pair with more than one eigenvalue on its
    rim (a periodic chain, a unitary rotation) costs _MIX_FIRST +
    _MIX_EVERY matvecs before the caller falls back, never the budget.
    """
    for _ in range(_MIX_FIRST - 1):
        y = m @ y
    s, last = _MIX_FIRST, None
    reach = s + (budget - s - _MIX_EVERY) // _MIX_EVERY * _MIX_EVERY  # the last reading
    while True:
        z = m @ y
        yy, zz = np.vdot(y, y).real, np.linalg.norm(z)
        if not (yy > 0 and zz > 0):
            return None
        mu = complex(np.vdot(y, z)) / yy
        res = float(np.linalg.norm(z - mu * y)) / zz
        if res <= _MIX_BAR:
            w = z
            for _ in range(_MIX_EVERY):
                w = m @ w
            zl, mu = z.astype(np.clongdouble), np.clongdouble(mu)
            drift = np.vdot(zl, w) / np.vdot(zl, zl).real / mu**_MIX_EVERY
            k = n - s - _MIX_EVERY
            return complex(mu**k * drift ** (k / _MIX_EVERY)) * w
        if s == reach:
            return None
        if last is not None:
            stretches = (reach - s) / _MIX_EVERY
            if not (res < last and res * (res / last) ** stretches <= _MIX_BAR):
                return None
        last, y = res, z
        for _ in range(_MIX_EVERY - 1):
            y = m @ y
        s += _MIX_EVERY


@dataclass(frozen=True)
class LocalObservable:
    """Hermitian observable acting on a block of b consecutive output units."""

    q: np.ndarray
    k: int
    block: int = field(init=False)

    def __post_init__(self):
        q = as_complex_array("observable", self.q)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise DimensionMismatch(f"observable must be square, got {q.shape}")
        b = block_length(q.shape[0], self.k)
        if b > _MAX_BLOCK:
            raise SizeCap(f"block length {b} exceeds the configured maximum {_MAX_BLOCK}")
        if not np.isfinite(q).all():
            raise NotHermitian("local observable has non-finite entries")
        if over_cap(q):
            raise NotHermitian("local observable has an entry beyond 2^400; moments would overflow")
        if not (np.linalg.norm(q - dag(q)) <= 1e-12 * max(1.0, np.linalg.norm(q))):
            raise NotHermitian("local observable must be Hermitian")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "block", b)


def _unit_vector(phi, d):
    """phi / ||phi||; DimensionMismatch unless phi is a finite nonzero length-d vector."""
    phi = as_vector("phi", phi, d)
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
    phi = as_vector("phi", phi, iso1.d)
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
    iso = as_isometry("iso", iso)
    x = _as_matrix(iso, x)
    t = as_real("t", t)
    m = iso.v + 1j * t * x
    defect = dag(m) @ m - np.eye(iso.d) - t * t * (dag(x) @ x)
    if not (np.linalg.norm(defect) <= 1e-6 * max(1.0, abs(t) * np.linalg.norm(x))):
        raise RetractionFailure(
            f"first-order isometry defect {np.linalg.norm(defect):.3e}; "
            "argument is not tangent"
        )
    w, _, vh = np.linalg.svd(m, full_matrices=False)
    return Isometry(w @ vh, iso.d, iso.k)


def _n_grid(n_values):
    """A grid of n as a list of ints >= 1, read once: DimensionMismatch for a
    grid that is not iterable or is empty, InvalidCount for a bad entry."""
    if not np.iterable(n_values):
        raise DimensionMismatch(f"n grid must be a sequence of counts, got {n_values!r}")
    n_values = [as_integer("n", n, 1) for n in n_values]
    if not n_values:
        raise DimensionMismatch("n grid must not be empty")
    return n_values


def weak_qlan_curve(profile, x, y, n_values):
    """Finite-n joint overlaps against their Gaussian limit on a grid of n.

    Both tangents are pulled back along the local charts
    ``v(x / sqrt(n))``; the overlap is weighted by the stationary state
    (:func:`joint_overlap` gives it for a pure initial state).  The free
    per-parameter phases are removed by the e^{i(theta_x-theta_y) sqrt(n)}
    correction, and the prediction is
    exp(-1/2 beta(dx, dx) + i sigma(x_id, y_id)) with dx = x_id - y_id.
    x and y are split together, once for the whole grid; each n then
    iterates its own deformed channel, because the chart point depends on
    n.  Returns one report dict per entry of ``n_values``, in order.
    """
    n_values = _n_grid(n_values)
    as_profile(profile).require_irreducible()
    x = _as_matrix(profile.iso, x)
    y = _as_matrix(profile.iso, y)
    sx, sy = split(profile, np.stack([x, y]))
    return _split_curve(profile, (x, y), (sx.a_id, sy.a_id), sx.theta - sy.theta, n_values)


def _split_curve(profile, pair, ids, dtheta, n_values):
    """:func:`weak_qlan_curve` of the tangents ``pair`` = (x, y), already split.

    ``ids`` are their identifiable parts and ``dtheta`` is theta_x - theta_y,
    so a caller that holds the split passes it on instead of splitting
    again; for identifiable x and y that is (x, y) and 0, since the theta
    that corrects the phase is that of the tangent retracted.  The caller
    has read the profile, checked the shapes of x and y and read
    ``n_values`` into a list of ints, as :func:`weak_qlan_curve` does.
    """
    iso = profile.iso
    x, y = pair
    # the two identifiable parts as the one mode of two points: the
    # exponent of their coherent overlap is the mode-0 exponent c[0, 1]
    prediction = complex(np.exp(_mode_gram(profile, np.stack(ids)[None])[0][0, 1]))
    reports = []
    for n in n_values:
        t = 1.0 / np.sqrt(n)
        vx = retract(iso, x, t)
        vy = retract(iso, y, t)
        opn = DeformedChannel(vx, vy).iterate(np.eye(iso.d, dtype=complex), n)
        overlap = complex(np.trace(profile.rho_ss @ opn))
        corrected = overlap * np.exp(1j * dtheta * np.sqrt(n))
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


def weak_qlan_report(profile, x, y, n):
    """:func:`weak_qlan_curve` at the one point n: a report dict."""
    return weak_qlan_curve(profile, x, y, [n])[0]


def weak_qlan_error(profile, x, y, n):
    """Absolute deviation of the corrected finite-n overlap from its limit."""
    return weak_qlan_report(profile, x, y, n)["error"]


class _Lower:
    """The block matrix [[r, 0], [h, r]] acting on stacked coordinates (top, bottom).

    Its products keep the form, [[r_1 r_2, 0], [h_1 r_2 + r_1 h_2, r_1 r_2]], so
    a squaring costs three products of the blocks and a step one r-product
    of both halves plus one h-product, against eight and four for the dense
    matrix of twice the side.
    """

    __array_ufunc__ = None  # ndarray @ _Lower calls __rmatmul__

    def __init__(self, r, h):
        self.r, self.h = r, h
        self.shape = (2 * len(r),) * 2

    def __matmul__(self, other):
        """The product with another _Lower, or the image of a vector of length 2 len(r)."""
        if isinstance(other, _Lower):
            return _Lower(self.r @ other.r, self.h @ other.r + self.r @ other.h)
        half = len(self.r)
        out = (other.reshape(2, half) @ self.r.T).reshape(-1)  # r top, r bottom
        out[half:] += self.h @ other[:half]
        return out

    def __rmatmul__(self, rows):
        left, right = np.hsplit(rows, 2)
        return np.hstack([left @ self.r + right @ self.h, right @ self.r])


_ORBIT_LEVELS = 8  # a chunk is at most 2^8 steps
_ORBIT_BLOCK = 2**_ORBIT_LEVELS  # steps read out per yielded block


def _orbit_chunk(size):
    """Steps per chunk for an operator of side ``size``: 2^j, j the largest
    j <= 8 with j size <= 2^j, so that the j squarings cost at most the flops
    of 2^j plain steps.  That is 256 up to size 32 and 1 above."""
    return 2 ** max(j for j in range(_ORBIT_LEVELS + 1) if j * size <= 2**j)


def _orbit(a, z0, count, readout):
    """Yield readout @ a^i z0 for i < count as (rows, <= 256) blocks, in order of i.

    With chunk length c = ``_orbit_chunk(a.shape[0])``, the readout rows
    readout @ a^i for i < c are built once by doubling, [L, L a^(2^l)] with one
    squaring of a per level, and so is a^c.  Each block then advances its
    chunk starts z <- a^c z, 256 / c of them, and reads every step of the
    block off them with one product (L stacked) @ (starts).  The chunk length
    depends on a.shape alone and every block is read by a product of one
    shape, so a step's value does not depend on ``count``.  Memory is the
    (rows c) x size stack L, a^c and one block of 256 steps, whatever
    ``count`` is.  ``a`` is a square ndarray or a :class:`_Lower`.
    """
    if count < 1:
        return
    chunk = _orbit_chunk(a.shape[0])
    rows, power = readout, a
    while len(rows) < chunk * len(readout):
        rows = np.concatenate([rows, rows @ power])
        power = power @ power
    starts = np.zeros((_ORBIT_BLOCK // chunk, len(z0)))  # one chunk start per row
    z = z0
    for done in range(0, count, _ORBIT_BLOCK):
        steps = min(_ORBIT_BLOCK, count - done)
        for t in range(-(-steps // chunk)):
            starts[t] = z
            z = power @ z
        # [t, i, row] is readout[row] @ a^i of start t, the step t chunk + i of the block
        vals = (starts @ rows.T).reshape(len(starts), chunk, len(readout)).transpose(2, 0, 1)
        yield vals.reshape(len(readout), _ORBIT_BLOCK)[:, :steps]


def qfi_curve(iso, a, phi, n_values):
    """F_n at each n of the grid ``n_values``, read once, along the polar curve through ``a``.

    Three-term expansion of 4(||dPsi||^2 - |<Psi|dPsi>|^2): a local term,
    a cross term summing transfer-operator images of v* a over all time
    lags, and the mean-phase subtraction.  With rho_i = T_s^i(phi phi*)
    and sigma_i = Tr_K(a_eff rho_i v*), the cross term of F_n is
    sum_{j<=n-2} Tr(H_j b), H_j = T_s(H_{j-1}) + Herm(sigma_j) the Hermitian
    part of W_j = T_s(W_{j-1}) + sigma_j.  On real Hermitian coordinates the
    pair (rho_i, H_{i-1}) is the orbit of [[R, 0], [H_sigma, R]], and the
    three traces are its read-out rows.  :func:`_orbit` yields them 256
    steps at a time by chunked doubling, with chunks of 256 steps up to
    d = 4 and of one step above (its size rule), and the local, phase and
    cross sums carry across blocks by one cumsum each, adding left to right
    as a running total would; F_n is formed only at the requested n.  Time
    is O(max(n) d^4) at most, and memory O(d^4 + 256 d^2 + len(n_values)),
    whatever max(n) is.  Step i of chunk t reads (readout a^i)(a^(c t) z_0),
    c the chunk length, instead of i + c t single steps, which moves the
    last digits only.
    """
    n_values = _n_grid(n_values)
    iso = as_isometry("iso", iso)
    d = iso.d
    a = _as_matrix(iso, a)
    _check_tangent_entries(a)
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
    # traces read Tr(y z) = herm_coords(y) . herm_coords(z); the rows give
    # Tr(rho_i a_eff* a_eff), Tr(rho_i b) and Tr(H_{i-1} b)
    dd = d * d
    readout = np.zeros((3, 2 * dd))
    readout[:2, :dd] = herm_coords(np.stack([dag(a_eff) @ a_eff, b])).real
    readout[2, dd:] = readout[1, :dd]
    z0 = np.zeros(2 * dd)  # rho_0 = phi phi*, H_{-1} = 0
    z0[:dd] = herm_coords(np.outer(phi, phi.conj())).real
    ns = np.array(n_values)
    f = np.empty(len(ns))
    sums = np.zeros((3, 1))  # local, phase, cross over the steps so far
    done = 0
    for vals in _orbit(_Lower(real_transfer(iso), hs), z0, int(ns.max()), readout):
        sums = np.cumsum(np.concatenate([sums[:, -1:], vals], axis=1), axis=1)
        hit = (ns > done) & (ns <= done + vals.shape[1])
        local, phase, cross = sums[:, ns[hit] - done]
        f[hit] = 4.0 * (local + 2.0 * cross - phase**2)
        done += vals.shape[1]
    return f


def qfi_rate(profile, a, b=None):
    """Limit of F_n / n: 4 Re Tr(rho_ss (a_id)* b_id).

    With ``b`` given, a and b are split together, with one factorisation.
    """
    as_profile(profile)
    if b is None:
        sa = sb = split(profile, a)
    else:
        sa, sb = split(profile, np.stack([_as_matrix(profile.iso, a), _as_matrix(profile.iso, b)]))
    return 4.0 * tangent_inner(profile, sa.a_id, sb.a_id).real


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
    as_profile(profile).require_irreducible()
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
    as_profile(profile).require_irreducible()
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
    overlapping positions.  Autocovariance l >= b is Tr(T*^(l-b)(a - m) sigma_Q),
    read off the orbit of R^T from the coordinates of a - m by
    :func:`_orbit`'s chunked doubling: chunks of 256 steps up to d = 5 and
    of one step above, memory O(256 d^2 + d^4) whatever n is.  Centring a
    first gives c_l directly, not as a difference with m^2, so the orbit
    carries no stationary part and its roundoff does not drift with l.  Converges to
    asymptotic_variance as n grows (the triangular weights average out the
    peripheral oscillation).

    ``n`` is one window length, which returns a float, or a sequence of
    them, which returns a list of floats in the same order, repeats
    included.  A grid shares one moment build and one lag sweep up to its
    longest window; each window sums the first N - 1 lags of that sweep in
    the same order as a lone call, so its value is the same to the bit.
    """
    as_profile(profile).require_irreducible()
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
    # on Hermitian coordinates, x -> T*(x) is c -> c @ R and Tr(x y) = c(x) . c(y), so
    # lag l >= b is c R^(l-b) . sq with c = herm_coords(a - m), as Tr(sigma_Q) = m
    sq = herm_coords(sigma_q).real
    c = herm_coords(a - m * np.eye(profile.d)).real
    tail = _orbit(real_transfer(profile.iso).T, c, longest - b, sq[None])
    cs = np.concatenate([cs, *(vals[0] for vals in tail)])
    out = []
    for nwin in windows:
        lags = np.arange(1, nwin)
        # cumsum adds left to right, as the loop total += term would
        terms = np.concatenate([[c0], 2.0 * (1.0 - lags / nwin) * cs[: nwin - 1]])
        out.append(float(np.cumsum(terms)[-1]))
    return out[0] if np.ndim(n) == 0 else out
