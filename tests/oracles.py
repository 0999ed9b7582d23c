"""Brute-force reference computations used to cross-check the fast paths.

Everything here works on explicit k^n tensors and plain loops, so it is
only usable for very small n, which is the point: none of it shares code
with the transfer-operator implementations under test.  ``dmu``,
``ergodic_projection`` and ``output_component_vectors`` write out the
paper's formulas on a profile's fields, without argument checks.

The dense-spectral routes at the end are the earlier implementations of
the spectral layer, kept as references: the stationary state and the
peripheral eigen-operator from full ``eig`` calls with eigenvectors, and
the restricted resolvent compressed onto an explicit orthonormal basis of
{x : Tr(rho_ss x) = 0}.  They cost O(d^6) per call and form several
d^2 x d^2 matrices, so use them only for small d.

The complex spectrum route is the one the spectral layer used before it
moved to the real Hermitian-basis matrix: ``eigvals`` of the complex
d^2 x d^2 Schrodinger matrix, and the basis change U whose columns are
vec(B_b), which takes that matrix to the real one as U* T U.
``kraus_real_matrix_complex`` is the earlier build of that real matrix
from the Kraus operators: the same batched product, with the upper and
lower entries gathered as complex arrays and combined by the complex
formulas, whose real and imaginary parts are then scaled into R.

The limit-model routes after them are the per-pair formulas of
``qmc.gaussian`` as they were before its one mode Gram: every inner
product of two mode points is a ``tangent_inner`` call, the perp part is
a_id minus mode 0, and zeta and lambda are explicit sums over k and m.
``mixture_trace_distance_embedded`` is the trace distance as it was
before its closed form: each distinct column of ``mixture_gram`` embedded
through the Gram's square root, and the SVD trace norm of the difference
of the two mixtures.

The statmodel routes after them are the earlier finite-n functionals:
the deformed channel applied n times as n sequential matvecs and by
cost-chosen squarings alone, the QFI
from the full (n-1) x (n-1) Gram of input states against
Heisenberg-summed cross operators, and the variances with one dilation
compression per autocovariance lag.  The QFI and variance routes cost
O(n^2) memory and one b-step dilation per lag respectively.

The two sequential references after them are the QFI and window-variance
sweeps as they were before ``statmodel._orbit`` took over: one interpreter
step per n, the QFI on two real coordinate columns (rho_i, H_{i-1}) with
Python running sums, the window variance by c <- c @ R per lag.  They share
the statmodel set-up (polarised H_sigma, block moments) and differ from the
fast routes only in how the orbit is stepped and read out.

The sampler route at the end is the earlier trajectory step: three
``einsum`` contractions per step on the (t, d, d) batch of conditional
states, with its own Philox substreams per (seed, trial).
"""

import numpy as np

from qmc.channels import (
    DEFAULT_TENSOR_CAP,
    Isometry,
    channel,
    dilation,
    isometry_from_kraus,
    kraus_real_matrix,
    real_transfer,
)
from qmc.ergodic import ErgodicTol, _canonical_z, stationary_eigenbasis
from qmc.errors import DimensionMismatch, GramNotPSD, NotTangent, as_integer
from qmc.gauge import _as_matrix, restricted_resolvent_solve, tangent_inner
from qmc.gaussian import mixture_gram
from qmc.linalg import antiherm_part, dag, herm_coords, herm_part, herm_vec, unvec, vec
from qmc.statmodel import _SQUARING_PRICE, LocalObservable, _block_moments, _unit_vector


def random_isometry(rng, d, k):
    m = rng.standard_normal((d * k, d)) + 1j * rng.standard_normal((d * k, d))
    q, _ = np.linalg.qr(m)
    return q


def random_unitary(rng, d):
    return random_isometry(rng, d, 1)


def chain_state(iso, phi, n):
    """State of system + n output units, output-major, by stepwise kron.

    Returns an array of shape (k**n, d): row w is the (unnormalised)
    conditional system vector after emitting the word w, first emitted
    unit most significant.
    """
    kr = np.stack(iso.kraus)
    psi = np.asarray(phi, dtype=complex).reshape(1, iso.d)
    for _ in range(n):
        # new[(w, u), i] = K_u[i, j] psi[w, j]
        psi = np.einsum("uij,wj->wui", kr, psi).reshape(-1, iso.d)
    return psi


def overlap_oracle(iso1, iso2, phi, n):
    """<Psi_1(n)|Psi_2(n)> for two chain states grown from the same phi."""
    a = chain_state(iso1, phi, n)
    b = chain_state(iso2, phi, n)
    return complex(np.vdot(a.reshape(-1), b.reshape(-1)))


def iterate_sequential(dc, x, n_values, dtype=complex):
    """{n: E^n(x)} for the deformed channel ``dc``, by one run of plain matvecs.

    The sweep goes up to max(n_values) and records the iterate at each
    requested n.  ``dtype`` sets the working precision; np.clongdouble gives
    an extended-precision reference.
    """
    m = np.asarray(dc.superop.m, dtype=dtype)
    x = np.asarray(x, dtype=dtype)
    y = vec(x)
    want = set(int(n) for n in n_values)
    out = {0: x} if 0 in want else {}
    for step in range(1, max(want) + 1):
        y = m @ y
        if step in want:
            out[step] = unvec(y, x.shape)
    return out


def iterate_squared(dc, x, n):
    """E^n(x) by the squaring route of ``DeformedChannel.iterate`` alone.

    The number j of squarings minimises j P + floor(n / 2^j) + (n mod 2^j)
    with P = min(D, _SQUARING_PRICE); M is applied n mod 2^j times, squared
    j times, and M^(2^j) applied floor(n / 2^j) times.  ``iterate`` falls
    back to this when the iterate does not mix, with the same bits.
    """
    m = dc.superop.m
    price = min(m.shape[0], _SQUARING_PRICE)
    j = min(range(n.bit_length() + 1), key=lambda s: s * price + (n >> s) + n % (1 << s))
    y = vec(np.asarray(x, dtype=complex))
    for _ in range(n % (1 << j)):
        y = m @ y
    for _ in range(j):
        m = m @ m
    for _ in range(n >> j):
        y = m @ y
    return unvec(y, tuple(dc.superop.shape_out))


def string_probs(iso, rho, n):
    """Exact outcome-string distribution for unit-by-unit standard readout."""
    kr = list(iso.kraus)
    k = iso.k
    probs = np.zeros(k**n)
    for w in range(k**n):
        digits = []
        rem = w
        for _ in range(n):
            digits.append(rem % k)
            rem //= k
        digits.reverse()  # first emitted unit is the most significant digit
        m = np.eye(iso.d, dtype=complex)
        for u in digits:
            m = kr[u] @ m
        probs[w] = np.trace(m @ rho @ m.conj().T).real
    return probs


def output_component_vectors(iso, profile, n):
    """{(a, i, b, j): psi} with psi[w] = <phi^b_j| K_w |phi^a_i> over the k^n
    words w, first emitted unit most significant; phi is the profile's
    stationary eigenbasis, which may belong to another chain than ``iso``."""
    basis = stationary_eigenbasis(profile)
    vectors = {}
    for a, blk_a in enumerate(basis):
        for i, (_, phi_a) in enumerate(blk_a):
            rows = chain_state(iso, phi_a, n)
            for b, blk_b in enumerate(basis):
                for j, (_, phi_b) in enumerate(blk_b):
                    vectors[(a, i, b, j)] = rows @ phi_b.conj()
    return vectors


def trace_norm(m):
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def cyclic_isometry(rng, d, k, p):
    """Period-p chain: every Kraus operator maps block a into block a+1 mod p.

    For each block the stacked maps H_a -> C^k (x) H_{a+1} form a random
    isometry, so sum_u K_u* K_u = 1.  Returns the (d k, d) matrix.
    """
    size = d // p
    v = np.zeros((d * k, d), dtype=complex)
    for a in range(p):
        w = random_isometry(rng, size, k)  # (k size) x size
        dst = ((a + 1) % p) * size
        for u in range(k):
            v[u::k][dst : dst + size, a * size : (a + 1) * size] = w[u * size : (u + 1) * size]
    return v


def block_diag_chain(rng, d, k, blocks=2):
    """``blocks`` random chains of size d/blocks side by side: reducible,
    with eigenvalue 1 of multiplicity ``blocks``."""
    h = d // blocks
    kraus = []
    for parts in zip(*(Isometry(random_isometry(rng, h, k), h, k).kraus for _ in range(blocks))):
        m = np.zeros((d, d), dtype=complex)
        for b, part in enumerate(parts):
            m[b * h : (b + 1) * h, b * h : (b + 1) * h] = part
        kraus.append(m)
    return isometry_from_kraus(kraus)


def block_upper_chain(rng, d, a, eps, k=2):
    """Gaussian Kraus stack whose lower-left block, the leak out of the
    first a basis vectors, is scaled by eps.

    The QR of the stacked (k d) x d matrix multiplies each K_u on the right
    by the upper-triangular R^-1, which keeps that block eps times a fixed
    matrix.  At eps = 0 the span of the first a basis vectors is invariant
    and the rest decays into it: eigenvalue 1 stays simple, and rho_ss is
    not faithful.
    """
    m = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
    m[:, a:, :a] *= eps
    q, _ = np.linalg.qr(np.concatenate(m))
    return isometry_from_kraus(list(q.reshape(k, d, d)))


def sandwich_map_kron(iso1, iso2):
    """Matrix of X -> sum_u K1_u* X K2_u on vec(X), as a sum of k Kronecker
    products: vec(A X B) = (B^T kron A) vec(X)."""
    m = np.zeros((iso1.d * iso2.d, iso1.d * iso2.d), dtype=complex)
    for k1, k2 in zip(iso1.kraus, iso2.kraus):
        m += np.kron(k2.T, dag(k1))
    return m


def ergodic_projection(profile, rho):
    """Time-average limit E_*(rho) = p sum_a Tr(rho P_a) P_a rho_ss P_a."""
    p = profile.period
    return sum(p * np.trace(rho @ pa) * (pa @ profile.rho_ss @ pa) for pa in profile.projections)


def stationary_state_eig(iso):
    """rho_ss from the eigenvector of T_s closest to eigenvalue 1."""
    evals, evecs = np.linalg.eig(channel(iso, "schrodinger").m)
    rho = herm_part(unvec(evecs[:, int(np.argmin(np.abs(evals - 1.0)))], (iso.d, iso.d)))
    return rho / np.trace(rho).real


def peripheral_eig(iso, p):
    """Canonical (Z, projections) from the eigenvector of T_h at gamma."""
    if p == 1:
        return np.eye(iso.d, dtype=complex), [np.eye(iso.d, dtype=complex)]
    gamma = np.exp(2j * np.pi / p)
    hvals, hvecs = np.linalg.eig(channel(iso, "heisenberg").m)
    u = unvec(hvecs[:, int(np.argmin(np.abs(hvals - gamma)))], (iso.d, iso.d))
    return _canonical_z(u, p)


def herm_basis_unitary(d):
    """d^2 x d^2 unitary whose column b is vec(B_b), B the Hermitian basis."""
    return np.stack([vec(herm_vec(e)) for e in np.eye(d * d)], axis=1)


def kraus_real_matrix_complex(kr):
    """``channels.kraus_real_matrix`` through complex temporaries."""
    d = kr.shape[-1]
    n = d * d
    diag = np.arange(d)
    ju, lu = np.triu_indices(d, 1)
    h = ju.size
    rows_j, rows_l = np.concatenate([diag, ju]), np.concatenate([diag, lu])
    m = kr[:, rows_j, :].transpose(1, 2, 0) @ kr[:, rows_l, :].conj().transpose(1, 0, 2)
    r = np.empty((n, n))

    def put(cols, t, diag_scale, off_scale):
        r[:d, cols] = t[:d].real * diag_scale
        r[d : d + h, cols] = t[d:].real * off_scale
        r[d + h :, cols] = t[d:].imag * off_scale

    s2 = np.sqrt(2.0)
    put(slice(0, d), m[:, diag, diag], 1.0, s2)
    up, lo = m[:, ju, lu], m[:, lu, ju]
    put(slice(d, d + h), up + lo, 1.0 / s2, 1.0)
    put(slice(d + h, n), 1j * (up - lo), 1.0 / s2, 1.0)
    return r


def spectrum_complex(iso):
    """Eigenvalues of the complex Schrodinger matrix."""
    return np.linalg.eigvals(channel(iso, "schrodinger").m)


def spectral_gap_complex(iso, peripheral_band=ErgodicTol().peripheral_band):
    """1 - max |lambda| over the non-peripheral eigenvalues of the complex matrix."""
    mods = np.abs(spectrum_complex(iso))
    return 1.0 - float(np.max(mods[mods < 1.0 - peripheral_band], initial=0.0))


def spectrum_distance(got, ref):
    """Largest distance in a greedy nearest-neighbour matching of two multisets."""
    ref = list(ref)
    worst = 0.0
    for lam in sorted(got, key=lambda z: -abs(z)):
        i = int(np.argmin(np.abs(np.asarray(ref) - lam)))
        worst = max(worst, abs(ref.pop(i) - lam))
    return worst


def resolvent_nullspace(iso, rho_ss, rhs):
    """(x, cond): (1 - T_h) x = rhs compressed onto {Tr(rho_ss x) = 0}."""
    d = iso.d
    th = channel(iso, "heisenberg")
    _, _, vh = np.linalg.svd(vec(rho_ss).conj()[None, :])
    basis = vh[1:].conj().T  # d^2 x (d^2 - 1), orthonormal
    r = basis.conj().T @ (np.eye(d * d) - th.m) @ basis
    b = vec(np.asarray(rhs, dtype=complex))
    y = np.linalg.solve(r, basis.conj().T @ b)
    return unvec(basis @ y, (d, d)), float(np.linalg.cond(r))


def dmu(iso, theta, kgen):
    """Gauge-orbit direction theta v - (kgen (x) 1) v + v kgen of the
    Lie-algebra element (theta, kgen) at v."""
    v = iso.v
    return theta * v - np.kron(kgen, np.eye(iso.k)) @ v + v @ kgen


def split_nullspace(iso, rho_ss, a):
    """(theta_c, kgen, a_id, cond) of the tangent split, via the null-space route."""
    h = iso.v.conj().T @ a
    theta_c = complex(np.trace(rho_ss @ h))
    kgen, cond = resolvent_nullspace(iso, rho_ss, h - theta_c * np.eye(iso.d))
    return theta_c, kgen, a - dmu(iso, theta_c, kgen), cond


def coherent_overlap_pairwise(profile, x, y):
    """exp(-1/2 beta(x-y, x-y) + i sigma(x, y)) of identifiable matrices x, y."""
    g = tangent_inner(profile, x - y, x - y).real
    return complex(np.exp(-0.5 * g + 1j * tangent_inner(profile, x, y).imag))


def _perp_norm2(profile, x):
    perp = x.a_id - x.modes[0]
    return tangent_inner(profile, perp, perp).real


def _eta_hat_pairwise(profile, x, y):
    """eta_hat_k = sum_{m >= 1} gamma^{mk} Tr(rho_ss x_m* y_m), k < p."""
    p = profile.period
    gamma = profile.gamma if p > 1 else 1.0
    eta = [0.0] + [tangent_inner(profile, x.modes[m], y.modes[m]) for m in range(1, p)]
    return [sum(gamma ** (m * k) * eta[m] for m in range(p)) for k in range(p)]


def zeta_pairwise(profile, x, y):
    """<zeta_m(x_perp) | zeta_m(y_perp)>, m < p, of two ModePoints:
    (1/p) e^{-(beta(x_perp, x_perp) + beta(y_perp, y_perp))/2} sum_k gamma^{-mk} e^{eta_hat_k}."""
    p = profile.period
    gamma = profile.gamma if p > 1 else 1.0
    pref = np.exp(-0.5 * (_perp_norm2(profile, x) + _perp_norm2(profile, y))) / p
    eh = np.exp(_eta_hat_pairwise(profile, x, y))
    return np.array([pref * sum(gamma ** (-m * k) * eh[k] for k in range(p)) for m in range(p)])


def lambda_pairwise(profile, x, y):
    """lambda_k, k < p, of two ModePoints: -1/2 beta(x_0 - y_0, x_0 - y_0)
    + i sigma(x_0, y_0) - 1/2 (beta(x_perp, x_perp) + beta(y_perp, y_perp)) + eta_hat_k."""
    d0 = x.modes[0] - y.modes[0]
    base = (
        -0.5 * tangent_inner(profile, d0, d0).real
        + 1j * tangent_inner(profile, x.modes[0], y.modes[0]).imag
        - 0.5 * (_perp_norm2(profile, x) + _perp_norm2(profile, y))
    )
    return np.array([base + eh for eh in _eta_hat_pairwise(profile, x, y)])


def mixture_gram_pairwise(profile, points):
    """(N p) x (N p) Gram of the (point, m) components of N ModePoints: the
    coherent overlap of the mode-0 parts times the m-th zeta Gram, zero
    between different m."""
    p, n = profile.period, len(points)
    gram = np.zeros((n * p, n * p), dtype=complex)
    for i, x in enumerate(points):
        for j, y in enumerate(points):
            block = coherent_overlap_pairwise(profile, x.modes[0], y.modes[0])
            for m, z in enumerate(block * zeta_pairwise(profile, x, y)):
                gram[i * p + m, j * p + m] = z
    return gram


_GRAM_CLIP = 1e-10  # the embedding rejects an eigenvalue below -_GRAM_CLIP, clips the rest at 0


def _embedded_states(gram, groups):
    """Rank-one component sums embedded via the Gram square root.

    Columns of the Gram that are equal entry for entry are one vector, so
    each distinct column is embedded once: equal columns give equal states.
    """
    gram = np.asarray(gram, dtype=complex)
    if not np.isfinite(gram).all():
        raise GramNotPSD("Gram has NaN or Inf entries")
    gram = 0.5 * (gram + dag(gram))
    first = {}  # bytes of a column -> its index among the distinct columns
    slot = [first.setdefault(col.tobytes(), len(first)) for col in gram.T]
    keep = [slot.index(j) for j in range(len(first))]
    w, u = np.linalg.eigh(gram[np.ix_(keep, keep)])
    if w.min() < -_GRAM_CLIP:
        raise GramNotPSD(f"Gram has eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    # kill numerically-zero directions outright: their square roots would
    # otherwise inject sqrt(eps)-size noise into the embedded vectors
    w[w < 1e-13 * max(w.max(), 1.0)] = 0.0
    e = u @ np.diag(np.sqrt(w)) @ dag(u)  # columns realise the Gram
    states = []
    for grp in groups:
        vecs = e[:, [slot[i] for i in grp]]
        states.append(vecs @ dag(vecs))
    return states


def mixture_trace_distance_embedded(profile, x, y):
    """(1/2)||rho(x) - rho(y)||_1 from the embedded states of mixture_gram."""
    gram = mixture_gram(profile, [x, y])
    p = profile.period
    states = _embedded_states(gram, [range(0, p), range(p, 2 * p)])
    return float(0.5 * trace_norm(states[0] - states[1]))


def qfi_gram(iso, a, phi, nmax):
    """F_n for n = 1..nmax from the antidiagonal sums of an (nmax-1)^2 Gram.

    g[i, m] = Tr(rho_i M_m) with rho_i = T_s^i(phi phi*) and
    M_m = v* (S_m (x) 1) a_eff, S_m = sum_{r<=m} T_h^r(b*); the cross term
    of F_n sums the antidiagonal i + m = n - 2.
    """
    d, k = iso.d, iso.k
    v = iso.v
    a = np.asarray(a, dtype=complex)
    h = dag(v) @ a
    a_eff = a - v @ antiherm_part(h)
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


def _compress(iso, x, q, b):
    """W_b* (x (x) q) W_b, rebuilding the b-step dilation on every call."""
    w = dilation(iso, b)
    return dag(w) @ np.kron(x, q) @ w


def _per_lag_moments(profile, q, b, n_lags):
    """(a, m, c0, overlapping-lag autocovariances) of a b-unit observable."""
    iso, d, k = profile.iso, profile.d, profile.k
    eye_d = np.eye(d)
    a = _compress(iso, eye_d, q, b)
    m = float(np.trace(profile.rho_ss @ a).real)
    c0 = float(np.trace(profile.rho_ss @ _compress(iso, eye_d, q @ q, b)).real) - m * m
    lags = []
    for l in range(1, n_lags + 1):
        qa = np.kron(q, np.eye(k**l))
        qb = np.kron(np.eye(k**l), q)
        sym = 0.5 * (qa @ qb + qb @ qa)
        val = np.trace(profile.rho_ss @ _compress(iso, eye_d, sym, b + l)).real
        lags.append(float(val) - m * m)
    return a, m, c0, lags


def asymptotic_variance_per_lag(profile, q, b):
    """sigma^2 with the resolvent tail read off a fresh b-step compression."""
    a, m, c0, lags = _per_lag_moments(profile, q, b, b - 1)
    x = restricted_resolvent_solve(profile, a - m * np.eye(profile.d))
    tail = float(np.trace(profile.rho_ss @ _compress(profile.iso, x, q, b)).real)
    return c0 + 2.0 * sum(lags) + 2.0 * tail


def finite_window_variance_per_lag(profile, q, b, n):
    """Var F_n with one b-step compression per lag beyond the block."""
    nwin = int(n) - b + 1
    a, m, c0, cs = _per_lag_moments(profile, q, b, min(b, nwin) - 1)
    th = channel(profile.iso, "heisenberg")
    cur = a.copy()
    for l in range(b, nwin):
        val = np.trace(profile.rho_ss @ _compress(profile.iso, cur, q, b)).real
        cs.append(float(val) - m * m)
        cur = th(cur)
    total = c0
    for l, c in enumerate(cs, start=1):
        total += 2.0 * (1.0 - l / nwin) * c
    return float(total)


def qfi_sequential(iso, a, phi, nmax):
    """F_n for n = 1..nmax, one interpreter step per n.

    Three-term expansion of 4(||dPsi||^2 - |<Psi|dPsi>|^2): a local term,
    a cross term summing transfer-operator images of v* a over all time
    lags, and the mean-phase subtraction.  With rho_i = T_s^i(phi phi*)
    and sigma_i = Tr_K(a_eff rho_i v*), the cross term of F_n is
    sum_{j<=n-2} Tr(H_j b), H_j = T_s(H_{j-1}) + Herm(sigma_j) the Hermitian
    part of W_j = T_s(W_{j-1}) + sigma_j.  Each step advances the real
    coordinates of rho_i and H_{i-1} and adds the three traces to Python
    running sums; every F_n is kept, so memory grows with nmax.
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


def finite_window_variance_sequential(profile, q, n, cap=DEFAULT_TENSOR_CAP):
    """Exact variance of F_n(Q) over the n-unit window, one step c <- c @ R per lag.

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


def _evolve_batch_einsum(km, states, uniforms):
    """One measurement step on a batch of conditional states."""
    probs = np.einsum("jab,tbc,jac->tj", km, states, km.conj()).real
    np.clip(probs, 0.0, None, out=probs)
    psum = probs.sum(axis=1)
    if np.any(psum < 1e-14):
        raise ValueError("all outcome probabilities vanished along a trajectory")
    cdf = np.cumsum(probs, axis=1) / psum[:, None]
    idx = np.minimum((uniforms[:, None] > cdf).sum(axis=1), km.shape[0] - 1)
    ksel = km[idx]
    new = np.einsum("tab,tbc,tdc->tad", ksel, states, ksel.conj())
    norm = np.einsum("taa->t", new).real
    return idx, new / norm[:, None, None]


def sample_batch_einsum(km, rho_in, n_blocks, seed, trials):
    """(outcomes, final states) of trials 0..trials-1 with the einsum step.

    ``km`` are the block Kraus operators, one per outcome; trial t draws
    its uniforms from Philox seeded with SeedSequence((seed, t)).
    """
    rho_in = np.asarray(rho_in, dtype=complex)
    d = rho_in.shape[0]
    states = np.broadcast_to(rho_in, (trials, d, d)).copy()
    outcomes = np.empty((trials, n_blocks), dtype=np.int64)
    uniforms = np.stack(
        [
            np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, t)))).random(
                n_blocks
            )
            for t in range(trials)
        ]
    )
    for step in range(n_blocks):
        idx, states = _evolve_batch_einsum(km, states, uniforms[:, step])
        outcomes[:, step] = idx
    return outcomes, states
