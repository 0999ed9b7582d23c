"""Brute-force reference computations used to cross-check the fast paths.

Everything here works on explicit k^n tensors and plain loops, so it is
only usable for very small n, which is the point: none of it shares code
with the transfer-operator implementations under test.

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

The statmodel routes after them are the earlier finite-n functionals:
the deformed channel applied n times as n sequential matvecs, the QFI
from the full (n-1) x (n-1) Gram of input states against
Heisenberg-summed cross operators, and the variances with one dilation
compression per autocovariance lag.  The QFI and variance routes cost
O(n^2) memory and one b-step dilation per lag respectively.

The sampler route at the end is the earlier trajectory step: three
``einsum`` contractions per step on the (t, d, d) batch of conditional
states, with its own Philox substreams per (seed, trial).
"""

import numpy as np

from qmc.channels import channel, dilation
from qmc.ergodic import ErgodicTol, _canonical_z
from qmc.gauge import restricted_resolvent_solve
from qmc.linalg import antiherm_part, dag, herm_part, herm_vec, unvec, vec


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


def sandwich_map_kron(iso1, iso2):
    """Matrix of X -> sum_u K1_u* X K2_u on vec(X), as a sum of k Kronecker
    products: vec(A X B) = (B^T kron A) vec(X)."""
    m = np.zeros((iso1.d * iso2.d, iso1.d * iso2.d), dtype=complex)
    for k1, k2 in zip(iso1.kraus, iso2.kraus):
        m += np.kron(k2.T, dag(k1))
    return m


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


def split_nullspace(iso, rho_ss, a):
    """(theta_c, kgen, a_id, cond) of the tangent split, via the null-space route."""
    v = iso.v
    h = v.conj().T @ a
    theta_c = complex(np.trace(rho_ss @ h))
    kgen, cond = resolvent_nullspace(iso, rho_ss, h - theta_c * np.eye(iso.d))
    dmu = theta_c * v - np.kron(kgen, np.eye(iso.k)) @ v + v @ kgen
    return theta_c, kgen, a - dmu, cond


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
