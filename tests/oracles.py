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
"""

import numpy as np

from qmc.channels import channel
from qmc.ergodic import ErgodicTol, _canonical_z
from qmc.linalg import herm_part, unvec, vec


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


def stationary_state_eig(iso):
    """rho_ss from the eigenvector of T_s closest to eigenvalue 1."""
    evals, evecs = np.linalg.eig(channel(iso, "schrodinger").m)
    rho = herm_part(unvec(evecs[:, int(np.argmin(np.abs(evals - 1.0)))]))
    return rho / np.trace(rho).real


def peripheral_eig(iso, p):
    """Canonical (Z, projections) from the eigenvector of T_h at gamma."""
    if p == 1:
        return np.eye(iso.d, dtype=complex), [np.eye(iso.d, dtype=complex)]
    gamma = np.exp(2j * np.pi / p)
    hvals, hvecs = np.linalg.eig(channel(iso, "heisenberg").m)
    u = unvec(hvecs[:, int(np.argmin(np.abs(hvals - gamma)))])
    return _canonical_z(u, p, ErgodicTol())


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
