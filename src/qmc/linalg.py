"""Small dense linear-algebra helpers shared by all modules.

Conventions
-----------
* ``vec`` stacks columns (Fortran order), so ``vec(A X B) = (B^T kron A) vec(X)``.
* Tensor products are Kronecker products in C order: for a bipartite space
  H (x) K with dims (d, k), the flat index of ``(s, u)`` is ``s * k + u``,
  i.e. the first factor is the most significant one.
* The Hermitian operator basis of :func:`herm_coords` lists the d matrices
  E_jj, then (E_jl + E_lj)/sqrt 2 and then i (E_jl - E_lj)/sqrt 2, each over
  the pairs j < l of :func:`herm_pairs`.  It is orthonormal, so a
  Hermiticity-preserving map is a real matrix in it.
"""

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "dag",
    "herm_part",
    "antiherm_part",
    "vec",
    "unvec",
    "herm_pairs",
    "herm_coords",
    "herm_vec",
    "trace_norm",
    "proj_distance",
    "bordered_solve",
    "bordered_eigvec",
]


def dag(a):
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def herm_part(a):
    return 0.5 * (a + dag(a))


def antiherm_part(a):
    return 0.5 * (a - dag(a))


def vec(x):
    """Column-stacking vectorisation."""
    return np.asarray(x).reshape(-1, order="F")


def unvec(v, shape=None):
    """Inverse of :func:`vec`. Square target inferred when ``shape`` is None."""
    v = np.asarray(v)
    if shape is None:
        n = int(round(np.sqrt(v.size)))
        if n * n != v.size:
            raise DimensionMismatch(f"cannot unvec length {v.size} into a square matrix")
        shape = (n, n)
    return v.reshape(shape, order="F")


_RSQRT2 = 1.0 / np.sqrt(2.0)


def herm_pairs(d):
    """Index arrays (j, l), j < l, of the off-diagonal Hermitian basis elements."""
    return np.triu_indices(d, 1)


def herm_coords(x):
    """Coordinates Tr(B_b x) of a d x d matrix in the Hermitian basis B.

    Complex in general; real (zero imaginary part) when x is Hermitian.
    """
    x = np.asarray(x)
    j, l = herm_pairs(x.shape[0])
    up, lo = x[j, l], x[l, j]
    return np.concatenate([np.diagonal(x), (up + lo) * _RSQRT2, 1j * _RSQRT2 * (lo - up)])


def herm_vec(c):
    """The d x d matrix sum_b c_b B_b; inverse of :func:`herm_coords`."""
    c = np.asarray(c)
    d = int(round(np.sqrt(c.size)))
    if d * d != c.size:
        raise DimensionMismatch(f"cannot map {c.size} coordinates to a square matrix")
    h = d * (d - 1) // 2
    s, a = c[d : d + h] * _RSQRT2, c[d + h :] * _RSQRT2
    j, l = herm_pairs(d)
    x = np.zeros((d, d), dtype=complex)
    x[np.arange(d), np.arange(d)] = c[:d]
    x[j, l] = s + 1j * a
    x[l, j] = s - 1j * a
    return x


def trace_norm(a):
    """Sum of singular values."""
    return float(np.sum(np.linalg.svd(np.asarray(a), compute_uv=False)))


def proj_distance(a, b):
    """Distance between matrices modulo a global phase.

    min over phases of ||a - e^{i phi} b||_F, which equals
    sqrt(||a||^2 + ||b||^2 - 2 |<a, b>|).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} and {b.shape} differ")
    na2 = float(np.vdot(a, a).real)
    nb2 = float(np.vdot(b, b).real)
    cross = abs(np.vdot(a, b))
    return float(np.sqrt(max(na2 + nb2 - 2.0 * cross, 0.0)))


# Any fixed seed will do: the border of an eigenvector solve only has to be
# generic, i.e. not orthogonal to the left and right eigenvectors.
_BORDER_SEED = 20251018


def bordered_solve(m, shift, col, row, rhs, tail=0.0, adjoint=False):
    """Solve the bordered system [[A - shift 1, col], [row, 0]] [x; s] = [rhs; tail].

    ``A`` is ``m`` (n x n), or its conjugate transpose when ``adjoint`` is
    set, which is then written into the system without a separate copy.
    When ``shift`` is a simple eigenvalue of A, the system is nonsingular
    exactly when ``col`` is not orthogonal to the left eigenvector and
    ``row`` not orthogonal to the right one; the solution is then the
    group-inverse solve of (A - shift 1) x = rhs - s col on {row x = tail}
    (Meyer, SIAM Review 17, 1975).  Returns ``(x, s)``; a singular system
    raises ``LinAlgError``.

    The system takes its dtype from ``m``, ``shift`` and the border, so a
    real system is factorised in real arithmetic; a complex right-hand
    side is then solved as two real columns.
    """
    n = m.shape[0]
    big = np.empty((n + 1, n + 1), dtype=np.result_type(m, shift, col, row))
    if adjoint:
        np.conjugate(m.T, out=big[:n, :n])
    else:
        big[:n, :n] = m
    diag = np.arange(n)
    big[diag, diag] -= shift
    big[:n, n] = col
    big[n, :n] = row
    big[n, n] = 0.0
    b = np.empty(n + 1, dtype=np.result_type(big, rhs, tail))
    b[:n] = rhs
    b[n] = tail
    if b.dtype == big.dtype:
        sol = np.linalg.solve(big, b)
    else:
        re_im = np.linalg.solve(big, np.stack([b.real, b.imag], axis=1))
        sol = re_im[:, 0] + 1j * re_im[:, 1]
    return sol[:n], sol[n]


def bordered_eigvec(m, lam, adjoint=False):
    """Eigenvector of ``m`` (or of m* when ``adjoint``) for a simple eigenvalue.

    Solves the bordered system against ``m - lam`` with a fixed, seeded,
    generic border instead of computing all eigenvectors.  Returns
    ``(u, residual)`` with the relative residual ||A u - lam u|| / ||u||.
    """
    n = m.shape[0]
    rng = np.random.default_rng(_BORDER_SEED)
    col, row = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    u, _ = bordered_solve(m, lam, col, row, np.zeros(n), 1.0, adjoint=adjoint)
    image = (u.conj() @ m).conj() if adjoint else m @ u
    return u, float(np.linalg.norm(image - lam * u) / np.linalg.norm(u))
