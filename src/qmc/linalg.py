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
    "proj_distance",
    "bordered_solve",
    "bordered_eigvec",
    "ENTRY_CAP",
    "over_cap",
]

# Largest real or imaginary part accepted in a tangent or an observable.  The
# functionals of either are at most quadratic in it, so their squares stay
# below 2^800 and leave 2^223 of headroom for the sums over steps, lags and
# matrix entries that follow.
ENTRY_CAP = 2.0**400


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


def unvec(v, shape):
    """Inverse of :func:`vec`: ``v`` as a matrix of ``shape``."""
    return np.asarray(v).reshape(shape, order="F")


def over_cap(x):
    """True when some real or imaginary part of the finite array x exceeds ENTRY_CAP."""
    x = np.asarray(x)
    return bool(max(np.abs(x.real).max(initial=0.0), np.abs(x.imag).max(initial=0.0)) > ENTRY_CAP)


_RSQRT2 = 1.0 / np.sqrt(2.0)


def herm_pairs(d):
    """Index arrays (j, l), j < l, of the off-diagonal Hermitian basis elements."""
    return np.triu_indices(d, 1)


def herm_coords(x):
    """Coordinates Tr(B_b x) of d x d matrices in the Hermitian basis B.

    ``x`` may carry leading batch axes: (..., d, d) maps to (..., d^2).
    Complex in general; real (zero imaginary part) when x is Hermitian.
    """
    x = np.asarray(x)
    j, l = herm_pairs(x.shape[-1])
    up, lo = x[..., j, l], x[..., l, j]
    return np.concatenate(
        [np.diagonal(x, axis1=-2, axis2=-1), (up + lo) * _RSQRT2, 1j * _RSQRT2 * (lo - up)],
        axis=-1,
    )


def herm_vec(c):
    """The d x d matrices sum_b c_b B_b; inverse of :func:`herm_coords`.

    ``c`` may carry leading batch axes: (..., d^2) maps to (..., d, d).
    """
    c = np.asarray(c)
    n = c.shape[-1]
    d = int(round(np.sqrt(n)))
    if d * d != n:
        raise DimensionMismatch(f"cannot map {n} coordinates to a square matrix")
    h = d * (d - 1) // 2
    s, a = c[..., d : d + h] * _RSQRT2, c[..., d + h :] * _RSQRT2
    j, l = herm_pairs(d)
    diag = np.arange(d)
    x = np.zeros(c.shape[:-1] + (d, d), dtype=complex)
    x[..., diag, diag] = c[..., :d]
    x[..., j, l] = s + 1j * a
    x[..., l, j] = s - 1j * a
    return x


def proj_distance(a, b):
    """Distance between matrices modulo a global phase.

    min over phases of ||a - e^{i phi} b||_F, attained at e^{i phi} =
    <b, a> / |<b, a>| (any phase when <b, a> = 0).  The difference is
    formed directly: the closed form sqrt(||a||^2 + ||b||^2 - 2 |<a, b>|)
    cancels, and cannot resolve distances below about 1e-8 ||a||.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} and {b.shape} differ")
    cross = np.vdot(b, a)
    phase = cross / abs(cross) if cross != 0 else 1.0
    return float(np.linalg.norm(a - phase * b))


# Any fixed seed will do: the border of an eigenvector solve only has to be
# generic, i.e. not orthogonal to the left and right eigenvectors.
_BORDER_SEED = 20251018


def bordered_solve(m, shift, col, row, rhs, tail=0.0, adjoint=False):
    """Solve the bordered system [[A - shift 1, col], [row, 0]] [x; s] = [rhs; tail].

    ``A`` is ``m`` (n x n), or its conjugate transpose when ``adjoint`` is
    set.  The adjoint system is written as its transpose [[conj(m) - shift,
    row^T], [col^T, 0]] in C order (a transpose, not a conjugate transpose,
    so the shift stays as given), and the transpose of that array goes to
    ``np.linalg.solve``.  It is F-contiguous, the column-major order LAPACK
    reads, so LAPACK factorises the same matrix, and neither the copy of
    ``m`` nor numpy's copy for LAPACK transposes with strides.
    When ``shift`` is a simple eigenvalue of A, the system is nonsingular
    exactly when ``col`` is not orthogonal to the left eigenvector and
    ``row`` not orthogonal to the right one; the solution is then the
    group-inverse solve of (A - shift 1) x = rhs - s col on {row x = tail}
    (Meyer, SIAM Review 17, 1975).  Returns ``(x, s)``; a singular system
    raises ``LinAlgError``.

    ``rhs`` is one right-hand side of length n, or an (n, m) block of m
    columns, all solved against one LU; ``tail`` is then a scalar or m
    values, and x comes back as (n, m) and s as m values.  The system
    takes its dtype from ``m``, ``shift``, the border and ``rhs``, so a real
    system is factorised in real arithmetic unless a right-hand side is
    complex.
    """
    n = m.shape[0]
    big = np.empty((n + 1, n + 1), dtype=np.result_type(m, shift, col, row))
    if adjoint:
        np.conjugate(m, out=big[:n, :n])
        col, row = row, col  # big is the transpose of the system
    else:
        big[:n, :n] = m
    diag = np.arange(n)
    big[diag, diag] -= shift
    big[:n, n] = col
    big[n, :n] = row
    big[n, n] = 0.0
    rhs = np.asarray(rhs)
    b = np.empty((n + 1,) + rhs.shape[1:], dtype=np.result_type(big, rhs, tail))
    b[:n] = rhs
    b[n] = tail
    sol = np.linalg.solve(big.T if adjoint else big, b)
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
