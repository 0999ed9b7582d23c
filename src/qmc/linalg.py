"""Small dense linear-algebra helpers shared by all modules.

Conventions
-----------
* ``vec`` stacks columns (Fortran order), so ``vec(A X B) = (B^T kron A) vec(X)``.
* Tensor products are Kronecker products in C order: for a bipartite space
  H (x) K with dims (d, k), the flat index of ``(s, u)`` is ``s * k + u``,
  i.e. the first factor is the most significant one.
"""

import numpy as np

from .errors import DimensionMismatch, NotPSD

__all__ = [
    "dag",
    "herm_part",
    "antiherm_part",
    "is_hermitian",
    "vec",
    "unvec",
    "tensor",
    "partial_trace",
    "matrix_sqrt_psd",
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


def is_hermitian(a, tol=1e-10):
    a = np.asarray(a)
    return a.shape[0] == a.shape[1] and np.linalg.norm(a - dag(a)) <= tol * max(
        1.0, np.linalg.norm(a)
    )


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


def tensor(*ops):
    out = np.asarray(ops[0])
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op))
    return out


def partial_trace(rho, dims, keep):
    """Trace out all factors except ``keep`` (0-based) of a product space.

    Parameters
    ----------
    rho : (N, N) array with N = prod(dims)
    dims : sequence of factor dimensions, most significant first
    keep : int, which factor to keep
    """
    dims = tuple(int(d) for d in dims)
    n = int(np.prod(dims))
    rho = np.asarray(rho)
    if rho.shape != (n, n):
        raise DimensionMismatch(f"state shape {rho.shape} does not match dims {dims}")
    m = len(dims)
    t = rho.reshape(dims + dims)
    # contract factors in decreasing order so the row position of factor f
    # stays equal to f at the moment it is traced out
    for f in reversed(range(m)):
        if f == keep:
            continue
        t = np.trace(t, axis1=f, axis2=f + t.ndim // 2)
    return t


def matrix_sqrt_psd(a, tol=1e-10):
    """Hermitian PSD square root via eigh.

    Eigenvalues in ``[-tol, 0)`` are clipped to zero; anything lower raises
    :class:`NotPSD`.
    """
    a = np.asarray(a)
    w, u = np.linalg.eigh(herm_part(a))
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 1.0)
    if np.min(w) < -tol * scale:
        raise NotPSD(f"minimum eigenvalue {np.min(w):.3e} below -{tol:.1e} * scale")
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ dag(u)


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
    """
    n = m.shape[0]
    big = np.empty((n + 1, n + 1), dtype=complex)
    if adjoint:
        np.conjugate(m.T, out=big[:n, :n])
    else:
        big[:n, :n] = m
    diag = np.arange(n)
    big[diag, diag] -= shift
    big[:n, n] = col
    big[n, :n] = row
    big[n, n] = 0.0
    b = np.empty(n + 1, dtype=complex)
    b[:n] = rhs
    b[n] = tail
    sol = np.linalg.solve(big, b)
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
