"""Isometries, transfer operators and dilations.

An isometry ``v`` maps the system space H (dim d) into H (x) K (dim d*k).
Rows of ``v`` are indexed by the pair ``(s, u)`` flattened in C order with
the system index ``s`` most significant, so the Kraus operator attached to
unit vector ``|u>`` is the row slice ``v[u::k]``:

    K_u[s, :] = v[s * k + u, :]        (d x d each, sum_u K_u* K_u = 1)

The transfer operators

    schrodinger   rho  -> sum_u K_u rho K_u*
    heisenberg    X    -> sum_u K_u* X K_u

are adjoint under the Hilbert-Schmidt duality Tr(T*(rho) X) = Tr(rho T(X)).
Both preserve Hermiticity, so in the orthonormal Hermitian basis of
``qmc.linalg.herm_coords`` the Schrodinger map is a real matrix R
(``real_transfer``), the Heisenberg map is R^T, and every channel-level
functional runs on R.  ``channel``, the complex matrix on column-stacked
``vec``, is kept as the reference route; otherwise only the sandwich map,
which does not preserve Hermiticity, uses that ``vec``.  The iterative
spectral stages apply a map X -> sum_u A_u X B_u in Kraus form instead,
through ``kraus_step``, at O(k d^3) an operand and without any d^2 x d^2
matrix.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NotIsometry,
    SizeCap,
    UnitDimMismatch,
    as_complex_array,
    as_integer,
    as_vector,
)
from .linalg import dag, herm_pairs, unvec, vec

__all__ = [
    "Isometry",
    "as_isometry",
    "Superoperator",
    "isometry_from_kraus",
    "channel",
    "real_transfer",
    "kraus_real_matrix",
    "kraus_step",
    "sandwich_map",
    "dilation",
    "apply_steps",
    "block_length",
    "DEFAULT_TENSOR_CAP",
]

DEFAULT_TENSOR_CAP = 4096


@dataclass(frozen=True)
class Isometry:
    """Isometric encoding of a quantum Markov chain step.

    Attributes
    ----------
    v : (d*k, d) complex ndarray with v* v = 1
    d : system dimension
    k : unit (noise) dimension
    """

    v: np.ndarray
    d: int
    k: int

    def __post_init__(self):
        v = np.ascontiguousarray(as_complex_array("isometry", self.v))
        object.__setattr__(self, "v", v)
        dims = (self.d, self.k)
        if not all(isinstance(n, (int, np.integer)) and n is not True and n >= 1 for n in dims):
            raise DimensionMismatch(f"dimensions d={self.d!r}, k={self.k!r} must be positive")
        if v.shape != (self.d * self.k, self.d):
            raise DimensionMismatch(
                f"matrix shape {v.shape} does not match (d*k, d) = ({self.d * self.k}, {self.d})"
            )
        if not np.isfinite(v).all():
            raise NotIsometry("matrix has NaN or Inf entries")
        defect = np.linalg.norm(dag(v) @ v - np.eye(self.d))
        if not (defect <= 1e-8):
            raise NotIsometry(f"v* v - 1 has norm {defect:.3e} (tolerance 1e-8)")

    @property
    def kraus(self):
        """List of the k Kraus operators K_u = v[u::k]."""
        return [self.v[u :: self.k] for u in range(self.k)]

    def __eq__(self, other):
        return (
            isinstance(other, Isometry)
            and self.d == other.d
            and self.k == other.k
            and np.array_equal(self.v, other.v)
        )

    def __hash__(self):
        # adding 0.0 turns -0.0 into 0.0, which __eq__ treats as equal
        return hash((self.d, self.k, (self.v + 0.0).tobytes()))


def as_isometry(name, value):
    """The chain reader: ``value`` when it is an Isometry, else DimensionMismatch."""
    if not isinstance(value, Isometry):
        raise DimensionMismatch(f"{name} must be an Isometry, got a {type(value).__name__}")
    return value


def isometry_from_kraus(kraus):
    """Assemble an :class:`Isometry` (it checks sum K* K = 1) from d x d Kraus operators."""
    kraus = [as_complex_array("Kraus operator", K) for K in kraus]
    if not kraus:
        raise UnitDimMismatch("empty Kraus family")
    d = kraus[0].shape[0]
    for K in kraus:
        if K.shape != (d, d):
            raise UnitDimMismatch(f"Kraus shapes differ: {K.shape} vs ({d}, {d})")
    k = len(kraus)
    v = np.zeros((d * k, d), dtype=complex)
    for u, K in enumerate(kraus):
        v[u::k] = K
    return Isometry(v, d, k)


@dataclass(frozen=True)
class Superoperator:
    """Dense matrix of a linear map on column-stacked d1 x d2 matrices."""

    m: np.ndarray
    shape_in: tuple
    shape_out: tuple

    def __post_init__(self):
        object.__setattr__(self, "m", np.asarray(self.m, dtype=complex))

    def __call__(self, x):
        x = as_complex_array("operand", x)
        if x.shape != tuple(self.shape_in):
            raise DimensionMismatch(
                f"operand shape {x.shape} incompatible with map input {self.shape_in}"
            )
        return unvec(self.m @ vec(x), tuple(self.shape_out))

    def spectral_radius(self):
        return float(np.max(np.abs(np.linalg.eigvals(self.m))))


def channel(iso, picture="schrodinger"):
    """Complex transfer matrix of the chain on column-stacked ``vec``.

    ``schrodinger`` propagates states, ``heisenberg`` observables.  The two
    matrices are mutually adjoint for the Hilbert-Schmidt inner product.
    A reference route: the package computes with :func:`real_transfer`.
    """
    iso = as_isometry("iso", iso)
    if picture not in ("schrodinger", "heisenberg"):
        raise DimensionMismatch(f"unknown picture {picture!r}")
    kraus = iso.kraus
    d = iso.d
    m = np.zeros((d * d, d * d), dtype=complex)
    for K in kraus:
        if picture == "schrodinger":
            m += np.kron(K.conj(), K)
        else:
            m += np.kron(K.T, dag(K))
    return Superoperator(m, (d, d), (d, d))


def real_transfer(iso):
    """Schrodinger transfer operator as a real d^2 x d^2 matrix R.

    R[a, b] = Tr(B_a T(B_b)) in the Hermitian basis B of
    ``qmc.linalg.herm_coords``; the Heisenberg matrix in that basis is R^T.
    """
    return kraus_real_matrix(np.stack(as_isometry("iso", iso).kraus))


@functools.cache
def _real_matrix_index(d):
    """Row gathers and float64 column gathers of ``kraus_real_matrix`` at d.

    Rows list the entries j <= l (diagonal first, then ``herm_pairs``);
    each column gather is a (2, w) array of the float64 columns of
    Re T(E_pq) and Im T(E_pq) for the diagonal (p, p), the upper (j, l) and
    the lower (l, j) entries.
    """
    diag = np.arange(d)
    ju, lu = herm_pairs(d)
    rows_j, rows_l = np.concatenate([diag, ju]), np.concatenate([diag, lu])
    cols = [np.stack([2 * c, 2 * c + 1]) for c in (diag * (d + 1), ju * d + lu, lu * d + ju)]
    out = (rows_j, rows_l, *cols)
    for a in out:
        a.flags.writeable = False
    return out


def kraus_real_matrix(kr):
    """Real d^2 x d^2 matrix of rho -> sum_u K_u rho K_u* for a (k, d, d) stack.

    Column b holds the coordinates of the Hermitian T(B_b), so only the
    rows j <= l of T(E_pq)[j, l] = sum_u K_u[j, p] conj(K_u[l, q]) are
    formed, straight from the Kraus operators: O(k d^4) work and no complex
    d^2 x d^2 intermediate.  Their real and imaginary parts are gathered
    from a float64 view of that product, and real ufuncs write each block
    of R in place (``out=``) with the arithmetic of the complex formulas
    (1j z has real part 0 Re z - Im z), so R keeps every bit of them,
    signed zeros included.
    """
    d = kr.shape[-1]
    n = d * d
    h = (n - d) // 2
    rows_j, rows_l, c_diag, c_up, c_lo = _real_matrix_index(d)
    # m[r, p, q] = T(E_pq)[j_r, l_r] for the rows j_r <= l_r
    m = kr[:, rows_j, :].transpose(1, 2, 0) @ kr[:, rows_l, :].conj().transpose(1, 0, 2)
    f = m.reshape(d + h, n).view(np.float64)
    # (d + h, 2, w) each: [:, 0] the real parts, [:, 1] the imaginary parts
    dg, up, lo = (f.take(c, axis=1) for c in (c_diag, c_up, c_lo))
    del m, f
    r = np.empty((n, n))
    # rows d: of R are the real parts of the rows j < l, then their
    # imaginary parts; the 1/sqrt 2 of a basis row and of a basis column
    # fold into one factor, which is 1 unless exactly one of them is diagonal
    s2 = np.sqrt(2.0)
    rs2 = 1.0 / s2
    diag, sym, anti = slice(0, d), slice(d, d + h), slice(d + h, n)

    def lower(cols, w):
        return r[d:, cols].reshape(2, h, w).transpose(1, 0, 2)

    r[:d, diag] = dg[:d, 0]
    np.multiply(dg[d:], s2, out=lower(diag, d))
    # symmetric columns: t = up + lo
    np.add(up[:d, 0], lo[:d, 0], out=r[:d, sym])
    np.multiply(r[:d, sym], rs2, out=r[:d, sym])
    np.add(up[d:], lo[d:], out=lower(sym, h))
    # antisymmetric columns: t = 1j (up - lo) = 1j (a + i b), so
    # Re t = 0 a - b and Im t = 0 b + a
    ab = np.subtract(up, lo, out=up)
    a, b = ab[:, 0], ab[:, 1]
    za = np.multiply(a, 0.0, out=lo[:, 0])
    zb = np.multiply(b[d:], 0.0, out=lo[d:, 1])
    np.subtract(za[:d], b[:d], out=r[:d, anti])
    np.multiply(r[:d, anti], rs2, out=r[:d, anti])
    np.subtract(za[d:], b[d:], out=r[d : d + h, anti])
    np.add(zb, a[d:], out=r[d + h :, anti])
    return r


def kraus_step(a, b):
    """The map X -> sum_u A_u X B_u, for (k, d, d) stacks a and b, as a function.

    The function takes one d x d matrix or an (m, d, d) stack of them and
    returns an array of the same shape, at O(k d^3) an operand: the products
    X B_u are one batched product, stacked into a (k d) x d array per
    operand, and the row [A_1, ..., A_k], built once here, sums them in one
    more.  With A = K and B = K* it is the Schrodinger map of
    ``kraus_real_matrix``, with A = K1* and B = K2 the sandwich map.
    """
    k, d = b.shape[0], b.shape[-1]
    row = np.ascontiguousarray(np.concatenate(a, axis=1))  # [A_1, ..., A_k]
    b = np.ascontiguousarray(b)

    def apply(x):
        if x.ndim == 2:
            return row @ (x @ b).reshape(k * d, d)
        return row @ (x[:, None] @ b).reshape(len(x), k * d, d)

    return apply


def sandwich_map(iso1, iso2):
    """Two-sided deformed transfer operator X -> sum_u K1_u* X K2_u.

    Operands X are d1 x d2 matrices; the map is returned as a dense matrix
    acting on vec(X).  Its spectral radius is at most 1 (up to roundoff)
    because the K1 and K2 families each resolve the identity.

    Its entry at ((i, j), (s, l)) is sum_u K2_u[s, i] conj(K1_u[l, j]), so
    the matrix is one (D x k)(k x D) product of the flattened Kraus stacks,
    D = d1 d2, followed by a transpose of the index pairs.
    """
    iso1, iso2 = as_isometry("iso1", iso1), as_isometry("iso2", iso2)
    if iso1.k != iso2.k:
        raise UnitDimMismatch(f"unit dimensions differ: {iso1.k} vs {iso2.k}")
    d1, d2, k = iso1.d, iso2.d, iso1.k
    k1 = np.stack(iso1.kraus).reshape(k, d1 * d1)
    k2 = np.stack(iso2.kraus).reshape(k, d2 * d2)
    # prod[(s, i), (l, j)] = sum_u K2_u[s, i] conj(K1_u[l, j])
    prod = (k2.T @ k1.conj()).reshape(d2, d2, d1, d1)
    m = prod.transpose(1, 3, 0, 2).reshape(d2 * d1, d2 * d1)
    return Superoperator(m, (d1, d2), (d1, d2))


def block_length(dim, k):
    """The block length b with k**b == dim, for operands on b output units.

    A 1 x 1 operand at k = 1 has block 1; any other size that is not a
    power of k raises DimensionMismatch; a dim that is not an integer, or a
    k that is not an integer >= 1, raises InvalidCount.
    """
    dim = as_integer("dim", dim)
    k = as_integer("k", k, 1)
    b = 1 if k == 1 else 0
    while k > 1 and k**b < dim:
        b += 1
    if k**b != dim:
        raise DimensionMismatch(f"size {dim} is not a power of the unit dimension {k}")
    return b


def dilation(iso, n, cap=DEFAULT_TENSOR_CAP):
    """Matrix of the n-step dilation H -> H (x) K^n.

    Row index is ``(s, u_1, ..., u_n)`` in C order; ``u_1`` is the first
    emitted unit, i.e. the leftmost (most significant) unit factor.
    """
    iso = as_isometry("iso", iso)
    psi = _steps(iso, np.eye(iso.d, dtype=complex), n, cap)  # (s, column j, u_1, ..., u_n)
    return np.moveaxis(psi, 1, -1).reshape(-1, iso.d)


def apply_steps(iso, phi, n):
    """Apply n chain steps to a system vector, keeping the full output tensor.

    Returns an ndarray of shape (d, k, ..., k) with the system axis first and
    unit axes in chronological order (axis 1 = first emitted).  ``phi``
    must be a finite vector of d entries, else DimensionMismatch.
    """
    iso = as_isometry("iso", iso)
    return _steps(iso, as_vector("phi", phi, iso.d), n, DEFAULT_TENSOR_CAP)


def _steps(iso, psi, n, cap):
    """psi, of shape (d, ...), after n steps: (d, ..., k, ..., k); SizeCap if k^n > cap."""
    d, k = iso.d, iso.k
    n = as_integer("n", n, 0)
    if k**n > as_integer("cap", cap):
        raise SizeCap(f"k^n = {k**n} exceeds cap {cap}")
    vt = iso.v.reshape(d, k, d)  # vt[s, u, h] = v[(s, u), h]
    for _ in range(n):
        # contract the system axis, append the fresh unit axis at the end,
        # then move it to sit right after the existing unit axes
        psi = np.einsum("suh,h...->s...u", vt, psi)
    return psi
