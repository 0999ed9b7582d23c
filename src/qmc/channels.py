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
which does not preserve Hermiticity, uses that ``vec``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotIsometry, SizeCap, UnitDimMismatch, as_integer
from .linalg import dag, herm_pairs, unvec, vec

__all__ = [
    "Isometry",
    "Superoperator",
    "isometry_from_kraus",
    "channel",
    "real_transfer",
    "kraus_real_matrix",
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
        v = np.ascontiguousarray(np.asarray(self.v, dtype=complex))
        object.__setattr__(self, "v", v)
        if self.d < 1 or self.k < 1:
            raise DimensionMismatch(f"dimensions d={self.d}, k={self.k} must be positive")
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


def isometry_from_kraus(kraus):
    """Assemble an :class:`Isometry` (it checks sum K* K = 1) from d x d Kraus operators."""
    kraus = [np.asarray(K, dtype=complex) for K in kraus]
    if not kraus:
        raise UnitDimMismatch("empty Kraus family")
    d = kraus[0].shape[0]
    for K in kraus:
        if K.shape != (d, d):
            raise UnitDimMismatch(f"Kraus shapes differ: {K.shape} vs ({d}, {d})")
    k = len(kraus)
    # Isometry repeats this check, but its message names v, not the Kraus operators
    if not all(np.isfinite(K).all() for K in kraus):
        raise NotIsometry("Kraus operators have NaN or Inf entries")
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
        x = np.asarray(x, dtype=complex)
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
    if picture not in ("schrodinger", "heisenberg"):
        raise ValueError(f"unknown picture {picture!r}")
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
    return kraus_real_matrix(np.stack(iso.kraus))


def kraus_real_matrix(kr):
    """Real d^2 x d^2 matrix of rho -> sum_u K_u rho K_u* for a (k, d, d) stack.

    Column b holds the coordinates of the Hermitian T(B_b), so only the
    rows j <= l of T(E_pq)[j, l] = sum_u K_u[j, p] conj(K_u[l, q]) are
    formed, straight from the Kraus operators: O(k d^4) work and no complex
    d^2 x d^2 intermediate.
    """
    d = kr.shape[-1]
    n = d * d
    diag = np.arange(d)
    ju, lu = herm_pairs(d)
    h = ju.size
    rows_j = np.concatenate([diag, ju])
    rows_l = np.concatenate([diag, lu])
    # m[r, p, q] = T(E_pq)[j_r, l_r] for the rows j_r <= l_r
    m = kr[:, rows_j, :].transpose(1, 2, 0) @ kr[:, rows_l, :].conj().transpose(1, 0, 2)
    r = np.empty((n, n))

    def put(cols, t, diag_scale, off_scale):
        # coordinates of Hermitian images from their upper-triangle entries
        # t; the 1/sqrt 2 of a basis row and of a basis column fold into
        # one factor, which is 1 unless exactly one of them is diagonal
        r[:d, cols] = t[:d].real * diag_scale
        r[d : d + h, cols] = t[d:].real * off_scale
        r[d + h :, cols] = t[d:].imag * off_scale

    s2 = np.sqrt(2.0)
    put(slice(0, d), m[:, diag, diag], 1.0, s2)
    up, lo = m[:, ju, lu], m[:, lu, ju]
    del m
    put(slice(d, d + h), up + lo, 1.0 / s2, 1.0)
    put(slice(d + h, n), 1j * (up - lo), 1.0 / s2, 1.0)
    return r


def sandwich_map(iso1, iso2):
    """Two-sided deformed transfer operator X -> sum_u K1_u* X K2_u.

    Operands X are d1 x d2 matrices; the map is returned as a dense matrix
    acting on vec(X).  Its spectral radius is at most 1 (up to roundoff)
    because the K1 and K2 families each resolve the identity.

    Its entry at ((i, j), (s, l)) is sum_u K2_u[s, i] conj(K1_u[l, j]), so
    the matrix is one (D x k)(k x D) product of the flattened Kraus stacks,
    D = d1 d2, followed by a transpose of the index pairs.
    """
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
    power of k raises DimensionMismatch.
    """
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
    cols = []
    eye = np.eye(iso.d, dtype=complex)
    for j in range(iso.d):
        psi = apply_steps(iso, eye[:, j], n, cap=cap)
        cols.append(psi.reshape(-1))
    return np.stack(cols, axis=1)


def apply_steps(iso, phi, n, cap=DEFAULT_TENSOR_CAP):
    """Apply n chain steps to a system vector, keeping the full output tensor.

    Returns an ndarray of shape (d, k, ..., k) with the system axis first and
    unit axes in chronological order (axis 1 = first emitted).  ``phi``
    must be a finite vector of d entries, else DimensionMismatch.
    """
    d, k = iso.d, iso.k
    n = as_integer("n", n, 0)
    if k**n > cap:
        raise SizeCap(f"k^n = {k**n} exceeds cap {cap}")
    phi = np.asarray(phi, dtype=complex)
    if phi.size != d or not np.isfinite(phi).all():
        raise DimensionMismatch(f"phi must be a finite vector of length {d}, got shape {phi.shape}")
    phi = phi.reshape(d)
    vt = iso.v.reshape(d, k, d)  # vt[s, u, h] = v[(s, u), h]
    psi = phi
    for _ in range(n):
        # contract the system axis, append the fresh unit axis at the end,
        # then move it to sit right after the existing unit axes
        psi = np.einsum("suh,h...->s...u", vt, psi)
    return psi
