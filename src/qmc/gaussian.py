"""Limit Gaussian and mixed-Gaussian models as finite Gram computations.

Every quantity of the limit model used here (coherent overlaps, the
orthogonal zeta components of a displaced vacuum under the cyclic
symmetry, convergence exponents lambda_k, trace distances between
mixtures) reduces to closed-form Gram matrices over finitely many
component vectors, so no Fock-space truncation is ever built.

Identifiable tangents decompose into modes A_0..A_{p-1} (eigencomponents
of the stabiliser action); mode 0 drives the coherent factor, the
remaining modes ("perp" part) drive the zeta components.  The modes are
mutually orthogonal, so one Gram of the per-mode inner products of a set
of points gives every pairwise quantity (:func:`_mode_gram`).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GramNotPSD, IndexOutOfRange, ProfileMismatch, as_integer
from .gauge import _as_matrix, _require_identifiable, mode_decompose, split
from .ergodic import as_profile, stationary_eigenbasis

__all__ = [
    "ModePoint",
    "mode_point",
    "zeta_gram",
    "lambda_k",
    "predicted_component_limit",
    "mixture_gram",
    "mixture_trace_distance",
]

_PSD_TOL = 1e-9  # mixture_gram rejects a Gram eigenvalue below -_PSD_TOL
_PARALLEL = 1e-13  # mixture_trace_distance reads det_m <= _PARALLEL a_m b_m as 0


@dataclass(frozen=True)
class ModePoint:
    """Identifiable tangent held as its cyclic mode decomposition.

    ``modes`` holds p (d k, d) matrices, p the profile's period, each
    identifiable for the profile's chain; construction checks this once
    (DimensionMismatch, NotIdentifiable), so the functions that read a
    ModePoint do not check its modes again.  The tangent is their sum.
    """

    profile: object
    modes: list

    def __post_init__(self):
        profile = as_profile(self.profile)
        profile.require_irreducible()
        if not np.iterable(self.modes):
            raise DimensionMismatch(f"modes must be a sequence, got a {type(self.modes).__name__}")
        modes = [_require_identifiable(profile.iso, m) for m in self.modes]
        if len(modes) != profile.period:
            raise DimensionMismatch(f"{len(modes)} modes, expected the period p = {profile.period}")
        object.__setattr__(self, "modes", modes)

    @property
    def a_id(self):
        """The identifiable tangent: the sum of the modes."""
        return sum(self.modes)


def mode_point(profile, a):
    """Wrap a tangent as a ModePoint, splitting off any gauge component.

    ``a`` is one (d k, d) tangent, which returns a ModePoint, or an
    (m, d k, d) stack, which returns a list of m ModePoints from one
    :func:`gauge.split` of the whole stack.
    """
    s = split(profile, a)
    if isinstance(s, list):
        return [ModePoint(profile, mode_decompose(profile, t.a_id)) for t in s]
    return ModePoint(profile, mode_decompose(profile, s.a_id))


def _mode_stack(profile, xs):
    """(p, N, d k, d) stack of the modes of N ModePoints and raw tangents, in order.

    The raw tangents are split together, by one :func:`mode_point` call on
    their stack.  The profile is read first, and must be irreducible;
    DimensionMismatch when ``xs`` is not iterable or is empty.
    """
    as_profile(profile).require_irreducible()
    if not np.iterable(xs):
        raise DimensionMismatch(f"points must be a sequence, got a {type(xs).__name__}")
    raw = []
    for x in xs:
        if isinstance(x, ModePoint):
            if x.profile is not profile and not np.array_equal(x.profile.iso.v, profile.iso.v):
                raise ProfileMismatch("mode point belongs to a different chain")
        else:
            raw.append(_as_matrix(profile.iso, x))
    made = iter(mode_point(profile, np.stack(raw)) if raw else ())
    pts = [x if isinstance(x, ModePoint) else next(made) for x in xs]
    if not pts:
        raise DimensionMismatch("the limit model needs at least one point")
    return np.stack([pt.modes for pt in pts], axis=1)


def _mode_gram(profile, modes):
    """(c, lam, z): the limit model of N points pair by pair, from one mode Gram.

    ``modes`` is the (p, N, d k, d) stack of the points' modes, as
    :func:`_mode_stack` gives it.  e[m, i, j] = Tr(rho_ss (x_i)_m* (x_j)_m)
    takes one product per mode, since distinct modes are orthogonal.  For
    points i, j and k, m < p,

        c[i, j] = e_0[i, j] - (e_0[i, i] + e_0[j, j]) / 2
                = -1/2 beta(x_0 - y_0, x_0 - y_0) + i sigma(x_0, y_0),
        w[k, i, j] = -1/2 (beta(x_perp, x_perp) + beta(y_perp, y_perp)) + eta_hat_k,
        lam[k, i, j] = c[i, j] + w[k, i, j],
        z[m, i, j] = (1/p) sum_k gamma^{-mk} e^{w[k, i, j]},

    with x = x_i, y = x_j, beta(x_perp, x_perp) = sum_{m >= 1} e_m[i, i]
    and eta_hat_k = sum_{m >= 1} gamma^{mk} e_m[i, j], gamma = e^{2 pi i / p}:
    the coherent exponent of the mode-0 parts, the exponents lambda_k and
    the zeta Grams.  Both sums over k or m are DFTs along the first axis.
    As the modes are orthogonal, lam[0, i, j] = -1/2 beta(x - y, x - y) +
    i sigma(x, y) is the exponent of the coherent overlap of x and y.
    """
    p, n = modes.shape[:2]
    # Tr(rho x* y) is the entrywise inner product of x with y rho
    left = modes.reshape(p, n, -1).conj()
    right = (modes @ profile.rho_ss).reshape(p, n, -1)
    e = left @ right.transpose(0, 2, 1)
    beta = e.diagonal(axis1=1, axis2=2).real  # (p, N)
    c = e[0] - 0.5 * (beta[0][:, None] + beta[0])
    perp = beta[1:].sum(axis=0)
    eta_hat = np.fft.ifft(np.concatenate([np.zeros_like(e[:1]), e[1:]]), axis=0, norm="forward")
    w = eta_hat - 0.5 * (perp[:, None] + perp)
    z = np.fft.fft(np.exp(w), axis=0, norm="forward")
    return c, c + w, z


def zeta_gram(profile, x, y):
    """Same-sector inner products <zeta_m(x_perp) | zeta_m(y_perp)>, m = 0..p-1.

    (1/p) e^{-(beta(x_perp,x_perp)+beta(y_perp,y_perp))/2}
        sum_k gamma^{-mk} e^{eta_hat_k},
    eta_hat_k = sum_{m >= 1} gamma^{mk} Tr(rho_ss x_m* y_m).
    Different sectors are exactly orthogonal and are not represented.
    """
    return _mode_gram(profile, _mode_stack(profile, (x, y)))[2][:, 0, 1]


def lambda_k(profile, x, y):
    """Convergence exponents of the deformed transfer operator's peripheral part.

    lambda_k = -1/2 beta(x_0-y_0, x_0-y_0) + i sigma(x_0, y_0)
               - 1/2 (beta(x_perp,x_perp) + beta(y_perp,y_perp)) + eta_hat_k,
    eta_hat_k as in :func:`zeta_gram`.  Free per-chart phases are fixed to zero.
    exp(lambda_0) is the coherent overlap exp(-1/2 beta(x-y, x-y) + i sigma(x, y)).
    """
    return _mode_gram(profile, _mode_stack(profile, (x, y)))[1][:, 0, 1]


def predicted_component_limit(profile, a, b, i, j, r, x, y):
    """Limit of the (a,i,b,j) component inner product along n = p l + r.

    pi^b_j sum_k gamma^{(a-b+r)k} e^{lambda_k(x, y)}; the weight pi^b_j is
    the stationary eigenvalue attached to phi^b_j.  Vanishes (root-of-unity
    sum) unless b = a + r mod p when x = y = 0.
    """
    as_profile(profile).require_irreducible()
    a, b, i, j, r = (as_integer(name, val) for name, val in zip("abijr", (a, b, i, j, r)))
    p = profile.period
    if not (0 <= a < p and 0 <= b < p):
        raise IndexOutOfRange(f"block labels ({a}, {b}) outside 0..{p - 1}")
    if not 0 <= r < p:
        raise IndexOutOfRange(f"remainder r = {r} outside 0..{p - 1}")
    basis = stationary_eigenbasis(profile)
    if not (0 <= i < len(basis[a]) and 0 <= j < len(basis[b])):
        raise IndexOutOfRange("eigenvector index outside its block")
    pi_bj = basis[b][j][0]
    lam = lambda_k(profile, x, y)
    gamma = profile.gamma if p > 1 else 1.0
    delta = (a - b + r) % p
    return complex(pi_bj * sum(gamma ** (delta * k) * np.exp(lam[k]) for k in range(p)))


def mixture_gram(profile, points):
    """Pairwise component Gram of mixed-Gaussian states at the given points.

    Component vectors are indexed by (point, m): coherent factor of the
    mode-0 part tensored with the m-th zeta component of the perp part.
    Returns the (N p) x (N p) Hermitian PSD Gram of the N points, its rows
    in the order (0, 0), ..., (0, p - 1), (1, 0), ...; different sectors m
    are orthogonal.
    """
    c, _, z = _mode_gram(profile, _mode_stack(profile, points))
    p, n = z.shape[:2]
    gram = np.zeros((n, p, n, p), dtype=complex)
    for m in range(p):
        gram[:, m, :, m] = np.exp(c) * z[m]
    gram = gram.reshape(n * p, n * p)
    wmin = float(np.linalg.eigvalsh(gram).min())
    if wmin < -_PSD_TOL:
        raise GramNotPSD(f"mixture Gram has eigenvalue {wmin:.3e}")
    return gram


def mixture_trace_distance(profile, x, y):
    """Exact trace distance (1/2)||rho(x) - rho(y)||_1 of two limit mixtures.

    The sectors m are orthogonal, so rho(x) - rho(y) is a direct sum of the
    rank-two differences |x_m><x_m| - |y_m><y_m|.  With a_m = <x_m|x_m>,
    b_m = <y_m|y_m> and c_m = <x_m|y_m>, read from :func:`mixture_gram`,
    the two eigenvalues of one difference sum to a_m - b_m and multiply to
    -det_m, det_m = a_m b_m - |c_m|^2, so

        (1/2)||rho(x) - rho(y)||_1 = (1/2) sum_m sqrt((a_m - b_m)^2 + 4 det_m).

    det_m at or below _PARALLEL a_m b_m is the roundoff of parallel vectors
    and is read as 0.  The Gram of a point and its copy is bit for bit that
    of one point twice, so a_m = b_m = |c_m| up to the roundoff of |c_m|,
    det_m falls under the floor and their distance is exactly 0.0.
    """
    gram = mixture_gram(profile, [x, y])
    p = len(gram) // 2
    a, b = gram.diagonal()[:p].real, gram.diagonal()[p:].real
    det = a * b - np.abs(gram.diagonal(p)) ** 2
    det[det <= _PARALLEL * a * b] = 0.0
    return float(0.5 * np.sqrt((a - b) ** 2 + 4.0 * det).sum())
