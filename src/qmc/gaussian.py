"""Limit Gaussian and mixed-Gaussian models as finite Gram computations.

Every quantity of the limit model used here (coherent overlaps, the
orthogonal zeta components of a displaced vacuum under the cyclic
symmetry, convergence exponents lambda_k, trace distances between
mixtures) reduces to closed-form Gram matrices over finitely many
component vectors, so no Fock-space truncation is ever built.

Identifiable tangents decompose into modes A_0..A_{p-1} (eigencomponents
of the stabiliser action); mode 0 drives the coherent factor, the
remaining modes ("perp" part) drive the zeta components.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, GramNotPSD, IndexOutOfRange, ProfileMismatch, as_integer
from .gauge import _as_matrix, mode_decompose, split, tangent_inner
from .ergodic import as_profile, stationary_eigenbasis
from .linalg import dag, trace_norm

__all__ = [
    "ModePoint",
    "mode_point",
    "coherent_overlap",
    "eta_hat",
    "zeta_gram",
    "lambda_k",
    "predicted_component_limit",
    "mixture_gram",
    "mixture_trace_distance",
]

_PSD_TOL = 1e-9  # mixture_gram rejects a Gram eigenvalue below -_PSD_TOL
_GRAM_CLIP = 1e-10  # _embedded_states rejects one below -_GRAM_CLIP and clips the rest at 0


@dataclass(frozen=True)
class ModePoint:
    """Identifiable tangent together with its cyclic mode decomposition."""

    profile: object
    a_id: np.ndarray
    modes: list

    @property
    def mode0(self):
        return self.modes[0]

    @property
    def perp(self):
        return self.a_id - self.modes[0]


def mode_point(profile, a):
    """Wrap a tangent as a ModePoint, splitting off any gauge component.

    ``a`` is one (d k, d) tangent, which returns a ModePoint, or an
    (m, d k, d) stack, which returns a list of m ModePoints from one
    :func:`gauge.split` of the whole stack.
    """
    s = split(profile, a)
    if isinstance(s, list):
        return [ModePoint(profile, t.a_id, mode_decompose(profile, t.a_id)) for t in s]
    return ModePoint(profile=profile, a_id=s.a_id, modes=mode_decompose(profile, s.a_id))


def _as_points(profile, xs):
    """ModePoints of a sequence of ModePoints and raw tangents, in order.

    The raw tangents are split together, by one :func:`mode_point` call on
    their stack.  The profile is read first, and must be irreducible;
    DimensionMismatch when ``xs`` is not iterable.
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
    return [x if isinstance(x, ModePoint) else next(made) for x in xs]


def _norm2(profile, z):
    return tangent_inner(profile, z, z).real


def _coherent_overlap(profile, x, y):
    """exp(-1/2 beta(x-y, x-y) + i sigma(x, y)) for identifiable matrices x, y."""
    diff = x - y
    g = _norm2(profile, diff)
    s = tangent_inner(profile, x, y).imag
    return complex(np.exp(-0.5 * g + 1j * s))


def coherent_overlap(profile, x, y):
    """Overlap of coherent states exp(-1/2 beta(x-y, x-y) + i sigma(x, y))."""
    x, y = _as_points(profile, (x, y))
    return _coherent_overlap(profile, x.a_id, y.a_id)


def eta_hat(profile, x, y):
    """Fourier transform of the per-mode inner products, mode 0 excluded.

    eta_m = Tr(rho_ss x_m* y_m) for m >= 1, eta_0 := 0;
    eta_hat_k = sum_m gamma^{mk} eta_m.
    """
    x, y = _as_points(profile, (x, y))
    p = profile.period
    eta = np.zeros(p, dtype=complex)
    for m in range(1, p):
        eta[m] = tangent_inner(profile, x.modes[m], y.modes[m])
    gamma = profile.gamma if p > 1 else 1.0
    return np.array(
        [sum(gamma ** (m * k) * eta[m] for m in range(p)) for k in range(p)],
        dtype=complex,
    )


def zeta_gram(profile, x, y):
    """Same-sector inner products <zeta_m(x_perp) | zeta_m(y_perp)>, m = 0..p-1.

    (1/p) e^{-(beta(x_perp,x_perp)+beta(y_perp,y_perp))/2}
        sum_k gamma^{-mk} e^{eta_hat_k}.
    Different sectors are exactly orthogonal and are not represented.
    """
    x, y = _as_points(profile, (x, y))
    p = profile.period
    gamma = profile.gamma if p > 1 else 1.0
    pref = np.exp(-0.5 * (_norm2(profile, x.perp) + _norm2(profile, y.perp))) / p
    eh = np.exp(eta_hat(profile, x, y))
    return np.array(
        [pref * sum(gamma ** (-m * k) * eh[k] for k in range(p)) for m in range(p)],
        dtype=complex,
    )


def lambda_k(profile, x, y):
    """Convergence exponents of the deformed transfer operator's peripheral part.

    lambda_k = -1/2 beta(x_0-y_0, x_0-y_0) + i sigma(x_0, y_0)
               - 1/2 (beta(x_perp,x_perp) + beta(y_perp,y_perp)) + eta_hat_k.
    Free per-chart phases are fixed to zero.
    """
    x, y = _as_points(profile, (x, y))
    d0 = x.mode0 - y.mode0
    base = (
        -0.5 * _norm2(profile, d0)
        + 1j * tangent_inner(profile, x.mode0, y.mode0).imag
        - 0.5 * (_norm2(profile, x.perp) + _norm2(profile, y.perp))
    )
    return base + eta_hat(profile, x, y)


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
    in the order (0, 0), ..., (0, p - 1), (1, 0), ...
    """
    pts = _as_points(profile, points)
    if not pts:
        raise DimensionMismatch("mixture_gram needs at least one point")
    p = profile.period
    n = len(pts)
    gram = np.zeros((n * p, n * p), dtype=complex)
    blocks = {}  # (ix, iy) -> the coherent overlap times the p zeta Grams
    for ix in range(n):
        for iy in range(n):
            coherent = _coherent_overlap(profile, pts[ix].mode0, pts[iy].mode0)
            blocks[(ix, iy)] = coherent * zeta_gram(profile, pts[ix], pts[iy])
    index = [(ipt, m) for ipt in range(n) for m in range(p)]
    for ra, (ipt_a, ma) in enumerate(index):
        for rb, (ipt_b, mb) in enumerate(index):
            if ma != mb:
                continue
            gram[ra, rb] = blocks[(ipt_a, ipt_b)][ma]
    wmin = float(np.linalg.eigvalsh(gram).min())
    if wmin < -_PSD_TOL:
        raise GramNotPSD(f"mixture Gram has eigenvalue {wmin:.3e}")
    return gram


def _embedded_states(gram, groups):
    """Rank-one component sums embedded via the Gram square root."""
    gram = np.asarray(gram, dtype=complex)
    if not np.isfinite(gram).all():
        raise GramNotPSD("Gram has NaN or Inf entries")
    gram = 0.5 * (gram + dag(gram))
    w, u = np.linalg.eigh(gram)
    if w.min() < -_GRAM_CLIP:
        raise GramNotPSD(f"Gram has eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    # kill numerically-zero directions outright: their square roots would
    # otherwise inject sqrt(eps)-size noise into the embedded vectors
    w[w < 1e-13 * max(w.max(), 1.0)] = 0.0
    e = u @ np.diag(np.sqrt(w)) @ dag(u)  # columns realise the Gram
    states = []
    for grp in groups:
        vecs = e[:, list(grp)]
        states.append(vecs @ dag(vecs))
    return states


def mixture_trace_distance(profile, x, y):
    """Exact trace distance (1/2)||rho(x) - rho(y)||_1 of two limit mixtures."""
    gram = mixture_gram(profile, [x, y])
    p = profile.period
    states = _embedded_states(gram, [range(0, p), range(p, 2 * p)])
    return float(0.5 * trace_norm(states[0] - states[1]))
