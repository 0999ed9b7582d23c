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

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, GramNotPSD, IndexOutOfRange, ProfileMismatch, as_integer
from .gauge import _as_matrix, mode_decompose, split, stabiliser_tangent_action, tangent_inner
from .ergodic import stationary_eigenbasis
from .linalg import dag, trace_norm

__all__ = [
    "ModePoint",
    "MixtureGram",
    "mode_point",
    "coherent_overlap",
    "eta_hat",
    "zeta_gram",
    "lambda_k",
    "predicted_component_limit",
    "mixture_gram",
    "mixture_trace_distance",
    "mixture_equivalent",
    "gram_deficiency_bound",
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
    their stack.
    """
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
    profile.require_irreducible()
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
    profile.require_irreducible()
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
    profile.require_irreducible()
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
    profile.require_irreducible()
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


@dataclass(frozen=True)
class MixtureGram:
    """Gram data of a finite family of mixed-Gaussian limit states.

    Component vectors are indexed by (point, m): coherent factor of the
    mode-0 part tensored with the m-th zeta component of the perp part.
    ``gram`` is the full (N p) x (N p) Hermitian PSD matrix, ``coherent``
    the N x N Gram of the bare coherent factors (unit diagonal).
    """

    points: list
    gram: np.ndarray
    coherent: np.ndarray
    index: list = field(default_factory=list)


def mixture_gram(profile, points):
    """Pairwise component Gram of mixed-Gaussian states at the given points."""
    profile.require_irreducible()
    pts = _as_points(profile, points)
    if not pts:
        raise DimensionMismatch("mixture_gram needs at least one point")
    p = profile.period
    n = len(pts)
    coherent = np.empty((n, n), dtype=complex)
    gram = np.zeros((n * p, n * p), dtype=complex)
    zetas = {}
    for ix in range(n):
        for iy in range(n):
            coherent[ix, iy] = _coherent_overlap(profile, pts[ix].mode0, pts[iy].mode0)
            zetas[(ix, iy)] = zeta_gram(profile, pts[ix], pts[iy])
    index = [(ipt, m) for ipt in range(n) for m in range(p)]
    for ra, (ipt_a, ma) in enumerate(index):
        for rb, (ipt_b, mb) in enumerate(index):
            if ma != mb:
                continue
            gram[ra, rb] = coherent[ipt_a, ipt_b] * zetas[(ipt_a, ipt_b)][ma]
    wmin = float(np.linalg.eigvalsh(gram).min())
    if wmin < -_PSD_TOL:
        raise GramNotPSD(f"mixture Gram has eigenvalue {wmin:.3e}")
    return MixtureGram(points=pts, gram=gram, coherent=coherent, index=index)


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
    return states, e


def mixture_trace_distance(profile, x, y):
    """Exact trace distance (1/2)||rho(x) - rho(y)||_1 of two limit mixtures."""
    mg = mixture_gram(profile, [x, y])
    p = profile.period
    states, _ = _embedded_states(mg.gram, [range(0, p), range(p, 2 * p)])
    return float(0.5 * trace_norm(states[0] - states[1]))


def mixture_equivalent(profile, x, y):
    """True when y lies within 1e-8 of the stabiliser orbit of x (same limit state)."""
    profile.require_irreducible()
    x, y = _as_points(profile, (x, y))
    best = np.inf
    for m in range(profile.period):
        moved = stabiliser_tangent_action(profile, m, x.a_id)
        diff = y.a_id - moved
        best = min(best, np.sqrt(max(_norm2(profile, diff), 0.0)))
    return bool(best <= 1e-8)


def gram_deficiency_bound(gram_a, gram_b, groups=None):
    """Computable upper bound on the Le Cam deficiency between Gram families.

    Both Grams must index the same component set; ``groups`` collects the
    component indices of each state (default: one state per component).
    The connecting map is built from the two Gram square roots,
    C = sqrt(G_B) pinv(sqrt(G_A)); the returned value is
    max_i [ (1/2)||C rho_i C* - sigma_i||_1 + (1/2)(1 - Tr C rho_i C*) ],
    the trace-norm error of the completed channel on the family.
    """
    gram_a = np.asarray(gram_a, dtype=complex)
    gram_b = np.asarray(gram_b, dtype=complex)
    if gram_a.shape != gram_b.shape or gram_a.ndim != 2 or gram_a.shape[0] != gram_a.shape[1]:
        raise DimensionMismatch(
            f"Gram shapes {gram_a.shape} and {gram_b.shape} must match and be square"
        )
    n = gram_a.shape[0]
    if groups is None:
        groups = [[i] for i in range(n)]
    for grp in groups:
        for i in grp:
            if not 0 <= as_integer("component index", i) < n:
                raise IndexOutOfRange(f"component index {i} outside 0..{n - 1}")
    states_a, ea = _embedded_states(gram_a, groups)
    states_b, eb = _embedded_states(gram_b, groups)
    c = eb @ np.linalg.pinv(ea)
    worst = 0.0
    for rho, sigma in zip(states_a, states_b):
        moved = c @ rho @ dag(c)
        defect = max(0.0, float((np.trace(rho) - np.trace(moved)).real))
        worst = max(worst, 0.5 * trace_norm(moved - sigma) + 0.5 * defect)
    return float(worst)
