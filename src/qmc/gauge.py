"""Gauge group action, equivalence witnesses and tangent-space machinery.

The gauge group element g = (c, w) (phase c, unitary w on the system) acts
on isometries by

    act(g, v) = conj(c) (w (x) 1) v w*

Two irreducible chains produce the same output statistics exactly when
they sit on the same gauge orbit; ``equivalence_witness`` decides this from
the eigenvalues of largest modulus of the sandwich map
E: X -> sum_u K1_u* X K2_u.  When (w (x) 1) v2 = c v1 w, E is c T
conjugated by X -> X w, T the Heisenberg transfer operator of the first
chain, so its radius is 1 and its eigenvector at c is w; otherwise the
radius is below 1 (Guta and Kiukas, CMP 335, 1397, 2015).  From
``ergodic._CERTIFY_MIN_D`` on, a power iteration on E^p (p the period)
that applies E in Kraus form (``channels.kraus_step``), O(k d^3) a
step, looks for the eigenvector first.  A decay of the iterate within the
half-rule budget of ``ergodic._certify`` (a modulus of at least 1 - tol
keeps half its component within it) says inequivalent; a Rayleigh value
of E^p converged onto the rim gives c and, projected onto one p-th root,
w.  Anything else is undecided, and the dense route takes every
eigenvalue of the d^2 x d^2 matrix of E and the eigenvector from a
bordered solve.  Both routes end in the same checks of the eigenvector
and of the relation itself.  The
residual stabiliser of a point is the cyclic group generated by (gamma, Z)
from the spectral profile.

Tangent machinery: a Lie-algebra element (theta, kgen) pushes forward to
the gauge-orbit direction dmu(theta, kgen) = theta v - (kgen (x) 1) v + v kgen
at v, and ``split`` decomposes an arbitrary tangent as
``a = dmu(theta, kgen) + a_id`` with ``v* a_id = 0``.  The split is
complex-linear: raw curve velocities (whose ``v* a`` is anti-Hermitian)
are accepted as-is, and then ``theta`` reports the real part of the
complex mean while ``kgen`` may come out non-Hermitian.  For tangents in
the image of dmu, with theta real, kgen Hermitian and Tr(rho_ss kgen) = 0,
the recovered pair is exactly the one that produced them.

``split``, and through it ``statmodel.asymptotic_variance``,
``statmodel.qfi_rate`` and ``gaussian.mode_point``, read the restricted
resolvent (1 - T*)^-1 on {x : Tr(rho_ss x) = 0}
(``restricted_resolvent_solve``).  Below ``ergodic._KRAUS_MIN_D`` it is one
LU of the (d^2 + 1)-square bordered system built from the real transfer
matrix R, O(d^6).  From it on it is a Neumann series sum_n T*^n applied in
Kraus form through ``channels.kraus_step``, O(k d^3) a step and no R.  The
peripheral spectrum of an irreducible channel is the p-th roots of unity,
each simple (Evans and Hoegh-Krohn, J. London Math. Soc. 17, 345, 1978),
so the parts of the right-hand side along the rim, Z^j with the
functional Tr(Z^j* rho_ss .), are solved in closed form and deflated from
every round, and the rest converges at the rate of the non-peripheral
spectrum: in 63 to 110 rounds on random k = 2 and 3 and cyclic p = 2 to 4
chains at d = 24 to 48.  The
condition bound from seeded Gaussian probes depends only on the profile,
so the series solves the probes on the first call on a profile and keeps
the bound as a scalar.  A series that misses its bar within the
certificate's step budget hands the call to the bordered route, bit for
bit.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from . import ergodic
from .channels import Isometry, as_isometry, kraus_step, real_transfer, sandwich_map
from .errors import (
    DimensionMismatch,
    GaugeConstraintViolated,
    LabelingFailure,
    NotHermitian,
    NotIdentifiable,
    NotTangent,
    ResolventIllConditioned,
    SingularResolvent,
    UnitDimMismatch,
    WitnessInconsistent,
    as_complex_array,
    as_integer,
)
from .linalg import (
    bordered_eigvec,
    bordered_solve,
    dag,
    herm_coords,
    herm_vec,
    over_cap,
    proj_distance,
    unvec,
)

__all__ = [
    "act",
    "equivalence_witness",
    "witness_matches",
    "stabiliser",
    "TangentSplit",
    "split",
    "restricted_resolvent_solve",
    "tangent_inner",
    "stabiliser_tangent_action",
    "mode_decompose",
    "singular_dimension",
]


def _check_gauge_element(g, d):
    c, w = g
    try:
        c = complex(c)
    except (TypeError, ValueError):
        raise GaugeConstraintViolated(f"phase {c!r} is not a complex number") from None
    w = as_complex_array("unitary", w)
    if not (abs(abs(c) - 1.0) <= 1e-8):
        raise GaugeConstraintViolated(f"phase has modulus {abs(c):.6f}, expected 1")
    if w.shape != (d, d):
        raise DimensionMismatch(f"unitary shape {w.shape}, expected ({d}, {d})")
    if not (np.linalg.norm(dag(w) @ w - np.eye(d)) <= 1e-8):
        raise GaugeConstraintViolated("matrix part of the gauge element is not unitary")
    return c, w


def act(g, iso):
    """Apply the gauge element g = (c, w) to an isometry."""
    iso = as_isometry("iso", iso)
    c, w = _check_gauge_element(g, iso.d)
    v_new = np.conj(c) * np.kron(w, np.eye(iso.k)) @ iso.v @ dag(w)
    return Isometry(v_new, iso.d, iso.k)


# Start of the Kraus route's power iteration.  Any fixed seed will do: the
# start only has to be generic, i.e. not orthogonal to the left eigenvector
# of any eigenvalue, which X = 1 can be.
_WITNESS_SEED = 20251021
_WITNESS_TOL = 1e-8  # equivalent chains: E has an eigenvalue of modulus >= 1 - this
# Residual ||E^p x - mu x|| of the unit iterate x at which mu counts as
# converged onto the rim.  The Rayleigh value of the non-normal E^p is
# accurate to first order in the residual, so the witness phase agrees with
# the dense eigenvalue to about this much, times the eigenvalue's condition
# number; the roundoff of one step at d = 24 is about 1e-14.
_WITNESS_RESIDUAL = 1e-12


def equivalence_witness(iso1, iso2):
    """Witness (c, w) with (w (x) 1) v2 = c v1 w, or None when inequivalent.

    Both chains must be ``Isometry`` instances, else DimensionMismatch,
    irreducible, and share system and unit dimensions.  The witness is read
    off an eigenvector of E: X -> sum_u K1_u* X K2_u at an eigenvalue of
    largest modulus; the chains count as equivalent when that modulus is at
    least 1 - ``_WITNESS_TOL``.  From
    ``ergodic._CERTIFY_MIN_D`` on, the Kraus route of
    :func:`_kraus_peripheral` looks for it by power iteration; when it is
    undecided, and always below that size, the dense route takes every
    eigenvalue of the d^2 x d^2 matrix of E and the eigenvector from a
    bordered solve.  Either way the eigenvector must have a relative
    residual of at most 1e-6 and be proportional to a unitary w, the polar
    factor, with c = lam / |lam|.  For a pair of period p the witnesses
    form the family (c gamma^m, Z^m w), m < p, with gamma and Z from iso1's
    profile; the member returned is the one whose w is closest to the
    identity up to a phase, i.e. with the largest |Tr(Z^m w)|, so both
    routes return the same member.  The phase of w is fixed by making the
    first nonzero entry of its first column real and positive, and (c, w)
    must satisfy the relation to 1e-6; otherwise WitnessInconsistent is
    raised.
    """
    iso1, iso2 = as_isometry("iso1", iso1), as_isometry("iso2", iso2)
    if iso1.d != iso2.d:
        raise DimensionMismatch(
            f"system dimensions differ ({iso1.d} vs {iso2.d}); chains on different "
            "spaces are never output-equivalent here"
        )
    if iso1.k != iso2.k:
        raise UnitDimMismatch(f"unit dimensions differ ({iso1.k} vs {iso2.k})")
    # iso2 is analysed too: a witness within 1e-6 does not make a chain
    # near the reducible boundary share iso1's verdict
    profiles = []
    for iso in (iso1, iso2):
        prof = ergodic.analyze(iso)
        prof.require_irreducible()
        profiles.append(prof)
    prof = profiles[0]
    d = iso1.d
    found = _kraus_peripheral(iso1, iso2, prof.period, _WITNESS_TOL)
    lam, f, res = _dense_peripheral(iso1, iso2, _WITNESS_TOL) if found is None else found
    radius = abs(lam)
    if radius < 1.0 - _WITNESS_TOL:
        return None
    if not res <= 1e-6:
        raise WitnessInconsistent(f"peripheral eigenvector relative residual {res:.3e}")
    gram = dag(f) @ f
    scale = np.trace(gram).real / d
    deviation = np.linalg.norm(gram - scale * np.eye(d))
    if not (deviation <= 1e-6 * max(scale, 1e-12)):
        raise WitnessInconsistent(
            f"peripheral eigenvector is not proportional to a unitary (deviation {deviation:.3e})"
        )
    u, _, vh = np.linalg.svd(f)
    w = u @ vh
    c = lam / radius
    if prof.period > 1:
        # (gamma^m, Z^m) fixes v1, so (c gamma^m, Z^m w) is a witness too;
        # keep the member whose w is closest to 1 up to a phase
        members = [zm @ w for _, zm in prof.peripheral]
        m = int(np.argmax([abs(np.trace(zw)) for zw in members]))
        w, c = members[m], c * prof.gamma**m
    # fix the free phase of w
    col = w[:, 0]
    i0 = int(np.argmax(np.abs(col) > 1e-12))
    phase = col[i0] / abs(col[i0])
    w = w * np.conj(phase)
    residual = np.linalg.norm(np.kron(w, np.eye(iso1.k)) @ iso2.v - c * iso1.v @ w)
    if not (residual <= 1e-6):
        raise WitnessInconsistent(f"witness relation residual {residual:.3e}")
    return complex(c), w


def _dense_peripheral(iso1, iso2, tol):
    """(lam, F, residual) from every eigenvalue of the matrix of E.

    lam is an eigenvalue of largest modulus; F, its eigenvector as a d x d
    matrix, and the relative residual are only computed when
    |lam| >= 1 - tol.  F is None when the bordered system is singular, and
    then the residual is infinite.
    """
    smap = sandwich_map(iso1, iso2)
    evals = np.linalg.eigvals(smap.m)
    lam = evals[int(np.argmax(np.abs(evals)))]
    if abs(lam) < 1.0 - tol:
        return lam, None, 0.0
    try:
        u, res = bordered_eigvec(smap.m, lam)
    except np.linalg.LinAlgError:
        return lam, None, np.inf
    return lam, unvec(u, (iso1.d, iso1.d)), res


def _kraus_peripheral(iso1, iso2, p, tol):
    """(lam, F, residual) by power iteration on E^p, or None when undecided.

    p is iso1's period.  When the chains are equivalent, (w (x) 1) v2 =
    c v1 w, E is c T conjugated by X -> X w, T the Heisenberg transfer
    operator of iso1 (Guta and Kiukas, CMP 335, 1397, 2015), so its
    eigenvalues of largest modulus are c gamma^j, j < p, and E^p has the
    one semisimple eigenvalue c^p there.

    A seeded Gaussian X is stepped by E^p, first through ``ergodic._decays``
    with the budget of ``ergodic._certify``: m applications of E with
    (1 - tol)^m >= 1/2 and m <= d^2.  An eigenvalue of modulus at least
    1 - tol keeps at least half its component within them, so a decay by
    ``_CERTIFY_DECAY`` says the radius is below 1 - tol, unless the start's
    component along it was below 2e-8 of its norm, and that is returned as
    lam = 0.  Otherwise the iteration goes on, normalised, with the Rayleigh
    value mu of E^p.  Once |mu| >= (1 - tol)^p and the residual is at most
    ``_WITNESS_RESIDUAL``, lam is the p-th root c0 gamma^j of mu whose
    projection sum_{m<p} lam^-m E^m(X), an eigenvector of E at lam, is the
    largest.  A tol below ``_CERTIFY_TOL_FLOOR``, a chain below
    ``_CERTIFY_MIN_D``, a non-finite iterate and a spent budget are
    undecided; an iterate that stays below the rim spends the budget.
    """
    d = iso1.d
    if d < ergodic._CERTIFY_MIN_D or tol < ergodic._CERTIFY_TOL_FLOOR:
        return None
    budget = min(d * d, int(np.log(0.5) / np.log1p(-tol))) // p
    k1 = np.stack(iso1.kraus)
    apply = kraus_step(k1.conj().transpose(0, 2, 1), np.stack(iso2.kraus))
    taken = 0

    def step(x):
        nonlocal taken
        taken += 1
        for _ in range(p):
            x = apply(x)
        return x

    rng = np.random.default_rng(_WITNESS_SEED)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    decayed, x = ergodic._decays(step, x, budget)
    if decayed:
        return 0j, None, 0.0
    rim = (1.0 - tol) ** p
    while taken < budget:
        size = np.linalg.norm(x)
        if not size > 0.0:  # NaN, or an exact zero
            return None
        x = x / size
        y = step(x)
        mu = np.vdot(x, y)
        res = np.linalg.norm(y - mu * x)
        if not np.isfinite(res):
            return None
        if abs(mu) >= rim and res <= _WITNESS_RESIDUAL:
            return _rim_eigenpair(apply, x, mu, p)
        x = y
    return None


def _rim_eigenpair(apply, x, mu, p):
    """(lam, F, residual): the eigenvector of E in x at the p-th root lam of
    mu that carries the largest part of x."""
    images = [x]
    for _ in range(p - 1):
        images.append(apply(images[-1]))
    roots = mu ** (1.0 / p) * np.exp(2j * np.pi * np.arange(p) / p)
    parts = [sum(lam ** -m * images[m] for m in range(p)) for lam in roots]
    j = int(np.argmax([np.linalg.norm(f) for f in parts]))
    lam, f = roots[j], parts[j]
    return lam, f, float(np.linalg.norm(apply(f) - lam * f) / np.linalg.norm(f))


def witness_matches(profile, witness, g, tol=1e-6):
    """Check a witness against a known gauge element, modulo the stabiliser.

    ``g = (c_g, w_g)`` is the element that produced iso2 = act(g, iso1);
    the witness family for that pair is (conj(c_g) gamma^m, Z^m w_g*) over
    m = 0..p-1, each determined only up to a global phase on the unitary.
    Both pairs must be gauge elements on the profile's system: a phase of
    modulus 1 and a d x d unitary, else GaugeConstraintViolated or
    DimensionMismatch.
    """
    ergodic.as_profile(profile).require_irreducible()
    c_found, w_found = _check_gauge_element(witness, profile.d)
    c_g, w_g = _check_gauge_element(g, profile.d)
    gamma = profile.gamma
    target_w = dag(w_g)
    for m, (_, zm) in enumerate(profile.peripheral):
        c_cand = np.conj(c_g) * gamma**m
        if abs(c_found - c_cand) <= tol and proj_distance(w_found, zm @ target_w) <= tol:
            return True
    return False


def stabiliser(profile):
    """Generators of the residual stabiliser: [(gamma^m, Z^m)] for m < p."""
    ergodic.as_profile(profile).require_irreducible()
    out = []
    worst = 0.0
    for m, (_, zm) in enumerate(profile.peripheral):
        c = profile.gamma**m
        fixed = act((c, zm), profile.iso)
        worst = max(worst, float(np.linalg.norm(fixed.v - profile.iso.v)))
        out.append((complex(c), zm.copy()))  # the profile keeps its own
    if worst > 1e-7:
        raise LabelingFailure(f"stabiliser candidates move the base point by {worst:.3e}")
    return out


@dataclass(frozen=True)
class TangentSplit:
    """Decomposition a = theta v - (kgen (x) 1) v + v kgen + a_id.

    ``theta`` is the real part of the complex mean Tr(rho_ss v* a); its
    imaginary part is kept in ``theta_im`` (zero for tangents satisfying
    the Hermitian convention).  ``resolvent_cond`` reports the condition
    number of the restricted resolvent solve that produced ``kgen``: it
    reads ``profile``, the spectral profile the tangent was split on, which
    computes the exact value on first read.
    """

    theta: float
    theta_im: float
    kgen: np.ndarray
    a_id: np.ndarray
    profile: object = field(compare=False, repr=False)

    @property
    def resolvent_cond(self):
        return self.profile.resolvent_cond


def _dmu_raw(iso, theta_c, kgen):
    """The push-forward dmu(theta, kgen) = theta v - (kgen (x) 1) v + v kgen,
    with complex theta and any kgen, unvalidated."""
    v = iso.v
    return theta_c * v - np.kron(kgen, np.eye(iso.k)) @ v + v @ kgen


_COND_CAP = 1e12  # largest condition number restricted_resolvent_solve accepts
# Gaussian probe columns of the condition bound, and their seed.  Any fixed
# seed will do; with r probes the bound fails with probability at most 10^-r.
_PROBES = 10
_PROBE_SEED = 20251019


@functools.cache
def _raw_probes(n):
    """``_PROBES`` seeded standard Gaussian columns of length n, drawn once
    per n and read-only."""
    omega = np.random.default_rng(_PROBE_SEED).standard_normal((n, _PROBES))
    omega.flags.writeable = False
    return omega


def _probes(r):
    """The columns of :func:`_raw_probes` projected onto u-perp,
    u = r / ||r||: the subspace {x : Tr(rho_ss x) = 0} in coordinates."""
    u = r / np.linalg.norm(r)
    omega = _raw_probes(r.size)
    return omega - np.multiply.outer(u, u @ omega)


def _cond_bound(iso, y):
    """Upper bound on the restricted condition number from y = A^-1 omega.

    A is B* (1 - T) B and the columns of ``y`` its inverse applied to the
    probes of :func:`_probes`.  ||A^-1|| <= 10 sqrt(2/pi) max_i ||y_i||
    except with probability 10^-r for r unscaled Gaussian probes (Halko,
    Martinsson and Tropp, SIAM Rev. 53, 217, 2011, Lemma 4.1), and
    ||A|| <= 1 + ||T||_2 <= 1 + ||sum_u K_u K_u*||^(1/2): for the positive
    map T, ||T||_oo->oo = ||T(1)|| = 1 and ||T||_1->1 = ||sum_u K_u K_u*||,
    and Riesz-Thorin interpolates between them.  sum_u K_u K_u* is W W*
    for the d x (k d) row W = [K_1, ..., K_k], a reshape of v.  A
    non-finite column gives a non-finite bound.
    """
    w = iso.v.reshape(iso.d, iso.k * iso.d)
    t_norm = np.sqrt(np.linalg.eigvalsh(w @ dag(w))[-1])
    inv_norm = 10.0 * np.sqrt(2.0 / np.pi) * np.linalg.norm(y, axis=0).max()
    return float((1.0 + t_norm) * inv_norm)


def _check_cond(profile):
    """ResolventIllConditioned unless the exact condition number, computed
    on first read of ``profile.resolvent_cond``, is finite and at most the cap."""
    cond = profile.resolvent_cond
    if not (np.isfinite(cond) and cond <= _COND_CAP):
        raise ResolventIllConditioned(
            f"restricted resolvent condition number {cond:.3e} exceeds {_COND_CAP:.1e}"
        )


def _kraus_resolvent(profile, b):
    """x with (1 - T*) x = b - s rho_ss and Tr(rho_ss x) = 0 for an (m, d, d)
    stack b, by a Neumann series in Kraus form; None when it misses its bar.

    Each member is projected along rho_ss, b' = b - (Tr(rho b) / Tr(rho^2))
    rho: s is the border weight of the bordered system.  The peripheral
    spectrum of T* is gamma^j, j < p, each simple with eigen-operator Z^j
    (Evans and Hoegh-Krohn, J. London Math. Soc. 17, 345, 1978), and the
    functional y -> Tr(Z^j* rho_ss y) reads the part of y along Z^j, since
    T(Z^j* rho_ss) = gamma^j Z^j* rho_ss.  The parts of b' along the rim are
    solved in closed form, c_j Z^j / (1 - gamma^j) (j = 0 is the null
    direction 1, and c_0 is zero after the projection), and taken out of
    it.  What is left has no part on the rim, so sum_n T*^n y converges.
    The series steps y -> T*(y) through ``channels.kraus_step``, takes the
    rim out of y again each round, so that roundoff cannot pile up along
    it, and adds y to x; taking out the part along 1 keeps Tr(rho_ss y),
    and so Tr(rho_ss x), at zero.  That is one product by the p functionals
    and one by the p - 1 operators Z^j, j > 0, since 1 touches only the
    diagonal.  Both are one product a member, so a member's bits do not
    depend on the stack it rides in, and a member leaves the stack at the
    first round at which its ||y|| <= ``ergodic._ROUND_BAR`` ||x||.  The
    series runs at most the certificate's step budget
    ``ergodic._step_budget`` of rounds, and gives up as soon as the largest
    ||y|| / ||x|| left, its decay over the last ``ergodic._CERTIFY_WINDOW``
    rounds extrapolated as ``ergodic._decays`` extrapolates, cannot reach
    the bar within them.  T* is complex-linear, so a complex member is one
    matrix.
    """
    d, p, rho = profile.d, profile.period, profile.rho_ss
    n, dd = len(b), profile.d**2
    kr = np.stack(profile.iso.kraus)
    step = kraus_step(kr.conj().transpose(0, 2, 1), kr)
    gamma = np.array([g for g, _ in profile.peripheral])
    zs = np.stack([zm for _, zm in profile.peripheral])  # Z^j, j < p; Z^0 = 1
    parts = zs[1:].reshape(p - 1, dd)
    # Tr(A y) = vec(A^T) . vec(y), and (Z^j* rho)^T = rho^T conj(Z^j):
    # column j reads Tr(Z^j* rho y), column 0 Tr(rho y)
    reads = np.ascontiguousarray((rho.T @ zs.conj()).reshape(p, dd).T)

    def read(rows):
        return (rows[:, None, :] @ reads)[:, 0]

    def deflate(rows):
        """Take the part along the rim out of the rows, in place; returns
        its coefficients."""
        coef = read(rows)
        rows[:, :: d + 1] -= coef[:, :1]
        if p > 1:
            rows -= (coef[:, None, 1:] @ parts)[:, 0]
        return coef

    y = b.reshape(n, dd)
    y = y - np.multiply.outer(read(y)[:, 0] / np.vdot(rho, rho).real, rho.reshape(dd))
    coef = deflate(y)
    x = y + (coef[:, None, 1:] / (1.0 - gamma[1:]) @ parts)[:, 0]
    budget, window = ergodic._step_budget(d, profile.tol), ergodic._CERTIFY_WINDOW
    bar, last = ergodic._ROUND_BAR**2, None
    out, active = np.empty_like(x), np.arange(n)
    for taken in range(1, budget + 1):
        y = step(y.reshape(-1, d, d)).reshape(-1, dd)
        deflate(y)
        x += y
        sy, sx = _squared_norms(y), bar * _squared_norms(x)
        done = sy <= sx
        if done.any():
            # a member leaves the stack at its own first round under the bar
            out[active[done]] = x[done]
            if done.all():
                return out.reshape(n, d, d)
            active, x, y, sy, sx = (a[~done] for a in (active, x, y, sy, sx))
        if taken % window == 0:
            with np.errstate(divide="ignore", invalid="ignore"):
                size = np.sqrt(np.max(sy / sx))
            if last is not None:
                rate = size / last
                # a NaN or a stall fails the first test, a decay too slow
                # for the budget the second
                if not rate < 1.0 or not taken - window * np.log(size) / np.log(rate) <= budget:
                    return None
            last = size
    return None


def _squared_norms(rows):
    """The squared norm of each row of a complex array, read as floats."""
    floats = rows.view(float)
    return np.einsum("ij,ij->i", floats, floats)


def _kraus_solve(profile, b):
    """The stack b solved by :func:`_kraus_resolvent`, with the condition
    check; None when the series misses its bar.

    The probe bound depends only on the profile: the probes are seeded
    and the operator is fixed.  So the first call on a profile solves the
    ``_PROBES`` Hermitian probes with b, packed in pairs as H1 + i H2 into
    half as many matrices and read back as the Hermitian and anti-Hermitian
    parts of each solution, and keeps the bound, a scalar, in
    ``profile._resolvent_bound``; later calls solve b alone.  Every call
    compares the bound with ``_COND_CAP`` and checks the exact value when
    it is above the cap or not finite.
    """
    probing = profile._resolvent_bound is None
    if probing:
        h = herm_vec(_probes(herm_coords(profile.rho_ss).real).T)
        b = np.concatenate([b, h[0::2] + 1j * h[1::2]])
    x = _kraus_resolvent(profile, b)
    if x is None:
        return None
    if probing:
        m = len(x) - _PROBES // 2
        x, y = x[:m], x[m:]
        yh = y.conj().transpose(0, 2, 1)
        # (y + y*) / 2 and (y - y*) / 2: the two solutions, the second times i
        pairs = 0.5 * np.concatenate([y + yh, y - yh]).reshape(_PROBES, -1)
        profile._resolvent_bound = _cond_bound(profile.iso, pairs.T)
    if not profile._resolvent_bound <= _COND_CAP:
        _check_cond(profile)
    return x


def restricted_resolvent_solve(profile, rhs):
    """Solve (Id - T) x = rhs on the subspace {x : Tr(rho_ss x) = 0}.

    T is the Heisenberg transfer operator, the real matrix R^T of
    ``channels.real_transfer`` in the Hermitian basis.  The right-hand side
    is projected onto the subspace along rho_ss (its component along rho_ss
    must already be negligible for the equation to make sense): the real
    bordered system [[1 - R^T, r], [r^T, 0]], r the coordinates of rho_ss,
    returns the unique x with Tr(rho_ss x) = 0 and (1 - T) x = rhs - s rho_ss.

    ``rhs`` is one d x d matrix or an (m, d, d) stack of them, and x has
    the shape of ``rhs``.  Below ``ergodic._KRAUS_MIN_D`` a stack is solved
    as the columns of one right-hand-side block, so R is built and the
    bordered system factorised once per call; a complex right-hand side is
    solved as two real columns.  From it on, :func:`_kraus_resolvent` sums
    a Neumann series in Kraus form, with the rim of a periodic chain solved
    in closed form, and builds no R; when the series misses its bar within
    its rounds, the bordered route runs as below that size.  Returns x.

    Every call checks the condition number of the compressed resolvent
    against ``_COND_CAP``.  On the bordered route, ``_PROBES`` seeded
    Gaussian columns on the subspace ride in the same block; on it the
    bordered solve returns the inverse applied to them exactly, and
    :func:`_cond_bound` bounds the condition number from them.  The Kraus
    route solves the same probes once per profile and keeps the bound
    (:func:`_kraus_solve`).  When that bound exceeds the cap or is not
    finite, or the system is singular, the exact value
    ``profile.resolvent_cond`` is computed (once per profile) and checked
    instead: ResolventIllConditioned above the cap, else the solution, or
    SingularResolvent for a singular system.
    """
    ergodic.as_profile(profile).require_irreducible()
    rhs = as_complex_array("right-hand side", rhs)
    d = profile.d
    if rhs.ndim not in (2, 3) or rhs.shape[-2:] != (d, d):
        raise DimensionMismatch(
            f"right-hand side shape {rhs.shape}, expected ({d}, {d}) or (m, {d}, {d})"
        )
    if not np.isfinite(rhs).all():
        raise NotHermitian("right-hand side has non-finite entries")
    if d >= ergodic._KRAUS_MIN_D:
        x = _kraus_solve(profile, rhs.reshape(-1, d, d))
        if x is not None:
            return x.reshape(rhs.shape)
    rm = real_transfer(profile.iso)
    r = herm_coords(profile.rho_ss).real
    n = r.size
    b = herm_coords(rhs).reshape(-1, n).T  # (d^2, m)
    m2 = 2 * b.shape[1]
    # the real and imaginary part of each side by side, then the probes
    block = np.concatenate([np.stack([b.real, b.imag], axis=2).reshape(n, m2), _probes(r)], axis=1)
    try:
        # [[R^T - 1, r], [r^T, 0]] [x; -s] = [-b; 0]
        sol, _ = bordered_solve(rm, 1.0, r, r, -block, adjoint=True)
    except np.linalg.LinAlgError as exc:
        _check_cond(profile)
        raise SingularResolvent(str(exc)) from None
    if not _cond_bound(profile.iso, sol[:, m2:]) <= _COND_CAP:
        _check_cond(profile)
    x = sol[:, 0:m2:2] + 1j * sol[:, 1:m2:2]
    return herm_vec(x.T).reshape(rhs.shape)


def split(profile, a):
    """Split a tangent as gauge-orbit part plus identifiable part.

    ``a`` is a (d k, d) matrix, treated complex-linearly without
    symmetrisation, so curve velocities can be passed directly.  The
    returned ``a_id`` always satisfies v* a_id = 0.

    An (m, d k, d) stack of tangents returns a list of m splits, one per
    member, from one build of R and one factorisation: their resolvent
    right-hand sides are solved as one block by
    :func:`restricted_resolvent_solve`.  Members that are equal entry for
    entry are solved once, so they get equal splits.
    """
    ergodic.as_profile(profile).require_irreducible()
    iso = profile.iso
    a = as_complex_array("tangent", a)
    stack = a[None] if a.ndim == 2 else a
    if stack.ndim != 3 or stack.shape[1:] != iso.v.shape or not len(stack):
        raise DimensionMismatch(
            f"tangent shape {a.shape}, expected {iso.v.shape} or (m, *{iso.v.shape}), m >= 1"
        )
    _check_tangent_entries(stack)
    first = {}  # bytes of a member -> its index among the distinct members
    slot = [first.setdefault(t.tobytes(), len(first)) for t in stack]
    thetas, rhs = [], []
    for j in range(len(first)):
        h = dag(iso.v) @ stack[slot.index(j)]
        theta_c = complex(np.trace(profile.rho_ss @ h))
        thetas.append(theta_c)
        rhs.append(h - theta_c * np.eye(iso.d))
    kgens = restricted_resolvent_solve(profile, np.stack(rhs))
    out = []
    for t, j in zip(stack, slot):
        out.append(
            TangentSplit(
                theta=float(thetas[j].real),
                theta_im=float(thetas[j].imag),
                kgen=kgens[j],
                a_id=t - _dmu_raw(iso, thetas[j], kgens[j]),
                profile=profile,
            )
        )
    return out[0] if a.ndim == 2 else out


def _as_matrix(iso, a):
    """``a`` as a complex array of the isometry's shape; DimensionMismatch otherwise."""
    a = as_complex_array("tangent", a)
    if a.shape != iso.v.shape:
        raise DimensionMismatch(f"tangent shape {a.shape}, expected {iso.v.shape}")
    return a


def _check_tangent_entries(a):
    """NotTangent unless every entry of ``a`` is finite and within ``linalg.ENTRY_CAP``."""
    if not np.isfinite(a).all():
        raise NotTangent("tangent has non-finite entries")
    if over_cap(a):
        raise NotTangent("tangent has an entry beyond 2^400; quadratic functionals would overflow")


def _require_identifiable(iso, a):
    a = _as_matrix(iso, a)
    res = np.linalg.norm(dag(iso.v) @ a)
    if not (res <= 1e-8 * max(1.0, np.linalg.norm(a))):
        raise NotIdentifiable(f"v* a has norm {res:.3e}; split off the gauge part first")
    return a


def tangent_inner(profile, x, y):
    """Limit-model inner product Tr(rho_ss x* y) on identifiable directions."""
    ergodic.as_profile(profile).require_irreducible()
    x = _require_identifiable(profile.iso, x)
    y = _require_identifiable(profile.iso, y)
    return complex(np.trace(profile.rho_ss @ dag(x) @ y))


def stabiliser_tangent_action(profile, m, a):
    """Action of the m-th stabiliser element on an identifiable tangent.

    Returns gamma^m (Z*^m (x) 1) a Z^m; identifiability is preserved.
    """
    ergodic.as_profile(profile).require_irreducible()
    a = _require_identifiable(profile.iso, a)
    m = as_integer("m", m) % profile.period  # any integer: m is read mod p
    zm = profile.peripheral[m][1]
    out = profile.gamma**m * np.kron(dag(zm), np.eye(profile.k)) @ a @ zm
    return out


def mode_decompose(profile, a):
    """Decompose an identifiable tangent into stabiliser eigenmodes.

    Mode m collects the blocks (P_{a+1-m} (x) 1) A P_a; the stabiliser acts
    on it as multiplication by gamma^m.  The modes sum to the input and are
    mutually orthogonal for the limit-model inner product.
    """
    ergodic.as_profile(profile).require_irreducible()
    a = _require_identifiable(profile.iso, a)
    p = profile.period
    eye_k = np.eye(profile.k)
    modes = []
    for m in range(p):
        am = np.zeros_like(a)
        for blk in range(p):
            row = np.kron(profile.projections[(blk + 1 - m) % p], eye_k)
            am = am + row @ a @ profile.projections[blk]
        modes.append(am)
    return modes


def singular_dimension(profile):
    """Dimension bookkeeping at a periodic point.

    Returns the real dimensions of the non-identifiable (gauge) directions,
    of the identifiable space, of each stabiliser eigenmode, and the
    headline ``l`` = real dimension of the invariant mode-0 block.
    """
    ergodic.as_profile(profile).require_irreducible()
    d, k, p = profile.d, profile.k, profile.period
    dims = [profile.block_dims[a] for a in range(p)]
    mode_dims = []
    for m in range(p):
        dim_m = 2 * sum(
            dims[a] * (dims[(a + 1 - m) % p] * k - dims[(a + m) % p]) for a in range(p)
        )
        mode_dims.append(int(dim_m))
    return {
        "d_nonid": d * d,
        "d_id": 2 * d * d * (k - 1),
        "l": mode_dims[0],
        "mode_dims": mode_dims,
    }
