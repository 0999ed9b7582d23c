"""Spectral and ergodic analysis of the transfer operator.

``analyze`` classifies a chain as irreducible or not and, in the
irreducible case, extracts the full peripheral data: period p, the
peripheral eigenvalues gamma^a (p-th roots of unity), a canonical
stabiliser unitary Z with T(Z) = gamma Z, and the cyclic family of
periodic projections P_a with T(P_a) = P_{a-1 mod p}.

The canonical Z is gauged so that the projection attached to eigenvalue 1
has the largest possible overlap with the first standard basis vector
(ties broken by the next basis vector, and so on).  Downstream code must
not depend on the labeling beyond the cyclic relations above; tests check
relabeling invariance of everything built on top.
"""

import functools
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .channels import Isometry, apply_steps, as_isometry, kraus_step, real_transfer
from .errors import (
    DimensionMismatch,
    LabelingFailure,
    NotIrreducible,
    OutOfInterval,
    PeripheralMismatch,
    as_integer,
    as_state,
)
from .linalg import bordered_eigvec, bordered_solve, dag, herm_coords, herm_part, herm_vec

__all__ = [
    "ErgodicTol",
    "SpectralProfile",
    "analyze",
    "as_profile",
    "stationary_eigenbasis",
    "output_state",
    "access_span_check",
]


@dataclass(frozen=True)
class ErgodicTol:
    """Tolerance bundle for the spectral classification.

    peripheral_band : eigenvalues with ``|lambda| >= 1 - peripheral_band``
        count as peripheral
    faithfulness_floor : minimum eigenvalue of the stationary state for the
        chain to count as irreducible
    simplicity_gap : eigenvalue 1 must be separated from the rest of the
        spectrum near 1 by at least this much
    """

    peripheral_band: float = 1e-8
    faithfulness_floor: float = 1e-9
    simplicity_gap: float = 1e-8

    def __post_init__(self):
        for name in ("peripheral_band", "faithfulness_floor", "simplicity_gap"):
            val = getattr(self, name)
            if not (isinstance(val, numbers.Real) and np.isfinite(val) and val > 0):
                raise OutOfInterval(f"{name} must be a positive finite number, got {val!r}")


@dataclass
class SpectralProfile:
    """Result of :func:`analyze`.

    ``peripheral`` is a list of pairs ``(gamma^j, Z^j)`` for
    j = 0..p-1; ``projections`` the periodic projections P_a; ``rho_ss``
    the stationary state.  For a chain that fails the irreducibility
    checks only ``is_irreducible``, ``eigenvalues`` and ``diagnostics``
    are guaranteed to be populated.

    ``eigenvalues`` and ``diagnostics`` of a chain whose verdict the
    certificate decided without the spectrum, a period or a multiple
    eigenvalue 1, are computed on first read, by the dense checks of
    :func:`_dense_period` on a fresh transfer matrix, one dense ``eigvals``
    of it, with the rho_ss already found; a reducible chain has none, and
    its checks stop at the multiplicity.  The certified verdict stands.
    ``require_irreducible`` reads the verdict's reason, which every route
    sets eagerly, so it computes no spectrum.

    ``resolvent_cond``, the 2-norm condition number of the restricted
    resolvent behind ``gauge.restricted_resolvent_solve``, is computed on
    first read too, by :func:`_restricted_cond` from a fresh transfer
    matrix, and kept.  The solve itself checks a cheap probabilistic bound
    against the cap and reads this value only when the bound exceeds the
    cap or is not finite, or the system is singular.  An irreducible
    profile is required.
    """

    iso: Isometry
    d: int
    k: int
    is_irreducible: bool
    tol: ErgodicTol
    period: int = 0
    gamma: complex = 0j
    rho_ss: np.ndarray = None
    zmat: np.ndarray = None
    peripheral: list = field(default_factory=list)
    projections: list = field(default_factory=list)
    block_dims: list = field(default_factory=list)
    residuals: dict = field(default_factory=dict)
    # 2-norm condition number of the restricted resolvent; None until first
    # read, a scalar (no d^2 x d^2 cache)
    _resolvent_cond: float = field(default=None, repr=False, compare=False)
    # sorted spectrum; None until first read on the certified route
    _eigenvalues: np.ndarray = field(default=None, repr=False, compare=False)
    _diagnostics: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def eigenvalues(self):
        return self._read_spectrum()[0]

    @property
    def diagnostics(self):
        return self._read_spectrum()[1]

    def _read_spectrum(self):
        if self._eigenvalues is None:  # certified profiles only
            rho, fresh = self.rho_ss, replace(self, _diagnostics={})

            def solve():
                # a certified reducible chain has no rho_ss to hand over
                return None if rho is None else (rho, _min_eigenvalue(rho))

            _dense_period(fresh, real_transfer(self.iso), solve)
            self._eigenvalues = fresh._eigenvalues
            self._diagnostics = {**fresh._diagnostics, **self._diagnostics}
        return self._eigenvalues, self._diagnostics

    @property
    def resolvent_cond(self):
        if self._resolvent_cond is None:
            self.require_irreducible()
            r = herm_coords(self.rho_ss).real
            self._resolvent_cond = _restricted_cond(real_transfer(self.iso).T, r)
        return self._resolvent_cond

    def require_irreducible(self):
        if not self.is_irreducible:
            raise NotIrreducible(self._diagnostics.get("reason", "chain is not irreducible"))


def _restricted_cond(th, r):
    """2-norm condition number of B* (1 - T) B for an orthonormal basis B of
    {x : Tr(rho_ss x) = 0}.

    ``th`` is the real Heisenberg matrix and ``r`` the real coordinates of
    rho_ss, both in the Hermitian basis; that basis is orthonormal, so the
    singular values are those of the vec form.  With u = r / ||r||, the
    singular values of M = (1 - T)(1 - u u^T) are those of B* (1 - T) B
    plus one structural zero (u^T is a left null vector of 1 - T), so no
    basis is formed and one values-only SVD of M gives
    sigma_max / sigma_min+, its largest over its second smallest value.
    """
    n = th.shape[0]
    if n < 2:  # d = 1: the subspace is {0}
        return 1.0
    u = r / np.linalg.norm(r)
    m = np.multiply.outer(th @ u - u, u)
    m -= th
    m[np.diag_indices(n)] += 1.0
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[0] / s[-2])


def _canonical_z(u_raw, p):
    """Polish a peripheral eigen-operator into the canonical stabiliser Z.

    ``u_raw`` is any (nonzero) eigenvector of the Heisenberg transfer matrix
    for eigenvalue gamma = exp(2 pi i / p), reshaped to d x d.  For an
    irreducible chain it is proportional to a unitary with spectrum
    {c gamma^a}.  Returns the relabeled Z = sum_a gamma^a P_a whose
    eigenvalue-1 projection maximises the standard-basis overlap rule.
    """
    d = u_raw.shape[0]
    # unitary polar factor removes the modulus freedom
    w, s, vh = np.linalg.svd(u_raw)
    if s[-1] < 1e-10 * s[0]:
        raise PeripheralMismatch("peripheral eigen-operator is numerically singular")
    u = w @ vh
    evals, evecs = np.linalg.eig(u)
    gamma = np.exp(2j * np.pi / p)
    # cluster the unitary's eigenvalues around c * gamma^a; the overall
    # phase c is fixed by the first eigenvalue
    c0 = evals[0] / abs(evals[0])
    labels = np.array([int(np.argmin(np.abs(ev / c0 - gamma ** np.arange(p)))) for ev in evals])
    spread = float(np.max(np.abs(evals / c0 - gamma**labels)))
    if not (spread <= 1e-6):
        raise PeripheralMismatch(
            f"stabiliser spectrum deviates from roots of unity by {spread:.3e}"
        )
    # orthonormalise eigenvectors within each cluster (eig output may be
    # skewed for repeated eigenvalues)
    projections = []
    for a in range(p):
        cols = evecs[:, labels == a]
        if cols.shape[1] == 0:
            raise PeripheralMismatch(f"stabiliser eigenvalue cluster {a} is empty")
        q, _ = np.linalg.qr(cols)
        projections.append(q @ dag(q))
    # relabeling: among the p cyclic shifts, pick the one whose projection
    # at label 0 wins the standard-basis overlap rule
    best_shift, best_key = 0, None
    for shift in range(p):
        pj = projections[shift % p]
        key = tuple(float(pj[j, j].real) for j in range(d))
        if best_key is None or key > best_key:
            best_key, best_shift = key, shift
    projections = [projections[(a + best_shift) % p] for a in range(p)]
    z = sum(gamma**a * projections[a] for a in range(p))
    return z, projections


# Spectral certificate.  Eigenvalues-only dense eig of R costs O(d^6);
# a block of traceless operators stepped by T costs O(d^4) a step with R,
# O(k d^3) an operator in Kraus form, and on a primitive chain it decays
# like the second-largest eigenvalue modulus, about 0.6 to 0.85 a step on
# random chains, so 40 to 110 steps suffice.  Below d = 10 the budget of
# d^2 steps is often too short for that (6 of 10 random d = 8, k = 2
# chains declined after 64 steps), and the dense eigensolver takes under
# 4 ms anyway.
_CERTIFY_MIN_D = 10
# From this d on the certificate steps in Kraus form.  A product with R
# streams its d^2 x d^2 entries for a few columns, and R leaves the cache
# between d = 22 and 23 (2.2 MB): at k = 2 and one BLAS thread, a step of
# 4 columns took 39 us with R against 50 us in Kraus form at d = 22, and
# 176 against 61 us at d = 23.
_KRAUS_MIN_D = 23
_CERTIFY_COLUMNS = 4
# Width of the periodic stage's block.  Its Ritz values can hold the p - 1
# non-trivial p-th roots of unity for p <= _RITZ_COLUMNS + 1.
_RITZ_COLUMNS = 6
# Any fixed seed will do: the start blocks only have to be generic, i.e.
# not orthogonal to the spectral projection of any eigenvalue (the argument
# of linalg.bordered_eigvec's seeded border).
_CERTIFY_SEED = 20251019
# The block must decay by this factor.  An eigenvalue that the tolerances
# count as peripheral or as 1 keeps at least half its component within the
# step budget, so a false certificate needs a start block whose component
# along it is below 2e-8 of the block's norm.  For the Gaussian block that
# has probability about 32 (1e-8)^4 d^4, under 1e-24 at d = 32, and 1e-8
# lies far above the roundoff of the steps.
_CERTIFY_DECAY = 1e-8
_CERTIFY_WINDOW = 8
# Tolerances below this are within the roundoff of the dense eigenvalue 1,
# so only the dense route can reproduce its verdict.
_CERTIFY_TOL_FLOOR = 1e-10
# largest distance of a peripheral eigenvalue from its root of unity
_ROOT_DEVIATION = 1e-6
# Largest residual of the peripheral Ritz subspace, as a share of the
# smallest tolerance its Ritz values are judged by.  With residual e they
# are eigenvalues of a matrix within e of R, so each lies within about
# kappa e of an eigenvalue of R, kappa that eigenvalue's condition number
# (1.1 to 1.25 for the peripheral ones of random cyclic chains at d = 8 to
# 24); 1/20 of the tolerance keeps kappa e inside the half margins for
# kappa up to 10.
_RITZ_RESIDUAL = 0.05
_MULTIPLE_ONE = "eigenvalue 1 has multiplicity {} within simplicity_gap"
_DEGENERACY_TOL = 1e-9  # stationary_eigenbasis: rho_ss eigenvalues this close are one cluster
_SPAN_RANK_TOL = 1e-10  # access_span_check: rank tolerance on unit-norm candidates


def _certify(r, iso, tol):
    """Period p > 0, or -m for an eigenvalue 1 of multiplicity m, that the
    spectrum of T certifies; 0 when undecided.

    A nonzero p says that, apart from the simple eigenvalue 1, the only
    eigenvalues with modulus at least 1 - max(peripheral_band,
    simplicity_gap) are the p - 1 non-trivial p-th roots of unity, each
    simple; that is the dense route's verdict "period p" as far as the
    spectrum decides it.  A negative -m says that exactly m eigenvalues lie
    within simplicity_gap of 1, the dense route's verdict "eigenvalue 1 has
    multiplicity m".  Seeded Gaussian blocks of traceless operators
    are stepped by Q T, Q the orthogonal projection that removes the trace
    (X -> X - tr(X)/d 1), so that an isometry defect cannot leak the
    eigenvalue 1 back in; :func:`_certificate_step` applies T with R, the
    real transfer matrix, below ``_KRAUS_MIN_D`` and in Kraus form from it
    on.  The primitive stage certifies p = 1 when a block of
    ``_CERTIFY_COLUMNS`` decays by ``_CERTIFY_DECAY`` within m steps, where
    (1 - max(band, gap))^m >= 1/2 and m <= d^2.  At m = d^2 steps the
    block costs 8 d^6 flops with R, against about 10 d^6 for the dense
    eigensolver; in Kraus form one step costs 16 k d^3 flops an operator,
    so the block costs 64 k d^5, and it no longer streams the 8 d^4 bytes
    of R each step, which is what a step with R waits for once R leaves
    the cache.  Every ``_CERTIFY_WINDOW`` steps the decay of the last
    window is extrapolated, and the stage ends as soon as the budget
    cannot reach the target, so a periodic or reducible chain, whose block
    stalls, costs a few windows.  Then :func:`_certify_periodic` looks for
    the roots, or for the traceless copies of eigenvalue 1.

    Those copies are eigenvalues of Q T on the traceless operators; the
    trivial eigenvalue 1 of T, that of rho_ss, is not among them.  T is
    trace preserving up to the isometry defect e = ||sum_u K_u* K_u - 1||_F
    / sqrt(d), the residual of the identity as a left eigenvector of R, so
    T differs by at most e from a map with the spectrum of Q T and one
    more eigenvalue within e of 1.  A count is therefore certified only
    for e <= ``_RITZ_RESIDUAL`` simplicity_gap, which the Ritz residual
    argument then absorbs for condition numbers up to 5; an isometry
    is exact to roundoff, where it absorbs them up to 10.
    """
    d = iso.d
    margin = max(tol.peripheral_band, tol.simplicity_gap)
    if (
        d < _CERTIFY_MIN_D
        or min(tol.peripheral_band, tol.simplicity_gap) < _CERTIFY_TOL_FLOOR
        or not margin < 1.0
    ):
        return 0
    budget = min(d * d, int(np.log(0.5) / np.log1p(-margin)))
    step, embed = _certificate_step(r, iso)
    rng = np.random.default_rng(_CERTIFY_SEED)

    def fresh(columns):
        return embed(_traceless_block(rng, d, columns))

    decayed, block = _decays(step, fresh(_CERTIFY_COLUMNS), budget)
    if decayed:
        return 1
    # the stalled block already leans towards the slowest eigenvectors, so
    # it starts the periodic stage a few windows ahead of a fresh one
    start = np.hstack([block, fresh(_RITZ_COLUMNS - _CERTIFY_COLUMNS)])
    p = _certify_periodic(step, tol, budget, fresh, start)
    if p < 0:
        gram = sum(k.conj().T @ k for k in iso.kraus)
        gram[np.diag_indices(d)] -= 1.0
        if not np.linalg.norm(gram) <= _RITZ_RESIDUAL * tol.simplicity_gap * np.sqrt(d):
            return 0
    return p


def _certificate_step(r, iso):
    """(step, embed): Q T on a block of traceless operators, one a column,
    and the map from a block of Hermitian coordinates to such a block.

    Below ``_KRAUS_MIN_D`` a column holds the operator's coordinates in the
    Hermitian basis and a step is one product with Q R.  From it on, a
    column holds the real and imaginary parts of the d x d matrix itself,
    a view of a stack of matrices: its norm and its inner products are
    those of the coordinates, so the stages read it as they read
    coordinates, and only a start block is converted.  A step then applies
    rho -> sum_u K_u rho K_u* to the stack through ``channels.kraus_step``
    and takes the mean of the diagonal off the diagonal; R is not read.
    """
    d = iso.d
    if d < _KRAUS_MIN_D:
        a = r.copy()
        a[:d] -= a[:d].mean(axis=0)
        return (lambda b: a @ b), (lambda c: c)
    kr = np.stack(iso.kraus)
    apply = kraus_step(kr, kr.conj().transpose(0, 2, 1))

    def columns(x):
        return x.reshape(len(x), -1).view(float).T

    def step(b):
        y = apply(np.ascontiguousarray(b.T).view(complex).reshape(-1, d, d))
        diagonal = y.reshape(len(y), -1)[:, :: d + 1]
        diagonal -= diagonal.sum(axis=1, keepdims=True) / d
        return columns(y)

    return step, lambda c: columns(herm_vec(c.T))


def _traceless_block(rng, d, columns):
    """Gaussian n x columns block of traceless coordinates."""
    block = rng.standard_normal((d * d, columns))
    block[:d] -= block[:d].mean(axis=0)
    return block


def _decays(step, block, budget):
    """(whether ``block`` decays by ``_CERTIFY_DECAY`` within ``budget``
    calls of ``step``, the block after the last call).

    ``step`` maps a block to its image: one certificate step, that step
    followed by a deflation, or p applications of the sandwich map of
    ``gauge.equivalence_witness`` in Kraus form.
    """
    size = np.linalg.norm(block)
    target = _CERTIFY_DECAY * size
    for taken in range(_CERTIFY_WINDOW, budget + 1, _CERTIFY_WINDOW):
        for _ in range(_CERTIFY_WINDOW):
            block = step(block)
        last, size = size, np.linalg.norm(block)
        if size <= target:
            return True, block
        rate = size / last
        # a NaN or a stall fails the first test, a decay too slow for the
        # budget the second
        if not rate < 1.0:
            return False, block
        if not taken + _CERTIFY_WINDOW * np.log(target / size) / np.log(rate) <= budget:
            return False, block
    return False, block


def _certify_periodic(step, tol, budget, fresh, block):
    """Period p >= 2, or -m for an eigenvalue 1 of multiplicity m >= 2, by
    block subspace iteration with Rayleigh-Ritz; 0 when undecided.

    The peripheral spectrum of an irreducible channel is the group of p-th
    roots of unity, each simple (Evans and Hoegh-Krohn, J. London Math.
    Soc. 17, 345, 1978), so on the traceless operators it is the p - 1
    non-trivial roots.  A reducible channel leaves a projection invariant
    and has a fixed point besides rho_ss (Wolf, Quantum Channels &
    Operations: Guided Tour, 2012), so its eigenvalue 1 is multiple, and
    on the traceless operators it has m - 1 copies.  ``block``, of
    ``_RITZ_COLUMNS`` traceless columns, is stepped by ``step`` and
    orthonormalised once a window; the eigenvalues of its Rayleigh
    quotient, the Ritz values, converge to the largest eigenvalues of the
    step (Stewart, Numer. Math. 25, 123, 1976).

    The stage returns -m when m - 1 < ``_RITZ_COLUMNS`` Ritz values lie
    within simplicity_gap / 2 of 1, and p when none does and the Ritz
    values within ``peripheral_band`` of the unit circle are exactly the
    p - 1 non-trivial p-th roots, within half the tolerances the dense
    route applies to its eigenvalues.  Either way the real invariant
    subspace of those Ritz values must have a residual below
    ``_RITZ_RESIDUAL`` of the tolerance they are judged by, and a block of
    ``fresh(_CERTIFY_COLUMNS)``, a fresh traceless one, with that subspace
    projected out of it and of every step, must decay as in the primitive
    stage.  Stepping goes on while the residual is above that bar.

    The deflated block cannot decay past an eigenvalue of modulus above
    ``radius`` within the budget, so the stage returns 0 as soon as a Ritz
    pair has converged to a value within 1 - ``radius`` of 1 but more than
    half a gap from it, or to a modulus between ``radius`` and the rim (no
    non-trivial root lies within 1 - ``radius`` of 1; a pair counts as
    converged when its residual is below 1/100 of its distance to the
    region it is outside of).  It returns 0 when the copies of 1 fill the
    block, which may hide more of them, and when the residual it waits for,
    that of the copies of 1 or else that of the largest Ritz pair, is
    extrapolated not to reach its bar within the budget, as for
    p > _RITZ_COLUMNS + 1, or when the budget runs out: every undecided
    chain goes to the dense route.
    """
    band, gap = tol.peripheral_band, tol.simplicity_gap
    radius = _CERTIFY_DECAY ** (1.0 / max(budget, 1))
    error = None
    for taken in range(_CERTIFY_WINDOW, budget + 1, _CERTIFY_WINDOW):
        q, _ = np.linalg.qr(block)
        block = step(q)
        h = q.T @ block
        if not np.isfinite(h).all():
            return 0
        ritz, vecs = np.linalg.eig(h)
        mods, dist = np.abs(ritz), np.abs(ritz - 1.0)
        errors = np.linalg.norm(block @ vecs - (q @ vecs) * ritz, axis=0)
        off_rim = 1.0 - band - mods
        # Ritz values that only a copy of 1 may stand for: a value this
        # close to 1 that is not within half a gap of it stops the deflated
        # block from decaying
        close, near = dist < 1.0 - radius, dist <= 0.5 * gap
        if np.any(
            ~near
            & (
                (close & (errors <= 0.01 * (dist - 0.5 * gap)))
                | ((mods > radius) & (errors <= 0.01 * off_rim))
            )
        ):
            return 0
        chosen = None
        if close.any():
            copies = int(np.count_nonzero(close))
            if copies >= _RITZ_COLUMNS:
                return 0
            chosen, bar, verdict = close, _RITZ_RESIDUAL * gap, -(copies + 1)
        else:
            rim = off_rim <= 0.0
            p = int(np.count_nonzero(rim)) + 1
            bar = _RITZ_RESIDUAL * min(band, _ROOT_DEVIATION)
            if p > 1 and np.min(mods[rim]) >= 1.0 - 0.5 * band:
                assigned, worst = _root_deviation(np.append(1.0, ritz[rim]), p)
                if assigned == p and worst <= 0.5 * _ROOT_DEVIATION:
                    chosen, verdict = rim, p
        residual = None
        if chosen is not None:
            # real orthonormal basis of the span of the chosen Ritz vectors:
            # a conjugate pair's real and imaginary parts span its plane
            y = vecs[:, chosen]
            s = np.linalg.svd(np.hstack([y.real, y.imag]), full_matrices=False)[0]
            s = s[:, : np.count_nonzero(chosen)]
            basis = q @ s
            image = block @ s  # the step applied to basis
            residual = float(np.linalg.norm(image - basis @ (basis.T @ image)))
            if residual <= bar:
                if verdict < 0 and not near[chosen].all():
                    return 0  # converged, and not all of them within half a gap of 1

                def deflated_step(b):
                    # the step, compressed to the complement of the subspace
                    b = step(b)
                    b -= basis @ (basis.T @ b)
                    return b

                deflated = fresh(_CERTIFY_COLUMNS)
                deflated -= basis @ (basis.T @ deflated)
                return verdict if _decays(deflated_step, deflated, budget)[0] else 0
        # extrapolate the residual as the primitive stage extrapolates its
        # decay, past the first three windows: that of the subspace of the
        # values close to 1 once they show (a pair of them can swap or turn
        # complex from window to window, so their single residuals can
        # stall), else that of the largest Ritz pair, which on random
        # cyclic chains with p = 6 or 7 reads about 0.2, 0.1 and 0.02 to
        # 0.05 there before it falls by 10 or more a window
        last = error
        error = residual if close.any() else float(errors[np.argmax(mods)])
        if taken > 3 * _CERTIFY_WINDOW and error > bar:
            rate = error / last
            if not rate < 1.0:
                return 0
            if not taken + _CERTIFY_WINDOW * np.log(bar / error) / np.log(rate) <= budget:
                return 0
        for _ in range(_CERTIFY_WINDOW - 1):
            block = step(block)
    return 0


def _root_deviation(per, p):
    """(number of p-th roots of unity hit, largest distance to the nearest)."""
    targets = np.exp(2j * np.pi / p) ** np.arange(p)
    gaps = np.abs(per[:, None] - targets[None, :])
    return len(set(np.argmin(gaps, axis=1).tolist())), float(np.max(np.min(gaps, axis=1)))


def _stationary(r, d):
    """Bordered solve for rho_ss: ``(rho, s)``; LinAlgError when singular.

    The coordinates of 1 are the left 1-eigenvector of the trace-preserving
    R, so they border the system and fix Tr rho = 1.  The border weight s
    measures the isometry defect: 1 - d s is the eigenvalue of R near 1, to
    second order in the defect.
    """
    one = herm_coords(np.eye(d)).real
    x, s = bordered_solve(r, 1.0, one, one, np.zeros(d * d), 1.0)
    rho = herm_vec(x)
    return rho / np.trace(rho).real, float(s)


def as_profile(value):
    """The profile reader: ``value`` when it is a SpectralProfile, else DimensionMismatch."""
    if not isinstance(value, SpectralProfile):
        raise DimensionMismatch(f"profile must be a SpectralProfile, got a {type(value).__name__}")
    return value


def _min_eigenvalue(rho):
    """Smallest eigenvalue of rho, which the faithfulness check reads."""
    return float(np.linalg.eigvalsh(rho)[0])


def analyze(iso, tol=None):
    """Classify the chain and extract its peripheral spectral data.

    One real transfer matrix R (``channels.real_transfer``) is built per
    call: T_s in the Hermitian operator basis, with the Heisenberg matrix
    R^T.  The period p comes from :func:`_certify`, or, when the
    certificate declines, from the dense checks of :func:`_dense_period`.
    A call makes at most one bordered solve for rho_ss and one
    faithfulness check of it: first, when the certificate gave p, which
    stands if the solve puts the eigenvalue of R near 1 within half the
    tolerances of 1 and rho_ss is faithful (the spectrum is then computed
    when read); otherwise the dense checks reuse that solve, or make it
    once eigenvalue 1 is simple, so a reducible chain makes none.  When the
    certificate gives an eigenvalue 1 of multiplicity m, the profile is
    reducible with the dense route's reason at once, and neither a solve
    nor the spectrum is computed until ``eigenvalues`` or ``diagnostics``
    is read.  No eigenvector matrix is ever formed; both routes give the
    same profile.
    """
    iso = as_isometry("iso", iso)
    if tol is None:
        tol = ErgodicTol()
    elif not isinstance(tol, ErgodicTol):
        raise DimensionMismatch(f"tol must be an ErgodicTol, got a {type(tol).__name__}")
    d = iso.d
    r = real_transfer(iso)
    profile = SpectralProfile(iso=iso, d=d, k=iso.k, is_irreducible=False, tol=tol)

    @functools.cache
    def solve():
        # (rho, its smallest eigenvalue, the eigenvalue of R near 1), or
        # None when the bordered system is singular
        try:
            rho, s = _stationary(r, d)
        except np.linalg.LinAlgError:
            return None
        return rho, _min_eigenvalue(rho), 1.0 - d * s

    p = _certify(r, iso, tol)
    if p < 0:
        profile._diagnostics["reason"] = _MULTIPLE_ONE.format(-p)
        return profile
    solved = solve() if p else None
    # half the tolerances: the dense eigenvalue 1 differs from solved[2]
    # by roundoff, far below the floor the certificate puts on them
    if solved is not None and (
        abs(solved[2] - 1.0) <= 0.5 * min(tol.simplicity_gap, _ROOT_DEVIATION)
        and abs(solved[2]) >= 1.0 - 0.5 * tol.peripheral_band
        and solved[1] >= tol.faithfulness_floor
    ):
        profile.rho_ss = solved[0]
    else:
        p = _dense_period(profile, r, solve)
    if p:
        _finish_irreducible(profile, r, p)
    return profile


def _dense_period(profile, r, solve):
    """Period p from the dense spectrum of R, or 0 with the reason recorded.

    Sets the profile's sorted spectrum and fills its diagnostics in their
    key order: ``spectral_gap``, ``distance_to_one``, then, once eigenvalue
    1 is simple, ``stationary_min_eigenvalue`` and ``rho_ss`` from
    ``solve()`` (``(rho, smallest eigenvalue, ...)``, or None when
    singular), then, once rho_ss is faithful, ``peripheral_deviation`` of
    the rim, which must be the p-th roots of unity.
    """
    tol, diagnostics = profile.tol, profile._diagnostics
    evals = np.linalg.eigvals(r).astype(complex)
    # modulus descending; conjugate pairs of the real eigensolver tie in
    # modulus exactly, so the imaginary part and then the real part decide
    profile._eigenvalues = evals[np.lexsort((-evals.real, -evals.imag, -np.abs(evals)))]
    mods = np.abs(evals)
    on_rim = mods >= 1.0 - tol.peripheral_band
    # a NaN modulus is off the rim, so it reaches the gap instead of hiding
    dist_to_one = np.abs(evals - 1.0)
    diagnostics["spectral_gap"] = 1.0 - float(np.max(mods[~on_rim], initial=0.0))
    diagnostics["distance_to_one"] = float(dist_to_one[int(np.argmin(dist_to_one))])

    # eigenvalue 1: simple within the gap?
    near_one = np.sum(dist_to_one <= tol.simplicity_gap)
    if not (diagnostics["distance_to_one"] <= tol.simplicity_gap):
        diagnostics["reason"] = "no eigenvalue within simplicity_gap of 1"
        return 0
    if near_one > 1:
        diagnostics["reason"] = _MULTIPLE_ONE.format(near_one)
        return 0

    solved = solve()
    if solved is None:
        diagnostics["reason"] = "stationary bordered system is singular"
        return 0
    profile.rho_ss, min_eig = solved[:2]
    diagnostics["stationary_min_eigenvalue"] = min_eig
    if not (min_eig >= tol.faithfulness_floor):
        diagnostics["reason"] = f"stationary state not faithful (min eigenvalue {min_eig:.3e})"
        return 0

    # peripheral spectrum
    per = evals[on_rim]
    p = len(per)
    if p == 0:
        raise PeripheralMismatch(
            "no eigenvalue within peripheral_band of the unit circle, though one is within "
            "simplicity_gap of 1; adjust peripheral_band"
        )
    assigned, worst = _root_deviation(per, p)
    diagnostics["peripheral_deviation"] = worst
    if assigned != p or not (worst <= _ROOT_DEVIATION):
        raise PeripheralMismatch(
            f"peripheral set of size {p} does not match the p-th roots of unity "
            f"(max deviation {worst:.3e}); adjust peripheral_band"
        )
    return p


def _finish_irreducible(profile, r, p):
    """Peripheral data of an irreducible chain of period p; sets the verdict."""
    d, rho = profile.d, profile.rho_ss
    gamma = np.exp(2j * np.pi / p)
    profile.period = p
    profile.gamma = complex(gamma) if p > 1 else 1.0 + 0j

    # canonical stabiliser unitary and periodic projections
    if p == 1:
        z = np.eye(d, dtype=complex)
        projections = [np.eye(d, dtype=complex)]
    else:
        try:
            u, res = bordered_eigvec(r, gamma, adjoint=True)
        except np.linalg.LinAlgError:
            res = np.inf
        if not res <= 1e-6:
            raise PeripheralMismatch(
                "Heisenberg transfer operator has no eigen-operator at the expected "
                f"peripheral eigenvalue (relative residual {res:.3e})"
            )
        z, projections = _canonical_z(herm_vec(u), p)

    # verify the cyclic labeling: T(P_a) = P_{a-1 mod p}, with T = R^T
    def th_apply(x):
        # real and imaginary parts apart: R @ complex would copy R to complex
        c = herm_coords(x)
        return herm_vec(r.T @ c.real + 1j * (r.T @ c.imag))

    label_res = float(
        np.max([np.linalg.norm(th_apply(projections[a]) - projections[a - 1]) for a in range(p)])
    )
    if not (label_res <= 1e-7):
        raise LabelingFailure(
            f"periodic projections fail the cyclic relation (residual {label_res:.3e})"
        )
    profile.residuals["cyclic_labeling"] = label_res
    profile.residuals["z_eigenrelation"] = float(
        np.linalg.norm(th_apply(z) - gamma * z)
    ) if p > 1 else 0.0

    weights = [float(np.trace(pj @ rho @ pj).real) for pj in projections]
    profile.residuals["block_weights"] = max(abs(wt - 1.0 / p) for wt in weights)
    profile.zmat = z
    profile.projections = projections
    profile.peripheral = [(complex(gamma**j), np.linalg.matrix_power(z, j)) for j in range(p)]
    profile.block_dims = [int(round(np.trace(pj).real)) for pj in projections]
    profile.is_irreducible = True
    profile._diagnostics["reason"] = "irreducible"


def stationary_eigenbasis(profile):
    """Block-resolved eigendecomposition of the stationary state.

    Returns a list over blocks a of lists of pairs ``(pi, phi)`` with
    eigenvalues in descending order inside each block.  Within a
    numerically degenerate eigenvalue cluster the eigenvectors are rotated
    to align with the standard basis (QR of the projected identity), which
    makes the output deterministic.
    """
    as_profile(profile).require_irreducible()
    d = profile.d
    out = []
    for a in range(profile.period):
        pj = profile.projections[a]
        w, u = np.linalg.eigh(pj)
        cols = u[:, w > 0.5]
        da = cols.shape[1]
        rho_blk = dag(cols) @ profile.rho_ss @ cols
        vals, vecs = np.linalg.eigh(rho_blk)
        vals, vecs = vals[::-1], vecs[:, ::-1]
        # align degenerate clusters with the standard basis
        i = 0
        while i < da:
            j = i + 1
            while j < da and abs(vals[j] - vals[i]) <= _DEGENERACY_TOL:
                j += 1
            if j - i > 1:
                sub = cols @ vecs[:, i:j]  # d x m frame of the cluster
                proj = sub @ dag(sub)
                seeds = []
                for e in np.eye(d, dtype=complex).T:
                    cand = proj @ e
                    if np.linalg.norm(cand) > 1e-8:
                        seeds.append(cand)
                    if len(seeds) == j - i:
                        break
                if len(seeds) == j - i:
                    q, _ = np.linalg.qr(np.stack(seeds, axis=1))
                    vecs = vecs.copy()
                    vecs[:, i:j] = dag(cols) @ q
            i = j
        out.append([(float(vals[i]), cols @ vecs[:, i]) for i in range(da)])
    return out


def output_state(iso, rho_in, n):
    """Reduced state of the first n output units, system traced out.

    Unit factors are ordered chronologically: the first emitted unit is the
    leftmost (most significant) tensor factor.
    """
    iso = as_isometry("iso", iso)
    d, k = iso.d, iso.k
    n = as_integer("n", n, 0)
    vals, vecs = np.linalg.eigh(herm_part(as_state("input state", rho_in, d)))
    # apply_steps enforces the tensor cap, so it runs before the k^n x k^n
    # result is allocated
    psis = [apply_steps(iso, phi, n).reshape(d, k**n) for phi in vecs.T]
    out = np.zeros((k**n, k**n), dtype=complex)
    for pi, psi in zip(vals, psis):
        if pi > 1e-14:
            out += pi * dag(psi) @ psi
    return out


def access_span_check(iso):
    """Algebraic irreducibility oracle, independent of the spectral route.

    Grows the linear span of all Kraus words K_{w_m} ... K_{w_1} (starting
    from the empty word, the identity) under left multiplication by the
    generators, one word length at a time.  The Kraus family admits no
    common invariant subspace exactly when this unital algebra is the full
    matrix algebra, i.e. when the span reaches dimension d^2; that in turn
    is equivalent to the channel having a unique faithful stationary state.
    Returns True for irreducible.

    Each level multiplies the previous level's new directions F_f by every
    generator K_u in one product, the stacked (k d) x d Kraus matrix times
    [F_1 ... F_f], and scales each candidate K_u F_f to unit norm.  The
    candidates, in (f, u) order, are taken in chunks of at most the room
    left, d^2 minus the basis size.  Each chunk is orthogonalised twice
    against the basis as it stands, the directions of earlier chunks of
    the level included (CGS2, which keeps the basis orthonormal to working
    precision; Bjorck, LAA 197-198, 1994).  Its new directions are the
    right singular vectors of the residual chunk whose singular values
    exceed ``_SPAN_RANK_TOL``: a relative rank tolerance, since the
    candidates had unit norm before projection.  The call returns as soon
    as the basis fills the space, so no SVD is taller than the room it can
    fill: the last level of a random d = 16, k = 2 chain is one row, not
    256.  The next level starts from the directions this one added.

    A randomised sketch of each block down to the room left would shrink
    the SVDs as much, but it would scale the singular values that the
    relative tolerance reads; chunking keeps them and needs no seed.

    Resolution: a family that leaks out of an almost invariant subspace by
    eps leaves residual singular values of about eps where the span would
    otherwise stall.  Leaks of 1e-8 and above are resolved and give True.
    A leak below ``_SPAN_RANK_TOL`` is decided by roundoff, not by eps:
    the stalled level's residuals sit near the tolerance, and whether one
    of them crosses it depends on the order of the rounding errors.
    """
    iso = as_isometry("iso", iso)
    d = iso.d
    full = d * d
    kraus = np.concatenate(iso.kraus)  # (k d) x d, K_u in row block u
    basis = (np.eye(d, dtype=complex) / np.sqrt(d)).reshape(1, full)
    frontier = basis
    while len(frontier):
        f = len(frontier)
        words = kraus @ frontier.reshape(f, d, d).transpose(1, 0, 2).reshape(d, f * d)
        cand = words.reshape(-1, d, f, d).transpose(2, 0, 1, 3).reshape(-1, full)
        norms = np.linalg.norm(cand, axis=1)
        cand = cand[norms > 0] / norms[norms > 0, None]
        start = len(basis)
        while len(cand) and len(basis) < full:
            room = full - len(basis)
            chunk, cand = cand[:room], cand[room:]
            chunk -= (chunk @ basis.conj().T) @ basis
            chunk -= (chunk @ basis.conj().T) @ basis  # second pass: CGS2
            _, sv, vh = np.linalg.svd(chunk, full_matrices=False)
            basis = np.concatenate([basis, vh[sv > _SPAN_RANK_TOL]])
        if len(basis) >= full:
            return True
        frontier = basis[start:]
    return False
