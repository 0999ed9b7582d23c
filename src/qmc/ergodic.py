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

from dataclasses import dataclass, field

import numpy as np

from .channels import Isometry, apply_steps, real_transfer
from .errors import (
    DimensionMismatch,
    LabelingFailure,
    NotHermitian,
    NotIrreducible,
    NotPSD,
    PeripheralMismatch,
    as_integer,
)
from .linalg import bordered_eigvec, bordered_solve, dag, herm_coords, herm_part, herm_vec

__all__ = [
    "ErgodicTol",
    "SpectralProfile",
    "analyze",
    "periodic_projections",
    "ergodic_projection",
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
            if not (np.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be positive and finite, got {val!r}")


@dataclass
class SpectralProfile:
    """Result of :func:`analyze`.

    ``peripheral`` is a list of pairs ``(gamma^j, Z^j)`` for
    j = 0..p-1; ``projections`` the periodic projections P_a; ``rho_ss``
    the stationary state.  For a chain that fails the irreducibility
    checks only ``is_irreducible``, ``eigenvalues`` and ``diagnostics``
    are guaranteed to be populated.

    ``eigenvalues`` and the spectral keys of ``diagnostics``
    (``spectral_gap``, ``distance_to_one``, ``peripheral_deviation``) of a
    chain whose period the certificate decided without the spectrum,
    primitive or periodic, are computed on first read, from a fresh
    transfer matrix, with the dense route's values and key order.

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
        if self._eigenvalues is None:
            self._read_spectrum()
        return self._eigenvalues

    @property
    def diagnostics(self):
        if self._eigenvalues is None:
            self._read_spectrum()
        return self._diagnostics

    def _read_spectrum(self):
        # only certified profiles get here, with the period the certificate
        # found; the non-spectral keys are stationary_min_eigenvalue and
        # reason, and the dense route's order interleaves them
        evals, self._eigenvalues, on_rim, spectral = _spectrum(real_transfer(self.iso), self.tol)
        _, worst = _root_deviation(evals[on_rim], self.period)
        rest = self._diagnostics
        self._diagnostics = {
            **spectral,
            "stationary_min_eigenvalue": rest["stationary_min_eigenvalue"],
            "peripheral_deviation": worst,
            "reason": rest["reason"],
        }

    @property
    def resolvent_cond(self):
        if self._resolvent_cond is None:
            self.require_irreducible()
            r = herm_coords(self.rho_ss).real
            self._resolvent_cond = _restricted_cond(real_transfer(self.iso).T, r)
        return self._resolvent_cond

    def require_irreducible(self):
        if not self.is_irreducible:
            raise NotIrreducible(self.diagnostics.get("reason", "chain is not irreducible"))


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
# a block of traceless coordinates stepped by R costs O(d^4) a step, and
# on a primitive chain it decays like the second-largest eigenvalue
# modulus, about 0.6 to 0.85 a step on random chains, so 40 to 110 steps
# suffice.  Below d = 10 the budget of d^2 steps is often too short for
# that (6 of 10 random d = 8, k = 2 chains declined after 64 steps), and
# the dense eigensolver takes under 4 ms anyway.
_CERTIFY_MIN_D = 10
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
_DEGENERACY_TOL = 1e-9  # stationary_eigenbasis: rho_ss eigenvalues this close are one cluster
_SPAN_RANK_TOL = 1e-10  # access_span_check: rank tolerance on unit-norm candidates


def _certify(r, d, tol):
    """Period p > 0 that the spectrum of R certifies, or 0 when undecided.

    A nonzero p says that, apart from the simple eigenvalue 1, the only
    eigenvalues with modulus at least 1 - max(peripheral_band,
    simplicity_gap) are the p - 1 non-trivial p-th roots of unity, each
    simple; that is the dense route's verdict "period p" as far as the
    spectrum decides it.  Seeded Gaussian blocks of traceless coordinates
    are stepped by Q R, Q the orthogonal projection that removes the
    trace, so that an isometry defect cannot leak the eigenvalue 1 back
    in.  The primitive stage certifies p = 1 when a block of
    ``_CERTIFY_COLUMNS`` decays by ``_CERTIFY_DECAY`` within m steps, where
    (1 - max(band, gap))^m >= 1/2 and m <= d^2.  At m = d^2 steps the
    n x 4 block costs 8 n^3 flops (n = d^2), against about 10 n^3 for the
    dense eigensolver.  Every ``_CERTIFY_WINDOW`` steps the decay of the
    last window is extrapolated, and the stage ends as soon as the budget
    cannot reach the target, so a periodic or reducible chain, whose block
    stalls, costs a few windows.  Then :func:`_certify_periodic` looks for
    the roots.
    """
    margin = max(tol.peripheral_band, tol.simplicity_gap)
    if (
        d < _CERTIFY_MIN_D
        or min(tol.peripheral_band, tol.simplicity_gap) < _CERTIFY_TOL_FLOOR
        or not margin < 1.0
    ):
        return 0
    n = d * d
    budget = min(n, int(np.log(0.5) / np.log1p(-margin)))
    a = r.copy()
    a[:d] -= a[:d].mean(axis=0)
    rng = np.random.default_rng(_CERTIFY_SEED)
    first = _traceless_block(rng, d, _CERTIFY_COLUMNS)
    decayed, block = _decays(lambda b: a @ b, first, budget)
    if decayed:
        return 1
    # the stalled block already leans towards the slowest eigenvectors, so
    # it starts the periodic stage a few windows ahead of a fresh one
    start = np.hstack([block, _traceless_block(rng, d, _RITZ_COLUMNS - _CERTIFY_COLUMNS)])
    return _certify_periodic(a, d, tol, budget, rng, start)


def _traceless_block(rng, d, columns, basis=None):
    """Gaussian n x columns block of traceless coordinates, orthogonal to ``basis``."""
    block = rng.standard_normal((d * d, columns))
    block[:d] -= block[:d].mean(axis=0)
    if basis is not None:
        block -= basis @ (basis.T @ block)
    return block


def _decays(step, block, budget):
    """(whether ``block`` decays by ``_CERTIFY_DECAY`` within ``budget``
    calls of ``step``, the block after the last call).

    ``step`` maps a block to its image: one product with the certificate's
    matrix, that product followed by a deflation, or p applications of
    the sandwich map of ``gauge.equivalence_witness`` in Kraus form.
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


def _certify_periodic(a, d, tol, budget, rng, block):
    """Period p >= 2 by block subspace iteration with Rayleigh-Ritz, or 0.

    The peripheral spectrum of an irreducible channel is the group of p-th
    roots of unity, each simple (Evans and Hoegh-Krohn, J. London Math.
    Soc. 17, 345, 1978), so on the traceless coordinates it is the p - 1
    non-trivial roots.  ``block``, of ``_RITZ_COLUMNS`` traceless columns,
    is stepped by ``a`` and orthonormalised once a window; the eigenvalues
    of its Rayleigh quotient, the Ritz values, converge to the largest
    eigenvalues of ``a`` (Stewart, Numer. Math. 25, 123, 1976).  The stage
    returns p when the Ritz values within ``peripheral_band`` of the unit
    circle are exactly the p - 1 non-trivial p-th roots, within half the
    tolerances the dense route applies to its eigenvalues, their real
    invariant subspace has a residual below ``_RITZ_RESIDUAL`` of those
    tolerances, and a fresh traceless block, with that subspace projected
    out of every step, decays as in the primitive stage.

    The deflated block cannot decay past an eigenvalue of modulus above
    ``radius`` within the budget, so the stage returns 0 as soon as a Ritz
    value lies within 1 - ``radius`` of 1 (a reducible chain's second
    eigenvalue 1 shows so in the first window, since the stalled block of
    the primitive stage holds it; no non-trivial root lies that close), or
    a Ritz pair has converged to a modulus between ``radius`` and the rim.
    It also returns 0 when the residual of the largest Ritz pair is
    extrapolated not to reach the tolerance within the budget, as for
    p > _RITZ_COLUMNS + 1, or when the budget runs out: every undecided
    chain goes to the dense route.
    """
    band = tol.peripheral_band
    radius = _CERTIFY_DECAY ** (1.0 / max(budget, 1))
    residual_tol = _RITZ_RESIDUAL * min(band, _ROOT_DEVIATION)
    error = None
    for step in range(_CERTIFY_WINDOW, budget + 1, _CERTIFY_WINDOW):
        q, _ = np.linalg.qr(block)
        block = a @ q
        h = q.T @ block
        if not np.isfinite(h).all():
            return 0
        ritz, vecs = np.linalg.eig(h)
        mods = np.abs(ritz)
        # residual of each Ritz pair; a pair counts as converged off the rim
        # when its residual is below 1/100 of its distance to the rim
        errors = np.linalg.norm(block @ vecs - (q @ vecs) * ritz, axis=0)
        off_rim = 1.0 - band - mods
        if np.min(np.abs(ritz - 1.0)) < 1.0 - radius or np.any(
            (mods > radius) & (errors <= 0.01 * off_rim)
        ):
            return 0
        rim = off_rim <= 0.0
        p = int(np.count_nonzero(rim)) + 1
        if p > 1 and np.min(mods[rim]) >= 1.0 - 0.5 * band:
            assigned, worst = _root_deviation(np.append(1.0, ritz[rim]), p)
            if assigned == p and worst <= 0.5 * _ROOT_DEVIATION:
                # real orthonormal basis of the span of the rim Ritz vectors:
                # a conjugate pair's real and imaginary parts span its plane
                y = vecs[:, rim]
                s = np.linalg.svd(np.hstack([y.real, y.imag]), full_matrices=False)[0][:, : p - 1]
                basis = q @ s
                image = block @ s  # a @ basis
                if np.linalg.norm(image - basis @ (basis.T @ image)) <= residual_tol:

                    def deflated_step(b):
                        # a, compressed to the complement of the rim subspace
                        b = a @ b
                        b -= basis @ (basis.T @ b)
                        return b

                    deflated = _traceless_block(rng, d, _CERTIFY_COLUMNS, basis)
                    return p if _decays(deflated_step, deflated, budget)[0] else 0
        # extrapolate the residual of the largest Ritz pair as the primitive
        # stage extrapolates its decay, past the first three windows: on
        # random cyclic chains with p = 6 or 7 it reads about 0.2, 0.1 and
        # 0.02 to 0.05 there before it falls by 10 or more a window
        last, error = error, float(errors[np.argmax(mods)])
        if step > 3 * _CERTIFY_WINDOW and error > residual_tol:
            rate = error / last
            if not rate < 1.0:
                return 0
            if not step + _CERTIFY_WINDOW * np.log(residual_tol / error) / np.log(rate) <= budget:
                return 0
        for _ in range(_CERTIFY_WINDOW - 1):
            block = a @ block
    return 0


def _spectrum(r, tol):
    """Dense spectrum of R: ``(evals, sorted evals, rim mask, diagnostics)``.

    The diagnostics hold ``spectral_gap`` and ``distance_to_one``.
    """
    evals = np.linalg.eigvals(r).astype(complex)
    # modulus descending; conjugate pairs of the real eigensolver tie in
    # modulus exactly, so the imaginary part and then the real part decide
    evals_sorted = evals[np.lexsort((-evals.real, -evals.imag, -np.abs(evals)))]
    mods = np.abs(evals)
    on_rim = mods >= 1.0 - tol.peripheral_band
    # a NaN modulus is off the rim, so it reaches the gap instead of hiding
    dist_to_one = np.abs(evals - 1.0)
    diagnostics = {
        "spectral_gap": 1.0 - float(np.max(mods[~on_rim], initial=0.0)),
        "distance_to_one": float(dist_to_one[int(np.argmin(dist_to_one))]),
    }
    return evals, evals_sorted, on_rim, diagnostics


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


def analyze(iso, tol=None):
    """Classify the chain and extract its peripheral spectral data.

    One real transfer matrix R (``channels.real_transfer``) is built per
    call: T_s in the Hermitian operator basis, with the Heisenberg matrix
    R^T.  A chain whose period p :func:`_certify` certifies, whose
    eigenvalue 1 from the stationary solve is within half the tolerances
    of 1 and whose stationary state is faithful, is irreducible with
    period p without the spectrum; its ``eigenvalues`` are computed when
    read.  Every other chain takes the dense route: a real
    eigenvalues-only decomposition gives the spectrum, and bordered solves
    the stationary state and the peripheral eigen-operator, so no
    eigenvector matrix is ever formed.  Both routes give the same profile.
    """
    if tol is None:
        tol = ErgodicTol()
    r = real_transfer(iso)
    p = _certify(r, iso.d, tol)
    if p:
        profile = _certified_profile(iso, r, tol, p)
        if profile is not None:
            return profile
    return _dense_profile(iso, r, tol)


def _certified_profile(iso, r, tol, p):
    """Profile of a chain certified with period p, or None when the dense route must decide."""
    try:
        rho, s = _stationary(r, iso.d)
    except np.linalg.LinAlgError:
        return None
    lam = 1.0 - iso.d * s
    # half the tolerances: the dense eigenvalue 1 differs from lam by
    # roundoff, far below the floor the certificate puts on them
    if not (
        abs(lam - 1.0) <= 0.5 * min(tol.simplicity_gap, _ROOT_DEVIATION)
        and abs(lam) >= 1.0 - 0.5 * tol.peripheral_band
    ):
        return None
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if not (min_eig >= tol.faithfulness_floor):
        return None
    profile = SpectralProfile(
        iso=iso,
        d=iso.d,
        k=iso.k,
        is_irreducible=False,
        tol=tol,
        _diagnostics={"stationary_min_eigenvalue": min_eig},
    )
    profile.rho_ss = rho
    _finish_irreducible(profile, r, p)
    return profile


def _dense_profile(iso, r, tol):
    d = iso.d
    evals, evals_sorted, on_rim, diagnostics = _spectrum(r, tol)
    profile = SpectralProfile(
        iso=iso,
        d=d,
        k=iso.k,
        is_irreducible=False,
        tol=tol,
        _eigenvalues=evals_sorted,
        _diagnostics=diagnostics,
    )

    # eigenvalue 1: simple within the gap?
    near_one = np.sum(np.abs(evals - 1.0) <= tol.simplicity_gap)
    if not (diagnostics["distance_to_one"] <= tol.simplicity_gap):
        diagnostics["reason"] = "no eigenvalue within simplicity_gap of 1"
        return profile
    if near_one > 1:
        diagnostics["reason"] = f"eigenvalue 1 has multiplicity {near_one} within simplicity_gap"
        return profile

    try:
        rho, _ = _stationary(r, d)
    except np.linalg.LinAlgError:
        diagnostics["reason"] = "stationary bordered system is singular"
        return profile
    eigs_rho = np.linalg.eigvalsh(rho)
    diagnostics["stationary_min_eigenvalue"] = float(eigs_rho[0])
    profile.rho_ss = rho
    if not (eigs_rho[0] >= tol.faithfulness_floor):
        diagnostics["reason"] = (
            f"stationary state not faithful (min eigenvalue {eigs_rho[0]:.3e})"
        )
        return profile

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
    _finish_irreducible(profile, r, p)
    return profile


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


def periodic_projections(profile):
    """Cyclic family P_a with T(P_a) = P_{a-1 mod p}; see :func:`analyze`."""
    profile.require_irreducible()
    return [pj.copy() for pj in profile.projections]


def ergodic_projection(profile, rho):
    """Time-average limit projection E_*(rho) = p sum_a Tr(rho P_a) rho_a^ss."""
    profile.require_irreducible()
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (profile.d, profile.d):
        raise DimensionMismatch(f"state shape {rho.shape}, expected ({profile.d}, {profile.d})")
    if not np.isfinite(rho).all():
        raise NotHermitian("state has non-finite entries")
    p = profile.period
    out = np.zeros_like(rho)
    for a in range(p):
        pj = profile.projections[a]
        weight = np.trace(rho @ pj)
        out = out + p * weight * (pj @ profile.rho_ss @ pj)
    return out


def stationary_eigenbasis(profile):
    """Block-resolved eigendecomposition of the stationary state.

    Returns a list over blocks a of lists of pairs ``(pi, phi)`` with
    eigenvalues in descending order inside each block.  Within a
    numerically degenerate eigenvalue cluster the eigenvectors are rotated
    to align with the standard basis (QR of the projected identity), which
    makes the output deterministic.
    """
    profile.require_irreducible()
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
    d, k = iso.d, iso.k
    n = as_integer("n", n, 0)
    rho_in = np.asarray(rho_in, dtype=complex)
    if rho_in.shape != (d, d):
        raise DimensionMismatch(f"input state shape {rho_in.shape}, expected ({d}, {d})")
    if not np.isfinite(rho_in).all():
        raise NotHermitian("input state has non-finite entries")
    vals, vecs = np.linalg.eigh(herm_part(rho_in))
    if vals[0] < -1e-10:
        raise NotPSD(f"input state has eigenvalue {vals[0]:.3e}")
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

    Each level multiplies the previous level's new directions by every
    generator, scales each candidate to unit norm, and orthogonalises the
    block twice against the basis so far (CGS2, which keeps the basis
    orthonormal to working precision; Bjorck, LAA 197-198, 1994).  The new
    directions are the right singular vectors of the residual block whose
    singular values exceed ``_SPAN_RANK_TOL``: a relative rank tolerance,
    since the candidates had unit norm before projection.
    """
    d = iso.d
    full = d * d
    kraus = np.stack(iso.kraus)
    basis = (np.eye(d, dtype=complex) / np.sqrt(d)).reshape(1, full)
    frontier = basis
    for _ in range(full):
        cand = np.einsum("uij,fjl->fuil", kraus, frontier.reshape(-1, d, d)).reshape(-1, full)
        norms = np.linalg.norm(cand, axis=1)
        cand = cand[norms > 0] / norms[norms > 0, None]
        if cand.shape[0] == 0:
            break
        cand -= (cand @ basis.conj().T) @ basis
        cand -= (cand @ basis.conj().T) @ basis  # second pass: CGS2
        _, sv, vh = np.linalg.svd(cand, full_matrices=False)
        frontier = vh[sv > _SPAN_RANK_TOL]
        if frontier.shape[0] == 0:
            break
        basis = np.concatenate([basis, frontier])
        if basis.shape[0] >= full:
            return True
    return basis.shape[0] >= full
