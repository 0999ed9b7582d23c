"""Hard-coded qubit model families and their golden closed forms.

Three one-parameter families of d = k = 2 chains (m1, m2, m3) plus the
two-parameter family of periodic points.  Everything printable is stored
in closed form: isometries, measurement bases, mean curves and their
derivatives, reference tangent vectors with their identifiable parts and
mode splits, the QFI rate of m1, and the spectral data behind the
two-block signal-to-noise bound of m3, whose pair-outcome mean is closed
form too.

All four families have stationary state 1/2 on the system qubit.  m1 is
period 2 on its whole interval; m2 and m3 are period 2 exactly at
theta = 0 and primitive elsewhere.
"""

import numpy as np

from .channels import Isometry, real_transfer
from .errors import DimensionMismatch, OutOfInterval, ReducibleParameters
from .linalg import dag, herm_coords
from .trajectories import BlockMeasurement, standard_measurement

__all__ = [
    "MODELS",
    "theta_interval",
    "reference_theta",
    "isometry",
    "periodic_point",
    "fixture_s",
    "closed_form_mean",
    "mean_derivative",
    "measurement",
    "invert_mean",
    "golden_tangent",
    "golden_modes",
    "closed_form_qfi_rate",
    "snr_spectral_data",
    "omega_vector",
    "consistency_notes",
]

MODELS = ("m1", "m2", "m3")

_SQ2 = np.sqrt(2.0)
_SQ3 = np.sqrt(3.0)
# m3's pair-outcome mean is sin^2(th) (A cos^2(th) + B) / 216
_PAIR_A = 90.0 + 68.0 * _SQ2 + 68.0 * _SQ3 + 34.0 * np.sqrt(6.0)
_PAIR_B = 63.0 - 34.0 * _SQ2
# its maximum, at sin^2(th) = (A + B) / 2A, th about 0.8047
_PAIR_MAX = (_PAIR_A + _PAIR_B) ** 2 / (864.0 * _PAIR_A)


def theta_interval(model):
    """Admissible open parameter range of a model."""
    if model == "m1":
        return (0.25, 0.5)
    if model == "m2":
        return (-1.0 / _SQ3, 1.0 / _SQ3)
    if model == "m3":
        return (0.0, np.pi / 2)
    raise DimensionMismatch(f"unknown model {model!r}")


def reference_theta(model):
    """Parameter value at which the golden tangent data is quoted."""
    theta_interval(model)  # DimensionMismatch for an unknown model
    return {"m1": 0.3, "m2": 0.0, "m3": 0.0}[model]


def _check_interval(model, theta, strict=True):
    lo, hi = theta_interval(model)
    if model == "m3":
        if strict:
            if not (lo <= theta < hi):
                raise OutOfInterval(
                    f"m3 admits theta in [0, pi/2); theta = {theta} (pi/2 is reducible)"
                )
        elif not (-np.pi / 2 <= theta < 3 * np.pi / 2):
            raise OutOfInterval(f"m3 extended range is [-pi/2, 3 pi/2); theta = {theta}")
        return
    if strict:
        if not (lo < theta < hi):
            raise OutOfInterval(f"{model} admits theta in ({lo}, {hi}); theta = {theta}")
    elif not (lo <= theta <= hi):
        raise OutOfInterval(f"{model} matrix entries undefined at theta = {theta}")


def isometry(model, theta, strict=True):
    """The model's isometry at the given parameter."""
    theta = float(theta)
    _check_interval(model, theta, strict=strict)
    if model == "m1":
        x = np.sqrt(1.0 - 4.0 * theta**2)
        v = np.array(
            [
                [0.0, x],
                [0.0, 2.0 * theta],
                [theta, 0.0],
                [1j * np.sqrt(1.0 - theta**2), 0.0],
            ],
            dtype=complex,
        )
    elif model == "m2":
        c = np.sqrt(1.0 - 3.0 * theta**2)
        v = np.array(
            [
                [theta, c],
                [1j * theta, -theta],
                [-theta, 1j * theta],
                [c, -theta],
            ],
            dtype=complex,
        )
    elif model == "m3":
        s, c = np.sin(theta), np.cos(theta)
        v = np.array(
            [
                [np.sqrt(2.0 / 3.0) * s, np.sqrt(1.0 / 3.0) * c],
                [np.sqrt(1.0 / 3.0) * s, -np.sqrt(2.0 / 3.0) * c],
                [c / _SQ2, s / _SQ2],
                [-c / _SQ2, s / _SQ2],
            ],
            dtype=complex,
        )
    else:
        raise DimensionMismatch(f"unknown model {model!r}")
    return Isometry(v, 2, 2)


def periodic_point(w, z):
    """Two-parameter family of period-2 points; (w, z) = (0, 1) is fixture S.

    Kraus operators are antidiagonal with first rows (0, x), (0, w) and
    second rows (y, 0), (z, 0), where x, y complete the unit columns.
    Irreducible exactly when x z != y w.
    """
    w = complex(w)
    z = complex(z)
    if abs(w) > 1 or abs(z) > 1:
        raise OutOfInterval("periodic point needs |w| <= 1 and |z| <= 1")
    x = np.sqrt(1.0 - abs(w) ** 2)
    y = np.sqrt(1.0 - abs(z) ** 2)
    if abs(x * z - y * w) < 1e-12:
        raise ReducibleParameters(
            "x z = y w makes the two Kraus operators proportional (reducible chain)"
        )
    v = np.array([[0.0, x], [0.0, w], [y, 0.0], [z, 0.0]], dtype=complex)
    return Isometry(v, 2, 2)


def fixture_s():
    """Deterministic flip chain: Kraus |0><1|, |1><0|, period 2."""
    return periodic_point(0.0, 1.0)


def closed_form_mean(model, theta, block=1):
    """Printed mean curve of the model's distinguished measurement outcome."""
    theta = float(theta)
    _check_interval(model, theta, strict=False)
    if model == "m3" and block == 2:
        s2 = np.sin(theta) ** 2
        return s2 * (_PAIR_A * (1.0 - s2) + _PAIR_B) / 216.0
    if block != 1:
        raise DimensionMismatch(f"no block-{block} measurement defined for {model}")
    if model == "m1":
        return 0.5 - 1.5 * theta**2
    if model == "m2":
        return 0.5 * (1.0 - 2.0 * theta * np.sqrt(1.0 - 3.0 * theta**2))
    if model == "m3":
        return 7.0 / 12.0 - np.cos(theta) ** 2 / 6.0
    raise DimensionMismatch(f"unknown model {model!r}")


def mean_derivative(model, theta, block=1):
    """d/dtheta of the measured mean."""
    theta = float(theta)
    if block == 1:
        if model == "m1":
            return -3.0 * theta
        if model == "m2":
            return -(1.0 - 6.0 * theta**2) / np.sqrt(1.0 - 3.0 * theta**2)
        if model == "m3":
            return np.sin(2.0 * theta) / 6.0
        raise DimensionMismatch(f"unknown model {model!r}")
    if model == "m3" and block == 2:
        s2 = np.sin(theta) ** 2
        return np.sin(2.0 * theta) * (_PAIR_A + _PAIR_B - 2.0 * _PAIR_A * s2) / 216.0
    raise DimensionMismatch(f"no block-{block} measurement defined for {model}")


def omega_vector():
    """The entangled pair vector (sqrt(2)|00> - |11>) / sqrt(3)."""
    return np.array([_SQ2, 0.0, 0.0, -1.0], dtype=complex) / _SQ3


def measurement(model, block=1):
    """The model's measurement and the observable whose mean is estimated.

    Returns (BlockMeasurement, q) with q diagonal in the measured basis;
    the estimated quantity is the frequency of the first outcome.
    """
    if block == 1:
        if model in ("m1", "m3"):
            meas = standard_measurement(2, 1)
            q = np.diag([1.0, 0.0]).astype(complex)
            return meas, q
        if model == "m2":
            vecs = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / _SQ2
            meas = BlockMeasurement(vecs, 2)
            q = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
            return meas, q
        raise DimensionMismatch(f"unknown model {model!r}")
    if model == "m3" and block == 2:
        om = omega_vector()
        # deterministic completion of omega to an orthonormal basis
        rest = np.array(
            [
                [1.0, 0.0, 0.0, _SQ2],
                [0.0, _SQ3, 0.0, 0.0],
                [0.0, 0.0, _SQ3, 0.0],
            ],
            dtype=complex,
        ) / _SQ3
        meas = BlockMeasurement(np.vstack([om, rest]), 2)
        q = np.outer(om, om.conj())
        return meas, q
    raise DimensionMismatch(f"no block-{block} measurement defined for {model}")


def invert_mean(model, x_bar, block=1):
    """Map empirical outcome frequencies to parameter estimates."""
    x = np.atleast_1d(np.asarray(x_bar, dtype=float))
    if block == 1:
        if model == "m1":
            est = np.sqrt(np.clip(1.0 / 3.0 - 2.0 * x / 3.0, 0.0, None))
        elif model == "m2":
            u = np.clip(1.0 - 2.0 * x, -1.0 / _SQ3, 1.0 / _SQ3)
            # the clip boundary squares to just above 1/3 in floating point
            inner = np.clip(1.0 - 3.0 * u**2, 0.0, None)
            est = np.sign(u) * np.sqrt((1.0 - np.sqrt(inner)) / 6.0)
        elif model == "m3":
            est = np.arccos(np.sqrt(np.clip(3.5 - 6.0 * x, 0.0, 1.0)))
        else:
            raise DimensionMismatch(f"unknown model {model!r}")
    elif model == "m3" and block == 2:
        # the smaller root of A u^2 - (A + B) u + 216 x = 0, u = sin^2(th):
        # the rising branch, th in [0, 0.8047]
        x = np.clip(x, 0.0, _PAIR_MAX)
        disc = np.clip((_PAIR_A + _PAIR_B) ** 2 - 864.0 * _PAIR_A * x, 0.0, None)
        u = 432.0 * x / (_PAIR_A + _PAIR_B + np.sqrt(disc))
        est = np.arcsin(np.sqrt(u))
    else:
        raise DimensionMismatch(f"no block-{block} estimator defined for {model}")
    return est if np.ndim(x_bar) else float(est[0])


def golden_tangent(model, theta0=None):
    """Reference tangent (A, A_id) at the model's reference point.

    m1 keeps the symbolic theta dependence (default reference 0.3); the
    whole velocity is already identifiable there since v* A = 0.  m2 and
    m3 are quoted at theta = 0.
    """
    if model == "m1":
        th = reference_theta("m1") if theta0 is None else float(theta0)
        x = np.sqrt(1.0 - 4.0 * th**2)
        a = np.array(
            [
                [0.0, -4.0 * th / x],
                [0.0, 2.0],
                [1.0, 0.0],
                [-1j * th / np.sqrt(1.0 - th**2), 0.0],
            ],
            dtype=complex,
        )
        return a, a.copy()
    if model == "m2":
        a = np.array([[1, 0], [1j, -1], [-1, 1j], [0, -1]], dtype=complex)
        a_id = np.array([[0, 0], [-1 + 1j, -1], [-1, 1 + 1j], [0, 0]], dtype=complex)
        return a, a_id
    if model == "m3":
        c0 = np.array(
            [
                [np.sqrt(2.0 / 3.0), 0.0],
                [np.sqrt(1.0 / 3.0), 0.0],
                [0.0, 1.0 / _SQ2],
                [0.0, 1.0 / _SQ2],
            ],
            dtype=complex,
        )
        return c0, c0.copy()
    raise DimensionMismatch(f"unknown model {model!r}")


def golden_modes(model="m2"):
    """Cyclic mode split of the reference identifiable tangent.

    For m2 at theta = 0: the mode-0 and mode-1 components of A0_id, their
    2x2 coordinate forms on the off-diagonal/diagonal qubit sectors, and
    the image of A0_id under the nontrivial stabiliser element.
    """
    if model != "m2":
        raise DimensionMismatch("mode goldens are recorded for m2 only")
    b0 = np.array([[0, 0], [0, -1], [-1, 0], [0, 0]], dtype=complex)
    b1 = np.array([[0, 0], [-1 + 1j, 0], [0, 1 + 1j], [0, 0]], dtype=complex)
    return {
        "B0": b0,
        "B1": b1,
        "B0_coord": np.array([[0, -1], [-1, 0]], dtype=complex),
        "B1_coord": np.array([[-1 + 1j, 0], [0, 1 + 1j]], dtype=complex),
        "stabiliser_image": np.array(
            [[0, 0], [1 - 1j, -1], [-1, -(1 + 1j)], [0, 0]], dtype=complex
        ),
    }


def closed_form_qfi_rate(theta):
    """QFI rate of m1: 2 (16 th^2/(1-4 th^2) + 5 + th^2/(1-th^2)).

    Equals 4 Tr(rho_ss A* A) with the golden tangent, which is entirely
    identifiable (v* A = 0); see consistency_notes for the rejected
    variant formula.  OutOfInterval where it is undefined: |th| >= 1/2 or
    th not finite.
    """
    theta = float(theta)
    if not abs(theta) < 0.5:
        raise OutOfInterval(f"closed-form m1 QFI rate needs |theta| < 1/2; theta = {theta}")
    return 2.0 * (
        16.0 * theta**2 / (1.0 - 4.0 * theta**2)
        + 5.0
        + theta**2 / (1.0 - theta**2)
    )


def _rejected_qfi_variant(theta):
    t2 = theta**2
    return 4.0 * (
        t2 * (7.0 + 4.0 * theta) ** 2 / (1.0 - 4.0 * t2)
        + (1.0 - 2.0 * t2) ** 2
        + t2 * (3.0 - t2) ** 2 / (1.0 - t2)
        + 4.0
    )


def snr_spectral_data(theta):
    """Spectral data of the deflated two-step transfer operator of m3.

    T_tilde = T_theta^2 - Tr(rho_ss .) 1 governs the pair-outcome
    covariance decay.  Returns the actual spectral radius, the closed-form
    candidate (1 - 2 sin^2 theta)^2 (the Z-eigenvalue squared), whether
    that branch is dominant, and the residual of T(Z) = (-1+2 sin^2(th)) Z.
    The closed form matches the radius only while it dominates the
    constant competing branch (~0.9714), i.e. for theta below about 0.085.
    """
    theta = float(theta)
    if not 0.0 <= theta < np.pi / 2:
        raise OutOfInterval(f"m3 admits theta in [0, pi/2); theta = {theta}")
    iso = isometry("m3", theta)
    # Heisenberg matrix in the Hermitian basis; Tr(rho x) = coords(rho) . coords(x)
    rt = real_transfer(iso).T
    rho_ss = 0.5 * np.eye(2)
    deflated = rt @ rt - np.outer(herm_coords(np.eye(2)).real, herm_coords(rho_ss).real)
    evals = np.linalg.eigvals(deflated)
    order = np.argsort(-np.abs(evals))
    radius = float(np.abs(evals[order[0]]))
    runner_up = float(np.abs(evals[order[1]])) if len(evals) > 1 else 0.0
    predicted = (1.0 - 2.0 * np.sin(theta) ** 2) ** 2
    z = herm_coords(np.diag([1.0, -1.0])).real
    z_eig = -1.0 + 2.0 * np.sin(theta) ** 2
    z_residual = float(np.linalg.norm(rt @ z - z_eig * z))
    return {
        "theta": theta,
        "radius": radius,
        "predicted": float(predicted),
        "dominant": bool(abs(radius - predicted) <= 1e-9),
        "runner_up": runner_up,
        "z_eigenvalue": z_eig,
        "z_residual": z_residual,
    }


def consistency_notes(theta=0.3):
    """Numeric self-consistency report for the hard-coded golden data.

    Quantities that independent routes must agree on, evaluated at the m1
    reference point: the orthogonality v* A = 0 making the whole velocity
    identifiable, the resulting QFI rate, and the value of a rejected
    variant rate formula that fails the finite-n convergence cross-check
    (kept visible rather than silently dropped).
    """
    iso = isometry("m1", theta)
    a, _ = golden_tangent("m1", theta)
    ortho = float(np.linalg.norm(dag(iso.v) @ a))
    rate = closed_form_qfi_rate(theta)
    variant = _rejected_qfi_variant(theta)
    return {
        "theta": float(theta),
        "m1_va_norm": ortho,
        "m1_qfi_rate": rate,
        "rejected_rate_variant": variant,
        "variant_ratio": variant / rate,
    }
