"""JSON/CSV serialization for matrices, isometries, and analysis reports.

Matrices travel as ``{"rows", "cols", "re", "im"}`` with row-major nested
lists; isometries as ``{"d", "k", "kraus": [matrix, ...]}``.  Floats are
emitted verbatim (Python repr), so every report re-parses to the same
values bit for bit.
"""

import json
import sys

import numpy as np

from .channels import isometry_from_kraus
from .ergodic import as_profile
from .errors import DimensionMismatch

__all__ = [
    "complex_to_json",
    "matrix_to_json",
    "matrix_from_json",
    "isometry_to_json",
    "isometry_from_json",
    "profile_report",
    "split_report",
    "load_json",
    "dump_json",
    "write_csv",
]


def complex_to_json(z):
    z = complex(z)
    return {"re": float(z.real), "im": float(z.imag)}


def matrix_to_json(m):
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    r, c = m.shape
    return {
        "rows": int(r),
        "cols": int(c),
        "re": [[float(x) for x in row] for row in m.real],
        "im": [[float(x) for x in row] for row in m.imag],
    }


def matrix_from_json(obj):
    try:
        r, c = int(obj["rows"]), int(obj["cols"])
        re, im = obj["re"], obj["im"]
    except (KeyError, TypeError) as exc:
        raise DimensionMismatch(f"matrix object missing field: {exc}") from exc
    if len(re) != r or len(im) != r or any(len(row) != c for row in re + im):
        raise DimensionMismatch(f"matrix payload does not match shape {r} x {c}")
    return np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)


def isometry_to_json(iso):
    return {
        "d": int(iso.d),
        "k": int(iso.k),
        "kraus": [matrix_to_json(op) for op in iso.kraus],
    }


def isometry_from_json(obj):
    try:
        kraus = [matrix_from_json(op) for op in obj["kraus"]]
        d, k = int(obj["d"]), int(obj["k"])
    except (KeyError, TypeError) as exc:
        raise DimensionMismatch(f"isometry object missing field: {exc}") from exc
    if len(kraus) != k or any(op.shape != (d, d) for op in kraus):
        raise DimensionMismatch("kraus list inconsistent with declared (d, k)")
    return isometry_from_kraus(kraus)


def profile_report(profile):
    """Serializable summary of a spectral analysis."""
    profile = as_profile(profile)
    rep = {
        "d": profile.d,
        "k": profile.k,
        "irreducible": bool(profile.is_irreducible),
        "eigenvalues": [complex_to_json(z) for z in profile.eigenvalues],
        "diagnostics": {
            key: (val if isinstance(val, str) else float(val))
            for key, val in profile.diagnostics.items()
        },
        "tol": {
            "peripheral_band": profile.tol.peripheral_band,
            "faithfulness_floor": profile.tol.faithfulness_floor,
            "simplicity_gap": profile.tol.simplicity_gap,
        },
    }
    if profile.is_irreducible:
        rep.update(
            {
                "period": profile.period,
                "gamma": complex_to_json(profile.gamma),
                "rho_ss": matrix_to_json(profile.rho_ss),
                "zmat": matrix_to_json(profile.zmat),
                "block_dims": [int(b) for b in profile.block_dims],
                "residuals": {k: float(v) for k, v in profile.residuals.items()},
            }
        )
    return rep


def split_report(split):
    """Serializable view of a tangent split."""
    return {
        "theta": complex_to_json(complex(split.theta, split.theta_im)),
        "kgen": matrix_to_json(split.kgen),
        "a_id": matrix_to_json(split.a_id),
        "resolvent_cond": float(split.resolvent_cond),
    }


def load_json(path):
    """Parse JSON from a file path, or stdin when path is '-'."""
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_json(obj):
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _cell(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_csv(header, rows, fh=None, settings=None):
    """Write a small numeric table; settings go into leading # comments."""
    fh = sys.stdout if fh is None else fh
    if settings:
        for key in sorted(settings):
            fh.write(f"# {key}={settings[key]}\n")
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(_cell(x) for x in row) + "\n")
