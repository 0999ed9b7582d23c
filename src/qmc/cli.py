"""Command-line front end.

Subcommands: analyze, equiv, tangent, qfi, variance, converge,
limit-model, simulate, example.  Matrix-valued inputs are JSON files
(see io module for the schema); n-indexed series come out as CSV on
stdout, everything else as JSON on stdout.  Errors are single-line JSON
objects {"kind", "detail"} on stderr; exit code 2 flags a reducible
chain, 1 any other failure.
"""

import argparse
import json
import sys

import numpy as np

from . import gauge, gaussian, io, qubit_example, statmodel, trajectories
from .channels import DEFAULT_TENSOR_CAP
from .ergodic import ErgodicTol, analyze
from .errors import DimensionMismatch, InvalidCount, NotIdentifiable, NotIrreducible, QmcError
from .errors import OutOfInterval, as_integer

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse's default error exit is 2, which this CLI reserves for
    reducible chains; route flag errors through the JSON-on-stderr, exit-1
    convention instead."""

    def error(self, message):
        print(json.dumps({"kind": "UsageError", "detail": message}), file=sys.stderr)
        raise SystemExit(1)


def _tol(args):
    """Tolerances from the flags; only an unset flag (None) keeps its default."""
    flags = {
        "peripheral_band": args.tol_peripheral,
        "faithfulness_floor": args.tol_faithful,
        "simplicity_gap": args.tol_gap,
    }
    return ErgodicTol(**{name: val for name, val in flags.items() if val is not None})


def _add_tol_flags(p):
    p.add_argument("--tol-peripheral", type=float, default=None)
    p.add_argument("--tol-faithful", type=float, default=None)
    p.add_argument("--tol-gap", type=float, default=None)


def _add_model_flags(p):
    p.add_argument("--model", choices=qubit_example.MODELS, default=None)
    p.add_argument("--theta", type=float, default=None)


def _list_flag(flag, text, parse, valid, error):
    """Comma-separated entries of a flag, each read by ``parse``; the first
    that ``parse`` or ``valid`` rejects raises ``error`` naming the flag."""
    out = []
    for entry in text.split(","):
        try:
            value = parse(entry)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise error(f"{flag} entry {entry!r} is out of range or not a number")
        out.append(value)
    return out


def _resolve_iso(args):
    """Isometry from --model/--theta or from the isometry JSON path."""
    if args.model is not None:
        return qubit_example.isometry(args.model, args.theta)
    return io.isometry_from_json(io.load_json(args.isometry))


def _settings(args, **extra):
    tol = _tol(args)
    out = {
        "tol_peripheral": tol.peripheral_band,
        "tol_faithful": tol.faithfulness_floor,
        "tol_gap": tol.simplicity_gap,
    }
    if getattr(args, "model", None):
        out["model"] = args.model
        out["theta"] = args.theta
    out.update(extra)
    return out


def _model_velocity(args):
    """Numeric curve velocity dv/dtheta of the model at theta."""
    h = 1e-6
    lo = qubit_example.isometry(args.model, args.theta - h, strict=False)
    hi = qubit_example.isometry(args.model, args.theta + h, strict=False)
    return (hi.v - lo.v) / (2 * h)


def _seed_tangent(profile, seed):
    """The complex Gaussian tangent that ``--seed`` draws, before its split."""
    # at k = 1 the isometry is unitary and v* a = 0 forces a = 0
    if profile.k == 1:
        raise NotIdentifiable("a chain with k = 1 has no identifiable directions; pass --x")
    rng = np.random.default_rng(seed)
    shape = (profile.d * profile.k, profile.d)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unit_factor(profile, a_id):
    """1 / sqrt(Tr(rho_ss a_id* a_id)): the factor that gives a seeded a_id unit norm."""
    return 1.0 / np.sqrt(gauge.tangent_inner(profile, a_id, a_id).real)


def cmd_analyze(args):
    iso = io.isometry_from_json(io.load_json(args.input))
    profile = analyze(iso, tol=_tol(args))
    io.dump_json(io.profile_report(profile))
    return 0 if profile.is_irreducible else 2


def cmd_equiv(args):
    iso1 = io.isometry_from_json(io.load_json(args.first))
    iso2 = io.isometry_from_json(io.load_json(args.second))
    witness = gauge.equivalence_witness(iso1, iso2)
    if witness is None:
        io.dump_json({"equivalent": False})
    else:
        c, w = witness
        io.dump_json(
            {
                "equivalent": True,
                "phase": io.complex_to_json(c),
                "unitary": io.matrix_to_json(w),
            }
        )
    return 0


def cmd_tangent(args):
    iso = io.isometry_from_json(io.load_json(args.isometry))
    a = io.matrix_from_json(io.load_json(args.tangent))
    profile = analyze(iso, tol=_tol(args))
    sp = gauge.split(profile, a)  # NotIrreducible for a reducible chain
    modes = gauge.mode_decompose(profile, sp.a_id)
    p = profile.period
    gram = np.array(
        [[gauge.tangent_inner(profile, modes[i], modes[j]) for j in range(p)] for i in range(p)]
    )
    io.dump_json(
        {
            "split": io.split_report(sp),
            "modes": [io.matrix_to_json(m) for m in modes],
            "mode_gram": io.matrix_to_json(gram),
        }
    )
    return 0


def cmd_qfi(args):
    n_step = as_integer("--n-step", args.n_step, 1)
    n_max = as_integer("--n-max", args.n_max)
    if n_max < n_step:
        raise InvalidCount(f"--n-max = {n_max} is below --n-step = {n_step}; the n grid is empty")
    iso = _resolve_iso(args)
    profile = analyze(iso, tol=_tol(args))
    profile.require_irreducible()
    if args.model is not None:
        # the tangent a whose curve polar(v + i t a) has velocity dv/dtheta
        a = -1j * _model_velocity(args)
    else:
        a = io.matrix_from_json(io.load_json(args.tangent))
    # deterministic initial state: dominant eigenvector of rho_ss
    _, vecs = np.linalg.eigh(profile.rho_ss)
    phi = vecs[:, -1]
    n_values = range(n_step, n_max + 1, n_step)
    f = statmodel.qfi_curve(profile.iso, a, phi, n_values)
    rows = [(n, f_n, f_n / n) for n, f_n in zip(n_values, f)]
    io.write_csv(
        ("n", "f_n", "f_n_over_n"),
        rows,
        settings=_settings(args, qfi_rate=statmodel.qfi_rate(profile, a)),
    )
    return 0


def cmd_variance(args):
    n_values = _list_flag("--n-list", args.n_list, int, lambda n: n >= 1, InvalidCount)
    iso = _resolve_iso(args)
    profile = analyze(iso, tol=_tol(args))
    profile.require_irreducible()
    if args.model is not None:
        _, q = qubit_example.measurement(args.model, block=args.block)
    else:
        q = io.matrix_from_json(io.load_json(args.observable))
    block = statmodel.LocalObservable(q, profile.k).block
    short = [n for n in n_values if n < block]
    if short:
        raise InvalidCount(f"--n-list entry {short[0]} is shorter than the block {block}")
    det = statmodel.asymptotic_variance(profile, q, details=True, cap=args.cap_tensor)
    windows = statmodel.finite_window_variance(profile, q, n_values, cap=args.cap_tensor)
    rows = list(zip(n_values, windows))
    io.write_csv(
        ("n", "window_variance"),
        rows,
        settings=_settings(
            args,
            cap_tensor=args.cap_tensor,
            sigma2=det["sigma2"],
            mean=det["mean"],
            c0=det["c0"],
            tail=det["tail"],
            block=det["block"],
        ),
    )
    return 0


def cmd_converge(args):
    as_integer("--pow-min", args.pow_min, 0)
    as_integer("--pow-max", args.pow_max, args.pow_min)
    if args.pow_max == args.pow_min:
        raise InvalidCount(
            f"--pow-max = --pow-min = {args.pow_min}; a slope needs at least two sizes"
        )
    iso = _resolve_iso(args)
    profile = analyze(iso, tol=_tol(args))
    profile.require_irreducible()
    n_values = [2**power for power in range(args.pow_min, args.pow_max + 1)]
    if args.x is not None:
        x = io.matrix_from_json(io.load_json(args.x))
        y = io.matrix_from_json(io.load_json(args.y)) if args.y else 1.3 * x
        reports = statmodel.weak_qlan_curve(profile, x, y, n_values)
    else:
        a_id = gauge.split(profile, _seed_tangent(profile, args.seed)).a_id
        x = a_id * _unit_factor(profile, a_id)
        # an identifiable tangent is its own split, with theta = 0
        reports = statmodel._split_curve(profile, (x, -x), (x, -x), 0.0, n_values)
    rows = []
    errors = []
    for n, rep in zip(n_values, reports):
        errors.append(rep["error"])
        ratio = abs(rep["corrected"]) / max(abs(rep["prediction"]), 1e-300)
        rows.append(
            (
                n,
                rep["corrected"].real,
                rep["corrected"].imag,
                rep["prediction"].real,
                rep["prediction"].imag,
                rep["error"],
                ratio,
            )
        )
    logs = np.log2(np.asarray(errors))
    powers = np.arange(args.pow_min, args.pow_max + 1, dtype=float)
    slope = float(np.polyfit(powers, logs, 1)[0])
    io.write_csv(
        (
            "n",
            "corrected_re",
            "corrected_im",
            "prediction_re",
            "prediction_im",
            "error",
            "abs_ratio",
        ),
        rows,
        settings=_settings(args, slope=slope, seed=args.seed),
    )
    return 0


def cmd_limit_model(args):
    scales = _list_flag("--scale-grid", args.scale_grid, float, np.isfinite, OutOfInterval)
    iso = _resolve_iso(args)
    profile = analyze(iso, tol=_tol(args))
    profile.require_irreducible()
    if args.x is not None:
        x = io.matrix_from_json(io.load_json(args.x))
    elif args.model is not None:
        x = _model_velocity(args)
    else:
        x = _seed_tangent(profile, args.seed)
    tangents = [x]
    if args.y:
        y = io.matrix_from_json(io.load_json(args.y))
        if np.shape(y) != np.shape(x):
            raise DimensionMismatch(f"--y has shape {np.shape(y)}, --x {np.shape(x)}")
        tangents.append(y)
    # the one split of the call; the default y = 1.3 x and every scaled x are
    # multiples of x, so their modes are x's modes times the scale
    x, *y = gaussian.mode_point(profile, np.stack(tangents))
    if args.x is None and args.model is None:
        unit = _unit_factor(profile, x.a_id)
        x = gaussian.ModePoint(profile, [unit * m for m in x.modes])
    y = y[0] if y else gaussian.ModePoint(profile, [1.3 * m for m in x.modes])
    scaled = [gaussian.ModePoint(profile, [s * m for m in x.modes]) for s in scales]
    # lambda, zeta and the coherent overlap exp(lambda_0) of x and y from one Gram
    _, lam, z = gaussian._mode_gram(profile, gaussian._mode_stack(profile, (x, y)))
    distances = [
        {"scale": s, "distance": gaussian.mixture_trace_distance(profile, x, sx)}
        for s, sx in zip(scales, scaled)
    ]
    io.dump_json(
        {
            "model_type": "gaussian-shift" if profile.period == 1 else "mixed-gaussian",
            "period": profile.period,
            "lambda": [io.complex_to_json(v) for v in lam[:, 0, 1]],
            "zeta_norms": [float(v.real) for v in z[:, 0, 0]],
            "zeta_cross": [io.complex_to_json(v) for v in z[:, 0, 1]],
            "coherent_overlap": io.complex_to_json(np.exp(lam[0, 0, 1])),
            "trace_distance_xy": gaussian.mixture_trace_distance(profile, x, y),
            "scale_distances": distances,
        }
    )
    return 0


def cmd_simulate(args):
    res = trajectories.run_estimator(
        args.model, args.theta, args.n, args.trials, args.seed, block=args.block
    )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            rows = [
                (t, xb, est)
                for t, (xb, est) in enumerate(zip(res["x_bar"], res["estimates"]))
            ]
            io.write_csv(("trial", "x_bar", "estimate"), rows, fh=fh)
    summary = {k: v for k, v in res.items() if not isinstance(v, np.ndarray)}
    summary["seed"] = args.seed
    io.dump_json(summary)
    return 0


def cmd_example(args):
    iso = qubit_example.isometry(args.model, args.theta)
    profile = analyze(iso, tol=_tol(args))
    profile.require_irreducible()
    velocity = _model_velocity(args)
    sp = gauge.split(profile, velocity)
    # statmodel.qfi_rate of velocity, read off the split already made
    rate = 4.0 * gauge.tangent_inner(profile, sp.a_id, sp.a_id).real
    meas_mean = qubit_example.closed_form_mean(args.model, args.theta)
    _, q = qubit_example.measurement(args.model)
    out = {
        "model": args.model,
        "theta": args.theta,
        "period": profile.period,
        "irreducible": True,
        "mean": {
            "closed_form": meas_mean,
            "stationary": statmodel.stationary_mean(profile, q),
        },
        "qfi_rate": rate,
        "limit_model": "gaussian-shift" if profile.period == 1 else "mixed-gaussian",
        "resolvent_cond": profile.resolvent_cond,
    }
    if args.model == "m1":
        out["qfi_rate_closed_form"] = qubit_example.closed_form_qfi_rate(args.theta)
    if args.report == "full":
        out["rho_ss"] = io.matrix_to_json(profile.rho_ss)
        out["zmat"] = io.matrix_to_json(profile.zmat)
        out["residuals"] = {k: float(v) for k, v in profile.residuals.items()}
        out["velocity"] = io.matrix_to_json(velocity)
        out["a_id"] = io.matrix_to_json(sp.a_id)
        if args.model == "m1":
            out["consistency"] = qubit_example.consistency_notes(args.theta)
        if args.model == "m3":
            out["snr_spectral"] = qubit_example.snr_spectral_data(args.theta)
    io.dump_json(out)
    return 0


def _build_parser():
    ap = _Parser(
        prog="qmc", description="spectral, statistical, and Monte-Carlo analysis of quantum Markov chains"
    )
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("analyze", help="spectral profile of a chain")
    p.add_argument("input")
    _add_tol_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("equiv", help="output-equivalence witness for two chains")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("tangent", help="identifiable/gauge split of a tangent")
    p.add_argument("isometry")
    p.add_argument("tangent")
    _add_tol_flags(p)
    p.set_defaults(func=cmd_tangent)

    p = sub.add_parser("qfi", help="finite-n quantum Fisher information curve (CSV)")
    p.add_argument("isometry", nargs="?", default=None)
    p.add_argument("tangent", nargs="?", default=None)
    _add_model_flags(p)
    p.add_argument("--n-max", type=int, default=400)
    p.add_argument("--n-step", type=int, default=25)
    _add_tol_flags(p)
    p.set_defaults(func=cmd_qfi)

    p = sub.add_parser("variance", help="finite-window and asymptotic variance (CSV)")
    p.add_argument("isometry", nargs="?", default=None)
    p.add_argument("observable", nargs="?", default=None)
    _add_model_flags(p)
    p.add_argument("--block", type=int, default=1)
    p.add_argument("--n-list", default="16,32,64,128,256,512")
    _add_tol_flags(p)
    p.add_argument("--cap-tensor", type=int, default=DEFAULT_TENSOR_CAP)
    p.set_defaults(func=cmd_variance)

    p = sub.add_parser("converge", help="weak-convergence error decay table (CSV)")
    p.add_argument("isometry", nargs="?", default=None)
    _add_model_flags(p)
    p.add_argument("--x", default=None, help="tangent JSON path")
    p.add_argument("--y", default=None, help="tangent JSON path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pow-min", type=int, default=6)
    p.add_argument("--pow-max", type=int, default=12)
    _add_tol_flags(p)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("limit-model", help="limit Gaussian/mixture model data (JSON)")
    p.add_argument("isometry", nargs="?", default=None)
    _add_model_flags(p)
    p.add_argument("--x", default=None)
    p.add_argument("--y", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale-grid", default="0.8,0.9,1.0,1.1,1.2,1.3")
    _add_tol_flags(p)
    p.set_defaults(func=cmd_limit_model)

    p = sub.add_parser("simulate", help="trajectory sampling and estimation (JSON + CSV)")
    _add_model_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--block", type=int, default=1)
    p.add_argument("--csv", default=None, help="per-trial CSV output path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("example", help="worked-example analysis bundle (JSON)")
    _add_model_flags(p)
    p.add_argument("--report", choices=("summary", "full"), default="summary")
    _add_tol_flags(p)
    p.set_defaults(func=cmd_example)

    return ap


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "model", None) is not None and args.theta is None:
        parser.error("--model requires --theta")
    if getattr(args, "isometry", "") is None and args.model is None:
        parser.error("need either --model/--theta or an isometry JSON path")
    second = {"qfi": "tangent", "variance": "observable"}.get(args.subcommand)
    if second and args.model is None and args.isometry and getattr(args, second) is None:
        parser.error(f"{args.subcommand} needs the {second} JSON path after the isometry path")
    if args.subcommand in ("simulate", "example") and args.model is None:
        parser.error("--model is required")
    try:
        return args.func(args)
    except NotIrreducible as exc:
        print(json.dumps(exc.to_json()), file=sys.stderr)
        return 2
    except QmcError as exc:
        print(json.dumps(exc.to_json()), file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as exc:
        print(
            json.dumps({"kind": type(exc).__name__, "detail": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
