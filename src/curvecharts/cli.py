"""Batch command-line front-end.

Subcommands: validate, roundtrip, minimize, spectrum, orbit.  Structured
reports are JSON, traces and spectra are CSV.  Diagnostics go to stderr;
stdout carries data only when no --output path is given.

Exit codes (`_EXIT_CODES`): 0 success, 1 generic failure, 2 bad input
(curve, flag value, functional string, a functional term the curve's ambient
does not define, or an --output that cannot be written), 3 non-embedding
input, 4 roundtrip target outside the chart tube, 5 gradient tolerance
not reached (the iteration budget ran out, the Newton rounds ended above
it, or the line search failed).  A minimize whose first chart or a later
re-centering cannot be built exits 1.  A minimize run that fails while
iterating still writes, given --output, the trace up to the failure.
--grid sizes --make generators only; given without --make it is bad input.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

import numpy as np

from . import fourier, shapes
from .ambient import AmbientSpace
from .charts import _reach, chart_apply, chart_invert, make_chart
from .curve import Embedding, image_distance, separation, speeds
from .errors import (
    CurveChartsError,
    LineSearchFailedError,
    NotEmbeddingError,
    OutsideDomainError,
    OutsideTubeError,
    UnsupportedAmbientError,
)
from .files import curve_to_dict, load_curve, save_curve
from .functionals import parse_functional
from .solver import SolveOptions, minimize, spectrum
from .symmetry import orbit_singular_values, singular_value_rank, standard_killing_basis

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_NOT_EMBEDDING = 3
EXIT_OUTSIDE_TUBE = 4
EXIT_MAX_ITER = 5

_GENERATORS = {
    "circle": shapes.circle,
    "ellipse": shapes.ellipse,
    "lemniscate": shapes.lemniscate,
    "torus-geodesic": shapes.torus_geodesic,
    "great-circle": shapes.great_circle,
    "perturbed-circle": shapes.perturbed_circle,
}

# --make keys of the winding entries, in coordinate order
_WINDING_KEYS = ("wx", "wy", "wz")


class _InputError(Exception):
    """Bad user input; maps to exit code 2."""


def _parse_make(text: str, grid: int | None) -> Embedding:
    name, _, rest = text.partition(":")
    if name not in _GENERATORS:
        raise _InputError(f"unknown generator {name!r}; choose from {sorted(_GENERATORS)}")
    sig = inspect.signature(_GENERATORS[name]).parameters
    # the numeric parameters but P, which --grid sets; integer where the default is
    kinds = {k: type(p.default) for k, p in sig.items() if k != "P" and type(p.default) in (int, float)}
    kinds.update(dict.fromkeys(_WINDING_KEYS if "winding" in sig else (), int))
    kwargs: dict = {}
    winding: dict[str, int] = {}
    if rest:
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise _InputError(f"generator parameter {item!r} is not key=value")
            if key not in kinds:
                raise _InputError(f"generator {name!r} has no parameter {key!r} (parameters: "
                                  f"{', '.join(kinds) or 'none'}; --grid sets P)")
            try:
                num = float(val)
            except ValueError as exc:
                raise _InputError(f"generator parameter {item!r} is not numeric") from exc
            if kinds[key] is int:
                if not num.is_integer():  # False for NaN and inf too
                    raise _InputError(f"generator parameter {item!r} is not an integer")
                num = int(num)
            elif not np.isfinite(num):
                raise _InputError(f"generator parameter {item!r} is not finite")
            if key in _WINDING_KEYS:
                winding[key] = num
            else:
                kwargs[key] = num
    if winding:
        # wz makes a 3-d winding, whatever else is given
        keys = _WINDING_KEYS if "wz" in winding else _WINDING_KEYS[:2]
        kwargs["winding"] = tuple(winding.get(k, 0) for k in keys)
    if grid is not None:
        kwargs["P"] = grid
    try:
        return _GENERATORS[name](**kwargs)
    except (ValueError, OverflowError) as exc:
        raise _InputError(f"generator {name!r}: {exc}") from exc


def _parsed(make, *args, **kwargs):
    """make(*args, **kwargs), with its ValueError reported as bad input."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _get_curve(args, flag: str = "curve") -> Embedding:
    if args.grid is not None and not args.make:
        raise _InputError("--grid sizes --make generators only; a curve file sets its own grid")
    path = getattr(args, flag)
    if path is not None:
        try:
            x = load_curve(path)
        except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
            raise _InputError(f"cannot read curve file {path!r}: {exc}") from exc
    elif flag == "curve" and args.make:
        x = _parse_make(args.make, args.grid)
    else:
        raise _InputError(f"no input curve: pass --{flag}" +
                          (" or --make" if flag == "curve" else ""))
    if args.ambient:
        try:
            want = AmbientSpace.from_spec(json.loads(args.ambient))
        except (json.JSONDecodeError, ValueError, KeyError) as exc:
            raise _InputError(f"bad --ambient spec: {exc}") from exc
        if want != x.space:
            raise _InputError(
                f"curve ambient {x.space.to_spec()} does not match --ambient {want.to_spec()}")
    return x


def _emit(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _json_report(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def cmd_validate(args) -> int:
    x = _get_curve(args)
    sp = float(np.min(speeds(x)))
    sep = float(separation(x))
    rho = _reach(x, sep)
    ok = rho > 0.0
    report = {
        "embedding": ok,
        "min_speed": sp,
        # null separation: no admissible distinct-strand pair (convex curves)
        "separation": sep if np.isfinite(sep) else None,
        "reach": rho,
    }
    _emit(_json_report(report), args.output)
    if not ok:
        print("curve is not an embedding", file=sys.stderr)
        return EXIT_NOT_EMBEDDING
    return EXIT_OK


def _chart(x: Embedding, what: str):
    """make_chart(x); a non-embedding is reported as `what` (exit 3)."""
    try:
        return make_chart(x)
    except NotEmbeddingError as exc:
        raise NotEmbeddingError(f"{what} is not an embedding") from exc


def cmd_roundtrip(args) -> int:
    if not args.tol > 0:  # NaN fails too
        raise _InputError("--tol must be positive")
    center = _get_curve(args, "center")
    target = _get_curve(args)
    if target.space != center.space:
        raise _InputError(f"curve ambient {target.space.to_spec()} does not match "
                          f"chart center ambient {center.space.to_spec()}")
    c = _chart(center, "chart center")
    u, h = chart_invert(c, target)
    rebuilt = chart_apply(c, u)
    dist = image_distance(target, rebuilt)
    slopes = h.slope(fourier.nodes(c.P))
    report = {
        "section_sup_norm": float(u.sup_norm),
        "rho": float(c.rho),
        "reparam_slope_min": float(np.min(slopes)),
        "reparam_slope_max": float(np.max(slopes)),
        "image_distance": float(dist),
    }
    _emit(_json_report(report), args.output)
    return EXIT_OK if dist <= args.tol else EXIT_FAIL


def _write_trace(output: str, trace):
    with open(output + ".trace.csv", "w") as fh:
        fh.write(trace.to_csv())


def cmd_minimize(args) -> int:
    x0 = _get_curve(args)
    F = _parsed(parse_functional, args.functional)
    opts = _parsed(SolveOptions, max_iter=args.max_iter, grad_tol=args.tol,
                   newton=args.newton, newton_threshold=args.newton_threshold)
    try:
        c, u, trace = minimize(F, x0, opts)
    except CurveChartsError as exc:
        if args.output is not None and exc.trace is not None:
            _write_trace(args.output, exc.trace)
        raise
    final = chart_apply(c, u)
    last = trace.records[-1]
    report = {
        "converged": trace.converged,
        "iterations": last.iter,
        "f": last.f,
        "grad_norm": last.grad_norm,
        "evaluations": trace.evaluations,
        "backtracks": trace.backtracks,
    }
    if args.output is None:
        report["curve"] = curve_to_dict(final)
        report["trace"] = trace.to_csv()
        _emit(_json_report(report), None)
    else:
        save_curve(final, args.output)
        _write_trace(args.output, trace)
        print(_json_report(report), end="", file=sys.stderr)
    if not trace.converged:
        print(f"gradient tolerance not reached at iteration {last.iter}", file=sys.stderr)
        return EXIT_MAX_ITER
    return EXIT_OK


def cmd_spectrum(args) -> int:
    if args.count < 0:
        raise _InputError("--count must be non-negative")
    c = _chart(_get_curve(args), "curve")
    F = _parsed(parse_functional, args.functional)
    vals = _parsed(spectrum, F, c, args.count)
    lines = ["index,eigenvalue"]
    lines += [f"{i},{float(v)!r}" for i, v in enumerate(vals)]
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_orbit(args) -> int:
    x = _get_curve(args)
    c = _chart(x, "curve")
    basis = standard_killing_basis(x.space)
    sv = orbit_singular_values(c, basis)
    rank, stab = singular_value_rank(sv, len(basis))
    report = {
        "dim_G": len(basis),
        "rank": rank,
        "stabilizer_dim": stab,
        "singular_values": [float(s) for s in sv],
    }
    _emit(_json_report(report), args.output)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvecharts",
        description="Quotient-chart analysis of closed embedded curves.")
    sub = parser.add_subparsers(dest="command", required=True)
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--curve", help="input curve file (JSON)")
    inputs.add_argument("--make", help="built-in generator NAME[:k=v,...]")
    inputs.add_argument("--ambient", help="required ambient spec as JSON, for validation")
    inputs.add_argument("--grid", type=int, help="grid size for --make generators")
    inputs.add_argument("--output", help="write data here instead of stdout")

    p = sub.add_parser("validate", parents=[inputs], help="embedding and reach report")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("roundtrip", parents=[inputs], help="chart round-trip report")
    p.add_argument("--center", help="chart-center curve file (JSON)")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="acceptable image reconstruction distance")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("minimize", parents=[inputs],
                       help="descend a functional to a critical point")
    p.add_argument("--functional", default="length",
                   help="functional string, e.g. 'length-1.0*area'")
    p.add_argument("--tol", type=float, default=1e-8, help="gradient tolerance")
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--newton", action="store_true", help="finish with Newton refinement")
    p.add_argument("--newton-threshold", type=float, default=1e-3,
                   help="mean-free gradient norm at which Newton refinement starts")
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("spectrum", parents=[inputs], help="lowest second-variation eigenvalues")
    p.add_argument("--functional", default="length",
                   help="functional string, e.g. 'length-1.0*area'")
    p.add_argument("--count", type=int, default=5, help="number of lowest eigenvalues")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("orbit", parents=[inputs], help="isometry-orbit rank report")
    p.set_defaults(func=cmd_orbit)
    return parser


# error class -> exit code; the first row the error is an instance of wins
_EXIT_CODES = (
    (_InputError, EXIT_PARSE),
    (OSError, EXIT_PARSE),
    (UnsupportedAmbientError, EXIT_PARSE),
    (NotEmbeddingError, EXIT_NOT_EMBEDDING),
    (OutsideTubeError, EXIT_OUTSIDE_TUBE),
    (LineSearchFailedError, EXIT_MAX_ITER),
    (OutsideDomainError, EXIT_MAX_ITER),
    (CurveChartsError, EXIT_FAIL),
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        print(str(exc), file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
