"""Command-line front end: bound tables, hull dumps, moment margins, and suites.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
CSV output always carries a header row and prints floats with 17 significant
digits so doubles round-trip; JSON uses the shortest round-trip form.
"""

import argparse
import csv
import functools
import json
import math
import sys

import numpy as np

from .distributions import DiscreteDist, convolve, iid_sum_survival, two_point_from_variance
from .hull import _on_hull, linear_envelope_eval, log_concave_hull
from .fracmoment import MARGIN_TOL, margin_sweep
from .bounds import (
    MartingaleConditions,
    _confidence_bound,
    comparison_atom,
    hoeffding_tail_range,
    hoeffding_tail_variance,
    invert_for_confidence,
    tail_bound_range,
    tail_bound_range_poisson,
    tail_bound_symmetric,
    tail_bound_symmetric_gaussian,
    tail_bound_variance,
    tail_bound_variance_poisson,
)
from .suites import SUITE_NAMES, run_suite

__all__ = ["main"]

# thresholds one --x-min/--x-max/--x-step grid may hold
_MAX_GRID_POINTS = 10**6


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _emit(rows, columns, fmt, out_path):
    stream = open(out_path, "w", newline="") if out_path else sys.stdout
    try:
        if fmt == "csv":
            writer = csv.writer(stream)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_fmt(row.get(c)) for c in columns])
        else:
            json.dump([{c: row.get(c) for c in columns} for row in rows], stream)
            stream.write("\n")
    finally:
        if out_path:
            stream.close()


def _parse_floats(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _parse_atoms(text):
    values, probs = [], []
    for tok in text.split(","):
        v, _, p = tok.partition(":")
        values.append(float(v))
        probs.append(float(p))
    return DiscreteDist.from_probs(np.array(values), np.array(probs))


def _resolve_xs(args):
    if args.x is not None:
        return np.array([args.x])
    if args.x_min is None or args.x_max is None or args.x_step is None:
        raise ValueError("give either --x or all of --x-min/--x-max/--x-step")
    lo, hi, step = args.x_min, args.x_max, args.x_step
    for flag, value in (("--x-min", lo), ("--x-max", hi), ("--x-step", step)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if step <= 0 or hi < lo:
        raise ValueError("need x-min <= x-max and a positive step")
    count = (hi - lo) / step
    if not count < _MAX_GRID_POINTS:
        raise ValueError(f"--x-step {step} makes more than {_MAX_GRID_POINTS} thresholds")
    if abs(count - round(count)) > 1e-9:
        print("warning: step does not divide the range; the grid stops below --x-max", file=sys.stderr)
    xs = np.arange(lo, hi + step * 1e-9, step)
    # a last point past x-max by rounding is put back on it
    if xs[-1] > hi:
        xs[-1] = hi
    return xs


def _per_k(args, name, scalar, n):
    """Resolve a per-step list from --<name>s or a repeated scalar."""
    if n is not None and n < 1:
        raise ValueError(f"--n must be a positive integer, got {n}")
    lst = getattr(args, name + "s", None)
    if lst is not None:
        values = np.array(_parse_floats(lst))
        if n is not None and values.size != n:
            raise ValueError(f"--{name}s has {values.size} entries but --n is {n}")
        return values
    if scalar is None:
        raise ValueError(f"--{name} or --{name}s is required for this theorem")
    if n is None:
        raise ValueError("--n is required with scalar parameters")
    return np.full(int(n), float(scalar))


def _dist_from_args(args):
    """Distribution spec shared by the hull and lemma42 subcommands."""
    n = args.n
    if n is not None and n < 1:
        raise ValueError(f"--n must be a positive integer, got {n}")
    if args.atoms is not None:
        d = _parse_atoms(args.atoms)
        if n is not None:
            base = d
            for _ in range(n - 1):
                d = convolve(d, base)
        return d.survival()
    if n is None:
        raise ValueError("--n is required unless --atoms is given")
    if args.p is not None:
        cond = MartingaleConditions.range_condition(np.full(n, args.p))
        return iid_sum_survival(comparison_atom(cond), n)
    if args.sigma2 is not None and args.b is not None:
        return iid_sum_survival(two_point_from_variance(args.sigma2, args.b), n)
    raise ValueError("give --atoms, --p with --n, or --sigma2/--b with --n")


def _cmd_bound(args):
    xs = _resolve_xs(args)
    theorem = args.theorem
    if theorem == "1.2":
        ps = _per_k(args, "p", args.p, args.n)
        cond = MartingaleConditions.range_condition(ps)
    elif theorem == "1.1":
        sigma2s = _per_k(args, "sigma2", args.sigma2, args.n)
        if args.b is None:
            raise ValueError("--b is required for theorem 1.1")
        cond = MartingaleConditions.one_sided_variance(args.b, sigma2s)
    else:
        if args.sigma2s is not None or args.sigma2 is not None:
            bs = _per_k(args, "b", args.b if args.b is not None else args.a, args.n)
            sigma2s = _per_k(args, "sigma2", args.sigma2, args.n)
            cond = MartingaleConditions.per_k(bs, sigma2s)
        elif args.bs is None and args.a is None:
            raise ValueError("--a (or --bs, or --sigma2s with --bs) is required for theorem 1.3")
        else:
            cond = MartingaleConditions.symmetric(_per_k(args, "b", args.a, args.n))
    S = iid_sum_survival(comparison_atom(cond), cond.n)
    hull = log_concave_hull(S)
    # one call per column over all thresholds
    if theorem == "1.1":
        res = tail_bound_variance(cond, xs, hull=hull)
        coarse = tail_bound_variance_poisson(cond, xs)
        hoeff = hoeffding_tail_variance(cond.n, cond.mean_sigma2, cond.b, xs)
    elif theorem == "1.2":
        res = tail_bound_range(cond, xs, hull=hull)
        coarse = tail_bound_range_poisson(cond, xs)
        hoeff = hoeffding_tail_range(cond.n, cond.mean_p, xs)
    else:
        res = tail_bound_symmetric(cond, xs, hull=hull)
        coarse = tail_bound_symmetric_gaussian(cond, xs)
        hoeff = [None] * xs.size
    columns = {
        "theorem": [theorem] * xs.size,
        "x": xs,
        "exact": S.eval(xs),
        "hull_value": res.hull_value,
        "envelope": linear_envelope_eval(S, xs),
        "hoeffding": hoeff,
        "constant": [res.constant] * xs.size,
        "raw": res.clamped if args.clamp else res.value,
        "clamped": res.clamped,
        "coarse_constant": [coarse.constant] * xs.size,
        "coarse_hull": coarse.hull_value,
        "coarse_raw": coarse.clamped if args.clamp else coarse.value,
        "coarse_clamped": coarse.clamped,
    }
    # tolist gives Python floats, which print as the scalar calls' floats did
    cells = [np.asarray(c).tolist() for c in columns.values()]
    rows = [dict(zip(columns, row)) for row in zip(*cells)]
    _emit(rows, list(columns), args.format, args.out)
    return 0


def _cmd_hull(args):
    S = _dist_from_args(args)
    on_hull = _on_hull(S, log_concave_hull(S))
    rows = []
    for x, logv, on in zip(S.knots, S.log_values, on_hull):
        rows.append(
            {
                "x": float(x),
                "survival": math.exp(logv),
                "neg_log_survival": -logv,
                "on_hull": int(on),
            }
        )
    _emit(rows, ["x", "survival", "neg_log_survival", "on_hull"], args.format, args.out)
    return 0


def _cmd_lemma42(args):
    s_values = _parse_floats(args.s)
    xs, lhs, rhs = margin_sweep(_dist_from_args(args), s_values)
    margins = lhs - rhs
    rows = [
        {"s": s, "x": x, "lhs": lv, "rhs": rv, "margin": mv}
        for s, lrow, rrow, mrow in zip(s_values, lhs.tolist(), rhs.tolist(), margins.tolist())
        for x, lv, rv, mv in zip(xs.tolist(), lrow, rrow, mrow)
    ]
    _emit(rows, ["s", "x", "lhs", "rhs", "margin"], args.format, args.out)
    if np.any(margins > MARGIN_TOL):
        print("moment-inequality violation detected", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args):
    # --n is the dominance suite's depth; run_suite refuses it for other suites
    results = run_suite(args.suite, seed=args.seed, n=args.n)
    failures = []
    for res in results:
        extra = " ".join(f"{k}={_fmt(v)}" for k, v in res.info.items())
        print(f"suite={res.name} checks={res.checks} failures={len(res.failures)} {extra}".rstrip())
        failures.extend(dict(row, suite=res.name) for row in res.failures)
    if failures:
        columns = sorted({k for row in failures for k in row})
        _emit(failures, columns, args.format, args.out)
        return 1
    return 0


def _cmd_confidence(args):
    mu = invert_for_confidence(args.n, args.mean, args.delta)
    if mu < 1.0 and mu > args.mean:
        # the bound the inversion compared with delta at the limit
        achieved = _confidence_bound(args.n, mu, args.mean)
    else:
        achieved = None
    _emit(
        [{"n": args.n, "mean": args.mean, "delta": args.delta, "upper_limit": mu, "bound_at_limit": achieved}],
        ["n", "mean", "delta", "upper_limit", "bound_at_limit"],
        args.format,
        args.out,
    )
    return 0


@functools.lru_cache(maxsize=None)
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tailbounds",
        description="Tail bounds for martingales with bounded differences, their hulls, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="bound table over thresholds")
    p_bound.add_argument("--theorem", choices=("1.1", "1.2", "1.3"), required=True)
    p_bound.add_argument("--n", type=int)
    p_bound.add_argument("--p", type=float)
    p_bound.add_argument("--ps", help="comma-separated per-step p_k")
    p_bound.add_argument("--sigma2", type=float)
    p_bound.add_argument("--sigma2s", help="comma-separated per-step variance caps")
    p_bound.add_argument("--b", type=float)
    p_bound.add_argument("--bs", help="comma-separated per-step bounds")
    p_bound.add_argument("--a", type=float, help="common symmetric cap (theorem 1.3)")
    p_bound.add_argument("--x", type=float)
    p_bound.add_argument("--x-min", type=float, dest="x_min")
    p_bound.add_argument("--x-max", type=float, dest="x_max")
    p_bound.add_argument("--x-step", type=float, dest="x_step")
    p_bound.add_argument("--clamp", action="store_true", help="clamp raw bound columns at 1")

    for name, helptext in (("hull", "hull knot dump"), ("lemma42", "moment-inequality margins")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--atoms", help="explicit distribution as v:p,v:p,...")
        p.add_argument("--p", type=float, help="range-condition atom parameter")
        p.add_argument("--sigma2", type=float)
        p.add_argument("--b", type=float)
        p.add_argument("--n", type=int)
        if name == "lemma42":
            p.add_argument("--s", default="1,2,2.5,3", help="comma-separated moment orders")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", choices=SUITE_NAMES, required=True)
    p_verify.add_argument("--n", type=int, help="martingale depth for the dominance suite (default 2)")
    p_verify.add_argument("--seed", type=int, default=0)

    p_conf = sub.add_parser("confidence", help="conservative upper confidence limit")
    p_conf.add_argument("--n", type=int, required=True)
    p_conf.add_argument("--mean", type=float, required=True)
    p_conf.add_argument("--delta", type=float, required=True)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
    return parser


_COMMANDS = {
    "bound": _cmd_bound,
    "hull": _cmd_hull,
    "lemma42": _cmd_lemma42,
    "verify": _cmd_verify,
    "confidence": _cmd_confidence,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
