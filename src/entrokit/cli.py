"""Command-line surface: entropy, kl, modified, sweep, converge, gauss, selftest.

Numbers are printed with 17 significant digits so CSV output is exactly
reproducible.  Exit codes: 0 success, 1 malformed input or a failed check,
2 validity-domain violations (the message names the violated inequality).
A check fails when a selftest cell or a --verify row has a
measures.oracle_error above the tolerance, 1e-8 by default; a NaN or inf
oracle value always fails.

Each verb imports the modules it runs inside its handler.  The parser,
--help and usage errors load neither numpy nor any numeric module; gauss
loads gaussian; entropy, kl, modified and sweep load closed_form and its
distributions, plus oracle under --verify; converge loads limits and the
series engine; selftest loads verification.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import (EntrokitError, ParameterError, UnboundedDensityError,
                     ValidityDomainError)
from .measures import MEASURES, EntropySpec, oracle_error

_EXIT_MALFORMED = 1
_EXIT_VALIDITY = 2

# the largest start:stop:steps grid; ROADMAP's largest sweep has 10**6 points
_MAX_GRID_POINTS = 10**6
# --verify and selftest's default: measures.oracle_error(closed, oracle) <= _TOLERANCE
_TOLERANCE = 1e-8


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(_EXIT_MALFORMED)


def _parse_grid(text: str) -> list[float]:
    """Grid syntax: 'start:stop:steps[:log]' or a comma-separated list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
            raise ParameterError(
                f"malformed grid {text!r}; expected start:stop:steps[:log]")
        try:
            start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ParameterError(f"malformed grid {text!r}") from exc
        if steps < 1:
            raise ParameterError("grid needs at least one step")
        if steps > _MAX_GRID_POINTS:
            raise ParameterError(
                f"grid of {steps} points exceeds the limit of {_MAX_GRID_POINTS} points")
        import numpy as np
        if len(parts) == 4:
            if start <= 0 or stop <= 0:
                raise ParameterError("log grids need positive endpoints")
            return list(np.geomspace(start, stop, steps))
        return list(np.linspace(start, stop, steps))
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ParameterError(f"malformed grid {text!r}") from exc
    if not values:
        raise ParameterError(f"grid {text!r} has no values")
    return values


def _emit(lines, out_path, verified=()) -> int:
    """Write the lines; exit status 1, and a line on stderr, if a verified pair is off."""
    text = "\n".join(lines) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParameterError(f"cannot write --out {out_path!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)
    off = sum(not oracle_error(c, e) <= _TOLERANCE for c, e in verified)
    if off:
        print(f"entrokit: verify: {off} of {len(verified)} rows differ from the oracle by "
              f"more than {_TOLERANCE:g} (1 + |closed_form|)", file=sys.stderr)
    return 1 if off else 0


def _oracle_value(spec: EntropySpec, d) -> float:
    import numpy as np

    from . import closed_form as cf
    from . import oracle
    if spec.measure == "modified":
        m = cf.density_sup(d).M
        shannon = oracle.entropy_estimate(d, "shannon")
        return (shannon + np.log(m)) / m
    return oracle.entropy_estimate(d, spec.measure, spec.alpha, spec.beta)


def _emit_value(value: float, est: float | None, out_path) -> int:
    """One value, or under --verify the closed form against its oracle estimate."""
    if est is None:
        return _emit([_fmt(value)], out_path)
    return _emit(["closed_form,oracle,abs_error",
                  f"{_fmt(value)},{_fmt(est)},{_fmt(abs(value - est))}"], out_path, [(value, est)])


def _cmd_entropy(args) -> int:
    from . import closed_form as cf
    from .distributions import parse_spec
    d = parse_spec(args.dist)
    spec = EntropySpec(args.measure, args.alpha, args.beta)
    value = cf.evaluate(spec, d)
    return _emit_value(value, _oracle_value(spec, d) if args.verify else None, args.out)


def _cmd_kl(args) -> int:
    from . import closed_form as cf
    from .distributions import parse_spec
    p = parse_spec(args.p)
    q = parse_spec(args.q)
    value = cf.kl_divergence(p, q)
    est = None
    if args.verify:
        from . import oracle
        est = oracle.kl_integral(p, q).value
    return _emit_value(value, est, args.out)


def _replace_param(d, param: str, value: float):
    fields = {key: (attr, conv) for key, attr, conv in d.spec_fields}
    if param not in fields:
        raise ParameterError(
            f"family {d.spec_name!r} has no parameter {param!r} to sweep")
    attr, conv = fields[param]
    if conv is int:
        if abs(value - round(value)) > 1e-9:
            raise ParameterError(f"parameter {param!r} needs integer grid values, got {value}")
        value = round(value)
    return dataclasses.replace(d, **{attr: conv(value)})


def _cmd_sweep(args) -> int:
    from . import closed_form as cf
    from .distributions import parse_spec
    base = parse_spec(args.dist)
    spec = EntropySpec(args.measure, args.alpha, args.beta)
    param = args.param or base.sweep_param
    grid = _parse_grid(args.grid)
    header = f"{param},{spec.measure}"
    if args.verify:
        header += ",oracle,abs_error"
    lines, pairs = [header], []
    for value in grid:
        d = _replace_param(base, param, value)
        closed = cf.evaluate(spec, d)
        line = f"{_fmt(value)},{_fmt(closed)}"
        if args.verify:
            est = _oracle_value(spec, d)
            pairs.append((closed, est))
            line += f",{_fmt(est)},{_fmt(abs(closed - est))}"
        lines.append(line)
    return _emit(lines, args.out, pairs)


def _cmd_converge(args) -> int:
    from . import limits
    from .distributions import Logarithmic, parse_spec
    if (args.n_grid is None) == (args.r_grid is None):
        raise ParameterError("converge needs exactly one of --n (binomial to poisson) "
                             "or --r-grid (conditional negative binomial to logarithmic)")
    if args.n_grid is not None:
        if args.lam is None:
            raise ParameterError("binomial experiment needs --lambda")
        table = limits.binomial_to_poisson(args.lam, _parse_grid(args.n_grid),
                                           perturb=args.perturb)
    else:
        if not args.dist:
            raise ParameterError("nb experiment needs --dist logarithmic:p=...")
        target = parse_spec(args.dist)
        if not isinstance(target, Logarithmic):
            raise ParameterError("nb experiment target must be logarithmic:p=...")
        table = limits.nb_to_logarithmic(target.p, _parse_grid(args.r_grid))
    lines = [f"{table.driver_name},approx,limit,abs_error"]
    for row in table.rows:
        lines.append(f"{_fmt(row.driver)},{_fmt(row.approx)},"
                     f"{_fmt(row.limit)},{_fmt(row.abs_error)}")
    return _emit(lines, args.out)


def _cmd_gauss(args) -> int:
    from . import gaussian
    grid = _parse_grid(args.hurst_grid)
    rows = gaussian.fgn_det_sweep(args.n, grid)
    lines = ["hurst,det,entropy"]
    for row in rows:
        entropy = "singular" if row.singular else _fmt(row.entropy)
        lines.append(f"{_fmt(row.hurst)},{_fmt(row.det)},{entropy}")
    return _emit(lines, args.out)


def _cmd_selftest(args) -> int:
    if not 0.0 < args.tolerance < float("inf"):
        raise ParameterError(f"tolerance must be finite and > 0, got {args.tolerance}")
    from . import verification
    families = verification.ORACLE_FAMILIES
    if args.families:
        requested = tuple(f.strip() for f in args.families.split(",") if f.strip())
        unknown = [f for f in requested if f not in verification.ORACLE_FAMILIES]
        if unknown:
            raise ParameterError(f"unknown families {unknown}; "
                                 f"choose from {verification.ORACLE_FAMILIES}")
        families = requested
    rows = verification.oracle_equivalence(
        families, verification.ORACLE_MEASURES, args.draws, args.seed)
    lines = ["family,measure,draws,max_scaled_error,status"]
    all_ok = True
    for row in rows:
        ok = row.max_error <= args.tolerance
        all_ok &= ok
        lines.append(f"{row.family},{row.measure},{row.draws},"
                     f"{_fmt(row.max_error)},{'pass' if ok else 'FAIL'}")
    for name, ok in verification.monotonicity_checks():
        all_ok &= ok
        lines.append(f"monotonicity,{name},,,{'pass' if ok else 'FAIL'}")
    lines.append(f"overall,,,,{'pass' if all_ok else 'FAIL'}")
    _emit(lines, args.out)
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="entrokit",
                     description="closed-form entropies with numerical verification")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_measure_flags(p):
        p.add_argument("--measure", required=True, choices=MEASURES)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--beta", type=float, default=None)

    def add_common(p):
        p.add_argument("--out", default=None, help="write CSV here instead of stdout")
        p.add_argument("--verify", action="store_true",
                       help="recompute with the numerical oracle and print both")

    p = sub.add_parser("entropy", help="one measure of one distribution")
    p.add_argument("--dist", required=True, help="e.g. gamma:lambda=1,mu=2")
    add_measure_flags(p)
    add_common(p)
    p.set_defaults(fn=_cmd_entropy)

    p = sub.add_parser("kl", help="Kullback-Leibler divergence of a same-family pair")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    add_common(p)
    p.set_defaults(fn=_cmd_kl)

    p = sub.add_parser("modified", help="modified Shannon entropy")
    p.add_argument("--dist", required=True)
    add_common(p)
    p.set_defaults(fn=_cmd_entropy, measure="modified", alpha=None, beta=None)

    p = sub.add_parser("sweep", help="measure along a parameter grid, CSV")
    p.add_argument("--dist", required=True)
    add_measure_flags(p)
    p.add_argument("--param", default=None,
                   help="parameter to vary (default: the family's rate-like one)")
    p.add_argument("--grid", required=True, help="start:stop:steps[:log] or v1,v2,...")
    add_common(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("converge", help="entropy convergence experiments, CSV")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="poisson intensity for the binomial experiment")
    p.add_argument("--n", dest="n_grid", default=None,
                   help="binomial sizes, e.g. 10,100,1000,10000")
    p.add_argument("--perturb", type=float, default=0.0,
                   help="use p_n = lambda/n * (1 + c/n)")
    p.add_argument("--dist", default=None,
                   help="logarithmic:p=... target for the nb experiment")
    p.add_argument("--r-grid", dest="r_grid", default=None,
                   help="decreasing r values in (0, 1/2)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_converge)

    p = sub.add_parser("gauss", help="fGn covariance determinant sweep, CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--hurst-grid", dest="hurst_grid", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_gauss)

    p = sub.add_parser("selftest", help="oracle-equivalence and monotonicity report")
    p.add_argument("--families", default=None,
                   help="comma list, e.g. exp,gamma (default: all)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--draws", type=int, default=60)
    p.add_argument("--tolerance", type=float, default=_TOLERANCE)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        return exc.code  # argparse exits with an int status: 0 for --help, 1 on errors
    except (ValidityDomainError, UnboundedDensityError) as exc:
        print(f"entrokit: validity domain: {exc}", file=sys.stderr)
        return _EXIT_VALIDITY
    except EntrokitError as exc:
        print(f"entrokit: error: {exc}", file=sys.stderr)
        return _EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
