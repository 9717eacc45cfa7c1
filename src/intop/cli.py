"""Command-line surface: demo artifacts, matrix export, scans, verification.

The five demo subcommands come from one table, _DEMOS, which gives each its
help line and default interval and passes the parsed flags to the demo as
keywords. The conjecture scan and the verify suite are written as JSON
only, so --format offers json alone there.

Output is deterministic: fixed seeds and fixed orderings, written by the
intop.report writers (CSV floats at 17 significant digits, JSON floats as
their shortest round-trip repr), so a rerun with the same flags is
byte-identical.
Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

import numpy as np

from .basis import IntervalMap, WeightFamily, build_basis
from .convolve import control_demo
from .errors import NumericalError
from .intmat import build_integration_matrices, eigen_factorize, scale
from .invert import fourier_demo, laplace_demo
from .ode import tangent_demo
from .report import csv_document, json_document
from .verify import conjecture_scan, verify_suite
from .wiener_hopf import exp_kernel_demo

__all__ = ["main"]


# Negative values as float() reads them, so that `--a -1e300` and `--a -inf`
# give their value to the flag; argparse's own pattern takes only -12 and -1.5.
_NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*(e[-+]?\d+)?|\.\d+(e[-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; 2 is reserved for numerical
    failures here, so usage errors are remapped to 1. Any negative number
    is read as a value, never as a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_interval_flags(p, a, b, fine=None):
    p.add_argument("--n", type=int, default=5, help="collocation order")
    p.add_argument("--a", type=float, default=a, help="interval left endpoint")
    p.add_argument("--b", type=float, default=b, help="interval right endpoint")
    if fine is not None:
        p.add_argument("--fine-points", type=int, default=fine,
                       help="equispaced evaluation mesh size")


def _add_output_flags(p, formats=("csv", "json")):
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=formats, default=formats[0])


def _validate(args) -> None:
    if getattr(args, "n", 1) < 1:
        raise ValueError("--n must be at least 1")
    if getattr(args, "fine_points", 2) < 2:
        raise ValueError("--fine-points must be at least 2")
    if hasattr(args, "a") and not args.b > args.a:
        raise ValueError("--a must be below --b")


# name -> (help, default b, builder). A builder takes the parsed flags as
# keywords and looks its demo up by name at call time, so replacing the module
# attribute (as perfbench/spans.py does) reroutes the call.
_DEMOS = {
    "ft-invert": ("oscillatory-transform inversion demo", 4.0,
                  lambda **kw: fourier_demo(**kw)),
    "lt-invert": ("decaying-transform inversion demo", 2.0,
                  lambda **kw: laplace_demo(**kw)),
    "control": ("damped-Bessel response demo", 3.0, lambda **kw: control_demo(**kw)),
    "ode": ("Picard initial-value demo (tangent)", 0.5, lambda **kw: tangent_demo(**kw)),
    "wiener-hopf": ("half-line integral-equation demo", 1.0,
                    lambda **kw: exp_kernel_demo(**kw)),
}


@functools.cache
def build_parser() -> _Parser:
    """The parser, built once per process; parse_args keeps no state between
    calls, so main() reuses it."""
    parser = _Parser(prog="intop",
                     description="Indefinite integration matrices and the "
                                 "transform pipelines built on them.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("matrices", help="export the one-sided matrices",
                       description="Both one-sided matrices on (-1, 1).")
    p.add_argument("--family", default="legendre",
                   help="legendre | chebyshev1 | gegenbauer:L | jacobi:A,B")
    p.add_argument("--n", type=int, default=5)
    _add_output_flags(p)

    p = sub.add_parser("eigs", help="export the spectrum of the scaled matrix",
                       description="Eigenvalues of the left-running matrix "
                                   "scaled to (a, b).")
    p.add_argument("--family", default="legendre",
                   help="legendre | chebyshev1 | gegenbauer:L | jacobi:A,B")
    _add_interval_flags(p, a=-1.0, b=1.0)
    _add_output_flags(p)

    for name, (help_, b, _) in _DEMOS.items():
        p = sub.add_parser(name, help=help_)
        _add_interval_flags(p, a=0.0, b=b, fine=100)
        if name == "control":
            p.add_argument("--alpha", type=float, default=1.0, help="kernel damping")
            p.add_argument("--beta", type=float, default=0.7, help="drive decay rate")
        _add_output_flags(p)

    p = sub.add_parser("conjecture", help="right-half-plane eigenvalue scan")
    p.add_argument("--family", default="legendre",
                   help="legendre | chebyshev1 | gegenbauer:L | jacobi:A,B")
    p.add_argument("--n-max", type=int, default=40)
    _add_output_flags(p, formats=("json",))

    p = sub.add_parser("verify", help="run the full identity/bound suite")
    p.add_argument("--samples", type=int, default=100,
                   help="randomized-suite size")
    _add_output_flags(p, formats=("json",))
    return parser


def _matrices_text(args) -> str:
    family = WeightFamily.parse(args.family)
    mats = build_integration_matrices(build_basis(family, args.n))
    if args.format == "json":
        return json_document({"family": family.label, "n": args.n,
                              "plus": mats.plus, "minus": mats.minus,
                              "nodes": mats.basis.nodes,
                              "weights": mats.basis.gauss_weights})
    idx = [f"{i}," for i in range(args.n)]

    def cells(tag):  # "tag,j,k," for every entry, row by row
        return [row + k for row in [tag + j for j in idx] for k in idx]

    return csv_document({"family": family.label, "n": args.n}, "side,j,k,value",
                        [(None, cells(tag), m.reshape(-1, 1))
                         for tag, m in (("+,", mats.plus), ("-,", mats.minus))])


def _eigs_text(args) -> str:
    family = WeightFamily.parse(args.family)
    mats = build_integration_matrices(build_basis(family, args.n))
    eig = eigen_factorize(scale(mats, "+", IntervalMap(args.a, args.b)))
    meta = {"family": family.label, "n": args.n, "a": args.a, "b": args.b,
            "cond": eig.cond}
    re_im = np.column_stack((eig.values.real, eig.values.imag))
    if args.format == "json":
        return json_document({**meta, "eigenvalues": re_im})
    return csv_document(meta, "index,re,im",
                        [(None, [f"{i}," for i in range(len(re_im))], re_im)])


def main(argv=None) -> int:
    """Entry point returning 0 (done), 1 (usage) or 2 (numerical failure)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _validate(args)
        if args.command in _DEMOS:
            report = _DEMOS[args.command][2](**{
                k: v for k, v in vars(args).items()
                if k not in ("command", "out", "format")})
            _emit(report.csv_text() if args.format == "csv" else report.json_text(),
                  args.out)
        elif args.command == "matrices":
            _emit(_matrices_text(args), args.out)
        elif args.command == "eigs":
            _emit(_eigs_text(args), args.out)
        elif args.command == "conjecture":
            if args.n_max < 1:
                raise ValueError("--n-max must be at least 1")
            _emit(conjecture_scan(WeightFamily.parse(args.family),
                                  args.n_max).json_text(), args.out)
        else:  # verify
            suite = verify_suite(samples=args.samples)
            _emit(json_document(suite), args.out)
            if not suite["all_passed"]:
                failed = [k for k, v in suite.items()
                          if isinstance(v, dict) and not v.get("passed", True)]
                raise NumericalError(f"verification failed: {', '.join(failed)}")
    except SystemExit as exc:  # argparse help/usage paths
        return exc.code if isinstance(exc.code, int) else 1
    except ValueError as exc:
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"intop: numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
