"""Command-line surface: demo artifacts, matrix export, scans, verification.

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


def _add_interval_flags(p, n=5, a=0.0, b=1.0, fine=None):
    p.add_argument("--n", type=int, default=n, help="collocation order")
    p.add_argument("--a", type=float, default=a, help="interval left endpoint")
    p.add_argument("--b", type=float, default=b, help="interval right endpoint")
    if fine is not None:
        p.add_argument("--fine-points", type=int, default=fine,
                       help="equispaced evaluation mesh size")


def _add_output_flags(p, default_format="csv"):
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default=default_format)


def _validate(args) -> None:
    if getattr(args, "n", 1) < 1:
        raise ValueError("--n must be at least 1")
    if getattr(args, "fine_points", 2) < 2:
        raise ValueError("--fine-points must be at least 2")
    if hasattr(args, "a") and not args.b > args.a:
        raise ValueError("--a must be below --b")


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
    _add_interval_flags(p, n=5, a=-1.0, b=1.0)
    _add_output_flags(p)

    p = sub.add_parser("ft-invert", help="oscillatory-transform inversion demo")
    _add_interval_flags(p, n=5, a=0.0, b=4.0, fine=100)
    _add_output_flags(p)

    p = sub.add_parser("lt-invert", help="decaying-transform inversion demo")
    _add_interval_flags(p, n=5, a=0.0, b=2.0, fine=100)
    _add_output_flags(p)

    p = sub.add_parser("control", help="damped-Bessel response demo")
    _add_interval_flags(p, n=5, a=0.0, b=3.0, fine=100)
    p.add_argument("--alpha", type=float, default=1.0, help="kernel damping")
    p.add_argument("--beta", type=float, default=0.7, help="drive decay rate")
    _add_output_flags(p)

    p = sub.add_parser("ode", help="Picard initial-value demo (tangent)")
    _add_interval_flags(p, n=5, a=0.0, b=0.5, fine=100)
    _add_output_flags(p)

    p = sub.add_parser("wiener-hopf", help="half-line integral-equation demo")
    _add_interval_flags(p, n=5, a=0.0, b=1.0, fine=100)
    _add_output_flags(p)

    p = sub.add_parser("conjecture", help="right-half-plane eigenvalue scan")
    p.add_argument("--family", default="legendre",
                   help="legendre | chebyshev1 | gegenbauer:L | jacobi:A,B")
    p.add_argument("--n-max", type=int, default=40)
    _add_output_flags(p, default_format="json")

    p = sub.add_parser("verify", help="run the full identity/bound suite")
    p.add_argument("--samples", type=int, default=100,
                   help="randomized-suite size")
    _add_output_flags(p, default_format="json")
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


_DEMOS = {
    "ft-invert": lambda a: fourier_demo(n=a.n, fine_points=a.fine_points, a=a.a, b=a.b),
    "lt-invert": lambda a: laplace_demo(n=a.n, fine_points=a.fine_points, a=a.a, b=a.b),
    "control": lambda a: control_demo(n=a.n, fine_points=a.fine_points,
                                      alpha=a.alpha, beta=a.beta, a=a.a, b=a.b),
    "ode": lambda a: tangent_demo(n=a.n, fine_points=a.fine_points, a=a.a, b=a.b),
    "wiener-hopf": lambda a: exp_kernel_demo(n=a.n, fine_points=a.fine_points,
                                             a=a.a, b=a.b),
}


def main(argv=None) -> int:
    """Entry point returning 0 (done), 1 (usage) or 2 (numerical failure)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _validate(args)
        if args.command in _DEMOS:
            report = _DEMOS[args.command](args)
            _emit(report.csv_text() if args.format == "csv" else report.json_text(),
                  args.out)
        elif args.command == "matrices":
            _emit(_matrices_text(args), args.out)
        elif args.command == "eigs":
            _emit(_eigs_text(args), args.out)
        elif args.command == "conjecture":
            if args.format == "csv":
                raise ValueError("conjecture reports are json only")
            if args.n_max < 1:
                raise ValueError("--n-max must be at least 1")
            _emit(conjecture_scan(WeightFamily.parse(args.family),
                                  args.n_max).json_text(), args.out)
        else:  # verify
            if args.format == "csv":
                raise ValueError("verify reports are json only")
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
