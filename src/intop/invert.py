"""Fourier and Laplace inversion on a finite interval.

Both recover a function by applying its transform, taken at a multiple of
the inverse scaled integration matrix, to the all-ones vector:
f = (1/C) T(+-i/C) 1 for the one-sided Fourier transforms, f = (1/C) T(1/C) 1
for Laplace. fourier_invert and laplace_invert evaluate the transform at the
eigenvalues: the side and interval come from the factorization passed in, and
intmat.symbol_on_spectrum picks the argument and checks the transform's
analyticity region. The Fourier demo's transform 1/(1 - iy) is rational, so
its inversion is the solve (I + C) f = 1, at any n.
"""

from __future__ import annotations

import numpy as np

from .basis import IntervalMap, WeightFamily, build_basis, interpolate
from .errors import NumericalError
from .intmat import (EigenFactorization, ScalarSymbol, apply_real,
                     build_integration_matrices, eigen_factorize, scale,
                     symbol_on_spectrum)
from .report import SolveReport

__all__ = [
    "fourier_invert",
    "laplace_invert",
    "fourier_demo",
    "laplace_demo",
]


def _invert(transform: ScalarSymbol, eig: EigenFactorization, kind: str) -> np.ndarray:
    phi = symbol_on_spectrum(eig, transform, kind)
    out, _ = apply_real(eig, lambda lam: phi(lam) / lam, np.ones(eig.values.size))
    return out


def fourier_invert(transform: ScalarSymbol, eig: EigenFactorization) -> np.ndarray:
    """Invert a one-sided Fourier transform at the mapped nodes.

    The left-running side takes an upper-half-plane transform, the
    right-running side a lower-half-plane one.
    """
    return _invert(transform, eig, "fourier")


def laplace_invert(transform: ScalarSymbol, eig: EigenFactorization) -> np.ndarray:
    """Invert a Laplace transform at the mapped nodes (left-running side).

    Eigenvalues sit in the right half-plane, so 1/lam stays inside the
    transform's analyticity region.
    """
    return _invert(transform, eig, "laplace")


def _demo_report(pipeline: str, n: int, a: float, b: float, fine_points: int,
                 exact, solve) -> SolveReport:
    """The frame every demo runs in: the order-n left-running
    Legendre matrix scaled to (a, b), the exact solution at its nodes and on
    fine_points equispaced points, then solve(scaled, fine) -> (node values,
    metadata), interpolated to the fine mesh. A non-finite exact column is
    refused with NumericalError before solve runs."""
    imap = IntervalMap(a, b)
    bas = build_basis(WeightFamily.legendre(), n)
    scaled = scale(build_integration_matrices(bas), "+", imap)
    fine = np.linspace(a, b, fine_points)
    with np.errstate(all="ignore"):  # an overflow is refused just below
        coarse_exact, fine_exact = exact(scaled.xi), exact(fine)
    if not (np.all(np.isfinite(coarse_exact)) and np.all(np.isfinite(fine_exact))):
        raise NumericalError("exact solution is not finite on the nodes or the fine mesh")
    computed, meta = solve(scaled, fine)
    return SolveReport(pipeline, n, a, b, scaled.xi, coarse_exact, computed, fine,
                       fine_exact, interpolate(bas, imap, computed, fine), meta)


def fourier_demo(n: int = 5, fine_points: int = 100, a: float = 0.0,
                 b: float = 4.0) -> SolveReport:
    """Recover e^{-(t-a)} on (a, b) from its transform 1/(1 - iy).

    The transform is rational: at i/lam it is lam/(1 + lam), so
    f = (1/C) T(i/C) 1 = (I + C)^{-1} 1, one solve.
    """
    def solve(scaled, fine):
        return (np.linalg.solve(np.eye(n) + scaled.C, np.ones(n)),
                {"transform": "1/(1-iy)", "exact_kind": "closed_form"})
    return _demo_report("ft_invert", n, a, b, fine_points,
                        lambda t: np.exp(a - t), solve)


def laplace_demo(n: int = 5, fine_points: int = 100, a: float = 0.0,
                 b: float = 2.0) -> SolveReport:
    """Recover sinc(t - a) = sin(pi (t-a))/(pi (t-a)) on (a, b) from
    arctan(pi/s)/pi, which is 1/2 - arctan(s/pi)/pi on Re s > 0 without its
    cancellation at |s| ~ 1/(b - a). pi (t - a) overflows past
    t - a ~ 5.7e307, where the exact columns are refused."""
    symbol = ScalarSymbol(
        lambda s: np.arctan(np.pi / np.asarray(s, dtype=np.complex128)) / np.pi,
        "right")

    def solve(scaled, fine):
        return (laplace_invert(symbol, eigen_factorize(scaled)),
                {"transform": "arctan(pi/s)/pi", "exact_kind": "closed_form"})
    return _demo_report("lt_invert", n, a, b, fine_points,
                        lambda t: np.sinc(t - a), solve)
