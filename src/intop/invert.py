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


def _demo_scaffold(n: int, a: float, b: float):
    imap = IntervalMap(a, b)
    bas = build_basis(WeightFamily.legendre(), n)
    return imap, bas, scale(build_integration_matrices(bas), "+", imap)


def fourier_demo(n: int = 5, fine_points: int = 100, a: float = 0.0,
                 b: float = 4.0) -> SolveReport:
    """Recover e^{-(t-a)} on (a, b) from its transform 1/(1 - iy).

    The transform is rational: at i/lam it is lam/(1 + lam), so
    f = (1/C) T(i/C) 1 = (I + C)^{-1} 1, one solve. The exact columns are
    evaluated first, so a non-finite one is refused before the solve.
    """
    imap, bas, scaled = _demo_scaffold(n, a, b)
    fine = np.linspace(a, b, fine_points)
    exact, fine_exact = np.exp(a - scaled.xi), np.exp(a - fine)
    if not (np.all(np.isfinite(exact)) and np.all(np.isfinite(fine_exact))):
        raise NumericalError("exact solution is not finite on the nodes or the fine mesh")
    computed = np.linalg.solve(np.eye(n) + scaled.C, np.ones(n))
    meta = {"transform": "1/(1-iy)", "exact_kind": "closed_form"}
    return SolveReport("ft_invert", n, a, b, scaled.xi, exact, computed, fine,
                       fine_exact, interpolate(bas, imap, computed, fine), meta)


def laplace_demo(n: int = 5, fine_points: int = 100, a: float = 0.0,
                 b: float = 2.0) -> SolveReport:
    """Recover sinc(t - a) = sin(pi (t-a))/(pi (t-a)) on (a, b) from
    arctan(pi/s)/pi, which is 1/2 - arctan(s/pi)/pi on Re s > 0 without its
    cancellation at |s| ~ 1/(b - a). The exact columns are evaluated first,
    so a non-finite one is refused before the factorization."""
    imap, bas, scaled = _demo_scaffold(n, a, b)
    fine = np.linspace(a, b, fine_points)
    with np.errstate(all="ignore"):  # pi (t - a) overflows past t - a ~ 5.7e307
        exact, fine_exact = np.sinc(scaled.xi - a), np.sinc(fine - a)
    if not (np.all(np.isfinite(exact)) and np.all(np.isfinite(fine_exact))):
        raise NumericalError("exact solution is not finite on the nodes or the fine mesh")
    eig = eigen_factorize(scaled)
    symbol = ScalarSymbol(
        lambda s: np.arctan(np.pi / np.asarray(s, dtype=np.complex128)) / np.pi,
        "right")
    computed = laplace_invert(symbol, eig)
    meta = {"transform": "arctan(pi/s)/pi", "exact_kind": "closed_form"}
    return SolveReport("lt_invert", n, a, b, scaled.xi, exact, computed, fine,
                       fine_exact, interpolate(bas, imap, computed, fine), meta)
