"""Fourier and Laplace inversion on a finite interval.

Both recover a function from its transform by evaluating the transform at
eigenvalue arguments of the scaled integration matrix and applying the
result to the all-ones vector: f = (1/C) T(+-i/C) 1 for the one-sided
Fourier transforms, f = (1/C) T(1/C) 1 for Laplace. The side and interval
come from the factorization passed in; intmat.symbol_on_spectrum picks the
argument and checks the transform's analyticity region.
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
    eig = eigen_factorize(scale(build_integration_matrices(bas), "+", imap))
    return imap, bas, eig


def fourier_demo(n: int = 5, fine_points: int = 100, a: float = 0.0,
                 b: float = 4.0) -> SolveReport:
    """Recover e^{-t} on (0, b) from its transform 1/(1 - iy).

    The transform is rational, so the eigen route is cross-checked against
    the assembled linear system (I + C) f = 1 and the gap recorded.
    """
    imap, bas, eig = _demo_scaffold(n, a, b)
    symbol = ScalarSymbol(lambda y: 1.0 / (1.0 - 1j * np.asarray(y)), "upper")
    computed = fourier_invert(symbol, eig)
    direct = np.linalg.solve(np.eye(n) + eig.scaled.C, np.ones(n))
    fine = np.linspace(a, b, fine_points)
    with np.errstate(all="ignore"):  # e^{-t} overflows below t ~ -709.8
        exact, fine_exact = np.exp(-eig.scaled.xi), np.exp(-fine)
    if not (np.all(np.isfinite(exact)) and np.all(np.isfinite(fine_exact))):
        raise NumericalError("exact solution is not finite on the nodes or the fine mesh")
    meta = {"transform": "1/(1-iy)", "exact_kind": "closed_form",
            "matrix_route_gap": float(np.abs(computed - direct).max())}
    return SolveReport("ft_invert", n, a, b, eig.scaled.xi, exact, computed, fine,
                       fine_exact, interpolate(bas, imap, computed, fine), meta)


def laplace_demo(n: int = 5, fine_points: int = 100, a: float = 0.0,
                 b: float = 2.0) -> SolveReport:
    """Recover sin(pi t)/(pi t) on (0, b) from arctan(pi/s)/pi, which is
    1/2 - arctan(s/pi)/pi on Re s > 0 without its cancellation at |s| ~ 1/b."""
    imap, bas, eig = _demo_scaffold(n, a, b)
    symbol = ScalarSymbol(
        lambda s: np.arctan(np.pi / np.asarray(s, dtype=np.complex128)) / np.pi,
        "right")
    computed = laplace_invert(symbol, eig)
    fine = np.linspace(a, b, fine_points)
    meta = {"transform": "arctan(pi/s)/pi", "exact_kind": "closed_form"}
    return SolveReport("lt_invert", n, a, b, eig.scaled.xi, np.sinc(eig.scaled.xi),
                       computed, fine, np.sinc(fine),
                       interpolate(bas, imap, computed, fine), meta)
