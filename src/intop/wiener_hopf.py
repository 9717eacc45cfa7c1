"""Finite-interval integral equations of convolution type.

f(x) - int_a^b k(x - t) f(t) dt = g(x) splits into a left-running and a
right-running convolution; each half enters through its one-sided kernel
transform at +-i C^{-1} on the matching side (intmat.symbol_on_spectrum),
both sides on one interval, and the collocation system (I - K_plus -
K_minus) f = g is solved directly, falling back to least squares when it is
numerically rank-deficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import IntervalMap, WeightFamily, build_basis, interpolate
from .errors import NumericalError
from .intmat import (EigenFactorization, ScalarSymbol, _imag_residue,
                     build_integration_matrices, eigen_factorize, matrix_function,
                     scale, symbol_on_spectrum)
from .memo import read_only
from .report import SolveReport

__all__ = [
    "WienerHopfProblem",
    "WienerHopfResult",
    "solve",
    "truncated_exp_kernel_symbols",
    "exp_kernel_demo",
]

_RANK_CUTOFF = 1e-10


@dataclass(frozen=True)
class WienerHopfProblem:
    """One-sided kernel transforms and the right-hand side callable."""

    khat_plus: ScalarSymbol
    khat_minus: ScalarSymbol
    g: object


@dataclass(frozen=True)
class WienerHopfResult:
    """Solution at the nodes, diagnostics, and the read-only K+ and K- used."""

    values: np.ndarray
    residual: float
    nonunique: bool
    sigma_min: float
    sigma_max: float
    imag_residue: float
    k_plus: np.ndarray
    k_minus: np.ndarray


def solve(problem: WienerHopfProblem, eig_plus: EigenFactorization,
          eig_minus: EigenFactorization) -> WienerHopfResult:
    """Solve the collocated system (I - K+ - K-) f = g, by least squares when
    it is numerically rank-deficient."""
    if eig_plus.scaled.side != "+" or eig_minus.scaled.side != "-":
        raise ValueError("need a left-running and a right-running factorization")
    if eig_plus.scaled.imap != eig_minus.scaled.imap:
        raise ValueError("the two factorizations are on different intervals")
    phi_plus = symbol_on_spectrum(eig_plus, problem.khat_plus, "fourier")
    phi_minus = symbol_on_spectrum(eig_minus, problem.khat_minus, "fourier")
    n = eig_plus.values.size
    with np.errstate(all="ignore"):  # overflow surfaces as NumericalError
        g = np.asarray(problem.g(eig_plus.scaled.xi), dtype=np.float64)
    if not np.all(np.isfinite(g)):
        raise NumericalError("right-hand side is not finite at the nodes")
    k_plus = read_only(matrix_function(eig_plus, phi_plus))
    k_minus = read_only(matrix_function(eig_minus, phi_minus))
    system = np.eye(n, dtype=np.complex128) - k_plus - k_minus
    sigma = np.linalg.svd(system, compute_uv=False)
    s_min, s_max = float(sigma[-1]), float(sigma[0])
    nonunique = s_min < _RANK_CUTOFF * s_max
    if nonunique:
        f = np.linalg.lstsq(system, g.astype(np.complex128), rcond=None)[0]
    else:
        f = np.linalg.solve(system, g.astype(np.complex128))
    if not np.all(np.isfinite(f)):
        raise NumericalError("solution is not finite at the nodes")
    residual = float(np.max(np.abs(system @ f - g)))
    return WienerHopfResult(f.real.copy(), residual, nonunique, s_min, s_max,
                            _imag_residue(f), k_plus, k_minus)


def _expm1_over(z: np.ndarray) -> np.ndarray:
    """(e^{2z} - 1)/z with the removable point z = 0 filled by its limit 2."""
    z = np.asarray(z, dtype=np.complex128)
    zero = z == 0.0
    safe = np.where(zero, 1.0, z)
    return np.where(zero, 2.0, np.expm1(2.0 * safe) / safe)


def truncated_exp_kernel_symbols():
    """Transforms of the kernel -e^{-x}: the right-running branch over (0, inf)
    and the left-running branch truncated to (-2, 0).

    khat_plus(y) = -1/(1 - iy); khat_minus(y) = -(e^{2(1-iy)} - 1)/(1 - iy),
    which is entire (the 1 - iy = 0 point is removable). Both carry the sign
    of the defining integrals int k(+-s) e^{-+isy} ds over the half-line; the
    kernel is negative, so both transforms are -(e^2 - 1) and -1 at y = 0.
    """
    plus = ScalarSymbol(lambda y: -1.0 / (1.0 - 1j * np.asarray(y)), "upper")
    minus = ScalarSymbol(lambda y: -_expm1_over(1.0 - 1j * np.asarray(y)), "entire")
    return plus, minus


def _demo_g(t):
    t = np.asarray(t, dtype=np.float64)
    return 2.0 * math.exp(-0.5) * t * np.exp(t * t - t)


def _demo_exact(t):
    t = np.asarray(t, dtype=np.float64)
    return _demo_g(t) - math.sinh(0.5) * np.exp(-t)


def exp_kernel_demo(n: int = 5, fine_points: int = 100, a: float = 0.0,
                    b: float = 1.0) -> SolveReport:
    """The solvable benchmark: g chosen so that f(t) = g(t) - sinh(1/2) e^{-t}.

    The metadata's alt_sign_error is the error of the opposite sign
    convention, the least-squares solution of (I - K+ + K-) f = g, formed
    from the K+ and K- the solver assembled.
    """
    imap = IntervalMap(a, b)
    bas = build_basis(WeightFamily.legendre(), n)
    mats = build_integration_matrices(bas)
    eig_plus = eigen_factorize(scale(mats, "+", imap))
    eig_minus = eigen_factorize(scale(mats, "-", imap))
    khat_plus, khat_minus = truncated_exp_kernel_symbols()
    result = solve(WienerHopfProblem(khat_plus, khat_minus, _demo_g),
                   eig_plus, eig_minus)
    xi = eig_plus.scaled.xi
    alt_system = np.eye(n, dtype=np.complex128) - result.k_plus + result.k_minus
    alt = np.linalg.lstsq(alt_system, _demo_g(xi).astype(np.complex128), rcond=None)[0]
    fine = np.linspace(a, b, fine_points)
    with np.errstate(all="ignore"):  # e^{t^2 - t} overflows past t ~ 27.2
        fine_exact = _demo_exact(fine)
    if not np.all(np.isfinite(fine_exact)):
        raise NumericalError("exact solution is not finite on the fine mesh")
    meta = {"exact_kind": "closed_form",
            "residual": result.residual,
            "nonunique": result.nonunique,
            "sigma_min": result.sigma_min, "sigma_max": result.sigma_max,
            "imag_residue": result.imag_residue,
            "alt_sign_error": float(np.abs(alt.real - _demo_exact(xi)).max())}
    return SolveReport("wiener_hopf", n, a, b, xi, _demo_exact(xi), result.values,
                       fine, fine_exact,
                       interpolate(bas, imap, result.values, fine), meta)
