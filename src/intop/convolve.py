"""One-sided convolution through the transform of the kernel.

The kernel enters only through its one-sided Fourier transform: with C the
scaled integration matrix of the matching side, the convolution values are
symbol(+i C^{-1}) g (left-running) or symbol(-i C^{-1}) g (right-running),
evaluated through the eigendecomposition. The side and interval are those of
the factorization passed in; intmat.symbol_on_spectrum picks the argument
and checks the kernel transform's region. control_response drives the
right-running case with a damped Bessel kernel and control_inverse recovers
the control from a wanted response; only control_demo computes diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import IntervalMap, build_basis, interpolate, WeightFamily
from .errors import NumericalError, SingularDesignError
from .intmat import (EigenFactorization, ScalarSymbol, apply_real,
                     build_integration_matrices, eigen_factorize, scale,
                     symbol_on_spectrum)
from .report import SolveReport

__all__ = [
    "ControlSpec",
    "convolve",
    "damped_bessel_symbol",
    "control_response",
    "control_inverse",
    "control_demo",
]


def convolve(symbol: ScalarSymbol, g: np.ndarray, eig: EigenFactorization) -> np.ndarray:
    """Convolution values at the mapped nodes, for the kernel transform
    symbol and factor values g at the nodes; real part, residue discarded."""
    out, _ = apply_real(eig, symbol_on_spectrum(eig, symbol, "fourier"), g)
    return out


@dataclass(frozen=True)
class ControlSpec:
    """Damped-Bessel response kernel e^{alpha s} J0(s) driven by e^{-beta t}."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError(
                f"alpha and beta must be finite, got {self.alpha:g},{self.beta:g}")
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")


def damped_bessel_symbol(alpha: float) -> ScalarSymbol:
    """Transform of the reflected kernel: int_0^inf e^{-alpha s} J0(s) e^{-isy} ds.

    Equals (1 + (alpha + iy)^2)^(-1/2); branch points sit at y = +-1 + i alpha,
    so the rule is analytic on the lower half-plane for alpha > 0.
    """
    def fn(y):
        z = alpha + 1j * np.asarray(y)
        return (1.0 + z * z) ** -0.5
    return ScalarSymbol(fn, "lower")


def _design_diagonal(alpha: float, lam: np.ndarray) -> np.ndarray:
    """d_j = ((1+alpha^2) lam^2 + 2 alpha lam + 1)^(1/2), principal branch."""
    return np.sqrt((1.0 + alpha * alpha) * lam * lam + 2.0 * alpha * lam + 1.0)


def _drive(beta: float, xi: np.ndarray) -> np.ndarray:
    """e^{-beta t} at the mapped nodes; NumericalError where it overflows."""
    with np.errstate(all="ignore"):  # overflow surfaces as NumericalError
        g = np.exp(-beta * xi)
    if not np.all(np.isfinite(g)):
        raise NumericalError(f"drive e^(-beta t) with beta = {beta:g} is not finite "
                             "at the nodes")
    return g


def control_response(spec: ControlSpec, eig: EigenFactorization) -> np.ndarray:
    """Response p(t) = int_t^b e^{alpha(t-tau)} J0(t-tau) e^{-beta tau} dtau
    at the mapped nodes, by the generic symbol route."""
    return convolve(damped_bessel_symbol(spec.alpha), _drive(spec.beta, eig.scaled.xi), eig)


def control_inverse(spec: ControlSpec, eig: EigenFactorization, p: np.ndarray) -> np.ndarray:
    """Recover the control from a wanted response: apply d_j/lam_j in the
    eigenbasis (the algebraic inverse of the forward map)."""
    if eig.scaled.side != "-":
        raise ValueError("control inverse needs the right-running side")
    d = _design_diagonal(spec.alpha, eig.values)
    if np.any(np.abs(d) < 1e-14):
        raise SingularDesignError("design diagonal has a vanishing entry")
    out, _ = apply_real(eig, lambda lam: d / lam, p)
    return out


_REFERENCE_N = 11


def _gap(eig: EigenFactorization, phi, g: np.ndarray, response: np.ndarray) -> float:
    other, _ = apply_real(eig, phi, g)
    return float(np.abs(response - other).max())


def _control_solution(alpha: float, beta: float, imap: IntervalMap, n: int):
    """Order-n basis, factorization, g = e^{-beta xi}, kernel rule phi and
    response, its imaginary residue and its gap to the closed form lam/d."""
    bas = build_basis(WeightFamily.legendre(), n)
    eig = eigen_factorize(scale(build_integration_matrices(bas), "-", imap))
    ControlSpec(alpha, beta)  # validated after the factorization
    g = _drive(beta, eig.scaled.xi)
    phi = symbol_on_spectrum(eig, damped_bessel_symbol(alpha), "fourier")
    response, residue = apply_real(eig, phi, g)
    closed = _gap(eig, lambda lam: lam / _design_diagonal(alpha, lam), g, response)
    return bas, eig, g, phi, response, residue, closed


def control_demo(n: int = 5, fine_points: int = 100, alpha: float = 1.0,
                 beta: float = 0.7, a: float = 0.0, b: float = 3.0) -> SolveReport:
    """Control demo report; the 'exact' columns hold the order-11 reference
    interpolated to the requested meshes (no closed form exists). The metadata
    also has the gap to a circulating misprint: an extra 1/(alpha+iy) factor."""
    imap = IntervalMap(a, b)
    bas, eig, g, phi, response, residue, closed = _control_solution(alpha, beta, imap, n)
    fine = np.linspace(a, b, fine_points)
    computed_fine = interpolate(bas, imap, response, fine)
    ref_bas, ref_response, ref_closed = bas, response, closed
    if n != _REFERENCE_N:
        ref_bas, _, _, _, ref_response, _, ref_closed = _control_solution(
            alpha, beta, imap, _REFERENCE_N)
    ref_coarse = interpolate(ref_bas, imap, ref_response, eig.scaled.xi)
    ref_fine = interpolate(ref_bas, imap, ref_response, fine)
    printed = _gap(eig, lambda lam: phi(lam) / (alpha + 1.0 / lam), g, response)
    meta = {"alpha": alpha, "beta": beta, "exact_kind": f"reference_n{_REFERENCE_N}",
            "closed_form_deviation": closed, "printed_variant_deviation": printed,
            "imag_residue": residue, "reference_closed_form_deviation": ref_closed}
    return SolveReport("control", n, a, b, eig.scaled.xi, ref_coarse,
                       response, fine, ref_fine, computed_fine, meta)
