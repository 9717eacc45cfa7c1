"""One-sided convolution through the transform of the kernel.

The kernel enters only through its one-sided Fourier transform: with C the
scaled integration matrix of the matching side, the convolution values are
symbol(+i C^{-1}) g (left-running) or symbol(-i C^{-1}) g (right-running),
evaluated through the eigendecomposition of the factorization passed in;
intmat.symbol_on_spectrum picks the argument and checks the kernel
transform's region. control_response drives the right-running case with a
damped Bessel kernel, control_inverse recovers the control from a wanted
response, and control_demo checks the response against its closed form. The
rule's closed form lam/d(lam) and a circulating misprint with an extra
1/(alpha + iy) factor are checked in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SingularDesignError
from .intmat import (EigenFactorization, ScalarSymbol, apply_real, eigen_factorize,
                     scale, symbol_on_spectrum)
from .invert import _demo_report
from .report import SolveReport
# Unused here, but perfbench/spans.py wraps them (control_demo runs in _demo_report)
from .basis import build_basis, interpolate  # noqa: F401
from .intmat import build_integration_matrices  # noqa: F401

__all__ = [
    "ControlSpec",
    "convolve",
    "damped_bessel_symbol",
    "control_response",
    "control_inverse",
    "control_demo",
]

_MAX_THETA_NODES = 1024  # control_demo's exact column is refused past it, not allocated


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
            raise ValueError(f"alpha must be positive, got {self.alpha:g}")


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


def control_demo(n: int = 5, fine_points: int = 100, alpha: float = 1.0,
                 beta: float = 0.7, a: float = 0.0, b: float = 3.0) -> SolveReport:
    """The response to e^{-beta t} through e^{alpha s} J0(s), alpha and beta
    checked before any numerics; the metadata holds them and the imaginary
    residue of the apply. The exact column is p(t) = e^{-beta t} F(b - t) with
    F(L) = int_0^L e^{-cu} J0(u) du, c = alpha + beta: J0(u) = (2/pi) times
    int_0^{pi/2} cos(u sin theta) dtheta (Watson, 2.2) makes F an integral in
    theta of Re[(1 - e^{-cL} e^{iLs}) / (c - is)], s = sin theta, which the
    N-point midpoint rule resolves to error ~ J_4N(L) (Trefethen and Weideman,
    SIAM Rev. 56, 2014) at N = L/3 + 8, L = b - a capped at 40/c for c > 0."""
    ControlSpec(alpha, beta)
    c = alpha + beta

    def exact(t):
        nodes = (b - a if not c > 0.0 else min(b - a, 40.0 / c)) // 3.0 + 8.0
        if not nodes <= _MAX_THETA_NODES:
            raise NumericalError(f"exact response needs {nodes:g} > {_MAX_THETA_NODES} nodes")
        s = np.sin((np.arange(nodes) + 0.5) * (0.5 * np.pi / nodes))
        q = 1.0 / (c - 1j * s)  # numpy divides by scaling: c^2 would overflow past 1e154
        length = b - t
        cl = np.where(length > 0.0, c * length, 0.0)  # F(0) = 0 also where c overflows
        ls = np.multiply.outer(length, s)
        # 1 - e^{-cL} e^{iLs} = -expm1(-cL) + e^{-cL} (2 sin^2(Ls/2) - i sin(Ls))
        f = (np.exp(-cl) * (2.0 * np.sin(0.5 * ls) ** 2 @ q.real + np.sin(ls) @ q.imag)
             - np.expm1(-cl) * q.real.sum())
        return np.exp(-beta * t) * f / nodes

    def solve(plus, fine):
        eig = eigen_factorize(scale(plus.source, "-", plus.imap))
        phi = symbol_on_spectrum(eig, damped_bessel_symbol(alpha), "fourier")
        response, residue = apply_real(eig, phi, _drive(beta, eig.scaled.xi))
        return response, {"alpha": alpha, "beta": beta, "exact_kind": "closed_form",
                          "imag_residue": residue}
    return _demo_report("control", n, a, b, fine_points, exact, solve)
