"""Finite-interval integral equations of convolution type.

f(x) - int_a^b k(x - t) f(t) dt = g(x) splits into a left-running and a
right-running convolution, K+ and K-. solve takes both as collocated n x n
matrices and g at the nodes, and solves (I - K+ - K-) f = g directly,
falling back to least squares when it is numerically rank-deficient. A
kernel whose one-sided transform khat is not rational enters through the
eigen route on the matching side, as
matrix_function(eig, symbol_on_spectrum(eig, khat, "fourier")); the demo's
kernel -e^{-s} is rational on both sides, and each half is one solve with C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, PoleEvaluationError
from .intmat import ScaledMatrix, _imag_residue, scale
from .invert import _demo_report
from .report import SolveReport
# Unused here, but perfbench/spans.py wraps them: a non-rational kernel reaches
# solve through matrix_function, and exp_kernel_demo runs in invert._demo_report.
from .basis import build_basis, interpolate  # noqa: F401
from .intmat import build_integration_matrices, eigen_factorize, matrix_function  # noqa: F401

__all__ = [
    "WienerHopfResult",
    "solve",
    "exp_kernel_demo",
]

_RANK_CUTOFF = 1e-10


@dataclass(frozen=True)
class WienerHopfResult:
    """Solution at the nodes and the diagnostics of the collocated system."""

    values: np.ndarray
    residual: float
    nonunique: bool
    sigma_min: float
    sigma_max: float
    imag_residue: float


def solve(k_plus: np.ndarray, k_minus: np.ndarray, g: np.ndarray) -> WienerHopfResult:
    """Solve the collocated system (I - K+ - K-) f = g, by least squares when
    it is numerically rank-deficient.

    k_plus and k_minus are the n x n collocated convolutions of the two
    sides and g holds the right-hand side at the n nodes, real or complex;
    values is the real part of f and imag_residue ||Im f|| / ||f||.
    ValueError when the shapes disagree.
    """
    g = np.asarray(g)
    n = g.size
    if g.shape != (n,) or np.shape(k_plus) != (n, n) or np.shape(k_minus) != (n, n):
        raise ValueError(f"need two {n} x {n} matrices for {n} node values, got "
                         f"{np.shape(k_plus)} and {np.shape(k_minus)} for {g.shape}")
    system = np.eye(n) - k_plus - k_minus
    if not (np.all(np.isfinite(system)) and np.all(np.isfinite(g))):
        raise NumericalError("the collocated system is not finite")
    sigma = np.linalg.svd(system, compute_uv=False)
    s_min, s_max = float(sigma[-1]), float(sigma[0])
    nonunique = s_min < _RANK_CUTOFF * s_max
    if nonunique:
        f = np.linalg.lstsq(system, g, rcond=None)[0]
    else:
        f = np.linalg.solve(system, g)
    if not np.all(np.isfinite(f)):
        raise NumericalError("solution is not finite at the nodes")
    residual = float(np.max(np.abs(system @ f - g)))
    residue = _imag_residue(f) if np.iscomplexobj(f) else 0.0
    return WienerHopfResult(f.real.copy(), residual, nonunique, s_min, s_max, residue)


def _exp_kernel_half(scaled: ScaledMatrix) -> np.ndarray:
    """The convolution with -e^{-s} on the side of scaled: -(I +- C)^{-1} C.

    On side '+', u(x) = int_a^x e^{t-x} f(t) dt solves u = J+(f - u); on
    side '-', v(x) = int_x^b e^{t-x} f(t) dt solves v = J-(f + v). Both are
    exact at every n and need no analyticity region (the branch s < 0 grows,
    so its transform is only a continuation). PoleEvaluationError when
    I +- C is singular to working precision: its smallest singular value is
    at most eps (1 + ||C||_F), the rounding of its entries. On side '-' that
    happens where C has the eigenvalue 1 (at n = 5 on (0, b), b ~ 7.2935).
    """
    sign = 1.0 if scaled.side == "+" else -1.0
    shifted = np.eye(scaled.C.shape[0]) + sign * scaled.C
    s_min = np.linalg.svd(shifted, compute_uv=False)[-1]
    rounding = np.finfo(np.float64).eps * (1.0 + np.linalg.norm(scaled.C))
    if not s_min > rounding:
        raise PoleEvaluationError(
            f"kernel transform has a pole at an eigenvalue of C on side {scaled.side!r}: "
            f"the smallest singular value of I {scaled.side} C, "
            f"{s_min:.3e}, is within its rounding {rounding:.3e}")
    return -np.linalg.solve(shifted, scaled.C)


def _demo_g(t):
    t = np.asarray(t, dtype=np.float64)
    return 2.0 * math.exp(-0.5) * t * np.exp(t * t - t)


def _demo_exact(t, a, b):
    # f = g - c e^{-t} solves f + int_a^b e^{s-t} f(s) ds = g when
    # c (1 + b - a) = int_a^b e^s g(s) ds = e^{-1/2} (e^{b^2} - e^{a^2})
    t = np.asarray(t, dtype=np.float64)
    c = math.exp(-0.5) * (np.exp(b * b) - np.exp(a * a)) / (1.0 + b - a)
    return _demo_g(t) - c * np.exp(-t)


def exp_kernel_demo(n: int = 5, fine_points: int = 100, a: float = 0.0,
                    b: float = 1.0) -> SolveReport:
    """The solvable benchmark: k(s) = -e^{-s} for every s and
    g(t) = 2 e^{-1/2} t e^{t^2 - t}, so that f(t) = g(t) - c e^{-t} with
    c = e^{-1/2} (e^{b^2} - e^{a^2}) / (1 + b - a), which is sinh(1/2) on
    (0, 1). g overflows past t ~ 27.2, and only where f does, so the frame's
    refusal of a non-finite exact column covers it.

    The metadata describes the collocated system: its residual, its extreme
    singular values and whether it is rank-deficient.
    """
    def solve_halves(plus, fine):
        minus = scale(plus.source, "-", plus.imap)
        result = solve(_exp_kernel_half(plus), _exp_kernel_half(minus), _demo_g(plus.xi))
        return result.values, {"exact_kind": "closed_form", "residual": result.residual,
                               "nonunique": result.nonunique, "sigma_min": result.sigma_min,
                               "sigma_max": result.sigma_max}
    return _demo_report("wiener_hopf", n, a, b, fine_points,
                        lambda t: _demo_exact(t, a, b), solve_halves)
