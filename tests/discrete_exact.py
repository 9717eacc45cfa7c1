"""Discrete-exact node values of the rational demos' collocation problems.

Each function takes the double matrices a demo solves with and solves the
same equations in 40-digit mpmath arithmetic, which converts every double
exactly. The answer shares the demo's collocation error, so the demo's
distance from it is the error of the route alone, in double precision.
"""

import mpmath
import numpy as np

DIGITS = 40


def _mp(array) -> mpmath.matrix:
    return mpmath.matrix(np.asarray(array, dtype=np.float64).tolist())


def fourier_nodes(C: np.ndarray) -> np.ndarray:
    """f with (I + C) f = 1: e^{-t} back from its transform 1/(1 - iy)."""
    n = C.shape[0]
    with mpmath.workdps(DIGITS):
        f = mpmath.lu_solve(mpmath.eye(n) + _mp(C), mpmath.ones(n, 1))
        return np.array([float(v) for v in f])


def wiener_hopf_nodes(c_plus: np.ndarray, c_minus: np.ndarray,
                      g: np.ndarray) -> np.ndarray:
    """f with (I - K+ - K-) f = g for the kernel -e^{-s}, whose exact halves
    are K+ = -(I + C+)^{-1} C+ and K- = -(I - C-)^{-1} C-."""
    n = g.size
    with mpmath.workdps(DIGITS):
        eye, cp, cm = mpmath.eye(n), _mp(c_plus), _mp(c_minus)
        k_plus = -(mpmath.inverse(eye + cp) * cp)
        k_minus = -(mpmath.inverse(eye - cm) * cm)
        f = mpmath.lu_solve(eye - k_plus - k_minus, _mp(g.reshape(-1, 1)))
        return np.array([float(v) for v in f])
