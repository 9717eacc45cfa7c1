"""Gauss quadrature bases on (-1, 1) and barycentric interpolation on them.

Nodes come from the symmetric tridiagonal eigenproblem of the three-term
recurrence, polished with one Newton step on the recurrence itself; weights
come from the Christoffel-function formula at the polished nodes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import NodeComputationError

__all__ = [
    "WeightFamily",
    "QuadratureBasis",
    "IntervalMap",
    "ExtrapolationWarning",
    "build_basis",
    "recurrence_coefficients",
    "orthonormal_table",
    "barycentric_weights",
    "lagrange_cardinal",
    "interpolate",
    "legendre_coefficients",
]


class ExtrapolationWarning(UserWarning):
    """Interpolant evaluated outside the interval it was built on."""


@dataclass(frozen=True)
class WeightFamily:
    """Jacobi-type weight (1-x)^alpha (1+x)^beta on (-1, 1).

    The named constructors cover the supported families; alpha and beta are
    the Jacobi exponents in every case (Gegenbauer lam maps to
    alpha = beta = lam - 1/2, first-kind Chebyshev to alpha = beta = -1/2).
    """

    kind: str
    alpha: float
    beta: float

    @classmethod
    def legendre(cls) -> "WeightFamily":
        return cls("legendre", 0.0, 0.0)

    @classmethod
    def chebyshev_first(cls) -> "WeightFamily":
        return cls("chebyshev1", -0.5, -0.5)

    @classmethod
    def gegenbauer(cls, lam: float) -> "WeightFamily":
        if not lam > -0.5:
            raise ValueError("gegenbauer parameter must exceed -1/2")
        return cls("gegenbauer", lam - 0.5, lam - 0.5)

    @classmethod
    def jacobi(cls, alpha: float, beta: float) -> "WeightFamily":
        if not (alpha > -1.0 and beta > -1.0):
            raise ValueError("jacobi exponents must exceed -1")
        return cls("jacobi", alpha, beta)

    @classmethod
    def parse(cls, text: str) -> "WeightFamily":
        """Parse 'legendre', 'chebyshev1', 'gegenbauer:L' or 'jacobi:A,B'."""
        head, _, tail = text.partition(":")
        head = head.strip().lower()
        if head == "legendre":
            return cls.legendre()
        if head == "chebyshev1":
            return cls.chebyshev_first()
        if head == "gegenbauer":
            return cls.gegenbauer(float(tail))
        if head == "jacobi":
            a, b = (float(s) for s in tail.split(","))
            return cls.jacobi(a, b)
        raise ValueError(f"unknown weight family {text!r}")

    @property
    def symmetric(self) -> bool:
        return self.alpha == self.beta

    @property
    def label(self) -> str:
        if self.kind == "gegenbauer":
            return f"gegenbauer:{self.alpha + 0.5:g}"
        if self.kind == "jacobi":
            return f"jacobi:{self.alpha:g},{self.beta:g}"
        return self.kind

    def weight(self, x):
        """Weight density; unbounded at endpoints for negative exponents."""
        x = np.asarray(x, dtype=np.float64)
        return (1.0 - x) ** self.alpha * (1.0 + x) ** self.beta


@dataclass(frozen=True)
class QuadratureBasis:
    """n Gauss nodes (strictly ascending, interior) and weights for a family."""

    family: WeightFamily
    n: int
    nodes: np.ndarray
    gauss_weights: np.ndarray


@dataclass(frozen=True)
class IntervalMap:
    """Affine map between the reference interval (-1, 1) and (a, b)."""

    a: float
    b: float

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError("interval must satisfy a < b")

    @property
    def half_length(self) -> float:
        return 0.5 * (self.b - self.a)

    def forward(self, y):
        """Reference coordinate to physical coordinate."""
        return 0.5 * (self.a + self.b) + np.asarray(y) * self.half_length

    def inverse(self, t):
        """Physical coordinate to reference coordinate."""
        return (np.asarray(t) - 0.5 * (self.a + self.b)) / self.half_length


def recurrence_coefficients(family: WeightFamily, m: int):
    """Monic three-term recurrence p_{k+1} = (x - a_k) p_k - b_k p_{k-1}.

    Returns (a, b, mu0) with a[k], b[k] for k < m and mu0 the weight's total
    mass; b[0] is set to mu0 by convention. Closed forms for the Jacobi
    recurrence, with the k = 1 special case that removes the 0/0 when
    alpha + beta = -1. Raises NodeComputationError when mu0 overflows.
    """
    if m < 1:
        raise ValueError("need at least one recurrence coefficient")
    al, be = family.alpha, family.beta
    s = al + be
    try:
        mu0 = math.exp((s + 1.0) * math.log(2.0) + math.lgamma(al + 1.0)
                       + math.lgamma(be + 1.0) - math.lgamma(s + 2.0))
    except OverflowError:
        raise NodeComputationError(
            f"total mass of {family.label} overflows double precision") from None
    a = np.zeros(m)
    b = np.zeros(m)
    a[0] = (be - al) / (s + 2.0)
    b[0] = mu0
    if m > 1:
        a[1] = (be * be - al * al) / ((2.0 + s) * (4.0 + s))
        b[1] = 4.0 * (1.0 + al) * (1.0 + be) / ((2.0 + s) ** 2 * (3.0 + s))
    for k in range(2, m):
        t = 2.0 * k + s
        a[k] = (be * be - al * al) / (t * (t + 2.0))
        b[k] = (4.0 * k * (k + al) * (k + be) * (k + s)
                / (t * t * (t + 1.0) * (t - 1.0)))
    if family.symmetric:
        a[:] = 0.0
    return a, b, mu0


def orthonormal_table(family: WeightFamily, m: int, x):
    """Orthonormal polynomials phi_0 .. phi_m evaluated at x, stacked rows."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    a, b, mu0 = recurrence_coefficients(family, m + 1)
    table = np.empty((m + 1, x.size))
    table[0] = 1.0 / math.sqrt(mu0)
    if m >= 1:
        table[1] = (x - a[0]) * table[0] / math.sqrt(b[1])
    for k in range(1, m):
        table[k + 1] = ((x - a[k]) * table[k]
                        - math.sqrt(b[k]) * table[k - 1]) / math.sqrt(b[k + 1])
    return table


def build_basis(family: WeightFamily, n: int) -> QuadratureBasis:
    """Gauss rule of the family: tridiagonal eigenvalues, one Newton polish,
    Christoffel weights.

    Symmetric families get their node sets symmetrized exactly. Measured
    for n = 1..3000 (legendre, chebyshev1, gegenbauer:0.8 and three jacobi
    pairs with exponents in [-0.95, 1.9]): nodes within 6e-16 of
    scipy.special.roots_jacobi, weights within 1e-11 relative up to n = 60
    and 1e-5 at n = 3000. Raises NodeComputationError if the nodes come out
    unordered or leave (-1, 1), or if the weight's total mass overflows.
    """
    if n < 1:
        raise ValueError("n must be positive")
    a, b, _ = recurrence_coefficients(family, n + 1)
    if n == 1:
        nodes = np.array([a[0]])
    else:
        nodes = eigh_tridiagonal(a[:n], np.sqrt(b[1:n]), eigvals_only=True)
    # Newton step phi_n / phi_n', with phi_n' from the Christoffel-Darboux
    # identity sqrt(b_n) phi_n' phi_{n-1} = sum_{k<n} phi_k^2 at a zero; the
    # orthonormal values stay O(1) where monic ones overflow (n ~ 2000).
    table = orthonormal_table(family, n, nodes)
    nodes = nodes - (math.sqrt(b[n]) * table[n] * table[n - 1]
                     / np.sum(table[:n] * table[:n], axis=0))
    if family.symmetric:
        nodes = 0.5 * (nodes - nodes[::-1])
    if not (np.all(np.diff(nodes) > 0.0) and nodes[0] > -1.0 and nodes[-1] < 1.0):
        raise NodeComputationError(f"node computation failed for {family.label} n={n}")
    table = orthonormal_table(family, n - 1, nodes)
    weights = 1.0 / np.sum(table * table, axis=0)
    if family.symmetric:
        weights = 0.5 * (weights + weights[::-1])
    return QuadratureBasis(family, n, nodes, weights)


def barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    """Second-form barycentric weights, capacity-scaled to avoid under/overflow."""
    n = nodes.size
    if n == 1:
        return np.ones(1)
    cap = 0.25 * (nodes[-1] - nodes[0])
    w = np.ones(n)
    for j in range(n):
        diffs = (nodes[j] - nodes) / cap
        diffs[j] = 1.0
        w[j] = 1.0 / np.prod(diffs)
    return w


def _barycentric_matrix(nodes, bw, pts):
    """Rows: evaluation points; columns: cardinal functions at those points."""
    diff = pts[:, None] - nodes[None, :]
    exact_row, exact_col = np.nonzero(diff == 0.0)
    diff[exact_row, :] = 1.0
    ratio = bw[None, :] / diff
    denom = np.sum(ratio, axis=1)
    denom[exact_row] = 1.0  # rows rewritten below; keep the division clean
    mat = ratio / denom[:, None]
    mat[exact_row, :] = 0.0
    mat[exact_row, exact_col] = 1.0
    return mat


def lagrange_cardinal(basis: QuadratureBasis, k: int, x):
    """Cardinal polynomial through the basis nodes; 0-based k, ell_k(x_j) = delta_jk."""
    if not 0 <= k < basis.n:
        raise ValueError("cardinal index out of range")
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    bw = barycentric_weights(basis.nodes)
    return _barycentric_matrix(basis.nodes, bw, x)[:, k]


def interpolate(basis: QuadratureBasis, imap: IntervalMap, values, points):
    """Evaluate the node interpolant of `values` at physical `points`.

    Points outside [a, b] are still evaluated but raise ExtrapolationWarning.
    """
    values = np.asarray(values)
    if values.shape != (basis.n,):
        raise ValueError("values must match the node count")
    points = np.atleast_1d(np.asarray(points, dtype=np.float64))
    slack = 1e-12 * (imap.b - imap.a)
    if np.any(points < imap.a - slack) or np.any(points > imap.b + slack):
        warnings.warn("evaluation outside the interpolation interval",
                      ExtrapolationWarning, stacklevel=2)
    bw = barycentric_weights(basis.nodes)
    mat = _barycentric_matrix(basis.nodes, bw, np.asarray(imap.inverse(points)))
    return mat @ values


def legendre_coefficients(basis: QuadratureBasis, values, max_k: int | None = None,
                          tol: float = 1e-10):
    """Normalized-Legendre coefficient estimates from node data.

    Returns (coeffs, stop) where coeffs[k] = sum_l w_l f(x_l) phi_k(x_l) for
    k <= max_k (default n-1) and stop is the first k with |coeffs[k]| < tol,
    or None if the tail never drops below tol. Legendre bases only; the
    estimate is only trustworthy for k below the node count.
    """
    if basis.family.kind != "legendre":
        raise ValueError("coefficient estimation requires a legendre basis")
    if max_k is None:
        max_k = basis.n - 1
    if not 0 <= max_k <= basis.n - 1:
        raise ValueError("max_k must lie in [0, n-1]")
    values = np.asarray(values)
    table = orthonormal_table(basis.family, max_k, basis.nodes)
    coeffs = table @ (basis.gauss_weights * values)
    below = np.nonzero(np.abs(coeffs) < tol)[0]
    stop = int(below[0]) if below.size else None
    return coeffs, stop
