"""Collocated one-sided integration matrices and matrix functions of them.

The plus matrix carries entries int_{-1}^{x_j} ell_k(x) w(x) dx (running
integral from the left endpoint), the minus matrix int_{x_j}^{1} (to the
right endpoint), both in closed form for every Jacobi weight through the
incomplete beta function (DLMF 8.17) and the Rodrigues-type derivative
identity (DLMF 18.9); build_integration_matrices states the accuracy
measured. Applied to node values they reproduce the one-sided indefinite
integrals of the interpolant, and rescaled to an interval (a, b) they act
as the discrete indefinite-integration operators there; analytic functions
of those operators are evaluated through the eigendecomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import (IntervalMap, QuadratureBasis, WeightFamily, orthonormal_table,
                    recurrence_coefficients)
# Unused here, but perfbench/spans.py wraps intop.intmat.build_basis to count
# the Gauss rules a matrix build asks for.
from .basis import build_basis  # noqa: F401
from .errors import IllConditionedError, PoleEvaluationError

__all__ = [
    "IntegrationMatrices",
    "ScaledMatrix",
    "EigenFactorization",
    "ScalarSymbol",
    "build_integration_matrices",
    "scale",
    "eigen_factorize",
    "matrix_apply",
    "matrix_function",
    "apply_real",
]

_COND_LIMIT = 1e8


@dataclass(frozen=True)
class IntegrationMatrices:
    """The pair of one-sided matrices on (-1, 1) for one basis."""

    basis: QuadratureBasis
    plus: np.ndarray
    minus: np.ndarray

    def side(self, s: str) -> np.ndarray:
        if s == "+":
            return self.plus
        if s == "-":
            return self.minus
        raise ValueError("side must be '+' or '-'")


@dataclass(frozen=True)
class ScaledMatrix:
    """One side rescaled to a physical interval: C = half_length * A_side.

    xi holds the mapped collocation points; source keeps the reference pair
    so derived solvers (segment restarts) can rescale again.
    """

    source: IntegrationMatrices
    side: str
    imap: IntervalMap
    C: np.ndarray
    xi: np.ndarray

    @property
    def basis(self) -> QuadratureBasis:
        return self.source.basis


@dataclass(frozen=True)
class EigenFactorization:
    """Spectral data of a scaled matrix, deterministically normalized."""

    scaled: ScaledMatrix
    values: np.ndarray
    vectors: np.ndarray
    inverse: np.ndarray
    cond: float


@dataclass(frozen=True)
class ScalarSymbol:
    """A scalar evaluation rule plus the half/whole plane it is analytic on.

    region is one of 'upper', 'lower', 'right', 'entire'; convolution sides
    check it before composing the rule with their eigenvalue transform.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    region: str
    name: str = ""

    def __post_init__(self):
        if self.region not in ("upper", "lower", "right", "entire"):
            raise ValueError(f"unknown analyticity region {self.region!r}")

    def __call__(self, z):
        return self.fn(z)


def _incomplete_beta(p: float, q: float, u, v):
    """Regularized incomplete beta I_u(p, q) for p, q > 0, with v = 1 - u
    passed separately so neither endpoint loses digits.

    Hypergeometric series (DLMF 8.17), all of whose terms are positive;
    points with u > 1/2 go through I_u(p, q) = 1 - I_v(q, p), so the series
    ratio tends to at most 1/2 and one pass of 64 terms usually reaches
    double precision.
    """
    u, v = np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)
    flip = u > 0.5
    a, b = np.where(flip, q, p), np.where(flip, p, q)
    z, y = np.where(flip, v, u), np.where(flip, u, v)
    term, total, k = np.ones_like(z), np.ones_like(z), np.arange(64.0)
    while np.any(term > 1e-17 * total):
        ratios = z[..., None] * ((a + b)[..., None] + k) / ((a + 1.0)[..., None] + k)
        terms = term[..., None] * np.cumprod(ratios, axis=-1)
        term, total, k = terms[..., -1], total + terms.sum(axis=-1), k + 64.0
    lbeta = math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    with np.errstate(divide="ignore"):  # log 0 = -inf at u = 0 or u = 1
        part = np.exp(a * np.log(z) + b * np.log(y) - lbeta) / a * total
    return np.where(flip, 1.0 - part, part)


def build_integration_matrices(basis: QuadratureBasis) -> IntegrationMatrices:
    """Both one-sided matrices, in closed form for every Jacobi weight.

    With phi_m orthonormal for w, discrete orthogonality gives
    ell_k = sum_m w_k phi_m(x_k) phi_m, so A+ = Phi (phi_m(x_k) w_k) with
    Phi[j, m] = int_{-1}^{x_j} phi_m w. That is sqrt(mu0) I_{(1+x)/2}(b+1, a+1)
    for m = 0 (mu0 the total mass; a, b = alpha, beta) and, by the
    Rodrigues-type identity, -(1-x)^(a+1) (1+x)^(b+1) phi^(a+1,b+1)_{m-1}(x)
    / sqrt(m (m+a+b+1)) for m >= 1. A- = 1 w^T - A+ (complement identity).

    Measured for alpha, beta in [-0.999, 1.999] and n <= 60: row sums within
    3e-13 mu0 of mu0 I_{(1+x)/2}(beta+1, alpha+1), and A+ applied to t^k
    (k < n) within 7e-14 mu0 of 30-digit mpmath quadrature.
    """
    fam, n, x, w = basis.family, basis.n, basis.nodes, basis.gauss_weights
    al, be = fam.alpha, fam.beta
    _, _, mu0 = recurrence_coefficients(fam, 1)
    phi = np.empty((n, n))
    phi[:, 0] = math.sqrt(mu0) * _incomplete_beta(be + 1.0, al + 1.0,
                                                  0.5 * (1.0 + x), 0.5 * (1.0 - x))
    if n > 1:
        m = np.arange(1, n)
        shifted = orthonormal_table(WeightFamily.jacobi(al + 1.0, be + 1.0), n - 2, x)
        phi[:, 1:] = (-((1.0 - x) ** (al + 1.0) * (1.0 + x) ** (be + 1.0))[:, None]
                      * shifted.T / np.sqrt(m * (m + al + be + 1.0)))
    plus = phi @ (orthonormal_table(fam, n - 1, x) * w[None, :])
    return IntegrationMatrices(basis, plus, w[None, :] - plus)


def scale(mats: IntegrationMatrices, side: str, imap: IntervalMap) -> ScaledMatrix:
    """Rescale one side to (a, b): C = ((b-a)/2) A_side, nodes mapped along."""
    C = imap.half_length * mats.side(side)
    xi = np.asarray(imap.forward(mats.basis.nodes))
    return ScaledMatrix(mats, side, imap, C, xi)


def eigen_factorize(scaled: ScaledMatrix, cond_limit: float = _COND_LIMIT) -> EigenFactorization:
    """Eigendecomposition with a deterministic ordering and phase convention.

    Eigenvalues sort by (real, imag); eigenvector columns get unit 2-norm and
    a phase making their first significant component real non-negative.
    Raises IllConditionedError when the eigenvector basis is unusable.
    """
    lam, X = np.linalg.eig(scaled.C)
    order = np.lexsort((lam.imag, lam.real))
    lam = lam[order]
    X = X[:, order]
    X = X / np.linalg.norm(X, axis=0)[None, :]
    for j in range(X.shape[1]):
        col = X[:, j]
        i = int(np.argmax(np.abs(col) > 1e-12))
        c = col[i]
        X[:, j] = col * (np.conj(c) / abs(c))
    cond = float(np.linalg.cond(X))
    if cond > cond_limit:
        raise IllConditionedError(
            f"eigenvector condition {cond:.3e} exceeds {cond_limit:.1e} "
            f"(n={scaled.basis.n}, family {scaled.basis.family.label})")
    return EigenFactorization(scaled, lam, X, np.linalg.inv(X), cond)


def matrix_apply(eig: EigenFactorization, phi, v: np.ndarray) -> np.ndarray:
    """Evaluate phi(C) v through the factorization; callers pre-compose any
    argument transform into phi. Non-finite phi(lambda) raises
    PoleEvaluationError naming the eigenvalue."""
    with np.errstate(all="ignore"):  # poles surface as PoleEvaluationError
        vals = np.asarray(phi(eig.values), dtype=np.complex128)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        where = eig.values[bad][0]
        raise PoleEvaluationError(f"symbol is singular at eigenvalue {where}")
    return eig.vectors @ (vals * (eig.inverse @ np.asarray(v, dtype=np.complex128)))


def matrix_function(eig: EigenFactorization, phi) -> np.ndarray:
    """Assemble phi(C) as a dense (complex) matrix; same pole policy as
    matrix_apply."""
    with np.errstate(all="ignore"):
        vals = np.asarray(phi(eig.values), dtype=np.complex128)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        raise PoleEvaluationError(
            f"symbol is singular at eigenvalue {eig.values[bad][0]}")
    return eig.vectors @ (vals[:, None] * eig.inverse)


def apply_real(eig: EigenFactorization, phi, v: np.ndarray):
    """matrix_apply for real data: returns (real part, relative imaginary residue).

    With a real input and a conjugate-symmetric symbol the residue sits at
    roundoff level; it is reported, not hidden, so pipelines can record it.
    """
    out = matrix_apply(eig, phi, v)
    scale_ = float(np.linalg.norm(out))
    residue = float(np.linalg.norm(out.imag) / scale_) if scale_ > 0.0 else 0.0
    return out.real.copy(), residue
