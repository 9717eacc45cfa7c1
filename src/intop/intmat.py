"""Collocated one-sided integration matrices and matrix functions of them.

The plus matrix carries entries int_{-1}^{x_j} ell_k(x) w(x) dx (running
integral from the left endpoint), the minus matrix int_{x_j}^{1} (to the
right endpoint), both in closed form for every Jacobi weight through the
incomplete beta function (DLMF 8.17) and the Rodrigues-type derivative
identity (DLMF 18.9); build_integration_matrices states the accuracy
measured. Applied to node values they reproduce the one-sided indefinite
integrals of the interpolant, and rescaled to an interval (a, b) they act
as the discrete indefinite-integration operators there; analytic functions
of those operators are evaluated through the eigendecomposition, applied to
a vector by apply_real or assembled densely by matrix_function.

Two bounded memos serve repeated requests: the matrix pair of each basis,
and the spectral data (eigenvalues, eigenvectors, their condition number and
inverse) of each scaled matrix, keyed on the exact content of C. A matrix
whose eigenvector basis eigen_factorize refuses is held without an inverse.
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
from .memo import lru_memo, read_only

__all__ = [
    "IntegrationMatrices",
    "ScaledMatrix",
    "EigenFactorization",
    "ScalarSymbol",
    "build_integration_matrices",
    "scale",
    "eigen_factorize",
    "symbol_on_spectrum",
    "matrix_function",
    "apply_real",
]

_COND_LIMIT = 1e8
# (kind, side) -> (c, analyticity regions accepted); see symbol_on_spectrum.
_SPECTRUM_ARGS = {("fourier", "+"): (1j, ("upper", "entire")),
                  ("fourier", "-"): (-1j, ("lower", "entire")),
                  ("laplace", "+"): (1.0, ("right", "entire"))}
# Bytes of matrix pairs held for repeated requests. A pair costs 16 n^2 bytes
# (16 MB at n = 1000), so the bound is on bytes. Its basis's table is held
# and counted by the basis memo, not again here. The budget holds the pairs
# that measured traffic asks for again: verify_suite's Legendre n = 1..40
# scan, rebuilt on every call (354 KB), and the Legendre pipelines at
# n = 5..20 (45 KB). A pair past n = 181 is returned but not held.
_MATRIX_MEMO_BYTES = 512 * 1024
# Bytes of spectral data held for repeated requests: an n x n scaled matrix
# costs 32 n^2 + 16 n bytes (eigenvectors, inverse, eigenvalues). One deck of
# the Legendre pipelines at n = 5..20 on their default intervals asks for 75
# distinct matrices, 312 KB, and repeats every one of them in the next deck.
_EIGEN_MEMO_BYTES = 512 * 1024


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

    region is one of 'upper', 'lower', 'right', 'entire'; symbol_on_spectrum
    checks it before composing the rule with the eigenvalue argument.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    region: str

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


def _basis_content(basis: QuadratureBasis):
    """Exact key of a basis: equal content hits the memo, 1 ulp apart does not."""
    return (repr(basis.family), basis.n, basis.nodes.tobytes(),
            basis.gauss_weights.tobytes())


@lru_memo(key=_basis_content, budget=_MATRIX_MEMO_BYTES,
          size=lambda mats: mats.plus.nbytes + mats.minus.nbytes)
def build_integration_matrices(basis: QuadratureBasis) -> IntegrationMatrices:
    """Both one-sided matrices, in closed form for every Jacobi weight.

    With phi_m orthonormal for w, discrete orthogonality gives
    ell_k = sum_m w_k phi_m(x_k) phi_m, so A+ = Phi (phi_m(x_k) w_k) with
    Phi[j, m] = int_{-1}^{x_j} phi_m w. That is sqrt(mu0) I_{(1+x)/2}(b+1, a+1)
    for m = 0 (mu0 the total mass; a, b = alpha, beta) and, by the
    Rodrigues-type identity, -(1-x)^(a+1) (1+x)^(b+1) phi^(a+1,b+1)_{m-1}(x)
    / sqrt(m (m+a+b+1)) for m >= 1. A- = 1 w^T - A+ (complement identity).
    The values phi_m(x_k) are the basis's table.

    Measured for alpha, beta in [-0.999, 1.999] and n <= 60: row sums within
    3e-13 mu0 of mu0 I_{(1+x)/2}(beta+1, alpha+1), and A+ applied to t^k
    (k < n) within 7e-14 mu0 of 30-digit mpmath quadrature.

    Memoized on the basis content (the table is fixed by the family and the
    nodes): an equal basis returns the same pair, whose arrays (and those of
    its basis) are read-only; build_integration_matrices.cache_clear() drops
    the held pairs.
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
    plus = phi @ (basis.table * w[None, :])
    arrays = (x, w, basis.table)
    if any(arr.flags.writeable for arr in arrays):  # a basis built by hand
        basis = QuadratureBasis(fam, n, *(read_only(arr.copy()) for arr in arrays))
    return IntegrationMatrices(basis, read_only(plus), read_only(w[None, :] - plus))


def scale(mats: IntegrationMatrices, side: str, imap: IntervalMap) -> ScaledMatrix:
    """Rescale one side to (a, b): C = ((b-a)/2) A_side, nodes mapped along."""
    C = imap.half_length * mats.side(side)
    xi = np.asarray(imap.forward(mats.basis.nodes))
    return ScaledMatrix(mats, side, imap, C, xi)


@lru_memo(key=lambda C: (C.dtype.str, C.shape, C.tobytes()), budget=_EIGEN_MEMO_BYTES,
          size=lambda d: sum(a.nbytes for a in d if isinstance(a, np.ndarray)))
def _eigen_data(C: np.ndarray):
    """(values, vectors, cond, inverse) of C, normalized as eigen_factorize
    states; inverse is None when cond exceeds _COND_LIMIT, so a refusal is
    held too.

    Memoized on the exact content of C, arrays read-only;
    _eigen_data.cache_clear() drops the held entries."""
    lam, X = np.linalg.eig(C)
    order = np.lexsort((lam.imag, lam.real))
    lam = lam[order]
    X = X[:, order]
    X = X / np.linalg.norm(X, axis=0)[None, :]
    pivots = X[np.argmax(np.abs(X) > 1e-12, axis=0), np.arange(X.shape[1])]
    # numpy scalar division: the array form np.conj(c) / np.abs(c) rounds
    # differently in the last bit
    X = X * np.array([np.conj(c) / abs(c) for c in pivots])[None, :]
    cond = float(np.linalg.cond(X))
    # a refused basis may be singular, where inv would raise LinAlgError
    inverse = read_only(np.linalg.inv(X)) if cond <= _COND_LIMIT else None
    return read_only(lam), read_only(X), cond, inverse


def eigen_factorize(scaled: ScaledMatrix) -> EigenFactorization:
    """Eigendecomposition with a deterministic ordering and phase convention.

    Eigenvalues sort by (real, imag); eigenvector columns get unit 2-norm and
    a phase making their first significant component real non-negative.
    Raises IllConditionedError when cond(V) exceeds _COND_LIMIT. Equal
    matrices share their (read-only) spectral arrays.
    """
    values, vectors, cond, inverse = _eigen_data(scaled.C)
    if inverse is None:
        raise IllConditionedError(
            f"eigenvector condition {cond:.3e} exceeds {_COND_LIMIT:.1e} "
            f"(n={scaled.basis.n}, family {scaled.basis.family.label})")
    return EigenFactorization(scaled, values, vectors, inverse, cond)


def symbol_on_spectrum(eig: EigenFactorization, symbol: ScalarSymbol, kind: str):
    """lam -> symbol(c / lam), the transform evaluated at c C^{-1}: fourier
    takes c = i on side '+' (symbol analytic on upper or entire) and c = -i on
    side '-' (lower or entire), laplace c = 1 on side '+' only (right or
    entire). Any other kind, side or region raises ValueError."""
    side = eig.scaled.side
    if (kind, side) not in _SPECTRUM_ARGS:
        raise ValueError(f"{kind} transforms do not apply on side {side!r}")
    c, regions = _SPECTRUM_ARGS[kind, side]
    if symbol.region not in regions:
        raise ValueError(
            f"{kind} on side {side!r} needs a symbol analytic on "
            f"{' or '.join(regions)}, got {symbol.region!r}")
    return lambda lam: symbol(c / lam)


def _spectral_values(eig: EigenFactorization, phi) -> np.ndarray:
    """phi at the eigenvalues; PoleEvaluationError names one that is a pole."""
    with np.errstate(all="ignore"):  # poles surface as PoleEvaluationError
        vals = np.asarray(phi(eig.values), dtype=np.complex128)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        raise PoleEvaluationError(
            f"symbol is singular at eigenvalue {eig.values[bad][0]}")
    return vals


def matrix_function(eig: EigenFactorization, phi) -> np.ndarray:
    """Assemble phi(C) as a dense (complex) matrix; same pole policy as
    apply_real."""
    return eig.vectors @ (_spectral_values(eig, phi)[:, None] * eig.inverse)


def apply_real(eig: EigenFactorization, phi, v: np.ndarray):
    """phi(C) v for real data: returns (real part, relative imaginary residue).

    Callers pre-compose any argument transform into phi (see
    symbol_on_spectrum); non-finite phi(lambda) raises PoleEvaluationError
    naming the eigenvalue. With a real input and a conjugate-symmetric symbol
    the residue sits at roundoff level; it is reported, not hidden, so
    pipelines can record it.
    """
    vals = _spectral_values(eig, phi)
    out = eig.vectors @ (vals * (eig.inverse @ np.asarray(v, dtype=np.complex128)))
    return out.real.copy(), _imag_residue(out)


def _imag_residue(out: np.ndarray) -> float:
    """||Im out|| / ||out|| of a contiguous complex vector, 0 for out = 0.

    Both parts are first scaled by the power of two that brings the largest
    below 1: the scaling is exact, so the ratio keeps its bits, and the sums
    of squares cannot overflow.
    """
    parts = out.view(np.float64)
    out = np.ldexp(parts, -math.frexp(np.abs(parts).max())[1]).view(np.complex128)
    scale_ = float(np.linalg.norm(out))
    return float(np.linalg.norm(out.imag) / scale_) if scale_ > 0.0 else 0.0
