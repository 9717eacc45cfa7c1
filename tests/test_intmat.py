import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy.special import betainc

from intop.basis import (IntervalMap, WeightFamily, build_basis,
                         lagrange_cardinal, recurrence_coefficients)
from intop.errors import IllConditionedError, PoleEvaluationError
from intop.intmat import (ScalarSymbol, ScaledMatrix, _incomplete_beta,
                          apply_real, build_integration_matrices,
                          eigen_factorize, matrix_apply, matrix_function, scale)
from intop.oracle import QuadratureRequest, adaptive_integrate


FAMILIES = [
    WeightFamily.legendre(),
    WeightFamily.chebyshev_first(),
    WeightFamily.gegenbauer(0.8),
    WeightFamily.jacobi(0.3, -0.4),
]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_complement_identity(family, n):
    bas = build_basis(family, n)
    mats = build_integration_matrices(bas)
    total = np.outer(np.ones(n), bas.gauss_weights)
    np.testing.assert_allclose(mats.plus + mats.minus, total, atol=1e-13)


@pytest.mark.parametrize("family", FAMILIES)
def test_flip_symmetry(family):
    # For even weights, integrating up to x_j from the left mirrors
    # integrating down to x_{n-1-j} from the right.
    if not family.symmetric:
        pytest.skip("only meaningful for even weights")
    bas = build_basis(family, 6)
    mats = build_integration_matrices(bas)
    np.testing.assert_allclose(mats.plus, mats.minus[::-1, ::-1], atol=1e-13)


def test_legendre_row_sums():
    bas = build_basis(WeightFamily.legendre(), 9)
    mats = build_integration_matrices(bas)
    np.testing.assert_allclose(mats.plus @ np.ones(9), bas.nodes + 1.0,
                               atol=1e-13)
    np.testing.assert_allclose(mats.minus @ np.ones(9), 1.0 - bas.nodes,
                               atol=1e-13)


def test_legendre_n2_closed_form():
    bas = build_basis(WeightFamily.legendre(), 2)
    mats = build_integration_matrices(bas)
    r = 1.0 / math.sqrt(3.0)
    expect = np.array([[0.5, 0.5 - r], [0.5 + r, 0.5]])
    np.testing.assert_allclose(mats.plus, expect, atol=1e-15)


def test_single_node_entries():
    leg = build_integration_matrices(build_basis(WeightFamily.legendre(), 1))
    np.testing.assert_allclose(leg.plus, [[1.0]], atol=1e-15)
    cheb = build_integration_matrices(
        build_basis(WeightFamily.chebyshev_first(), 1))
    np.testing.assert_allclose(cheb.plus, [[math.pi / 2.0]], atol=1e-14)


def test_entries_match_quadrature_oracle():
    family = WeightFamily.jacobi(0.3, -0.4)
    bas = build_basis(family, 4)
    mats = build_integration_matrices(bas)
    for j in range(4):
        for k in range(4):
            val, _ = adaptive_integrate(QuadratureRequest(
                lambda x: lagrange_cardinal(bas, k, x) * family.weight(x),
                -1.0, float(bas.nodes[j]), tol=1e-10,
                left_exponent=family.beta))
            # endpoint singularity at -1 limits the oracle itself to ~1e-9
            assert mats.plus[j, k] == pytest.approx(val, abs=5e-9), (j, k)


# Jacobi exponents in (-1, 2). Within 1e-3 of -1 the outer Gauss nodes sit
# within rounding of +-1, where a float reference point u = (1 + x)/2 has
# itself lost the digits being checked, so the strategies stop there.
EXPONENTS = st.floats(-0.999, 1.999)
ORDERS = st.integers(1, 60)


def _jacobi_plus(alpha, beta, n):
    family = WeightFamily.jacobi(alpha, beta)
    bas = build_basis(family, n)
    _, _, mu0 = recurrence_coefficients(family, 1)
    return bas, build_integration_matrices(bas).plus, mu0


@given(EXPONENTS, EXPONENTS, ORDERS)
def test_row_sums_are_the_running_mass(alpha, beta, n):
    # A+ 1 = int_{-1}^{x_j} w = mu0 I_{(1+x_j)/2}(beta+1, alpha+1)
    bas, plus, mu0 = _jacobi_plus(alpha, beta, n)
    running = mu0 * betainc(beta + 1.0, alpha + 1.0, 0.5 * (1.0 + bas.nodes))
    np.testing.assert_allclose(plus.sum(axis=1), running, rtol=0.0,
                               atol=1e-12 * mu0)


@settings(max_examples=60)
@given(EXPONENTS, EXPONENTS, ORDERS, st.data())
def test_plus_is_exact_on_monomials(alpha, beta, n, data):
    k = data.draw(st.integers(0, n - 1), label="k")
    j = data.draw(st.integers(0, n - 1), label="j")
    bas, plus, mu0 = _jacobi_plus(alpha, beta, n)
    # int_{-1}^{x_j} t^k w(t) dt in r = (1 + t)^(beta + 1), which removes the
    # endpoint singularity before mpmath's tanh-sinh rule sees it
    with mpmath.workdps(30):
        e = 1 / mpmath.mpf(beta + 1.0)
        top = (1 + mpmath.mpf(bas.nodes[j])) ** (beta + 1.0)
        ref = float(e * mpmath.quad(lambda r: (r ** e - 1) ** k * (2 - r ** e) ** alpha,
                                    [0, top]))
    assert abs(plus[j] @ bas.nodes ** k - ref) <= 1e-12 * mu0


@given(st.floats(0.001, 2.999), st.floats(0.001, 2.999),
       st.one_of(st.floats(0.0, 1e-3), st.floats(0.499, 0.501),
                 st.floats(0.999, 1.0)))
def test_incomplete_beta_matches_scipy(p, q, u):
    got = float(_incomplete_beta(p, q, u, 1.0 - u))
    assert got == pytest.approx(betainc(p, q, u), rel=0.0, abs=1e-14)


def test_side_accessor_and_validation():
    bas = build_basis(WeightFamily.legendre(), 3)
    mats = build_integration_matrices(bas)
    assert mats.side("+") is mats.plus
    assert mats.side("-") is mats.minus
    with pytest.raises(ValueError):
        mats.side("up")


def test_scale_matches_shifted_integral():
    # On (0, 2): C f(xi_j) should equal int_0^{xi_j} f for smooth f
    bas = build_basis(WeightFamily.legendre(), 12)
    mats = build_integration_matrices(bas)
    imap = IntervalMap(0.0, 2.0)
    scaled = scale(mats, "+", imap)
    np.testing.assert_allclose(scaled.xi, imap.forward(bas.nodes), atol=1e-14)
    f = lambda t: np.cos(t)
    np.testing.assert_allclose(scaled.C @ f(scaled.xi), np.sin(scaled.xi),
                               atol=1e-13)
    with pytest.raises(ValueError):
        scale(mats, "plus", imap)


def test_eigen_factorize_reconstructs():
    bas = build_basis(WeightFamily.legendre(), 8)
    scaled = scale(build_integration_matrices(bas), "+", IntervalMap(0.0, 1.0))
    eig = eigen_factorize(scaled)
    rebuilt = eig.vectors @ np.diag(eig.values) @ eig.inverse
    np.testing.assert_allclose(rebuilt.real, scaled.C, atol=1e-12)
    assert np.max(np.abs(rebuilt.imag)) < 1e-12
    assert eig.cond < 1e4


def test_eigen_order_is_deterministic():
    bas = build_basis(WeightFamily.legendre(), 7)
    scaled = scale(build_integration_matrices(bas), "+", IntervalMap(0.0, 1.0))
    a = eigen_factorize(scaled)
    b = eigen_factorize(scaled)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.vectors, b.vectors)
    order = np.lexsort((a.values.imag, a.values.real))
    np.testing.assert_array_equal(order, np.arange(7))


def test_ill_conditioned_eigenvectors_raise():
    bas = build_basis(WeightFamily.legendre(), 2)
    mats = build_integration_matrices(bas)
    imap = IntervalMap(0.0, 1.0)
    defective = ScaledMatrix(mats, "+", imap,
                             np.array([[1.0, 1.0], [0.0, 1.0 + 1e-13]]),
                             imap.forward(bas.nodes))
    with pytest.raises(IllConditionedError):
        eigen_factorize(defective)


def test_matrix_function_exponential():
    bas = build_basis(WeightFamily.legendre(), 6)
    scaled = scale(build_integration_matrices(bas), "+", IntervalMap(0.0, 1.0))
    eig = eigen_factorize(scaled)
    ours = matrix_function(eig, np.exp)
    ref = scipy.linalg.expm(scaled.C)
    np.testing.assert_allclose(ours.real, ref, atol=1e-11)


def test_matrix_apply_resolvent():
    bas = build_basis(WeightFamily.legendre(), 6)
    scaled = scale(build_integration_matrices(bas), "+", IntervalMap(0.0, 1.0))
    eig = eigen_factorize(scaled)
    v = np.sin(scaled.xi)
    ours = matrix_apply(eig, lambda lam: 1.0 / (1.0 + lam), v)
    ref = np.linalg.solve(np.eye(6) + scaled.C, v)
    np.testing.assert_allclose(ours.real, ref, atol=1e-11)
    assert np.max(np.abs(ours.imag)) < 1e-11


def test_pole_on_spectrum_raises():
    bas = build_basis(WeightFamily.legendre(), 4)
    scaled = scale(build_integration_matrices(bas), "+", IntervalMap(0.0, 1.0))
    eig = eigen_factorize(scaled)
    lam0 = eig.values[0]
    with pytest.raises(PoleEvaluationError):
        matrix_apply(eig, lambda lam: 1.0 / (lam - lam0), np.ones(4))


def test_apply_real_reports_residue():
    bas = build_basis(WeightFamily.legendre(), 5)
    scaled = scale(build_integration_matrices(bas), "+", IntervalMap(0.0, 1.0))
    eig = eigen_factorize(scaled)
    vec, residue = apply_real(eig, lambda lam: lam * lam, np.ones(5))
    assert vec.dtype == np.float64
    np.testing.assert_allclose(vec, scaled.C @ (scaled.C @ np.ones(5)),
                               atol=1e-12)
    assert residue < 1e-12


def test_scalar_symbol_is_callable_and_validated():
    sym = ScalarSymbol(lambda y: 1.0 / (1.0 - 1j * np.asarray(y)), "upper",
                       "decay kernel")
    assert sym(0.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ScalarSymbol(lambda y: y, "north")
