import math
import warnings

import numpy as np
import pytest
from scipy.special import roots_jacobi

from intop.basis import (ExtrapolationWarning, IntervalMap, WeightFamily,
                         build_basis, interpolate, lagrange_cardinal,
                         legendre_coefficients)
from intop.oracle import QuadratureRequest, adaptive_integrate


def test_legendre_nodes_match_numpy():
    bas = build_basis(WeightFamily.legendre(), 8)
    ref_x, ref_w = np.polynomial.legendre.leggauss(8)
    np.testing.assert_allclose(bas.nodes, ref_x, atol=1e-14)
    np.testing.assert_allclose(bas.gauss_weights, ref_w, atol=1e-14)


def test_chebyshev_first_closed_form():
    n = 7
    bas = build_basis(WeightFamily.chebyshev_first(), n)
    expect = np.cos((2.0 * np.arange(1, n + 1) - 1.0) * math.pi / (2.0 * n))
    np.testing.assert_allclose(bas.nodes, np.sort(expect), atol=1e-13)
    np.testing.assert_allclose(bas.gauss_weights, math.pi / n, atol=1e-13)


def test_nodes_match_scipy_at_two_thousand():
    # the monic Newton polish overflowed here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bas = build_basis(WeightFamily.chebyshev_first(), 2000)
    ref_x, _ = roots_jacobi(2000, -0.5, -0.5)
    np.testing.assert_allclose(bas.nodes, ref_x, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("family", [
    WeightFamily.legendre(),
    WeightFamily.chebyshev_first(),
    WeightFamily.gegenbauer(0.8),
    WeightFamily.jacobi(0.3, -0.4),
])
def test_quadrature_exactness(family):
    # Gauss rule with n nodes is exact through degree 2n-1
    n = 6
    bas = build_basis(family, n)
    coeffs = np.linspace(0.5, -0.3, 2 * n)  # degree 2n-1
    poly = np.polynomial.polynomial.Polynomial(coeffs)
    rule = float(bas.gauss_weights @ poly(bas.nodes))
    exact, _ = adaptive_integrate(QuadratureRequest(
        lambda x: poly(x) * family.weight(x), -1.0, 1.0, tol=1e-13,
        left_exponent=family.beta if family.beta else None,
        right_exponent=family.alpha if family.alpha else None))
    assert rule == pytest.approx(exact, abs=5e-12)


def test_cardinal_functions_are_kronecker():
    bas = build_basis(WeightFamily.jacobi(0.3, -0.4), 5)
    for k in range(5):
        vals = lagrange_cardinal(bas, k, bas.nodes)
        expect = np.zeros(5)
        expect[k] = 1.0
        np.testing.assert_allclose(vals, expect, atol=1e-12)


def test_interpolation_reproduces_polynomials():
    bas = build_basis(WeightFamily.legendre(), 6)
    imap = IntervalMap(0.0, 2.0)
    f = lambda t: t ** 4 - 2.0 * t + 1.0
    vals = f(imap.forward(bas.nodes))
    t = np.linspace(0.0, 2.0, 17)
    np.testing.assert_allclose(interpolate(bas, imap, vals, t), f(t),
                               atol=1e-12)


def test_interpolation_at_node_is_exact():
    bas = build_basis(WeightFamily.legendre(), 4)
    imap = IntervalMap(-1.0, 1.0)
    vals = np.sin(bas.nodes)
    out = interpolate(bas, imap, vals, bas.nodes[2])
    assert out == pytest.approx(vals[2], abs=0)


def test_extrapolation_warns():
    bas = build_basis(WeightFamily.legendre(), 4)
    imap = IntervalMap(0.0, 1.0)
    vals = np.ones(4)
    with pytest.warns(ExtrapolationWarning):
        interpolate(bas, imap, vals, 1.5)


def test_interval_map_roundtrip():
    imap = IntervalMap(-2.0, 5.0)
    assert imap.half_length == pytest.approx(3.5)
    x = np.linspace(-1.0, 1.0, 9)
    np.testing.assert_allclose(imap.inverse(imap.forward(x)), x, atol=1e-14)
    with pytest.raises(ValueError):
        IntervalMap(1.0, 1.0)


def test_family_parse_and_labels():
    assert WeightFamily.parse("legendre").label == "legendre"
    assert WeightFamily.parse("chebyshev1").label == "chebyshev1"
    g = WeightFamily.parse("gegenbauer:0.8")
    assert g.alpha == pytest.approx(0.3) and g.symmetric
    j = WeightFamily.parse("jacobi:0.3,-0.4")
    assert (j.alpha, j.beta) == (0.3, -0.4) and not j.symmetric
    with pytest.raises(ValueError):
        WeightFamily.parse("hermite")
    with pytest.raises(ValueError):
        WeightFamily.jacobi(-1.0, 0.0)


def test_legendre_coefficient_recovery():
    bas = build_basis(WeightFamily.legendre(), 8)
    # f = P_0 + 0.25 P_3 on the nodes; coefficients come back in the
    # orthonormalized convention c_k = a_k * sqrt(2/(2k+1))
    from numpy.polynomial import legendre as L
    vals = L.legval(bas.nodes, [1.0, 0.0, 0.0, 0.25])
    coeffs, stop = legendre_coefficients(bas, vals)
    expect = [math.sqrt(2.0), 0.0, 0.0, 0.25 * math.sqrt(2.0 / 7.0)]
    np.testing.assert_allclose(coeffs[:4], expect, atol=1e-12)
    assert np.all(np.abs(coeffs[4:]) < 1e-10)
    assert stop == 1
    with pytest.raises(ValueError):
        legendre_coefficients(build_basis(WeightFamily.chebyshev_first(), 4),
                              np.ones(4))
