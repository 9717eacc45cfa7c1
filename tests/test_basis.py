import math
import warnings

import numpy as np
import pytest
from scipy.special import roots_jacobi

from intop.basis import (_BASIS_MEMO_BYTES, ExtrapolationWarning, IntervalMap,
                         WeightFamily, barycentric_weights, build_basis, interpolate,
                         lagrange_cardinal)
from intop.oracle import adaptive_integrate


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
    exact, _ = adaptive_integrate(
        lambda x: poly(x) * family.weight(x), -1.0, 1.0, tol=1e-13,
        left_exponent=family.beta if family.beta else None,
        right_exponent=family.alpha if family.alpha else None)
    assert rule == pytest.approx(exact, abs=5e-12)


def test_cardinal_functions_are_kronecker():
    bas = build_basis(WeightFamily.jacobi(0.3, -0.4), 5)
    for k in range(5):
        vals = lagrange_cardinal(bas, k, bas.nodes)
        expect = np.zeros(5)
        expect[k] = 1.0
        np.testing.assert_allclose(vals, expect, atol=1e-12)


@pytest.mark.parametrize("family", [WeightFamily.legendre(),
                                    WeightFamily.chebyshev_first(),
                                    WeightFamily.jacobi(0.3, -0.4)])
@pytest.mark.parametrize("n", [1, 2, 3, 20, 64, 199])
def test_barycentric_weights_match_the_node_loop(family, n):
    # the per-node loop the broadcast product replaced, bit for bit
    nodes = build_basis(family, n).nodes
    loop = np.ones(n)
    if n > 1:
        cap = 0.25 * (nodes[-1] - nodes[0])
        for j in range(n):
            diffs = (nodes[j] - nodes) / cap
            diffs[j] = 1.0
            loop[j] = 1.0 / np.prod(diffs)
    assert np.array_equal(barycentric_weights(nodes), loop)


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


@pytest.mark.parametrize("a, b", [(1e308, 1.7e308), (-1.7e308, -1e308)])
def test_interval_map_midpoint_does_not_overflow(a, b):
    # a + b overflows, b - a does not: the ends and midpoint stay finite
    imap = IntervalMap(a, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ends = imap.forward(np.array([-1.0, 0.0, 1.0]))
        back = imap.inverse(ends)
    np.testing.assert_allclose(ends, [a, 0.5 * a + 0.5 * b, b], rtol=1e-15)
    np.testing.assert_allclose(back, [-1.0, 0.0, 1.0], atol=1e-15)


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


def test_repeated_build_returns_the_memoized_read_only_rule():
    bas = build_basis(WeightFamily.legendre(), 7)
    assert build_basis(WeightFamily.legendre(), 7) is bas
    assert build_basis(WeightFamily.legendre(), n=7) is bas
    assert build_basis(WeightFamily.legendre(), 8) is not bas
    for arr in (bas.nodes, bas.gauss_weights, bas.table):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_basis_memo_holds_at_most_its_byte_budget():
    memo, budget = build_basis, _BASIS_MEMO_BYTES
    # a rule costs 8 n^2 + 16 n = 8 (n + 1)^2 - 8 bytes (table, nodes,
    # weights): n_fit is the largest that fits
    n_fit = math.isqrt((budget + 8) // 8) - 1
    rules = []
    for n in range(n_fit // 18, n_fit, n_fit // 18):  # about 5 budgets in all
        rules.append(memo(WeightFamily.legendre(), n))
        assert memo.held_size() <= budget
    assert memo.held_size() > budget // 2
    # the least recently used rule went first, the latest is still held
    assert memo(WeightFamily.legendre(), rules[-1].n) is rules[-1]
    assert memo(WeightFamily.legendre(), rules[0].n) is not rules[0]
    memo.cache_clear()
    assert memo.held_size() == 0
    # the largest rule that fits is held, one more is not
    fits = memo(WeightFamily.legendre(), n_fit)
    assert memo.held_size() == 8 * n_fit ** 2 + 16 * n_fit
    assert memo(WeightFamily.legendre(), n_fit) is fits
    big = memo(WeightFamily.legendre(), n_fit + 1)
    assert memo(WeightFamily.legendre(), n_fit + 1) is not big
    assert memo.held_size() <= budget
    # verify_suite's Legendre n = 1..40 scan, asked for on every call, is held
    memo.cache_clear()
    scan = [memo(WeightFamily.legendre(), n) for n in range(1, 41)]
    assert all(memo(WeightFamily.legendre(), bas.n) is bas for bas in scan)


def test_basis_memo_tells_signed_zero_exponents_apart():
    # equal as families, but their labels (and so error messages) differ
    plus_zero = build_basis(WeightFamily.jacobi(0.0, 0.0), 3)
    minus_zero = build_basis(WeightFamily.jacobi(-0.0, 0.0), 3)
    assert minus_zero is not plus_zero
    assert minus_zero.family.label == "jacobi:-0,0"
