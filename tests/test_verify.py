import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as P

from intop.basis import IntervalMap, WeightFamily, build_basis
from intop.errors import NumericalError
from intop.intmat import ScaledMatrix, build_integration_matrices, eigen_factorize, scale
from intop.verify import (DEFAULT_SEED, check_derivative_range,
                          check_half_line_pairing, check_integral_chain,
                          check_norm_bound, check_positivity_identity,
                          conjecture_scan, numerical_range_sample, verify_suite)


def test_positivity_identity_complex_sample():
    rep = check_positivity_identity(
        lambda x: np.exp(1j * x) * (1.0 + x), (0.0, 1.5))
    assert rep.passed, (rep.lhs, rep.rhs)
    assert rep.lhs >= -1e-9


def test_positivity_identity_zero_mean_sample():
    # total integral 0 makes the right side exactly 0; the pairing's real
    # part must vanish too
    rep = check_positivity_identity(lambda x: np.cos(math.pi * x), (0.0, 2.0))
    assert rep.rhs < 1e-15
    assert abs(rep.lhs) < 1e-9


def test_norm_bound_on_random_polynomials():
    rep = check_norm_bound(12, (0.0, 1.0), seed=5)
    assert rep.max_ratio <= rep.bound + 1e-10
    assert len(rep.ratios) == 12 and rep.skipped == 0


def test_norm_bound_near_saturation():
    # cos(pi x/2) is the extremal input on (0, 1) with ratio 2/pi; a
    # polynomial stand-in must come close but stay under the bound
    xs = np.linspace(0.0, 1.0, 40)
    coeffs = np.polynomial.polynomial.polyfit(xs, np.cos(0.5 * math.pi * xs),
                                              9)
    rep = check_norm_bound(1, (0.0, 1.0), include=(coeffs,))
    assert rep.ratios[0] == pytest.approx(2.0 / math.pi, abs=1e-4)
    assert rep.ratios[0] <= rep.bound + 1e-10


def test_norm_bound_skips_zero_polynomial():
    rep = check_norm_bound(1, (0.0, 1.0), include=(np.zeros(3),))
    assert rep.skipped == 1
    with pytest.raises(ValueError):
        check_norm_bound(0, (0.0, 1.0))


def test_derivative_range_identity():
    f = lambda x: np.sin(x) * np.exp(1j * x)
    fp = lambda x: np.cos(x) * np.exp(1j * x) + 1j * f(x)
    rep = check_derivative_range(f, fp, (0.0, 1.2))
    assert rep.passed
    with pytest.raises(ValueError):
        check_derivative_range(lambda x: np.cos(x), lambda x: -np.sin(x),
                               (0.0, 1.0))


def test_half_line_pairing_exponential():
    rep = check_half_line_pairing(lambda y: np.exp(-y))
    assert rep.converged
    assert rep.re_target == pytest.approx(-math.pi / 4.0, abs=1e-12)
    assert rep.im_target == pytest.approx(0.5, abs=1e-12)
    re_errs = [r.re_err for r in rep.rows]
    im_errs = [r.im_err for r in rep.rows]
    assert re_errs == sorted(re_errs, reverse=True)
    assert im_errs == sorted(im_errs, reverse=True)
    # truncation error decays like 1/T, so T = 16 sits near 1e-4 / 1e-3
    assert re_errs[-1] < 1e-3 and im_errs[-1] < 1e-2


def test_half_line_pairing_linear_weighted():
    rep = check_half_line_pairing(lambda y: y * np.exp(-y))
    assert rep.converged
    assert rep.re_target == pytest.approx(-3.0 * math.pi / 8.0, abs=1e-12)
    assert rep.im_target == pytest.approx(0.5, abs=1e-12)


def test_integral_chain_flat_example():
    rep = check_integral_chain(lambda x: np.ones_like(np.asarray(x)),
                               None, (0.0, 2.0))
    assert rep.passed
    assert rep.lhs == pytest.approx(2.0, abs=1e-8)
    assert rep.mid == pytest.approx(4.0, abs=1e-8)
    assert rep.rhs == pytest.approx(8.0, abs=1e-8)


def test_integral_chain_with_weight_object():
    rep = check_integral_chain(lambda x: np.cos(x),
                               WeightFamily.chebyshev_first(), (0.0, 1.0))
    assert rep.passed
    assert rep.lhs <= rep.mid <= rep.rhs


def test_integral_chain_on_a_sign_changing_suite_draw():
    # The third chain draw of verify_suite(samples=6): 6 identity draws of 9
    # coefficients and 6 derivative draws of 7 come first. |f| has a kink
    # inside (-1, 1), so the exact values are piecewise-polynomial integrals.
    rng = np.random.default_rng(DEFAULT_SEED)
    for size in [9] * 6 + [7] * 6 + [4] * 3:
        coeffs = rng.standard_normal(size)
    roots = [r.real for r in P.polyroots(coeffs)
             if abs(r.imag) < 1e-12 and -1.0 < r.real < 1.0]
    assert roots
    anti = P.polyint(coeffs)
    edges = np.array([-1.0] + sorted(roots) + [1.0])
    total = float(np.sum(np.abs(np.diff(P.polyval(edges, anti)))))
    signed = P.polyval(1.0, anti) - P.polyval(-1.0, anti)
    rep = check_integral_chain(lambda x: P.polyval(x, coeffs), None, (0.0, 2.0))
    assert rep.passed
    # on (0, 2) the mapped function has the same integral; half_sq = 2
    assert rep.lhs == pytest.approx(0.5 * signed ** 2, abs=1e-9)
    assert rep.mid == pytest.approx(total ** 2, abs=1e-9)
    assert rep.rhs == pytest.approx(2.0 * total ** 2, abs=1e-9)


def test_conjecture_scan_legendre():
    rep = conjecture_scan(WeightFamily.legendre(), 12)
    assert rep.min_re_overall > 0.0
    assert not rep.violations and not rep.inconclusive
    assert len(rep.per_n) == 12
    payload = rep.to_payload()
    assert payload["family"] == "legendre"
    assert payload["per_n"][0]["n"] == 1
    # n = 1: single eigenvalue is the lone quadrature entry A+ = [1]
    assert payload["per_n"][0]["eigs"][0][0] == pytest.approx(1.0, abs=1e-14)


def test_conjecture_scan_other_families_record_only():
    for fam in (WeightFamily.chebyshev_first(), WeightFamily.jacobi(0.3, -0.4)):
        rep = conjecture_scan(fam, 8)
        assert rep.min_re_overall > 0.0
        assert not rep.violations


def test_numerical_range_contains_spectrum():
    bas = build_basis(WeightFamily.legendre(), 6)
    scaled = scale(build_integration_matrices(bas), "+", IntervalMap(0.0, 1.0))
    sample = numerical_range_sample(scaled)
    assert sample.contained
    assert sample.points.shape == (256,)
    again = numerical_range_sample(scaled)
    np.testing.assert_array_equal(sample.points, again.points)


def test_numerical_range_single_node():
    # n = 1 on (0, 1): the matrix is the scalar (1/2) * 1, so W is one point
    bas = build_basis(WeightFamily.legendre(), 1)
    scaled = scale(build_integration_matrices(bas), "+", IntervalMap(0.0, 1.0))
    sample = numerical_range_sample(scaled)
    assert sample.contained
    assert sample.min_re == pytest.approx(0.5, abs=1e-12)
    np.testing.assert_allclose(sample.points, 0.5, atol=1e-12)


def _scaled_as(C):
    """A Legendre scaled matrix on (0, 1) with C put in place of its own."""
    bas = build_basis(WeightFamily.legendre(), C.shape[0])
    imap = IntervalMap(0.0, 1.0)
    return ScaledMatrix(build_integration_matrices(bas), "+", imap, C,
                        imap.forward(bas.nodes))


def test_numerical_range_of_a_real_diagonal_matrix_is_collinear():
    # u* C u is real for a real diagonal C, so W is the segment of the real
    # axis between its smallest and largest entries
    sample = numerical_range_sample(_scaled_as(np.diag([0.1, 0.2, 0.4])))
    assert sample.contained
    np.testing.assert_allclose(sample.eigenvalues, [0.1, 0.2, 0.4])
    assert sample.points.real.min() == pytest.approx(0.1, abs=1e-15)
    assert sample.points.real.max() == pytest.approx(0.4, abs=1e-15)
    np.testing.assert_allclose(sample.points.imag, 0.0, atol=1e-15)
    assert sample.min_re == pytest.approx(0.1, abs=1e-15)


def test_numerical_range_goes_left_of_zero_at_moderate_n():
    # W(C) pokes into the left half-plane even though every eigenvalue
    # stays to the right; recorded, not asserted away
    bas = build_basis(WeightFamily.legendre(), 5)
    scaled = scale(build_integration_matrices(bas), "+", IntervalMap(-1.0, 1.0))
    sample = numerical_range_sample(scaled)
    herm = 0.5 * (scaled.C + scaled.C.T)
    assert sample.min_re == pytest.approx(np.linalg.eigvalsh(herm)[0], abs=1e-15)
    assert sample.min_re == pytest.approx(-0.11035833909758, abs=1e-12)
    assert sample.points.real.min() == pytest.approx(sample.min_re, abs=1e-12)
    assert sample.eigenvalues.real.min() > 0.0


@settings(max_examples=60)
@given(n=st.integers(1, 8), complex_entries=st.booleans(), normal=st.booleans(),
       magnitude=st.sampled_from([1e-12, 1.0, 1e12]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_numerical_range_of_random_matrices(n, complex_entries, normal,
                                            magnitude, seed):
    # a normal matrix has its eigenvalues on the boundary of W, where only
    # roundoff separates them from the support lines: the tolerance scales
    # with C, so no magnitude fails on roundoff alone
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((n, n))
    if complex_entries:
        C = C + 1j * rng.standard_normal((n, n))
    if normal:
        Q, _ = np.linalg.qr(C)
        C = Q @ np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n)) @ Q.conj().T
    C *= magnitude
    sample = numerical_range_sample(_scaled_as(C))
    tol = 8 * n * np.finfo(np.float64).eps * np.linalg.norm(C, 2)
    herm = 0.5 * (C + C.conj().T)
    assert sample.min_re == pytest.approx(np.linalg.eigvalsh(herm)[0], abs=tol)
    assert sample.contained
    # every boundary point lies in W, so to the right of min Re W
    assert sample.points.real.min() >= sample.min_re - tol


def test_verify_suite_small_run():
    out = verify_suite(samples=8, seed=123)
    assert out["all_passed"]
    for key in ("positivity_identity", "norm_bound", "derivative_range",
                "half_line_pairing", "integral_chain", "spectrum_scan",
                "numerical_range"):
        assert key in out, key
    assert out["seed"] == 123 and out["samples"] == 8
