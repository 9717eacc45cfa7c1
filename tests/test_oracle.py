import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as P

from intop.basis import IntervalMap
from intop.errors import OracleError
from intop.oracle import (QuadratureRequest, adaptive_integrate, bessel_j0,
                          direct_convolution, load_fixtures, running_integral)


def quad(f, a, b, **kw):
    value, _ = adaptive_integrate(QuadratureRequest(f, a, b, **kw))
    return value


def test_polynomial_and_trig_integrals():
    assert quad(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert quad(np.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-13)
    assert quad(lambda x: np.exp(-x), 0.0, 50.0) == pytest.approx(1.0, abs=1e-12)


def test_complex_integrand():
    val = quad(lambda x: np.exp(1j * x), 0.0, 2.0 * math.pi, tol=1e-13)
    assert abs(val) < 1e-12


def test_error_estimate_is_conservative():
    value, err = adaptive_integrate(
        QuadratureRequest(lambda x: np.cos(7.0 * x), 0.0, 3.0, tol=1e-10))
    assert abs(value - math.sin(21.0) / 7.0) <= max(err, 1e-13)


def test_endpoint_singularities():
    assert quad(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0,
                left_exponent=-0.5) == pytest.approx(2.0, abs=1e-11)
    # both-end arcsine weight integrates to pi
    assert quad(lambda x: ((1.0 - x) * (1.0 + x)) ** -0.5, -1.0, 1.0,
                left_exponent=-0.5, right_exponent=-0.5) == pytest.approx(
        math.pi, abs=1e-10)


def test_invalid_requests():
    with pytest.raises(ValueError):
        adaptive_integrate(QuadratureRequest(np.sin, 1.0, 0.0))
    with pytest.raises(ValueError):
        adaptive_integrate(QuadratureRequest(np.sin, 0.0, 1.0, tol=0.0))
    with pytest.raises(ValueError):
        running_integral(np.sin, 0.0, [1.0], 0.0)


def test_nonintegrable_singularity_raises():
    with pytest.raises(OracleError):
        adaptive_integrate(QuadratureRequest(lambda x: 1.0 / x, 0.0, 1.0))


def test_oracle_error_reports_panels_value_and_floor():
    with pytest.raises(OracleError, match=r"after \d+ panels \(value .+, "
                       r"error estimate .+, tol .+, roundoff floor .+\)"):
        adaptive_integrate(QuadratureRequest(lambda x: 1.0 / x, 0.0, 1.0))


def test_roundoff_floor_stops_exact_polynomial_square():
    # Both Gauss rules are exact for this degree-16 integrand, so their
    # difference is rounding noise near eps * 2e4, above the requested 1e-13;
    # the oracle must stop there rather than bisect to the panel cap.
    c = np.array([0.5, 1.0, -1.5, 2.0, 0.25, -1.0, 0.75, -0.5, 1.75])
    anti = P.polyint(P.polymul(c, c))
    exact = P.polyval(2.0, anti) - P.polyval(0.0, anti)
    assert 1e4 < exact < 3e4
    value, err = adaptive_integrate(QuadratureRequest(
        lambda x: P.polyval(x, c) ** 2, 0.0, 2.0, tol=1e-13))
    assert value == pytest.approx(exact, rel=1e-13, abs=0)
    assert err <= 1e-12 * exact


def test_bessel_j0_against_defining_integral():
    # (1/pi) int_0^pi cos(x sin(theta)) dtheta, checked across the
    # series/asymptotic switchover
    for x in (0.0, 0.3, 2.0, 7.5, 14.9, 15.1, 30.0, 47.2):
        ref = quad(lambda th: np.cos(x * np.sin(th)), 0.0, math.pi,
                   tol=1e-14) / math.pi
        assert bessel_j0(x) == pytest.approx(ref, abs=5e-13), x


def test_bessel_j0_shape_and_symmetry():
    assert bessel_j0(0.0) == 1.0
    x = np.linspace(-20.0, 20.0, 41)
    vals = bessel_j0(x)
    assert vals.shape == x.shape
    np.testing.assert_allclose(vals, bessel_j0(-x), rtol=0, atol=0)


def test_direct_convolution_flat_kernel():
    imap = IntervalMap(0.0, 1.0)
    pts = np.array([0.1, 0.5, 0.9])
    plus = direct_convolution(lambda s: np.ones_like(np.asarray(s)),
                              lambda t: np.ones_like(np.asarray(t)),
                              "+", imap, pts)
    np.testing.assert_allclose(plus, pts, atol=1e-12)
    minus = direct_convolution(lambda s: np.ones_like(np.asarray(s)),
                               lambda t: np.ones_like(np.asarray(t)),
                               "-", imap, pts)
    np.testing.assert_allclose(minus, 1.0 - pts, atol=1e-12)
    with pytest.raises(ValueError):
        direct_convolution(lambda s: s, lambda t: t, "x", imap, pts)


def test_running_integral_exact_on_polynomials():
    c = np.array([0.3, -1.2, 2.0, 0.5, -0.7, 1.1])
    anti = P.polyint(c)
    a = -0.4
    # unsorted, with repeats, a itself and points below a (which give 0)
    pts = np.array([0.9, -1.0, 0.1, a, 2.5, a - 1e-3, 0.1, 1.7])
    got = running_integral(lambda x: P.polyval(x, c), a, pts, 1e-13)
    exact = P.polyval(np.maximum(pts, a), anti) - P.polyval(a, anti)
    np.testing.assert_allclose(got, exact, rtol=1e-13, atol=1e-13)
    assert np.all(got[pts <= a] == 0.0)


def test_running_integral_left_singularity():
    pts = np.array([1.0, 1e-12, 0.25, 0.0, 4.0, 0.5])
    got = running_integral(lambda t: 1.0 / np.sqrt(t), 0.0, pts, 1e-11,
                           left_exponent=-0.5)
    np.testing.assert_allclose(got, 2.0 * np.sqrt(pts), rtol=0, atol=1e-11)


def test_running_integral_stays_at_or_below_the_largest_point():
    # With a = -1 and top the last float below 1, -1 + u**2 rounds above top
    # for u next to sqrt(top + 1); f is undefined (nan and a warning) there.
    top = np.nextafter(1.0, 0.0)
    seen = []

    def f(t):
        seen.append(np.max(t))
        return np.sqrt((top - t) / (t + 1.0))

    got = running_integral(f, -1.0, [top, top - 8 * 2.0 ** -53, 0.5], 1e-12,
                           left_exponent=-0.5)
    assert max(seen) <= top
    assert np.all(np.isfinite(got))


@settings(max_examples=40)
@given(st.floats(-2.0, 2.0), st.floats(0.0, 8.0),
       st.sampled_from([None, -0.5, 0.3]),
       st.lists(st.floats(-0.5, 3.0), min_size=1, max_size=21))
def test_running_integral_matches_pointwise_quadrature(c, k, exponent, pts):
    g = 0.0 if exponent is None else exponent

    def f(x):
        return x ** g * np.exp(c * x) * np.cos(k * x)

    tol = 1e-11
    got = running_integral(f, 0.0, pts, tol, left_exponent=exponent)
    for x, value in zip(pts, got):
        ref = quad(f, 0.0, x, tol=tol, left_exponent=exponent) if x > 0.0 else 0.0
        assert abs(value - ref) <= tol, x


def test_fixtures_thresholds_cover_measured():
    fx = load_fixtures()
    thr, meas = fx["thresholds"], fx["measured"]
    for key in ("ft_n5_max_fine_error", "lt_n5_max_coarse_error",
                "control_n5_vs_ref_coarse", "control_n11_vs_oracle",
                "control_inverse_design_error", "ode_n5_max_node_error",
                "wh_n5_max_node_error"):
        assert meas[key] < thr[key], key
    assert meas["lt_refinement_factor"] > thr["lt_min_refinement_factor"]
    assert meas["ode_chain_improvement"] > thr["ode_min_chain_improvement"]
