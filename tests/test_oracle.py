import heapq
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as P

from intop import oracle
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
    # a non-finite point or start has no integral to report
    for a, pts in ((0.0, [0.5, math.nan, 1.0]), (math.nan, [0.5, 1.0]),
                   (0.0, [0.5, math.inf]), (-math.inf, [0.5])):
        with pytest.raises(ValueError, match="finite"):
            running_integral(np.cos, a, pts, 1e-10)


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


def test_running_integral_calls_the_integrand_once_per_rule():
    c = np.array([0.3, -1.2, 2.0, 0.5, -0.7, 1.1])
    calls = []

    def f(x):
        calls.append(len(x))
        return P.polyval(x, c)

    pts = np.linspace(1.0, 0.02, 50)
    got = running_integral(f, 0.0, pts, 1e-10)
    anti = P.polyint(c)
    np.testing.assert_allclose(got, P.polyval(pts, anti), rtol=0, atol=1e-13)
    # both Gauss rules are exact for degree 5: the 50 seed panels suffice
    assert calls == [50 * 10, 50 * 21]
    calls.clear()
    assert np.array_equal(running_integral(f, 0.0, [0.0, -1.0, -0.5], 1e-10),
                          np.zeros(3))
    assert calls == []


def _reference_panel(f, lo, hi):
    """One panel per call, two integrand calls per panel."""
    mid = 0.5 * (lo + hi)
    rad = 0.5 * (hi - lo)
    v_lo = rad * np.sum(oracle._GAUSS_LO[1] * f(mid + rad * oracle._GAUSS_LO[0]))
    f_hi = f(mid + rad * oracle._GAUSS_HI[0])
    v_hi = rad * np.sum(oracle._GAUSS_HI[1] * f_hi)
    return v_hi, abs(v_hi - v_lo), rad * np.sum(oracle._GAUSS_HI[1] * np.abs(f_hi))


def _reference_adaptive(f, edges, tol, pointwise=False):
    """The bisection seeded gap by gap, each panel on its own; pointwise is
    accepted and ignored."""
    tie = itertools.count()
    heap = []
    edges = np.asarray(edges, dtype=np.float64).tolist()
    for gap, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        if lo < hi:
            val, err, mag = _reference_panel(f, lo, hi)
            heap.append((-err, next(tie), lo, hi, 0, val, mag, gap))
    heapq.heapify(heap)
    total_err = math.fsum(-item[0] for item in heap)
    total_mag = math.fsum(item[6] for item in heap)
    while total_err > max(tol, oracle._ROUNDOFF * total_mag):
        if len(heap) > oracle._MAX_INTERVALS:
            raise oracle._stall(f"exceeded {oracle._MAX_INTERVALS} panels",
                                heap, total_err, tol, total_mag)
        if heap[0][4] >= oracle._MAX_DEPTH:
            lo, hi = heap[0][2:4]
            raise oracle._stall(
                f"stalled at depth {oracle._MAX_DEPTH} on [{lo!r}, {hi!r}]",
                heap, total_err, tol, total_mag)
        neg_err, _, lo, hi, depth, v, m, gap = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1, m1 = _reference_panel(f, lo, mid)
        v2, e2, m2 = _reference_panel(f, mid, hi)
        heapq.heappush(heap, (-e1, next(tie), lo, mid, depth + 1, v1, m1, gap))
        heapq.heappush(heap, (-e2, next(tie), mid, hi, depth + 1, v2, m2, gap))
        total_err += e1 + e2 + neg_err
        total_mag += m1 + m2 - m
    parts = [[] for _ in range(len(edges) - 1)]
    for item in heap:
        parts[item[7]].append(item[5])
    return [oracle._fsum(vals) for vals in parts], total_err


@settings(max_examples=60)
@given(st.floats(-1.0, 1.0), st.floats(0.25, 3.0), st.floats(-1.0, 1.0),
       st.floats(0.0, 9.0), st.booleans(),
       st.sampled_from([None, -0.25, 0.3]), st.sampled_from([None, -0.25, 0.5]),
       st.lists(st.floats(-0.5, 3.0), min_size=1, max_size=25),
       st.integers(0, 5))
def test_batched_seeding_matches_per_gap_seeding_bit_for_bit(
        a, span, c, k, cplx, left, right, offsets, dups):
    # f sees x, not its distance to the singular end, so that distance is
    # known only to ulp(x); exponents of -0.25 keep the lost mass, about
    # ulp**0.75 * max|f|, below tol
    b = a + span
    g = 0.0 if left is None else left
    h = 0.0 if right is None else right

    def f(x):
        out = (x - a) ** g * np.exp(c * x) * np.cos(k * x)
        return out * np.exp(1j * x) if cplx else out

    def f_both(x):
        return f(x) * (b - x) ** h

    # points at and below a, and repeated points, among the draws
    pts = [a + t for t in offsets] + [a + t for t in offsets[:dups]] + [a]
    tol = 1e-10
    request = QuadratureRequest(f_both, a, b, tol, left, right)
    got_run = running_integral(f, a, pts, tol, left_exponent=left)
    got_def = adaptive_integrate(request)
    with mock.patch.object(oracle, "_adaptive", _reference_adaptive):
        ref_run = running_integral(f, a, pts, tol, left_exponent=left)
        ref_def = adaptive_integrate(request)
    assert np.array_equal(got_run, ref_run)
    assert np.array_equal(got_def, ref_def)


def _outcome(run):
    try:
        return run()
    except OracleError as exc:
        return str(exc)


@settings(max_examples=60)
@given(st.floats(-1.0, 1.0), st.floats(0.25, 3.0),
       st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3),
       st.sampled_from([np.abs, np.sign]), st.booleans(),
       st.sampled_from([None, -0.25]), st.sampled_from([1e-10, 1e-13]),
       st.lists(st.floats(-0.2, 1.0), min_size=0, max_size=24))
def test_lookahead_matches_one_call_per_child_on_nonsmooth_integrands(
        a, span, roots, shape, cplx, left, tol, offsets):
    # |poly| has a kink and sign(poly) a jump at every root, all inside
    # (a, a + span); at tol 1e-13 a jump stalls at the depth cap, so stall
    # texts are compared too
    g = 0.0 if left is None else left
    c = P.polyfromroots([a + span * r for r in roots])
    calls = []

    def f(x):
        calls.append(1)
        out = (x - a) ** g * shape(P.polyval(x, c))
        return out * np.exp(1j * x) if cplx else out

    pts = [a + span * t for t in offsets] + [a + span]
    got = _outcome(lambda: running_integral(f, a, pts, tol, left_exponent=left))
    got_calls = len(calls)
    calls.clear()
    with mock.patch.object(oracle, "_adaptive", _reference_adaptive):
        ref = _outcome(lambda: running_integral(f, a, pts, tol, left_exponent=left))
    if isinstance(ref, str):
        assert got == ref
    else:
        assert np.array_equal(got, ref)
    assert got_calls <= len(calls)


def test_running_integral_evaluates_three_levels_per_call_on_a_kink():
    calls = []

    def f(x):
        calls.append(len(x))
        return np.abs(x - 1.0 / 3.0)

    got = running_integral(f, 0.0, np.linspace(0.05, 1.0, 20), 1e-11)
    assert abs(got[-1] - 5.0 / 18.0) <= 1e-11
    # one call per rule on the 20 seed panels, then on 14 panels (three
    # levels below a popped panel) per call; one call per child made 42 calls
    assert calls == [200, 420, 140, 294, 140, 294, 140, 294, 140, 294]


def test_lookahead_stops_at_the_depth_cap_inside_the_popped_panel():
    # a jump cannot meet tol: the panel holding it is bisected to the cap
    widths = []
    panels = oracle._panels

    def recorded(f, lo, hi):
        widths.extend(hi - lo)
        return panels(f, lo, hi)

    seen = []

    def f(x):
        seen.extend(x)
        return np.where(x > 1.0 / 3.0, 1.0, 0.0)

    with mock.patch.object(oracle, "_panels", recorded):
        with pytest.raises(OracleError, match="stalled at depth 40"):
            running_integral(f, 0.0, [1.0], 1e-15)
    assert min(widths) == 2.0 ** -oracle._MAX_DEPTH
    assert 0.0 < min(seen) and max(seen) < 1.0


def test_adaptive_integrate_hands_its_integrand_one_panel_per_call():
    calls = []

    def f(x):
        calls.append(len(x))
        return np.abs(x - 1.0 / 3.0)

    value = quad(f, 0.0, 1.0, tol=1e-11)
    assert abs(value - 5.0 / 18.0) <= 1e-11
    # the integrand of verify's outer rules runs a running_integral over its
    # abscissae, which would round differently with more panels in a call
    assert len(calls) > 2 and calls == [10, 21] * (len(calls) // 2)


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
