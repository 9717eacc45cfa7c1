import heapq
import itertools
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as P

from intop import oracle
from intop.basis import IntervalMap
from intop.errors import OracleError
from intop.oracle import (adaptive_integrate, direct_convolution,
                          load_fixtures, running_integral)

EPS = np.finfo(np.float64).eps


def test_polynomial_and_trig_integrals():
    value, _ = adaptive_integrate(lambda x: x * x, 0.0, 1.0, 1e-12)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-14)
    value, _ = adaptive_integrate(np.sin, 0.0, math.pi, 1e-12)
    assert value == pytest.approx(2.0, abs=1e-13)
    value, _ = adaptive_integrate(lambda x: np.exp(-x), 0.0, 50.0, 1e-12)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_complex_integrand():
    val, _ = adaptive_integrate(lambda x: np.exp(1j * x), 0.0, 2.0 * math.pi, tol=1e-13)
    assert abs(val) < 1e-12


def test_error_estimate_is_conservative():
    value, err = adaptive_integrate(lambda x: np.cos(7.0 * x), 0.0, 3.0, tol=1e-10)
    assert abs(value - math.sin(21.0) / 7.0) <= max(err, 1e-13)


def test_endpoint_singularities():
    value, _ = adaptive_integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 1e-12,
                                  left_exponent=-0.5)
    assert value == pytest.approx(2.0, abs=1e-11)
    # both-end arcsine weight integrates to pi
    value, _ = adaptive_integrate(lambda x: ((1.0 - x) * (1.0 + x)) ** -0.5,
                                  -1.0, 1.0, 1e-12, left_exponent=-0.5,
                                  right_exponent=-0.5)
    assert value == pytest.approx(math.pi, abs=1e-10)


@pytest.mark.parametrize("a, b, left, right", [
    (0.5, 1.5, -0.9, None),
    (0.5, 1.5, None, -0.9),
    (-1.5, -0.5, None, -0.9),
    (0.5, 1.5, -0.9, -0.9),
])
def test_substitution_keeps_abscissae_inside_the_interval(a, b, left, right):
    # At exponent -0.9 the first 21-point abscissa is u ~ 3e-3, so u**10 is
    # ~1e-25, far below ulp(a) and ulp(b): unclipped, end +- u**10 would
    # hand f the end itself.
    seen = []

    def f(x):
        seen.append(x.copy())
        return np.cos(x)

    value, _ = adaptive_integrate(f, a, b, 1e-12, left_exponent=left,
                                  right_exponent=right)
    x = np.concatenate(seen)
    assert np.all((a < x) & (x < b))
    assert abs(value - (math.sin(b) - math.sin(a))) <= 1e-15


def test_invalid_requests():
    with pytest.raises(ValueError):
        adaptive_integrate(np.sin, 1.0, 0.0, 1e-12)
    with pytest.raises(ValueError):
        adaptive_integrate(np.sin, 0.0, 1.0, tol=0.0)
    with pytest.raises(ValueError):
        running_integral(np.sin, 0.0, [1.0], 0.0)
    # a non-finite point or start has no integral to report
    for a, pts in ((0.0, [0.5, math.nan, 1.0]), (math.nan, [0.5, 1.0]),
                   (0.0, [0.5, math.inf]), (-math.inf, [0.5])):
        with pytest.raises(ValueError, match="finite"):
            running_integral(np.cos, a, pts, 1e-10)
    # nor a non-finite end or breakpoint: (0, inf) used to return (nan, nan)
    # with a RuntimeWarning
    for a, b, pts in ((0.0, math.inf, ()), (-math.inf, 0.0, ()), (math.nan, 1.0, ()),
                      (0.0, math.nan, ()), (0.0, 1.0, [0.5, math.nan]),
                      (0.0, 1.0, [math.inf])):
        with pytest.raises(ValueError, match="finite"):
            adaptive_integrate(lambda x: np.exp(-x * x), a, b, 1e-8,
                               breakpoints=pts)


def test_nonintegrable_singularity_raises():
    with pytest.raises(OracleError):
        adaptive_integrate(lambda x: 1.0 / x, 0.0, 1.0, 1e-12)


def test_oracle_error_reports_panels_value_and_floor():
    with pytest.raises(OracleError, match=r"after \d+ panels \(value .+, "
                       r"error estimate .+, tol .+, roundoff floor .+\)"):
        adaptive_integrate(lambda x: 1.0 / x, 0.0, 1.0, 1e-12)


def test_roundoff_floor_stops_exact_polynomial_square():
    # The Kronrod rule and its Gauss rule are exact for this degree-16
    # integrand, so their difference is rounding noise near eps * 2e4, above
    # the requested 1e-13; the oracle must stop there rather than bisect to
    # the panel cap.
    c = np.array([0.5, 1.0, -1.5, 2.0, 0.25, -1.0, 0.75, -0.5, 1.75])
    anti = P.polyint(P.polymul(c, c))
    exact = P.polyval(2.0, anti) - P.polyval(0.0, anti)
    assert 1e4 < exact < 3e4
    value, err = adaptive_integrate(
        lambda x: P.polyval(x, c) ** 2, 0.0, 2.0, tol=1e-13)
    assert value == pytest.approx(exact, rel=1e-13, abs=0)
    assert err <= 1e-12 * exact


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
        ref = (adaptive_integrate(f, 0.0, x, tol, left_exponent=exponent)[0]
               if x > 0.0 else 0.0)
        assert abs(value - ref) <= tol, x


def test_kronrod_table_embeds_the_gauss_rule_and_has_degree_31():
    eps = np.finfo(np.float64).eps
    x, wk = oracle._KRONROD_NODES, oracle._KRONROD_WEIGHTS
    gx, gw = np.polynomial.legendre.leggauss(10)
    assert np.all(np.abs(x[1::2] - gx) <= 2 * eps)
    assert np.all(np.abs(oracle._GAUSS_WEIGHTS - gw) <= 2 * eps)
    assert abs(math.fsum(wk) - 2.0) <= 2 * eps
    # exact through degree 3 * 10 + 1 = 31 and no further (a miss of 4.4e-12
    # at degree 32), so a wrong digit in the table fails here
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(wk @ x ** k - exact) <= 4 * eps, k
    assert abs(wk @ x ** 32 - 2.0 / 33) > 1e-13


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
    # the Kronrod rule and its Gauss rule are exact for degree 5: the 50
    # seed panels suffice, all in one call
    assert calls == [50 * 21]
    calls.clear()
    assert np.array_equal(running_integral(f, 0.0, [0.0, -1.0, -0.5], 1e-10),
                          np.zeros(3))
    assert calls == []


def _reference_panel(f, lo, hi):
    """One panel per call: its Kronrod value, the distance to the Gauss value
    on the odd Kronrod abscissae, and the Kronrod integral of |f|."""
    mid = 0.5 * (lo + hi)
    rad = 0.5 * (hi - lo)
    fx = f(mid + rad * oracle._KRONROD_NODES)
    v_kr = rad * np.sum(oracle._KRONROD_WEIGHTS * fx)
    v_gauss = rad * np.sum(oracle._GAUSS_WEIGHTS * fx[1::2])
    return v_kr, abs(v_kr - v_gauss), rad * np.sum(oracle._KRONROD_WEIGHTS * np.abs(fx))


def _reference_adaptive(f, edges, tol, levels=1):
    """The bisection seeded gap by gap, each panel on its own; levels is
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
    got_run = running_integral(f, a, pts, tol, left_exponent=left)
    got_def = adaptive_integrate(f_both, a, b, tol, left, right)
    got_bp = adaptive_integrate(f_both, a, b, tol, left, right, breakpoints=pts)
    with mock.patch.object(oracle, "_adaptive", _reference_adaptive):
        ref_run = running_integral(f, a, pts, tol, left_exponent=left)
        ref_def = adaptive_integrate(f_both, a, b, tol, left, right)
        ref_bp = adaptive_integrate(f_both, a, b, tol, left, right, breakpoints=pts)
    assert np.array_equal(got_run, ref_run)
    assert np.array_equal(got_def, ref_def)
    assert np.array_equal(got_bp, ref_bp)


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
    # one call on the 20 seed panels, then one on 14 panels (three levels
    # below a popped panel) per call; one call per child made 21 calls
    assert calls == [20 * 21] + [14 * 21] * 4


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


def test_adaptive_integrate_hands_its_integrand_both_children_per_call():
    calls = []

    def f(x):
        calls.append(len(x))
        return np.abs(x - 1.0 / 3.0)

    value, _ = adaptive_integrate(f, 0.0, 1.0, tol=1e-11)
    assert abs(value - 5.0 / 18.0) <= 1e-11
    # the seed panel, then the two halves of each popped panel: the integrand
    # of verify's outer rules runs a running_integral over its abscissae, and
    # each abscissa costs it work, so there is no deeper lookahead
    assert len(calls) > 2 and calls == [21] + [2 * 21] * (len(calls) - 1)


def _counted_panels():
    """A stand-in for oracle._panels that records one entry per call."""
    calls = []
    panels = oracle._panels

    def counted(f, lo, hi):
        calls.append(len(lo))
        return panels(f, lo, hi)
    return calls, counted


def test_a_breakpoint_at_the_kink_converges_on_the_seed_panels():
    calls, counted = _counted_panels()
    with mock.patch.object(oracle, "_panels", counted):
        value, _ = adaptive_integrate(lambda x: np.abs(x - 0.3), -1.0, 1.0, 1e-13,
                                      breakpoints=[0.3])
    # |x - 0.3| is linear on each gap: 0.5 * (1.3^2 + 0.7^2) in one call
    assert calls == [2]
    assert abs(value - 1.09) <= 4 * EPS


@pytest.mark.parametrize("left, right", [(None, None), (-0.5, None),
                                         (None, -0.5), (-0.5, -0.5)])
def test_breakpoints_outside_the_interval_change_nothing(left, right):
    def f(x):
        return np.abs(x - 0.3) * np.exp(x)

    ref = adaptive_integrate(f, -1.0, 1.0, 1e-11, left, right)
    for pts in ([], [-1.0, 1.0], [-3.0, -1.0, 1.0, 2.5], np.array([1.0, -1.0])):
        got = adaptive_integrate(f, -1.0, 1.0, 1e-11, left, right, breakpoints=pts)
        assert _bits(got) == _bits(ref)


@pytest.mark.parametrize("left, right", [(-0.5, None), (None, -0.5), (-0.5, -0.5)])
def test_breakpoints_are_mapped_through_the_endpoint_substitution(left, right):
    # the kinks of |(x - 0.2)(x - 0.7)| against an x^-1/2 and/or
    # (1 - x)^-1/2 end. With one tag the substitution u = x^(1/2) (or
    # (1 - x)^(1/2)) makes the integrand a polynomial on every mapped gap;
    # the kinks are not symmetric about 1/2, so mapping them through the
    # wrong end's substitution shows
    g, h = (left or 0.0), (right or 0.0)

    def f(x):
        return x ** g * (1.0 - x) ** h * np.abs((x - 0.2) * (x - 0.7))

    with mpmath.workdps(30):
        exact = float(mpmath.quad(lambda x: x ** g * (1 - x) ** h
                                  * abs((x - 0.2) * (x - 0.7)), [0, 0.2, 0.7, 1]))
    counts = []
    for pts in ((), [0.2, 0.7]):
        calls, counted = _counted_panels()
        with mock.patch.object(oracle, "_panels", counted):
            value, err = adaptive_integrate(f, 0.0, 1.0, 1e-12, left, right,
                                            breakpoints=pts)
        counts.append(len(calls))
    # checked with the breakpoints only: without them, both tags leave a
    # kink inside a panel whose Kronrod-Gauss estimate (6.7e-13) is below
    # its error (1.4e-11); with them, the call meets its tolerance (the
    # error is 8.4e-15 under both tags)
    assert err <= 1e-12 and abs(value - exact) <= 1e-12
    assert counts[1] < counts[0]
    if left is None or right is None:
        assert counts[1] == 1
    else:
        # each half of the midpoint split maps its own breakpoint
        v1, e1 = adaptive_integrate(f, 0.0, 0.5, 0.5e-12, left, breakpoints=[0.2])
        v2, e2 = adaptive_integrate(f, 0.5, 1.0, 0.5e-12, None, right,
                                    breakpoints=[0.7])
        assert _bits((value, err)) == _bits((v1 + v2, e1 + e2))


@pytest.mark.xfail(strict=True, reason=(
    "CHANGES.md FOUND: adaptive_integrate without breakpoints under-reports "
    "its error when a kink sits inside a panel (estimate 6.7e-13, error "
    "1.38e-11)"))
def test_a_kink_inside_a_panel_meets_the_reported_tolerance():
    # the both-tags case above without its breakpoints
    def f(x):
        return x ** -0.5 * (1.0 - x) ** -0.5 * np.abs((x - 0.2) * (x - 0.7))

    with mpmath.workdps(30):
        exact = float(mpmath.quad(lambda x: x ** -0.5 * (1 - x) ** -0.5
                                  * abs((x - 0.2) * (x - 0.7)), [0, 0.2, 0.7, 1]))
    value, err = adaptive_integrate(f, 0.0, 1.0, 1e-12, -0.5, -0.5)
    assert err <= 1e-12 and abs(value - exact) <= 1e-12


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



def _bits(outcome):
    """An oracle outcome as comparable bit patterns (an OracleError text as
    it is)."""
    if isinstance(outcome, str):
        return outcome
    if isinstance(outcome, tuple):
        return tuple(_bits(part) for part in outcome)
    return np.ascontiguousarray(np.atleast_1d(outcome)).view(np.int64).tolist()


@settings(max_examples=25, deadline=None)
@given(st.floats(-1.0, 1.0), st.floats(0.25, 3.0), st.floats(-1.0, 1.0),
       st.floats(0.0, 9.0), st.floats(0.05, 0.95), st.booleans(),
       st.sampled_from([None, -0.25, 0.3]), st.sampled_from([None, -0.25, 0.5]),
       st.lists(st.floats(-0.5, 3.0), min_size=0, max_size=12))
def test_stacked_rows_match_each_row_alone_bit_for_bit(
        a, span, c, k, root, stall, left, right, offsets):
    # a smooth row, a kink that forces bisection, complex rows with -0.0
    # real or imaginary parts and, when drawn, a pole that stalls at the
    # depth cap: the stack raises the OracleError text of a failing row
    # alone (the first in row order, unless the two halves of a both-ends
    # run fail in different rows)
    b = a + span
    r = a + root * span

    def parts(re, im):
        out = np.empty(np.shape(re), dtype=complex)
        out.real, out.imag = re, im
        return out

    rows = [lambda x: np.exp(c * x) * np.cos(k * x),
            lambda x: np.abs(x - r),
            lambda x: parts(-0.0 * (1.0 + x * x), np.cos(k * x)),
            lambda x: parts(np.sin(x), -0.0 * (1.0 + x * x))]
    if stall:
        # off every dyadic abscissa, so the pole itself is never evaluated
        rows.insert(2, lambda x: 1.0 / (x - r - math.pi * 1e-9))

    def stack(x):
        return np.array([row(x) for row in rows])

    def alone(i):
        # the row as the (complex) stack holds it
        return lambda x: np.asarray(rows[i](x), dtype=complex)

    pts = [a + t for t in offsets] + [b]
    tol = 1e-10
    runs = [
        lambda f: adaptive_integrate(f, a, b, tol),
        lambda f: adaptive_integrate(f, a, b, tol, left_exponent=left),
        lambda f: adaptive_integrate(f, a, b, tol, right_exponent=right),
        lambda f: adaptive_integrate(f, a, b, tol, left, right),
        lambda f: running_integral(f, a, pts, tol, left_exponent=left),
        lambda f: adaptive_integrate(f, a, b, tol, breakpoints=[r] + pts),
        lambda f: adaptive_integrate(f, a, b, tol, left, right, breakpoints=pts),
    ]
    for run in runs:
        got = _outcome(lambda: run(stack))
        ref = [_outcome(lambda: run(alone(i))) for i in range(len(rows))]
        failed = [o for o in ref if isinstance(o, str)]
        if failed:
            assert got == failed[0] or (run in (runs[3], runs[6]) and got in failed)
        elif isinstance(got, tuple):
            assert [_bits((got[0][i], got[1][i])) for i in range(len(rows))] \
                == [_bits(o) for o in ref]
        else:
            assert [_bits(row) for row in got] == [_bits(o) for o in ref]


@pytest.mark.parametrize("imag", [math.inf, -math.inf, math.nan])
def test_fsum_keeps_the_real_part_of_a_non_finite_imaginary_part(imag):
    # 1j * inf has a NaN real part (0 * inf), so the sum is built from parts
    for vals in ([complex(1.5, imag)], [complex(1.0, imag), 0.5, complex(0.0, 2.0)]):
        got = oracle._fsum(vals)
        assert got.real == 1.5
        assert got.imag == imag or (math.isnan(imag) and math.isnan(got.imag))


def test_a_row_that_converges_on_its_seed_sums_as_one_heap_per_gap():
    # a seed-only row skips the heap: its gap values must still be what
    # _fsum makes of a single panel, -0.0 turned into 0.0 in either part
    def f(x):
        out = np.empty(x.shape, dtype=complex)
        out.real, out.imag = -0.0 * x, np.where(x < 0.5, -0.0, 1.0 + x)
        return out

    for run in (lambda: adaptive_integrate(f, 0.25, 2.0, 1e-12),
                lambda: running_integral(f, 0.25, [0.3, 0.75, 2.0, 0.4], 1e-12),
                lambda: running_integral(lambda x: -0.0 * x, 0.25, [0.5, 1.0], 1e-12)):
        got = run()
        with mock.patch.object(oracle, "_adaptive", _reference_adaptive):
            assert _bits(got) == _bits(run())
