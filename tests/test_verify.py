import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as P

import intop.verify
from intop.basis import IntervalMap, WeightFamily, build_basis
from intop.errors import NumericalError
from intop.intmat import ScaledMatrix, build_integration_matrices, eigen_factorize, scale
from intop.report import json_document
from intop.verify import (DEFAULT_SEED, IdentityReport, check_derivative_range,
                          check_half_line_pairing, check_integral_chain,
                          check_norm_bound, check_positivity_identity,
                          conjecture_scan, numerical_range_sample, verify_suite)

EPS = np.finfo(np.float64).eps


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


def _pairing_grid(f):
    mid, offset, weights = intop.verify._half_line_grid()
    y = mid[:, None] + offset[None, :]
    wf = weights * f(y)
    return mid, offset, y, wf, y * wf


def test_factored_phase_matches_a_40_digit_sum():
    # F = sum e^{ixy} w f and G = sum e^{ixy} y w f over the exact points
    # y = m_k + o_j of the double grid, summed in 40 digits; c = 2 in
    # c eps sum|wf| and c eps sum|y wf| (measured: at most 0.80 for F and
    # 0.77 for G; the direct exp(1j x fl(y)) @ wf reaches 1.7 to 3.0,
    # depending on how the product sums)
    mid, offset, y, wf, ywf = _pairing_grid(lambda y: np.exp(-y))
    xs = np.array([0.1, 0.5, 1.0, 2.0, 3.7, 5.0, 7.25, 10.0, 13.3, 16.0])
    got = intop.verify._phase_sums(xs, mid, offset, np.hstack([wf, ywf]))
    with mpmath.workdps(40):
        points = [mpmath.mpf(float(m)) + float(o) for m in mid for o in offset]
        for x, (F, G) in zip(xs, got):
            phases = [mpmath.expj(float(x) * p) for p in points]
            ref_F = mpmath.fsum(e * w for e, w in zip(phases, wf.ravel().tolist()))
            ref_G = mpmath.fsum(e * w for e, w in zip(phases, ywf.ravel().tolist()))
            assert abs(mpmath.mpc(F) - ref_F) <= 2 * EPS * np.abs(wf).sum(), x
            assert abs(mpmath.mpc(G) - ref_G) <= 2 * EPS * np.abs(ywf).sum(), x


@given(st.lists(st.floats(0.0, 16.0), min_size=1, max_size=21),
       st.sampled_from([lambda y: np.exp(-y), lambda y: y * np.exp(-y)]))
def test_factored_phase_matches_the_direct_phase(xs, f):
    # the direct form rounds x y and y itself, an error up to about
    # x |y| eps per term; c = 16 in c eps (sum|wf| + x sum|y wf|) (measured:
    # at most 8.7 over 80,000 x in [0, 16] and four integrands). Its terms
    # are summed with math.fsum: a BLAS product would add a summation error
    # over 4,896 terms that depends on its thread count (24 eps at x = 0
    # with one thread)
    mid, offset, y, wf, ywf = _pairing_grid(f)
    x = np.array(xs)
    got = intop.verify._phase_sums(x, mid, offset, np.hstack([wf, ywf]))
    phase = np.exp(1j * x[:, None] * y.ravel()[None, :])
    for col, (m0, m1) in enumerate([(wf, ywf), (ywf, y * ywf)]):
        direct = np.array([complex(math.fsum(t.real), math.fsum(t.imag))
                           for t in phase * m0.ravel()])
        bound = 16 * EPS * (np.abs(m0).sum() + x * np.abs(m1).sum())
        assert np.all(np.abs(got[:, col] - direct) <= bound)


def test_integral_chain_flat_example():
    rep = check_integral_chain(lambda x: np.ones_like(np.asarray(x)),
                               None, (0.0, 2.0))
    assert rep.passed
    assert rep.lhs == pytest.approx(2.0, abs=1e-8)
    assert rep.mid == pytest.approx(4.0, abs=1e-8)
    assert rep.rhs == pytest.approx(8.0, abs=1e-8)


def test_integral_chain_reads_no_weight_as_legendre():
    f = lambda x: np.cos(3.0 * x) + 0.5
    flat = check_integral_chain(f, None, (0.0, 2.0))
    legendre = check_integral_chain(f, WeightFamily.legendre(), (0.0, 2.0))
    assert dataclasses.astuple(flat) == dataclasses.astuple(legendre)


def test_integral_chain_with_weight_object():
    rep = check_integral_chain(lambda x: np.cos(x),
                               WeightFamily.chebyshev_first(), (0.0, 1.0))
    assert rep.passed
    assert rep.lhs <= rep.mid <= rep.rhs


def _suite_chain_draws(samples):
    """verify_suite(samples)'s four chain draws (samples identity draws of 9
    coefficients and samples derivative draws of 7 come first), and the
    sorted real roots of each in (-1, 1)."""
    rng = np.random.default_rng(DEFAULT_SEED)
    rng.standard_normal((samples, 9))
    rng.standard_normal((samples, 7))
    coeffs = rng.standard_normal((4, 4))
    roots = [sorted(r.real for r in P.polyroots(c)
                    if abs(r.imag) < 1e-12 and -1.0 < r.real < 1.0) for c in coeffs]
    return coeffs, roots


def test_integral_chain_on_a_sign_changing_suite_draw():
    # The third chain draw of verify_suite(samples=6). |f| has a kink inside
    # (-1, 1), so the exact values are piecewise-polynomial integrals. The
    # kinks only save bisection: none, the roots or a wrong one (0) must
    # all give the same values within the check's tolerance.
    all_coeffs, all_roots = _suite_chain_draws(6)
    coeffs, roots = all_coeffs[2], all_roots[2]
    assert roots
    anti = P.polyint(coeffs)
    edges = np.array([-1.0] + roots + [1.0])
    total = float(np.sum(np.abs(np.diff(P.polyval(edges, anti)))))
    signed = P.polyval(1.0, anti) - P.polyval(-1.0, anti)
    tol = intop.verify._CHECK_TOL
    for kinks in ((), roots, [0.0]):
        rep = check_integral_chain(lambda x: P.polyval(x, coeffs), None,
                                   (0.0, 2.0), kinks)
        assert rep.passed
        # on (0, 2) the mapped function has the same integral; half_sq = 2
        assert rep.lhs == pytest.approx(0.5 * signed ** 2, abs=tol), kinks
        assert rep.mid == pytest.approx(total ** 2, abs=tol), kinks
        assert rep.rhs == pytest.approx(2.0 * total ** 2, abs=tol), kinks


def _counted_panels(monkeypatch):
    calls = []
    panels = intop.oracle._panels

    def counted(f, lo, hi):
        calls.append(len(lo))
        return panels(f, lo, hi)
    monkeypatch.setattr(intop.oracle, "_panels", counted)
    return calls


def test_stacked_chain_of_the_suite_draws_converges_on_its_seeds(monkeypatch):
    # the union of the four cubics' kinks makes |f| a polynomial on every
    # gap of every row: lhs, mid and total each take their seed call (mid
    # and lhs one more for the inner running integrals), 5 in all
    coeffs, roots = _suite_chain_draws(100)
    kinks = sorted(set().union(*roots))
    calls = _counted_panels(monkeypatch)
    stacked = check_integral_chain(intop.verify._horner(coeffs), None, (0.0, 2.0),
                                   kinks)
    assert len(calls) <= 8
    monkeypatch.undo()
    # each report is that of its row alone with the same kinks
    assert stacked == tuple(check_integral_chain(intop.verify._horner(c), None,
                                                 (0.0, 2.0), kinks) for c in coeffs)


def test_integral_chain_kinks_under_a_tagged_weight(monkeypatch):
    # Chebyshev tags both ends, so the kinks go through both halves'
    # substitutions; they save panels and move no value beyond the tolerance
    f = intop.verify._horner(P.polyfromroots([0.1, 0.3, 0.7]))
    weight = WeightFamily.chebyshev_first()
    calls = _counted_panels(monkeypatch)
    plain = check_integral_chain(f, weight, (0.0, 1.0))
    plain_calls = len(calls)
    calls.clear()
    kinked = check_integral_chain(f, weight, (0.0, 1.0), [0.1, 0.3, 0.7])
    assert len(calls) < plain_calls
    assert kinked.passed and kinked.lhs == plain.lhs
    for got, ref in ((kinked.mid, plain.mid), (kinked.rhs, plain.rhs)):
        assert abs(got - ref) <= intop.verify._CHECK_TOL


def test_chain_rows_of_the_suite_meet_their_identity_to_rounding():
    # mid = rhs / 2 in exact arithmetic: (int_0^1 |f| J|f|) = (int |f|)^2 / 2.
    # With the kinks as breakpoints both sides are Kronrod sums of
    # polynomials, so they agree to a few rounding errors of rhs; c = 8
    # (measured at most 1.1 eps * rhs, and 6.1e-11 * rhs without breakpoints)
    suite = verify_suite(100)
    rows = suite["integral_chain"]["random_rows"]
    assert len(rows) == 4
    for lhs, mid, rhs in rows:
        assert abs(mid - 0.5 * rhs) <= 8 * EPS * rhs


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


def _counted_eigvals(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda a: calls.append(a.shape) or eigvals(a))
    return calls


def test_a_warm_scan_runs_no_eigensolve(monkeypatch):
    # verify_suite's scan: every pair is held, and each keeps its spectrum
    cold = conjecture_scan(WeightFamily.legendre(), 40).json_text()
    calls = _counted_eigvals(monkeypatch)
    assert conjecture_scan(WeightFamily.legendre(), 40).json_text() == cold
    assert calls == []


def test_a_scan_past_the_matrix_memo_repeats_its_bits(monkeypatch):
    # the n = 1..60 pairs overflow the matrix memo, so a repeated scan builds
    # evicted pairs again and solves their spectra again
    family = WeightFamily.chebyshev_first()
    cold = conjecture_scan(family, 60).json_text()
    calls = _counted_eigvals(monkeypatch)
    assert conjecture_scan(family, 60).json_text() == cold
    assert calls


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
    with pytest.raises(ValueError, match="need at least one sample"):
        verify_suite(samples=0)


def test_verify_suite_reads_the_same_cold_and_warm():
    cold = json_document(verify_suite(100))
    assert json_document(verify_suite(100)) == cold


def test_verify_suite_stays_within_its_integrand_call_budget(monkeypatch):
    # one call per seed or popped panel on the 21 Kronrod abscissae, both
    # children of an outer panel in one call: 42 integrand calls, nested
    # ones included
    calls = []
    panels = intop.oracle._panels

    def counted(f, lo, hi):
        def g(x):
            calls.append(x.size)
            return f(x)
        return panels(g, lo, hi)

    monkeypatch.setattr(intop.oracle, "_panels", counted)
    suite = verify_suite(100)
    assert len(calls) <= 400
    assert suite["all_passed"]
    assert all(suite[key]["passed"] for key in (
        "positivity_identity", "norm_bound", "derivative_range",
        "half_line_pairing", "integral_chain", "spectrum_scan",
        "numerical_range"))


def test_suite_stops_an_identity_at_its_first_failing_draw(monkeypatch):
    # the first three positivity calls are the suite's worked examples; the
    # random draws come as one stacked call, whose third row fails and ends
    # that identity's draws: the suite keeps no row after it
    positivity, derivative, seen = [], [], []
    real_derivative = intop.verify.check_derivative_range

    def fake_positivity(g, interval, tol=1e-9):
        reports = []
        for value in np.ravel(g(2.0)).tolist():
            seen.append(value)
            gap = 0.5 if len(seen) == 6 else 1e-3 * tol
            reports.append(IdentityReport("re_cumulative_pairing", 1.0 + gap, 1.0, tol))
        positivity[:] = seen[:6]
        return tuple(reports) if np.ndim(g(2.0)) == 2 else reports[0]

    def recording_derivative(f, fprime, interval):
        derivative.extend(np.ravel(f(2.0)).tolist())
        return real_derivative(f, fprime, interval)

    monkeypatch.setattr(intop.verify, "check_positivity_identity", fake_positivity)
    monkeypatch.setattr(intop.verify, "check_derivative_range", recording_derivative)
    suite = verify_suite(samples=5)
    entry = suite["positivity_identity"]
    assert entry["passed"] is False and suite["all_passed"] is False
    assert entry["random_worst_gap"] == 0.5
    assert len(seen) == 3 + 5
    rng = np.random.default_rng(DEFAULT_SEED)
    assert positivity[3:] == [P.polyval(2.0, rng.standard_normal(9)) for _ in range(3)]
    # the five derivative draws continue the same generator after those three
    expected = [P.polyval(2.0, P.polymul([0.0, 1.0], rng.standard_normal(7)))
                for _ in range(5)]
    assert len(derivative) == 3 + 5
    assert [v for v in derivative if v in expected] == expected
    assert suite["derivative_range"]["passed"] is True


def _bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64).tolist()


@settings(max_examples=60)
@given(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=10),
                min_size=1, max_size=4),
       st.lists(st.floats(-2.0, 2.0), min_size=0, max_size=8))
def test_stacked_horner_matches_polyval_bit_for_bit(rows, xs):
    # degrees 0 to 9; shorter rows are padded with zero high coefficients,
    # as check_norm_bound pads its include rows
    x = np.array(xs + [0.0, -0.0, -2.0, 2.0])
    coeffs = np.zeros((len(rows), 10))
    for c, row in zip(coeffs, rows):
        c[:len(row)] = row
    stacked = intop.verify._horner(coeffs)(x)
    for got, row in zip(stacked, rows):
        assert _bits(got) == _bits(P.polyval(x, row))
        assert _bits(intop.verify._horner(row)(x)) == _bits(P.polyval(x, row))
        assert _bits(intop.verify._horner(row)(0.5)) == _bits(P.polyval(0.5, row))


@pytest.mark.parametrize("k, d", [(1, 9), (5, 9), (100, 7), (4, 4)])
def test_one_stacked_draw_is_the_rows_drawn_one_by_one(k, d):
    # verify_suite draws an identity's rows in one call and, after a failing
    # draw, rewinds and redraws fewer; both rely on this equality
    one, rows = np.random.default_rng(DEFAULT_SEED), np.random.default_rng(DEFAULT_SEED)
    stacked = one.standard_normal((k, d))
    for row in stacked:
        assert _bits(row) == _bits(rows.standard_normal(d))
    assert one.bit_generator.state == rows.bit_generator.state
