import inspect

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import j0

from intop.basis import IntervalMap, WeightFamily, build_basis
from intop.convolve import (ControlSpec, control_demo, control_inverse,
                            control_response, convolve, damped_bessel_symbol)
from intop.intmat import (ScalarSymbol, apply_real, build_integration_matrices,
                          eigen_factorize, scale, symbol_on_spectrum)
from intop.oracle import (adaptive_integrate, direct_convolution,
                          load_fixtures)

THRESH = load_fixtures()["thresholds"]


def make_eig(n, a, b, side="+"):
    bas = build_basis(WeightFamily.legendre(), n)
    return eigen_factorize(scale(build_integration_matrices(bas), side,
                                 IntervalMap(a, b)))


EXP_SYMBOL = ScalarSymbol(lambda y: 1.0 / (1.0 - 1j * np.asarray(y)), "upper")


def test_left_running_exponential_kernel():
    # int_0^xi e^{-(xi-t)} dt = 1 - e^{-xi}
    eig = make_eig(8, 0.0, 2.0)
    f = convolve(EXP_SYMBOL, np.ones(8), eig)
    assert np.abs(f - (1.0 - np.exp(-eig.scaled.xi))).max() < 1e-6


def test_accuracy_improves_as_interval_shrinks():
    errs = []
    for b in (1.0, 0.5, 0.25):
        eig = make_eig(6, 0.0, b)
        f = convolve(EXP_SYMBOL, np.ones(6), eig)
        errs.append(np.abs(f - (1.0 - np.exp(-eig.scaled.xi))).max())
    assert errs[0] > errs[1] > errs[2]


def test_right_running_matches_quadrature():
    # damped oscillatory kernel has no elementary antiderivative, so check
    # against per-point adaptive quadrature
    alpha = 1.0
    sym = damped_bessel_symbol(alpha)
    assert sym.region == "lower"
    imap = IntervalMap(0.0, 3.0)
    eig = make_eig(8, 0.0, 3.0, side="-")
    g = np.exp(-0.7 * eig.scaled.xi)
    f = convolve(sym, g, eig)
    ref = direct_convolution(lambda s: np.exp(alpha * s) * j0(s),
                             lambda t: np.exp(-0.7 * t), "-", imap,
                             eig.scaled.xi, tol=1e-12)
    assert np.abs(f - ref).max() < 1e-6


def test_symbol_matches_defining_integral():
    sym = damped_bessel_symbol(1.0)
    for y in (0.0, 0.7, -1.3):
        ref, _ = adaptive_integrate(
            lambda t: np.exp(-1j * y * t) * np.exp(-t) * j0(t),
            0.0, 60.0, tol=1e-13)
        assert abs(sym(y) - ref) < 1e-12, y


def test_convolution_is_linear():
    eig = make_eig(8, 0.0, 3.0, side="-")
    sym = damped_bessel_symbol(1.0)
    rng = np.random.default_rng(3)
    g1, g2 = rng.standard_normal(8), rng.standard_normal(8)
    combo = convolve(sym, 2.0 * g1 - 0.5 * g2, eig)
    parts = 2.0 * convolve(sym, g1, eig) - 0.5 * convolve(sym, g2, eig)
    np.testing.assert_allclose(combo, parts, atol=1e-11)


def test_zero_input_gives_zero_output():
    eig = make_eig(5, 0.0, 3.0, side="-")
    f = convolve(damped_bessel_symbol(1.0), np.zeros(5), eig)
    assert np.abs(f).max() == 0.0


def test_side_region_and_interval_validation():
    eig_plus = make_eig(4, 0.0, 2.0)
    with pytest.raises(ValueError):
        convolve(damped_bessel_symbol(1.0), np.ones(4), eig_plus)  # lower vs side +
    with pytest.raises(ValueError):
        convolve(EXP_SYMBOL, np.ones(4),
                 make_eig(4, 0.0, 2.0, side="-"))  # upper vs side -


def test_control_fixture_records_the_demo_error():
    # measured against the closed-form exact column the demo reports on
    measured = load_fixtures()["measured"]["control_n5_vs_ref_coarse"]
    assert control_demo(5).max_coarse_error == pytest.approx(measured, rel=1e-9)


def test_control_demo_deviations():
    rep = control_demo(5)
    assert rep.pipeline == "control"
    assert rep.max_coarse_error < THRESH["control_n5_vs_ref_coarse"]
    assert rep.metadata["imag_residue"] < 1e-12
    # the demo's response, rebuilt from the symbol on the spectrum
    eig = make_eig(5, 0.0, 3.0, side="-")
    g = np.exp(-0.7 * eig.scaled.xi)
    phi = symbol_on_spectrum(eig, damped_bessel_symbol(1.0), "fourier")
    response, _ = apply_real(eig, phi, g)
    np.testing.assert_array_equal(response, rep.coarse_computed)
    # the diagonal recipe lam/d(lam), d = ((1+alpha^2) lam^2 + 2 alpha lam + 1)^(1/2)
    # at alpha = 1, reproduces the closed-form factorization exactly
    closed, _ = apply_real(eig, lambda lam: lam / np.sqrt(2 * lam * lam + 2 * lam + 1), g)
    assert np.abs(response - closed).max() < 1e-12
    # the printed variant, with an extra 1/(alpha + iy) = 1/(alpha + 1/lambda)
    # factor, is a different operator
    printed, _ = apply_real(eig, lambda lam: phi(lam) / (1.0 + 1.0 / lam), g)
    assert 0.1 < np.abs(response - printed).max() < 0.3


@pytest.mark.parametrize("alpha, beta, a, b", [
    (1.0, 0.7, 0.0, 3.0), (0.1, 0.7, 0.0, 30.0), (50.0, -0.5, 0.0, 3.0),
    (1.0, 0.7, 0.5, 2.5),
    (0.7, -0.7, 0.0, 3.0),  # alpha + beta = 0: F(L) = int_0^L J0
])
def test_control_exact_column_matches_quadrature(alpha, beta, a, b):
    # p(t) = int_t^b e^{alpha (t - tau)} J0(t - tau) e^{-beta tau} dtau
    #      = e^{-beta t} int_0^{b-t} e^{-(alpha + beta) u} J0(u) du
    rep = control_demo(5, fine_points=100, alpha=alpha, beta=beta, a=a, b=b)
    assert rep.metadata["exact_kind"] == "closed_form"
    t = np.concatenate([rep.coarse_t, rep.fine_t])
    exact = np.concatenate([rep.coarse_exact, rep.fine_exact])
    ref = np.array([np.exp(-beta * x) * quad(lambda u: np.exp(-(alpha + beta) * u) * j0(u),
                                             0.0, b - x, epsabs=1e-16, epsrel=1e-13,
                                             limit=200)[0] for x in t])
    assert np.abs(exact - ref).max() <= 1e-14 * np.abs(ref).max()


def test_control_demo_reports_its_true_error():
    # the exact column is not the demo's own order-11 solve, so n = 11 reports
    # the discretization error, not rounding
    rep = control_demo(11)
    assert 1e-11 < rep.max_coarse_error <= THRESH["control_n11_vs_oracle"]


def test_control_exact_column_for_a_huge_alpha():
    # once cL >> 1, F(L) is 1/c within a relative 1/(2 c^2); c^2 overflows
    # at c = 1e200, so the column would read 0 if the rule squared c
    rep = control_demo(alpha=1e200)
    expected = np.exp(-0.7 * rep.coarse_t) / (1e200 + 0.7)
    np.testing.assert_allclose(rep.coarse_exact, expected, rtol=1e-14, atol=0.0)


def test_control_exact_column_where_alpha_plus_beta_overflows():
    # c = alpha + beta = inf: F(L) <= 1/c vanishes, and F(0) = 0 at t = b
    # must not become inf * 0
    rep = control_demo(alpha=1e308, beta=1e308)
    assert np.all(rep.coarse_exact == 0.0) and np.all(rep.fine_exact == 0.0)


def test_control_spec_validation():
    with pytest.raises(ValueError):
        ControlSpec(0.0, 0.7)
    with pytest.raises(ValueError):
        ControlSpec(-1.0, 0.7)


def test_control_inverse_roundtrip():
    spec = ControlSpec(1.0, 0.7)
    eig = make_eig(8, 0.0, 3.0, side="-")
    response = control_response(spec, eig)
    demand = np.exp(-0.7 * eig.scaled.xi)
    back = control_inverse(spec, eig, response)
    assert np.abs(back - demand).max() < THRESH["control_roundtrip"]


def test_control_inverse_on_random_vectors():
    spec = ControlSpec(1.0, 0.4)
    eig = make_eig(7, 0.0, 2.0, side="-")
    rng = np.random.default_rng(11)
    sym = damped_bessel_symbol(1.0)
    for _ in range(3):
        p = rng.standard_normal(7)
        r = convolve(sym, p, eig)
        np.testing.assert_allclose(control_inverse(spec, eig, r), p,
                                   atol=1e-10)


def test_the_package_name_convolve_is_the_module():
    # the package does not import the function, which would shadow the module
    import intop.convolve as m
    assert inspect.ismodule(m)
    assert "convolve" in m.__all__
