import numpy as np
import pytest

from intop.basis import IntervalMap, WeightFamily, build_basis
from intop.convolve import (ControlSpec, control_demo, control_inverse,
                            control_response, convolve, damped_bessel_symbol)
from intop.intmat import (ScalarSymbol, build_integration_matrices,
                          eigen_factorize, scale)
from intop.oracle import (QuadratureRequest, adaptive_integrate, bessel_j0,
                          direct_convolution, load_fixtures)

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
    ref = direct_convolution(lambda s: np.exp(alpha * s) * bessel_j0(s),
                             lambda t: np.exp(-0.7 * t), "-", imap,
                             eig.scaled.xi, tol=1e-12)
    assert np.abs(f - ref).max() < 1e-6


def test_symbol_matches_defining_integral():
    sym = damped_bessel_symbol(1.0)
    for y in (0.0, 0.7, -1.3):
        ref, _ = adaptive_integrate(QuadratureRequest(
            lambda t: np.exp(-1j * y * t) * np.exp(-t) * bessel_j0(t),
            0.0, 60.0, tol=1e-13))
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


def test_control_demo_deviations():
    rep = control_demo(5)
    assert rep.pipeline == "control"
    assert rep.max_coarse_error < THRESH["control_n5_vs_ref_coarse"]
    # diagonal recipe reproduces the closed-form factorization exactly
    assert rep.metadata["closed_form_deviation"] < 1e-12
    assert rep.metadata["imag_residue"] < 1e-12
    # the variant carrying the extra 1/(alpha + 1/lambda) factor is a
    # different operator; its distance is recorded, not asserted away
    assert 0.1 < rep.metadata["printed_variant_deviation"] < 0.3


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
