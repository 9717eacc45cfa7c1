import math

import numpy as np
import pytest

from discrete_exact import fourier_nodes
from intop.basis import IntervalMap, WeightFamily, build_basis, interpolate
from intop.convolve import control_demo
from intop.intmat import (ScalarSymbol, build_integration_matrices,
                          eigen_factorize, scale)
from intop.invert import (fourier_demo, fourier_invert, laplace_demo,
                          laplace_invert)
from intop.ode import tangent_demo
from intop.oracle import load_fixtures
from intop.wiener_hopf import exp_kernel_demo

THRESH = load_fixtures()["thresholds"]
EPS = np.finfo(np.float64).eps


def make_eig(n, a, b, side="+"):
    bas = build_basis(WeightFamily.legendre(), n)
    return eigen_factorize(scale(build_integration_matrices(bas), side,
                                 IntervalMap(a, b)))


def test_fourier_demo_accuracy_and_route_gap():
    rep = fourier_demo(5)
    assert rep.pipeline == "ft_invert" and rep.n == 5
    np.testing.assert_allclose(rep.coarse_exact, np.exp(-rep.coarse_t),
                               atol=0)
    assert rep.max_fine_error < THRESH["ft_n5_max_fine_error"]
    # rational transform: the demo outputs the solve of (I + C) f = 1, and
    # the eigen route of fourier_invert agrees with it
    eig = make_eig(5, 0.0, 4.0)
    np.testing.assert_array_equal(
        rep.coarse_computed, np.linalg.solve(np.eye(5) + eig.scaled.C, np.ones(5)))
    symbol = ScalarSymbol(lambda y: 1.0 / (1.0 - 1j * np.asarray(y)), "upper")
    assert np.abs(fourier_invert(symbol, eig) - rep.coarse_computed).max() < 1e-9


def test_fourier_demo_converges_with_n():
    assert fourier_demo(11).max_fine_error < 1e-6


@pytest.mark.parametrize("n", [20, 40, 60])
def test_fourier_demo_reaches_rounding(n):
    assert fourier_demo(n).max_coarse_error <= 1e-14


@pytest.mark.parametrize("n", [5, 11, 15, 20])
def test_fourier_demo_matches_the_discrete_exact_solve(n):
    # the same double C solved in 40 digits; c = 2 in c n eps |f| (measured:
    # at most 0.19 n eps |f| for these n)
    ref = fourier_nodes(make_eig(n, 0.0, 4.0).scaled.C)
    got = fourier_demo(n).coarse_computed
    assert np.abs(got - ref).max() <= 2 * n * EPS * np.abs(ref).max()


def test_fourier_plus_custom_transform():
    # 1/(1-iy)^2 is the one-sided transform of t e^{-t}
    eig = make_eig(8, 0.0, 4.0)
    sym = ScalarSymbol(lambda y: 1.0 / (1.0 - 1j * np.asarray(y)) ** 2,
                       "upper")
    out = fourier_invert(sym, eig)
    exact = eig.scaled.xi * np.exp(-eig.scaled.xi)
    assert np.abs(out - exact).max() < 1e-4


def test_fourier_minus_mirror():
    # right-running side recovers g(t) = e^{-(b-t)} from 1/(1+iy)
    eig = make_eig(8, 0.0, 3.0, side="-")
    sym = ScalarSymbol(lambda y: 1.0 / (1.0 + 1j * np.asarray(y)), "lower")
    out = fourier_invert(sym, eig)
    exact = np.exp(-(3.0 - eig.scaled.xi))
    assert np.abs(out - exact).max() < 1e-5


def test_laplace_demo_refines():
    coarse = laplace_demo(5)
    fine = laplace_demo(11)
    assert coarse.max_coarse_error < THRESH["lt_n5_max_coarse_error"]
    assert fine.max_fine_error < coarse.max_fine_error / \
        THRESH["lt_min_refinement_factor"]


@pytest.mark.parametrize("b", [1e-12, 1e-300])
def test_laplace_demo_keeps_its_digits_on_short_intervals(b):
    # the eigenvalues of C scale like b, so the transform is taken at
    # |s| ~ 1/b; 1/2 - arctan(s/pi)/pi lost 1.2e-2 at b = 1e-12 and 10.5
    # at 1e-300 to cancellation there
    rep = laplace_demo(5, b=b)
    assert rep.max_coarse_error < 1e-12
    assert rep.max_fine_error < 1e-12


@pytest.mark.parametrize("demo, length", [(fourier_demo, 4.0), (laplace_demo, 2.0)])
@pytest.mark.parametrize("shift", [1.0, -0.5, 7.25])
@pytest.mark.parametrize("n", [5, 11])
def test_demos_are_translation_invariant(demo, length, shift, n):
    # both demos recover a function of t - a, and C depends only on b - a,
    # so the error on (a, a + L) is the error on (0, L)
    base = demo(n, a=0.0, b=length)
    moved = demo(n, a=shift, b=shift + length)
    np.testing.assert_array_equal(moved.coarse_computed, base.coarse_computed)
    assert abs(moved.max_coarse_error - base.max_coarse_error) <= 1e-12
    assert abs(moved.max_fine_error - base.max_fine_error) <= 1e-12


def test_laplace_collapse_on_monomials():
    # F(s) = s^{-k} makes the transform argument collapse to powers of C,
    # so node values of xi^{k-1}/(k-1)! come out to rounding error.
    n = 6
    eig = make_eig(n, 0.0, 2.0)
    for k in range(1, n):
        sym = ScalarSymbol(lambda s, k=k: (1.0 / np.asarray(s)) ** k, "right")
        f = laplace_invert(sym, eig)
        exact = eig.scaled.xi ** (k - 1) / math.factorial(k - 1)
        assert np.abs(f - exact).max() < 1e-11, k


def test_kind_and_region_validation():
    eig_plus = make_eig(3, 0.0, 1.0)
    eig_minus = make_eig(3, 0.0, 1.0, side="-")
    upper = ScalarSymbol(lambda y: np.ones_like(np.asarray(y, dtype=complex)),
                         "upper")
    lower = ScalarSymbol(lambda y: np.ones_like(np.asarray(y, dtype=complex)),
                         "lower")
    right = ScalarSymbol(lambda s: np.ones_like(np.asarray(s, dtype=complex)),
                         "right")
    with pytest.raises(ValueError):
        fourier_invert(lower, eig_plus)
    with pytest.raises(ValueError):
        fourier_invert(upper, eig_minus)
    with pytest.raises(ValueError):
        fourier_invert(right, eig_plus)
    with pytest.raises(ValueError):
        laplace_invert(upper, eig_plus)
    with pytest.raises(ValueError):
        laplace_invert(right, eig_minus)


@pytest.mark.parametrize("demo, a, b", [(fourier_demo, 1.0, 3.0), (laplace_demo, 0.5, 1.5),
                                        (control_demo, 0.5, 2.5), (tangent_demo, 0.25, 0.75),
                                        (exp_kernel_demo, -0.5, 0.5)],
                         ids=lambda v: getattr(v, "__name__", None))
def test_demo_report_frame(demo, a, b):
    # every demo reports its nodes mapped to (a, b), the equispaced fine mesh,
    # and the barycentric interpolant of its node values there
    n, fine_points = 7, 33
    report = demo(n=n, fine_points=fine_points, a=a, b=b)
    imap = IntervalMap(a, b)
    bas = build_basis(WeightFamily.legendre(), n)
    assert np.array_equal(report.coarse_t, imap.forward(bas.nodes))
    assert np.array_equal(report.fine_t, np.linspace(a, b, fine_points))
    assert np.array_equal(report.fine_computed,
                          interpolate(bas, imap, report.coarse_computed, report.fine_t))
