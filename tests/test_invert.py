import math

import numpy as np
import pytest

from intop.basis import IntervalMap, WeightFamily, build_basis
from intop.intmat import (ScalarSymbol, build_integration_matrices,
                          eigen_factorize, scale)
from intop.invert import (fourier_demo, fourier_invert, laplace_demo,
                          laplace_invert)
from intop.oracle import load_fixtures

THRESH = load_fixtures()["thresholds"]


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
    # rational transform: eigen route must agree with solving (I + C) f = 1
    assert rep.metadata["matrix_route_gap"] < 1e-9


def test_fourier_demo_converges_with_n():
    assert fourier_demo(11).max_fine_error < 1e-6


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
