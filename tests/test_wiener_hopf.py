import contextlib
import io
import math
import warnings

import numpy as np
import pytest

from discrete_exact import wiener_hopf_nodes
from intop.basis import IntervalMap, WeightFamily, build_basis
from intop.cli import main
from intop.errors import PoleEvaluationError
from intop.intmat import (ScalarSymbol, build_integration_matrices,
                          eigen_factorize, matrix_function, scale,
                          symbol_on_spectrum)
from intop.oracle import adaptive_integrate, load_fixtures
from intop.wiener_hopf import _exp_kernel_half, exp_kernel_demo, solve

THRESH = load_fixtures()["thresholds"]
EPS = np.finfo(np.float64).eps


def exact_solution(t):
    return demand(t) - math.sinh(0.5) * np.exp(-t)


def demand(t):
    return 2.0 * math.exp(-0.5) * t * np.exp(t * t - t)


def make_pair(n, a=0.0, b=1.0):
    mats = build_integration_matrices(build_basis(WeightFamily.legendre(), n))
    imap = IntervalMap(a, b)
    return scale(mats, "+", imap), scale(mats, "-", imap)


def test_exact_solution_satisfies_continuous_equation():
    # residual of f(x) - int_0^1 k(x-t) f(t) dt - g(x) with k(s) = -e^{-s}
    for x in np.linspace(0.05, 0.95, 9):
        conv, _ = adaptive_integrate(
            lambda t: -np.exp(-(x - t)) * exact_solution(t), 0.0, 1.0,
            tol=1e-13)
        residual = exact_solution(x) - conv - demand(x)
        assert abs(residual) < 1e-10, x


def test_exact_solution_on_a_shifted_interval():
    # on (a, b) the solution is g - c e^{-t} with
    # c = e^{-1/2} (e^{b^2} - e^{a^2}) / (1 + b - a): the demo's exact column
    # satisfies the equation there, and the demo reaches it at n = 20
    a, b = -0.5, 0.5
    c = math.exp(-0.5) * (math.exp(b * b) - math.exp(a * a)) / (1.0 + b - a)
    rep = exp_kernel_demo(20, a=a, b=b)
    for x, exact in zip(rep.coarse_t[::4], rep.coarse_exact[::4]):
        conv, _ = adaptive_integrate(
            lambda t: -np.exp(-(x - t)) * (demand(t) - c * np.exp(-t)), a, b,
            tol=1e-13)
        assert abs(exact - conv - demand(x)) < 1e-10, x
    assert rep.max_coarse_error <= 1e-14


def test_demo_against_exact_solution():
    rep = exp_kernel_demo(5)
    assert rep.pipeline == "wiener_hopf"
    np.testing.assert_allclose(rep.coarse_exact, exact_solution(rep.coarse_t),
                               atol=1e-14)
    assert rep.max_coarse_error < THRESH["wh_n5_max_node_error"]
    assert rep.metadata["residual"] < 1e-9
    assert not rep.metadata["nonunique"]
    plus, minus = make_pair(5)
    k_plus, k_minus = _exp_kernel_half(plus), _exp_kernel_half(minus)
    g = demand(plus.xi)
    assert solve(k_plus, k_minus, g).imag_residue < 1e-12
    # the flipped-sign assembly (I - K+ + K-) f = g lands far away
    alt = np.linalg.lstsq(np.eye(5) - k_plus + k_minus, g, rcond=None)[0]
    assert np.abs(alt - rep.coarse_exact).max() > 0.1


def test_imag_residue_survives_large_solutions():
    # on (0, 25) the solution reaches ~1e240; every value is finite, the real
    # solve of the demo's halves reports no imaginary residue, and neither
    # does the complex one, whose residue is scaled before it is squared
    rep = exp_kernel_demo(5, b=25.0)
    assert np.all(np.isfinite(rep.coarse_computed))
    plus, minus = make_pair(5, b=25.0)
    k_plus, k_minus = _exp_kernel_half(plus), _exp_kernel_half(minus)
    g = demand(plus.xi)
    result = solve(k_plus, k_minus, g)
    assert result.imag_residue == 0.0
    np.testing.assert_array_equal(result.values, rep.coarse_computed)
    assert solve(k_plus, k_minus, g.astype(np.complex128)).imag_residue < 1e-12


def test_solver_accuracy_improves_with_n():
    coarse = exp_kernel_demo(5).max_coarse_error
    fine = exp_kernel_demo(11).max_coarse_error
    assert fine < coarse


@pytest.mark.parametrize("n", [11, 16, 20, 40, 60])
def test_exact_kernel_reaches_rounding(n):
    # the exact halves leave only the collocation error, which is below
    # rounding from n = 11
    assert exp_kernel_demo(n).max_coarse_error <= 1e-14


@pytest.mark.parametrize("n", [5, 11, 15, 20])
def test_demo_matches_the_discrete_exact_section(n):
    # the same double C+, C- and g solved in 40 digits; c = 2 in c n eps |f|
    # (measured: at most 0.19 n eps |f| for these n)
    plus, minus = make_pair(n)
    ref = wiener_hopf_nodes(plus.C, minus.C, demand(plus.xi))
    got = exp_kernel_demo(n).coarse_computed
    assert np.abs(got - ref).max() <= 2 * n * EPS * np.abs(ref).max()


def test_direct_solve_path():
    # K+ through the eigen route, the way a kernel with no rational transform
    # enters, agrees with its solve; the mixed section solves the demo
    plus, minus = make_pair(7)
    eig = eigen_factorize(plus)
    khat = ScalarSymbol(lambda y: -1.0 / (1.0 - 1j * np.asarray(y)), "upper")
    k_plus = matrix_function(eig, symbol_on_spectrum(eig, khat, "fourier"))
    np.testing.assert_allclose(k_plus, _exp_kernel_half(plus), atol=1e-12)
    g = demand(plus.xi)
    result = solve(k_plus, _exp_kernel_half(minus), g)
    assert result.residual < THRESH["wh_residual_rel"] * np.abs(g).max()
    assert result.sigma_min > 1e-3 * result.sigma_max
    assert result.imag_residue < 1e-12
    assert np.abs(result.values - exact_solution(plus.xi)).max() < 1e-8


def test_rank_deficient_system_flags_nonunique():
    # K+ = u u^T kills the direction u of I - K+ while the rest stay one
    u = np.ones(5) / math.sqrt(5.0)
    result = solve(np.outer(u, u), np.zeros((5, 5)), np.zeros(5))
    assert result.sigma_max > 0.1
    assert result.nonunique
    assert result.residual < 1e-10


def test_shape_validation():
    k, g = np.zeros((4, 4)), np.zeros(4)
    for args in ((np.zeros((3, 3)), k, g), (k, np.zeros((4, 3)), g),
                 (k, k, np.zeros(5)), (k, k, np.zeros((4, 1)))):
        with pytest.raises(ValueError):
            solve(*args)


def test_pole_of_the_left_branch_exits_two():
    # K- = -(I - C-)^{-1} C- has a pole where C- = (b/2) A- has the
    # eigenvalue 1: at n = 5, b = 2/lam_r for the real eigenvalue lam_r of
    # A- (about 0.27422). The solve there would give finite values far off.
    plus, minus = make_pair(5)
    lam = np.linalg.eigvals(minus.source.minus)
    b = 2.0 / float(lam[np.argmin(np.abs(lam.imag))].real)
    with pytest.raises(PoleEvaluationError):
        _exp_kernel_half(make_pair(5, b=b)[1])
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["wiener-hopf", f"--b={b!r}"])
    assert code == 2
    assert err.getvalue().startswith("intop: numerical failure: kernel transform has a pole")
    assert out.getvalue() == ""
    # at n = 1 on (0, 2), C- is 1 to within an ulp: I - C- is rounding alone
    with pytest.raises(PoleEvaluationError):
        _exp_kernel_half(make_pair(1, b=2.0)[1])
