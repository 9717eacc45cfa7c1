import math

import mpmath
import numpy as np
import pytest

from intop.basis import IntervalMap, WeightFamily, build_basis
from intop.intmat import (ScalarSymbol, build_integration_matrices,
                          eigen_factorize, scale)
from intop.oracle import QuadratureRequest, adaptive_integrate, load_fixtures
from intop.wiener_hopf import (WienerHopfProblem, _expm1_over, exp_kernel_demo,
                               solve, truncated_exp_kernel_symbols)

THRESH = load_fixtures()["thresholds"]


def exact_solution(t):
    return demand(t) - math.sinh(0.5) * np.exp(-t)


def demand(t):
    return 2.0 * math.exp(-0.5) * t * np.exp(t * t - t)


def make_pair(n, a=0.0, b=1.0):
    bas = build_basis(WeightFamily.legendre(), n)
    mats = build_integration_matrices(bas)
    imap = IntervalMap(a, b)
    return (eigen_factorize(scale(mats, "+", imap)),
            eigen_factorize(scale(mats, "-", imap)))


def test_symbols_match_their_defining_integrals():
    # k(t) = -e^{-t} split at the fold: plus transform integrates t in (0, 2),
    # minus transform t in (-2, 0); both must match brute quadrature.
    plus, minus = truncated_exp_kernel_symbols()
    assert plus.region in ("upper", "entire")
    assert minus.region in ("lower", "entire")
    for y in (0.0, 0.7, -1.3, 2.3):
        ref_p, _ = adaptive_integrate(QuadratureRequest(
            lambda t: -np.exp(1j * y * t) * np.exp(-t), 0.0, 60.0, tol=1e-13))
        assert abs(plus(y) - ref_p) < 1e-12, y
        ref_m, _ = adaptive_integrate(QuadratureRequest(
            lambda t: -np.exp(1j * y * t) * np.exp(-t), -2.0, 0.0, tol=1e-13))
        assert abs(minus(y) - ref_m) < 1e-11, y


def test_expm1_over_keeps_its_digits_near_zero():
    # (e^{2z} - 1)/z against 40 digits on |z| in [1e-12, 3]. The real part of
    # complex expm1 cancels by at most a factor 3 on this disc, so a few
    # roundings stay below 8 eps.
    radii = np.geomspace(1e-12, 3.0, 200)
    angles = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
    z = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    worst = 0.0
    with mpmath.workdps(40):
        for zi, got in zip(z, _expm1_over(z)):
            w = mpmath.mpc(zi.real, zi.imag)
            ref = mpmath.expm1(2 * w) / w
            worst = max(worst, float(abs(mpmath.mpc(got.real, got.imag) - ref) / abs(ref)))
    assert worst <= 8 * np.finfo(np.float64).eps
    # the removable point is reached: wiener-hopf at n = 1 on (0, 2) has C = 1
    assert _expm1_over(np.array([0.0])) == 2.0


def test_diagonal_values_have_closed_forms():
    # evaluations the solver actually uses: plus at i/lam, minus at -i/lam
    plus, minus = truncated_exp_kernel_symbols()
    for lam in (0.31 + 0.17j, 0.5, 0.08 - 0.2j):
        u = -(1.0 + 1.0 / lam)
        assert abs(plus(1j / lam) - 1.0 / u) < 1e-12
        v = -(1.0 - 1.0 / lam)
        w = np.exp(-v) * np.sinh(v) / v
        assert abs(minus(-1j / lam) - (-2.0 * w)) < 1e-12


def test_exact_solution_satisfies_continuous_equation():
    # residual of f(x) - int_0^1 k(x-t) f(t) dt - g(x) with k(s) = -e^{-s}
    for x in np.linspace(0.05, 0.95, 9):
        conv, _ = adaptive_integrate(QuadratureRequest(
            lambda t: -np.exp(-(x - t)) * exact_solution(t), 0.0, 1.0,
            tol=1e-13))
        residual = exact_solution(x) - conv - demand(x)
        assert abs(residual) < 1e-10, x


def test_demo_against_exact_solution():
    rep = exp_kernel_demo(5)
    assert rep.pipeline == "wiener_hopf"
    np.testing.assert_allclose(rep.coarse_exact, exact_solution(rep.coarse_t),
                               atol=1e-14)
    assert rep.max_coarse_error < THRESH["wh_n5_max_node_error"]
    assert rep.metadata["residual"] < 1e-9
    assert not rep.metadata["nonunique"]
    assert rep.metadata["imag_residue"] < 1e-12
    # the flipped-sign assembly lands far away; recorded as a diagnostic
    assert rep.metadata["alt_sign_error"] > 0.1


def test_imag_residue_survives_large_solutions():
    # on (0, 25) the solution reaches ~1e240, so its sum of squares would
    # overflow; every value is finite and the residue stays at roundoff
    rep = exp_kernel_demo(5, b=25.0)
    assert np.all(np.isfinite(rep.coarse_computed))
    assert rep.metadata["imag_residue"] < 1e-12


def test_solver_accuracy_improves_with_n():
    coarse = exp_kernel_demo(5).max_coarse_error
    fine = exp_kernel_demo(11).max_coarse_error
    assert fine < coarse


def test_direct_solve_path():
    plus, minus = truncated_exp_kernel_symbols()
    eig_p, eig_m = make_pair(7)
    problem = WienerHopfProblem(plus, minus, demand)
    result = solve(problem, eig_p, eig_m)
    assert result.residual < 1e-9 * np.abs(demand(eig_p.scaled.xi)).max()
    assert result.sigma_min > 1e-3 * result.sigma_max
    err = np.abs(result.values - exact_solution(eig_p.scaled.xi)).max()
    assert err < 1e-3


def test_rank_deficient_system_flags_nonunique():
    eig_p, eig_m = make_pair(5)
    # a plus symbol equal to 1 at exactly one eigenvalue argument kills one
    # direction of I - K+ while the rest stay order one
    lam0 = eig_p.values[0]
    probe = ScalarSymbol(lambda y: (1j / np.asarray(y)) / lam0, "entire")
    zero = ScalarSymbol(lambda y: np.zeros_like(np.asarray(y, dtype=complex)),
                        "entire")
    problem = WienerHopfProblem(probe, zero, lambda t: np.zeros_like(t))
    result = solve(problem, eig_p, eig_m)
    assert result.sigma_max > 0.1
    assert result.nonunique
    assert result.residual < 1e-10


def test_side_and_region_validation():
    plus, minus = truncated_exp_kernel_symbols()
    eig_p, eig_m = make_pair(4)
    lower_only = ScalarSymbol(lambda y: np.zeros_like(np.asarray(y,
                                                      dtype=complex)),
                              "lower")
    upper_only = ScalarSymbol(lambda y: np.zeros_like(np.asarray(y,
                                                      dtype=complex)),
                              "upper")
    with pytest.raises(ValueError):
        solve(WienerHopfProblem(plus, minus, demand), eig_m, eig_p)
    with pytest.raises(ValueError):
        solve(WienerHopfProblem(lower_only, minus, demand), eig_p, eig_m)
    with pytest.raises(ValueError):
        solve(WienerHopfProblem(plus, upper_only, demand), eig_p, eig_m)
    _, other_m = make_pair(4, 0.0, 2.0)
    with pytest.raises(ValueError):
        solve(WienerHopfProblem(plus, minus, demand), eig_p, other_m)
