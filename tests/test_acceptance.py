"""Acceptance gate: one test per shipped claim, at the stated tolerances.

Run `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion; each test prints the measured numbers next to its threshold.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import j0

from intop.basis import IntervalMap, WeightFamily, build_basis
from intop.convolve import (ControlSpec, control_demo, control_inverse,
                            control_response)
from intop.errors import NonContractionError
from intop.intmat import (ScaledMatrix, build_integration_matrices,
                          eigen_factorize, scale)
from intop.invert import (ScalarSymbol, fourier_demo, laplace_demo,
                          laplace_invert)
from intop.ode import OdeProblem, picard_solve, tangent_demo
from intop.oracle import (adaptive_integrate, direct_convolution,
                          load_fixtures)
from intop.verify import conjecture_scan, verify_suite
from intop.wiener_hopf import exp_kernel_demo
from intop.cli import main as cli_main

THRESH = load_fixtures()["thresholds"]


class Stopwatch:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            print(f"  runtime {self.elapsed:.2f}s (limit {self.limit}s)")
            assert self.elapsed < self.limit, \
                f"runtime {self.elapsed:.2f}s exceeded {self.limit}s"


def test_criterion_01_structural_identities():
    # complement identity and row sums, entrywise to 1e-12, n = 2..12
    with Stopwatch(1.0):
        worst_total, worst_rows = 0.0, 0.0
        for n in range(2, 13):
            bas = build_basis(WeightFamily.legendre(), n)
            mats = build_integration_matrices(bas)
            total = np.outer(np.ones(n), bas.gauss_weights)
            worst_total = max(worst_total,
                              np.abs(mats.plus + mats.minus - total).max())
            worst_rows = max(worst_rows,
                             np.abs(mats.plus @ np.ones(n)
                                    - (bas.nodes + 1.0)).max())
        print(f"  complement gap {worst_total:.3e}, row-sum gap "
              f"{worst_rows:.3e} (tol 1e-12)")
        assert worst_total <= 1e-12
        assert worst_rows <= 1e-12


def test_criterion_02_spectrum_right_half_plane_and_bounded():
    # Re(lambda) > 0 and |lambda| <= 2/sqrt(2) for n = 1..40
    with Stopwatch(5.0):
        rep = conjecture_scan(WeightFamily.legendre(), 40)
        bound = 2.0 / math.sqrt(2.0)
        max_mod = max(abs(complex(re, im)) for row in rep.to_payload()["per_n"]
                      for re, im in row["eigs"])
        print(f"  min Re {rep.min_re_overall:.3e} (> 0), max |lambda| "
              f"{max_mod:.12f} (bound {bound:.12f})")
        assert rep.min_re_overall > 0.0
        assert not rep.violations and not rep.inconclusive
        assert max_mod <= bound + 1e-12


def test_criterion_03_fourier_inversion_demo():
    with Stopwatch(1.0):
        rep = fourier_demo(5)
        limit = min(1e-2, THRESH["ft_n5_max_fine_error"])
        print(f"  n=5 max fine error {rep.max_fine_error:.3e} "
              f"(tol {limit:.1e})")
        assert rep.max_fine_error <= limit


def test_criterion_04_laplace_inversion_demo_and_refinement():
    with Stopwatch(1.0):
        coarse = laplace_demo(5)
        fine = laplace_demo(11)
        factor = THRESH["lt_min_refinement_factor"]
        print(f"  n=5 max node error {coarse.max_coarse_error:.3e} "
              f"(tol {THRESH['lt_n5_max_coarse_error']:.1e}); fine-mesh "
              f"{coarse.max_fine_error:.3e} -> {fine.max_fine_error:.3e} "
              f"(>= {factor:g}x)")
        assert coarse.max_coarse_error <= THRESH["lt_n5_max_coarse_error"]
        assert fine.max_fine_error <= coarse.max_fine_error / factor


def test_criterion_05_collapse_exactness():
    # F(s) = 1/s and 1/s^2 reduce to polynomial identities in C
    with Stopwatch(1.0):
        imap = IntervalMap(0.0, 2.0)
        bas = build_basis(WeightFamily.legendre(), 5)
        eig = eigen_factorize(scale(build_integration_matrices(bas), "+",
                                    imap))
        worst = 0.0
        for k, exact in ((1, np.ones(5)), (2, eig.scaled.xi)):
            sym = ScalarSymbol(lambda s, k=k: (1.0 / np.asarray(s)) ** k, "right")
            f = laplace_invert(sym, eig)
            worst = max(worst, np.abs(f - exact).max())
        print(f"  max node deviation {worst:.3e} (tol 1e-11)")
        assert worst <= 1e-11


def test_criterion_06_control_demo_reference_oracle_roundtrip():
    with Stopwatch(5.0):
        rep = control_demo(5)
        print(f"  n=5 vs interpolated n=11 reference "
              f"{rep.max_coarse_error:.3e} "
              f"(tol {THRESH['control_n5_vs_ref_coarse']:.1e})")
        assert rep.max_coarse_error <= THRESH["control_n5_vs_ref_coarse"]

        alpha, beta = 1.0, 0.7
        imap = IntervalMap(0.0, 3.0)
        bas = build_basis(WeightFamily.legendre(), 11)
        eig = eigen_factorize(scale(build_integration_matrices(bas), "-",
                                    imap))
        spec_ = ControlSpec(alpha, beta)
        response = control_response(spec_, eig)
        oracle = direct_convolution(
            lambda s: np.exp(alpha * s) * j0(s),
            lambda t: np.exp(-beta * t), "-", imap, eig.scaled.xi, tol=1e-12)
        gap = np.abs(response - oracle).max()
        print(f"  n=11 vs direct quadrature {gap:.3e} "
              f"(tol {THRESH['control_n11_vs_oracle']:.1e})")
        assert gap <= THRESH["control_n11_vs_oracle"]

        demand = np.exp(-beta * eig.scaled.xi)
        back = control_inverse(spec_, eig, response)
        rt = np.abs(back - demand).max()
        print(f"  inverse-design round trip {rt:.3e} "
              f"(tol {THRESH['control_roundtrip']:.1e})")
        assert rt <= THRESH["control_roundtrip"]


def test_criterion_07_ode_demo_and_noncontraction_detection():
    with Stopwatch(1.0):
        rep = tangent_demo(5)
        print(f"  n=5 max node error {rep.max_coarse_error:.3e} "
              f"(tol {THRESH['ode_n5_max_node_error']:.1e}), iterations "
              f"{rep.metadata['iterations']}")
        assert rep.metadata["converged"]
        assert rep.metadata["final_delta"] <= 1e-12
        assert rep.max_coarse_error <= THRESH["ode_n5_max_node_error"]

        # same equation on (0, 1) with the raw, unscaled matrix: the
        # iteration map is no longer a contraction and must say so
        imap = IntervalMap(0.0, 1.0)
        bas = build_basis(WeightFamily.legendre(), 5)
        mats = build_integration_matrices(bas)
        unscaled = ScaledMatrix(mats, "+", imap, mats.plus,
                                imap.forward(bas.nodes))
        prob = OdeProblem(lambda t, y: 1.0 + y * y, 0.0)
        with pytest.raises(NonContractionError):
            picard_solve(prob, unscaled)
        print("  unscaled variant raised NonContractionError")


def test_criterion_08_wiener_hopf_demo():
    with Stopwatch(1.0):
        def demand(t):
            return 2.0 * math.exp(-0.5) * t * np.exp(t * t - t)

        def exact(t):
            return demand(t) - math.sinh(0.5) * np.exp(-t)

        worst = 0.0
        for x in np.linspace(0.1, 0.9, 5):
            conv, _ = adaptive_integrate(
                lambda t: -np.exp(-(x - t)) * exact(t), 0.0, 1.0, tol=1e-13)
            worst = max(worst, abs(exact(x) - conv - demand(x)))
        print(f"  continuous-equation residual of exact solution "
              f"{worst:.3e} (tol 1e-10)")
        assert worst <= 1e-10

        rep = exp_kernel_demo(5)
        print(f"  n=5 max node error {rep.max_coarse_error:.3e} "
              f"(tol {THRESH['wh_n5_max_node_error']:.1e})")
        assert rep.max_coarse_error <= THRESH["wh_n5_max_node_error"]
        g_inf = np.abs(demand(rep.coarse_t)).max()
        tol = THRESH["wh_residual_rel"] * g_inf
        print(f"  system residual {rep.metadata['residual']:.3e} (tol {tol:.3e})")
        assert rep.metadata["residual"] <= tol


def test_criterion_09_verification_suite():
    with Stopwatch(30.0):
        out = verify_suite(samples=100)
        for key in ("positivity_identity", "derivative_range",
                    "integral_chain"):
            block = out[key]
            assert block["passed"], key
        assert out["norm_bound"]["passed"]
        pairing = out["half_line_pairing"]
        assert pairing["re_target"] == pytest.approx(-math.pi / 4.0)
        assert pairing["im_target"] == pytest.approx(0.5)
        re_errs = [row[3] for row in pairing["rows"]]  # [T, re, im, re-, im-err]
        im_errs = [row[4] for row in pairing["rows"]]
        assert re_errs == sorted(re_errs, reverse=True)
        assert im_errs == sorted(im_errs, reverse=True)
        flat = out["integral_chain"]["flat_example"]
        print(f"  identity worst gap "
              f"{out['positivity_identity']['random_worst_gap']:.2e}, "
              f"bound margin "
              f"{out['norm_bound']['bound'] - out['norm_bound']['max_ratio']:.2e}, "
              f"flat chain {flat[0]:.3f} <= {flat[1]:.3f} <= {flat[2]:.3f}")
        print(f"  half-line errors re {re_errs} im {im_errs}")
        assert out["all_passed"]


def test_criterion_10_cli_determinism(tmp_path):
    commands = [
        ["matrices", "--family", "legendre", "--n", "5"],
        ["eigs", "--family", "legendre", "--n", "5"],
        ["ft-invert"],
        ["lt-invert"],
        ["control"],
        ["ode"],
        ["wiener-hopf"],
        ["conjecture"],
        ["verify"],
    ]
    for argv in commands:
        first = tmp_path / (argv[0] + ".1")
        second = tmp_path / (argv[0] + ".2")
        assert cli_main(argv + ["--out", str(first)]) == 0, argv
        assert cli_main(argv + ["--out", str(second)]) == 0, argv
        assert first.read_bytes() == second.read_bytes(), argv
    print(f"  {len(commands)} subcommands byte-identical across reruns")
