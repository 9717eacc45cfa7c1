import math

import numpy as np
import pytest

from intop.basis import IntervalMap, WeightFamily, build_basis
from intop.errors import NonContractionError
from intop.intmat import ScaledMatrix, build_integration_matrices, scale
from intop.ode import (OdeProblem, hermite_refine, picard_solve,
                       restart_extend, tangent_demo)
from intop.oracle import load_fixtures

THRESH = load_fixtures()["thresholds"]


def make_scaled(n, a, b):
    bas = build_basis(WeightFamily.legendre(), n)
    return scale(build_integration_matrices(bas), "+", IntervalMap(a, b))


@pytest.mark.parametrize("n", [9, 40, 60])
def test_linear_growth_equation(n):
    # y' = 2y, y(0) = 1: two restarts reach e^2 to rounding error, also at n
    # = 40 and 60, where each restart's seed is a degree 79 or 119 interpolant
    scaled = make_scaled(n, 0.0, 1.0)
    prob = OdeProblem(lambda t, y: 2.0 * y, 1.0)
    single = picard_solve(prob, scaled)
    assert single.converged
    assert np.abs(single.values - np.exp(2.0 * scaled.xi)).max() < 1e-7
    chain = restart_extend(prob, scaled, 2)
    assert chain.converged and len(chain.segments) == 2
    assert chain.endpoint_value == pytest.approx(math.e ** 2, abs=1e-12)


def test_hermite_refinement():
    scaled = make_scaled(9, 0.0, 1.0)
    prob = OdeProblem(lambda t, y: 2.0 * y, 1.0)
    res = picard_solve(prob, scaled)
    # reproduces the node values it was built from
    at_nodes = hermite_refine(prob, res, scaled, scaled.xi)
    np.testing.assert_allclose(at_nodes, res.values, atol=1e-13)
    # and lands within the node error budget everywhere else
    fine = np.linspace(0.0, 1.0, 23)
    assert np.abs(hermite_refine(prob, res, scaled, fine)
                  - np.exp(2.0 * fine)).max() < 1e-7


def test_tangent_demo_accuracy():
    rep = tangent_demo(5)
    assert rep.pipeline == "ode"
    assert rep.metadata["converged"]
    np.testing.assert_allclose(rep.coarse_exact, np.tan(rep.coarse_t), atol=0)
    assert rep.max_coarse_error < THRESH["ode_n5_max_node_error"]


@pytest.mark.parametrize("n, b", [
    pytest.param(5, 1e-300, id="1e-300"),
    pytest.param(5, 1e-150, id="1e-150"),
    pytest.param(30, 0.5, id="n30-0.5"),
    pytest.param(40, 0.5, id="n40-0.5"),
    pytest.param(60, 0.5, id="n60-0.5"),
])
def test_hermite_refinement_on_short_intervals(n, b):
    # divided differences of order 2n-1 in x would scale like b^-(2n-1) and
    # overflow; tan is x to rounding here, so the error is a few ulps of b.
    # From n = 30 tan's truncation error on (0, 0.5) is below rounding too.
    rep = tangent_demo(n, b=b)
    assert rep.metadata["hermite_max_fine_error"] <= 8 * np.finfo(np.float64).eps * b


def test_unscaled_iteration_is_not_contractive():
    # dropping the half-length factor leaves the raw (-1,1)-sized matrix,
    # whose Picard map grows; the solver must notice and raise
    imap = IntervalMap(0.0, 1.0)
    bas = build_basis(WeightFamily.legendre(), 5)
    mats = build_integration_matrices(bas)
    unscaled = ScaledMatrix(mats, "+", imap, mats.plus,
                            imap.forward(bas.nodes))
    prob = OdeProblem(lambda t, y: 1.0 + y * y, 0.0)
    with pytest.raises(NonContractionError):
        picard_solve(prob, unscaled)


def test_blowup_detection_near_pole():
    # tan blows up at pi/2; iterating on (0, 1.45) must diverge loudly
    scaled = make_scaled(5, 0.0, 1.45)
    prob = OdeProblem(lambda t, y: 1.0 + y * y, 0.0)
    with pytest.raises(NonContractionError):
        picard_solve(prob, scaled)


def test_chain_beats_single_segment():
    # on (0, 1.3) one segment stalls on a spurious fixed point; four
    # restarts track tan properly
    scaled = make_scaled(9, 0.0, 1.3)
    prob = OdeProblem(lambda t, y: 1.0 + y * y, 0.0)
    single = picard_solve(prob, scaled, max_iter=400)
    single_err = np.abs(single.values - np.tan(scaled.xi)).max()
    chain = restart_extend(prob, scaled, 4)
    chain_err = np.abs(chain.values - np.tan(chain.nodes)).max()
    assert chain.converged
    assert single_err > THRESH["ode_min_chain_improvement"] * chain_err


def test_chain_at_forty_nodes():
    # each restart is seeded from the Hermite value at the segment end; at
    # n = 40 the chain still lands on tan(1.3) to rounding error
    chain = restart_extend(OdeProblem(lambda t, y: 1.0 + y * y, 0.0),
                           make_scaled(40, 0.0, 1.3), 4)
    assert chain.converged
    assert chain.endpoint_value == pytest.approx(math.tan(1.3), abs=1e-12)
