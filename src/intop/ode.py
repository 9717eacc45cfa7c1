"""Initial-value problems by fixed-point iteration on the integral form.

y' = f(x, y), y(a) = y0 becomes Y = y0 + C f(xi, Y) at the collocation
points; the iteration contracts when the interval (through the eigenvalue
scale of C) and the Lipschitz constant of f cooperate, and the restart
driver splits the interval when it does not. Between nodes the solution is
the Hermite interpolant of the node values and the slopes f(xi, Y), in the
barycentric form on the Lagrange cardinals of basis.interpolate; each
restart is seeded from its value at the segment end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (IntervalMap, WeightFamily, _barycentric_matrix,
                    barycentric_weights, build_basis, interpolate)
from .errors import NonContractionError
from .intmat import ScaledMatrix, build_integration_matrices, scale
from .report import SolveReport

__all__ = [
    "OdeProblem",
    "PicardResult",
    "ChainResult",
    "picard_solve",
    "hermite_refine",
    "restart_extend",
    "tangent_demo",
]


@dataclass(frozen=True)
class OdeProblem:
    """Right-hand side f(x, y) (array-aware) and initial value; the interval
    is that of the scaled matrix the problem is solved on."""

    rhs: object
    y0: float


@dataclass(frozen=True)
class PicardResult:
    values: np.ndarray
    iterations: int
    final_delta: float
    converged: bool


@dataclass(frozen=True)
class ChainResult:
    """Segment-restarted solve: concatenated nodes/values plus the parts."""

    nodes: np.ndarray
    values: np.ndarray
    segments: tuple
    endpoint_value: float
    converged: bool


def picard_solve(problem: OdeProblem, scaled: ScaledMatrix, tol: float = 1e-12,
                 max_iter: int = 200) -> PicardResult:
    """Iterate Y <- y0 + C f(xi, Y) from the constant start until the sup-norm
    update drops below tol.

    Divergence (non-finite values, or the update growing tenfold across five
    straight increases) raises NonContractionError; running out of
    iterations returns converged=False instead.
    """
    xi = scaled.xi
    y = np.full(xi.size, float(problem.y0))
    deltas = []
    for it in range(1, max_iter + 1):
        with np.errstate(all="ignore"):  # overflow surfaces as NonContractionError
            rhs = np.asarray(problem.rhs(xi, y), dtype=np.float64)
            y_next = problem.y0 + scaled.C @ rhs
        if not (np.all(np.isfinite(rhs)) and np.all(np.isfinite(y_next))):
            raise NonContractionError(
                f"iteration produced non-finite values at step {it}; "
                "shrink the interval and restart")
        delta = float(np.max(np.abs(y_next - y)))
        deltas.append(delta)
        y = y_next
        if delta < tol:
            return PicardResult(y, it, delta, True)
        if (len(deltas) > 5 and deltas[-1] > 10.0 * deltas[-6]
                and all(d2 > d1 for d1, d2 in zip(deltas[-6:-1], deltas[-5:]))):
            raise NonContractionError(
                f"update grew from {deltas[-6]:.3e} to {deltas[-1]:.3e} over five "
                "iterations; shrink the interval and restart")
    return PicardResult(y, max_iter, deltas[-1], False)


def hermite_refine(problem: OdeProblem, result: PicardResult,
                   scaled: ScaledMatrix, points) -> np.ndarray:
    """Evaluate the degree 2n-1 interpolant matching values and slopes.

    Slopes at the nodes come from the differential equation itself,
    f(xi, Y). The interpolant is the barycentric Hermite form (Schneider &
    Werner 1991) on the Lagrange cardinals l_j that basis.interpolate uses,
    in the reference coordinate of (-1, 1): h_j = l_j^2 (1 - 2 l_j'(x_j)
    (t - x_j)) carries the values and g_j = (t - x_j) l_j^2 the slopes. The
    sum is divided by sum_j h_j, which is 1 in exact arithmetic, so rounding
    in l_j cancels as in the second barycentric form.
    """
    imap = scaled.imap
    x = scaled.basis.nodes
    slope = imap.half_length * np.asarray(problem.rhs(scaled.xi, result.values),
                                          dtype=np.float64)
    t = imap.inverse(np.atleast_1d(np.asarray(points, dtype=np.float64)))
    ell_sq = _barycentric_matrix(x, barycentric_weights(x), t) ** 2
    gaps = x[:, None] - x[None, :]
    np.fill_diagonal(gaps, np.inf)
    offset = t[:, None] - x[None, :]
    h = ell_sq * (1.0 - 2.0 * np.sum(1.0 / gaps, axis=1) * offset)
    return (h @ result.values + (offset * ell_sq) @ slope) / np.sum(h, axis=1)


def restart_extend(problem: OdeProblem, scaled: ScaledMatrix, segments: int,
                   tol: float = 1e-12, max_iter: int = 200) -> ChainResult:
    """Solve on `segments` equal pieces of the interval of `scaled`, seeding
    each start from the previous segment's refined endpoint value."""
    if segments < 1:
        raise ValueError("need at least one segment")
    edges = np.linspace(scaled.imap.a, scaled.imap.b, segments + 1)
    nodes_all = []
    values_all = []
    parts = []
    y_start = float(problem.y0)
    for lo, hi in zip(edges[:-1], edges[1:]):
        imap_seg = IntervalMap(float(lo), float(hi))
        seg_scaled = scale(scaled.source, scaled.side, imap_seg)
        seg_problem = OdeProblem(problem.rhs, y_start)
        res = picard_solve(seg_problem, seg_scaled, tol=tol, max_iter=max_iter)
        parts.append(res)
        nodes_all.append(seg_scaled.xi)
        values_all.append(res.values)
        y_start = float(hermite_refine(seg_problem, res, seg_scaled, [hi])[0])
    return ChainResult(np.concatenate(nodes_all), np.concatenate(values_all),
                       tuple(parts), y_start, all(p.converged for p in parts))


def tangent_demo(n: int = 5, fine_points: int = 100, a: float = 0.0,
                 b: float = 0.5) -> SolveReport:
    """y' = 1 + y^2, y(0) = 0: recover tan on (0, b)."""
    imap = IntervalMap(a, b)
    bas = build_basis(WeightFamily.legendre(), n)
    scaled = scale(build_integration_matrices(bas), "+", imap)
    problem = OdeProblem(lambda x, y: 1.0 + y * y, 0.0)
    res = picard_solve(problem, scaled)
    fine = np.linspace(a, b, fine_points)
    meta = {"ode": "y' = 1 + y^2", "exact_kind": "closed_form",
            "iterations": res.iterations, "final_delta": res.final_delta,
            "converged": res.converged,
            "hermite_max_fine_error": float(np.abs(
                hermite_refine(problem, res, scaled, fine) - np.tan(fine)).max())}
    return SolveReport("ode", n, a, b, scaled.xi, np.tan(scaled.xi), res.values,
                       fine, np.tan(fine), interpolate(bas, imap, res.values, fine),
                       meta)
