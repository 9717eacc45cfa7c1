"""Initial-value problems by fixed-point iteration on the integral form.

y' = f(x, y), y(a) = y0 becomes Y = y0 + C f(xi, Y) at the collocation
points; the iteration contracts when the interval (through the eigenvalue
scale of C) and the Lipschitz constant of f cooperate, and the restart
driver splits the interval when it does not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import IntervalMap, WeightFamily, build_basis, interpolate
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
        y_next = problem.y0 + scaled.C @ np.asarray(problem.rhs(xi, y), dtype=np.float64)
        delta = float(np.max(np.abs(y_next - y)))
        if not np.all(np.isfinite(y_next)):
            raise NonContractionError(
                f"iteration produced non-finite values at step {it}; "
                "shrink the interval and restart")
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
    f(xi, Y); divided differences with doubled abscissae carry both. The
    table is built in the reference coordinate of (-1, 1): order-k
    differences in the physical one scale like half_length^-k and overflow
    on short intervals.
    """
    imap = scaled.imap
    xi = scaled.xi
    y = result.values
    slope = imap.half_length * np.asarray(problem.rhs(xi, y), dtype=np.float64)
    m = 2 * xi.size
    z = np.repeat(imap.inverse(xi), 2)
    coef = np.repeat(y, 2).astype(np.float64)
    # first divided-difference column; equal abscissae take the slope
    prev = coef.copy()
    col = np.empty(m - 1)
    col[0::2] = slope
    col[1::2] = (prev[2::2] - prev[1:-1:2]) / (z[2::2] - z[1:-1:2])
    table = [prev[0]]
    prev_col = col
    table.append(prev_col[0])
    for order in range(2, m):
        nxt = (prev_col[1:] - prev_col[:-1]) / (z[order:] - z[:-order])
        table.append(nxt[0])
        prev_col = nxt
    points = imap.inverse(np.atleast_1d(np.asarray(points, dtype=np.float64)))
    acc = np.full(points.shape, table[-1])
    for k in range(m - 2, -1, -1):
        acc = acc * (points - z[k]) + table[k]
    return acc


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
