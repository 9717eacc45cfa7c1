"""Independent reference computations used to cross-check the collocation path.

Nothing in here touches the integration matrices. Quadrature is one adaptive
bisection with Gauss rules over a list of breakpoints, in the manner of
QUADPACK's qagp: adaptive_integrate(f, a, b, tol) gives a definite
integral, and running_integral(f, a, points, tol) gives int_a^x f at many x
from a single bisection; both tag an (x - a)^g endpoint singularity with
left_exponent=g. The integrand is called once per Gauss rule on the
abscissae of every seed panel (one per gap between breakpoints) together.
After that, adaptive_integrate gives each bisection child calls of its own,
while running_integral, whose integrand must be pointwise, evaluates the
next three bisection levels below a panel in one call per rule. Convolutions
are integrated pointwise.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from pathlib import Path

import numpy as np

from .errors import OracleError

__all__ = [
    "adaptive_integrate",
    "direct_convolution",
    "load_fixtures",
    "running_integral",
]

_GAUSS_LO = np.polynomial.legendre.leggauss(10)
_GAUSS_HI = np.polynomial.legendre.leggauss(21)

_MAX_DEPTH = 40
# Bisection levels below a popped panel that running_integral evaluates in
# one call per rule (2 + 4 + 8 panels). A call costs about 50 us of numpy
# overhead whatever its size; verify_suite(100) makes 1,344 / 707 / 494 / 388
# inner calls at 1 / 2 / 3 / 4 levels, and a fourth level saves no time.
_LOOKAHEAD = 3
_MAX_INTERVALS = 200_000
# Roundoff floor as a multiple of eps * integral of |f| (QUADPACK's resabs).
_ROUNDOFF = 50.0 * np.finfo(np.float64).eps


def _panels(f, lo, hi):
    """Return (values, error estimates, integrals of |f|) for the panels
    [lo[i], hi[i]] as Python lists.

    f is called once per Gauss rule (10-point, then 21-point) on the
    abscissae of every panel together. Value and error come from the 10/21
    pair; the integral of |f| reuses the 21-point evaluations. Each row is
    summed and each error taken as a scalar would be, so a panel gets the
    same bits whichever panels share its call.
    """
    mid = (0.5 * (lo + hi))[:, None]
    rad = 0.5 * (hi - lo)

    def rule(nodes):
        x = (mid + rad[:, None] * nodes).ravel()
        return np.asarray(f(x)).reshape(len(rad), len(nodes))

    v_lo = rad * np.add.reduce(_GAUSS_LO[1] * rule(_GAUSS_LO[0]), axis=1)
    f_hi = rule(_GAUSS_HI[0])
    v_hi = rad * np.add.reduce(_GAUSS_HI[1] * f_hi, axis=1)
    mag = rad * np.add.reduce(_GAUSS_HI[1] * np.abs(f_hi), axis=1)
    # np.abs of a complex array can differ in the last bit from the scalar
    # abs, which is hypot
    diff = v_hi - v_lo
    return v_hi.tolist(), np.hypot(diff.real, diff.imag).tolist(), mag.tolist()


def _fsum(vals):
    """Correctly rounded sum of Python (or numpy) scalars, complex if any is."""
    value = math.fsum([v.real for v in vals])
    if any(isinstance(v, complex) for v in vals):
        value = value + 1j * math.fsum([v.imag for v in vals])
    return value


def _stall(reason: str, heap, total_err: float, tol: float, total_mag: float):
    return OracleError(
        f"adaptive quadrature {reason} after {len(heap)} panels (value "
        f"{_fsum([item[5] for item in heap]):.16g}, error estimate {total_err:.3e}, "
        f"tol {tol:.3e}, roundoff floor {_ROUNDOFF * total_mag:.3e})")


def _bisections(f, lo, hi, levels: int):
    """{(l, h): (value, error, mag)} for the panels of the next `levels`
    bisections below [lo, hi], from one _panels call."""
    bounds, level = [], [(lo, hi)]
    for _ in range(levels):
        level = [half for l, h in level
                 for half in ((l, 0.5 * (l + h)), (0.5 * (l + h), h))]
        bounds += level
    l, h = np.array(bounds).T
    return dict(zip(bounds, zip(*_panels(f, l, h))))


def _adaptive(f, edges, tol: float, pointwise: bool = False):
    """Bisect one heap seeded with a panel per gap between consecutive edges
    until the error estimate summed over all gaps is at or below
    max(tol, roundoff floor). Returns (value of each gap, summed estimate).

    pointwise says that f's value at an abscissa does not depend on the
    other abscissae of its call. Then a popped panel whose halves are not yet
    known has its next _LOOKAHEAD levels (at most down to _MAX_DEPTH)
    evaluated in one _panels call; since _panels gives a panel the same bits
    in any company, the heap sees exactly the values and pops it would see
    with one call per child.
    """
    edges = np.asarray(edges, dtype=np.float64)
    gaps = np.flatnonzero(edges[:-1] < edges[1:])
    tie = itertools.count()
    heap = []
    if len(gaps):
        lo, hi = edges[gaps], edges[gaps + 1]
        seeds = zip(*_panels(f, lo, hi), lo.tolist(), hi.tolist(), gaps.tolist())
        heap = [(-err, next(tie), l, h, 0, val, mag, gap)
                for val, err, mag, l, h, gap in seeds]
    heapq.heapify(heap)
    total_err = math.fsum(-item[0] for item in heap)
    total_mag = math.fsum(item[6] for item in heap)
    known = {}
    while total_err > max(tol, _ROUNDOFF * total_mag):
        if len(heap) > _MAX_INTERVALS:
            raise _stall(f"exceeded {_MAX_INTERVALS} panels", heap,
                         total_err, tol, total_mag)
        if heap[0][4] >= _MAX_DEPTH:
            lo, hi = heap[0][2:4]
            raise _stall(f"stalled at depth {_MAX_DEPTH} on [{lo!r}, {hi!r}]",
                         heap, total_err, tol, total_mag)
        neg_err, _, lo, hi, depth, v, m, gap = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if pointwise:
            if (lo, mid) not in known:
                known.update(_bisections(
                    f, lo, hi, min(_LOOKAHEAD, _MAX_DEPTH - depth)))
            (v1, e1, m1), (v2, e2, m2) = known.pop((lo, mid)), known.pop((mid, hi))
        else:
            # one call per child: an integrand that runs a running_integral
            # over its abscissae (the outer rules in verify) would round
            # differently if handed both children at once
            (v1,), (e1,), (m1,) = _panels(f, np.array([lo]), np.array([mid]))
            (v2,), (e2,), (m2,) = _panels(f, np.array([mid]), np.array([hi]))
        heapq.heappush(heap, (-e1, next(tie), lo, mid, depth + 1, v1, m1, gap))
        heapq.heappush(heap, (-e2, next(tie), mid, hi, depth + 1, v2, m2, gap))
        total_err += e1 + e2 + neg_err
        total_mag += m1 + m2 - m
    parts = [[] for _ in range(len(edges) - 1)]
    for item in heap:
        parts[item[7]].append(item[5])
    return [_fsum(vals) for vals in parts], total_err


def _desingularized(f, a: float, b: float, exponent: float, left: bool):
    """Substitute away an endpoint singularity (x-a)^g or (b-x)^g, g > -1.

    With s the distance to the singular end and u = s^(1+g), the pullback
    integrand f(x(u)) * du-Jacobian is bounded at u = 0, so plain bisection
    converges at full rate afterwards.
    """
    p = 1.0 / (1.0 + exponent)
    # end +- u**p rounds onto the singular end itself once u**p < ulp(end);
    # keep evaluations one float inside so singular factors stay finite, and
    # on the left at most b, which running_integral sets to its largest point.
    end, sign, lo, hi = ((a, 1.0, np.nextafter(a, b), b) if left
                         else (b, -1.0, -np.inf, np.nextafter(b, a)))

    def g(u):
        return f(np.clip(end + sign * u ** p, lo, hi)) * p * u ** (p - 1.0)
    return g, 0.0, (b - a) ** (1.0 + exponent)


def adaptive_integrate(f, a: float, b: float, tol: float,
                       left_exponent: float | None = None,
                       right_exponent: float | None = None):
    """int_a^b f to the absolute tolerance tol or the roundoff floor.

    f must accept a 1-d ndarray of abscissae and return an ndarray (real or
    complex) of the same shape. Each call holds the abscissae of one panel,
    so f may itself run a running_integral over them (running_integral
    hands many panels to one call and needs a pointwise integrand).
    left_exponent / right_exponent tag integrable endpoint singularities:
    exponent g > -1 means f behaves like (x - a)^g (resp. (b - x)^g) there,
    and the integral is transformed to remove the singularity before
    bisection starts.

    Bisection stops once the error estimate is at or below
    max(tol, 50 * eps * integral of |f|); the second term is the roundoff
    floor (QUADPACK's resabs test), below which the 10-vs-21-point
    difference is rounding noise that bisection cannot shrink.
    Returns (value, error_estimate); the estimate is the heap sum of local
    10-vs-21-point Gauss differences, a conservative bound in practice, and
    it exceeds tol when the floor decided the stop. Raises OracleError when
    bisection cannot reach the tolerance or the floor; the message gives the
    panels used, the value reached and the floor.
    """
    if not b > a:
        raise ValueError("integration bounds must satisfy a < b")
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    if left_exponent is not None and right_exponent is not None:
        mid = 0.5 * (a + b)
        g1, lo1, hi1 = _desingularized(f, a, mid, left_exponent, left=True)
        g2, lo2, hi2 = _desingularized(f, mid, b, right_exponent, left=False)
        (v1,), e1 = _adaptive(g1, (lo1, hi1), 0.5 * tol)
        (v2,), e2 = _adaptive(g2, (lo2, hi2), 0.5 * tol)
        return v1 + v2, e1 + e2
    if left_exponent is not None:
        f, a, b = _desingularized(f, a, b, left_exponent, left=True)
    elif right_exponent is not None:
        f, a, b = _desingularized(f, a, b, right_exponent, left=False)
    (value,), err = _adaptive(f, (a, b), tol)
    return value, err


def running_integral(f, a: float, points, tol: float,
                     left_exponent: float | None = None):
    """int_a^x f at every x of the 1-d points, returned in the caller's order.

    The sorted points are breakpoints of one bisection over [a, max x], and
    the values are cumulative sums of the gap values (0 for x <= a). The
    stopping rule bounds the error estimate summed over all gaps, so every
    value meets tol or the roundoff floor. left_exponent tags an (x - a)^g
    singularity as in adaptive_integrate; it is substituted away once for the
    whole range, and f is never evaluated beyond the largest point. a and
    every point must be finite (ValueError otherwise).

    f must be pointwise: one call holds the abscissae of many panels (every
    seed panel, then up to three bisection levels below a panel), and f's
    value at each abscissa may not depend on the others in its call.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    x = np.asarray(points, dtype=np.float64)
    if not (np.isfinite(a) and np.isfinite(x).all()):
        raise ValueError("a and every point must be finite")
    x = np.maximum(x, a)
    order = np.argsort(x)
    edges = np.concatenate(([a], x[order]))
    if left_exponent is not None:
        f, _, _ = _desingularized(f, a, edges[-1], left_exponent, left=True)
        edges = (edges - a) ** (1.0 + left_exponent)
    values, _ = _adaptive(f, edges, tol, pointwise=True)
    return np.cumsum(values)[np.argsort(order)]


def direct_convolution(kernel, g, side, imap, points, tol: float = 1e-10):
    """Brute-force one-sided convolution values at the given points.

    side '+' integrates kernel(x - t) g(t) over (a, x); side '-' over (x, b).
    Every point gets its own adaptive quadrature at the requested tolerance.
    """
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    a, b = imap.a, imap.b
    out = np.empty(len(points))
    for i, x in enumerate(points):
        def f(t, _x=x):
            return kernel(_x - t) * g(t)
        lo, hi = (a, x) if side == "+" else (x, b)
        if hi <= lo:
            out[i] = 0.0
            continue
        val, _ = adaptive_integrate(f, lo, hi, tol)
        out[i] = val
    return out


def load_fixtures() -> dict:
    """Locked thresholds and reference values recorded from oracle runs."""
    path = Path(__file__).with_name("fixtures.json")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
