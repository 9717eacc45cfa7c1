"""Independent reference computations used to cross-check the collocation path.

Nothing in here touches the integration matrices. Quadrature is one adaptive
bisection with Gauss rules over a list of breakpoints, in the manner of
QUADPACK's qagp: adaptive_integrate gives a definite integral, and
running_integral gives int_a^x f at many x from a single bisection. The
Bessel evaluation is series/asymptotic, and convolutions are integrated
pointwise.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import OracleError

__all__ = [
    "QuadratureRequest",
    "adaptive_integrate",
    "bessel_j0",
    "direct_convolution",
    "load_fixtures",
    "running_integral",
]

_GAUSS_LO = np.polynomial.legendre.leggauss(10)
_GAUSS_HI = np.polynomial.legendre.leggauss(21)

_MAX_DEPTH = 40
_MAX_INTERVALS = 200_000
# Roundoff floor as a multiple of eps * integral of |f| (QUADPACK's resabs).
_ROUNDOFF = 50.0 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class QuadratureRequest:
    """One definite integral.

    integrand must accept an ndarray of abscissae and return an ndarray
    (real or complex) of the same shape. tol is an absolute tolerance; the
    oracle meets it or the roundoff floor, whichever is larger (see
    adaptive_integrate). left_exponent / right_exponent tag integrable
    endpoint singularities: exponent g > -1 means the integrand behaves like
    (x - a)^g (resp. (b - x)^g) there, and the integral is transformed to
    remove the singularity before bisection starts.
    """

    integrand: Callable[[np.ndarray], np.ndarray]
    a: float
    b: float
    tol: float = 1e-12
    left_exponent: float | None = None
    right_exponent: float | None = None


def _panel(f, lo: float, hi: float):
    """Return (value, error estimate, integral of |f|) for one panel.

    Value and error come from a 10/21 Gauss pair; the integral of |f| reuses
    the 21-point evaluations.
    """
    mid = 0.5 * (lo + hi)
    rad = 0.5 * (hi - lo)
    v_lo = rad * np.sum(_GAUSS_LO[1] * f(mid + rad * _GAUSS_LO[0]))
    f_hi = f(mid + rad * _GAUSS_HI[0])
    v_hi = rad * np.sum(_GAUSS_HI[1] * f_hi)
    return v_hi, abs(v_hi - v_lo), rad * np.sum(_GAUSS_HI[1] * np.abs(f_hi))


def _fsum(vals):
    value = math.fsum(np.real(vals))
    if any(np.iscomplexobj(v) for v in vals):
        value = value + 1j * math.fsum(np.imag(vals))
    return value


def _stall(reason: str, heap, total_err: float, tol: float, total_mag: float):
    return OracleError(
        f"adaptive quadrature {reason} after {len(heap)} panels (value "
        f"{_fsum([item[5] for item in heap]):.16g}, error estimate {total_err:.3e}, "
        f"tol {tol:.3e}, roundoff floor {_ROUNDOFF * total_mag:.3e})")


def _adaptive(f, edges, tol: float):
    """Bisect one heap seeded with a panel per gap between consecutive edges
    until the error estimate summed over all gaps is at or below
    max(tol, roundoff floor). Returns (value of each gap, summed estimate).
    """
    tie = itertools.count()
    heap = []
    for gap, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        if lo < hi:
            val, err, mag = _panel(f, lo, hi)
            heap.append((-err, next(tie), lo, hi, 0, val, mag, gap))
    heapq.heapify(heap)
    total_err = math.fsum(-item[0] for item in heap)
    total_mag = math.fsum(item[6] for item in heap)
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
        v1, e1, m1 = _panel(f, lo, mid)
        v2, e2, m2 = _panel(f, mid, hi)
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
    span = b - a
    p = 1.0 / (1.0 + exponent)
    upper = span ** (1.0 + exponent)
    # u**p can round a + u**p onto the endpoint itself once u**p < ulp(a);
    # keep evaluations one float inside so singular factors stay finite, and
    # at most b, which running_integral sets to its largest point.
    if left:
        edge = np.nextafter(a, b)

        def g(u):
            return f(np.clip(a + u ** p, edge, b)) * p * u ** (p - 1.0)
    else:
        edge = np.nextafter(b, a)

        def g(u):
            return f(np.minimum(b - u ** p, edge)) * p * u ** (p - 1.0)
    return g, 0.0, upper


def adaptive_integrate(request: QuadratureRequest):
    """Integrate a request to its absolute tolerance or the roundoff floor.

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
    if not request.b > request.a:
        raise ValueError("integration bounds must satisfy a < b")
    if request.tol <= 0.0:
        raise ValueError("tolerance must be positive")
    f, a, b = request.integrand, request.a, request.b
    if request.left_exponent is not None and request.right_exponent is not None:
        mid = 0.5 * (a + b)
        g1, lo1, hi1 = _desingularized(f, a, mid, request.left_exponent, left=True)
        g2, lo2, hi2 = _desingularized(f, mid, b, request.right_exponent, left=False)
        (v1,), e1 = _adaptive(g1, (lo1, hi1), 0.5 * request.tol)
        (v2,), e2 = _adaptive(g2, (lo2, hi2), 0.5 * request.tol)
        return v1 + v2, e1 + e2
    if request.left_exponent is not None:
        f, a, b = _desingularized(f, a, b, request.left_exponent, left=True)
    elif request.right_exponent is not None:
        f, a, b = _desingularized(f, a, b, request.right_exponent, left=False)
    (value,), err = _adaptive(f, (a, b), request.tol)
    return value, err


def running_integral(f, a: float, points, tol: float,
                     left_exponent: float | None = None):
    """int_a^x f at every x of the 1-d points, returned in the caller's order.

    The sorted points are breakpoints of one bisection over [a, max x], and
    the values are cumulative sums of the gap values (0 for x <= a). The
    stopping rule bounds the error estimate summed over all gaps, so every
    value meets tol or the roundoff floor. left_exponent tags an (x - a)^g
    singularity as in QuadratureRequest; it is substituted away once for the
    whole range, and f is never evaluated beyond the largest point.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    x = np.maximum(np.asarray(points, dtype=np.float64), a)
    order = np.argsort(x)
    edges = np.concatenate(([a], x[order]))
    if left_exponent is not None:
        f, _, _ = _desingularized(f, a, edges[-1], left_exponent, left=True)
        edges = (edges - a) ** (1.0 + left_exponent)
    values, _ = _adaptive(f, edges, tol)
    return np.cumsum(values)[np.argsort(order)]


# Hankel coefficients for the large-argument form of J0: h[m+1] = -h[m]*(2m+1)^2/(4(m+1)).
_HANKEL_M = 30
_HANKEL = np.empty(_HANKEL_M + 1)
_HANKEL[0] = 1.0
for _m in range(_HANKEL_M):
    _HANKEL[_m + 1] = -_HANKEL[_m] * (2 * _m + 1) ** 2 / (4.0 * (_m + 1))

_J0_SWITCH = 15.0


def _j0_series(x):
    """Power series in 80-bit accumulation; cancellation-safe up to ~15."""
    q = -0.25 * np.asarray(x, dtype=np.longdouble) ** 2
    term = np.ones_like(q)
    acc = np.ones_like(q)
    for k in range(1, 80):
        term = term * q / (k * k)
        acc = acc + term
        if float(np.max(np.abs(term))) < 1e-20:
            break
    return acc.astype(np.float64)


def _j0_asymptotic(x):
    """Large-argument form sqrt(2/(pi x)) (P cos chi - Q sin chi), chi = x - pi/4.

    The P/Q series are truncated near their smallest term for x ~ 15; the
    omitted tail is below ~4e-13 there and falls off exponentially beyond.
    """
    x = np.asarray(x, dtype=np.float64)
    inv = 1.0 / (2.0 * x)
    p_sum = np.zeros_like(x)
    q_sum = np.zeros_like(x)
    sign = 1.0
    for k in range(0, _HANKEL_M + 1, 2):
        p_sum += sign * _HANKEL[k] * inv ** k
        if k + 1 <= _HANKEL_M:
            q_sum += sign * _HANKEL[k + 1] * inv ** (k + 1)
        sign = -sign
    chi = x - 0.25 * np.pi
    return np.sqrt(2.0 / (np.pi * x)) * (p_sum * np.cos(chi) - q_sum * np.sin(chi))


def bessel_j0(x):
    """Bessel function J0, series for |x| <= 15 and the asymptotic form beyond.

    Absolute error stays below 1e-12 on [0, 50]; J0 is even, so the sign of x
    is immaterial. Scalar in, float out; ndarray in, ndarray out.
    """
    scalar = np.isscalar(x)
    ax = np.abs(np.atleast_1d(np.asarray(x, dtype=np.float64)))
    out = np.empty_like(ax)
    small = ax <= _J0_SWITCH
    if np.any(small):
        out[small] = _j0_series(ax[small])
    if np.any(~small):
        out[~small] = _j0_asymptotic(ax[~small])
    return float(out[0]) if scalar else out


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
        val, _ = adaptive_integrate(QuadratureRequest(f, lo, hi, tol))
        out[i] = val
    return out


def load_fixtures() -> dict:
    """Locked thresholds and reference values recorded from oracle runs."""
    path = Path(__file__).with_name("fixtures.json")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
