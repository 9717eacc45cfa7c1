"""Independent reference computations used to cross-check the collocation path.

Nothing in here touches the integration matrices. Quadrature is one adaptive
bisection with QUADPACK's 21-point Gauss-Kronrod rule over a list of
breakpoints, in the manner of its qagp: adaptive_integrate(f, a, b, tol)
gives a definite integral, with optional interior breakpoints at the kinks
of f, and running_integral(f, a, points, tol) gives int_a^x f at many x
from a single bisection whose breakpoints are the points; both tag an
(x - a)^g endpoint singularity with left_exponent=g, and adaptive_integrate
maps its breakpoints through the same substitution. The integrand is called
once on the Kronrod abscissae of every seed panel (one per gap between
breakpoints) together, and once per popped panel whose halves are not yet
known: on both halves for adaptive_integrate, and on the next three
bisection levels below the panel for running_integral, whose integrand must
be pointwise. An integrand may also return a (k, m) stack of k integrands
on its m abscissae: the rows share every call, but each row keeps its own
heap and stopping rule, so row i comes out bit for bit as it would alone.
Convolutions are integrated pointwise.
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

# QUADPACK's qk21 table (Piessens et al., 1983): the non-negative 21-point
# Kronrod abscissae on [-1, 1], outermost first, with their weights; xgk[1],
# xgk[3], ..., xgk[9] are the positive 10-point Gauss abscissae, weights wg.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208980140034, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
# ascending on [-1, 1]; the Gauss abscissae sit at the odd positions
_KRONROD_NODES = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_KRONROD_WEIGHTS = np.array(_WGK[:-1] + _WGK[::-1])
_GAUSS_WEIGHTS = np.array(_WG + _WG[::-1])

_MAX_DEPTH = 40
# Bisection levels below a popped panel that running_integral evaluates in
# one call (2 + 4 + 8 panels). A call costs about 50 us of numpy overhead
# whatever its size. verify_suite(100) makes 8 inner calls, all on seed
# panels, at any level; with no kinks handed to its integral chain, whose
# rows then bisect toward their roots, it makes 723 / 401 / 293 / 238 at
# 1 / 2 / 3 / 4 levels. adaptive_integrate takes one level: verify's outer
# integrands cost per abscissa, not per call, and three levels made
# check_half_line_pairing take 20.6 ms instead of 5.5 ms.
_LOOKAHEAD = 3
_MAX_INTERVALS = 200_000
# Roundoff floor as a multiple of eps * integral of |f| (QUADPACK's resabs).
_ROUNDOFF = 50.0 * np.finfo(np.float64).eps


def _panels(f, lo, hi):
    """Return (values, error estimates, integrals of |f|) for the panels
    [lo[i], hi[i]], each a list of rows of Python scalars, one per panel,
    and whether f returned a stack.

    f is called once on the 21 Kronrod abscissae of every panel together,
    and returns either one value per abscissa (one row) or a (k, m) stack of
    k rows. The value is the 21-point Kronrod sum; the error estimate is its
    distance to the 10-point Gauss sum over the odd positions of the same
    evaluations, and the integral of |f| reuses them too. Each row of each
    panel is summed and each error taken as a scalar would be, so a panel
    row gets the same bits whichever panels and rows share its call.
    """
    mid = (0.5 * (lo + hi))[:, None]
    rad = 0.5 * (hi - lo)
    fx = np.asarray(f((mid + rad[:, None] * _KRONROD_NODES).ravel()))
    fk = fx.reshape(-1, len(rad), _KRONROD_NODES.size)
    v_kr = rad * np.add.reduce(_KRONROD_WEIGHTS * fk, axis=2)
    v_gauss = rad * np.add.reduce(_GAUSS_WEIGHTS * fk[..., 1::2], axis=2)
    mag = rad * np.add.reduce(_KRONROD_WEIGHTS * np.abs(fk), axis=2)
    # np.abs of a complex array can differ in the last bit from the scalar
    # abs, which is hypot
    diff = v_kr - v_gauss
    return (v_kr.tolist(), np.hypot(diff.real, diff.imag).tolist(),
            mag.tolist(), fx.ndim > 1)


def _fsum(vals):
    """Correctly rounded sum of Python (or numpy) scalars, complex if any is."""
    value = math.fsum([v.real for v in vals])
    if any(isinstance(v, complex) for v in vals):
        # built from its parts: value + 1j * imag would turn an infinite
        # imaginary part into a NaN real part (0 * inf)
        value = complex(value, math.fsum([v.imag for v in vals]))
    return value


def _stall(reason: str, heap, total_err: float, tol: float, total_mag: float):
    return OracleError(
        f"adaptive quadrature {reason} after {len(heap)} panels (value "
        f"{_fsum([item[5] for item in heap]):.16g}, error estimate {total_err:.3e}, "
        f"tol {tol:.3e}, roundoff floor {_ROUNDOFF * total_mag:.3e})")


def _bisections(panels, lo, hi, levels: int):
    """{(l, h): (value, error, mag)} for the panels of the next `levels`
    bisections below [lo, hi], from one panels call."""
    bounds, level = [], [(lo, hi)]
    for _ in range(levels):
        level = [half for l, h in level
                 for half in ((l, 0.5 * (l + h)), (0.5 * (l + h), h))]
        bounds += level
    l, h = np.array(bounds).T
    return dict(zip(bounds, zip(*panels(l, h))))


def _bisect(panels, heap, n_gaps: int, tol: float, levels: int):
    """Bisect one row's heap of seed panels until its error estimate summed
    over all gaps is at or below max(tol, roundoff floor). panels(lo, hi)
    gives the row's (values, errors, mags) on the panels [lo[i], hi[i]].
    Returns (value of each of the n_gaps gaps, summed estimate).

    A popped panel whose halves are not yet known has its next `levels`
    bisection levels (at most down to _MAX_DEPTH) evaluated in one panels
    call, its two halves alone at levels=1. Since _panels gives a panel the
    same bits in any company, a pointwise integrand's heap sees exactly the
    values and pops it would see with one call per child at any number of
    levels; one that is not pointwise (verify's outer integrands run a
    running_integral over their abscissae) rounds with its call's company.
    """
    tie = itertools.count(len(heap))
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
        if (lo, mid) not in known:
            known.update(_bisections(panels, lo, hi, min(levels, _MAX_DEPTH - depth)))
        (v1, e1, m1), (v2, e2, m2) = known.pop((lo, mid)), known.pop((mid, hi))
        heapq.heappush(heap, (-e1, next(tie), lo, mid, depth + 1, v1, m1, gap))
        heapq.heappush(heap, (-e2, next(tie), mid, hi, depth + 1, v2, m2, gap))
        total_err += e1 + e2 + neg_err
        total_mag += m1 + m2 - m
    parts = [[] for _ in range(n_gaps)]
    for item in heap:
        parts[item[7]].append(item[5])
    return [_fsum(vals) for vals in parts], total_err


def _adaptive(f, edges, tol: float, levels: int = 1):
    """Integrate f over every gap between consecutive edges: seed a panel
    per gap, every row of a stacked f in one _panels call, then bisect each
    row that is not yet within max(tol, roundoff floor) on a heap of its own,
    `levels` bisection levels per call (see _bisect).

    Returns (value of each gap, summed estimate) for a one-row f, and for a
    stack of k rows a (gaps, k) array of values and a length-k array of
    estimates; row i is bit for bit what f's row i alone would give. A row
    that bisects evaluates the whole stack for each of its panels and keeps
    its own row. f is never called when every gap is empty; the result is
    then that of one row of zeros.
    """
    edges = np.asarray(edges, dtype=np.float64)
    gaps = np.flatnonzero(edges[:-1] < edges[1:])
    n_gaps = len(edges) - 1
    if not len(gaps):
        return [0.0] * n_gaps, 0.0
    lo, hi = edges[gaps], edges[gaps + 1]
    *seeds, stacked = _panels(f, lo, hi)
    gap_list = gaps.tolist()
    rows = []
    for row, (vals, errs, mags) in enumerate(zip(*seeds)):
        total_err = math.fsum(errs)
        if total_err <= max(tol, _ROUNDOFF * math.fsum(mags)):
            # one panel per gap: _fsum([v]) is v + 0.0 (so -0.0 becomes 0.0)
            parts = [0.0] * n_gaps
            for gap, v in zip(gap_list, vals):
                parts[gap] = v + 0.0 if isinstance(v, float) else _fsum([v])
            rows.append((parts, total_err))
            continue

        def panels(l, h, row=row):
            return tuple(s[row] for s in _panels(f, l, h)[:3])

        heap = [(-err, tie, l, h, 0, val, mag, gap) for tie, (val, err, mag, l, h, gap)
                in enumerate(zip(vals, errs, mags, lo.tolist(), hi.tolist(), gap_list))]
        rows.append(_bisect(panels, heap, n_gaps, tol, levels))
    if not stacked:
        return rows[0]
    values, errs = zip(*rows)
    return np.array(values).T, np.array(errs)


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


def _integrate(f, a: float, b: float, tol: float, pts, exponent=None,
               left: bool = True):
    """int_a^b f over the gaps between the sorted interior breakpoints pts,
    desingularized at a (left) or b (right) when exponent is given, with
    each breakpoint mapped through the same substitution as the ends; one
    gap's value is returned as it is and several are summed per row."""
    edges = (a, *pts, b)
    if exponent is not None:
        f, lo, hi = _desingularized(f, a, b, exponent, left)
        q = 1.0 + exponent
        edges = (lo, *sorted((p - a) ** q if left else (b - p) ** q for p in pts), hi)
    values, err = _adaptive(f, edges, tol)
    if len(values) == 1:
        return values[0], err
    if isinstance(values, list):
        return _fsum(values), err
    return np.array([_fsum(row) for row in values.T.tolist()]), err


def adaptive_integrate(f, a: float, b: float, tol: float,
                       left_exponent: float | None = None,
                       right_exponent: float | None = None,
                       breakpoints=()):
    """int_a^b f to the absolute tolerance tol or the roundoff floor.

    f must accept a 1-d ndarray of abscissae and return an ndarray (real or
    complex) of the same shape. The first call holds the abscissae of the
    seed panels and each later one those of the two halves of a popped
    panel, so f need not be pointwise: it may itself run a
    running_integral over its abscissae (running_integral hands up to 14
    panels to one call and needs a pointwise integrand).
    left_exponent / right_exponent tag integrable endpoint singularities:
    exponent g > -1 means f behaves like (x - a)^g (resp. (b - x)^g) there,
    and the integral is transformed to remove the singularity before
    bisection starts.

    breakpoints are interior points where f is not smooth, such as the
    kinks of |p| at the real roots of a polynomial p (QUADPACK qagp's
    points). Those strictly inside (a, b) are sorted, each gap between them
    gets its own seed panel, and the gap values are summed correctly
    rounded; a call left with none is the call without breakpoints, bit for
    bit. Under a tag they go through the same substitution as the ends: p
    becomes (p - a)^(1+g) on the left and (b - p)^(1+g) on the right, and
    with both tags each half of the midpoint split maps its own.

    f may instead return a (k, m) stack: k integrands on the call's m
    abscissae. value and error_estimate are then length-k arrays, and row
    i of each (its OracleError text included) is bit for bit what f's row i
    alone gives: all rows are seeded in one call, then each keeps its own
    heap and stopping rule. A row that bisects evaluates the whole stack
    for each of its panels and keeps its own row, so a stack pays off when
    its rows converge on their seed panels, as the verify suite's polynomial
    draws do (the Kronrod rule and its Gauss rule are exact for them, and
    breakpoints at their roots make |p| polynomial on every gap).

    Bisection stops once the error estimate is at or below
    max(tol, 50 * eps * integral of |f|); the second term is the roundoff
    floor (QUADPACK's resabs test), below which the Kronrod-vs-Gauss
    difference is rounding noise that bisection cannot shrink.
    Returns (value, error_estimate); the estimate is the heap sum of local
    |K21 - G10| differences (without QUADPACK's 1.5-power rescaling, which
    would shrink a small one), and it exceeds tol when the floor decided the
    stop. It is no bound when a kink of f sits inside a panel, where K21 and
    G10 can agree far better than either meets the integral: for
    x^-1/2 (1 - x)^-1/2 |(x - 0.2)(x - 0.7)| on (0, 1), both ends tagged and
    tol 1e-12, it reads 6.7e-13 against an error of 1.38e-11, and with
    breakpoints at 0.2 and 0.7 the error is 8.4e-15. Raises OracleError when
    bisection cannot reach the tolerance or the floor; the message gives the
    panels used, the value reached and the floor. a, b and every breakpoint
    must be finite (ValueError otherwise).
    """
    pts = np.asarray(breakpoints, dtype=np.float64).ravel()
    if not (math.isfinite(a) and math.isfinite(b) and np.isfinite(pts).all()):
        raise ValueError("a, b and every breakpoint must be finite")
    if not b > a:
        raise ValueError("integration bounds must satisfy a < b")
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    pts = sorted({p for p in pts.tolist() if a < p < b})
    if left_exponent is not None and right_exponent is not None:
        mid = 0.5 * (a + b)
        v1, e1 = _integrate(f, a, mid, 0.5 * tol, [p for p in pts if p < mid],
                            left_exponent, left=True)
        v2, e2 = _integrate(f, mid, b, 0.5 * tol, [p for p in pts if p > mid],
                            right_exponent, left=False)
        return v1 + v2, e1 + e2
    if left_exponent is not None:
        return _integrate(f, a, b, tol, pts, left_exponent, left=True)
    # untagged when right_exponent is None as well
    return _integrate(f, a, b, tol, pts, right_exponent, left=False)


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
    seed panel, then up to three bisection levels below a popped panel),
    and f's value at each abscissa may not depend on the others in its
    call. A stacked f, (k, m) values on m abscissae as in adaptive_integrate,
    gives a (k, len(points)) array whose row i is bit for bit f's row i
    alone.
    When no point lies above a, f is never called and the result is one row
    of zeros, which broadcasts against a stack.
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
    values, _ = _adaptive(f, edges, tol, _LOOKAHEAD)
    return np.cumsum(values, axis=0)[np.argsort(order)].T


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
