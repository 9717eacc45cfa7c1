"""Quadrature verification of the operator identities and the eigenvalue scan.

Every check here recomputes its quantities from scratch with the adaptive
oracle (or with plain dense eigensolves for the scans); nothing reuses the
matrix pipelines being verified. An inner indefinite integral at the
abscissae of an outer rule is one running_integral call per evaluation of
the outer integrand, not one quadrature per abscissa. Randomized suites draw
from a fixed default seed which is recorded in the returned reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .basis import IntervalMap, WeightFamily, build_basis
from .errors import NumericalError
from .intmat import ScaledMatrix, build_integration_matrices, scale
from .oracle import QuadratureRequest, adaptive_integrate, running_integral
from .report import _clean

__all__ = [
    "IdentityReport",
    "NormBoundReport",
    "TruncationRow",
    "HalfLineReport",
    "ChainReport",
    "ConjectureReport",
    "RangeSample",
    "DEFAULT_SEED",
    "check_positivity_identity",
    "check_norm_bound",
    "check_derivative_range",
    "check_half_line_pairing",
    "check_integral_chain",
    "conjecture_scan",
    "numerical_range_sample",
    "verify_suite",
]

DEFAULT_SEED = 20137


def _integral(f, a, b, tol, left=None, right=None):
    value, _ = adaptive_integrate(QuadratureRequest(
        f, a, b, tol=tol, left_exponent=left, right_exponent=right))
    return value


@dataclass(frozen=True)
class IdentityReport:
    """Two sides of one inner-product identity plus the verdict."""

    name: str
    lhs: float
    rhs: float
    tol: float

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def passed(self) -> bool:
        return self.gap <= self.tol


def check_positivity_identity(g, interval, tol: float = 1e-9) -> IdentityReport:
    """Re of the cumulative-integral pairing against half the squared total.

    Both the inner indefinite integral and the outer inner product are done
    by adaptive quadrature, so the check is independent of the collocation
    matrices. g must accept array arguments and may be complex-valued.
    """
    a, b = (float(interval[0]), float(interval[1]))
    inner_tol = tol * 1e-3 / max(b - a, 1.0)
    pairing = _integral(lambda x: np.conjugate(running_integral(g, a, x, inner_tol))
                        * np.asarray(g(x)), a, b, tol * 1e-1)
    total = _integral(g, a, b, inner_tol)
    return IdentityReport("re_cumulative_pairing", float(np.real(pairing)),
                          0.5 * abs(total) ** 2, tol)


@dataclass(frozen=True)
class NormBoundReport:
    """Observed operator-norm ratios of the cumulative integral on (a, b)."""

    bound: float
    max_ratio: float
    ratios: tuple
    skipped: int
    seed: int

    @property
    def passed(self) -> bool:
        return self.max_ratio <= self.bound + 1e-10


def check_norm_bound(samples: int, interval, n_poly: int = 8,
                     seed: int = DEFAULT_SEED, include=()) -> NormBoundReport:
    """Ratios ||cumulative integral of g||_2 / ||g||_2 over random polynomials.

    Each ratio must stay below (b - a)/sqrt(2); violating that raises. The
    `include` coefficient rows are checked ahead of the sampled ones, and a
    zero polynomial is skipped (counted, no ratio recorded).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    a, b = (float(interval[0]), float(interval[1]))
    bound = (b - a) / math.sqrt(2.0)
    rng = np.random.default_rng(seed)
    coeff_rows = [np.asarray(c, dtype=np.float64) for c in include]
    coeff_rows += [rng.standard_normal(n_poly + 1) for _ in range(samples)]
    ratios = []
    skipped = 0
    for coeffs in coeff_rows:
        norm_g2 = float(np.real(_integral(
            lambda x: P.polyval(x, coeffs) ** 2, a, b, 1e-13)))
        if norm_g2 < 1e-28:
            skipped += 1
            continue
        anti = P.polyint(coeffs)
        anti[0] -= P.polyval(a, anti)
        norm_j2 = float(np.real(_integral(
            lambda x: P.polyval(x, anti) ** 2, a, b, 1e-13)))
        ratio = math.sqrt(norm_j2 / norm_g2)
        if ratio > bound + 1e-10:
            raise AssertionError(
                f"norm ratio {ratio} exceeds the bound {bound} for degree-"
                f"{len(coeffs) - 1} coefficients {coeffs!r}")
        ratios.append(ratio)
    return NormBoundReport(bound, max(ratios, default=0.0), tuple(ratios),
                           skipped, seed)


def check_derivative_range(f, fprime, interval, tol: float = 1e-9) -> IdentityReport:
    """Re of the (f', f) pairing against half the squared boundary values.

    f must vanish at the left endpoint (that is what makes f' the preimage
    of f under the cumulative integral); both f and fprime take arrays.
    """
    a, b = (float(interval[0]), float(interval[1]))
    if abs(complex(np.asarray(f(a)).item())) > 1e-8:
        raise ValueError("f must vanish at the left endpoint")
    pairing = _integral(lambda x: np.conjugate(np.asarray(fprime(x))) * np.asarray(f(x)),
                        a, b, tol * 1e-2)
    fa = complex(np.asarray(f(a)).item())
    fb = complex(np.asarray(f(b)).item())
    return IdentityReport("re_derivative_pairing", float(np.real(pairing)),
                          0.5 * (abs(fb) ** 2 - abs(fa) ** 2), tol)


@dataclass(frozen=True)
class TruncationRow:
    T: float
    re: float
    im: float
    re_err: float
    im_err: float
    tol: float


@dataclass(frozen=True)
class HalfLineReport:
    """T-convergence of the half-line derivative pairing toward its targets.

    The real part converges to -pi * int y f(y)^2 dy, the imaginary part to
    (1/2) (int f)^2; only convergence in T is asserted, not a fixed gap.
    """

    rows: tuple
    re_target: float
    im_target: float

    @property
    def converged(self) -> bool:
        res = [r.re_err for r in self.rows]
        ims = [r.im_err for r in self.rows]
        shrinking = all(b2 <= b1 + 1e-12 for b1, b2 in zip(res, res[1:]))
        shrinking &= all(b2 <= b1 + 1e-12 for b1, b2 in zip(ims, ims[1:]))
        return shrinking and all(max(r.re_err, r.im_err) <= r.tol for r in self.rows)


def check_half_line_pairing(f, truncations=(2.0, 4.0, 8.0, 16.0), y_cut: float = 40.0,
                      panel_points: int = 12, tol_scale: float = 5.0) -> HalfLineReport:
    """Pair the transform's derivative against the transform on (0, T).

    F(x) = int_0^ycut e^{ixy} f(y) dy is formed on one fixed composite Gauss
    grid fine enough for the largest T (panel width <= pi/(2 T_max)), and
    conj(i F')(x) F(x) is integrated adaptively over (0, T) for each T. f
    must be real-valued with f and y*f integrable (decayed out by y_cut).
    """
    ts = sorted(float(t) for t in truncations)
    if not ts or ts[0] <= 0.0:
        raise ValueError("truncations must be positive")
    width = min(math.pi / (2.0 * ts[-1]), y_cut)
    panels = int(math.ceil(y_cut / width))
    ref_x, ref_w = np.polynomial.legendre.leggauss(panel_points)
    edges = np.linspace(0.0, y_cut, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    yq = (mid[:, None] + half[:, None] * ref_x[None, :]).ravel()
    wq = (half[:, None] * ref_w[None, :]).ravel()
    fq = np.asarray(f(yq), dtype=np.float64)
    moment0 = float(wq @ fq)
    im_target = 0.5 * moment0 * moment0
    re_target = -math.pi * float(wq @ (yq * fq * fq))
    wf = wq * fq
    ywf = yq * wf

    def pairing(x):
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        phase = np.exp(1j * x[:, None] * yq[None, :])
        F = phase @ wf
        Fp = 1j * (phase @ ywf)
        return np.conjugate(1j * Fp) * F

    rows = []
    for t in ts:
        q = _integral(pairing, 0.0, t, 1e-11)
        rows.append(TruncationRow(t, float(np.real(q)), float(np.imag(q)),
                                  abs(float(np.real(q)) - re_target),
                                  abs(float(np.imag(q)) - im_target),
                                  tol_scale / t))
    return HalfLineReport(tuple(rows), re_target, im_target)


@dataclass(frozen=True)
class ChainReport:
    """Double integral and its two bounding quantities, smallest first."""

    lhs: float
    mid: float
    rhs: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.lhs <= self.mid + self.tol and self.mid <= self.rhs + self.tol


def check_integral_chain(f, weight, interval, tol: float = 1e-9) -> ChainReport:
    """Weighted double-integral chain on (a, b) against its (-1, 1) bounds.

    lhs: |int_a^b W conj(F) (int_a^s W F)| with W, F the mapped weight and
    function; mid: (b-a)^2/2 times the pairing of w|f| against its own
    cumulative integral on (-1, 1); rhs: (b-a)^2/2 times (int w|f|)^2.
    weight may be a WeightFamily, an array-aware callable on (-1, 1), or
    None for the flat weight.
    """
    imap = IntervalMap(float(interval[0]), float(interval[1]))
    lexp = rexp = None
    if weight is None:
        w = lambda x: np.ones_like(np.asarray(x, dtype=np.float64))
    elif isinstance(weight, WeightFamily):
        w = weight.weight
        # weight endpoints can be singular; hand the known exponents to the
        # quadrature so bisection is not asked to resolve them directly
        lexp = weight.beta if weight.beta != 0.0 else None
        rexp = weight.alpha if weight.alpha != 0.0 else None
    else:
        w = weight
    a, b = imap.a, imap.b
    # |f| kinks make deep bisection expensive; 1e-2 of the asserted slack is
    # plenty for an inequality check
    inner_tol = tol * 1e-2

    def wf_mapped(s):
        x = imap.inverse(s)
        return np.asarray(w(x)) * np.asarray(f(x))

    lhs = abs(_integral(
        lambda s: np.conjugate(wf_mapped(s))
        * running_integral(wf_mapped, a, s, inner_tol, left_exponent=lexp),
        a, b, tol * 1e-1, left=lexp, right=rexp))

    def wabsf(x):
        return np.asarray(w(x)) * np.abs(np.asarray(f(x)))

    half_sq = 0.5 * (b - a) ** 2
    mid = half_sq * float(np.real(_integral(
        lambda x: running_integral(wabsf, -1.0, x, inner_tol,
                                   left_exponent=lexp) * wabsf(x),
        -1.0, 1.0, tol * 1e-1, left=lexp, right=rexp)))
    total = float(np.real(_integral(wabsf, -1.0, 1.0, inner_tol,
                                    left=lexp, right=rexp)))
    rhs = half_sq * total * total
    return ChainReport(lhs, mid, rhs, tol)


@dataclass
class ConjectureReport:
    """Spectra of the left-running matrices over n, with the scan verdict.

    violations is empty exactly when min_re_overall > 0; ns where the matrix
    build or the eigensolve failed are listed in inconclusive and skipped.
    """

    family: WeightFamily
    n_max: int
    per_n: list
    min_re_overall: float
    violations: list
    inconclusive: list

    def to_payload(self) -> dict:
        return {
            "family": self.family.label,
            "params": {"alpha": self.family.alpha, "beta": self.family.beta},
            "per_n": self.per_n,
            "min_re_overall": self.min_re_overall,
            "violations": self.violations,
            "inconclusive": self.inconclusive,
        }

    def json_text(self) -> str:
        return json.dumps(_clean(self.to_payload()), sort_keys=True, indent=1) + "\n"


def _sorted_eigs(matrix: np.ndarray) -> np.ndarray:
    eigs = np.linalg.eigvals(matrix)
    return eigs[np.lexsort((eigs.imag, eigs.real))]


def conjecture_scan(family: WeightFamily, n_max: int) -> ConjectureReport:
    """Scan the spectra of the left-running matrices for n = 1..n_max.

    For the flat (legendre) weight, positivity of every real part is a
    proved fact and is asserted; any other family is evidence only — the
    report records what was seen and never raises on a negative real part.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    per_n = []
    violations = []
    inconclusive = []
    min_re = math.inf
    for n in range(1, n_max + 1):
        try:
            mats = build_integration_matrices(build_basis(family, n))
            eigs = _sorted_eigs(mats.plus)
        except (NumericalError, np.linalg.LinAlgError) as exc:
            inconclusive.append({"n": n, "reason": str(exc)})
            continue
        row_min = float(eigs.real.min())
        min_re = min(min_re, row_min)
        per_n.append({"n": n, "eigs": [[float(e.real), float(e.imag)] for e in eigs],
                      "min_re": row_min})
        violations.extend([n, float(e.real), float(e.imag)]
                          for e in eigs if e.real <= 0.0)
    report = ConjectureReport(family, n_max, per_n,
                              float(min_re) if per_n else math.nan,
                              violations, inconclusive)
    if family.kind == "legendre" and violations:
        raise NumericalError(
            f"flat-weight spectrum left the right half-plane: {violations[:3]}")
    return report


@dataclass(frozen=True)
class RangeSample:
    """Rayleigh-quotient cloud of a scaled matrix with containment verdict."""

    points: np.ndarray
    eigenvalues: np.ndarray
    min_re: float
    contained: bool
    seed: int


def _hull_contains(cloud: np.ndarray, targets: np.ndarray, tol: float) -> bool:
    """Convex containment of target points in a 2-d cloud to tolerance."""
    pts = np.column_stack([cloud.real, cloud.imag])
    tgt = np.column_stack([targets.real, targets.imag])
    try:
        from scipy.spatial import ConvexHull, QhullError
        hull = ConvexHull(pts)
    except Exception:
        # collinear/degenerate cloud: check along the principal direction
        center = pts.mean(axis=0)
        rel = pts - center
        _, _, vt = np.linalg.svd(rel, full_matrices=False)
        axis = vt[0]
        t = rel @ axis
        trel = tgt - center
        along = trel @ axis
        perp = trel - np.outer(along, axis)
        return bool(np.all(np.abs(perp).max(initial=0.0) <= tol)
                    and np.all(along >= t.min() - tol)
                    and np.all(along <= t.max() + tol))
    gaps = tgt @ hull.equations[:, :2].T + hull.equations[:, 2][None, :]
    return bool(gaps.max() <= tol)


def numerical_range_sample(scaled: ScaledMatrix, samples: int = 2000,
                           seed: int = DEFAULT_SEED) -> RangeSample:
    """Sample u* C u over random complex unit vectors.

    The eigenvector directions are appended to the cloud, so the spectrum is
    a subset by construction and the hull containment check (to 1e-8) is a
    consistency check on the geometry, not a theorem. min_re is reported as
    evidence only.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    C = scaled.C
    n = C.shape[0]
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((samples, n)) + 1j * rng.standard_normal((samples, n))
    u /= np.linalg.norm(u, axis=1)[:, None]
    points = np.einsum("ij,ij->i", u.conj(), u @ C.T)
    eigvals, vecs = np.linalg.eig(C)
    order = np.lexsort((eigvals.imag, eigvals.real))
    eigvals = eigvals[order]
    vecs = vecs[:, order]
    vecs = vecs / np.linalg.norm(vecs, axis=0)[None, :]
    ray = np.einsum("ji,ji->i", vecs.conj(), C @ vecs)
    cloud = np.concatenate([points, ray])
    if n == 1:
        contained = bool(np.abs(cloud - eigvals[0]).min() <= 1e-8)
    else:
        contained = _hull_contains(cloud, eigvals, 1e-8)
    return RangeSample(cloud, eigvals, float(cloud.real.min()), contained, seed)


def _random_suite_reports(samples: int, seed: int):
    """The randomized identity/bound/chain suites used by verify_suite."""
    rng = np.random.default_rng(seed)
    identity_worst = 0.0
    for _ in range(samples):
        coeffs = rng.standard_normal(9)
        rep = check_positivity_identity(lambda x: P.polyval(x, coeffs), (0.0, 1.0))
        identity_worst = max(identity_worst, rep.gap)
        if not rep.passed:
            break
    derivative_worst = 0.0
    for _ in range(samples):
        coeffs = rng.standard_normal(7)
        # f = (x - a) * poly vanishes at the left endpoint by construction
        fc = P.polymul([0.0, 1.0], coeffs)
        fpc = P.polyder(fc)
        rep = check_derivative_range(lambda x: P.polyval(x, fc),
                                     lambda x: P.polyval(x, fpc), (0.0, 1.0))
        derivative_worst = max(derivative_worst, rep.gap)
        if not rep.passed:
            break
    chain_ok = True
    chain_rows = []
    for _ in range(4):
        coeffs = rng.standard_normal(4)
        rep = check_integral_chain(lambda x: P.polyval(x, coeffs), None, (0.0, 2.0))
        chain_rows.append((rep.lhs, rep.mid, rep.rhs))
        chain_ok &= rep.passed
    return identity_worst, derivative_worst, chain_ok, chain_rows


def verify_suite(samples: int = 100, seed: int = DEFAULT_SEED) -> dict:
    """Run every check once with canonical inputs; JSON-ready summary dict."""
    out = {"seed": seed, "samples": samples}

    examples = [
        check_positivity_identity(lambda x: np.ones_like(np.asarray(x, float)), (0.0, 1.0)),
        check_positivity_identity(lambda x: np.asarray(x, float), (0.0, 1.0)),
        check_positivity_identity(lambda x: np.exp(1j * np.asarray(x, float)),
                                  (0.0, 2.0 * math.pi), tol=1e-10),
    ]
    identity_worst, derivative_worst, chain_ok, chain_rows = \
        _random_suite_reports(samples, seed)
    out["positivity_identity"] = {
        "example_gaps": [r.gap for r in examples],
        "random_worst_gap": identity_worst,
        "passed": all(r.passed for r in examples) and identity_worst <= 1e-9,
    }

    norm = check_norm_bound(samples, (0.0, 2.0), seed=seed,
                            include=[[1.0], [0.0]])
    out["norm_bound"] = {"bound": norm.bound, "max_ratio": norm.max_ratio,
                         "skipped": norm.skipped, "passed": norm.passed}

    dr_examples = [
        check_derivative_range(lambda x: np.asarray(x, float),
                               lambda x: np.ones_like(np.asarray(x, float)), (0.0, 1.0)),
        check_derivative_range(np.sin, np.cos, (0.0, math.pi)),
        check_derivative_range(lambda x: np.asarray(x) * np.exp(1j * np.asarray(x)),
                               lambda x: (1.0 + 1j * np.asarray(x)) * np.exp(1j * np.asarray(x)),
                               (0.0, 1.0)),
    ]
    out["derivative_range"] = {
        "example_gaps": [r.gap for r in dr_examples],
        "random_worst_gap": derivative_worst,
        "passed": all(r.passed for r in dr_examples) and derivative_worst <= 1e-9,
    }

    half = check_half_line_pairing(lambda y: np.exp(-np.asarray(y, float)))
    out["half_line_pairing"] = {
        "re_target": half.re_target, "im_target": half.im_target,
        "closed_form_targets": [-math.pi / 4.0, 0.5],
        "rows": [[r.T, r.re, r.im, r.re_err, r.im_err] for r in half.rows],
        "passed": half.converged
        and abs(half.re_target + math.pi / 4.0) <= 1e-10
        and abs(half.im_target - 0.5) <= 1e-10,
    }

    chain = check_integral_chain(lambda x: np.ones_like(np.asarray(x, float)),
                              None, (-1.0, 1.0))
    out["integral_chain"] = {
        "flat_example": [chain.lhs, chain.mid, chain.rhs],
        "random_rows": chain_rows,
        "passed": chain.passed and chain_ok
        and abs(chain.lhs - 2.0) <= 1e-9 and abs(chain.mid - 4.0) <= 1e-9
        and abs(chain.rhs - 8.0) <= 1e-9,
    }

    scan = conjecture_scan(WeightFamily.legendre(), 40)
    out["spectrum_scan"] = {"family": "legendre", "n_max": 40,
                            "min_re_overall": scan.min_re_overall,
                            "violations": scan.violations,
                            "inconclusive": scan.inconclusive,
                            "passed": not scan.violations and not scan.inconclusive}

    mats = build_integration_matrices(build_basis(WeightFamily.legendre(), 5))
    sample = numerical_range_sample(scale(mats, "+", IntervalMap(-1.0, 1.0)),
                                    samples=2000, seed=seed)
    out["numerical_range"] = {"n": 5, "min_re": sample.min_re,
                              "contained": sample.contained,
                              "passed": sample.contained}

    out["all_passed"] = all(v["passed"] for k, v in out.items()
                            if isinstance(v, dict) and "passed" in v)
    return out
