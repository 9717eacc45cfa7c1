"""Quadrature verification of the operator identities; spectrum and range scans.

Every quadrature check here recomputes its quantities from scratch with
the adaptive oracle, and the exact numerical range with plain dense
eigensolves; nothing reuses the matrix pipelines being verified. The
eigenvalue scan reads the spectrum each matrix pair keeps
(IntegrationMatrices.spectrum, one dense eigensolve of the plus matrix on
the first read), so a repeated scan over pairs the matrix memo still holds
runs no eigensolve and reports the same bits.
Each definite integral is one adaptive_integrate call, and an inner
indefinite integral at the abscissae of an outer rule is one
running_integral call per evaluation of the outer integrand, not one
quadrature per abscissa; the nested pairing int conj(J g) g of the
positivity identity and the integral chain is written once. Random
polynomials are integrated as stacks: check_positivity_identity,
check_derivative_range and check_integral_chain take an integrand that
returns one row per polynomial and give one report per row,
check_norm_bound stacks its own rows, and every polynomial integrand is the
Horner evaluator _horner, which matches P.polyval bit for bit, so each
row's report is the one it would get alone. The chain's |f| gets the real
roots of the draws as breakpoints, so each of its rows converges on its
seed panels. A quadrature check's report carries its only verdict (passed, or
converged for the half-line pairing); no such check raises on a failed
inequality, and verify_suite reads its entries' verdicts from those reports.
Randomized suites draw from a fixed default seed which is recorded in the returned
reports; verify_suite draws an identity's rows in one call and, when a draw
fails, rewinds the generator so that later identities draw what they would
have drawn had the rows after the failing one never been drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .basis import IntervalMap, WeightFamily, build_basis
from .errors import NumericalError
from .intmat import ScaledMatrix, _eig_order, build_integration_matrices, scale
from .oracle import adaptive_integrate, running_integral
from .report import json_document

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
_NORM_DEGREE = 8  # of check_norm_bound's random polynomials
# check_half_line_pairing: truncations T, cut of the y integral, Gauss points
# per panel, and the scale of each row's tolerance _TOL_SCALE / T
_TRUNCATIONS = (2.0, 4.0, 8.0, 16.0)
_Y_CUT = 40.0
_PANEL_POINTS = 12
_TOL_SCALE = 5.0
_SUPPORT_ANGLES = 256  # of numerical_range_sample's boundary points
_CHECK_TOL = 1e-9  # of check_derivative_range and check_integral_chain


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


def _horner(coeffs):
    """The integrand x -> sum_j coeffs[..., j] x^j for a row of coefficients
    (lowest degree first), or the stack of one row per polynomial for a 2-d
    array; it takes P.polyval's steps, c[-1] + x*0 and then c[j] + out*x, so
    each row matches P.polyval bit for bit."""
    c = np.asarray(coeffs, dtype=np.float64)

    def g(x):
        x = np.asarray(x, dtype=np.float64)
        out = c[..., -1, None] + x * 0
        for j in range(c.shape[-1] - 2, -1, -1):
            out = c[..., j, None] + out * x
        return out
    return g


def _cumulative_pairing(g, a: float, b: float, inner_tol: float, tol: float,
                        lexp=None, rexp=None, kinks=()):
    """int_a^b conj(J g) g with J g(x) = int_a^x g: the running integrals to
    inner_tol at the abscissae of the outer rule, the outer integral to tol,
    and the endpoint exponents lexp, rexp handed to the quadrature. The
    kinks of g are breakpoints of the outer integral and extra points of
    each running integral, whose columns are dropped, so that no inner gap
    straddles one."""
    def pairing(x):
        inner = running_integral(g, a, np.concatenate((x, kinks)), inner_tol,
                                 left_exponent=lexp)[..., :x.size]
        return np.conjugate(inner) * np.asarray(g(x))
    return adaptive_integrate(pairing, a, b, tol, lexp, rexp, kinks)[0]


def _reports(name, lhs, rhs, tol):
    """One IdentityReport for a scalar lhs, or a tuple of one per row for the
    rows of a stack; rhs holds the right sides in row order."""
    reports = tuple(IdentityReport(name, float(np.real(v)), r, tol)
                    for v, r in zip(np.ravel(lhs).tolist(), rhs))
    return reports if np.ndim(lhs) else reports[0]


def check_positivity_identity(g, interval, tol: float = 1e-9):
    """Re of the cumulative-integral pairing against half the squared total.

    Both the inner indefinite integral and the outer inner product are done
    by adaptive quadrature, so the check is independent of the collocation
    matrices. g must accept array arguments and may be complex-valued. A g
    that returns a (k, m) stack on m abscissae is k integrands checked in
    one stacked quadrature (see adaptive_integrate); the result is then a
    tuple of k reports in row order, each the report of its row alone.
    """
    a, b = (float(interval[0]), float(interval[1]))
    inner_tol = tol * 1e-3 / max(b - a, 1.0)
    pairing = _cumulative_pairing(g, a, b, inner_tol, tol * 1e-1)
    total, _ = adaptive_integrate(g, a, b, inner_tol)
    return _reports("re_cumulative_pairing", pairing,
                    [0.5 * abs(t) ** 2 for t in np.ravel(total).tolist()], tol)


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


def check_norm_bound(samples: int, interval, seed: int = DEFAULT_SEED,
                     include=()) -> NormBoundReport:
    """Ratios ||cumulative integral of g||_2 / ||g||_2 over random polynomials.

    Each ratio must stay below (b - a)/sqrt(2); the report's passed is the
    verdict, and a ratio above the bound makes it False. The `include`
    coefficient rows are checked ahead of the sampled ones, and a zero
    polynomial is skipped (counted, no ratio recorded).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    a, b = (float(interval[0]), float(interval[1]))
    bound = (b - a) / math.sqrt(2.0)
    rows = [np.asarray(c, dtype=np.float64) for c in include]
    rows += list(np.random.default_rng(seed).standard_normal(
        (samples, _NORM_DEGREE + 1)))
    # zero high coefficients leave every Horner step's bits alone, so the
    # rows are padded to one length and integrated as one stack
    coeffs = np.zeros((len(rows), max(len(c) for c in rows)))
    for c, row in zip(coeffs, rows):
        c[:len(row)] = row
    g = _horner(coeffs)
    norm_g2, _ = adaptive_integrate(lambda x: g(x) ** 2, a, b, 1e-13)
    norm_g2 = norm_g2.tolist()
    kept = [i for i, v in enumerate(norm_g2) if not v < 1e-28]
    anti = P.polyint(coeffs[kept].T)  # one column per row
    anti[0] -= P.polyval(a, anti)
    j = _horner(anti.T)
    norm_j2, _ = adaptive_integrate(lambda x: j(x) ** 2, a, b, 1e-13)
    ratios = [math.sqrt(nj / norm_g2[i]) for i, nj in zip(kept, norm_j2.tolist())]
    return NormBoundReport(bound, max(ratios, default=0.0), tuple(ratios),
                           len(rows) - len(kept), seed)


def check_derivative_range(f, fprime, interval):
    """Re of the (f', f) pairing against half the squared boundary values.

    f must vanish at the left endpoint (that is what makes f' the preimage
    of f under the cumulative integral); both f and fprime take arrays. f
    and fprime may return (k, m) stacks on m abscissae (one value per row
    at a scalar): the k pairs are checked in one stacked quadrature, and
    the result is a tuple of k reports in row order, each the report of its
    row alone.
    """
    a, b = (float(interval[0]), float(interval[1]))
    fa = [complex(v) for v in np.ravel(f(a)).tolist()]
    if any(abs(v) > 1e-8 for v in fa):
        raise ValueError("f must vanish at the left endpoint")
    pairing, _ = adaptive_integrate(
        lambda x: np.conjugate(np.asarray(fprime(x))) * np.asarray(f(x)),
        a, b, _CHECK_TOL * 1e-2)
    fb = [complex(v) for v in np.ravel(f(b)).tolist()]
    return _reports("re_derivative_pairing", pairing,
                    [0.5 * (abs(vb) ** 2 - abs(va) ** 2) for va, vb in zip(fa, fb)],
                    _CHECK_TOL)


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


def _half_line_grid():
    """check_half_line_pairing's y grid, y = m_k + h r_j: the midpoints
    m_k = (2k + 1) h of panels of one width 2h <= pi/(2 T_max) on (0, ycut),
    and one panel's Gauss offsets h r_j and weights h w_j."""
    width = min(math.pi / (2.0 * _TRUNCATIONS[-1]), _Y_CUT)
    panels = int(math.ceil(_Y_CUT / width))
    ref_x, ref_w = np.polynomial.legendre.leggauss(_PANEL_POINTS)
    h = _Y_CUT / (2 * panels)
    return (2 * np.arange(panels) + 1) * h, h * ref_x, h * ref_w


def _phase_sums(x, mid, offset, moments):
    """sum_kj e^{ix (m_k + o_j)} M[k, c * points + j] at each x, one column
    per block c of moments' columns, as sum_j e^{ix o_j} sum_k e^{ix m_k} M."""
    sums = np.exp(1j * x[:, None] * mid[None, :]) @ moments
    inner = np.exp(1j * x[:, None] * offset[None, :])
    return np.sum(sums.reshape(x.size, -1, offset.size) * inner[:, None, :], axis=-1)


def check_half_line_pairing(f) -> HalfLineReport:
    """Pair the transform's derivative against the transform on (0, T).

    F(x) = int_0^ycut e^{ixy} f(y) dy is formed on one fixed composite Gauss
    grid fine enough for the largest T (panel width <= pi/(2 T_max)), and
    conj(i F')(x) F(x) is integrated adaptively over (0, T) for each T. f
    must be real-valued with f and y*f integrable (decayed out by ycut).

    The panels share one half-width, so the phase e^{ixy} factors over
    panel midpoints and in-panel offsets (_phase_sums): per abscissa,
    408 + 12 exponentials and one (m x 408) @ (408 x 24) product give F and
    F' together, in place of an exponential at each of the 4,896 grid points.
    """
    mid, offset, weights = _half_line_grid()
    yq = (mid[:, None] + offset[None, :]).ravel()
    wq = np.tile(weights, mid.size)
    fq = np.asarray(f(yq), dtype=np.float64)
    moment0 = float(wq @ fq)
    im_target = 0.5 * moment0 * moment0
    re_target = -math.pi * float(wq @ (yq * fq * fq))
    wf = wq * fq
    # per panel, w f beside y w f: F and F' share one product
    moments = np.hstack([wf.reshape(mid.size, -1), (yq * wf).reshape(mid.size, -1)])

    # every T bisects from (0, T), so a smaller T's panels come back under
    # the larger ones; each abscissa set is paired once
    seen = {}

    def pairing(x):
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        key = x.tobytes()
        if key not in seen:
            # G = int e^{ixy} y f dy = F'/i, so conj(i F') F = -conj(G) F
            F, G = _phase_sums(x, mid, offset, moments).T
            seen[key] = -np.conjugate(G) * F
        return seen[key]

    rows = []
    for t in _TRUNCATIONS:
        q, _ = adaptive_integrate(pairing, 0.0, t, 1e-11)
        rows.append(TruncationRow(t, float(np.real(q)), float(np.imag(q)),
                                  abs(float(np.real(q)) - re_target),
                                  abs(float(np.imag(q)) - im_target),
                                  _TOL_SCALE / t))
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


def check_integral_chain(f, weight, interval, kinks=()):
    """Weighted double-integral chain on (a, b) against its (-1, 1) bounds.

    lhs: |int_a^b W conj(F) (int_a^s W F)| with W, F the mapped weight and
    function; mid: (b-a)^2/2 times the pairing of w|f| against its own
    cumulative integral on (-1, 1); rhs: (b-a)^2/2 times (int w|f|)^2.
    weight is a WeightFamily; None means WeightFamily.legendre(), the flat
    weight 1. kinks are the points of (-1, 1), in the reference coordinate
    f takes, where |f| is not smooth (its real roots): breakpoints of mid
    and total (lhs has no |.|) that save bisection and never decide
    accuracy. An f that returns a (k, m) stack is k functions checked in one
    stacked quadrature, as in check_positivity_identity: a tuple of k
    reports, each that of its row alone with the same kinks.
    """
    imap = IntervalMap(float(interval[0]), float(interval[1]))
    family = WeightFamily.legendre() if weight is None else weight
    w = family.weight
    # weight endpoints can be singular; hand the known exponents to the
    # quadrature so bisection is not asked to resolve them directly
    lexp = family.beta if family.beta != 0.0 else None
    rexp = family.alpha if family.alpha != 0.0 else None
    a, b = imap.a, imap.b
    # 1e-2 of the asserted slack is plenty for an inequality check; an
    # |f| kink that is not among the kinks costs bisection toward it
    inner_tol = _CHECK_TOL * 1e-2

    def wf_mapped(s):
        x = imap.inverse(s)
        return np.asarray(w(x)) * np.asarray(f(x))

    def wabsf(x):
        return np.asarray(w(x)) * np.abs(np.asarray(f(x)))

    half_sq = 0.5 * (b - a) ** 2
    lhs = _cumulative_pairing(wf_mapped, a, b, inner_tol, _CHECK_TOL * 1e-1,
                              lexp, rexp)
    mid = _cumulative_pairing(wabsf, -1.0, 1.0, inner_tol, _CHECK_TOL * 1e-1,
                              lexp, rexp, kinks)
    total, _ = adaptive_integrate(wabsf, -1.0, 1.0, inner_tol, lexp, rexp, kinks)
    reports = tuple(ChainReport(abs(l), half_sq * m, half_sq * t * t, _CHECK_TOL)
                    for l, m, t in zip(np.ravel(lhs).tolist(), np.ravel(mid).tolist(),
                                       np.ravel(total).tolist()))
    return reports if np.ndim(lhs) else reports[0]


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
        return json_document(self.to_payload())


def conjecture_scan(family: WeightFamily, n_max: int) -> ConjectureReport:
    """Scan the spectra of the left-running matrices for n = 1..n_max.

    Each n reads the spectrum of its memoized pair, so pairs the memo still
    holds are not solved again. For the flat (legendre) weight, positivity
    of every real part is a proved fact and is asserted; any other family is
    evidence only — the report records what was seen and never raises on a
    negative real part.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    per_n = []
    violations = []
    inconclusive = []
    for n in range(1, n_max + 1):
        try:
            eigs = build_integration_matrices(build_basis(family, n)).spectrum
        except (NumericalError, np.linalg.LinAlgError) as exc:
            inconclusive.append({"n": n, "reason": str(exc)})
            continue
        reals, imags = eigs.real.tolist(), eigs.imag.tolist()
        per_n.append({"n": n, "eigs": [[r, i] for r, i in zip(reals, imags)],
                      "min_re": float(eigs.real.min())})
        violations.extend([n, r, i] for r, i in zip(reals, imags) if r <= 0.0)
    report = ConjectureReport(family, n_max, per_n,
                              min((row["min_re"] for row in per_n), default=math.nan),
                              violations, inconclusive)
    if family.kind == "legendre" and violations:
        raise NumericalError(
            f"flat-weight spectrum left the right half-plane: {violations[:3]}")
    return report


@dataclass(frozen=True)
class RangeSample:
    """Boundary points of the numerical range W(C), one per support angle, with
    the exact min Re W(C) and whether every eigenvalue is inside every line."""

    points: np.ndarray
    eigenvalues: np.ndarray
    min_re: float
    contained: bool


def numerical_range_sample(scaled: ScaledMatrix) -> RangeSample:
    """Exact support lines of the numerical range W(C) of a scaled matrix.

    At each angle theta the top eigenpair of Herm(e^{i theta} C) gives
    max Re e^{i theta} W and the boundary point u* C u where it is attained
    (Johnson, SIAM J. Numer. Anal. 15 (1978) 595-602); min Re W is the
    smallest eigenvalue of Herm C. The spectrum lies in W, so containment
    is checked to roundoff: 1e-8 of the numerical radius.
    """
    C = scaled.C
    phase = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, _SUPPORT_ANGLES, endpoint=False))
    rotated = phase[:, None, None] * C
    support, vecs = np.linalg.eigh(0.5 * (rotated + rotated.conj().swapaxes(1, 2)))
    top = vecs[:, :, -1]
    points = np.einsum("ki,ki->k", top.conj(), top @ C.T)
    eigvals = np.linalg.eigvals(C)
    eigvals = eigvals[_eig_order(eigvals)]
    overshoot = (phase[:, None] * eigvals).real - support[:, -1:]
    contained = bool(np.all(overshoot <= 1e-8 * support[:, -1].max()))
    min_re = float(np.linalg.eigvalsh(0.5 * (C + C.conj().T))[0])
    return RangeSample(points, eigvals, min_re, contained)


def _identity_entry(examples, draws) -> dict:
    """Suite entry of one identity: the gaps of the example reports, the worst
    gap over the random draws, and passed when every report passed."""
    worst = 0.0
    for rep in draws:
        worst = max(worst, rep.gap)
    return {"example_gaps": [r.gap for r in examples], "random_worst_gap": worst,
            "passed": all(r.passed for r in (*examples, *draws))}


def verify_suite(samples: int = 100, seed: int = DEFAULT_SEED) -> dict:
    """Run every check once with canonical inputs; JSON-ready summary dict.

    Random polynomials come from one generator seeded with seed, in a fixed
    order: positivity identity, derivative range, integral chain. An
    identity's draws are one standard_normal((samples, size)) call checked
    as one stack, and the identity keeps the reports up to and including
    its first failing draw j. The generator is then rewound to its state
    before that call and j + 1 rows are drawn again, so the next identity
    draws exactly what it would if the draws after j had never been made.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    out = {"seed": seed, "samples": samples}
    rng = np.random.default_rng(seed)

    def draws(size, check):
        state = rng.bit_generator.state
        reports = check(rng.standard_normal((samples, size)))
        used = next((j + 1 for j, rep in enumerate(reports) if not rep.passed),
                    samples)
        if used < samples:
            rng.bit_generator.state = state
            rng.standard_normal((used, size))
        return reports[:used]

    examples = [
        check_positivity_identity(lambda x: np.ones_like(np.asarray(x, float)), (0.0, 1.0)),
        check_positivity_identity(lambda x: np.asarray(x, float), (0.0, 1.0)),
        check_positivity_identity(lambda x: np.exp(1j * np.asarray(x, float)),
                                  (0.0, 2.0 * math.pi), tol=1e-10),
    ]
    out["positivity_identity"] = _identity_entry(examples, draws(
        9, lambda coeffs: check_positivity_identity(_horner(coeffs), (0.0, 1.0))))

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

    def derivative_check(coeffs):
        # f = (x - a) * poly vanishes at the left endpoint by construction
        fc = np.array([P.polymul([0.0, 1.0], c) for c in coeffs])
        return check_derivative_range(_horner(fc), _horner(P.polyder(fc, axis=1)),
                                      (0.0, 1.0))

    out["derivative_range"] = _identity_entry(dr_examples, draws(7, derivative_check))

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
    coeffs = rng.standard_normal((4, 4))
    # |f| has a kink at every real root of f in (-1, 1); a double root,
    # which may come out as a complex pair, leaves |f| smooth
    roots = np.concatenate([P.polyroots(c) for c in coeffs])
    kinks = np.unique(roots[np.isreal(roots) & (np.abs(roots) < 1.0)].real)
    chain_draws = check_integral_chain(_horner(coeffs), None, (0.0, 2.0), kinks)
    out["integral_chain"] = {
        "flat_example": [chain.lhs, chain.mid, chain.rhs],
        "random_rows": [(r.lhs, r.mid, r.rhs) for r in chain_draws],
        "passed": chain.passed and all(r.passed for r in chain_draws)
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
    sample = numerical_range_sample(scale(mats, "+", IntervalMap(-1.0, 1.0)))
    out["numerical_range"] = {"n": 5, "min_re": sample.min_re,
                              "contained": sample.contained,
                              "passed": sample.contained}

    out["all_passed"] = all(v["passed"] for k, v in out.items()
                            if isinstance(v, dict) and "passed" in v)
    return out
