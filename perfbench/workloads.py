"""Workload generators, operation runners and output checks of the benchmark.

Every workload is a closed loop with one client: operation i + 1 starts after
operation i has returned. Requests come in decks. A deck holds every
combination of the workload's discrete choices once, in an order shuffled by
the seed, and run.py measures whole decks only, so each run sends the same
mix and the share of requests that fail today is the same in every run.

- pipelines: 7 subcommands x n = 5..20 x {csv, json}, 224 requests.
- weighted_matrices: 3 families x n = 5..60, 168 requests. The continuous
  parameters are stratified: request k of a family takes the k-th point of a
  Kronecker (R2) sequence, moved by a seeded jitter of at most a twentieth
  of a stratum, so every deck spreads the parameters evenly over their ranges.
  csv and json alternate with n.
- verify: one verify_suite(samples=100) call with the suite's default seed,
  the call `intop verify --samples 100` makes. The run's seed does not enter:
  today the suite's cost depends on its seed (32-47 s over seeds 1-4), which
  would swamp the run-to-run spread this workload is meant to resolve.

Operation i is a pure function of (workload, seed, i).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import betainc, roots_jacobi, roots_legendre

import intop.cli
import intop.verify
from intop.oracle import load_fixtures

WORKLOADS = ("pipelines", "weighted_matrices", "verify")

# Tail percentile per workload at the nominal run length (20 s). pipelines
# (about 9 decks of 224): p95, about 100 samples beyond it; it sits among the
# control requests that also run the hidden n = 11 reference, while p99 is
# set by scheduler and allocator hiccups and moved by 30% between runs.
# weighted_matrices (one deck of 168): p90, 17 samples beyond. verify (one
# call per run): the maximum, which there is also the median.
TAIL_PERCENTILE = {"pipelines": 95.0, "weighted_matrices": 90.0, "verify": 100.0}

PIPELINE_COMMANDS = ("ft-invert", "lt-invert", "control", "ode", "wiener-hopf",
                     "eigs", "matrices")
WEIGHTED_FAMILIES = ("chebyshev1", "gegenbauer", "jacobi")
GEGENBAUER_RANGE = (0.0, 2.0)    # lambda; exponents lambda - 1/2 in [-0.5, 1.5)
JACOBI_RANGE = (-0.75, 1.5)      # alpha and beta
VERIFY_SAMPLES = 100

# Stated relative tolerance of the matrix checks. Today's entries agree with
# the scipy references to 7e-12 or better (jacobi:1.4,-0.5 at n = 52).
MATRIX_RTOL = 1e-9
# Exact columns of the closed-form demos against numpy's own evaluation.
EXACT_RTOL = 1e-13
# Fine-mesh values against the node interpolant, relative to the largest
# node value.
INTERP_RTOL = 1e-11

# Fixture ceiling on metadata max_coarse_error for each demo subcommand. The
# ceilings were fixed at n = 5; errors shrink as n grows, so they bound every
# n the workload sends.
DEMO_CEILING = {"ft-invert": "ft_n5_max_fine_error",
                "lt-invert": "lt_n5_max_coarse_error",
                "control": "control_n5_vs_ref_coarse",
                "ode": "ode_n5_max_node_error",
                "wiener-hopf": "wh_n5_max_node_error"}
DEMO_PIPELINE = {"ft-invert": "ft_invert", "lt-invert": "lt_invert",
                 "control": "control", "ode": "ode", "wiener-hopf": "wiener_hopf"}


def _wh_exact(t):
    g = 2.0 * math.exp(-0.5) * t * np.exp(t * t - t)
    return g - math.sinh(0.5) * np.exp(-t)


DEMO_EXACT = {"ft-invert": lambda t: np.exp(-t), "lt-invert": np.sinc,
              "ode": np.tan, "wiener-hopf": _wh_exact}


@dataclass(frozen=True)
class Op:
    """One request: CLI argv (or suite seed), (family, n) key, Jacobi exponents."""

    argv: tuple
    key: tuple
    alpha: float = 0.0
    beta: float = 0.0
    seed: int = 0


# Additive recurrence constants of the R2 sequence (inverse powers of the
# plastic number): low-discrepancy pairing of n with the two Jacobi exponents.
_R2 = (0.7548776662466927, 0.5698402909980532)
# Seeded jitter of each parameter point, at most a twentieth of a stratum
# (1/56 of the range) either way. With half a stratum, requests near today's
# failing thresholds flipped, and fail_share moved between 10 and 12 of 168
# across seeds.
_JITTER = 0.1 / 56.0


class Generator:
    """Operation i of one workload for one seed, drawn deck by deck."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self._decks: dict[int, list[Op]] = {}

    @property
    def deck_size(self) -> int:
        return len(self.deck(0))

    def op(self, i: int) -> Op:
        size = self.deck_size
        return self.deck(i // size)[i % size]

    def deck(self, d: int) -> list[Op]:
        if d not in self._decks:
            self._decks = {d: self._build(d)}
        return self._decks[d]

    def _build(self, d: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, d])
        if self.workload == "verify":
            return [Op(("verify",), ("verify", 0), seed=intop.verify.DEFAULT_SEED)]
        if self.workload == "pipelines":
            ops = [Op((cmd, *(["--family", "legendre"] if cmd == "matrices" else []),
                       "--n", str(n), "--format", fmt), ("legendre", n))
                   for cmd in PIPELINE_COMMANDS for n in range(5, 21)
                   for fmt in ("csv", "json")]
        else:
            ops = [self._weighted(kind, k, d, rng)
                   for kind in WEIGHTED_FAMILIES for k in range(56)]
        return [ops[j] for j in rng.permutation(len(ops))]

    @staticmethod
    def _weighted(kind: str, k: int, d: int, rng) -> Op:
        n = 5 + k
        fmt = ("csv", "json")[(k + d) % 2]
        u = [((k + 0.5) * r) % 1.0 + (rng.random() - 0.5) * _JITTER for r in _R2]
        u = [min(max(v, 0.0), 1.0) for v in u]
        if kind == "chebyshev1":
            label, alpha, beta = "chebyshev1", -0.5, -0.5
        elif kind == "gegenbauer":
            lo, hi = GEGENBAUER_RANGE
            lam = f"{lo + (hi - lo) * u[0]:.6f}"
            label = f"gegenbauer:{lam}"
            alpha = beta = float(lam) - 0.5
        else:
            lo, hi = JACOBI_RANGE
            a, b = (f"{lo + (hi - lo) * v:.6f}" for v in u)
            label, alpha, beta = f"jacobi:{a},{b}", float(a), float(b)
        return Op(("matrices", "--family", label, "--n", str(n), "--format", fmt),
                  (label, n), alpha, beta)


def _plain(obj):
    """JSON fallback for numpy scalars and arrays in the suite report."""
    return obj.tolist()


@dataclass
class Result:
    latency_s: float
    failure: str | None      # exit code or exception class; None on success
    text: str | None         # captured stdout (CLI) or JSON of the suite dict
    warnings: int


def run_op(op: Op, cli_main=None, suite=None) -> Result:
    """Run one operation, timing only the call into the library.

    cli_main / suite default to the library's own entry points; the traced
    run passes wrapped ones.
    """
    out, err = io.StringIO(), io.StringIO()
    failure = None
    text = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if op.argv[0] == "verify":
            call = suite or intop.verify.verify_suite
            t0 = time.perf_counter()
            try:
                report = call(samples=VERIFY_SAMPLES, seed=op.seed)
            except Exception as exc:  # recorded as the operation's failure
                report = None
                failure = type(exc).__name__
            t1 = time.perf_counter()
            if report is not None:
                text = json.dumps(report, sort_keys=True, default=_plain)
        else:
            call = cli_main or intop.cli.main
            t0 = time.perf_counter()
            try:
                code = call(list(op.argv))
            except Exception as exc:  # escaped the CLI's own handlers
                code = None
                failure = type(exc).__name__
            t1 = time.perf_counter()
            if code is not None and code != 0:
                failure = f"exit{code}"
            elif code == 0:
                text = out.getvalue()
    return Result(t1 - t0, failure, text, len(caught))


# ---------------------------------------------------------------- checks

def _metadata(text: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(text)
    first = text.split("\n", 1)[0]
    if not first.startswith("# metadata: "):
        raise ValueError("missing metadata line")
    return json.loads(first[len("# metadata: "):])


def _rows(text: str):
    """CSV body rows (metadata and section comments skipped), header first."""
    return [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#")]


def _demo_series(text: str, fmt: str):
    """(meta, {"coarse": (t, exact, computed), "fine": (...)}) of a report."""
    if fmt == "json":
        doc = json.loads(text)
        return doc["metadata"], {part: tuple(np.asarray(doc[part][k], dtype=float)
                                             for k in ("t", "exact", "computed"))
                                 for part in ("coarse", "fine")}
    meta = _metadata(text, "csv")
    parts, current = {"coarse": [], "fine": []}, None
    for line in text.splitlines()[2:]:
        if line.startswith("# "):
            current = line[2:]
            continue
        t, exact, computed, abs_err = (float(v) for v in line.split(","))
        if abs_err != abs(computed - exact):
            raise ValueError("abs_error column disagrees with its row")
        parts[current].append((t, exact, computed))
    return meta, {k: tuple(np.asarray(v).T) for k, v in parts.items()}


def _interpolant(t, y, pts):
    """Second-form barycentric interpolant of (t, y) evaluated at pts."""
    v = np.array([1.0 / np.prod(np.delete(t[k] - t, k)) for k in range(t.size)])
    diff = pts[:, None] - t[None, :]
    hit = diff == 0.0
    diff[hit] = 1.0
    ratio = v[None, :] / diff
    out = (ratio @ y) / ratio.sum(axis=1)
    rows, cols = np.nonzero(hit)
    out[rows] = y[cols]
    return out


def _check_demo(cmd: str, n: int, text: str, fmt: str, ceilings: dict) -> None:
    meta, series = _demo_series(text, fmt)
    if meta["pipeline"] != DEMO_PIPELINE[cmd] or meta["n"] != n:
        raise ValueError("metadata names another pipeline or order")
    t, exact, computed = series["coarse"]
    if t.size != n or series["fine"][0].size != meta["fine_points"]:
        raise ValueError("wrong number of rows")
    for part, key in (("coarse", "max_coarse_error"), ("fine", "max_fine_error")):
        _, ex, co = series[part]
        if np.abs(co - ex).max() != meta[key]:
            raise ValueError(f"{key} disagrees with the {part} rows")
    ceiling = ceilings[DEMO_CEILING[cmd]]
    if not meta["max_coarse_error"] <= ceiling:
        raise ValueError(f"max_coarse_error {meta['max_coarse_error']:.3e} "
                         f"exceeds the fixture ceiling {ceiling:.3e}")
    fine_t, _, fine_computed = series["fine"]
    if not (np.abs(_interpolant(t, computed, fine_t) - fine_computed).max()
            <= INTERP_RTOL * np.abs(computed).max()):
        raise ValueError("fine values are not the interpolant of the node values")
    exact_fn = DEMO_EXACT.get(cmd)
    if exact_fn is not None:
        for tt, ex, _ in series.values():
            ref = exact_fn(tt)
            if not np.allclose(ex, ref, rtol=EXACT_RTOL, atol=1e-15):
                raise ValueError("exact column disagrees with the closed form")


def _parse_matrices(text: str, fmt: str):
    """(n, plus, minus, nodes or None, weights or None)."""
    if fmt == "json":
        doc = json.loads(text)
        return (doc["n"], np.asarray(doc["plus"]), np.asarray(doc["minus"]),
                np.asarray(doc["nodes"]), np.asarray(doc["weights"]))
    n = _metadata(text, "csv")["n"]
    rows = _rows(text)
    if rows[0] != ["side", "j", "k", "value"] or len(rows) != 1 + 2 * n * n:
        raise ValueError("malformed matrix table")
    mats = {"+": np.full((n, n), np.nan), "-": np.full((n, n), np.nan)}
    for side, j, k, value in rows[1:]:
        mats[side][int(j), int(k)] = float(value)
    return n, mats["+"], mats["-"], None, None


def check_matrices(text: str, fmt: str, n: int, alpha: float, beta: float) -> None:
    """Complement identity and row sums of A+ against scipy references.

    A+ + A- must equal 1 w^T (w the Gauss weights), and A+ 1 must equal the
    running mass mu0 * I_{(1+x)/2}(beta+1, alpha+1) at the Gauss nodes x,
    both to MATRIX_RTOL relative to the largest weight / the total mass.
    """
    got_n, plus, minus, nodes, weights = _parse_matrices(text, fmt)
    if got_n != n or plus.shape != (n, n) or minus.shape != (n, n):
        raise ValueError("matrix shape does not match the request")
    x, w = roots_jacobi(n, alpha, beta)
    mu0 = 2.0 ** (alpha + beta + 1.0) * beta_fn(alpha + 1.0, beta + 1.0)
    if not np.abs(plus + minus - w[None, :]).max() <= MATRIX_RTOL * w.max():
        raise ValueError("complement identity A+ + A- = 1 w^T fails")
    running = mu0 * betainc(beta + 1.0, alpha + 1.0, 0.5 * (1.0 + x))
    if not np.abs(plus.sum(axis=1) - running).max() <= MATRIX_RTOL * mu0:
        raise ValueError("row sums of A+ disagree with the incomplete beta")
    if nodes is not None:
        if not (np.abs(nodes - x).max() <= MATRIX_RTOL
                and np.abs(weights - w).max() <= MATRIX_RTOL * w.max()):
            raise ValueError("nodes or weights disagree with roots_jacobi")


def _legendre_plus(n: int) -> np.ndarray:
    """A+ on the Legendre nodes by n-point Gauss quadrature of each cardinal
    polynomial on (-1, x_j); independent of intop."""
    x, w = roots_legendre(n)
    denom = np.array([np.prod(np.delete(x[k] - x, k)) for k in range(n)])
    out = np.empty((n, n))
    for j in range(n):
        half = 0.5 * (x[j] + 1.0)
        t = -1.0 + half * (x + 1.0)
        diff = t[:, None] - x[None, :]
        card = np.array([np.prod(np.delete(diff, k, axis=1), axis=1) / denom[k]
                         for k in range(n)])
        out[j] = half * (card @ w)
    return out


def check_eigs(text: str, fmt: str, n: int) -> None:
    """Legendre spectrum: n values in the right half-plane whose sums of
    powers 1 and 2 match the traces of C and C^2."""
    meta = _metadata(text, fmt)
    if fmt == "json":
        vals = np.array([complex(re, im) for re, im in meta["eigenvalues"]])
    else:
        vals = np.array([complex(float(re), float(im))
                         for _, re, im in _rows(text)[1:]])
    if meta["n"] != n or vals.size != n or not meta["cond"] >= 1.0:
        raise ValueError("malformed spectrum")
    if not np.all(vals.real > 0.0):
        raise ValueError("eigenvalue outside the right half-plane")
    C = 0.5 * (meta["b"] - meta["a"]) * _legendre_plus(n)
    size = np.abs(vals).sum()
    if not (abs(vals.sum() - np.trace(C)) <= MATRIX_RTOL * size
            and abs((vals ** 2).sum() - np.sum(C * C.T)) <= MATRIX_RTOL * size ** 2):
        raise ValueError("spectrum disagrees with the traces of C and C^2")


def check_suite(text: str) -> None:
    report = json.loads(text)
    verdicts = [v["passed"] for v in report.values()
                if isinstance(v, dict) and "passed" in v]
    if report["all_passed"] is not True or not verdicts or not all(verdicts):
        raise ValueError("verify suite did not pass")


class Checker:
    """Correctness of each successful output, plus byte-identical repeats."""

    def __init__(self):
        self.ceilings = load_fixtures()["thresholds"]
        self.digests = {}

    def check(self, op: Op, text: str) -> str | None:
        """None when the output is correct, else the reason it is not."""
        try:
            self._check(op, text)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"{type(exc).__name__}: {exc}"
        digest = hashlib.blake2b(text.encode(), digest_size=16).digest()
        if self.digests.setdefault(op.argv, digest) != digest:
            return "repeated request gave different bytes"
        return None

    def _check(self, op: Op, text: str) -> None:
        cmd = op.argv[0]
        if cmd == "verify":
            check_suite(text)
            return
        n = int(op.argv[op.argv.index("--n") + 1])
        fmt = op.argv[op.argv.index("--format") + 1]
        if cmd == "matrices":
            check_matrices(text, fmt, n, op.alpha, op.beta)
        elif cmd == "eigs":
            check_eigs(text, fmt, n)
        else:
            _check_demo(cmd, n, text, fmt, self.ceilings)
