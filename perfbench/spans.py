"""Spans around the calls one intop module makes into another.

Only the traced run installs them. Each wrapper records the name, start, end
and parent span, the operation it belongs to, the exception class if the call
raised, and a few values read from the call's arguments or result (node
counts, Picard iterations, bytes serialized). Spans are kept in memory and
written out as JSON lines when the run ends. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

import intop.cli
import intop.verify

# Names each module looks up in its own namespace at call time, so that
# replacing the attribute reroutes the call. The first group is imported from
# another intop module; the second is called by name inside its own module.
WRAPPED = {
    "intop.cli": ("build_basis", "build_integration_matrices", "eigen_factorize",
                  "scale", "fourier_demo", "laplace_demo", "control_demo",
                  "tangent_demo", "exp_kernel_demo", "conjecture_scan"),
    "intop.intmat": ("build_basis",),
    "intop.invert": ("build_basis", "interpolate", "build_integration_matrices",
                     "eigen_factorize", "scale", "apply_real"),
    "intop.convolve": ("build_basis", "interpolate", "build_integration_matrices",
                       "eigen_factorize", "scale", "apply_real"),
    "intop.ode": ("build_basis", "interpolate", "build_integration_matrices",
                  "scale", "picard_solve"),
    "intop.wiener_hopf": ("build_basis", "interpolate", "build_integration_matrices",
                          "eigen_factorize", "scale", "matrix_function", "solve"),
    "intop.verify": ("build_basis", "build_integration_matrices", "scale",
                     "adaptive_integrate", "check_positivity_identity",
                     "check_derivative_range", "check_norm_bound",
                     "check_half_line_pairing", "check_integral_chain",
                     "conjecture_scan", "numerical_range_sample"),
}
# (module, class, method) for the report serializers.
WRAPPED_METHODS = (("intop.report", "SolveReport", "csv_text"),
                   ("intop.report", "SolveReport", "json_text"))
RENAMED = {"intmat.apply_real": "intmat.apply",
           "intmat.matrix_function": "intmat.apply",
           "report.csv_text": "report.serialize",
           "report.json_text": "report.serialize"}

VERIFY_CHECKS = ("check_positivity_identity", "check_derivative_range",
                 "check_norm_bound", "check_half_line_pairing",
                 "check_integral_chain", "conjecture_scan", "numerical_range_sample")
PIPELINE_DEMOS = ("invert.fourier_demo", "invert.laplace_demo",
                  "convolve.control_demo", "ode.tangent_demo",
                  "wiener_hopf.exp_kernel_demo", "wiener_hopf.solve")


def _nodes(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["n"]


def _basis_n(args, kwargs):
    return (args[0] if args else kwargs["basis"]).n


# Values read from the arguments (before the call, so failed calls keep them)
# and from the result.
ARG_NOTES = {"basis.build_basis": ("n", _nodes),
             "intmat.build_integration_matrices": ("n", _basis_n)}
RESULT_NOTES = {"ode.picard_solve": ("iterations", lambda r: r.iterations),
                "report.serialize": ("bytes", lambda r: len(r.encode("utf-8")))}


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "error", "info")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = 0.0
        self.error = None
        self.info = {}


class Tracer:
    """Records spans of the wrapped calls. installed() swaps the wrappers into
    the intop modules for the duration of a with-block; cli_main and suite are
    the traced entry points an operation calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self.cli_main = self.wrap("cli.main", intop.cli.main)
        self.suite = self.wrap("verify.verify_suite", intop.verify.verify_suite)
        targets = [(importlib.import_module(mod), attr)
                   for mod, attrs in WRAPPED.items() for attr in attrs]
        targets += [(getattr(importlib.import_module(mod), cls), attr)
                    for mod, cls, attr in WRAPPED_METHODS]
        self._swaps = []  # (owner, attribute, original, wrapper)
        for owner, attr in targets:
            fn = getattr(owner, attr)
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            wrapper = self.wrap(RENAMED.get(name, name), fn)
            self._swaps.append((owner, attr, fn, wrapper))

    def wrap(self, name, fn):
        arg_note = ARG_NOTES.get(name)
        result_note = RESULT_NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, self.op)
            if arg_note is not None:
                span.info[arg_note[0]] = arg_note[1](args, kwargs)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if result_note is not None:
                span.info[result_note[0]] = result_note[1](result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, fn, _ in self._swaps:
                setattr(owner, attr, fn)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": s.parent, "op": s.op,
                                     "name": s.name, "start": s.start,
                                     "end": s.end, "error": s.error,
                                     **s.info}) + "\n")


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer calls, self times (ms), failures and work counts."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    calls = defaultdict(int)
    self_ms = defaultdict(float)
    fails = defaultdict(int)
    for i, s in enumerate(spans):
        calls[s.name] += 1
        self_ms[s.name] += 1e3 * (s.end - s.start - child_time[i])
        fails[s.name] += s.error is not None

    def parent_name(s):
        return spans[s.parent].name if s.parent is not None else None

    subrules = [s for s in spans if s.name == "basis.build_basis"
                and parent_name(s) == "intmat.build_integration_matrices"]
    bim = "intmat.build_integration_matrices"
    m = {"cli.main.calls": calls["cli.main"],
         "cli.main.self_ms": self_ms["cli.main"]}
    for layer in ("report.serialize", "basis.interpolate", "intmat.apply"):
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_ms"] = self_ms[layer]
    m["report.bytes_out"] = sum(s.info.get("bytes", 0) for s in spans
                                if s.name == "report.serialize")
    m["basis.build_basis.calls"] = calls["basis.build_basis"]
    m["basis.build_basis.self_ms"] = self_ms["basis.build_basis"]
    m["basis.build_basis.max_nodes"] = max(
        (s.info.get("n", 0) for s in spans if s.name == "basis.build_basis"),
        default=0)
    for layer in (bim, "intmat.eigen_factorize"):
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_ms"] = self_ms[layer]
        m[f"{layer}.fail"] = fails[layer]
    m["intmat.subrule_builds"] = len(subrules)
    m["intmat.subrule_builds_per_matrix"] = (len(subrules) / calls[bim]
                                             if calls[bim] else 0.0)
    # the n x m x n cardinal table is formed only after the sub-rule built
    m["intmat.cardinal_evals"] = sum(spans[s.parent].info["n"] ** 2 * s.info["n"]
                                     for s in subrules if s.error is None)
    for name in PIPELINE_DEMOS:
        m[f"{name}.self_ms"] = self_ms[name]
    control = calls["convolve.control_demo"]
    eig_in_control = sum(1 for s in spans if s.name == "intmat.eigen_factorize"
                         and parent_name(s) == "convolve.control_demo")
    m["convolve.control_demo.eigen_per_op"] = (eig_in_control / control
                                               if control else 0.0)
    m["ode.picard_solve.calls"] = calls["ode.picard_solve"]
    m["ode.picard_solve.iterations"] = sum(
        s.info.get("iterations", 0) for s in spans if s.name == "ode.picard_solve")
    oracle = "oracle.adaptive_integrate"
    m[f"{oracle}.calls"] = calls[oracle]
    m[f"{oracle}.nested_calls"] = sum(1 for s in spans if s.name == oracle
                                      and parent_name(s) == oracle)
    m[f"{oracle}.self_ms"] = self_ms[oracle]
    m[f"{oracle}.fail"] = fails[oracle]
    for check in VERIFY_CHECKS:
        m[f"verify.{check}.calls"] = calls[f"verify.{check}"]
        m[f"verify.{check}.self_ms"] = self_ms[f"verify.{check}"]
    return m
