"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py

1. The generator is deterministic: one seed gives the same operations, another
   seed gives others.
2. Every correctness check accepts today's output and rejects a corrupted
   one: a perturbed matrix entry, eigenvalue, node or report value, a flipped
   verify verdict, or different bytes for a repeated request.
3. The count metrics of the traced run (intmat.cardinal_evals,
   intmat.subrule_builds_per_matrix, oracle.adaptive_integrate.calls) repeat
   exactly across two traced passes. The verify pass takes about 30 s each.

Prints one line per check and exits non-zero if any fails.
"""

from __future__ import annotations

import json
import os
import sys

from run import BLAS_ENV, SRC, Loop, trace_step

COUNTS = ("intmat.cardinal_evals", "intmat.subrule_builds_per_matrix",
          "oracle.adaptive_integrate.calls")
PERTURB = 1.0 + 1e-6


def _bump(value: float) -> float:
    return value * PERTURB if value else 1e-9


def _corrupt_csv(text: str, prefix: str, column: int) -> str:
    """Perturb column `column` of the first data row starting with prefix."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if line.startswith(prefix):
            cells = line.split(",")
            cells[column] = repr(_bump(float(cells[column])))
            lines[i] = ",".join(cells)
            return "\n".join(lines)
    raise AssertionError(f"no row starting with {prefix!r}")


def _corrupt_json(text: str, *path) -> str:
    doc = json.loads(text)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = _bump(node[path[-1]])
    return json.dumps(doc)


def _corrupt_metadata(text: str, key: str) -> str:
    first, rest = text.split("\n", 1)
    meta = json.loads(first[len("# metadata: "):])
    meta[key] = _bump(meta[key])
    return "# metadata: " + json.dumps(meta, sort_keys=True) + "\n" + rest


def _corruptions(op, text):
    """Corrupted variants of one correct output, each with a label."""
    cmd, fmt = op.argv[0], op.argv[op.argv.index("--format") + 1]
    if cmd == "matrices":
        if fmt == "csv":
            return [("plus entry", _corrupt_csv(text, "+,2,3,", 3)),
                    ("minus entry", _corrupt_csv(text, "-,4,1,", 3))]
        return [("plus entry", _corrupt_json(text, "plus", 2, 3)),
                ("node", _corrupt_json(text, "nodes", 1)),
                ("weight", _corrupt_json(text, "weights", 0))]
    if cmd == "eigs":
        if fmt == "csv":
            return [("eigenvalue", _corrupt_csv(text, "3,", 1))]
        return [("eigenvalue", _corrupt_json(text, "eigenvalues", 3, 0))]
    if fmt == "csv":
        # the data rows after '# coarse' start with a node abscissa
        coarse = text.split("# coarse\n", 1)[1].split("\n", 1)[0]
        head, _ = coarse.split(",", 1)
        return [("computed value", _corrupt_csv(text, head + ",", 2)),
                ("exact value", _corrupt_csv(text, head + ",", 1)),
                ("max_coarse_error", _corrupt_metadata(text, "max_coarse_error"))]
    return [("coarse computed", _corrupt_json(text, "coarse", "computed", 1)),
            ("fine computed", _corrupt_json(text, "fine", "computed", 7)),
            ("max_coarse_error", _corrupt_json(text, "metadata", "max_coarse_error"))]


def check_generator(workloads, report) -> None:
    for name in workloads.WORKLOADS:
        first = [workloads.Generator(name, 7).op(i) for i in range(300)]
        again = [workloads.Generator(name, 7).op(i) for i in range(300)]
        other = [workloads.Generator(name, 8).op(i) for i in range(300)]
        report(f"generator {name}: same seed, same operations", first == again)
        if name != "verify":  # the suite always runs with its default seed
            report(f"generator {name}: other seed, other operations",
                   first != other)


def check_outputs(workloads, report) -> None:
    ops = [workloads.Op((cmd, *(["--family", "legendre"] if cmd == "matrices" else []),
                        "--n", "7", "--format", fmt), ("legendre", 7))
           for cmd in workloads.PIPELINE_COMMANDS for fmt in ("csv", "json")]
    ops += [workloads.Op(("matrices", "--family", label, "--n", "9", "--format", fmt),
                         (label, 9), a, b)
            for label, a, b in (("chebyshev1", -0.5, -0.5),
                                ("gegenbauer:0.300000", -0.2, -0.2),
                                ("jacobi:-0.600000,1.200000", -0.6, 1.2))
            for fmt in ("csv", "json")]
    for op in ops:
        res = workloads.run_op(op)
        label = " ".join(op.argv)
        report(f"{label}: output accepted",
               res.failure is None and workloads.Checker().check(op, res.text) is None)
        for what, bad in _corruptions(op, res.text):
            report(f"{label}: perturbed {what} rejected",
                   workloads.Checker().check(op, bad) is not None)
        checker = workloads.Checker()
        checker.check(op, res.text)
        report(f"{label}: different bytes on repeat rejected",
               checker.check(op, res.text + " ") is not None)
    op = workloads.Generator("verify", 1).op(0)
    good = {"norm_bound": {"passed": True}, "all_passed": True}
    report("verify: passing suite accepted",
           workloads.Checker().check(op, json.dumps(good)) is None)
    for path in (("all_passed",), ("norm_bound", "passed")):
        bad = json.loads(json.dumps(good))
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = False
        report(f"verify: flipped {'.'.join(path)} rejected",
               workloads.Checker().check(op, json.dumps(bad)) is not None)


def check_counts(report) -> None:
    from spans import Tracer, layer_metrics

    for name, count in (("pipelines", 60), ("weighted_matrices", 12), ("verify", 1)):
        runs = []
        for _ in range(2):
            tracer, loop = Tracer(), Loop(name, 5)
            for i in range(count):
                trace_step(tracer, loop, i)
            metrics = layer_metrics(tracer.spans)
            runs.append({k: metrics[k] for k in COUNTS})
        report(f"traced {name}: counts repeat {runs[0]}", runs[0] == runs[1])


def main() -> int:
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import workloads

    failures = []

    def report(label, ok):
        print(("ok   " if ok else "FAIL ") + label, flush=True)
        if not ok:
            failures.append(label)

    check_generator(workloads, report)
    check_outputs(workloads, report)
    check_counts(report)
    print(f"{len(failures)} self-check(s) failed" if failures
          else "all self-checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
