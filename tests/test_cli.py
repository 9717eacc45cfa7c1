import contextlib
import io
import json
import math
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import intop.verify
from intop.basis import WeightFamily, build_basis
from intop.cli import main
from intop.intmat import build_integration_matrices


def run(tmp_path, *argv):
    out = tmp_path / "artifact.txt"
    code = main(list(argv) + ["--out", str(out)])
    return code, (out.read_text() if out.exists() else None)


DEMOS = [
    ["matrices", "--family", "legendre", "--n", "4"],
    ["eigs", "--family", "chebyshev1", "--n", "5"],
    ["ft-invert", "--n", "5"],
    ["lt-invert", "--n", "5"],
    ["control", "--n", "5"],
    ["ode", "--n", "5"],
    ["wiener-hopf", "--n", "5"],
    ["conjecture", "--n-max", "6"],
    ["verify", "--samples", "6"],
]


@pytest.mark.parametrize("argv", DEMOS, ids=lambda a: a[0])
def test_subcommands_run_and_are_deterministic(tmp_path, argv):
    code1, text1 = run(tmp_path, *argv)
    assert code1 == 0
    assert text1
    code2, text2 = run(tmp_path, *argv)
    assert code2 == 0
    assert text1 == text2


def test_csv_layout(tmp_path):
    _, text = run(tmp_path, "ft-invert", "--n", "5", "--format", "csv")
    lines = text.strip().splitlines()
    assert lines[0].startswith("# metadata: {")
    assert lines[1] == "t,exact,computed,abs_error"
    assert "# coarse" in lines and "# fine" in lines
    data_rows = [l for l in lines if l and not l.startswith("#")][1:]
    assert len(data_rows) == 5 + 100
    json.loads(lines[0].split("# metadata: ", 1)[1])


def test_matrices_csv_covers_both_sides(tmp_path):
    _, text = run(tmp_path, "matrices", "--family", "legendre", "--n", "3")
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    assert lines[0] == "side,j,k,value"
    body = lines[1:]
    assert len(body) == 2 * 3 * 3
    sides = {row.split(",")[0] for row in body}
    assert sides == {"+", "-"}


def test_json_payloads_parse(tmp_path):
    _, text = run(tmp_path, "lt-invert", "--n", "5", "--format", "json")
    payload = json.loads(text)
    assert payload["metadata"]["pipeline"] == "lt_invert"
    assert len(payload["coarse"]["t"]) == 5
    _, text = run(tmp_path, "conjecture", "--n-max", "5")
    scan = json.loads(text)
    assert scan["family"] == "legendre"
    assert [row["n"] for row in scan["per_n"]] == [1, 2, 3, 4, 5]
    assert scan["violations"] == []
    _, text = run(tmp_path, "verify", "--samples", "5")
    suite = json.loads(text)
    assert suite["all_passed"] is True


def test_eigs_csv_matches_spectrum(tmp_path):
    _, text = run(tmp_path, "eigs", "--family", "legendre", "--n", "4",
                  "--a", "0", "--b", "1")
    rows = [l.split(",") for l in text.strip().splitlines()
            if l and not l.startswith("#") and not l.startswith("index")]
    assert len(rows) == 4
    re_parts = [float(r[1]) for r in rows]
    assert all(x > 0.0 for x in re_parts)


@pytest.mark.parametrize("n", [20, 60])
def test_eigs_reports_the_spectrum_past_the_condition_limit(tmp_path, n):
    # the eigenvector basis is refused for the applies, not for the spectrum
    code, text = run(tmp_path, "eigs", "--n", str(n), "--format", "json")
    assert code == 0
    doc = json.loads(text)
    lam = np.array([complex(re, im) for re, im in doc["eigenvalues"]])
    assert doc["cond"] > 1e8 and lam.size == n
    assert np.all(lam.real > 0.0)
    trace = np.trace(build_integration_matrices(
        build_basis(WeightFamily.legendre(), n)).plus)
    assert abs(lam.sum() - trace) <= 1e-9 * np.abs(lam).sum()


def test_stdout_default(capsys):
    assert main(["matrices", "--family", "legendre", "--n", "2"]) == 0
    captured = capsys.readouterr()
    assert "side,j,k,value" in captured.out


def test_usage_errors_exit_one(capsys):
    assert main(["no-such-command"]) == 1
    assert main(["matrices", "--family", "legendre", "--n", "0"]) == 1
    assert main(["eigs", "--family", "legendre", "--n", "3",
                 "--a", "2", "--b", "1"]) == 1
    assert main(["conjecture", "--n-max", "4", "--format", "csv"]) == 1
    assert main(["verify", "--samples", "4", "--format", "csv"]) == 1
    assert main(["matrices", "--family", "hermite", "--n", "3"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["ode", "--b", "1.45"],
    ["ode", "--b", "1e300"],
    ["wiener-hopf", "--b", "30"],
    ["wiener-hopf", "--b", "1e300"],
    # the exact response e^(-beta t) F(b - t) overflows
    ["control", "--beta=-400", "--alpha", "1e-300"],
    ["control", "--beta=-400", "--alpha", "1e-8"],
    ["control", "--beta=-400", "--alpha", "50"],
    ["control", "--alpha", "1e300", "--beta=-400"],
    ["control", "--a=-1e300", "--b=-1e299"],
    # alpha + beta = 0 on a length of 9e299: the exact column's quadrature
    # would need 3e299 nodes and is refused at its ceiling
    ["control", "--alpha", "1", "--beta=-1", "--a=-1e300", "--b=-1e299"],
])
def test_numerical_failure_exits_two(tmp_path, capsys, argv):
    code = main(argv + ["--out", str(tmp_path / "never.csv")])
    captured = capsys.readouterr()
    assert code == 2
    assert "numerical failure" in captured.err


@pytest.mark.parametrize("command", ["eigs", "ft-invert", "lt-invert", "control",
                                     "ode", "wiener-hopf"])
@pytest.mark.parametrize("ends", [("--a=0", "--b=5e-324"), ("--a=-5e-324", "--b=0")])
def test_interval_whose_half_length_rounds_to_zero_exits_two(capsys, command, ends):
    # b - a is the least subnormal; without the refusal the scaled matrix is
    # all zeros and the artifacts hold NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, *ends]) == 2
    assert capsys.readouterr().err.startswith("intop: numerical failure:")


def test_exact_columns_are_refused_before_the_solve(capsys):
    # g is finite at every node, but c, and so the exact column, overflows;
    # solving first would leak an overflow from the kernel halves
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["wiener-hopf", "--b", "27", "--n", "40"]) == 2
    assert capsys.readouterr().err == ("intop: numerical failure: exact solution is "
                                       "not finite on the nodes or the fine mesh\n")


def test_fourier_demo_far_from_the_origin_exits_zero(capsys):
    # the exact solution e^{-(t - a)} stays in (0, 1] on any (a, b), so an
    # interval far left of the origin runs like any other
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["ft-invert", "--a=-1e300", "--b=-1e299", "--format", "json"]) == 0
    assert _finite_artifact(capsys.readouterr().out, "json")


@pytest.mark.parametrize("argv, code", [
    # a + b overflows, so the midpoint sums the halves
    (["ft-invert", "--a=1e308", "--b=1.7e308"], 0),
    (["ft-invert", "--a=-1.7e308", "--b=-1e308"], 0),
    (["control", "--a=1e308", "--b=1.7e308"], 0),
    # pi (t - a) overflows in the exact sinc columns, which are refused
    (["lt-invert", "--b", "1e308"], 2),
])
def test_intervals_near_the_largest_double(capsys, argv, code):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv + ["--format", "json"]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert _finite_artifact(out, "json")
    else:
        assert err.startswith("intop: numerical failure:")


@pytest.mark.parametrize("command", ["ft-invert", "wiener-hopf"])
@pytest.mark.parametrize("n", [16, 20, 40, 60])
def test_rational_demos_run_past_the_eigen_limit(capsys, command, n):
    # both demos solve with I + C or I - C, so no eigenvector basis is refused
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([command, "--n", str(n), "--format", "json"]) == 0
    assert _finite_artifact(capsys.readouterr().out, "json")


@pytest.mark.parametrize("spaced, code", [
    (["ode", "--a", "-1e300", "--b", "0"], 2),
    (["ode", "--a", "-1e-5", "--b", "0"], 0),
])
def test_negative_value_in_exponent_notation_is_a_value(capsys, spaced, code):
    # argparse's own pattern reads -1e300 as a flag ("expected one argument")
    assert main(spaced) == code
    first = capsys.readouterr()
    assert main([spaced[0], "=".join(spaced[1:3]), *spaced[3:]]) == code
    assert capsys.readouterr() == first


@pytest.mark.parametrize("family, n", [("chebyshev1", 60),
                                       ("jacobi:-0.75,1.49", 52)])
def test_weighted_matrices_at_large_n(tmp_path, family, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(tmp_path, "matrices", "--family", family, "--n", str(n))
    assert code == 0
    assert len(text.splitlines()) == 2 + 2 * n * n


def test_weighted_conjecture_scan_to_sixty(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(tmp_path, "conjecture", "--family", "chebyshev1",
                         "--n-max", "60")
    assert code == 0
    assert json.loads(text)["inconclusive"] == []


def test_node_failure_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda jacobi: np.zeros(len(jacobi)))
    code, _ = run(tmp_path, "matrices", "--n", "4")
    assert code == 2
    assert "node computation failed" in capsys.readouterr().err


@pytest.mark.parametrize("argv, bad", [
    (["ft-invert", "--b", "inf"], "(0, inf)"),
    (["eigs", "--b", "inf"], "(-1, inf)"),
    (["ft-invert", "--a=-1e308", "--b=1e308"], "(-1e+308, 1e+308)"),
    (["ode", "--b", "inf"], "(0, inf)"),
    (["matrices", "--family", "jacobi:inf,0"], "got inf,0"),
    (["matrices", "--family", "gegenbauer:inf"], "got inf"),
    (["matrices", "--family", "jacobi:0,nan"], "got 0,nan"),
    (["control", "--beta", "nan"], "got 1,nan"),
    (["control", "--alpha", "nan"], "got nan,0.7"),
    (["control", "--alpha", "inf"], "got inf,0.7"),
    (["ft-invert", "--a", "-inf"], "(-inf, 4)"),
    # a finite bad value too; the eigen route would refuse n = 16 (exit 2),
    # but alpha is checked before any numerics
    (["control", "--n", "16", "--alpha", "0"], "alpha must be positive, got 0"),
    # a family given the wrong number of parameters is refused, its text quoted
    (["matrices", "--family", "legendre:3"], "got 'legendre:3'"),
    (["matrices", "--family", "chebyshev1:2"], "got 'chebyshev1:2'"),
    (["matrices", "--family", "jacobi:1"], "got 'jacobi:1'"),
    (["matrices", "--family", "jacobi:1,2,3"], "got 'jacobi:1,2,3'"),
])
def test_non_finite_input_exits_one(tmp_path, capsys, argv, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = run(tmp_path, *argv)
    assert code == 1
    assert bad in capsys.readouterr().err


def test_norm_bound_violation_is_a_failed_verdict(tmp_path, monkeypatch):
    # an antiderivative ten times too large breaks the bound; the suite
    # reports it (exit 2) instead of raising out of main
    poly = types.SimpleNamespace(**vars(np.polynomial.polynomial))
    poly.polyint = lambda c: 10.0 * np.polynomial.polynomial.polyint(c)
    monkeypatch.setattr(intop.verify, "P", poly)
    code, text = run(tmp_path, "verify", "--samples", "6")
    suite = json.loads(text)
    assert code == 2
    assert suite["norm_bound"]["passed"] is False
    assert suite["norm_bound"]["max_ratio"] > suite["norm_bound"]["bound"]
    assert suite["all_passed"] is False


def test_weight_mass_overflow_exits_two(tmp_path, capsys):
    code, _ = run(tmp_path, "matrices", "--family", "jacobi:2000,3", "--n", "4")
    assert code == 2
    assert "overflows double precision" in capsys.readouterr().err


def test_subcommands_run_without_scipy():
    # scipy is a test-only dependency: with every scipy import made to fail,
    # each subcommand still runs (verify goes through numerical_range_sample)
    code = ("import os, sys\n"
            "sys.modules['scipy'] = None\n"
            "from intop.cli import main\n"
            f"print([main(argv + ['--out', os.devnull]) for argv in {DEMOS!r}])\n")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == str([0] * len(DEMOS))


def test_parser_is_built_once_and_keeps_no_state(capsys):
    from intop.cli import build_parser
    assert build_parser() is build_parser()
    first = ["ft-invert", "--n", "7", "--format", "json"]
    assert main(first) == 0
    text = capsys.readouterr().out
    assert main(["matrices", "--family", "chebyshev1", "--n", "9"]) == 0
    assert main(["eigs", "--n", "3", "--a", "2", "--b", "1"]) == 1
    assert main(["matrices", "--bogus"]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(first) == 0
    assert capsys.readouterr().out == text


def _finite_artifact(text: str, fmt: str) -> bool:
    """Every number in a demo or eigs artifact is finite; json hands NaN and
    Infinity to parse_constant."""
    def refuse(constant):
        raise ValueError(constant)

    if fmt == "json":
        doc, cells = text, []
    else:
        meta, _, *rows = text.splitlines()
        doc = meta.removeprefix("# metadata: ")
        cells = [c for row in rows if not row.startswith("#") for c in row.split(",")]
    try:
        json.loads(doc, parse_constant=refuse)
    except ValueError:
        return False
    return all(math.isfinite(float(c)) for c in cells)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300)
@given(command=st.sampled_from(["ft-invert", "lt-invert", "control", "ode",
                                "wiener-hopf", "eigs"]),
       n=st.integers(1, 20), ends=st.tuples(_finite, _finite),
       alpha=_finite, beta=_finite, fmt=st.sampled_from(["csv", "json"]))
def test_cli_contract(command, n, ends, alpha, beta, fmt):
    # exit 0: every number written is finite; 1: a usage error on stderr;
    # 2: a numerical failure on stderr; nothing escapes main, not even a
    # RuntimeWarning
    a, b = sorted(ends)
    argv = [command, f"--n={n}", f"--a={a!r}", f"--b={b!r}", "--format", fmt]
    if command == "control":
        argv += [f"--alpha={alpha!r}", f"--beta={beta!r}"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert _finite_artifact(out.getvalue(), fmt), argv
    elif code == 1:
        assert "error:" in err.getvalue(), argv
    else:
        assert err.getvalue().startswith("intop: numerical failure:"), argv
