"""The bulk writers of intop.report against the per-number forms they replace.

Each reference lives here, independent of the module: for JSON the indented
pure-Python encoder over the cleaned object, for CSV one %.17g format per
number, line by line.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from intop.basis import IntervalMap, WeightFamily, build_basis
from intop.cli import main
from intop.intmat import build_integration_matrices, eigen_factorize, scale
from intop.report import SolveReport, csv_document, json_document

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e308,
           -1e308, 0.1, 1.0 / 3.0]


def _reference_clean(obj):
    if isinstance(obj, dict):
        return {k: _reference_clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def reference_json(obj) -> str:
    return json.dumps(_reference_clean(obj), sort_keys=True, indent=1) + "\n"


def fmt(x) -> str:
    return f"{float(x):.17g}"


def reference_csv(meta, header, sections) -> str:
    lines = ["# metadata: " + json.dumps(_reference_clean(meta), sort_keys=True),
             header]
    for title, labels, table in sections:
        if title is not None:
            lines.append(f"# {title}")
        for i, row in enumerate(table):
            lines.append(("" if labels is None else labels[i])
                         + ",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


floats = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))
float_arrays = hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3,
                                                       min_side=0, max_side=4),
                          elements=floats)
other_arrays = hnp.arrays(st.sampled_from([np.float32, np.int64, np.int8,
                                           np.uint64, np.bool_]),
                          hnp.array_shapes(min_dims=0, max_dims=2, min_side=0,
                                           max_side=4))
numpy_scalars = st.one_of(floats.map(np.float64), st.floats(width=32).map(np.float32),
                          st.integers(-2**31, 2**31 - 1).map(np.int32),
                          st.integers(0, 2**64 - 1).map(np.uint64))
leaves = st.one_of(st.none(), st.booleans(), st.integers(), floats,
                   st.text(max_size=5), float_arrays, other_arrays, numpy_scalars)
keys = st.text(alphabet=st.characters(codec="utf-8"), max_size=4)
documents = st.recursive(
    leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(keys, inner, max_size=4)),
    max_leaves=12)


@given(documents)
def test_json_document_matches_the_indented_encoder(doc):
    assert json_document(doc) == reference_json(doc)


@pytest.mark.parametrize("doc", [
    np.array(SPECIAL),
    np.array(SPECIAL).reshape(1, -1),
    np.zeros((0,)), np.zeros((0, 3)), np.zeros((3, 0)), np.zeros((2, 0, 2)),
    np.array(0.1), np.array(True), np.array([[True, False]]),
    {"é": {"ß": [np.arange(3), ()], "z": {}}, "a": np.float64(-0.0)},
    {2: "int", 1.5: "float"}, {None: "none"},
    {True: 1, 0: np.int64(7)},
])
def test_json_document_edge_cases(doc):
    assert json_document(doc) == reference_json(doc)


@pytest.mark.parametrize("doc", [np.array([1j]), np.bool_(True), {(1, 2): 0},
                                 {"a": object()}])
def test_json_document_refuses_what_the_encoder_refuses(doc):
    with pytest.raises(TypeError):
        reference_json(doc)
    with pytest.raises(TypeError):
        json_document(doc)


tables = st.integers(1, 4).flatmap(
    lambda cols: hnp.arrays(np.float64, st.tuples(st.integers(0, 6), st.just(cols)),
                            elements=floats))


@given(st.lists(st.tuples(st.one_of(st.none(), st.sampled_from(["coarse", "ü"])),
                          st.booleans(), tables), max_size=3),
       st.dictionaries(keys, st.one_of(floats, float_arrays), max_size=3))
def test_csv_document_matches_the_per_number_loop(raw, meta):
    sections = [(title, [f"{tag},{i}," for i in range(len(table))] if labelled else None,
                 table)
                for tag, (title, labelled, table) in enumerate(raw)]
    assert (csv_document(meta, "x,y", sections)
            == reference_csv(meta, "x,y", sections))


@given(st.lists(st.tuples(floats, floats, floats), min_size=1, max_size=6),
       st.lists(st.tuples(floats, floats, floats), min_size=1, max_size=6))
def test_solve_report_csv_matches_the_per_number_loop(coarse, fine):
    c, f = np.array(coarse), np.array(fine)
    with np.errstate(all="ignore"):  # inf - inf and overflow are data here
        rep = SolveReport("demo", 3, 0.0, 1.0, c[:, 0], c[:, 1], c[:, 2],
                          f[:, 0], f[:, 1], f[:, 2], {"extra": np.arange(2)})
        meta = rep._meta_dict()
        lines = ["# metadata: " + json.dumps(_reference_clean(meta), sort_keys=True),
                 "t,exact,computed,abs_error"]
        for tag, t, ex, co in (
                ("coarse", rep.coarse_t, rep.coarse_exact, rep.coarse_computed),
                ("fine", rep.fine_t, rep.fine_exact, rep.fine_computed)):
            lines.append(f"# {tag}")
            for ti, ei, ci in zip(t, ex, co):
                lines.append(",".join(fmt(v) for v in (ti, ei, ci, abs(ci - ei))))
        assert rep.csv_text() == "\n".join(lines) + "\n"
        payload = {"metadata": meta,
                   "coarse": {"t": rep.coarse_t, "exact": rep.coarse_exact,
                              "computed": rep.coarse_computed},
                   "fine": {"t": rep.fine_t, "exact": rep.fine_exact,
                            "computed": rep.fine_computed}}
        assert rep.json_text() == reference_json(payload)


def cli_text(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("family,n", [("legendre", 1), ("chebyshev1", 7),
                                      ("jacobi:0.3,-0.4", 12)])
def test_matrices_artifacts_match_the_per_number_loop(capsys, family, n):
    fam = WeightFamily.parse(family)
    mats = build_integration_matrices(build_basis(fam, n))
    lines = ["# metadata: " + json.dumps({"family": fam.label, "n": n}, sort_keys=True),
             "side,j,k,value"]
    for tag, m in (("+", mats.plus), ("-", mats.minus)):
        for j in range(n):
            for k in range(n):
                lines.append(f"{tag},{j},{k},{fmt(m[j, k])}")
    assert cli_text(capsys, "matrices", "--family", family, "--n", str(n)) \
        == "\n".join(lines) + "\n"
    assert cli_text(capsys, "matrices", "--family", family, "--n", str(n),
                    "--format", "json") == reference_json(
        {"family": fam.label, "n": n, "plus": mats.plus, "minus": mats.minus,
         "nodes": mats.basis.nodes, "weights": mats.basis.gauss_weights})


def test_eigs_artifacts_match_the_per_number_loop(capsys):
    fam = WeightFamily.parse("chebyshev1")
    eig = eigen_factorize(scale(build_integration_matrices(build_basis(fam, 6)), "+",
                                IntervalMap(0.0, 2.0)))
    meta = {"a": 0.0, "b": 2.0, "cond": eig.cond, "family": fam.label, "n": 6}
    lines = ["# metadata: " + json.dumps(meta, sort_keys=True), "index,re,im"]
    lines += [f"{i},{fmt(v.real)},{fmt(v.imag)}" for i, v in enumerate(eig.values)]
    argv = ["eigs", "--family", "chebyshev1", "--n", "6", "--a", "0", "--b", "2"]
    assert cli_text(capsys, *argv) == "\n".join(lines) + "\n"
    assert cli_text(capsys, *argv, "--format", "json") == reference_json(
        {**meta, "eigenvalues": [[v.real, v.imag] for v in eig.values]})
