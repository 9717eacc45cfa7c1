"""Demo run reports and the one place that knows the output format.

Every CSV and JSON artifact the package writes comes from the two writers
here, so a rerun of the same configuration is byte-identical:

- json_document(obj) is json.dumps(obj, sort_keys=True, indent=1) + "\\n"
  after arrays become lists and numpy scalars Python numbers; floats print
  as their shortest round-trip repr (0.1 as 0.1).
- csv_document(meta, header, sections) writes a "# metadata:" line, a
  header and the rows of each section; floats print with %.17g (0.1 as
  0.10000000000000001).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SolveReport", "csv_document", "json_document"]


def _clean(obj):
    """Make metadata JSON-ready: arrays to lists, numpy scalars to Python."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def json_document(obj) -> str:
    """json.dumps(_clean(obj), sort_keys=True, indent=1) + "\\n", with each
    numeric array written by the C encoder instead of number by number."""
    return _json(obj, "\n") + "\n"


def _json(obj, nl: str) -> str:
    """obj as the indented encoder writes it at the depth whose newline is nl."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + " "
        items = [json.dumps(_json_key(k)) + ": " + _json(v, inner)
                 for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + " "
        return "[" + inner + ("," + inner).join(_json(v, inner) for v in obj) + nl + "]"
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "fiub":
            return _json_numeric(obj.tolist(), obj.ndim, nl)
        # other dtypes go to the encoder as _clean leaves them
        return json.dumps(obj.tolist(), sort_keys=True, indent=1).replace("\n", nl)
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    return json.dumps(obj)


def _json_numeric(x, ndim: int, nl: str) -> str:
    """The tolist() of a numeric array: one C-level dumps per innermost row,
    whose ", " separators become the indented ones."""
    if ndim == 0 or not x:
        return json.dumps(x)
    inner = nl + " "
    if ndim == 1:
        body = json.dumps(x)[1:-1].replace(", ", "," + inner)
    else:
        body = ("," + inner).join(_json_numeric(row, ndim - 1, inner) for row in x)
    return "[" + inner + body + nl + "]"


def _json_key(key) -> str:
    """A dict key as the encoder converts it before quoting."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


def csv_document(meta: dict, header: str, sections) -> str:
    """A "# metadata: {...}" line, the header line, then per section an
    optional "# title" line and one line per table row.

    sections holds (title, labels, table) triples: title is a string or None,
    table a 2-D float array whose row i prints as labels[i] (a string, or
    nothing when labels is None) followed by its comma-separated values.
    """
    parts = ["# metadata: " + json.dumps(_clean(meta), sort_keys=True) + "\n",
             header + "\n"]
    for title, labels, table in sections:
        if title is not None:
            parts.append(f"# {title}\n")
        table = np.asarray(table, dtype=np.float64)
        rows, cols = table.shape
        # one % over the labels and values interleaved row by row
        flat = [None] * (rows * (cols + 1))
        flat[::cols + 1] = [""] * rows if labels is None else labels
        for c in range(cols):
            flat[c + 1::cols + 1] = table[:, c].tolist()
        parts.append(("%s" + ",".join(["%.17g"] * cols) + "\n") * rows % tuple(flat))
    return "".join(parts)


@dataclass
class SolveReport:
    """Coarse (collocation-node) and fine-mesh results of one demo run."""

    pipeline: str
    n: int
    a: float
    b: float
    coarse_t: np.ndarray
    coarse_exact: np.ndarray
    coarse_computed: np.ndarray
    fine_t: np.ndarray
    fine_exact: np.ndarray
    fine_computed: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def coarse_error(self) -> np.ndarray:
        return np.abs(self.coarse_computed - self.coarse_exact)

    @property
    def fine_error(self) -> np.ndarray:
        return np.abs(self.fine_computed - self.fine_exact)

    @property
    def max_coarse_error(self) -> float:
        return float(self.coarse_error.max())

    @property
    def max_fine_error(self) -> float:
        return float(self.fine_error.max())

    def _meta_dict(self) -> dict:
        meta = {"pipeline": self.pipeline, "n": self.n, "a": self.a, "b": self.b,
                "fine_points": int(self.fine_t.size),
                "max_coarse_error": self.max_coarse_error,
                "max_fine_error": self.max_fine_error}
        meta.update(self.metadata)
        return meta

    def csv_text(self) -> str:
        return csv_document(self._meta_dict(), "t,exact,computed,abs_error", [
            ("coarse", None, np.column_stack((self.coarse_t, self.coarse_exact,
                                              self.coarse_computed, self.coarse_error))),
            ("fine", None, np.column_stack((self.fine_t, self.fine_exact,
                                            self.fine_computed, self.fine_error)))])

    def json_text(self) -> str:
        return json_document({"metadata": self._meta_dict(),
                              "coarse": {"t": self.coarse_t, "exact": self.coarse_exact,
                                         "computed": self.coarse_computed},
                              "fine": {"t": self.fine_t, "exact": self.fine_exact,
                                       "computed": self.fine_computed}})
