"""Demo run reports and their CSV/JSON serializations.

Numbers are written with 17 significant digits so a rerun of the same
configuration is byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SolveReport", "format_float"]


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


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
        meta.update(_clean(self.metadata))
        return meta

    def csv_text(self) -> str:
        lines = ["# metadata: " + json.dumps(self._meta_dict(), sort_keys=True),
                 "t,exact,computed,abs_error"]
        for tag, t, ex, co in (("coarse", self.coarse_t, self.coarse_exact, self.coarse_computed),
                               ("fine", self.fine_t, self.fine_exact, self.fine_computed)):
            lines.append(f"# {tag}")
            for ti, ei, ci in zip(t, ex, co):
                lines.append(",".join(format_float(v) for v in (ti, ei, ci, abs(ci - ei))))
        return "\n".join(lines) + "\n"

    def json_text(self) -> str:
        payload = {"metadata": self._meta_dict(),
                   "coarse": {"t": self.coarse_t, "exact": self.coarse_exact,
                              "computed": self.coarse_computed},
                   "fine": {"t": self.fine_t, "exact": self.fine_exact,
                            "computed": self.fine_computed}}
        return json.dumps(_clean(payload), sort_keys=True, indent=1) + "\n"
