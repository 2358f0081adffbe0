"""Graph matching via spectral scoring and projected power iteration.

Core objects: :class:`Graph` / :class:`Permutation` with seeded generators,
the matrix-free pairwise scoring operator, two matching pipelines (spectral
rounding and projected power steps), estimator-style wrappers, and a planted
Erdős–Rényi benchmark harness with CSV/PGM output.

`import netalign` loads only the matching core (`graphs`, `operator`,
`rounding`, `spectral`, `align`). The harness and estimator names load their
modules on first use (`_LAZY`), and `numpy.random` loads with the first
random draw.
"""

import importlib

from .align import (AlignConfig, AlignmentResult, build_operator, eigen_align,
                    projected_power_align)
from .graphs import (Graph, Permutation, RngSeed, apply_noise, format_edge_list,
                     generate_er, matched_edges, parse_edge_list, permute,
                     random_permutation)
from .operator import (AlignmentOperator, DegenerateBalanceError, ScoringParams,
                       compute_alpha, dense_alignment_matrix, make_params,
                       quadratic_form)
from .rounding import greedy_round, max_weight_matching
from .spectral import EigenResult, top_eigenvector

# Public name -> the submodule that defines it, imported on first access.
_LAZY = {
    **dict.fromkeys(("GridSpec", "TrialRecord", "TrialSpec", "read_csv", "render_heatmap",
                     "run_grid", "run_trial", "summarize", "write_csv"), "harness"),
    **dict.fromkeys(("EigenAlign", "ProjectedPowerAlignment"), "estimators"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

__all__ = [
    "AlignConfig",
    "AlignmentOperator",
    "AlignmentResult",
    "DegenerateBalanceError",
    "EigenAlign",
    "EigenResult",
    "Graph",
    "GridSpec",
    "Permutation",
    "ProjectedPowerAlignment",
    "RngSeed",
    "ScoringParams",
    "TrialRecord",
    "TrialSpec",
    "apply_noise",
    "build_operator",
    "compute_alpha",
    "dense_alignment_matrix",
    "eigen_align",
    "format_edge_list",
    "generate_er",
    "greedy_round",
    "make_params",
    "matched_edges",
    "max_weight_matching",
    "parse_edge_list",
    "permute",
    "projected_power_align",
    "quadratic_form",
    "random_permutation",
    "read_csv",
    "render_heatmap",
    "run_grid",
    "run_trial",
    "summarize",
    "top_eigenvector",
    "write_csv",
]
