"""Estimator-style wrappers around the matching pipelines.

The classes follow the scikit-learn parameter protocol (`get_params` /
`set_params`, all hyperparameters in ``__init__``, fitted attributes with a
trailing underscore) so they compose with ecosystem tooling such as
``sklearn.base.clone`` and grid-search style sweeps, without requiring
scikit-learn itself.

The parameters are the pipeline's `AlignConfig` fields with its defaults
(``max_iters`` is ``ppa_max_iters``), and their names are read off
``__init__``. `fit` takes `Graph` objects or anything `Graph(...)` accepts.
"""

from __future__ import annotations

import inspect

import numpy as np

from .align import AlignConfig, eigen_align, projected_power_align
from .graphs import Graph

__all__ = ["EigenAlign", "ProjectedPowerAlignment"]

_DEFAULTS = AlignConfig()
# Estimator parameter -> AlignConfig field, where the two names differ.
_FIELD_OF = {"max_iters": "ppa_max_iters"}


class _BaseAligner:
    """Shared fit plumbing; subclasses set `_run` to their pipeline."""

    def get_params(self, deep: bool = True) -> dict:
        names = inspect.signature(type(self)).parameters  # those of __init__
        return {name: getattr(self, name) for name in names}

    def set_params(self, **params) -> "_BaseAligner":
        valid = self.get_params()
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}")
            setattr(self, name, value)
        return self

    def fit(self, g1, g2) -> "_BaseAligner":
        """Align two graphs given as Graph objects or 0/1 adjacency matrices."""
        graph1 = g1 if isinstance(g1, Graph) else Graph(g1)
        graph2 = g2 if isinstance(g2, Graph) else Graph(g2)
        cfg = AlignConfig(**{_FIELD_OF.get(name, name): value
                             for name, value in self.get_params().items()})
        result = self._run(graph1, graph2, cfg)
        self.result_ = result
        self.permutation_ = np.array(result.permutation.map)
        self.objective_ = result.objective
        self.matched_edges_ = result.matched_edges
        self.n_iter_ = result.iterations
        self.converged_ = result.converged
        return self

    def fit_predict(self, g1, g2) -> np.ndarray:
        """Fit and return the vertex correspondence as an integer array."""
        return self.fit(g1, g2).permutation_

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


class EigenAlign(_BaseAligner):
    """Spectral matcher: dominant-eigenvector scores rounded by exact assignment.

    Attributes after fit: ``permutation_`` (int array, vertex i of the first
    graph maps to ``permutation_[i]`` of the second), ``objective_``,
    ``matched_edges_``, ``n_iter_``, ``converged_``, ``result_``.
    """

    _run = staticmethod(eigen_align)

    def __init__(self, epsilon: float = _DEFAULTS.epsilon,
                 eigen_tol: float = _DEFAULTS.eigen_tol,
                 eigen_max_iters: int = _DEFAULTS.eigen_max_iters):
        self.epsilon = epsilon
        self.eigen_tol = eigen_tol
        self.eigen_max_iters = eigen_max_iters


class ProjectedPowerAlignment(_BaseAligner):
    """Projected power matcher: operator multiplies alternated with greedy
    projection onto permutations, seeded by the dominant eigenvector."""

    _run = staticmethod(projected_power_align)

    def __init__(self, epsilon: float = _DEFAULTS.epsilon,
                 eigen_tol: float = _DEFAULTS.eigen_tol,
                 eigen_max_iters: int = _DEFAULTS.eigen_max_iters,
                 max_iters: int = _DEFAULTS.ppa_max_iters,
                 return_best: bool = _DEFAULTS.return_best):
        self.epsilon = epsilon
        self.eigen_tol = eigen_tol
        self.eigen_max_iters = eigen_max_iters
        self.max_iters = max_iters
        self.return_best = return_best
