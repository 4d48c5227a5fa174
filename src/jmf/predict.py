"""JMF-based prediction: fit W on new rows (JMF/L) or H on new columns (JMF/R)."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (Algorithm, Factorization, MultiViewDataset, Problem,
                    SolverConfig)
from .objective import QuadSubproblem, h_subproblem, w_subproblem
from .solvers import _ne_minimize, _panls_minimize, _pg_minimize, _pgn


@dataclass
class TrainedModel:
    """Factors from a completed solve together with the problem they solved."""

    problem: Problem
    factors: Factorization
    config: SolverConfig = field(default_factory=SolverConfig)

    @property
    def params(self):
        return self.problem.params


def _as_view_map(model: TrainedModel, test) -> dict[int, np.ndarray]:
    if isinstance(test, MultiViewDataset):
        views = dict(enumerate(test.views))
    elif isinstance(test, dict):
        views = {int(k): np.asarray(v, dtype=float) for k, v in test.items()}
    else:
        views = dict(enumerate(np.asarray(v, dtype=float) for v in test))
    if not views:
        raise ValueError("no test views supplied")
    for i, x in views.items():
        if not (0 <= i < model.problem.n_views):
            raise ValueError(f"unknown view index {i}")
        if x.ndim != 2 or x.shape[1] != model.problem.n[i]:
            raise ValueError(
                f"test view {i} has {x.shape[1] if x.ndim == 2 else '?'} "
                f"columns, expected {model.problem.n[i]}")
    rows = {x.shape[0] for x in views.values()}
    if len(rows) != 1:
        raise ValueError("test views disagree on the row count")
    return views


def _minimize(q: QuadSubproblem, x0: np.ndarray,
              config: SolverConfig) -> np.ndarray:
    """Drive one convex subproblem to the configured relative tolerance."""
    x = x0
    pn0 = _pgn(x, q.grad(x))
    target = max(config.tolerance * pn0, 1e-14)
    inner = SolverConfig(**{**config.__dict__,
                            "inner_tol": target, "inner_tol_rel": 0.0})
    for _ in range(config.max_outer_iters):
        if config.algorithm is Algorithm.PG:
            x, _ = _pg_minimize(q, x, inner)
        elif config.algorithm is Algorithm.PANLS:
            x = _panls_minimize(q, x, inner)
        else:  # Ne and MUR both fall back to the Nesterov engine here
            x = _ne_minimize(q, x, inner)
        if _pgn(x, q.grad(x)) <= target:
            break
    return x


def predict_left(model: TrainedModel, test, config: SolverConfig | None = None
                 ) -> np.ndarray:
    """Fit a new basis on test rows with the learned coefficients frozen."""
    config = config or model.config
    views = _as_view_map(model, test)
    idx = sorted(views)
    q = w_subproblem(model.problem, [model.factors.H[i] for i in idx],
                     views=[views[i] for i in idx])
    m_test = views[idx[0]].shape[0]
    rng = np.random.default_rng(config.seed)
    w0 = rng.random((m_test, model.problem.rank))
    return _minimize(q, w0, config)


def predict_class(w_hat: np.ndarray) -> np.ndarray:
    """Per-row argmax component index; ties break toward the lowest index."""
    w_hat = np.asarray(w_hat, dtype=float)
    if w_hat.size == 0:
        raise ValueError("empty basis matrix")
    return np.argmax(w_hat, axis=1)


def predict_view(model: TrainedModel, test, target_view: int = 0,
                 config: SolverConfig | None = None) -> np.ndarray:
    """Reconstruct a held-out view from the others: X_hat = W_hat @ H_target."""
    views = _as_view_map(model, test)
    if target_view in views:
        raise ValueError("the target view must not be supplied as input")
    w_hat = predict_left(model, views, config)
    return w_hat @ model.factors.H[target_view]


def predict_right(model: TrainedModel, test, config: SolverConfig | None = None
                  ) -> list[np.ndarray]:
    """Fit new coefficients on test columns with the basis frozen.

    Views are updated in ascending order, each seeing the freshest others
    (the between-view terms couple them); sweeps repeat until the projected
    gradient has shrunk by the configured tolerance.

    Within/between regularizers apply only to views whose test column count
    matches the training one; otherwise the plain least-squares subproblem
    (plus the sparsity term) is solved.
    """
    config = config or model.config
    if isinstance(test, MultiViewDataset):
        views = dict(enumerate(test.views))
    else:
        views = {int(k): np.asarray(v, dtype=float) for k, v in test.items()}
    if not views:
        raise ValueError("no test views supplied")
    w = model.factors.W
    for i, x in views.items():
        if x.shape[0] != w.shape[0]:
            raise ValueError(
                f"test view {i} has {x.shape[0]} rows, expected {w.shape[0]}")

    idx = sorted(views)
    rng = np.random.default_rng(config.seed)
    hs = {i: rng.random((model.problem.rank, views[i].shape[1]))
          for i in idx}
    matching = all(views[i].shape[1] == model.problem.n[i] for i in idx)

    def quad(i: int) -> QuadSubproblem:
        if not matching:
            r = model.problem.rank
            mat = w.T @ w + model.params.gamma2 * np.ones((r, r))
            return QuadSubproblem((mat, None, 0.0, 0.0),
                                  -2.0 * (w.T @ views[i]), "h")
        full = list(model.factors.H)
        for j in idx:
            full[j] = hs[j]
        return h_subproblem(model.problem, w, full, i, x_view=views[i])

    def residual():
        return float(np.linalg.norm(
            [_pgn(hs[i], quad(i).grad(hs[i])) for i in idx]))

    pn0 = residual()
    target = max(config.tolerance * pn0, 1e-14)
    for _ in range(config.max_outer_iters):
        for i in idx:
            # built just before its solve, so it sees the views updated
            # earlier in this sweep
            hs[i] = _minimize(quad(i), hs[i], config)
        if residual() <= target:
            break
    return [hs[i] for i in idx]
