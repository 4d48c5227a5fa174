"""JMF-based prediction: fit W on new rows (JMF/L) or H on new columns (JMF/R)."""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (Algorithm, ConstraintSet, Factorization, Hyperparameters,
                    MultiViewDataset, SolverConfig)
from .objective import projected_norm, view_products
from .solvers import _as_factor, _build_quad, _engine_step


@dataclass
class TrainedModel:
    """Trained factors with the weights, constraints and solver settings
    that JMF/L and JMF/R read; the block builders take it for a ``Problem``."""

    factors: Factorization
    params: Hyperparameters
    constraints: ConstraintSet = field(default_factory=ConstraintSet.empty)
    config: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.params.rank != self.factors.W.shape[1]:
            raise ValueError(f"rank {self.params.rank} does not match the "
                             f"{self.factors.W.shape[1]} columns of W")
        self.constraints.check([h.shape[1] for h in self.factors.H])


def _as_view_map(model: TrainedModel, test, axis: int = 1
                 ) -> dict[int, np.ndarray]:
    """The test views by index, checked against the model on ``axis``, the
    one they share with training: columns (1) for JMF/L, where the views
    must also agree on their rows, or rows (0) for JMF/R."""
    if isinstance(test, MultiViewDataset):
        views = dict(enumerate(test.views))
    elif isinstance(test, dict):
        views = {int(k): np.asarray(v, dtype=float) for k, v in test.items()}
    else:
        views = dict(enumerate(np.asarray(v, dtype=float) for v in test))
    if not views:
        raise ValueError("no test views supplied")
    for i, x in views.items():
        if not (0 <= i < len(model.factors.H)):
            raise ValueError(f"unknown view index {i}")
        want = (model.factors.H[i] if axis else model.factors.W).shape[axis]
        if x.ndim != 2 or x.shape[axis] != want:
            raise ValueError(
                f"test view {i} has {x.shape[axis] if x.ndim == 2 else '?'} "
                f"{('rows', 'columns')[axis]}, expected {want}")
    if axis and len({x.shape[0] for x in views.values()}) != 1:
        raise ValueError("test views disagree on the row count")
    return views


def _solve_block(model: TrainedModel, factors: Factorization, target,
                 config: SolverConfig, xprod: np.ndarray
                 ) -> tuple[np.ndarray, bool]:
    """Solve one block ("w" or a view) with the solver's engine on its
    quadratic without the proximal term, to the configured tolerance
    relative to its start in at most inner_iters * max_outer_iters steps;
    Ne stands in for MUR.  ``xprod`` is the block's product with the test
    views.  Returns (block, search-exhausted flag); warns when it is set."""
    alg = config.algorithm
    inner = replace(config, inner_tol=1e-14, inner_tol_rel=config.tolerance,
                    inner_iters=config.inner_iters * config.max_outer_iters,
                    algorithm=Algorithm.NE if alg is Algorithm.MUR else alg)
    x, exhausted = _engine_step(*_build_quad(model, factors, target,
                                             xprod=xprod), inner)
    if exhausted:
        warnings.warn("the step-size search ran out before the prediction "
                      "subproblem reached its tolerance", RuntimeWarning,
                      stacklevel=3)
    return _as_factor(target, x), exhausted


def predict_left(model: TrainedModel, test, config: SolverConfig | None = None
                 ) -> np.ndarray:
    """Fit a new basis on test rows with the learned coefficients frozen."""
    config = config or model.config
    views = _as_view_map(model, test)
    idx = sorted(views)
    hs = [model.factors.H[i] for i in idx]
    rng = np.random.default_rng(config.seed)
    w0 = rng.random((views[idx[0]].shape[0], model.params.rank))
    return _solve_block(model, Factorization(w0, hs), "w", config,
                        view_products([views[i] for i in idx], hs))[0]


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
    if not (0 <= target_view < len(model.factors.H)):
        raise ValueError(f"unknown view index {target_view}")
    if target_view in views:
        raise ValueError("the target view must not be supplied as input")
    w_hat = predict_left(model, views, config)
    return w_hat @ model.factors.H[target_view]


def predict_right(model: TrainedModel, test, config: SolverConfig | None = None
                  ) -> list[np.ndarray]:
    """Fit new coefficients on test columns with the basis frozen.

    Views are updated in ascending order, each seeing the freshest others
    (the between-view terms couple them); sweeps repeat until the projected
    gradient has shrunk by the configured tolerance, or stop at once when a
    view's step-size search runs out.  A view whose block is unbounded
    below raises ``DivergenceError``.

    Within/between regularizers apply only when every test view's column
    count matches the training one; otherwise the plain least-squares
    subproblem (plus the sparsity term) is solved.
    """
    config = config or model.config
    views = _as_view_map(model, test, axis=0)
    idx = sorted(views)
    rng = np.random.default_rng(config.seed)
    if any(views[i].shape[1] != model.factors.H[i].shape[1] for i in idx):
        model = replace(model, constraints=ConstraintSet.empty())
    # the test views' blocks in place of the trained ones
    factors = Factorization(model.factors.W, model.factors.H)
    for i in idx:
        factors.H[i] = rng.random((model.params.rank, views[i].shape[1]))
    # W is frozen, so each view's product with it is formed once per call
    wtx = {i: factors.W.T @ views[i] for i in idx}

    def residual():
        return float(np.linalg.norm([
            projected_norm(h, q.grad(h)) for q, h in
            (_build_quad(model, factors, i, xprod=wtx[i]) for i in idx)]))

    target = max(config.tolerance * residual(), 1e-14)
    for _ in range(config.max_outer_iters):
        # each view's block sees the views updated earlier in this sweep
        for i in idx:
            factors.H[i], exhausted = _solve_block(model, factors, i, config,
                                                   wtx[i])
            if exhausted:
                return [factors.H[i] for i in idx]
        if residual() <= target:
            break
    return [factors.H[i] for i in idx]
