"""JMF-based prediction: fit W on new rows (JMF/L) or H on new columns (JMF/R)."""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .model import (Algorithm, ConstraintSet, Factorization, Hyperparameters,
                    MultiViewDataset, SolverConfig)
from .objective import (QuadSubproblem, h_subproblem, projected_norm,
                        view_products, w_subproblem)
from .solvers import _ne_minimize, _panls_minimize, _pg_minimize


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


def _minimize(q: QuadSubproblem, x0: np.ndarray,
              config: SolverConfig) -> tuple[np.ndarray, bool]:
    """Drive one convex subproblem to the configured relative tolerance in
    one engine call of at most inner_iters * max_outer_iters steps.
    Returns (iterate, search-exhausted flag) and warns when exhausted."""
    pn0 = projected_norm(x0, q.grad(x0))
    inner = replace(config, inner_tol=max(config.tolerance * pn0, 1e-14),
                    inner_tol_rel=0.0,
                    inner_iters=config.inner_iters * config.max_outer_iters)
    if config.algorithm is Algorithm.PG:
        x, exhausted = _pg_minimize(q, x0, inner)
    elif config.algorithm is Algorithm.PANLS:
        x, exhausted = _panls_minimize(q, x0, inner)
    else:  # Ne and MUR both fall back to the Nesterov engine here
        x, exhausted = _ne_minimize(q, x0, inner), False
    if exhausted:
        warnings.warn("the step-size search ran out before the prediction "
                      "subproblem reached its tolerance", RuntimeWarning,
                      stacklevel=3)
    return x, exhausted


def predict_left(model: TrainedModel, test, config: SolverConfig | None = None
                 ) -> np.ndarray:
    """Fit a new basis on test rows with the learned coefficients frozen."""
    config = config or model.config
    views = _as_view_map(model, test)
    idx = sorted(views)
    hs = [model.factors.H[i] for i in idx]
    q = w_subproblem(model, hs, xht=view_products([views[i] for i in idx], hs))
    m_test = views[idx[0]].shape[0]
    rng = np.random.default_rng(config.seed)
    w0 = rng.random((m_test, model.params.rank))
    return _minimize(q, w0, config)[0]


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
    view's step-size search runs out.

    Within/between regularizers apply only when every test view's column
    count matches the training one; otherwise the plain least-squares
    subproblem (plus the sparsity term) is solved.
    """
    config = config or model.config
    views = _as_view_map(model, test, axis=0)
    idx = sorted(views)
    rng = np.random.default_rng(config.seed)
    hs = {i: rng.random((model.params.rank, views[i].shape[1])) for i in idx}
    if any(views[i].shape[1] != model.factors.H[i].shape[1] for i in idx):
        model = replace(model, constraints=ConstraintSet.empty())
    w = model.factors.W
    # W is frozen, so each view's product with it is formed once per call
    wtx = {i: w.T @ views[i] for i in idx}

    def quad(i: int) -> QuadSubproblem:
        full = list(model.factors.H)
        for j in idx:
            full[j] = hs[j]
        return h_subproblem(model, w, full, i, wtx=wtx[i])

    def residual():
        return float(np.linalg.norm(
            [projected_norm(hs[i], quad(i).grad(hs[i])) for i in idx]))

    pn0 = residual()
    target = max(config.tolerance * pn0, 1e-14)
    for _ in range(config.max_outer_iters):
        for i in idx:
            # built just before its solve, so it sees the views updated
            # earlier in this sweep
            hs[i], exhausted = _minimize(quad(i), hs[i], config)
            if exhausted:
                return [hs[i] for i in idx]
        if residual() <= target:
            break
    return [hs[i] for i in idx]
