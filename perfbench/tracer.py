"""Per-layer spans recorded from outside the library.

Each public layer function is replaced, where its callers look it up, by
a wrapper that records a span.  A layer's self time is its span's length
minus the spans of the wrapped calls made inside it.  The originals are
put back when the ``installed`` block ends.
"""
from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module where callers look the name up, attribute path, layer)
SPANS = (
    ("jmf", "generate", "synthgen.generate"),
    ("jmf", "new_problem", "model.new_problem"),
    ("jmf", "init_factors", "model.init_factors"),
    ("jmf", "solve", "solvers.outer"),
    ("jmf", "evaluate_factors", "evaluate.evaluate"),
    ("jmf.solvers", "objective_value", "objective.objective_value"),
    ("jmf.solvers", "projected_gradient_norm", "objective.pgnorm"),
    ("jmf.solvers", "w_subproblem", "objective.build"),
    ("jmf.solvers", "h_subproblem", "objective.build"),
    ("jmf.objective", "spectral_norm", "objective.spectral_norm"),
    ("jmf.objective", "QuadSubproblem.hess_apply", "objective.hess_apply"),
    ("jmf.solvers", "pg_subproblem", "solvers.engine"),
    ("jmf.solvers", "ne_subproblem", "solvers.engine"),
    ("jmf.solvers", "panls_subproblem", "solvers.engine"),
    ("jmf.solvers", "mur_step_W", "solvers.engine"),
    ("jmf.solvers", "mur_step_H", "solvers.engine"),
)
# counted, not timed: one call per inner step, cheap next to its parent
COUNTS = (
    ("jmf.objective", "QuadSubproblem.grad", "objective.grad"),
)


def hess_apply_flops(q, d) -> float:
    """Floating-point operations of the matrix products in one
    ``QuadSubproblem.hess_apply`` call, computed from operand shapes."""
    rows, cols = d.shape
    if q.kind == "w":
        (a,) = q.hess_mats
        return 2.0 * rows * cols * a.shape[1]
    m, s, lam1, _ = q.hess_mats
    flops = 2.0 * m.shape[0] * rows * cols
    if s is not None and lam1:
        flops += 2.0 * rows * cols * s.shape[1]
    return flops


class Tracer:
    """Self time and call counts per layer, plus computed kernel flops."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.hess_flops = 0.0
        self._children = []  # per open span, the time its children took

    def _span(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                self.self_s[layer] += took - self._children.pop()
                self.calls[layer] += 1
                if self._children:
                    self._children[-1] += took
        return wrapper

    def _count(self, layer: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[layer] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _hess(self, wrapped):
        @functools.wraps(wrapped)
        def wrapper(q, d):
            self.hess_flops += hess_apply_flops(q, d)
            return wrapped(q, d)
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every layer function; fail if one of them is gone."""
        saved = []
        try:
            for module, path, layer, make in (
                    [(*s, self._span) for s in SPANS]
                    + [(*c, self._count) for c in COUNTS]):
                owner, attr = _resolve(module, path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                wrapper = make(layer, original)
                if layer == "objective.hess_apply":
                    wrapper = self._hess(wrapper)
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    if owner is None or attr not in getattr(owner, "__dict__", {}):
        raise RuntimeError(
            f"layer function {module}.{path} no longer exists; the traced "
            "run cannot report its layer")
    return owner, attr
