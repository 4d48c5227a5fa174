"""Problem definition and shared containers for joint multi-view NMF."""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np


class Algorithm(str, Enum):
    MUR = "MUR"
    PG = "PG"
    NE = "Ne"
    PANLS = "PANLS"


class StopRule(str, Enum):
    OBJECTIVE_RATIO = "ObjectiveRatio"
    GRADIENT_RATIO = "GradientRatio"


class Termination(str, Enum):
    TOLERANCE_MET = "ToleranceMet"
    SLOW_GRADIENT_CHANGE = "SlowGradientChange"
    MAX_ITERS = "MaxIters"


def _as_matrix(a, name: str) -> np.ndarray:
    """``a`` as a float matrix, checked 2-D, finite and nonnegative."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.any(arr < 0):
        raise ValueError(f"{name} has negative entries")
    return arr


def _is_a(value, kind) -> bool:
    """``isinstance(value, kind)``, but false for a bool, a number ABC."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _number(name: str, value, lowest: int | None = None):
    """``value``, checked a finite number >= 0 or, given ``lowest``, an
    integer >= ``lowest``, returned as an int; a bool is neither."""
    kind = numbers.Real if lowest is None else numbers.Integral
    if not (_is_a(value, kind) and (lowest or 0) <= value < math.inf):
        what = ("nonnegative finite number" if lowest is None
                else f"{('nonnegative', 'positive')[lowest]} integer")
        raise ValueError(f"{name} must be a {what}, got {value!r}")
    return value if lowest is None else int(value)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only row-major copy.  A transposed, column-permuted or
    pandas-backed input is column-major, and BLAS forms X H^T on a
    row-major X about 1.5 times as fast (500 x 2000 at rank 5, one
    thread)."""
    out = np.array(arr, dtype=float, copy=True, order="C")
    out.flags.writeable = False
    return out


class MultiViewDataset:
    """Ordered list of nonnegative data matrices sharing their row dimension.

    Each view describes the same ``m`` objects with its own feature columns.
    """

    def __init__(self, views: Sequence[np.ndarray]):
        if len(views) == 0:
            raise ValueError("a dataset needs at least one view")
        mats = [_frozen(_as_matrix(v, f"view {i}"))
                for i, v in enumerate(views)]
        m = mats[0].shape[0]
        bad = [i for i, v in enumerate(mats) if v.shape[0] != m]
        if bad:
            raise ValueError(f"views {bad} do not share the row count {m}")
        self.views: tuple[np.ndarray, ...] = tuple(mats)
        self.m: int = m
        self.n: tuple[int, ...] = tuple(v.shape[1] for v in mats)

    def __len__(self) -> int:
        return len(self.views)

    @cached_property
    def squared_norms(self) -> tuple[float, ...]:
        """||X_I||^2 per view, summed on first use (``new_problem``)."""
        return tuple(float(np.sum(v * v)) for v in self.views)


class ConstraintSet:
    """Within-view adjacency matrices and between-view relationship matrices.

    Any entry may be absent: ``within`` maps a view index to a list of
    square matrices, ``between`` maps an ordered view pair to one matrix.
    """

    def __init__(
        self,
        within: Mapping[int, Sequence[np.ndarray]] | None = None,
        between: Mapping[tuple[int, int], np.ndarray] | None = None,
    ):
        self.within: dict[int, tuple[np.ndarray, ...]] = {}
        for i, mats in (within or {}).items():
            checked = []
            for t, mat in enumerate(mats):
                arr = _as_matrix(mat, f"within[{i}][{t}]")
                if arr.shape[0] != arr.shape[1]:
                    raise ValueError(f"within[{i}][{t}] is not square")
                checked.append(_frozen(arr))
            if checked:
                self.within[int(i)] = tuple(checked)
        self.between: dict[tuple[int, int], np.ndarray] = {}
        for (i, j), mat in (between or {}).items():
            if i == j:
                raise ValueError("between constraints need two distinct views")
            self.between[(int(i), int(j))] = _frozen(
                _as_matrix(mat, f"between[{i},{j}]"))
        # shared by every problem on this set: S_I, and S_I's unit top
        # eigenvector v >= 0 with v^T S_I v (filled by objective.within_top)
        self._within_sym: dict[int, np.ndarray | None] = {}
        self._within_top: dict[int, tuple[np.ndarray, float]] = {}

    @classmethod
    def empty(cls) -> "ConstraintSet":
        return cls()

    def check(self, n: Sequence[int]) -> None:
        """Raise ``ValueError`` unless every matrix fits views with the
        column counts ``n``."""
        for i, mats in self.within.items():
            if not (0 <= i < len(n)):
                raise ValueError(f"within constraint for unknown view {i}")
            for t, mat in enumerate(mats):
                if mat.shape != (n[i], n[i]):
                    raise ValueError(
                        f"within[{i}][{t}] shape {mat.shape} does not match "
                        f"view column count {n[i]}")
        for (i, j), mat in self.between.items():
            if not (0 <= i < len(n) and 0 <= j < len(n)):
                raise ValueError(
                    f"between constraint for unknown pair ({i},{j})")
            if mat.shape != (n[i], n[j]):
                raise ValueError(
                    f"between[{i},{j}] shape {mat.shape} does not match "
                    f"({n[i]}, {n[j]})")

    def within_sym(self, view: int) -> np.ndarray | None:
        """Sum over stored within-constraints of Theta + Theta^T, or None."""
        if view not in self._within_sym:
            mats = self.within.get(view)
            if not mats:
                self._within_sym[view] = None
            else:
                s = np.zeros(mats[0].shape)
                for t in mats:
                    s += t + t.T
                s.flags.writeable = False
                self._within_sym[view] = s
        return self._within_sym[view]


@dataclass(frozen=True)
class Hyperparameters:
    """Rank and regularization weights of the factorization objective."""

    rank: int
    lambda1: float = 0.0
    lambda2: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "rank", _number("rank", self.rank, 1))
        for name in ("lambda1", "lambda2", "gamma1", "gamma2"):
            _number(name, getattr(self, name))


class Factorization:
    """Shared basis ``W`` (m x r) plus per-view coefficients ``H_I`` (r x n_I)."""

    def __init__(self, W: np.ndarray, H: Sequence[np.ndarray]):
        W = _as_matrix(W, "W")
        r = W.shape[1]
        mats = []
        for i, h in enumerate(H):
            arr = _as_matrix(h, f"H[{i}]")
            if arr.shape[0] != r:
                raise ValueError(f"H[{i}] row count {arr.shape[0]} != rank {r}")
            mats.append(arr)
        self.W = W
        self.H = list(mats)

    def copy(self) -> "Factorization":
        return Factorization(self.W.copy(), [h.copy() for h in self.H])


@dataclass
class SolverConfig:
    """Algorithm choice, stopping rule, iteration cap and seed."""

    algorithm: Algorithm = Algorithm.PANLS
    stop_rule: StopRule = StopRule.OBJECTIVE_RATIO
    tolerance: float = 1e-7
    max_outer_iters: int = 2000
    seed: int = 0

    def __post_init__(self):
        self.algorithm = Algorithm(self.algorithm)
        self.stop_rule = StopRule(self.stop_rule)
        for name, lowest in (("max_outer_iters", 1), ("seed", 0)):
            setattr(self, name, _number(name, getattr(self, name), lowest))
        _number("tolerance", self.tolerance)
        if self.tolerance == 0:
            raise ValueError("tolerance must be positive")


@dataclass
class TracePoint:
    iteration: int
    objective: float
    grad_norm: float
    seconds: float


@dataclass
class SolverReport:
    trace: list[TracePoint]
    termination: Termination
    final_objective: float
    reconstruction_error: float
    iterations: int
    # block solves (W or one H_I, in any outer iteration) whose Armijo
    # step-size search ran out of backtracks before the inner tolerance
    exhausted_searches: int = 0
    # outer steps started from the extrapolated iterate (PG, Ne, PANLS),
    # and those of them redone from the plain iterate because F rose
    extrapolated_steps: int = 0
    redone_steps: int = 0
    # lambda, a lower bound on lambda_max(B) of F's network terms
    # (``objective.network_curvature``), and 2 gamma2: F is bounded below
    # if and only if lambda_max(B) <= 2 gamma2
    network_curvature: float = 0.0
    sparsity_curvature: float = 0.0


@dataclass(frozen=True)
class Problem:
    """Immutable binding of a dataset, constraints and hyperparameters.

    Construct through :func:`new_problem`, which validates shapes and signs.
    The weight-free caches live on the dataset and the constraint set.
    """

    dataset: MultiViewDataset
    constraints: ConstraintSet
    params: Hyperparameters

    @property
    def m(self) -> int:
        return self.dataset.m

    @property
    def n(self) -> tuple[int, ...]:
        return self.dataset.n

    @property
    def n_views(self) -> int:
        return len(self.dataset)

    @property
    def rank(self) -> int:
        return self.params.rank

    def x_squared_norm(self, view: int | None = None) -> float:
        sq = self.dataset.squared_norms
        return float(sum(sq)) if view is None else sq[view]


class DivergenceError(RuntimeError):
    """Raised when a solve blows up: a factor, F or the projected-gradient
    norm stops being finite, or the objective-ratio rule stops with F
    above its start.  ``trace`` holds the iterations before that one.

    ``unbounded`` marks a refusal that comes with a proof that F has no
    minimum: F below 0, an H block unbounded below along a ray, or an H
    sweep that is not certified convex while the network curvature
    exceeds 2 gamma2 (see ``solvers.solve``)."""

    def __init__(self, message: str, trace=None, unbounded: bool = False):
        super().__init__(message)
        self.trace = trace or []
        self.unbounded = unbounded


def new_problem(dataset: MultiViewDataset, constraints: ConstraintSet | None,
                params: Hyperparameters) -> Problem:
    """Validate shapes and build an immutable problem handle."""
    constraints = constraints or ConstraintSet.empty()
    constraints.check(dataset.n)
    if params.rank > min(dataset.m, min(dataset.n)):
        warnings.warn(
            f"rank {params.rank} exceeds min(m, min n_I) = "
            f"{min(dataset.m, min(dataset.n))}; the factorization is "
            "overcomplete", stacklevel=2)
    dataset.squared_norms  # summed here: inside a solve it raises peak memory
    return Problem(dataset, constraints, params)


def init_factors(problem: Problem, seed: int) -> Factorization:
    """Draw W and H_I from Uniform(0,1), then scale H columns to unit norm.

    Draw order is W first, then each view's H in dataset order, so a given
    seed always yields bit-identical factors.
    """
    rng = np.random.default_rng(seed)
    r = problem.rank
    W = rng.random((problem.m, r))
    H = []
    for n_i in problem.n:
        h = rng.random((r, n_i))
        norms = np.linalg.norm(h, axis=0)
        norms[norms == 0] = 1.0
        H.append(h / norms)
    return Factorization(W, H)
