"""Problem definition and shared containers for joint multi-view NMF."""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum
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
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out


class MultiViewDataset:
    """Ordered list of nonnegative data matrices sharing their row dimension.

    Each view describes the same ``m`` objects with its own feature columns.
    """

    def __init__(self, views: Sequence[np.ndarray]):
        if len(views) == 0:
            raise ValueError("a dataset needs at least one view")
        mats = []
        for i, v in enumerate(views):
            arr = _as_matrix(v, f"view {i}")
            if np.any(arr < 0):
                raise ValueError(f"view {i} has negative entries")
            mats.append(_frozen(arr))
        m = mats[0].shape[0]
        bad = [i for i, v in enumerate(mats) if v.shape[0] != m]
        if bad:
            raise ValueError(f"views {bad} do not share the row count {m}")
        self.views: tuple[np.ndarray, ...] = tuple(mats)
        self.m: int = m
        self.n: tuple[int, ...] = tuple(v.shape[1] for v in mats)

    def __len__(self) -> int:
        return len(self.views)


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
                if np.any(arr < 0):
                    raise ValueError(f"within[{i}][{t}] has negative entries")
                checked.append(_frozen(arr))
            if checked:
                self.within[int(i)] = tuple(checked)
        self.between: dict[tuple[int, int], np.ndarray] = {}
        for (i, j), mat in (between or {}).items():
            if i == j:
                raise ValueError("between constraints need two distinct views")
            arr = _as_matrix(mat, f"between[{i},{j}]")
            if np.any(arr < 0):
                raise ValueError(f"between[{i},{j}] has negative entries")
            self.between[(int(i), int(j))] = _frozen(arr)

    @classmethod
    def empty(cls) -> "ConstraintSet":
        return cls()

    def is_empty(self) -> bool:
        return not self.within and not self.between


@dataclass(frozen=True)
class Hyperparameters:
    """Rank and regularization weights of the factorization objective."""

    rank: int
    lambda1: float = 0.0
    lambda2: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be a positive integer")
        for name in ("lambda1", "lambda2", "gamma1", "gamma2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


class Factorization:
    """Shared basis ``W`` (m x r) plus per-view coefficients ``H_I`` (r x n_I)."""

    def __init__(self, W: np.ndarray, H: Sequence[np.ndarray]):
        W = _as_matrix(W, "W")
        if np.any(W < 0):
            raise ValueError("W has negative entries")
        r = W.shape[1]
        mats = []
        for i, h in enumerate(H):
            arr = _as_matrix(h, f"H[{i}]")
            if arr.shape[0] != r:
                raise ValueError(f"H[{i}] row count {arr.shape[0]} != rank {r}")
            if np.any(arr < 0):
                raise ValueError(f"H[{i}] has negative entries")
            mats.append(arr)
        self.W = W
        self.H = list(mats)

    def copy(self) -> "Factorization":
        return Factorization(self.W.copy(), [h.copy() for h in self.H])


@dataclass
class SolverConfig:
    """Algorithm choice, stopping rule and solver constants."""

    algorithm: Algorithm = Algorithm.PANLS
    stop_rule: StopRule = StopRule.OBJECTIVE_RATIO
    tolerance: float = 1e-7
    max_outer_iters: int = 2000
    inner_iters: int = 500
    seed: int = 0
    normalize_rows: bool = True
    # inner subproblem stopping: absolute floor plus a relative reduction
    # of the subproblem's entry projected-gradient norm
    inner_tol: float = 1e-6
    inner_tol_rel: float = 0.01
    # PG (Armijo along the projection arc)
    sigma: float = 0.01
    beta: float = 0.1
    alpha0: float = 1.0
    max_backtracks: int = 50
    # PANLS phase switching and proximal weights
    eta: float = 0.1
    rho: float = 0.5
    panls_alpha: float = 1.0
    panls_beta: float = 0.1
    n1: int = 2
    n2: int = 1
    tau1: float = 1e-3
    tau2: float = 1e-3

    def __post_init__(self):
        self.algorithm = Algorithm(self.algorithm)
        self.stop_rule = StopRule(self.stop_rule)
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if not (0 < self.sigma < 1):
            raise ValueError("sigma must lie in (0, 1)")
        if not (0 < self.beta < 1):
            raise ValueError("beta must lie in (0, 1)")
        if not (0 < self.rho < 1):
            raise ValueError("rho must lie in (0, 1)")
        if self.max_outer_iters < 1 or self.inner_iters < 1:
            raise ValueError("iteration caps must be positive")
        if self.tau1 < 0 or self.tau2 < 0:
            raise ValueError("proximal weights must be nonnegative")


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


class Problem:
    """Immutable binding of a dataset, constraints and hyperparameters.

    Construct through :func:`new_problem`, which validates shapes and signs.
    """

    def __init__(self, dataset: MultiViewDataset, constraints: ConstraintSet,
                 params: Hyperparameters):
        self.dataset = dataset
        self.constraints = constraints
        self.params = params
        self._within_sym: dict[int, np.ndarray | None] = {}
        # ||within_sym(view)||_2, filled on first use by the objective layer
        self._within_norm: dict[int, float] = {}
        self._x_sqnorm = tuple(float(np.sum(v * v)) for v in dataset.views)

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
        if view is None:
            return float(sum(self._x_sqnorm))
        return self._x_sqnorm[view]

    def within_sym(self, view: int) -> np.ndarray | None:
        """Sum over stored within-constraints of Theta + Theta^T, or None."""
        if view not in self._within_sym:
            mats = self.constraints.within.get(view)
            if not mats:
                self._within_sym[view] = None
            else:
                s = np.zeros((self.n[view], self.n[view]))
                for t in mats:
                    s += t + t.T
                s.flags.writeable = False
                self._within_sym[view] = s
        return self._within_sym[view]

    def between_partners(self, view: int) -> list[tuple[int, np.ndarray]]:
        """Pairs (J, M) with M sized n_J x n_I so H_J @ M enters view I's terms.

        Stored R_IJ contributes its transpose; stored R_JI contributes itself.
        """
        out = []
        for (i, j), mat in self.constraints.between.items():
            if i == view:
                out.append((j, mat.T))
            elif j == view:
                out.append((i, mat))
        return out


class DivergenceError(RuntimeError):
    """Raised when a solve produces a non-finite objective value."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace or []


def new_problem(dataset: MultiViewDataset, constraints: ConstraintSet | None,
                params: Hyperparameters) -> Problem:
    """Validate shapes and build an immutable problem handle."""
    constraints = constraints or ConstraintSet.empty()
    nv = len(dataset)
    for i, mats in constraints.within.items():
        if not (0 <= i < nv):
            raise ValueError(f"within constraint for unknown view {i}")
        for t, mat in enumerate(mats):
            if mat.shape != (dataset.n[i], dataset.n[i]):
                raise ValueError(
                    f"within[{i}][{t}] shape {mat.shape} does not match "
                    f"view column count {dataset.n[i]}")
    for (i, j), mat in constraints.between.items():
        if not (0 <= i < nv and 0 <= j < nv):
            raise ValueError(f"between constraint for unknown pair ({i},{j})")
        if mat.shape != (dataset.n[i], dataset.n[j]):
            raise ValueError(
                f"between[{i},{j}] shape {mat.shape} does not match "
                f"({dataset.n[i]}, {dataset.n[j]})")
    if params.rank > min(dataset.m, min(dataset.n)):
        warnings.warn(
            f"rank {params.rank} exceeds min(m, min n_I) = "
            f"{min(dataset.m, min(dataset.n))}; the factorization is "
            "overcomplete", stacklevel=2)
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
