"""The four benchmark workloads and how their inputs are built.

A workload fixes a synthetic data set (D1-D4), whether its networks are
used, the solver configuration and the weight cells it solves.  Its
problem instance is drawn by the library's own generator from the
instance seed (default 0), which also seeds ``init_factors``.

Each pass of a run relabels that instance: it permutes the objects
(rows) and each view's features (columns), and applies the same
permutations to the networks, the ground truth and the initial factors.
The permutations are drawn from the benchmark's ``--seed`` and the pass
number; seed 0 keeps the generator's labels in every pass.  A relabelled
problem is the same optimisation problem, so its time to solution stays
comparable across seeds while the bytes the library sees differ.
Drawing a fresh instance per seed instead moves the outer iteration
count by a factor of 2-3 on D4 and by up to 6 on the D1 grid, more than
any run-to-run bound on time to solution can absorb.  Relabelling still
changes the order of floating-point sums, which moves the D1 grid's
total outer iterations by about 10% (375-582 over seeds 0-9); a run
takes the median over passes with different labels to damp this.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

import jmf


@dataclass(frozen=True)
class Cell:
    lambda1: float = 0.0
    lambda2: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    networks: bool
    solver: dict
    cells: tuple
    why: str


# lambda1, lambda2 in {1e-3, 1e-2, 1e-1} x gamma1 = 1e-4 x gamma2 in
# {0.01, 0.1}: an 18-cell slice of the CLI's default grid, in the CLI's
# (lambda1, lambda2, gamma1, gamma2) product order
_GRID_SLICE = tuple(
    Cell(l1, l2, g1, g2) for l1, l2, g1, g2 in itertools.product(
        (1e-3, 1e-2, 1e-1), (1e-3, 1e-2, 1e-1), (1e-4,), (0.01, 0.1)))

WORKLOADS = {w.name: w for w in (
    Workload(
        "d4-wide-panls", "D4", False,
        {"algorithm": "PANLS", "tolerance": 1e-6},
        (Cell(),),
        "wide views at low rank make the products with X the main cost; "
        "monitoring dominates and the network path is bypassed"),
    Workload(
        "d3-tall-ne-gradratio", "D3", False,
        {"algorithm": "Ne", "stop_rule": "GradientRatio",
         "tolerance": 1e-2},
        (Cell(),),
        "tall views at rank 20 move engine work onto the W block, and the "
        "stop rule reads the projected-gradient norm"),
    Workload(
        "d2-mur", "D2", False,
        {"algorithm": "MUR", "tolerance": 1e-5},
        (Cell(),),
        "MUR uses no inner engine or quadratic subproblem, so monitoring "
        "takes most of the solve; engine changes should not show"),
    Workload(
        "d1-net-grid", "D1", True,
        {},  # SolverConfig defaults: PANLS, ObjectiveRatio, tol 1e-7
        _GRID_SLICE,
        "grid-search traffic, the only workload with networks: spectral "
        "norms and network-coupled hess_apply, plus the failure paths"),
)}


@dataclass
class Instance:
    """One relabelled problem instance, ready to hand to the library."""

    truth: jmf.GroundTruth
    dataset: jmf.MultiViewDataset
    constraints: jmf.ConstraintSet | None
    row_perm: np.ndarray
    col_perms: list

    def relabel_init(self, init: jmf.Factorization) -> jmf.Factorization:
        return jmf.Factorization(
            init.W[self.row_perm],
            [h[:, q] for h, q in zip(init.H, self.col_perms)])


def _permutations(seed: int, pass_no: int, m: int,
                  ns) -> tuple[np.ndarray, list]:
    if seed == 0:
        return np.arange(m), [np.arange(n) for n in ns]
    rng = np.random.default_rng([seed, pass_no])
    return rng.permutation(m), [rng.permutation(n) for n in ns]


def build_instance(workload: Workload, instance: int, seed: int,
                   pass_no: int) -> Instance:
    """Generate the workload's data set and relabel it for one pass.

    Everything here is set-up a user pays once per data set.  The library
    is reached through the ``jmf`` package attributes at call time, so a
    traced run sees these calls.
    """
    truth = jmf.generate(jmf.SyntheticSpec(workload.dataset, seed=instance))
    p, qs = _permutations(seed, pass_no, truth.w0.shape[0],
                          [h.shape[1] for h in truth.h0])
    constraints = None
    if workload.networks:
        c = truth.constraints
        constraints = jmf.ConstraintSet(
            within={i: [t[qs[i]][:, qs[i]] for t in mats]
                    for i, mats in c.within.items()},
            between={(i, j): r[qs[i]][:, qs[j]]
                     for (i, j), r in c.between.items()})
    truth = jmf.GroundTruth(
        w0=truth.w0[p], h0=[h[:, q] for h, q in zip(truth.h0, qs)],
        x0=[x[p][:, q] for x, q in zip(truth.x0, qs)],
        constraints=constraints or jmf.ConstraintSet.empty(),
        metadata={**truth.metadata, "relabel": [seed, pass_no]})
    return Instance(truth, truth.to_dataset(), constraints, p, qs)


def solver_config(workload: Workload, instance: int) -> jmf.SolverConfig:
    # the CLI seeds each solve's SolverConfig with its init seed
    return jmf.SolverConfig(**{**workload.solver, "seed": instance})


def hyperparameters(inst: Instance, cell: Cell) -> jmf.Hyperparameters:
    return jmf.Hyperparameters(rank=inst.truth.rank, lambda1=cell.lambda1,
                               lambda2=cell.lambda2, gamma1=cell.gamma1,
                               gamma2=cell.gamma2)
