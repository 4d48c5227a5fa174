"""Joint multi-view nonnegative matrix factorization with network
regularization, sparsity control, interchangeable solvers, synthetic
benchmark generators, evaluation metrics, and prediction utilities."""

from .evaluate import (EvalResult, ModuleAssignment, assign_modules,
                       auc_score, evaluate_factors, match_components)
from .model import (Algorithm, ConstraintSet, DivergenceError, Factorization,
                    Hyperparameters, MultiViewDataset, Problem, SolverConfig,
                    SolverReport, StopRule, Termination, TracePoint,
                    init_factors, new_problem)
from .objective import (objective_value, projected_gradient_norm,
                        reconstruction_error, spectral_norm)
from .predict import (TrainedModel, predict_class, predict_left,
                      predict_right, predict_view)
from .solvers import solve
from .synthgen import GroundTruth, SyntheticSpec, generate

__version__ = "1.0.0"

__all__ = [
    "Algorithm", "ConstraintSet", "DivergenceError", "EvalResult",
    "Factorization", "GroundTruth", "Hyperparameters", "ModuleAssignment",
    "MultiViewDataset", "Problem", "SolverConfig", "SolverReport",
    "StopRule", "SyntheticSpec", "Termination", "TracePoint", "TrainedModel",
    "assign_modules", "auc_score", "evaluate_factors", "generate",
    "init_factors", "match_components", "new_problem", "objective_value",
    "predict_class", "predict_left", "predict_right", "predict_view",
    "projected_gradient_norm", "reconstruction_error", "solve",
    "spectral_norm",
]
