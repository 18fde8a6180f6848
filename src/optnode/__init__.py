"""Differentiable optimization nodes.

Declarative nodes define their output as the argmin of a parametrized
optimization problem; this package provides exact forward solvers for a
gallery of such problems (robust pooling, norm projections, smooth
constrained problems), implicit-differentiation backward passes for
unconstrained / equality / inequality / feasibility problems, streaming
vector-Jacobian products, node composition, and bilevel gradient descent
-- all checked against finite-difference oracles.
"""

from .core import (DeclarativeProblem, Derivatives, DimensionMismatch,
                   ERROR_KINDS, InfeasibleProblem, Jacobian, NodeError,
                   ProblemDims, RankDeficientConstraints, SingularHessian,
                   Solution, SolutionResiduals, SolverDiverged, SolverInfo,
                   STATIONARITY_TOL, UndefinedGradient, solution_residuals,
                   validate_problem)
from .numdiff import FdConfig, fd_gradient, fd_hessian_blocks, fd_jacobian
from .implicit_diff import (AllocationCounter, GRADIENT_PATHS,
                            GradientContext, build_context,
                            gradient_equality, gradient_feasibility,
                            gradient_inequality, gradient_unconstrained,
                            jacobian_from_context,
                            pseudo_inverse_descent, recover_multipliers, vjp)
from .pooling import (Penalty, PenaltySpec, penalty_d1, penalty_d2,
                      penalty_value, robust_pool, robust_pool_gradient)
from .projection import (Norm, ProjectionSpec, Surface, project,
                         project_gradient, project_vjp)
from .compose import (BilevelTask, DeclarativeNode, ImperativeNode, Node,
                      NodeChain, PoolingNode, ProjectionNode, TrainResult,
                      bilevel_train)

__version__ = "0.1.0"

__all__ = [
    "AllocationCounter", "BilevelTask", "DeclarativeNode",
    "DeclarativeProblem", "Derivatives", "DimensionMismatch", "ERROR_KINDS",
    "FdConfig", "GRADIENT_PATHS", "GradientContext",
    "ImperativeNode", "InfeasibleProblem", "Jacobian", "Node", "NodeChain",
    "NodeError", "Norm", "Penalty", "PenaltySpec", "PoolingNode",
    "ProblemDims", "ProjectionNode", "ProjectionSpec",
    "RankDeficientConstraints", "STATIONARITY_TOL", "SingularHessian",
    "Solution", "SolutionResiduals", "SolverDiverged", "SolverInfo",
    "Surface", "TrainResult", "UndefinedGradient", "bilevel_train",
    "build_context", "fd_gradient", "fd_hessian_blocks", "fd_jacobian",
    "gradient_equality", "gradient_feasibility", "gradient_inequality",
    "gradient_unconstrained", "jacobian_from_context", "penalty_d1",
    "penalty_d2", "penalty_value", "project", "project_gradient",
    "project_vjp", "pseudo_inverse_descent", "recover_multipliers",
    "robust_pool", "robust_pool_gradient", "solution_residuals",
    "validate_problem", "vjp",
]
