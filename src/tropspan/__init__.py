"""Tropical-algebra toolkit for maximizing the time span of schedules.

The package provides an idempotent-semifield abstraction with a
max-plus primary instance, dense matrix algebra over it with the star
closure `asterate`, the box families that describe solution sets, the
span-maximization optimizer and its application to project scheduling.
A constraint C ⊗ x ≤ x is feasible when C has no cycle heavier than 𝟙,
which `asterate` checks.
"""

from .errors import (InvariantViolation, InversionOfZero, NotIrreducible,
                     NotRegular, NotSquare, ShapeMismatch, TrConditionViolated,
                     TropicalError, ZeroEntry)
from .matvec import Matrix, asterate, is_regular, ones
from .optimizer import (ConstrainedReport, ProblemInstance, SolutionReport,
                        evaluate_objective, solve_constrained, solve_norm_form,
                        solve_unconstrained)
from .scheduling import (Schedule, latest_schedule, max_completion_spread,
                         max_completion_spread_constrained,
                         max_initiation_spread)
from .semiring import INSTANCES, Scalar, Semifield, max_plus, max_times, min_plus
from .solvers import BoxFamily

__version__ = "0.1.0"

__all__ = [
    "BoxFamily", "ConstrainedReport", "INSTANCES", "InvariantViolation",
    "InversionOfZero", "Matrix", "NotIrreducible", "NotRegular", "NotSquare",
    "ProblemInstance", "Scalar", "Schedule", "Semifield",
    "ShapeMismatch", "SolutionReport", "TrConditionViolated", "TropicalError",
    "ZeroEntry", "asterate", "evaluate_objective", "is_regular",
    "latest_schedule", "max_completion_spread",
    "max_completion_spread_constrained", "max_initiation_spread", "max_plus",
    "max_times", "min_plus", "ones", "solve_constrained", "solve_norm_form",
    "solve_unconstrained",
]
