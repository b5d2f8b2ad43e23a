"""Tropical-algebra toolkit for maximizing the time span of schedules.

The package provides an idempotent-semifield abstraction with a
max-plus primary instance, dense matrix algebra over it, closed-form
solvers for the underlying linear problems, the span-maximization
optimizer, its application to project scheduling, and brute-force
oracles for validating the closed forms on small instances.
"""

from .errors import (GridTooLarge, InvariantViolation, InversionOfZero,
                     NotIrreducible, NotRegular, NotSquare, ShapeMismatch,
                     TrConditionViolated, TropicalError, ZeroEntry,
                     ZeroRightHandSide)
from .matvec import (Matrix, asterate, is_irreducible, is_regular, ones,
                     tr_closure, vector)
from .optimizer import (ConstrainedReport, ProblemInstance, SolutionReport,
                        evaluate_objective, solve_constrained, solve_norm_form,
                        solve_unconstrained)
from .scheduling import (Project, Schedule, latest_schedule,
                         max_completion_spread,
                         max_completion_spread_constrained,
                         max_initiation_spread)
from .semiring import INSTANCES, Scalar, Semifield, max_plus, max_times, min_plus
from .solvers import (BoxFamily, SubeigenGenerator, solve_scalar_equation,
                      solve_subeigen)
from .verification import GridMax, GridSpec, brute_force_max, brute_force_subeigen

__version__ = "0.1.0"

__all__ = [
    "BoxFamily", "ConstrainedReport", "GridMax", "GridSpec", "GridTooLarge",
    "INSTANCES", "InvariantViolation", "InversionOfZero", "Matrix",
    "NotIrreducible", "NotRegular", "NotSquare", "ProblemInstance", "Project",
    "Scalar", "Schedule", "Semifield", "ShapeMismatch", "SolutionReport",
    "SubeigenGenerator", "TrConditionViolated", "TropicalError", "ZeroEntry",
    "ZeroRightHandSide", "asterate", "brute_force_max", "brute_force_subeigen",
    "evaluate_objective", "is_irreducible", "is_regular", "latest_schedule",
    "max_completion_spread", "max_completion_spread_constrained",
    "max_initiation_spread", "max_plus", "max_times", "min_plus", "ones",
    "solve_constrained", "solve_norm_form", "solve_scalar_equation",
    "solve_subeigen", "solve_unconstrained", "tr_closure", "vector",
]
