"""Steady periodic rotational water waves of fixed mean depth.

Solves the weak modified-height formulation of the steady water-wave
problem with (possibly discontinuous) vorticity, reconstructs the physical
fields through the semi-hodograph transform, and verifies the weak Euler,
stream-function and height formulations against each other by numerical
distributional pairings.
"""

__version__ = "0.1.0"

from .vorticity import (VorticityFunction, FlowParameters, gamma_tilde,
                        gamma_cap, zero_vorticity, two_layer)
from .laminar import LaminarFlow, solve_lambda, laminar_height, laminar_Q
from .grid import Grid
from .field import HeightField, AnalyticHeightField, random_admissible_field
from .solver import (newton_solve, continuation, residual, NewtonResult,
                     ConvergenceError, StagnationError)
from .transform import (PhysicalFields, physical_map, invert_height,
                        reconstruct_stream, reconstruct_fields,
                        bernoulli_function)
from .weakform import (bump, TestFunction, pushforward_testfn, pair_height,
                       pair_stream, pair_euler, cross_identity,
                       surface_identity, mollification_rate)

__all__ = [
    "VorticityFunction", "FlowParameters", "gamma_tilde", "gamma_cap",
    "zero_vorticity", "two_layer",
    "LaminarFlow", "solve_lambda", "laminar_height", "laminar_Q",
    "Grid", "HeightField", "AnalyticHeightField", "random_admissible_field",
    "newton_solve", "continuation", "residual", "NewtonResult",
    "ConvergenceError", "StagnationError",
    "PhysicalFields", "physical_map", "invert_height", "reconstruct_stream",
    "reconstruct_fields", "bernoulli_function",
    "bump", "TestFunction", "pushforward_testfn", "pair_height",
    "pair_stream", "pair_euler", "cross_identity", "surface_identity",
    "mollification_rate",
]
