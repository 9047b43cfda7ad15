"""Exact law, moments and first-crossing/first-hitting quantities of a
compound Poisson process subordinated by an independent Poisson process,
with a Monte Carlo simulator as an independent verification oracle."""

__version__ = "0.1.0"

# the suites of ``verify``, named here so that the CLI can list them without
# importing ``verify`` (and with it scipy.stats)
VERIFY_SUITES = ("formula-cross-checks", "figure-reproduction", "analytic-vs-mc")

from .crossing import (
    AvoidingTable,
    Boundary,
    avoiding_table,
    crossing_density_constant,
    hitting_cdf,
    hitting_density,
    hitting_probability,
    mean_crossing_time_constant,
    survival_linear_increasing,
    survival_nonincreasing,
)
from .cpp import (
    atom_mass_Z,
    cpp_cdf_Y,
    cpp_cdf_Z_grid,
    cpp_density_Z_grid,
    laplace_exponent,
    moments_Z,
)
from .iterated import IteratedLaw
from .params import JumpSpec, ModelParams, MomentSummary
from .special import SeriesControl

__all__ = [
    "AvoidingTable", "Boundary", "IteratedLaw", "JumpSpec", "ModelParams",
    "MomentSummary", "SeriesControl", "atom_mass_Z", "avoiding_table",
    "cpp_cdf_Y", "cpp_cdf_Z_grid", "cpp_density_Z_grid",
    "crossing_density_constant", "hitting_cdf", "hitting_density",
    "hitting_probability", "laplace_exponent", "mean_crossing_time_constant",
    "moments_Z", "survival_linear_increasing", "survival_nonincreasing",
]
