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
    cpp_cdf_Z,
    cpp_cdf_Z_grid,
    cpp_density_Z,
    cpp_density_Z_grid,
    exp_jump_cdf,
    exp_jump_cdf_alt,
    exp_jump_density,
    laplace_exponent,
    moments_Z,
    normal_jump_cdf,
)
from .iterated import IteratedLaw, dispersion_index, levy_exponent_limit_check
from .params import JumpSpec, ModelParams, MomentSummary
from .special import (
    BellEval,
    SeriesControl,
    UnsupportedDegreeError,
    bell_poly,
    bell_poly_derivative,
    bell_series,
    log_bell_series,
    lower_incomplete_gamma,
    poisson_cdf,
    poisson_pmf,
    stirling2,
)

__all__ = [
    "AvoidingTable", "BellEval", "Boundary", "IteratedLaw", "JumpSpec",
    "ModelParams", "MomentSummary", "SeriesControl", "UnsupportedDegreeError",
    "atom_mass_Z", "avoiding_table", "bell_poly", "bell_poly_derivative",
    "bell_series", "cpp_cdf_Y", "cpp_cdf_Z", "cpp_cdf_Z_grid", "cpp_density_Z", "cpp_density_Z_grid",
    "crossing_density_constant", "dispersion_index", "exp_jump_cdf",
    "exp_jump_cdf_alt", "exp_jump_density", "hitting_cdf", "hitting_density",
    "hitting_probability", "laplace_exponent", "levy_exponent_limit_check",
    "log_bell_series", "lower_incomplete_gamma", "mean_crossing_time_constant",
    "moments_Z", "normal_jump_cdf", "poisson_cdf", "poisson_pmf", "stirling2",
    "survival_linear_increasing", "survival_nonincreasing",
]
