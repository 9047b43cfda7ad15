"""The public surface: one exported name per production path, with the
paper's alternative forms kept as oracles in ``verify``."""

import ast
import pathlib

import poissonsub
from poissonsub import special

PUBLIC = {
    "AvoidingTable", "Boundary", "IteratedLaw", "JumpSpec", "ModelParams",
    "MomentSummary", "SeriesControl", "atom_mass_Z", "avoiding_table",
    "cpp_cdf_Y", "cpp_cdf_Z_grid", "cpp_density_Z_grid",
    "crossing_density_constant", "dispersion_index", "hitting_cdf",
    "hitting_density", "hitting_probability", "laplace_exponent",
    "levy_exponent_limit_check", "mean_crossing_time_constant", "moments_Z",
    "survival_linear_increasing", "survival_nonincreasing",
}
SRC = pathlib.Path(poissonsub.__file__).parent


def test_public_names():
    assert len(poissonsub.__all__) == 23
    assert set(poissonsub.__all__) == PUBLIC
    for name in poissonsub.__all__:
        assert getattr(poissonsub, name) is not None


def test_special_holds_only_production_helpers():
    tree = ast.parse((SRC / "special.py").read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined == {"SeriesControl", "log_poisson_pmf"}
    assert callable(special.log_poisson_pmf)


def test_only_the_cli_verify_branch_imports_verify():
    for path in SRC.glob("*.py"):
        if path.name == "verify.py":
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = {node.module or ""} | {a.name for a in node.names}
                if any(n == "verify" or n.endswith(".verify") for n in names):
                    assert path.name == "cli.py", path.name
                    # the import sits inside main(), not at module level
                    assert node not in tree.body
