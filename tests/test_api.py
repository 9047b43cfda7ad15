"""The public surface: one exported name per production path, with the
paper's alternative forms kept as oracles in ``verify``."""

import ast
import math
import pathlib

import numpy as np
import pytest

import poissonsub
from poissonsub import special

PUBLIC = {
    "AvoidingTable", "Boundary", "IteratedLaw", "JumpSpec", "ModelParams",
    "MomentSummary", "SeriesControl", "atom_mass_Z", "avoiding_table",
    "cpp_cdf_Y", "cpp_cdf_Z_grid", "cpp_density_Z_grid",
    "crossing_density_constant", "hitting_cdf", "hitting_density",
    "hitting_probability", "laplace_exponent", "mean_crossing_time_constant",
    "moments_Z", "survival_linear_increasing", "survival_nonincreasing",
}
SRC = pathlib.Path(poissonsub.__file__).parent


def test_public_names():
    assert len(poissonsub.__all__) == 21
    assert set(poissonsub.__all__) == PUBLIC
    for name in poissonsub.__all__:
        assert getattr(poissonsub, name) is not None


def test_special_holds_only_production_helpers():
    tree = ast.parse((SRC / "special.py").read_text())
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined == {"SeriesControl", "poisson_pmf", "poisson_pmf_stepped", "_count_part",
                       "_reciprocals", "_loader", "_in_blocks", "_float_if_scalar"}
    assert callable(special.poisson_pmf)


def test_mc_holds_only_batch_samplers():
    # the per-path samplers are oracles, in tests/test_mc.py
    tree = ast.parse((SRC / "mc.py").read_text())
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    assert public == {"make_rng", "substreams", "default_horizon", "sample_Z",
                      "batch_first_crossing", "batch_hitting"}


def _names(tree) -> set[str]:
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def test_verify_defines_only_what_the_package_reads():
    # every function or class of verify is read by a suite, by the oracles
    # that a suite runs, or by another module (the CLI runs the suites); one
    # that only the tests call belongs in the tests
    tree = ast.parse((SRC / "verify.py").read_text())
    read = set().union(*(_names(ast.parse(p.read_text())) for p in SRC.glob("*.py")
                         if p.name != "verify.py"))
    defs = [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert len(defs) > 30
    for node in defs:
        others = set().union(*(_names(d) for d in defs if d is not node),
                             *(_names(n) for n in tree.body if n not in defs))
        assert node.name in others | read, node.name


def test_log_factorial_forms_only_in_the_oracles():
    # every production Poisson pmf goes through special's Loader cells; a
    # hand-written exp(m log x - x - gammaln(m + 1)) cancels log m!, and so
    # does one through math.lgamma
    for path in SRC.glob("*.py"):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        if names & {"gammaln", "xlogy", "lgamma"}:
            assert path.name == "verify.py", path.name


def test_params_holds_the_parameters_only():
    # the n-fold convolutions are computed where they are read: the normal
    # kernels in cpp, the closed forms as oracles in verify
    tree = ast.parse((SRC / "params.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "scipy" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[0] != "scipy"
    for name in ("conv_cdf", "conv_pdf"):
        assert not hasattr(poissonsub.JumpSpec, name)


def test_explicit_mpmath_sums_only_in_the_oracle_module():
    # a test's Poisson term or incomplete gamma goes through tests/mp_oracles.py,
    # whose sums stop on a bound; mpmath.nsum stops where its extrapolation
    # guesses, and missed the late peak of sum_m Pois(lam t; m) Pois(m mu; n)
    # by a factor of about e^68 at n = 120.  Every mpmath name is read as
    # mpmath.<name>, so that the walk sees it
    names = 0
    for path in pathlib.Path(__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            assert not (isinstance(node, ast.ImportFrom) and node.module == "mpmath"), where
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "mpmath":
                names += 1
                assert node.attr != "nsum", where
                if node.attr in ("loggamma", "factorial", "gammainc"):
                    assert path.name == "mp_oracles.py", where
    assert names >= 50  # the walk sees the names it checks


def test_no_scipy_special_ufunc_gets_where():
    # scipy.special's ufuncs with where= and out= crash the interpreter
    # (segfault, or "double free or corruption") on numpy 2.4, scipy 1.17,
    # where np.exp with the same masks does not; a block that skips cells
    # must select them by slicing
    calls = 0
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        aliases = {a.asname or a.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "scipy"
                   for a in node.names if a.name == "special"}
        aliases |= {a.asname for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for a in node.names if a.name == "scipy.special" and a.asname}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in aliases):
                calls += 1
                assert "where" not in {k.arg for k in node.keywords}, \
                    f"{path.name}:{node.lineno}"
    assert calls >= 5  # the walk sees the calls it checks


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


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_inputs_rejected(bad):
    P = poissonsub
    with pytest.raises(ValueError, match="finite"):
        P.ModelParams(bad, 1.0)
    with pytest.raises(ValueError, match="finite"):
        P.ModelParams(1.0, bad)
    params, exp = P.ModelParams(1.0, 1.0), P.JumpSpec.exponential(1.0)
    law = P.IteratedLaw(params)
    for call in (
        lambda t: P.atom_mass_Z(t, params),
        lambda t: P.cpp_cdf_Y(1.0, t, params, exp),
        lambda t: P.cpp_cdf_Z_grid([1.0], t, params, exp),
        lambda t: P.cpp_density_Z_grid([1.0], t, params, exp),
        lambda t: P.moments_Z(t, params, exp),
        lambda t: law.pmf_vector(t),
        lambda t: law.pmf([0, 2], t),
        lambda t: law.cdf(2, t),
        lambda t: P.survival_nonincreasing(P.Boundary.constant(2), t, law),
        lambda t: P.survival_linear_increasing(2, np.array([1.0, t]), law),
        lambda t: P.crossing_density_constant(2, np.array([1.0, t]), law),
        lambda t: P.hitting_density(2, t, law),
        lambda t: P.hitting_cdf(2, np.array([1.0, t]), law),
    ):
        with pytest.raises(ValueError, match="finite"):
            call(bad)
    with pytest.raises(ValueError, match="finite"):
        P.hitting_probability(2, bad)
