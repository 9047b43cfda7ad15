"""End-to-end tests for the command-line interface: output formats,
determinism, exit codes, and environment handling."""

import argparse
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from poissonsub import (IteratedLaw, ModelParams, cli, hitting_probability,
                        survival_linear_increasing, verify)
from poissonsub.cli import _meta, _write_table, build_parser, main, parse_range


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParseRange:
    def test_single_value(self):
        assert list(parse_range("2.5", 1.0)) == [2.5]

    def test_inclusive_range(self):
        assert list(parse_range("0..3", 1.0)) == [0.0, 1.0, 2.0, 3.0]

    def test_explicit_step(self):
        assert list(parse_range("0..1:0.5", 1.0)) == [0.0, 0.5, 1.0]

    def test_bad_step(self):
        with pytest.raises(ValueError):
            parse_range("0..1", -1.0)

    @pytest.mark.parametrize("spec,step", [
        ("0..inf", 1.0), ("-inf..0", 1.0), ("1..nan", 1.0), ("0..1:nan", 1.0),
        ("0..1", math.nan), ("0..1:inf", 1.0), ("0..1e300:1e-300", 1.0),
        ("-1e308..1e308", 1.0)])
    def test_non_finite_range(self, spec, step):
        with pytest.raises(ValueError, match=f"range {re.escape(repr(spec))}"):
            parse_range(spec, step)

    @pytest.mark.parametrize("spec,step", [
        ("0..1e9", 1.0), ("0..1:1e-7", 1.0), ("-5e6..5e6", 1.0), ("0..1e7", 1.0),
        ("0..1e18", 1.0), ("0..1e300", 1.0)])
    def test_too_many_points(self, spec, step):
        # refused before any array is allocated; the CLI exits 1 on it
        with pytest.raises(ValueError, match=f"range {re.escape(repr(spec))} has"):
            parse_range(spec, step)

    def test_largest_allowed_range(self, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_POINTS", 100)
        assert parse_range("0..99", 1.0).size == 100
        with pytest.raises(ValueError, match="has 101 points; at most 100"):
            parse_range("0..100", 1.0)


class TestPmfCommand:
    def test_csv_sums_to_one(self, capsys):
        code, out, _ = run_cli(
            ["pmf", "--lambda", "2", "--mu", "1", "--t", "1"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0].keys() == {"t", "n", "pmf"}
        total = math.fsum(float(r["pmf"]) for r in rows)
        assert abs(total - 1.0) < 1e-10

    def test_deterministic_output(self, capsys):
        args = ["pmf", "--lambda", "1.5", "--mu", "0.7", "--t", "0.5..2"]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1 == out2

    def test_twelve_significant_digits(self, capsys):
        _, out, _ = run_cli(["pmf", "--t", "1", "--n", "0"], capsys)
        val = list(csv.DictReader(io.StringIO(out)))[0]["pmf"]
        # p_0(1) at lam = mu = 1
        assert val == "%.12g" % math.exp(-(1 - math.exp(-1)))

    def test_lf_line_endings(self, capsys):
        _, out, _ = run_cli(["pmf", "--t", "1", "--n", "0..3"], capsys)
        assert "\r" not in out


class TestJsonFormat:
    def test_structure(self, capsys):
        code, out, _ = run_cli(
            ["moments", "--t", "1..3", "--jumps", "exp", "--zeta", "2",
             "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["metadata"]["command"] == "moments"
        assert payload["metadata"]["lam"] == 1.0
        assert payload["metadata"]["jumps"] == "exp"
        assert "version" in payload["metadata"]
        assert len(payload["rows"]) == 3
        assert payload["rows"][0]["mean"] == pytest.approx(0.5)


class TestExitCodes:
    def test_validation_error(self, capsys):
        code, _, err = run_cli(
            ["cdf", "--t", "1", "--jumps", "exp"], capsys)  # missing --zeta
        assert code == 1
        assert "validation error" in err

    def test_usage_error_is_one(self):
        proc = subprocess.run(
            [sys.executable, "-m", "poissonsub.cli", "pmf"],
            capture_output=True, text=True)
        assert proc.returncode == 1  # --t is required

    def test_negative_parameter(self, capsys):
        code, _, err = run_cli(["pmf", "--lambda", "-1", "--t", "1"], capsys)
        assert code == 1

    @pytest.mark.parametrize("line", [
        "pmf --t inf",
        "pmf --t 1 --lambda nan",
        "cdf --t inf --n 0..2",
        "cdf --t 1 --jumps exp --zeta nan",
        "density --t inf --jumps exp --zeta 1",
        "moments --t inf",
        "crossing --k 2 --t inf",
        "hitting --k 2 --prob --mu nan",
        "avoiding --k 2 --mu inf",
        "simulate --horizon inf",
        "simulate --horizon nan",
        "pmf --t 0..inf",
        "cdf --t 1 --jumps exp --zeta 1 --z=0..1e300:1e-300",
        "pmf --t 1..nan",
        "pmf --t 0..1:nan",
    ])
    def test_non_finite_input(self, line, capsys):
        # each used to print a table of inf, nan or 1, or end in a traceback
        # (an OverflowError, or "cannot convert float NaN to integer")
        code, out, err = run_cli(line.split(), capsys)
        assert code == 1 and out == ""
        assert err.startswith("poissonsub: validation error:") and "finite" in err

    def test_io_error(self, capsys):
        code, _, err = run_cli(
            ["pmf", "--t", "1", "--output", "/nonexistent/dir/x.csv"], capsys)
        assert code == 3
        assert "i/o error" in err

    def test_max_terms_flag_is_gone(self, capsys):
        # the option used to truncate the law silently and exit 0
        with pytest.raises(SystemExit) as exc:
            main(["cdf", "--t", "50", "--jumps", "exp", "--zeta", "1",
                  "--z", "1000", "--max-terms", "10"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("line", [
        "pmf --t 1", "crossing --k 3 --t 1..2", "hitting --k 2 --t 1", "avoiding --k 2",
    ])
    def test_jump_flags_only_where_they_count(self, line):
        # these commands serve the unit-jump process; they used to accept the
        # jump flags, ignore them and print the unit-jump table
        with pytest.raises(SystemExit) as exc:
            main(line.split() + ["--jumps", "exp", "--zeta", "1"])
        assert exc.value.code == 1
        assert build_parser().parse_args(line.split()).jumps == "unit"

    @pytest.mark.parametrize("line, flag", [
        *((line, "--tolerance 1e-10") for line in (
            "moments --t 1", "crossing --k 3", "hitting --k 2", "avoiding --k 2", "simulate")),
        *((line, "--step 0.5") for line in (
            "pmf --t 1", "moments --t 1", "crossing --k 3", "avoiding --k 2", "simulate")),
        *((line, "--t-step 0.5") for line in ("avoiding --k 2", "simulate")),
    ])
    def test_flags_only_where_they_are_read(self, line, flag):
        # these commands used to accept the flag, ignore it and exit 0
        assert main(line.split() + ["--output", os.devnull]) == 0
        with pytest.raises(SystemExit) as exc:
            main(line.split() + flag.split())
        assert exc.value.code == 1

    def test_unknown_suite_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "no-such-suite"])
        assert exc.value.code == 1

    def test_verify_success(self, capsys):
        code, out, _ = run_cli(["verify", "formula-cross-checks"], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert all(l.startswith("[PASS]") for l in lines)


class TestImports:
    def test_cli_does_not_load_scipy_stats(self):
        # only the verify command needs scipy.stats; its import is deferred
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, poissonsub.cli; print('scipy.stats' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_law_paths_do_not_load_scipy_linalg(self):
        # importing scipy.linalg alone adds about 6 MB to the resident size
        code = "\n".join([
            "import sys, poissonsub.cli",
            "from poissonsub import (IteratedLaw, JumpSpec, ModelParams,",
            "                        cpp_cdf_Z_grid, survival_linear_increasing)",
            "law = IteratedLaw(ModelParams(2.0, 1.0))",
            "law.pmf_vector(300.0)",
            "cpp_cdf_Z_grid([-1.0, 0.5, 40.0], 20.0, law.params, JumpSpec.normal(0.5, 1.0))",
            "survival_linear_increasing(3, [0.5, 2.5, 4.0], law)",
            "print('scipy.linalg' in sys.modules)",
        ])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_formatter_tables_built_on_first_use(self):
        # building them at import would add to every command's start-up
        code = "import poissonsub.cli as c; print(c._tables.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"

    def test_parser_accepts_every_verify_suite(self):
        parser = build_parser()
        for name in verify.SUITES:
            assert parser.parse_args(["verify", name]).suite == name


class TestOutputFiles:
    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        code, out, _ = run_cli(
            ["pmf", "--t", "1", "--n", "0..2", "--output", str(target)], capsys)
        assert code == 0 and out == ""
        rows = list(csv.DictReader(target.open()))
        assert len(rows) == 3

    def test_outdir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POISSONSUB_OUTDIR", str(tmp_path))
        code, _, _ = run_cli(
            ["pmf", "--t", "1", "--n", "0..2", "--output", "rel.csv"], capsys)
        assert code == 0
        assert (tmp_path / "rel.csv").exists()

    def test_absolute_path_ignores_outdir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("POISSONSUB_OUTDIR", str(tmp_path / "sub"))
        target = tmp_path / "abs.csv"
        code, _, _ = run_cli(
            ["pmf", "--t", "1", "--n", "0", "--output", str(target)], capsys)
        assert code == 0
        assert target.exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples() -> list[str]:
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("poissonsub ")]


class TestReadmeExamples:
    def test_every_example_exits_zero(self, capsys):
        examples = readme_examples()
        assert len(examples) >= 12
        for line in examples:
            code, _, err = run_cli(shlex.split(line, comments=True)[1:], capsys)
            assert code == 0, f"{line!r} exited {code}: {err}"


class TestOtherCommands:
    def test_cdf_far_right_is_one(self, capsys):
        code, out, _ = run_cli(
            ["cdf", "--t", "50", "--jumps", "exp", "--zeta", "1", "--z", "1000"],
            capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert abs(float(rows[0]["cdf"]) - 1.0) < 1e-9

    def test_cdf_unit_jumps(self, capsys):
        code, out, _ = run_cli(
            ["cdf", "--t", "1", "--n", "0..5"], capsys)
        assert code == 0
        vals = [float(r["cdf"]) for r in csv.DictReader(io.StringIO(out))]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_cdf_continuous_jumps(self, capsys):
        code, out, _ = run_cli(
            ["cdf", "--t", "1", "--jumps", "exp", "--zeta", "1",
             "--z", "0..5:1"], capsys)
        assert code == 0
        vals = [float(r["cdf"]) for r in csv.DictReader(io.StringIO(out))]
        assert len(vals) == 6 and vals[-1] > vals[0]

    @pytest.mark.parametrize("line", [
        "cdf --t 1 --jumps unit --z 100000000", "cdf --t 1 --z 0..5",
        "cdf --t 1 --jumps exp --zeta 1 --n 0..5",
        "cdf --t 1 --jumps normal --eta 0.5 --sigma 1 --n 3",
    ])
    def test_cdf_refuses_the_other_jump_laws_grid(self, line, capsys):
        # unit jumps read --n, exp and normal jumps --z; the other flag used to
        # be ignored, with exit 0 and the default table
        code, out, err = run_cli(line.split(), capsys)
        assert code == 1 and out == "" and "validation error" in err

    @pytest.mark.parametrize("line", [
        "cdf --t 1 --n 0..5 --tolerance 0.5", "cdf --t 1 --step 7",
        "cdf --t 1 --jumps unit --tolerance 1e-10 --step 0.5",
        "pmf --t 1 --n 0..5 --tolerance 0.5",
        "hitting --k 2 --t 1 --step 0.5", "hitting --k 2 --t 1 --mu-grid 0.5..1",
        "hitting --prob --k 2 --t 1", "hitting --prob --k 2 --t-step 0.5",
        "hitting --prob --k 2 --step 0.5",
    ])
    def test_modes_refuse_flags_they_do_not_read(self, line, capsys):
        # the unit-jump CDF sums the weights up to --n, pmf --n reads the
        # states asked, hitting reads a mu grid only with --prob and times
        # only without it: all used to ignore these flags and exit 0
        code, out, err = run_cli(line.split(), capsys)
        assert code == 1 and out == "" and "does not read --" in err

    @pytest.mark.parametrize("line, given", [
        ("pmf --t 1", "--tolerance 1e-12"),
        ("cdf --t 1 --jumps exp --zeta 1 --z 0..1", "--tolerance 1e-12 --step 0.01"),
        ("density --t 1 --jumps exp --zeta 1 --z 0.5..1", "--tolerance 1e-12 --step 0.01"),
        ("hitting --prob --k 2 --mu-grid 1..1.1", "--step 0.01"),
        ("hitting --k 2", "--t 0..5 --t-step 1"),
    ])
    def test_flags_given_at_their_defaults(self, line, given, capsys):
        # where a mode reads them, the flags are taken, and their defaults
        # are the values given here
        outs = [run_cli(f"{line} {extra}".split(), capsys)[:2] for extra in ("", given)]
        assert outs[0] == outs[1] and outs[0][0] == 0 and len(outs[0][1].splitlines()) > 2

    def test_cdf_grid_defaults(self, capsys):
        # each mode's grid flag defaults to 0..10 where it is read
        for given, default in (("--jumps unit", "--n 0..10"),
                               ("--jumps exp --zeta 1", "--z 0..10"),
                               ("--jumps normal --eta 0.5 --sigma 1", "--z 0..10")):
            outs = [run_cli(f"cdf --t 1 {given} {extra}".split(), capsys)[:2]
                    for extra in ("", default)]
            assert outs[0] == outs[1] and outs[0][0] == 0
            assert len(outs[0][1].splitlines()) == (12 if "unit" in given else 1002)

    @pytest.mark.parametrize("line, col, want", [
        # the right limits lam P{Poisson(mu) = k} and lam P{Poisson(mu) >= k}
        ("hitting --k 2 --t 0..0.2:0.1", "density", "%.12g" % (0.5 / math.e)),
        ("crossing --k 2 --quantity density --t 0..0.2:0.1", "density",
         "%.12g" % (1.0 - 2.0 / math.e)),
    ])
    def test_density_rows_at_time_zero(self, line, col, want, capsys):
        # the t = 0 row used to be dropped (crossing) or written as 0 (hitting)
        code, out, _ = run_cli(line.split(), capsys)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and len(rows) == 3
        assert rows[0]["t"] == "0" and rows[0][col] == want

    def test_density_excludes_origin(self, capsys):
        code, out, _ = run_cli(
            ["density", "--t", "1", "--jumps", "exp", "--zeta", "1",
             "--z", "0..2:0.5"], capsys)
        assert code == 0
        zs = [float(r["z"]) for r in csv.DictReader(io.StringIO(out))]
        assert 0.0 not in zs and len(zs) == 4

    def test_crossing_mean(self, capsys):
        code, out, _ = run_cli(
            ["crossing", "--k", "1", "--quantity", "mean"], capsys)
        assert code == 0
        mean = float(list(csv.DictReader(io.StringIO(out)))[0]["mean"])
        assert mean == pytest.approx(1.0 / (1 - math.exp(-1)), rel=1e-10)

    def test_crossing_density_wrong_boundary(self, capsys):
        code, _, _ = run_cli(
            ["crossing", "--k", "2", "--boundary", "linear-increasing",
             "--quantity", "density"], capsys)
        assert code == 1

    @pytest.mark.parametrize("k,lam,mu,ts", [
        (3, 1.0, 1.0, "0..20:0.05"), (1, 2.0, 1.0, "0..5:0.25"),
        (5, 3.0, 1.4, "0.3..12.3:0.37")])
    def test_crossing_linear_increasing_one_table(self, capsys, k, lam, mu, ts):
        # the command builds one avoiding table for the grid; each value must
        # print as a per-t call that builds its own table does
        code, out, _ = run_cli(
            ["crossing", "--boundary", "linear-increasing", "--k", str(k),
             "--lambda", str(lam), "--mu", str(mu), f"--t={ts}"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        law = IteratedLaw(ModelParams(lam, mu))
        want = ["%.12g" % survival_linear_increasing(k, t, law)
                for t in parse_range(ts, 1.0).tolist()]
        assert [r["survival"] for r in rows] == want

    @pytest.mark.parametrize("line,runs", [
        ("pmf --t 1..3 --n 0..40", 3), ("cdf --t 0.5..5:0.5 --n 0..60", 10),
        ("crossing --k 4 --quantity density --t 0..3:0.25", 0),
        ("crossing --k 3 --t 0..5:0.25", 0),
        ("crossing --k 3 --boundary linear-decreasing --t 0..5:0.25", 0),
        # the avoiding table's unit-time run, then one per fractional part
        ("crossing --k 2 --boundary linear-increasing --t 0..5:0.25", 4),
        ("hitting --k 1..3 --t 0..4:0.5", 0)])
    def test_weight_engine_runs_once_per_t(self, capsys, monkeypatch, line, runs):
        # a law table runs the weight engine once per t, not once per cell,
        # and the passage-time densities read the jump chain instead
        engine, calls = IteratedLaw._log_weights, []

        def counted(law, t, n):
            calls.append(t)
            return engine(law, t, n)

        monkeypatch.setattr(IteratedLaw, "_log_weights", counted)
        code, _, _ = run_cli(shlex.split(line), capsys)
        assert code == 0 and len(calls) == runs

    def test_hitting_prob_grid(self, capsys):
        code, out, _ = run_cli(
            ["hitting", "--prob", "--k", "1..3", "--mu-grid", "0.5..1:0.5"],
            capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 6
        assert all(0 < float(r["prob"]) <= 1 for r in rows)

    @pytest.mark.parametrize("line, rows", [
        ("hitting --k 2 --t 0..2 --t-step 0.5", 5),
        ("hitting --k 1..2 --t 0.5..1:0.25", 6),
        ("hitting --prob --k 2 --mu-grid 1..1.2 --step 0.05", 5),
        ("hitting --prob --k 1..3", 3),
    ])
    def test_hitting_modes_take_the_flags_they_read(self, line, rows, capsys):
        code, out, err = run_cli(line.split(), capsys)
        assert (code, err) == (0, "") and len(out.splitlines()) == rows + 1

    def test_hitting_prob_at_the_given_mu(self, capsys):
        # a single --mu used to be rounded to 12 digits before the call,
        # which moves this cell by one in its last digit
        mu = 1.8395755385131807
        code, out, _ = run_cli(["hitting", "--prob", "--k", "2", "--mu", repr(mu)], capsys)
        (row,) = csv.DictReader(io.StringIO(out))
        assert code == 0 and row["prob"] == "%.12g" % hitting_probability(2, mu)

    def test_avoiding_table(self, capsys):
        code, out, _ = run_cli(
            ["avoiding", "--k", "2", "--horizon", "2"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        surv = [float(r["g"]) for r in rows if r["j"] == "survival"]
        assert len(surv) == 3 and surv[0] == 1.0
        assert all(a >= b for a, b in zip(surv, surv[1:]))

    def test_simulate_seeded(self, capsys):
        args = ["simulate", "--seed", "9", "--replicates", "5",
                "--jumps", "exp", "--zeta", "1"]
        code, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert code == 0 and out1 == out2
        rows = list(csv.DictReader(io.StringIO(out1)))
        assert len(rows) == 5

    def test_simulate_at_time_zero(self, capsys):
        code, out, _ = run_cli(["simulate", "--horizon", "0", "--replicates", "4"],
                               capsys)
        assert code == 0
        assert [float(r["z"]) for r in csv.DictReader(io.StringIO(out))] == [0.0] * 4


def reference_text(table, meta, fmt):
    """The table rendered one dict per row, the reference the columnar
    writer must match byte for byte: csv.DictWriter over "%.12g" cells, or
    json.dumps(indent=2) over rows of float("%.12g" % v)."""
    names = list(table)
    rows = [dict(zip(names, vals))
            for vals in zip(*(table[k].tolist() for k in names))]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=names, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: "%.12g" % v if isinstance(v, float) else str(v)
                             for k, v in row.items()})
        return buf.getvalue()
    payload = {"metadata": meta,
               "rows": [{k: float("%.12g" % v) if isinstance(v, float) else v
                         for k, v in row.items()} for row in rows]}
    return json.dumps(payload, indent=2) + "\n"


BYTE_CASES = [
    "pmf --lambda 2 --mu 1 --t 1",
    "pmf --lambda 1.5 --mu 0.7 --t 0..2 --n 0..5",
    "cdf --t 0.5..2:0.5 --jumps exp --zeta 1 --z=-1..3:0.25",
    "cdf --t 1..3 --jumps normal --eta 0.5 --sigma 1 --z=-2..4:0.37",
    "cdf --t 0..2 --n 0..4",
    "density --t 1 --jumps exp --zeta 1 --z=-1..2:0.5",
    "density --t 0.7..2.1:0.7 --jumps normal --eta 0.5 --sigma 1 --z=-4..8:0.1",
    "moments --jumps normal --eta 0 --sigma 1 --t 0..2",
    "crossing --k 3 --quantity mean",
    "crossing --k 2 --boundary linear-increasing --t 0..5:0.25",
    "crossing --k 3 --t 0..5:0.25",
    "crossing --k 3 --boundary linear-decreasing --t 0..5:0.25",
    "crossing --k 4 --quantity density --t 0..3:0.5",
    "hitting --prob --k 1..4 --mu-grid 0.25..3:0.25",
    "hitting --k 1..3 --lambda 1.5 --t 0..4:0.5",
    "cdf --t 0.5..1:0.5 --jumps exp --zeta 2 --z=-6..2:0.5",  # runs of 0 in cdf
    "avoiding --k 2 --horizon 4",
    "simulate --seed 7 --replicates 40 --jumps normal --eta -1 --sigma 2",
    # 60 002 rows: many row blocks, a run of t across the block ends
    "cdf --t 0.5..1:0.5 --jumps exp --zeta 1 --z=-1..14:0.0005",
]


class TestByteIdentity:
    """The block writer gives the same bytes as a row-by-row renderer."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("line", BYTE_CASES)
    def test_stdout_and_output_file(self, line, fmt, tmp_path, capsys):
        argv = shlex.split(line) + ["--format", fmt]
        args = build_parser().parse_args(argv)
        want = reference_text(args.fn(args), _meta(args, jumps=args.jumps), fmt)
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "") and out == want
        target = tmp_path / f"out.{fmt}"
        code, out, _ = run_cli(argv + ["--output", str(target)], capsys)
        assert code == 0 and out == ""
        assert target.read_bytes() == want.encode()

    def test_reused_parser(self, capsys):
        # main builds its parser once per process; no run may leak into the
        # next, be it a usage error, an option left out or another format
        with pytest.raises(SystemExit) as exc:
            main(["pmf"])
        assert exc.value.code == 1
        capsys.readouterr()
        for line in ["cdf --t 1 --n 0..3", "cdf --t 1", "cdf --t 1 --n 0..2 --format json",
                     "cdf --t 0.5..1:0.5 --format csv"]:
            argv = shlex.split(line)
            args = build_parser().parse_args(argv)
            want = reference_text(args.fn(args), _meta(args, jumps=args.jumps), args.format)
            code, out, err = run_cli(argv, capsys)
            assert (code, err) == (0, "") and out == want, line

    def test_cases_cover_every_command(self):
        assert {line.split()[0] for line in BYTE_CASES} == {
            "pmf", "cdf", "density", "moments", "crossing", "hitting", "avoiding",
            "simulate"}

    def test_nan_cell(self, capsys):
        _, out, _ = run_cli(["moments", "--jumps", "normal", "--eta", "0",
                             "--sigma", "1", "--t", "1", "--format", "json"], capsys)
        assert "NaN" in out
        assert math.isnan(json.loads(out)["rows"][0]["dispersion_index"])

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_edge_values(self, fmt, capsys):
        # values whose 12-digit JSON form is laid out differently from their
        # "%.12g" text: integral, large, subnormal, non-finite, signed zero
        rng = np.random.default_rng(3)
        tiny = np.finfo(float).tiny
        special = [0.0, -0.0, -0.0, 3.0, 3.0, -7.0, 1e11, 999999999999.5, 1e12,
                   123456789012345.6, 1e16, 1.7976931348623157e308, 1e-4, 1e-5,
                   0.99999999999995, tiny, 5e-324, -2.5e-310, math.nan,
                   math.inf, -math.inf,
                   # not integral, but "%.12g" prints them as integers
                   2.9999999999999, 1 - 1e-13, 1 - 2**-53, -4.00000000000002,
                   1 + 4.9e-12, 12345.000000002,
                   # about 1e11 and 1e12
                   999999999999.6, 99999999999.5, float(np.nextafter(1e11, 0)),
                   float(np.nextafter(1e11, 2e11)), 100000000000.5, -99999999999.4,
                   # just outside the 1e-11 candidate band, and inside it but
                   # not printed as an integer
                   1 + 1.5e-11, 3 + 4e-11, -250 * (1 - 2e-11), 7 - 3e-11]
        x = np.concatenate([special, rng.random(2000) * 40.0,
                            rng.standard_normal(2000) * 10.0 ** rng.integers(-320, 300, 2000),
                            tiny * (1.0 + rng.random(500) * 1e-3),
                            np.repeat(rng.random(20), 25)])
        # r: the same values in runs of 4, which are formatted once per run
        table = {"x": x, "i": np.arange(x.size), "r": np.repeat(x, 4)[:x.size],
                 "w": np.array(["word" if i % 3 else i for i in range(x.size)], dtype=object)}
        meta = {"command": "test", "lam": 1.0}
        args = argparse.Namespace(format=fmt, output=None)
        _write_table(table, meta, args)
        assert capsys.readouterr().out == reference_text(table, meta, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("rows", [1, 4095, 4096, 4097])
    def test_row_blocks(self, rows, fmt, capsys):
        # rows are written in blocks of 4096: a table of a block and one row
        # either side of it, runs of t across the block end
        rng = np.random.default_rng(rows)
        x = rng.standard_normal(rows) * 10.0 ** rng.integers(-9, 14, rows)
        table = {"t": np.repeat([0.25, 1e-7, 3.0], 2048)[:rows], "i": np.arange(rows),
                 "x": x, "w": np.array(["survival" if i % 5 else i for i in range(rows)],
                                       dtype=object)}
        meta = {"command": "test", "lam": 1.0}
        _write_table(table, meta, argparse.Namespace(format=fmt, output=None))
        assert capsys.readouterr().out == reference_text(table, meta, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_text_written_as_it_is_made(self, fmt, tmp_path, monkeypatch):
        # a table over _FLUSH bytes goes out in chunks as its row blocks are
        # made, one under it in one write; the text is the same either way
        rows = 3 * 4096 + 7
        rng = np.random.default_rng(rows)
        table = {"t": np.repeat([0.5, 2.0], rows)[:rows], "i": np.arange(rows),
                 "x": rng.standard_normal(rows) * 10.0 ** rng.integers(-9, 14, rows)}
        meta = {"command": "test", "lam": 1.0}
        want = reference_text(table, meta, fmt)
        for flush, writes in ((5, 4), (cli._FLUSH, 1)):
            monkeypatch.setattr(cli, "_FLUSH", flush)
            chunks = []
            monkeypatch.setattr(sys, "stdout", argparse.Namespace(write=chunks.append))
            _write_table(table, meta, argparse.Namespace(format=fmt, output=None))
            assert len(chunks) == writes and "".join(chunks) == want
            target = tmp_path / f"{flush}.{fmt}"
            _write_table(table, meta, argparse.Namespace(format=fmt, output=str(target)))
            assert target.read_bytes() == want.encode()

    def test_stdout_swapped_for_a_text_buffer(self, monkeypatch):
        # the table goes to sys.stdout as str, so any text stream takes it
        buf = io.StringIO()
        monkeypatch.setattr(sys, "stdout", buf)
        assert main(["pmf", "--t", "1", "--n", "0..2", "--format", "json"]) == 0
        assert len(json.loads(buf.getvalue())["rows"]) == 3

    @pytest.mark.parametrize("line", [
        "density --t 1 --jumps exp --zeta 1 --z 0",
        "crossing --k 2 --quantity density --t 1..0",
        "pmf --t 1..0",
        "hitting --k 1..2 --t 1..0",
    ])
    def test_empty_grid_exits_one(self, line, tmp_path, capsys):
        target = tmp_path / "out.json"
        code, out, err = run_cli(shlex.split(line) + ["--format", "json", "--output",
                                                      str(target)], capsys)
        assert code == 1 and out == "" and not target.exists()
        assert "empty result grid" in err


def cell_texts(x, fmt: str) -> list[str]:
    """The texts of the column formatter's cells, NUL bytes dropped."""
    cells = cli._cells(np.asarray(x, dtype=np.float64), fmt)
    return b"\n".join(cells.tolist()).translate(None, b"\0").decode().split("\n")


def want_texts(x, fmt: str) -> list[str]:
    texts = ["%.12g" % v for v in np.asarray(x, dtype=np.float64).tolist()]
    if fmt == "csv":
        return texts
    return [json.dumps(float(t)) for t in texts]


class TestFloatCells:
    """Every float cell of the column formatter is "%.12g" % v, and in JSON
    the json.dumps text of the float that "%.12g" text reads back to."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_edge_cases(self, fmt):
        tiny = np.finfo(float).tiny
        near = [np.nextafter(v, d) for v in (1e11, 1e12, 1e16, 1e280, 1e-280)
                for d in (0.0, np.inf)]
        x = [1234567890125.0, 1234567890135.0, 0.5, 2.5, 1.5e-5, 999999999999.5,
             9.999999999995e-5, 9.99999999999e-5, 1e-4, 1e-5, 0.0, -0.0, tiny,
             np.nextafter(tiny, 0), tiny / 2, 5e-324, -2.5e-310, 1e280, 1e-280,
             1e300, 1e-300, 1.7976931348623157e308, np.nan, np.inf, -np.inf,
             1e11, 1e12, 1e15, 1e16, 99999999999.95, 0.99999999999995, 3.0, 1e-3,
             *near, *np.nextafter(np.nextafter(near, 0.0), 0.0)]
        # powers of ten and the values that round up to one, and the
        # doubles either side of each
        tens = 10.0 ** np.arange(-323, 309)
        ups = (1e12 - 0.5) * 10.0 ** np.arange(-290, 280)
        for v in (tens, ups):
            x = np.concatenate([x, v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)])
        x = np.concatenate([x, np.negative(x)])
        assert cell_texts(x, fmt) == want_texts(x, fmt)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=60))
    def test_any_floats(self, xs):
        for fmt in ("csv", "json"):
            assert cell_texts(xs, fmt) == want_texts(xs, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_every_binary_exponent(self, fmt):
        # a million doubles, random sign and mantissa, exponent field 0 (the
        # subnormals) to 2046, plus values on and next to 12-digit halves;
        # JSON takes every fourth
        rng = np.random.default_rng(2024)
        n = 1 << 20
        bits = (rng.integers(0, 1 << 52, n, dtype=np.int64)
                | (np.arange(n, dtype=np.int64) % 2047 << 52)
                | (rng.integers(0, 2, n, dtype=np.int64) << 63))
        halves = ((rng.integers(10**11, 10**12, 1 << 16) + 0.5)
                  * 10.0 ** rng.integers(-290, 290, 1 << 16))
        x = np.concatenate([bits.view(np.float64), halves, np.nextafter(halves, 0.0),
                            np.nextafter(halves, np.inf)])
        if fmt == "json":  # json.dumps is the slow part: a quarter will do
            x = x[::4]
        for chunk in np.array_split(x, 16):
            assert cell_texts(chunk, fmt) == want_texts(chunk, fmt)
