"""Benchmark for poissonsub: one closed-loop caller runs a workload's queries.

    python3 benchmark/run.py --workload law-large --seed 1 --seconds 15 --trace 0

Run from the root of a source tree that holds ``src/poissonsub``; the
package is imported from there, never from an installed copy.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See benchmark/README.md.
"""

from __future__ import annotations

import os

# numpy's OpenBLAS would otherwise start one thread per core for the cpp
# matrix-vector products and compete with the caller for the two cores.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".benchout")
SETUP_REPEATS = 5
SETUP_REFERENCE_S = 0.008  # _loop_seconds at the reference machine speed
MIN_QUERIES = 100  # so that ten timed queries lie beyond the 90th percentile


def _import_program():
    """Import poissonsub from this tree's src/; exit 2 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "poissonsub", "__init__.py")):
        print(f"benchmark: no src/poissonsub under {ROOT}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import poissonsub

    t0 = time.monotonic()
    import poissonsub.cli  # noqa: F401  (pulls in verify and scipy.stats)
    t1 = time.monotonic()
    if not os.path.abspath(poissonsub.__file__).startswith(SRC + os.sep):
        print(f"benchmark: poissonsub came from {poissonsub.__file__}", file=sys.stderr)
        sys.exit(2)
    return poissonsub, t1 - t0


def _loop_seconds(repeats: int = 5) -> float:
    """Median time of a pure-Python loop, after one untimed pass.

    Set-up is almost all interpreter work (unmarshalling and running module
    bodies), and its speed follows this loop far more closely than the mixed
    kernel in ``calibrate``: over 30 set-up processes, scaling by the loop
    cut the spread of set-up time from 32% to 9%, the mixed kernel only to
    31%.  It imports nothing, so it can run before the timed imports."""
    times = []
    for _ in range(repeats + 1):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:])


def _setup_probe(args) -> None:
    """Child process: import, build the round, report when ready, with the
    loop timed before and after."""
    k0 = time.monotonic()
    before = _loop_seconds()
    k1 = time.monotonic()
    ps, cli_import = _import_program()
    import workloads

    tmp = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        workloads.build(args.workload, args.seed, ps, {"tmpdir": tmp})
        ready = time.monotonic()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    after = _loop_seconds()
    print(json.dumps({"ready": ready, "loop_s": k1 - k0, "cli_import_s": cli_import,
                      "factor": SETUP_REFERENCE_S / math.sqrt(before * after)}))


def _measure_setup(args) -> tuple[float, float]:
    """Median set-up time, at reference speed, and median cli import time
    over fresh processes."""
    setups, imports = [], []
    for _ in range(SETUP_REPEATS):
        # time.monotonic is CLOCK_MONOTONIC, one clock for all processes on
        # Linux, so the child's "ready" reading compares with this one
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"benchmark: set-up probe exited {proc.returncode}")
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
        setups.append((rep["ready"] - t0 - rep["loop_s"]) * rep["factor"])
        imports.append(rep["cli_import_s"])
    return statistics.median(setups), statistics.median(imports)


def _digest(out) -> bytes:
    h = hashlib.blake2b(digest_size=16)

    def feed(x):
        import numpy as np

        if isinstance(x, (bytes, bytearray)):
            h.update(x)
        elif isinstance(x, np.ndarray):
            h.update(str(x.dtype).encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (list, tuple)):
            h.update(b"[")
            for y in x:
                feed(y)
            h.update(b"]")
        elif hasattr(x, "rows"):  # AvoidingTable
            feed(list(x.rows))
        else:
            h.update(repr(x).encode())

    feed(out)
    return h.digest()


class Runner:
    """Runs rounds of queries and keeps what the checks need."""

    def __init__(self, queries):
        self.queries = queries
        self.first: list = [None] * len(queries)  # outputs of the warm-up round
        self.errors: list = [None] * len(queries)  # exception text, if any
        self.digests: list = [None] * len(queries)
        self.mismatch = [False] * len(queries)
        self.attempted = 0
        self.latencies: list[list[float]] = []
        self.raw_rounds: list[float] = []  # unscaled query time per round
        self.rows_needed = 0

    def one(self, i, record: bool):
        q = self.queries[i]
        t0 = time.perf_counter()
        try:
            out = q.run()
        # SystemExit too: cli.main's argparse exits on a bad argument
        except (Exception, SystemExit):  # a failing query is counted, not fatal
            dt = time.perf_counter() - t0
            if self.errors[i] is None:
                self.errors[i] = traceback.format_exc(limit=3)
            return dt, False
        dt = time.perf_counter() - t0
        out = q.collect(out)
        d = _digest(out)
        if self.digests[i] is None:
            self.digests[i] = d
            self.first[i] = out
        elif d != self.digests[i]:
            self.mismatch[i] = True
        if record:
            self.rows_needed += q.rows_needed
        return dt, True

    def warm_up(self):
        for i in range(len(self.queries)):
            self.one(i, record=False)

    def timed(self, seconds: float) -> list[float]:
        """Whole rounds until ``seconds`` of query time have passed and at
        least ``MIN_QUERIES`` queries have run.  Returns
        each round's summed query time, at reference machine speed.  Each
        round's latencies, also scaled, go to ``self.latencies``."""
        import calibrate

        kernel, lat, raw = [], [], 0.0
        n = len(self.queries)
        while raw < seconds or len(lat) * n < MIN_QUERIES:
            row = []
            for i in range(len(self.queries)):
                kernel.append(calibrate.kernel_seconds())
                dt, _ = self.one(i, record=True)
                self.attempted += 1
                row.append(dt)
            raw += sum(row)
            lat.append(row)
        self.raw_rounds += [sum(row) for row in lat]
        factors = calibrate.smoothed_factors(kernel)
        scaled = [[dt * factors[r * n + i] for i, dt in enumerate(row)]
                  for r, row in enumerate(lat)]
        self.latencies += scaled
        busy = [sum(row) for row in scaled]
        return busy

    def check(self) -> tuple[set[int], list[str]]:
        """Indices of failed queries, with messages.  Runs after timing."""
        failed, msgs = set(), []
        for i, q in enumerate(self.queries):
            if self.errors[i] is not None:
                failed.add(i)
                msgs.append(f"query {i} ({q.kind}) raised:\n{self.errors[i]}")
                continue
            try:
                errs = q.check(self.first[i])
            except Exception:
                errs = [f"check raised:\n{traceback.format_exc(limit=4)}"]
            if self.mismatch[i]:
                errs.append("output differs between rounds")
            if errs:
                failed.add(i)
                msgs += [f"query {i} ({q.kind}): {e}" for e in errs]
        return failed, msgs


def _environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def _rate(busy: list[float], per_round: int) -> float:
    """Queries per second from the median round: a burst of load from
    elsewhere on the machine moves one round, not the figure."""
    return per_round / statistics.median(busy)


def _latency_percentiles(latencies: list[list[float]]) -> tuple[float, float]:
    """p50 and p90 over every timed query, each query's latency taken as the
    median of its repeats across rounds.  Each percentile then falls on the
    same query of the round in every run, whatever the machine's noise."""
    import numpy as np

    per_query = np.median(np.asarray(latencies), axis=0)
    every = np.repeat(per_query, len(latencies))
    return float(np.percentile(every, 50)), float(np.percentile(every, 90))


def _layer_metrics(tr, rounds, runner, qps_plain, qps_traced, cli_import) -> dict:
    per = 1.0 / rounds
    pmf_calls = tr.calls("iterated.pmf")
    mc_self = tr.layer_self("mc")
    m = {
        "special.log_bell_series.calls": (tr.calls("special.log_bell_series") * per, "count"),
        "special.log_bell_series.self_s": (tr.self_s("special.log_bell_series") * per, "s"),
        "special.bell_poly.calls": ((tr.calls("special.bell_poly")
                                     + tr.calls("special.bell_poly_derivative")) * per, "count"),
        "special.self_s": (tr.layer_self("special") * per, "s"),
        "iterated.pmf_vector.calls": (tr.calls("iterated.pmf_vector") * per, "count"),
        "iterated.pmf_vector.states": (tr.states * per, "count"),
        "iterated.pmf_vector.self_s": (tr.self_s("iterated.pmf_vector") * per, "s"),
        "iterated.pmf.calls": (pmf_calls * per, "count"),
        "iterated.cdf.calls": (tr.calls("iterated.cdf") * per, "count"),
        # every round repeats the same keys, so compare one round's calls
        "iterated.pmf.repeat_ratio": (pmf_calls * per / len(tr.pmf_keys)
                                      if tr.pmf_keys else 0.0, "ratio"),
        "iterated.self_s": (tr.layer_self("iterated") * per, "s"),
        "cpp.grid_points": (tr.grid_points * per, "count"),
        "cpp.mixture_cells": (tr.mixture_cells * per, "count"),
        "cpp.self_s": (tr.layer_self("cpp") * per, "s"),
        "crossing.avoiding_table.rows": (tr.table_rows * per, "count"),
        "crossing.rows_per_query": (tr.table_rows / runner.rows_needed
                                    if runner.rows_needed else 0.0, "ratio"),
        "crossing.self_s": (tr.layer_self("crossing") * per, "s"),
        "mc.draws": (tr.draws * per, "count"),
        "mc.draws_per_s": (tr.draws / mc_self if mc_self > 0 else 0.0, "1/s"),
        "mc.batch_first_crossing.self_s": (tr.self_s("mc.batch_first_crossing") * per, "s"),
        "mc.self_s": (mc_self * per, "s"),
        "cli.self_s": (tr.layer_self("cli") * per, "s"),
        "cli.rows_written": (tr.rows_written * per, "count"),
        "cli.bytes_written": (tr.bytes_written * per, "bytes"),
        "cli.import_s": (cli_import, "s"),
        "trace.overhead": ((qps_plain - qps_traced) / qps_plain, "ratio"),
    }
    busy = sum(runner.raw_rounds[-rounds:])
    for layer in ("special", "iterated", "cpp", "crossing", "mc", "cli"):
        m[f"{layer}.share"] = (tr.layer_self(layer) / busy, "ratio")
    m["harness.share"] = (1.0 - sum(m[f"{x}.share"][0] for x in
                                    ("special", "iterated", "cpp", "crossing", "mc", "cli")),
                          "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        _setup_probe(args)
        return 0

    ps, _ = _import_program()
    os.makedirs(OUT_DIR, exist_ok=True)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup_s, cli_import = _measure_setup(args)
    tmp = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        queries = workloads.build(args.workload, args.seed, ps, {"tmpdir": tmp})
        runner = Runner(queries)
        runner.warm_up()
        if args.trace:
            import tracing

            half = args.seconds / 2.0
            qps_plain = _rate(runner.timed(half), len(queries))
            tr = tracing.Tracer(ps)
            tr.install()
            runner.rows_needed = 0
            try:
                busy = runner.timed(half)
            finally:
                tr.uninstall()
            rounds = len(busy)
            qps_traced = _rate(busy, len(queries))
            metrics = _layer_metrics(tr, rounds, runner, qps_plain, qps_traced, cli_import)
            spans = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.csv")
            tr.write_spans(spans)
            print(f"# {len(tr.span_start)} spans kept ({tr.dropped} beyond the cap) "
                  f"in {os.path.relpath(spans, ROOT)}")
        else:
            busy = runner.timed(args.seconds)
            rounds = len(busy)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            p50, p90 = _latency_percentiles(runner.latencies)
            metrics = {
                "setup_s": (setup_s, "s"),
                "queries_per_s": (_rate(busy, len(queries)), "1/s"),
                "query_p50_ms": (p50 * 1e3, "ms"),
                "query_p90_ms": (p90 * 1e3, "ms"),
                "peak_rss_mb": (peak_mb, "MB"),
            }
        failed_idx, msgs = runner.check()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # a query index that failed fails in every round it was attempted
    per_round = len(queries)
    attempted = runner.attempted
    failed = (attempted // per_round) * len(failed_idx)
    env = _environment()
    print(f"# workload {args.workload} seed {args.seed}: {rounds} timed rounds of "
          f"{per_round} queries; {env}")
    by_kind = {}
    for lat in runner.latencies:
        for j, dt in enumerate(lat):
            by_kind.setdefault(queries[j].kind, []).append(dt * 1e3)
    for kind, xs in by_kind.items():
        print(f"#   {kind:24s} {len(xs) // len(runner.latencies):3d} per round, "
              f"median {statistics.median(xs):9.2f} ms")
    for m in msgs:
        print("# FAIL " + m.replace("\n", "\n# "))
    result = {
        # a wrong answer makes the run incorrect; a query that raises is a failure
        "correct": all(runner.errors[i] is not None for i in failed_idx),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
