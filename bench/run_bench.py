"""Seeded end-to-end and per-layer benchmark of the convexcauchy CLI.

    python3 bench/run_bench.py --workload solve-ell2d-257 --seed 1 --seconds 20 --trace 0

Each run generates one workload's inputs from the seed (see workloads.py),
drives `cli.main` in-process on them, checks the outputs against the
generated exact solution, and prints one JSON object as its last line:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 measures the end-to-end metrics with tracing off:
  wall_s     median time of one cli.main call, config to report files
  setup_s    median of harness.load_problem + harness.starting_field,
             repeated between the timed calls
  peak_mb    peak tracemalloc heap over one untimed cli.main call
             (SuperLU's C buffers are not traced and not included)
  err_inner  -log10 of the relative L2 error on the inner rows: of field.csv
             for the solves, of the data extension the sweep's balls are
             centred on for the sweep
--trace 1 alternates untraced and traced cli.main calls, reports the
per-layer metrics from span wrappers (spans.py), and self-tests the
benchmark: traced and untraced outputs must match, self times must be
non-negative and sum to at most the traced call's wall time.

The sources are imported from src/ next to this directory. THREADS is
removed from the environment so the sweep stays serial.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np

from spans import RepSpans, Tracer
from workloads import ERR_INNER_LIMIT, WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_TIMED_REPS = 3
# set-up repetitions take this share of the timed calls' time, and at least
# SETUP_MIN_REPS of them are made
SETUP_SHARE = 0.25
SETUP_MIN_REPS = 3
# stop adding repetitions past this, whatever --seconds asks for
MAX_RUN_SECONDS = 120.0
# float rounding allowed when checking self times against wall times
SELF_TIME_SLACK = 1e-9
# the sweep's data extension error, a config check rather than a solver bound
SWEEP_EXTENSION_LIMIT = 1e-2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_cli(cli, argv: list[str]) -> tuple[int, float]:
    """One cli.main call with stdout captured; returns (exit code, seconds)."""
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed attempt, not a benchmark crash
            traceback.print_exc()
            rc = -1
        wall = time.perf_counter() - start
    return rc, wall


def relative_error(u, u_star) -> float:
    return float(np.linalg.norm(u - u_star) / np.linalg.norm(u_star))


def check_outputs(inputs, out_dir: Path, rc: int) -> tuple[list[str], float | None]:
    """Problems found in one call's outputs, and its inner error (solves only)."""
    if rc != 0:
        return [f"exit code {rc}"], None
    problems = []
    report = json.loads((out_dir / "report.json").read_text())
    if inputs.command == "sweep":
        certs = report.get("certificates", [])
        if [c["lambda"] for c in certs] != inputs.lambdas:
            problems.append(f"certificate lambdas {[c['lambda'] for c in certs]}")
        for c in certs:
            if c["samples"] != inputs.samples or len(c["margins"]) != inputs.samples:
                problems.append(f"lambda={c['lambda']}: {len(c['margins'])} samples")
            # lambda=1 passes by a margin of ~2e-4 and is not asserted
            if c["lambda"] == max(inputs.lambdas) and not c["passed"]:
                problems.append(f"lambda={c['lambda']} certificate failed")
        return problems, None

    if not report["run"]["converged"]:
        problems.append(f"not converged: {report['run']['reason']}")
    with open(out_dir / "field.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    dim = inputs.u_star.shape[1] - 1
    if len(rows) != len(inputs.u_star):
        return problems + [f"field.csv has {len(rows)} rows, expected {len(inputs.u_star)}"], None
    coords = np.array([[float(r[f"x{j}"]) for j in range(dim)] for r in rows])
    if np.max(np.abs(coords - inputs.u_star[:, :dim])) > 1e-9:
        problems.append("field.csv node coordinates differ from the generated grid")
    inner = np.array([r["label"] == "inner" for r in rows])
    u = np.array([float(r["u"]) for r in rows])
    err = relative_error(u[inner], inputs.u_star[inner, dim])
    limit = ERR_INNER_LIMIT[inputs.name]
    if not err < limit:
        problems.append(f"inner relative L2 error {err:.3g} is not below {limit:g}")
    return problems, err


def comparable_outputs(out_dir: Path) -> dict[str, object]:
    """Output files with the timestamp and wall_time keys of report.json removed."""

    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k not in ("timestamp", "wall_time")}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    out = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "report.json":
            out[path.name] = strip(json.loads(path.read_text()))
        else:
            out[path.name] = path.read_bytes()
    return out


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(rep, out_dir: Path) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (see BENCHMARK.json)."""
    m: dict[str, float] = {}

    def calls_and_self(metric: str, span: str | None = None, calls: bool = True):
        span = span or metric
        if calls:
            m[f"{metric}.calls"] = rep.calls(span)
        m[f"{metric}.self_s"] = rep.self_s(span)

    report = json.loads((out_dir / "report.json").read_text())
    counts = report["mask_counts"]
    m["grid.classify_nodes.self_s"] = rep.self_s("grid.classify_nodes")
    m["grid.masked_fraction"] = 1.0 - counts["outside"] / sum(counts.values())
    calls_and_self("grid.shift")
    m["weights.mask_weight_sq.calls"] = rep.calls("weights.mask_weight_sq")
    calls_and_self("operators.apply_operator")
    calls_and_self("operators.linearize")
    calls_and_self("operators.LinearizedOperator.apply")
    m["operators.LinearizedOperator.to_matrix.self_s"] = rep.self_s(
        "operators.LinearizedOperator.to_matrix")
    calls_and_self("sobolev.inner_product", "sobolev.SobolevSpace.inner_product")
    calls_and_self("sobolev.apply_gram", "sobolev.SobolevSpace.apply_gram")
    calls_and_self("sobolev.riesz_solve")
    m["sobolev.riesz_solve.cg_iters"] = sum(s[6] for s in rep.named("sobolev.riesz_solve"))
    calls_and_self("sobolev.gram_matrix", "sobolev.SobolevSpace.gram_matrix", calls=False)
    calls_and_self("sobolev.constrained_solver", "sobolev.SobolevSpace.constrained_solver",
                   calls=False)
    m["sobolev.spaces_built"] = rep.calls("sobolev.SobolevSpace.__init__")
    calls_and_self("functional.evaluate")
    calls_and_self("functional.gradient.euclidean")
    calls_and_self("functional.gradient.sobolev")
    calls_and_self("functional.data_extension", calls=False)
    calls_and_self("functional.bregman_gap")
    calls_and_self("sampling.draw_in_ball")
    calls_and_self("sampling.random_smooth_values", calls=False)

    # iterations: successive gradient starts inside run; trials: J evaluations
    # after the initial one, i.e. line-search trials
    iter_ms, steps, trials = [], 0, 0
    for run in rep.named("optimizer.run"):
        grads = sorted(rep.within(run, "functional.gradient.sobolev")
                       + rep.within(run, "functional.gradient.euclidean"))
        iter_ms += [1e3 * (b[2] - a[2]) for a, b in zip(grads, grads[1:])]
        steps += max(len(grads) - 1, 0)
        trials += max(len(rep.within(run, "functional.evaluate")) - 1, 0)
    m["optimizer.iterations"] = steps
    m["optimizer.line_search_trials"] = trials
    m["optimizer.accept_ratio"] = steps / trials if trials else 0.0
    m["optimizer.iter_ms.p50"] = percentile(iter_ms, 50)
    m["optimizer.iter_ms.p90"] = percentile(iter_ms, 90)
    m["optimizer.iter_ms.n"] = len(iter_ms)
    m["optimizer.convergence_ratio.self_s"] = rep.self_s("optimizer.convergence_ratio")

    # certificate samples: successive Bregman-gap starts, the last closed by
    # the end of its certificate
    cert_ms = []
    for cert in rep.named("optimizer.convexity_certificate"):
        marks = [s[2] for s in rep.within(cert, "functional.bregman_gap")] + [cert[3]]
        cert_ms += [1e3 * (b - a) for a, b in zip(marks, marks[1:])]
    m["optimizer.cert_sample_ms.p50"] = percentile(cert_ms, 50)
    m["optimizer.cert_sample_ms.p95"] = percentile(cert_ms, 95)
    m["optimizer.cert_sample_ms.n"] = len(cert_ms)

    m["optimizer.direct_solve.self_s"] = rep.self_s("optimizer.direct_solve")
    m["optimizer.direct_solve.spsolve_s"] = sum(
        s[3] - s[2] for d in rep.named("optimizer.direct_solve")
        for s in rep.within(d, "scipy.spsolve"))
    calls_and_self("harness.evaluate_expression")
    m["harness.load_cauchy_csv.self_s"] = rep.self_s("harness.load_cauchy_csv")
    m["harness.field_table.self_s"] = rep.self_s("harness.field_table")
    m["harness.emit_report.self_s"] = rep.self_s("harness.emit_report")
    m["harness.report_bytes"] = sum(p.stat().st_size for p in out_dir.iterdir())
    return m


def env_record() -> dict:
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


class Tally:
    """Attempted and failed cli.main calls, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)


def measure_end_to_end(cli, harness, inputs, seconds: float, tally: Tally) -> dict[str, float]:
    argv = [inputs.command, str(inputs.config)]
    out_dir = inputs.out_dir

    # untimed first call: warms lazy imports and caches, and gives the heap peak
    tracemalloc.start()
    try:
        rc, _ = run_cli(cli, argv)
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    problems, err = check_outputs(inputs, out_dir, rc)
    tally.record(problems)

    def set_up():
        gc.collect()
        start = time.perf_counter()
        setup = harness.load_problem(inputs.config)
        field = harness.starting_field(setup)
        setup_s.append(time.perf_counter() - start)
        return setup, field

    # set-up repetitions are spread between the timed calls, so that both
    # medians sample the whole run rather than one stretch of it
    wall_s, setup_s, errs = [], [], [err]
    begin = time.perf_counter()
    while len(wall_s) < MIN_TIMED_REPS or time.perf_counter() - begin < seconds:
        rc, wall = run_cli(cli, argv)
        problems, err = check_outputs(inputs, out_dir, rc)
        tally.record(problems)
        wall_s.append(wall)
        errs.append(err)
        while sum(setup_s) < SETUP_SHARE * sum(wall_s):
            setup, field = set_up()
        if time.perf_counter() - begin > MAX_RUN_SECONDS:
            break
    while len(setup_s) < SETUP_MIN_REPS:
        setup, field = set_up()
    if inputs.command == "sweep":
        mask = setup.mask
        inner = mask.is_inner[mask.in_mask]
        errs = [relative_error(field.values[mask.in_mask][inner], inputs.u_star[inner, -1])]
        if not errs[0] < SWEEP_EXTENSION_LIMIT:
            tally.problems.append(f"data extension error {errs[0]:.3g}")
    errs = [e for e in errs if e is not None]
    if len(set(errs)) > 1:
        tally.problems.append(f"inner error differs between calls: {sorted(set(errs))}")
    print(f"# wall_s reps: {' '.join(f'{w:.4f}' for w in wall_s)}", file=sys.stderr)
    print(f"# setup_s reps: {' '.join(f'{w:.4f}' for w in setup_s)}", file=sys.stderr)
    return {
        "wall_s": statistics.median(wall_s),
        "setup_s": statistics.median(setup_s),
        "peak_mb": peak_bytes / 1e6,
        "err_inner": -math.log10(errs[0]) if errs else 0.0,
    }


def measure_layers(cli, inputs, seconds: float, tally: Tally, work: Path) -> dict[str, float]:
    plain_dir, traced_dir = work / "out-untraced", work / "out-traced"
    argv = [inputs.command, str(inputs.config)]
    rc, _ = run_cli(cli, argv + ["--out", str(plain_dir)])  # warm-up
    tally.record(check_outputs(inputs, plain_dir, rc)[0])

    tracer = Tracer()
    plain_s, traced_s, per_rep = [], [], []
    begin = time.perf_counter()
    while not traced_s or time.perf_counter() - begin < seconds:
        rc, wall = run_cli(cli, argv + ["--out", str(plain_dir)])
        tally.record(check_outputs(inputs, plain_dir, rc)[0])
        plain_s.append(wall)
        expected = comparable_outputs(plain_dir)

        tracer.rep += 1
        tracer.install()
        try:
            rc, wall = run_cli(cli, argv + ["--out", str(traced_dir)])
        finally:
            tracer.restore()
        problems = check_outputs(inputs, traced_dir, rc)[0]
        if comparable_outputs(traced_dir) != expected:
            problems.append("traced and untraced outputs differ")
        rep = RepSpans([s for s in tracer.spans if s[5] == tracer.rep])
        self_times = list(rep.self_time.values()) or [0.0]
        if min(self_times) < -SELF_TIME_SLACK:
            problems.append(f"negative self time {min(self_times):.3g} s")
        if sum(self_times) > wall + SELF_TIME_SLACK:
            problems.append(f"self times sum to {sum(self_times):.6f} s > wall {wall:.6f} s")
        if tracer.leftovers():
            problems.append(f"wrappers left installed: {tracer.leftovers()}")
        tally.record(problems)
        traced_s.append(wall)
        if rc == 0:
            per_rep.append(layer_metrics(rep, traced_dir))
        if time.perf_counter() - begin > MAX_RUN_SECONDS:
            break

    tracer.write_csv(work / "spans.csv")
    metrics = {name: statistics.median(r[name] for r in per_rep) for name in per_rep[0]} \
        if per_rep else {}
    metrics["trace.overhead"] = statistics.median(traced_s) / statistics.median(plain_s)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "convexcauchy" / "__init__.py").is_file():
        print(f"run_bench: no convexcauchy sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("THREADS", None)

    from convexcauchy import cli, harness

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = generate(args.workload, args.seed, work)
    env = env_record()
    print(f"# env: {json.dumps(env, sort_keys=True)}")

    tally = Tally()
    if args.trace:
        values = measure_layers(cli, inputs, args.seconds, tally, work)
    else:
        values = measure_end_to_end(cli, harness, inputs, args.seconds, tally)
    # names and units come from BENCHMARK.json; a metric measured but not
    # declared there, or declared but not measured, fails the run
    section = "per_layer" if args.trace else "end_to_end"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        tally.problems.append(f"measured metrics differ from BENCHMARK.json: "
                              f"{sorted(set(units) ^ set(values))}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps({**result, "env": env}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
