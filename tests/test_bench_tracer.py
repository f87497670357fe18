"""What the benchmark's span tracer (bench/spans.py) relies on.

The per-layer metrics of bench/run_bench.py count spans by name: the
gradient and J evaluations inside `optimizer.run` give the iteration and
line-search counts, `SobolevSpace.inner_product` the norm work, the
`functional.bregman_gap` spans inside `optimizer.convexity_certificate` the
certificate samples, and the `weights.mask_weight_sq` spans the weights
built. These tests install the tracer, unedited, around the shipped gradient
solve, direct solve and sweep and check that those spans occur where the
metrics look for them, that the tracer restores every name, and that
tracing leaves the outputs unchanged.
"""

import importlib.util
import json
from pathlib import Path

from convexcauchy import cli
from convexcauchy.optimizer import PAIRS_PER_DRAW

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "ell2d_cubic_solve.json"
SWEEP_CONFIG = ROOT / "configs" / "ell2d_cubic_sweep.json"
DIRECT_CONFIG = ROOT / "configs" / "ell2d_harmonic_reconstruct.json"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _outputs(out_dir: Path) -> dict:
    """Output files, with report.json's timestamp and wall_time entries removed."""
    out = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "report.json":
            report = json.loads(path.read_text())
            report.pop("timestamp")
            report.get("run", report).pop("wall_time")
            out[path.name] = report
        else:
            out[path.name] = path.read_bytes()
    return out


def _traced_run(spans, argv: list[str], tmp_path: Path):
    """Run argv untraced, then traced; return the traced spans."""
    assert cli.main(argv + ["--out", str(tmp_path / "plain")]) == 0
    tracer = spans.Tracer()
    tracer.rep = 1
    tracer.install()
    try:
        rc = cli.main(argv + ["--out", str(tmp_path / "traced")])
    finally:
        tracer.restore()
    assert rc == 0
    assert tracer.leftovers() == []
    assert _outputs(tmp_path / "traced") == _outputs(tmp_path / "plain")
    return spans.RepSpans(tracer.spans)


def test_tracer_sees_the_descent(tmp_path):
    rep = _traced_run(_load_spans(), ["solve", str(CONFIG)], tmp_path)
    (run,) = rep.named("optimizer.run")
    for name in ("functional.gradient.sobolev", "functional.evaluate",
                 "sobolev.SobolevSpace.inner_product"):
        assert rep.within(run, name), f"no {name} span inside optimizer.run"
    report = json.loads((tmp_path / "traced" / "report.json").read_text())
    assert len(rep.within(run, "functional.gradient.sobolev")) == report["run"]["iterations"]


def test_tracer_sees_the_certificate_samples(tmp_path):
    """A sweep is one certificate: one Bregman-gap span per sample pair,
    serving every lambda, one draw span per PAIRS_PER_DRAW pairs, and one
    weight per lambda besides the problem's own."""
    rep = _traced_run(_load_spans(), ["sweep", str(SWEEP_CONFIG)], tmp_path)
    (cert,) = rep.named("optimizer.convexity_certificate")
    report = json.loads((tmp_path / "traced" / "report.json").read_text())
    samples = report["config"]["certificate"]["samples"]
    lambdas = report["config"]["certificate"]["lambdas"]
    assert len(report["certificates"]) == len(lambdas) > 1
    assert rep.calls("weights.mask_weight_sq") == 1 + len(lambdas)
    assert len(rep.within(cert, "weights.mask_weight_sq")) == len(lambdas)
    assert len(rep.within(cert, "functional.bregman_gap")) == samples
    assert rep.calls("functional.bregman_gap") == samples
    assert len(rep.within(cert, "sampling.draw_in_ball")) == -(-samples // PAIRS_PER_DRAW)


def test_tracer_sees_the_direct_solve(tmp_path):
    """A direct solve is the one descent loop, one optimizer.run span inside
    cli.cmd_solve, whose gradient spans are the gradients its report counts."""
    rep = _traced_run(_load_spans(), ["solve", str(DIRECT_CONFIG)], tmp_path)
    (solve,) = rep.named("cli.cmd_solve")
    (direct,) = rep.named("optimizer.run")
    assert rep.within(solve, "optimizer.run") == [direct]
    report = json.loads((tmp_path / "traced" / "report.json").read_text())
    counters = report["run"]["counters"]
    assert len(rep.within(direct, "functional.gradient.euclidean")) == counters["gradients"]
    assert len(rep.within(direct, "functional.evaluate")) == counters["evaluations"]
