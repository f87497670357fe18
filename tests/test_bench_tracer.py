"""What the benchmark's span tracer (bench/spans.py) relies on.

The per-layer metrics of bench/run_bench.py count spans by name: the
gradient and J evaluations inside `optimizer.run` give the iteration and
line-search counts, and `SobolevSpace.inner_product` the norm work. This
test installs the tracer, unedited, around one shipped solve and checks that
those spans occur where the metrics look for them, that the tracer restores
every name, and that tracing leaves the outputs unchanged.
"""

import importlib.util
import json
from pathlib import Path

from convexcauchy import cli

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "ell2d_cubic_solve.json"


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
            report["run"].pop("wall_time")
            out[path.name] = report
        else:
            out[path.name] = path.read_bytes()
    return out


def test_tracer_sees_the_descent(tmp_path):
    spans = _load_spans()
    assert cli.main(["solve", str(CONFIG), "--out", str(tmp_path / "plain")]) == 0

    tracer = spans.Tracer()
    tracer.rep = 1
    tracer.install()
    try:
        rc = cli.main(["solve", str(CONFIG), "--out", str(tmp_path / "traced")])
    finally:
        tracer.restore()
    assert rc == 0
    assert tracer.leftovers() == []

    rep = spans.RepSpans(tracer.spans)
    (run,) = rep.named("optimizer.run")
    for name in ("functional.gradient.sobolev", "functional.evaluate",
                 "sobolev.SobolevSpace.inner_product"):
        assert rep.within(run, name), f"no {name} span inside optimizer.run"
    report = json.loads((tmp_path / "traced" / "report.json").read_text())
    assert len(rep.within(run, "functional.gradient.sobolev")) == report["run"]["iterations"]
    assert _outputs(tmp_path / "traced") == _outputs(tmp_path / "plain")
