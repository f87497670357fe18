"""Golden outputs of the four shipped configs, frozen at a known-good commit.

Each config runs through the CLI into a temporary directory and its
report.json is compared against tests/golden_reports.json:

    iteration counts and certificate failure counts   exact
    final J, every error norm                         relative 1e-9
    q_hat                                             relative 1e-6
    every certificate margin and gap                  relative 1e-9

Perturbing every norm by 1e-13 moves the margins by at most 4e-12 relative,
so 1e-9 leaves room for reordered sums but not for a changed discretization.
The gradcheck figure is finite-difference noise and is only checked against
its own tolerance.

    python tests/test_golden.py                 # rewrite golden_reports.json
    python tests/test_golden.py --only NAME     # rewrite the entry of config NAME

With --only, the other entries stay byte for byte as they are. Rewrite the
file only from a commit whose outputs are known to be right.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"
CONFIGS = {
    "ell2d_cubic_solve.json": "solve",
    "ell2d_cubic_sweep.json": "sweep",
    "ell2d_harmonic_reconstruct.json": "solve",
    "hyp1d_quad_gradcheck.json": "gradcheck",
}
REL_TOL = 1e-9
Q_HAT_REL_TOL = 1e-6


def run_config(name: str, out_dir: Path) -> tuple[int, dict]:
    from convexcauchy.cli import main

    rc = main([CONFIGS[name], str(ROOT / "configs" / name), "--out", str(out_dir)])
    return rc, json.loads((out_dir / "report.json").read_text())


def golden_values(report: dict) -> dict:
    """The frozen subset of one report."""
    out = {}
    if "run" in report:
        out["iterations"] = report["run"]["iterations"]
        out["final_j"] = report["run"]["final_j"]
        out["q_hat"] = report["run"]["q_hat"]
        out["errors"] = report["errors"]
    if "certificates" in report:
        out["certificates"] = [
            {key: c[key] for key in ("lambda", "failures", "margins", "gaps")}
            for c in report["certificates"]
        ]
    if "gradcheck" in report:
        out["gradcheck_tolerance"] = report["gradcheck"]["tolerance"]
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_shipped_config_matches_golden(name, golden, tmp_path):
    rc, report = run_config(name, tmp_path)
    assert rc == 0
    expect = golden[name]
    got = golden_values(report)
    assert set(got) == set(expect)

    if "iterations" in expect:
        assert got["iterations"] == expect["iterations"]
        assert got["final_j"] == pytest.approx(expect["final_j"], rel=REL_TOL)
        if expect["q_hat"] is None:
            assert got["q_hat"] is None
        else:
            assert got["q_hat"] == pytest.approx(expect["q_hat"], rel=Q_HAT_REL_TOL)
        assert set(got["errors"]) == set(expect["errors"])
        for key, value in expect["errors"].items():
            assert got["errors"][key] == pytest.approx(value, rel=REL_TOL), key

    if "certificates" in expect:
        assert len(got["certificates"]) == len(expect["certificates"])
        for cert, ref in zip(got["certificates"], expect["certificates"]):
            assert cert["lambda"] == ref["lambda"]
            assert cert["failures"] == ref["failures"]
            assert cert["margins"] == pytest.approx(ref["margins"], rel=REL_TOL)
            assert cert["gaps"] == pytest.approx(ref["gaps"], rel=REL_TOL)

    if "gradcheck_tolerance" in expect:
        assert report["gradcheck"]["max_rel_error"] < expect["gradcheck_tolerance"]


def record(out_root: Path, names: list[str]) -> None:
    """Rewrite the entries of the configs `names`, keeping the others."""
    values = json.loads(GOLDEN.read_text()) if set(names) != set(CONFIGS) else {}
    for name in names:
        rc, report = run_config(name, out_root / name.removesuffix(".json"))
        if rc != 0:
            raise SystemExit(f"{name}: exit code {rc}")
        values[name] = golden_values(report)
    GOLDEN.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description="rewrite tests/golden_reports.json")
    parser.add_argument("--only", choices=sorted(CONFIGS), metavar="NAME",
                        help="rewrite only this config's entry")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp), [args.only] if args.only else sorted(CONFIGS))
