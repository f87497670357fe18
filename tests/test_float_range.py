"""The float range: errors.finite, and the CLI, whose every failure there is
an exit code and a message naming its cause.

The examples draw log-uniform lambda, beta, trace-data scale and certificate
radius, on a 2-D elliptic problem at 9^2 to 17^2 or a 3-D one at 9^3, with
a linear or cubic operator, and run `solve` (the gradient solver, or the
direct one for the linear operator) or `certify` through cli.main. Pytest
turns a RuntimeWarning into an error, so an escaped numpy warning fails the
example as any escaped exception does.
"""

import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexcauchy.cli import main
from convexcauchy.errors import SolverError, finite
from convexcauchy.functional import bregman_gap
from convexcauchy.grid import LevelSpec, build_grid, classify_nodes
from convexcauchy.harness import build_setup

def test_finite_passes_a_finite_value_as_it_is():
    value = np.array([1.0, -2.0, 1e308])
    assert finite(value, "value", lambda: pytest.fail("cause of a finite value")) is value


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_finite_names_the_quantity_and_its_cause(bad):
    """The cause is worked out only once the check fails, with numpy's float
    warnings off: it may redo the arithmetic that overflowed (a warning
    would be an error here)."""
    with pytest.raises(SolverError, match=r"^weighted residual is not finite at beta=inf$"):
        finite(np.array([1.0, bad]), "weighted residual",
               lambda: f"beta={np.float64(1e300) * 1e300:g}")
    with pytest.raises(SolverError, match=r"^field is not finite$"):
        finite(bad, "field")


@pytest.mark.parametrize("first, second, size", [
    (1e120, 1e120, r"1e\+120"), (-1e308, 1e308, "inf")], ids=["identical", "opposite"])
def test_a_huge_pair_names_the_pair(first, second, size):
    """Two equal fields of 1e120 off the trace layers are 0 apart, and the
    gap named the trace data's scale (4); the pair's own size is the cause.
    Fields of -1e308 and 1e308 overflowed h = v2 - v1 with a numpy warning."""
    params = build_setup({"case": "ELL2D-CUBIC"}).params
    v1, v2 = (params.impose_dofs(np.full(params.mask.dofs.size, value))
              for value in (first, second))
    with pytest.raises(SolverError, match=r"^Bregman gap is not finite at a field pair of "
                       f"size {size}; reduce the certificate radius$"):
        bregman_gap(params, v1, v2, [params.core_weight])


# the box is fitted to the masked cap x0 + |x'|^2 < c - a, so that a 9^d grid
# resolves it
LEVEL = {"a": 0.2, "c": 0.45, "nu": 1.0, "x_width": 1.0}
HALF_WIDTH = 1.05 * math.sqrt(LEVEL["c"] - LEVEL["a"])
# a data weight below this cannot be what overflowed: its factor would have to
# be larger still, and be the culprit
MODERATE_WEIGHT = 1e150


def _log_uniform(low: float, high: float):
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0 ** e)


@st.composite
def runs(draw):
    """(command, config, trace-data scale)."""
    dim = draw(st.sampled_from([2, 2, 2, 3]))
    n = draw(st.integers(9, 17)) if dim == 2 else 9
    operator = draw(st.sampled_from(["linear", "cubic"]))
    command = draw(st.sampled_from(["solve", "certify"]))
    solver = "direct" if command == "solve" and operator == "linear" and draw(
        st.booleans()) else "gradient"
    cfg = {
        "family": "elliptic",
        "grid": {"bounds": [[0.0, LEVEL["c"] - LEVEL["a"]]]
                 + [[-HALF_WIDTH, HALF_WIDTH]] * (dim - 1), "resolution": [n] * dim},
        "level": LEVEL,
        "operator": {"id": operator},
        "weight": {"lambda": draw(_log_uniform(1.0, 1e3))},
        "functional": {"beta": draw(_log_uniform(1e-12, 1e300)), "beta_policy": "keep"},
        "solver": solver,
        "optimizer": {"max_iters": 5},
        "certificate": {"radius": draw(_log_uniform(1.0, 1e300)), "samples": 2, "seed": 1},
    }
    return command, cfg, draw(_log_uniform(1e-3, 1e300))


def _write(tmp_path, cfg: dict, scale: float):
    """The config's trace CSV, scale * (1 + sin(x0 + ... + xd) / 2) on the
    trace layers, and the log10 of its largest data weight (over the mask)."""
    grid = build_grid(cfg["grid"]["bounds"], cfg["grid"]["resolution"])
    mask = classify_nodes(grid, LevelSpec(family="elliptic", **cfg["level"]))
    values = (scale * (1.0 + 0.5 * np.sin(grid.coords().sum(axis=-1)))).ravel()
    rows = ["layer,index,value"] + [
        f"{layer},{idx},{float(values[idx])!r}"
        for layer, nodes in (("g0", mask.value_layer), ("g1", mask.deriv_layer))
        for idx in np.flatnonzero(nodes.ravel())]
    (tmp_path / "trace.csv").write_text("\n".join(rows) + "\n")
    cfg = {**cfg, "data": {"file": str(tmp_path / "trace.csv")},
           "output_dir": str(tmp_path / "out")}
    (tmp_path / "p.json").write_text(json.dumps(cfg))
    exponent = 2.0 * cfg["weight"]["lambda"] * (mask.dof_ell.max() - mask.theta - mask.epsilon)
    return exponent / math.log(10.0)


class _Errors(logging.Handler):
    """The messages of the package's error records, while attached."""

    def __init__(self):
        super().__init__(logging.ERROR)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@settings(max_examples=200)
@given(run=runs())
def test_every_float_range_failure_exits_with_its_cause(run, tmp_path_factory):
    command, cfg, scale = run
    tmp_path = tmp_path_factory.mktemp("float-range")
    log_weight = _write(tmp_path, cfg, scale)
    errors, logger = _Errors(), logging.getLogger("convexcauchy")
    logger.addHandler(errors)
    try:
        rc = main([command, str(tmp_path / "p.json")])
    finally:
        logger.removeHandler(errors)
    assert rc in (0, 1, 2, 3)
    assert rc == 0 or errors.messages
    failure = " ".join(errors.messages)
    # lambda is blamed only at a weight that can overflow with a smaller factor
    if "reduce lambda" in failure:
        assert log_weight >= math.log10(MODERATE_WEIGHT)
    # the trace data is the only large scale: a value past the range names it
    beta, radius = cfg["functional"]["beta"], cfg["certificate"]["radius"]
    if ("is not finite" in failure and log_weight < math.log10(MODERATE_WEIGHT)
            and beta <= 1.0 and (command == "solve" or radius < scale)):
        assert "trace-data scale" in failure and "reduce lambda" not in failure


def test_a_pair_at_the_data_scale_names_the_data(tmp_path, caplog):
    """At trace-data scale 1e100 a radius of 9e99 holds the data extension
    (H^k norm 4.8e99), and a drawn pair carries the data's values: the cubic
    gap past the range names the data, though the pair's largest entry
    (1.23e100, the extension's) is a little over the trace data's scale."""
    cfg = {"family": "elliptic",
           "grid": {"bounds": [[0.0, LEVEL["c"] - LEVEL["a"]], [-HALF_WIDTH, HALF_WIDTH]],
                    "resolution": [9, 9]},
           "level": LEVEL, "operator": {"id": "cubic"}, "weight": {"lambda": 1.0},
           "functional": {"beta": 1e-6, "beta_policy": "keep"},
           "certificate": {"radius": 9e99, "samples": 2, "seed": 1}}
    _write(tmp_path, cfg, 1e100)
    assert main(["certify", str(tmp_path / "p.json")]) == 2
    assert ("numerical failure: Bregman gap is not finite at trace-data scale 1.21e+100; "
            "rescale the Cauchy data") in caplog.text
