"""Property tests of the DOF API on random elliptic geometries.

Each example draws an elliptic level (a < c in (0, 1/2), nu, x_width), a 2-D
resolution from 9 to 21 per axis and a lower-order term from
operators.LOWER_TERMS. The grid box is fitted to the masked cap
x1 + x2^2 / X^2 < c - a, so every draw leaves core and inner nodes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from convexcauchy.functional import (
    CauchyData,
    FunctionalParams,
    data_extension,
    evaluate,
    gradient,
)
from convexcauchy.grid import LevelSpec, build_grid, classify_nodes
from convexcauchy.operators import LOWER_TERMS, LowerOrderTerm, QuasilinearOperator
from convexcauchy.optimizer import OptimizerConfig, run
from convexcauchy.sampling import random_smooth_values
from convexcauchy.sobolev import SobolevSpace


def _source(points):
    return np.sin(points[..., 0]) - 0.5 * points[..., 1]


def _scale(points):
    return 0.3 + 0.1 * points[..., 0]


@st.composite
def problems(draw):
    """FunctionalParams of a random elliptic problem, plus a seed for numpy draws."""
    a = draw(st.floats(0.1, 0.3))
    c = draw(st.floats(a + 0.15, 0.49))
    nu = draw(st.floats(1.0, 2.0))
    x_width = draw(st.floats(0.6, 1.6))
    resolution = (draw(st.integers(9, 21)), draw(st.integers(9, 21)))
    kind = draw(st.sampled_from(sorted(LOWER_TERMS)))
    lower = LowerOrderTerm(kind, _source, _scale if kind == "gradsq" else None)
    seed = draw(st.integers(0, 2**31 - 1))

    half_width = 1.05 * x_width * np.sqrt(c - a)
    grid = build_grid(((0.0, c - a), (-half_width, half_width)), resolution)
    mask = classify_nodes(grid, LevelSpec(family="elliptic", a=a, c=c, nu=nu, x_width=x_width))
    trace = 1.0 + 0.3 * np.sin(grid.coords().sum(axis=-1))
    params = FunctionalParams(
        op=QuasilinearOperator(family="elliptic", dim=2, lower=lower),
        lam=1.0, mask=mask, space=SobolevSpace(mask),
        beta=0.1, data=CauchyData(g0=trace[mask.value_layer], g1=trace[mask.deriv_layer]),
        beta_policy="keep",
    )
    return params, seed


def _start(params, rng):
    """The data extension plus a smooth zero-trace bump."""
    bump = random_smooth_values(params.mask, rng)
    return data_extension(params.space, params.data) + 0.5 * bump


@settings(max_examples=12)
@given(problems())
def test_adjoint_identity(problem):
    params, seed = problem
    rng = np.random.default_rng(seed)
    lin = params.stencil.linearize(_start(params, rng))
    v = rng.standard_normal(params.mask.dofs.size)
    y = rng.standard_normal(lin.stencil.core_pos.size)
    lhs = float(y @ lin.forward(v))
    rhs = float(v @ lin.adjoint(y))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


@settings(max_examples=12)
@given(problems())
def test_gradient_matches_central_differences(problem):
    params, seed = problem
    rng = np.random.default_rng(seed)
    u = _start(params, rng)
    g = gradient(params, u, mode="euclidean")
    h = random_smooth_values(params.mask, rng)
    delta = 1e-5 * max(1.0, float(np.max(np.abs(u))))
    fd = (evaluate(params, u + delta * h) - evaluate(params, u - delta * h)) / (2 * delta)
    an = float(g @ h)
    assert abs(fd - an) <= 1e-6 * max(1.0, abs(an))


@settings(max_examples=12)
@given(problems())
def test_descent_step_keeps_trace(problem):
    params, seed = problem
    mask = params.mask
    report = run(params, _start(params, np.random.default_rng(seed)),
                 OptimizerConfig(max_iters=1, grad_tol=1e-300, store_iterates=False))
    assert report.step_history, "the run took no step"
    assert np.array_equal(report.final[mask.value_pos], params.data.g0)
    assert np.array_equal(report.final[mask.deriv_pos], params.data.g1)

