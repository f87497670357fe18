"""Property tests of the DOF API on random geometries of every level family.

The elliptic examples draw an elliptic level (a < c in (0, 1/2), nu,
x_width), a 2-D resolution from 9 to 21 per axis and a lower-order term from
operators.LOWER_TERMS. The grid box is fitted to the masked cap
x1 + x2^2 / X^2 < c - a, so every draw leaves core and inner nodes.

The other levels (LEVELS) draw a parabolic cap or a hyperbolic level in 1+1-D
and 2+1-D, or a random generic level in 2-D, with a lower-order term in the
same way. The hyperbolic masks carry lateral data on every spatial face, so
their random draws smooth toward several data faces at once. On these levels
the constrained Gram is also checked bit for bit against the sparse-product
assembly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import smooth_draw
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

from test_masked_setup import _keep_every_chain_gram


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
    return _params(mask, "elliptic", lower), seed


def _params(mask, family, lower):
    grid = mask.grid
    trace = 1.0 + 0.3 * np.sin(grid.coords().sum(axis=-1))
    return FunctionalParams(
        op=QuasilinearOperator(family=family, dim=grid.dim, lower=lower),
        lam=1.0, mask=mask,
        beta=0.1, data=CauchyData(g0=trace[mask.value_layer], g1=trace[mask.deriv_layer]),
        beta_policy="keep",
    )


# level id: (level family, spatial axes, range of the resolution per axis)
LEVELS = {
    "parabolic-1+1": ("parabolic", 1, (9, 21)),
    "parabolic-2+1": ("parabolic", 2, (7, 11)),
    "hyperbolic-1+1": ("hyperbolic", 1, (11, 21)),
    "hyperbolic-2+1": ("hyperbolic", 2, (9, 13)),
    "generic": ("generic", 2, (9, 21)),
}


@st.composite
def level_problems(draw, level):
    """FunctionalParams of a random problem on a LEVELS geometry, plus a seed.

    A parabolic box is fitted to the cap x1 + |x_perp|^2/X^2 + t^2/T^2 < c - a
    and reaches past it along t. A hyperbolic box is the unit box in space
    and [-1, 1] in time, with x0 within 0.1 of its centre; eta is large
    enough that at t = +-1 even the box's corners, whose squared distance
    from x0 is at most 0.36 per spatial axis, fall outside the mask. A
    generic level perturbs 1.2 - x by a random sine in x and cosine in y,
    with the data on the face x = 0 (the elliptic operator).
    """
    family, spatial, (lo, hi) = LEVELS[level]
    if family == "parabolic":
        a = draw(st.floats(0.1, 0.3))
        c = draw(st.floats(a + 0.15, 0.49))
        nu = draw(st.floats(1.0, 2.0))
        x_width = draw(st.floats(0.6, 1.6))
        t_span = draw(st.floats(0.5, 1.5))
        reach = np.sqrt(c - a)
        bounds = ([(0.0, c - a)] + [(-1.05 * x_width * reach, 1.05 * x_width * reach)]
                  * (spatial - 1) + [(-1.2 * t_span * reach, 1.2 * t_span * reach)])
        spec = LevelSpec(family="parabolic", a=a, c=c, nu=nu, x_width=x_width, t_span=t_span)
    elif family == "hyperbolic":
        x0 = tuple(draw(st.floats(0.4, 0.6)) for _ in range(spatial))
        c = draw(st.floats(0.01, 0.04))
        eta = draw(st.floats(0.36 * spatial - c + 0.02, 0.97))
        bounds = [(0.0, 1.0)] * spatial + [(-1.0, 1.0)]
        spec = LevelSpec(family="hyperbolic", c=c, eta=eta, x0=x0)
    else:
        k = [draw(st.floats(-1.0, 1.0)) for _ in range(4)]

        def xi(p):
            x, y = p
            return 1.2 - x + 0.3 * k[0] * np.sin(2 * x + k[1]) + 0.3 * k[2] * np.cos(2 * y + k[3])

        bounds = [(0.0, 1.0), (0.0, 1.0)]
        spec = LevelSpec(family="generic", c=0.4, xi_fn=xi)
    resolution = [draw(st.integers(lo, hi)) for _ in bounds]
    kind = draw(st.sampled_from(sorted(LOWER_TERMS)))
    lower = LowerOrderTerm(kind, _source, _scale if kind == "gradsq" else None)
    seed = draw(st.integers(0, 2**31 - 1))
    mask = classify_nodes(build_grid(bounds, resolution), spec)
    return _params(mask, "elliptic" if family == "generic" else family, lower), seed


def _start(params, rng):
    """The data extension plus a smooth zero-trace bump."""
    bump = smooth_draw(params.mask, rng)
    return data_extension(params.space, params.data) + 0.5 * bump


def _check_adjoint(params, seed):
    rng = np.random.default_rng(seed)
    lin = params.stencil.linearize(_start(params, rng))
    v = rng.standard_normal(params.mask.dofs.size)
    y = rng.standard_normal(lin.stencil.core_pos.size)
    lhs = float(y @ lin.forward(v))
    rhs = float(v @ lin.adjoint(y))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def _check_gradient(params, seed):
    rng = np.random.default_rng(seed)
    u = _start(params, rng)
    g = gradient(params, evaluate(params, u))
    h = smooth_draw(params.mask, rng)
    delta = 1e-5 * max(1.0, float(np.max(np.abs(u))))
    fd = (evaluate(params, u + delta * h) - evaluate(params, u - delta * h)) / (2 * delta)
    an = float(g @ h)
    assert abs(fd - an) <= 1e-6 * max(1.0, abs(an))


def _check_descent_step(params, seed):
    mask = params.mask
    report = run(params, _start(params, np.random.default_rng(seed)),
                 OptimizerConfig(max_iters=1, grad_tol=1e-300, store_iterates=False))
    assert report.step_history, "the run took no step"
    assert np.array_equal(report.final[mask.value_pos], params.data.g0)
    assert np.array_equal(report.final[mask.deriv_pos], params.data.g1)


@settings(max_examples=12)
@given(problems())
def test_adjoint_identity(problem):
    _check_adjoint(*problem)


@settings(max_examples=12)
@given(problems())
def test_gradient_matches_central_differences(problem):
    _check_gradient(*problem)


@settings(max_examples=12)
@given(problems())
def test_descent_step_keeps_trace(problem):
    _check_descent_step(*problem)


@pytest.mark.parametrize("level", LEVELS)
@settings(max_examples=8)
@given(data=st.data())
def test_adjoint_identity_on_other_levels(level, data):
    _check_adjoint(*data.draw(level_problems(level)))


@pytest.mark.parametrize("level", LEVELS)
@settings(max_examples=8)
@given(data=st.data())
def test_gradient_matches_central_differences_on_other_levels(level, data):
    _check_gradient(*data.draw(level_problems(level)))


@pytest.mark.parametrize("level", LEVELS)
@settings(max_examples=8)
@given(data=st.data())
def test_descent_step_keeps_trace_on_other_levels(level, data):
    _check_descent_step(*data.draw(level_problems(level)))


@pytest.mark.parametrize("level", LEVELS)
@settings(max_examples=8)
@given(data=st.data())
def test_constrained_gram_is_the_free_block_on_other_levels(level, data):
    """The assembly on the free DOFs has the arrays of the free block of the
    sparse-product Gram, bit for bit, on every level and dimension."""
    params, _ = data.draw(level_problems(level))
    free = params.mask.free_pos
    want = _keep_every_chain_gram(params.space)[free][:, free].tocsc()
    got = params.space.constrained_gram()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
