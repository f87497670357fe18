from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from conftest import CATALOG_IDS, ball_draw, make_problem, smooth_draw
from convexcauchy.errors import ConfigError, ConstraintViolationError
from convexcauchy.functional import (
    CONSTRAINT_TOL,
    CauchyData,
    FunctionalParams,
    beta_window,
    bregman_gap,
    carleman_ratio,
    data_extension,
    evaluate,
    gradient,
)
from convexcauchy.grid import LevelSpec, build_grid, classify_nodes
from convexcauchy.operators import LOWER_TERMS, LowerOrderTerm, QuasilinearOperator
from convexcauchy.optimizer import OptimizerConfig, run
from convexcauchy.sampling import random_compact_bump
from convexcauchy.sobolev import sobolev_order

# (bounds, resolution, level) of the geometries the Bregman gap is checked on
GAP_GEOMETRIES = {
    "par1d": (((0.0, 1.0), (-1.0, 1.0)), (33, 33), LevelSpec(
        family="parabolic", a=0.25, c=0.45, nu=1.0, x_width=1.0, t_span=1.0)),
    "hyp1d": (((0.0, 1.0), (-1.0, 1.0)), (33, 33), LevelSpec(
        family="hyperbolic", c=0.02, eta=0.25, x0=(0.5,))),
    "ell2d": (((0.0, 1.0), (-1.0, 1.0)), (33, 33), LevelSpec(
        family="elliptic", a=0.25, c=0.45, nu=1.0, x_width=1.0, epsilon=0.36)),
    "ell3d": (((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), (17, 19, 21), LevelSpec(
        family="elliptic", a=0.2, c=0.45, nu=1.0, x_width=1.0)),
}


def _gap_params(geometry, kind):
    """Params of the lower-order term `kind` on a GAP_GEOMETRIES entry, with
    the trace data of a smooth quadratic field, lambda 2 and beta 1e-3."""
    bounds, resolution, level = GAP_GEOMETRIES[geometry]
    grid = build_grid(bounds, resolution)
    mask = classify_nodes(grid, level)
    x = grid.coords(mask.dofs)
    u = 1.0 + 0.5 * x[:, 0] ** 2 - 0.3 * x[:, -1]
    scale = (lambda p: 0.5 + 0.2 * p[..., 0]) if kind == "gradsq" else None
    op = QuasilinearOperator(family=level.family, dim=grid.dim, lower=LowerOrderTerm(
        kind, lambda p: np.sin(p[..., 0]), scale))
    return FunctionalParams(op=op, lam=2.0, mask=mask, beta=1e-3,
                            data=CauchyData(u[mask.value_pos], u[mask.deriv_pos]),
                            beta_policy="keep")


def zero_trace_bump(params, rng, scale=1.0):
    return scale * smooth_draw(params.mask, rng)


def data_term(core_weight, core_values):
    """Weighted square sum of core-node values, the data term of J."""
    return float(np.sum(core_values * core_values * core_weight))


class TestEvaluate:
    def test_manufactured_solution_leaves_only_regularizer(self):
        _, grid, mask, op, space, params, u_star = make_problem("ELL1D-CUBIC")
        u = params.impose_dofs(u_star)
        j = evaluate(params, u)
        reg = params.beta * space.norm_sq(u)
        assert j == pytest.approx(reg, rel=1e-10)

    def test_zero_data_zero_field(self, ell2d_mask):
        from convexcauchy.operators import QuasilinearOperator

        op = QuasilinearOperator(family="elliptic", dim=2)
        data = CauchyData(g0=np.zeros(ell2d_mask.value_pos.size),
                          g1=np.zeros(ell2d_mask.deriv_pos.size))
        params = FunctionalParams(
            op=op, lam=2.0, mask=ell2d_mask, beta=0.5, data=data,
            beta_policy="keep",
        )
        assert evaluate(params, np.zeros(ell2d_mask.dofs.size)) == 0.0

    def test_constraint_violation_detected(self):
        _, grid, mask, op, space, params, u_star = make_problem("ELL1D-CUBIC")
        bad = params.impose_dofs(u_star.copy())
        bad[mask.value_pos] += 0.1
        with pytest.raises(ConstraintViolationError, match="deviation"):
            evaluate(params, bad)

    @pytest.mark.parametrize("layer", ["value_pos", "deriv_pos"])
    def test_trace_tolerance_is_relative_to_the_data(self, layer):
        """check_dofs accepts a trace deviation of half CONSTRAINT_TOL times the
        data scale 1 + max |g0|, |g1|, and rejects twice that."""
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC")
        u = data_extension(space, params.data)
        scale = 1.0 + max(np.max(np.abs(params.data.g0)), np.max(np.abs(params.data.g1)))
        pos = getattr(mask, layer)[0]
        near, far = u.copy(), u.copy()
        near[pos] += 0.5 * CONSTRAINT_TOL * scale
        far[pos] += 2.0 * CONSTRAINT_TOL * scale
        params.check_dofs(near)
        with pytest.raises(ConstraintViolationError, match="deviation"):
            params.check_dofs(far)

    def test_quadratic_expansion_exact(self, rng):
        """For a linear operator, J(u+h) - J(u) - J'(u)h is exactly the
        weighted data term of h plus beta ||h||^2."""
        _, grid, mask, op, space, params, u_star = make_problem("ELL2D-HARMONIC", beta=0.3)
        u = data_extension(space, params.data)
        g = gradient(params, evaluate(params, u))
        lin = params.stencil.linearize(u)
        for _ in range(3):
            h = zero_trace_bump(params, rng)
            lhs = evaluate(params, u + h) - evaluate(params, u) - float(np.sum(g * h))
            rhs = data_term(params.core_weight, lin.forward(h)) + params.beta * space.norm_sq(h)
            assert lhs == pytest.approx(rhs, rel=1e-9)


class TestGradient:
    @pytest.mark.parametrize("case_id", CATALOG_IDS)
    def test_fd_oracle(self, case_id, rng):
        _, grid, mask, op, space, params, u_star = make_problem(case_id)
        u = data_extension(space, params.data)
        g = gradient(params, evaluate(params, u))
        scale = max(1.0, float(np.max(np.abs(u))))
        for _ in range(5):
            h = zero_trace_bump(params, rng)
            delta = 1e-5 * scale
            fd = (evaluate(params, u + delta * h) - evaluate(params, u - delta * h)) / (2 * delta)
            an = float(np.sum(g * h))
            assert abs(fd - an) / max(1.0, abs(an)) < 1e-6

    def test_gradient_zero_at_exact_solution_without_regularizer(self):
        """A(u*) = 0 and beta = 0 makes u* stationary."""
        _, grid, mask, op, space, params, u_star = make_problem("ELL1D-CUBIC", beta=0.0)
        u = params.impose_dofs(u_star)
        g = gradient(params, evaluate(params, u))
        assert np.max(np.abs(g)) < 1e-6

    def test_gradient_vanishes_at_direct_minimizer(self):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-HARMONIC", beta=0.4)
        u = run(params, None, OptimizerConfig(), "direct").final
        g = gradient(params, evaluate(params, u))
        g0 = gradient(params, evaluate(params, data_extension(space, params.data)))
        assert np.linalg.norm(g) < 1e-8 * max(1.0, np.linalg.norm(g0))

    def test_sobolev_mode_representation(self, rng):
        """[grad_sobolev, h] equals the Euclidean pairing <grad, h>."""
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC")
        u = data_extension(space, params.data)
        ge = gradient(params, evaluate(params, u))
        gs = gradient(params, evaluate(params, u), "sobolev")
        for _ in range(5):
            h = zero_trace_bump(params, rng)
            lhs = space.inner_product(gs, h)
            rhs = float(np.sum(ge * h))
            assert lhs == pytest.approx(rhs, rel=1e-7, abs=1e-10)

    def test_gradient_is_zero_trace(self, rng):
        _, grid, mask, op, space, params, _ = make_problem("PAR1D-CUBIC")
        u = data_extension(space, params.data)
        for mode in ("euclidean", "sobolev"):
            g = gradient(params, evaluate(params, u), mode)
            assert np.all(g[mask.trace_pos] == 0.0)

    def test_unknown_mode(self):
        _, grid, mask, op, space, params, _ = make_problem("ELL1D-CUBIC")
        u = data_extension(space, params.data)
        with pytest.raises(ConfigError):
            gradient(params, evaluate(params, u), "newton")

    @pytest.mark.parametrize("mode", ["euclidean", "sobolev"])
    def test_reused_evaluation(self, rng, mode):
        """The gradient from an evaluation equals, bit for bit, the one formed
        from the field's own residual and Gram action, and the evaluation
        records its Euclidean gradient."""
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC")
        u = ball_draw(params, 5.0, rng)
        j = evaluate(params, u)
        g = gradient(params, j, mode)
        stencil = params.stencil
        want = 2.0 * stencil.linearize(u).adjoint(params.core_weight * stencil.residual(u))
        want += 2.0 * params.beta * space.apply_gram(u)
        want[mask.trace_pos] = 0.0
        assert np.array_equal(j.euclidean_gradient, want)
        assert np.array_equal(g, want if mode == "euclidean" else space.riesz(want))
        assert j.norm_sq == space.norm_sq(u)

    def test_fd_oracle_gradient_square_term(self, rng):
        """Exactness also holds when the nonlinearity depends on grad u."""
        from convexcauchy.operators import LowerOrderTerm, QuasilinearOperator

        _, grid, mask, _, space, base_params, _ = make_problem("ELL2D-CUBIC")

        def scale(points):
            return 0.3 + 0.1 * points[..., 1]

        def source(points):
            return np.zeros(points.shape[:-1])

        op = QuasilinearOperator(family="elliptic", dim=2,
                                 lower=LowerOrderTerm("gradsq", source, scale))
        params = FunctionalParams(
            op=op, lam=base_params.lam, mask=mask,
            beta=1e-2, data=base_params.data, beta_policy="keep")
        u = data_extension(space, params.data)
        g = gradient(params, evaluate(params, u))
        for _ in range(5):
            h = zero_trace_bump(params, rng)
            delta = 1e-5
            fd = (evaluate(params, u + delta * h) - evaluate(params, u - delta * h)) / (2 * delta)
            an = float(np.sum(g * h))
            assert abs(fd - an) / max(1.0, abs(an)) < 1e-6


class TestBregmanGap:
    def test_identical_fields(self):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC")
        u = data_extension(space, params.data)
        (gap,), h1, hk = bregman_gap(params, u, u.copy(), [params.core_weight])
        assert gap == pytest.approx(0.0, abs=1e-12)
        assert h1 == 0.0 and hk == 0.0

    def test_linear_case_identity(self, rng):
        """Linear operator: gap = data-term(h) + beta hk, hence always above
        (beta/2) hk."""
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-HARMONIC", beta=0.2)
        lin = params.stencil.linearize(data_extension(space, params.data))
        u1 = ball_draw(params, 150.0, rng)
        u2 = ball_draw(params, 150.0, rng)
        (gap,), h1, hk = bregman_gap(params, u1, u2, [params.core_weight])
        expect = data_term(params.core_weight, lin.forward(u2 - u1)) + params.beta * hk
        assert gap == pytest.approx(expect, rel=1e-10)
        assert gap >= 0.5 * params.beta * hk

    def test_equals_separate_evaluation(self, rng):
        """The gaps and norms equal, bit for bit, the closed form computed
        separately: the weighted data gap from two residuals and one
        linearized action of the zero-trace difference, plus beta times the
        H^k term."""
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC")
        weights = [params.core_weight_at(lam) for lam in (1.0, 2.0, 4.0)]
        stencil = params.stencil
        for _ in range(3):
            v1, v2 = ball_draw(params, 5.0, rng), ball_draw(params, 5.0, rng)
            h = v2 - v1
            h_free = h.copy()
            h_free[mask.trace_pos] = 0.0
            r1, r2 = stencil.residual(v1), stencil.residual(v2)
            lh = stencil.linearize(v1).forward(h_free)
            hk = space.norm_sq(h)
            want = [float(np.sum((r2 * r2 - r1 * r1 - 2.0 * r1 * lh) * w)) + params.beta * hk
                    for w in weights]
            gaps, h1, hk_got = bregman_gap(params, v1, v2, weights)
            assert gaps == want
            assert (h1, hk_got) == (params.inner_h1_space.norm_sq(h), hk)

    @pytest.mark.parametrize("kind", LOWER_TERMS)
    @pytest.mark.parametrize("geometry", GAP_GEOMETRIES)
    def test_matches_first_order_expansion(self, geometry, kind):
        """The closed form agrees with J(v2) - J(v1) - J'(v1)(v2 - v1) from two
        evaluations and the Euclidean gradient, to 1e-11 relative, for every
        lower-order term in 1+1-D parabolic and hyperbolic, 2-D and 3-D."""
        params = _gap_params(geometry, kind)
        at_lambda = [replace(params, lam=lam) for lam in (1.0, 2.0, 4.0)]
        weights = [p.core_weight for p in at_lambda]
        rng = np.random.default_rng(11)
        for _ in range(3):
            v1, v2 = ball_draw(params, 5.0, rng), ball_draw(params, 5.0, rng)
            gaps, _, _ = bregman_gap(params, v1, v2, weights)
            for p, gap in zip(at_lambda, gaps):
                want = (evaluate(p, v2) - evaluate(p, v1)
                        - float(np.sum(gradient(p, evaluate(p, v1)) * (v2 - v1))))
                assert gap == pytest.approx(want, rel=1e-11, abs=0.0)

    def test_trace_deviation_within_tolerance_accepted(self):
        """Two fields that each carry the data within check_dofs' tolerance
        form a valid pair, even where their traces differ by more than the
        absolute CONSTRAINT_TOL."""
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC")
        u1 = data_extension(space, params.data)
        u2 = u1.copy()
        scale = 1.0 + max(np.max(np.abs(params.data.g0)), np.max(np.abs(params.data.g1)))
        assert scale > 1.0 / 0.9
        u2[mask.value_pos] += 0.9 * CONSTRAINT_TOL * scale
        params.check_dofs(u2)
        (gap,), _, hk = bregman_gap(params, u1, u2, [params.core_weight])
        assert np.isfinite(gap) and hk > 0.0

    def test_mismatched_data_rejected(self):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC")
        u1 = data_extension(space, params.data)
        bad = u1.copy()
        bad[mask.deriv_pos] += 0.5
        with pytest.raises(ConstraintViolationError):
            bregman_gap(params, u1, bad, [params.core_weight])

    def test_margin_grows_over_lambda(self, rng):
        """The certificate margin improves monotonically over the lambda sweep
        on paired samples (the convexification effect)."""
        _, grid, mask, op, space, case_params, _ = make_problem("ELL2D-CUBIC")
        data = case_params.data
        min_margins = []
        for lam in (1.0, 2.0, 4.0, 8.0):
            params = FunctionalParams(op=op, lam=lam, mask=mask, beta=1e-3,
                                      data=data, beta_policy="keep")
            rng_local = np.random.default_rng(99)
            worst = np.inf
            for _ in range(10):
                u1 = ball_draw(params, 5.0, rng_local)
                u2 = ball_draw(params, 5.0, rng_local)
                (gap,), _, hk = bregman_gap(params, u1, u2, [params.core_weight])
                worst = min(worst, gap - 0.5 * params.beta * hk)
            min_margins.append(worst)
        assert all(b >= a * 0.99 for a, b in zip(min_margins, min_margins[1:]))


class TestCarlemanRatio:
    def test_zero_field_rejected(self):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC")
        with pytest.raises(ConfigError, match="nonzero"):
            carleman_ratio(op, params.lam, mask, np.zeros(mask.dofs.size))

    def test_support_violation_rejected(self):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC")
        with pytest.raises(ConfigError, match="support"):
            carleman_ratio(op, params.lam, mask, np.ones(mask.dofs.size))

    def test_scaling_invariance(self, rng):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC")
        h = random_compact_bump(mask, rng)
        r1 = carleman_ratio(op, params.lam, mask, h)
        r2 = carleman_ratio(op, params.lam, mask, 2.0 * h)
        assert r1 == pytest.approx(r2, rel=1e-12)

    @pytest.mark.parametrize("case_id", ["ELL2D-CUBIC", "PAR1D-CUBIC", "HYP1D-QUAD"])
    def test_lambda_sweep_floor(self, case_id, rng):
        _, grid, mask, op, space, params, _ = make_problem(case_id)
        floor = np.inf
        for lam in (1.0, 2.0, 4.0):
            for _ in range(5):
                h = random_compact_bump(mask, rng)
                floor = min(floor, carleman_ratio(op, lam, mask, h))
        assert floor > 0.0


class TestParams:
    def test_fields_cannot_change_after_the_structures_are_built(self):
        """The stencil, the data weight and the space are built from the fields
        once: assigning lambda afterwards would leave J at the old lambda."""
        params = make_problem("ELL2D-CUBIC")[5]
        with pytest.raises(FrozenInstanceError):
            params.lam = 4.0

    def test_builds_its_own_space_of_the_given_order(self):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC")
        own = FunctionalParams(op=op, lam=params.lam, mask=mask, beta=params.beta,
                               data=params.data, order=2)
        assert own.space.order == 2 and own.space.mask is own.mask
        assert space.order == sobolev_order(grid.dim) and space.mask is params.mask

    def test_replace_builds_a_new_space(self):
        """A variant made by replace has a space of its own, with no work counted."""
        params = make_problem("ELL1D-CUBIC")[5]
        params.space.constrained_solver()
        fresh = replace(params)
        assert params.space.factorizations == 1
        assert fresh.space is not params.space and fresh.space.factorizations == 0


class TestBetaPolicy:
    def test_window(self):
        lo, hi = beta_window(2.0, 0.5)
        assert lo == pytest.approx(np.exp(-1.0))
        assert hi == 1.0

    def test_clamp_policy(self, caplog):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC", beta=2.0,
                                                           beta_policy="clamp")
        lo, hi = beta_window(params.lam, mask.epsilon)
        assert lo < params.beta < hi

    def test_keep_policy(self):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC", beta=1e-3,
                                                           beta_policy="keep")
        assert params.beta == 1e-3

    @pytest.mark.parametrize("policy", ["keep", "clamp"])
    @pytest.mark.parametrize("beta", [np.nan, np.inf])
    def test_non_finite_beta_rejected(self, beta, policy):
        """A NaN beta makes every certificate margin NaN, which no failure test catches."""
        with pytest.raises(ConfigError, match="beta must be a finite number"):
            make_problem("ELL1D-CUBIC", beta=beta, beta_policy=policy)
