"""Acceptance suite: every criterion exercised at its stated tolerance.

Each test prints a single PASS line with the measured figure so the suite
doubles as a run record (pytest -s shows them).
"""

import numpy as np
import pytest

from conftest import CATALOG_IDS, make_problem
from convexcauchy.functional import (
    FunctionalParams,
    bregman_gap,
    carleman_ratio,
    data_extension,
    evaluate,
    gradient,
)
from convexcauchy.grid import Label, LevelSpec, build_grid, classify_nodes, level_values
from convexcauchy.optimizer import (
    OptimizerConfig,
    convexity_certificate,
    direct_solve,
    run,
)
from convexcauchy.sampling import draw_in_ball, random_compact_bump, random_smooth_values
from convexcauchy.weights import weight_extrema

GRADCHECK_CASES = ["ELL1D-CUBIC", "ELL2D-HARMONIC", "PAR1D-CUBIC", "HYP1D-QUAD"]


def test_criterion_1_gradient_exactness():
    """Central-difference directional derivatives match the assembled gradient
    to 1e-6 relative on every catalog problem."""
    worst = 0.0
    for case_id in GRADCHECK_CASES:
        _, grid, mask, op, space, params, _ = make_problem(case_id)
        rng = np.random.default_rng(101)
        u = data_extension(space, params.data)
        g = gradient(params, u, mode="euclidean")
        scale = max(1.0, float(np.max(np.abs(u))))
        for _ in range(10):
            h = random_smooth_values(mask, rng)
            delta = 1e-5 * scale
            fd = (evaluate(params, u + delta * h) - evaluate(params, u - delta * h)) / (2 * delta)
            an = float(np.sum(g * h))
            rel = abs(fd - an) / max(1.0, abs(an))
            worst = max(worst, rel)
            assert rel < 1e-6, f"{case_id}: gradient mismatch {rel:.3e}"
    print(f"\nPASS criterion 1: gradient vs FD, max rel error {worst:.3e} < 1e-6")


def test_criterion_2_adjoint_identity():
    """<L v, w> = <v, L^T w> to 1e-12 relative on 20 random pairs per problem."""
    worst = 0.0
    for case_id in CATALOG_IDS:
        _, grid, mask, op, space, params, u_star = make_problem(case_id)
        rng = np.random.default_rng(202)
        lin = params.stencil.linearize(params.impose_dofs(u_star))
        for _ in range(20):
            v = rng.standard_normal(mask.dofs.size)
            w = rng.standard_normal(lin.stencil.core_pos.size)
            lhs = float(np.sum(lin.forward(v) * w))
            rhs = float(np.sum(v * lin.adjoint(w)))
            rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
            worst = max(worst, rel)
            assert rel < 1e-12, f"{case_id}: adjoint identity off by {rel:.3e}"
    print(f"\nPASS criterion 2: adjoint identity, max rel error {worst:.3e} < 1e-12")


def test_criterion_3_quadratic_oracle():
    """Optimizer final field matches the direct normal-equations solve to 1e-6
    in H^k, and the Bregman gap is exactly data-term + beta norm for linear A."""
    _, grid, mask, op, space, params, _ = make_problem(
        "ELL2D-HARMONIC", resolution=(17, 17), lam=1.0, beta=0.5)
    rng = np.random.default_rng(303)
    u_direct = direct_solve(params).final
    cfg = OptimizerConfig(max_iters=2000, grad_tol=1e-5, store_iterates=False)
    report = run(params, draw_in_ball(params, 150.0, rng), cfg)
    assert report.converged
    rel = space.norm(report.final - u_direct) / space.norm(u_direct)
    assert rel < 1e-6, f"optimizer vs direct solve: {rel:.3e}"

    lin = params.stencil.linearize(data_extension(space, params.data))
    worst_gap = 0.0
    for _ in range(5):
        u1 = draw_in_ball(params, 150.0, rng)
        u2 = draw_in_ball(params, 150.0, rng)
        (gap,), _, hk = bregman_gap(params, u1, u2)
        r = lin.forward(u2 - u1)
        expect = float(np.sum(r * r * params.core_weight)) + params.beta * hk
        gap_rel = abs(gap - expect) / max(abs(expect), 1e-30)
        worst_gap = max(worst_gap, gap_rel)
        assert gap_rel < 1e-10, f"quadratic gap identity off by {gap_rel:.3e}"
    print(f"\nPASS criterion 3: optimizer vs direct {rel:.3e} < 1e-6, "
          f"gap identity {worst_gap:.3e} < 1e-10")


@pytest.fixture(scope="module")
def cubic_certificate_sweep():
    _, grid, mask, op, space, case_params, _ = make_problem("ELL2D-CUBIC")
    params = FunctionalParams(op=op, lam=1.0, mask=mask, space=space, beta=1e-3,
                              data=case_params.data, beta_policy="keep")
    return convexity_certificate(params, radius=5.0, samples=50, seed=7,
                                 lambdas=(1.0, 2.0, 4.0, 8.0))


def test_criterion_4_convexity_certificate(cubic_certificate_sweep):
    """Failure counts over the lambda sweep are non-increasing and reach zero;
    at the first passing lambda the min margin is nonnegative."""
    results = cubic_certificate_sweep
    failures = [r.failures for r in results]
    assert all(b <= a for a, b in zip(failures, failures[1:])), failures
    passing = [r for r in results if r.failures == 0]
    assert passing, f"no zero-failure lambda in sweep: {failures}"
    lam1 = passing[0].lam
    assert passing[0].min_margin >= 0.0
    margins = ", ".join(f"{r.lam:g}:{r.min_margin:.3g}" for r in results)
    print(f"\nPASS criterion 4: failures {failures} over lambda (1,2,4,8), "
          f"lambda1={lam1:g}, min margins {margins}")


def test_criterion_5_global_convergence(cubic_certificate_sweep):
    """Ten seeded random starts at a certificate-passing (lambda, beta) all
    converge monotonically to the same minimizer with contraction below one."""
    lam, beta = 2.0, 0.55
    _, grid, mask, op, space, case_params, _ = make_problem("ELL2D-CUBIC")
    data = case_params.data
    params = FunctionalParams(
        op=op, lam=lam, mask=mask, space=space, beta=beta, data=data, beta_policy="keep")
    (cert,) = convexity_certificate(params, radius=5.0, samples=50, seed=7)
    assert cert.passed, "certificate must pass at the multi-start (lambda, beta)"

    radius = 5.0
    finals, q_hats = [], []
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        start = draw_in_ball(params, radius, rng)
        cfg = OptimizerConfig(max_iters=4000, grad_tol=1e-6, radius=radius,
                              radius_policy="monitor")
        report = run(params, start, cfg)
        assert report.converged, f"start {seed} did not converge"
        js = np.asarray(report.j_history)
        assert np.all(np.diff(js) <= 1e-12 * (1.0 + np.abs(js[:-1]))), "descent not monotone"
        assert report.q_hat is not None and report.q_hat < 1.0
        q_hats.append(report.q_hat)
        finals.append(report.final)
    worst_pair = 0.0
    for i in range(len(finals)):
        for j in range(i + 1, len(finals)):
            d = space.norm(finals[i] - finals[j])
            worst_pair = max(worst_pair, d)
    assert worst_pair < 1e-4 * radius, f"pairwise distance {worst_pair:.3e}"
    print(f"\nPASS criterion 5: 10 starts converged, max pairwise distance "
          f"{worst_pair:.3e} < {1e-4 * radius:g}, q_hat in "
          f"[{min(q_hats):.3f}, {max(q_hats):.3f}]")


def _reconstruction_error(resolution, noise_level, seed=42):
    _, grid, mask, op, space, params, star = make_problem(
        "ELL2D-HARMONIC", resolution=resolution)
    if noise_level > 0.0:
        from convexcauchy.functional import CauchyData
        from convexcauchy.harness import add_noise

        g0, g1 = add_noise(params.data.g0, params.data.g1, noise_level, seed)
        params = FunctionalParams(
            op=op, lam=params.lam, mask=mask, space=space,
            beta=params.beta, data=CauchyData(g0=g0, g1=g1), beta_policy="keep")
    u = direct_solve(params).final
    ell = level_values(mask.level, grid.open_coords())
    window = mask.in_mask & (ell > mask.theta + 2 * mask.epsilon)
    w = mask.gather(np.where(window, mask.scatter(mask.dof_quad_weight), 0.0))
    err = float(np.sqrt(np.sum((u - star) ** 2 * w)))
    den = float(np.sqrt(np.sum(star**2 * w)))
    return err / den


def test_criterion_6_reconstruction_consistency():
    """Inner-window reconstruction error decreases under refinement, ends
    below 5 percent, and degrades at most 5x under 1 percent data noise."""
    errors = [_reconstruction_error((r, r), 0.0) for r in (17, 33, 65)]
    assert errors[0] > errors[1] > errors[2], errors
    assert errors[2] < 0.05, f"error at 65^2 is {errors[2]:.3%}"
    noisy = _reconstruction_error((65, 65), 0.01)
    assert np.isfinite(noisy)
    assert noisy <= 5.0 * errors[2], f"noise blew up: {noisy:.3%} vs {errors[2]:.3%}"
    print(f"\nPASS criterion 6: errors {[f'{e:.3%}' for e in errors]} decreasing, "
          f"noisy {noisy:.3%} <= 5x noiseless")


def test_criterion_7_carleman_ratio_positivity():
    """The integrated Carleman quotient stays above a positive floor for
    compactly supported bumps across the lambda sweep, per family."""
    floors = {}
    for case_id in ("ELL2D-CUBIC", "PAR1D-CUBIC", "HYP1D-QUAD"):
        _, grid, mask, op, space, params, _ = make_problem(case_id)
        rng = np.random.default_rng(707)
        floor = np.inf
        for lam in (1.0, 2.0, 4.0):
            for _ in range(20):
                h = random_compact_bump(mask, rng)
                floor = min(floor, carleman_ratio(op, lam, mask, h))
        assert floor > 0.0, f"{case_id}: nonpositive ratio floor"
        floors[case_id] = floor
    pretty = ", ".join(f"{k}: {v:.4g}" for k, v in floors.items())
    print(f"\nPASS criterion 7: Carleman ratio floors {pretty} (all > 0)")


def test_criterion_8_weight_minimum_location():
    """For a generic level function the log-weight minimum sits on the free
    level surface at lambda * threshold, within one grid cell of variation."""
    grid = build_grid(((0.0, 1.0), (0.0, 1.0)), (21, 21))
    level = LevelSpec(family="generic", c=0.3, epsilon=0.05,
                      xi_fn=lambda x: 1.0 - x[0])
    mask = classify_nodes(grid, level)
    cell = mask.largest_cell_level_variation()
    checks = []
    for lam in (1.0, 5.0, 10.0):
        w_min, _, argmin_label = weight_extrema(mask, lam)
        assert argmin_label == Label.XI_BOUNDARY
        excess = w_min - lam * level.c
        assert 0.0 <= excess <= lam * cell + 1e-12, f"lam={lam}: excess {excess}"
        checks.append(f"lam={lam:g}: min-log-weight={w_min:.4f}")
    print(f"\nPASS criterion 8: weight minimum on xi_boundary at lam*c "
          f"within one cell ({'; '.join(checks)})")
