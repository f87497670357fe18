import csv
import json
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import ball_draw, make_problem
from oracles import gram_matrix, to_matrix
from convexcauchy import cli, harness, optimizer, sobolev
from convexcauchy.errors import ConfigError, SolverError
from convexcauchy.functional import (CauchyData, Evaluation, FunctionalParams, bregman_gap,
                                     data_extension, evaluate, gradient)
from convexcauchy.grid import LevelSpec, build_grid, classify_nodes
from convexcauchy.harness import build_setup, history_table, load_problem
from convexcauchy.operators import (LOWER_TERMS, LowerOrderTerm, OperatorStencil,
                                    QuasilinearOperator)
from convexcauchy.optimizer import (
    ARMIJO_C,
    OptimizerConfig,
    convergence_ratio,
    convexity_certificate,
    run,
)
from convexcauchy.sampling import draw_in_ball
from convexcauchy.sobolev import SobolevSpace

SOLVE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "ell2d_cubic_solve.json"
DIRECT_CONFIG = SOLVE_CONFIG.with_name("ell2d_harmonic_reconstruct.json")
# the keys of report.json's run block, whichever solver ran
RUN_KEYS = {"converged", "reason", "iterations", "q_hat", "wall_time", "j_history",
            "grad_norm_history", "step_history", "radius_history", "final_j", "counters"}


def _cap_solution(points):
    return points[..., 0] ** 2 - points[..., 1] ** 2 + 3.0


def _cubic_cap_params(lam):
    """The 3-D cubic cap at 25^3 (spacings 1/24 and 1/12, not dyadic): level
    a 0.1, c 0.45, nu 2; u* = x0^2 - x1^2 + 3, q = u*^3, beta 1e-3 kept.
    Returns (params, u*) with u* a DOF vector."""
    grid = build_grid(((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)), (25, 25, 25))
    mask = classify_nodes(grid, LevelSpec(family="elliptic", a=0.1, c=0.45, nu=2.0,
                                          x_width=1.0))
    star = _cap_solution(grid.coords(mask.dofs))
    params = FunctionalParams(
        op=QuasilinearOperator(family="elliptic", dim=3, lower=LowerOrderTerm(
            "cubic", lambda p: _cap_solution(p) ** 3)),
        lam=lam, mask=mask, beta=1e-3,
        data=CauchyData(star[mask.value_pos], star[mask.deriv_pos]), beta_policy="keep")
    return params, star


def _no_decrease(report, it, params):
    """The reason of a run that ends when J does not decrease along its step
    at iteration `it`; it names J, |g|, lambda and the core-weight span."""
    span = np.log(np.max(params.core_weight) / np.min(params.core_weight))
    assert not report.converged
    assert report.reason.startswith(f"J does not decrease along the step at iteration {it} (J=")
    assert report.reason.endswith(f"lambda={params.lam:g}, core-weight span e^{span:.3g})")


class TestRun:
    def test_quadratic_matches_direct_solve(self, rng):
        _, grid, mask, op, space, params, _ = make_problem(
            "ELL2D-HARMONIC", resolution=(17, 17), lam=1.0, beta=0.5)
        u_direct = run(params, None, OptimizerConfig(), "direct").final
        start = ball_draw(params, 150.0, rng)
        cfg = OptimizerConfig(max_iters=2000, grad_tol=1e-5, store_iterates=False)
        report = run(params, start, cfg)
        assert report.converged
        rel = space.norm(report.final - u_direct)
        rel /= space.norm(u_direct)
        assert rel < 1e-6

    def test_each_solve_reports_its_own_work(self, rng):
        """The factorization and refinement counters hold the work done during
        the call, not the space's running totals: a second direct solve on the
        same params reports what the first did, and a second run reuses the
        kept factor of the first."""
        _, grid, mask, op, space, params, _ = make_problem(
            "ELL2D-HARMONIC", resolution=(17, 17), lam=1.0, beta=0.5)
        first, second = (run(params, None, OptimizerConfig(), "direct") for _ in range(2))
        assert (first.factorizations, first.refinements) == (1, 0)
        assert (second.factorizations, second.refinements) == (1, 0)
        cfg = OptimizerConfig(max_iters=3, store_iterates=False)
        start = ball_draw(params, 150.0, rng)
        fresh = replace(params)  # a new space: no factor made yet
        runs = [run(fresh, start, cfg) for _ in range(2)]
        assert [(r.factorizations, r.refinements) for r in runs] == [(1, 0), (0, 0)]

    @pytest.mark.parametrize("kind", LOWER_TERMS)
    def test_direct_solve_needs_an_affine_term(self, kind):
        """The direct solve is one exact step, 0 iterations, only where the
        term's partials all vanish and keep the residual affine; with any
        other term it takes damped Gauss-Newton steps to the tolerance."""
        setup = build_setup({"case": "ELL2D-HARMONIC", "grid": {"resolution": [17, 17]},
                             "operator": {"id": kind, "q": "x0"}})
        report = run(setup.params, None, OptimizerConfig(), "direct")
        assert report.converged
        if LOWER_TERMS[kind].affine:
            assert kind == "source" and report.step_history == [1.0]
            assert (report.iterations, report.reason) == (
                0, "exact Gauss-Newton step (affine residual)")
        else:
            assert report.reason == "gradient tolerance reached"
            assert report.iterations == len(report.step_history) + 1 >= 3
            assert report.grad_norm_history[-1] < OptimizerConfig().grad_tol

    @pytest.mark.parametrize("kind", [k for k in LOWER_TERMS if not LOWER_TERMS[k].affine])
    def test_affine_rule_has_one_message(self, kind, tmp_path):
        """The affine rule lives in the loop alone, with no load-time check:
        the CLI's direct solve of a field-dependent term is the library's,
        to the bit, reason included, and exits 0."""
        cfg = {"case": "ELL2D-HARMONIC", "grid": {"resolution": [17, 17]},
               "operator": {"id": kind, "q": "x0"}}
        library = run(build_setup(cfg).params, None, OptimizerConfig(), "direct")
        path = tmp_path / "p.json"
        path.write_text(json.dumps({**cfg, "solver": "direct", "output_dir": str(tmp_path / "out")}))
        assert cli.main(["solve", str(path)]) == 0
        ran = json.loads((tmp_path / "out" / "report.json").read_text())["run"]
        assert (ran["reason"], ran["iterations"]) == (library.reason, library.iterations)
        assert ran["j_history"] == library.j_history

    def test_start_at_minimizer_stops_immediately(self):
        _, grid, mask, op, space, params, _ = make_problem(
            "ELL2D-HARMONIC", resolution=(17, 17), lam=1.0, beta=0.5)
        u_direct = run(params, None, OptimizerConfig(), "direct").final
        cfg = OptimizerConfig(max_iters=50, grad_tol=1e-6)
        report = run(params, u_direct, cfg)
        assert report.converged
        assert report.iterations <= 2

    def test_multi_start_agreement(self, rng):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC", lam=2.0, beta=0.55)
        cfg = OptimizerConfig(max_iters=3000, grad_tol=1e-6, store_iterates=False)
        finals = []
        for _ in range(3):
            start = ball_draw(params, 5.0, rng)
            report = run(params, start, cfg)
            assert report.converged
            finals.append(report.final)
        for i in range(len(finals)):
            for j in range(i + 1, len(finals)):
                d = space.norm(finals[i] - finals[j])
                assert d < 1e-4

    def test_monotone_descent_with_backtracking(self, rng):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC", lam=2.0, beta=0.55)
        cfg = OptimizerConfig(max_iters=60, grad_tol=1e-12, store_iterates=False)
        report = run(params, ball_draw(params, 5.0, rng), cfg)
        js = report.j_history
        for k in range(len(report.step_history)):
            decrease = ARMIJO_C * report.step_history[k] * report.grad_norm_history[k] ** 2
            assert js[k + 1] <= js[k] - decrease + 1e-12 * (1.0 + abs(js[k]))

    def test_armijo_rejects_a_decrease_that_is_not_sufficient(self, monkeypatch):
        """On a quadratic J, J(u - t d) = J - t gsq + t^2 a along the direction
        d = s g, with g the Sobolev gradient and gsq and a scaled by s and s^2.
        At s = (1 - ARMIJO_C / 2) gsq / a the first trial (t = 1) lowers J by
        only half of ARMIJO_C * t * gsq: the line search must reject it, so
        every accepted step in the history decreases J sufficiently."""
        _, grid, mask, op, space, params, _ = make_problem(
            "ELL2D-HARMONIC", resolution=(17, 17), lam=1.0, beta=0.5)
        start = data_extension(space, params.data)
        j = evaluate(params, start)
        g = gradient(params, j, "sobolev")
        gsq = float(np.sum(j.euclidean_gradient * g))
        a = evaluate(params, params.impose_dofs(start - g)) - j + gsq
        scale = (1.0 - ARMIJO_C / 2) * gsq / a
        monkeypatch.setattr(optimizer, "gradient",
                            lambda *args, **kwargs: scale * gradient(*args, **kwargs))
        report = run(params, start, OptimizerConfig(max_iters=3))
        assert report.halvings_history[0] >= 1
        js = report.j_history
        for k, t in enumerate(report.step_history):
            assert js[k + 1] <= js[k] - ARMIJO_C * t * report.grad_norm_history[k] ** 2

    def test_descent_steps_where_j_is_huge(self):
        """J >= 0, so a trial with ARMIJO_C * t * |g|^2 > J cannot pass Armijo
        and is shrunk unevaluated: at a core-weight span of e^59 (J near 1e27)
        the line search neither runs out of halvings nor overflows J."""
        setup = build_setup({"case": "ELL2D-CUBIC", "grid": {"resolution": [17, 17]},
                             "level": {"a": 0.1, "nu": 2.0}, "weight": {"lambda": 1.0},
                             "functional": {"beta_policy": "keep"}})
        start = data_extension(setup.space, setup.params.data)
        report = run(setup.params, start, OptimizerConfig(max_iters=3, grad_tol=1e-300))
        assert report.reason == "iteration cap reached"
        assert report.j_history[0] > 1e26 and report.j_history[-1] < report.j_history[0]
        # the start, then every trial: the accepted one and the rejected ones
        assert report.evaluations == 1 + report.iterations + sum(report.halvings_history)

    def test_gauss_newton_steps_where_j_is_huge(self):
        """The same e^59 config under the Gauss-Newton direction: from J near
        1e32 at the trace data with zero free DOFs, full steps reach the
        minimizer that Gauss-Newton reaches from the data extension at a
        tighter tolerance, within 1e-8 in H^k."""
        setup = build_setup({"case": "ELL2D-CUBIC", "grid": {"resolution": [17, 17]},
                             "level": {"a": 0.1, "nu": 2.0}, "weight": {"lambda": 1.0},
                             "functional": {"beta_policy": "keep"}})
        report = run(setup.params, None, OptimizerConfig(), "direct")
        start = data_extension(setup.space, setup.params.data)
        reference = run(setup.params, start, OptimizerConfig(grad_tol=1e-8), "direct")
        assert report.converged and reference.converged
        assert report.j_history[0] > 1e30 and set(report.step_history) == {1.0}
        assert setup.space.norm(report.final - reference.final) <= 1e-8
        assert report.j_history[-1] == pytest.approx(reference.j_history[-1], rel=1e-12)

    def test_unknown_solver_rejected(self):
        params = build_setup({"case": "ELL2D-HARMONIC", "grid": {"resolution": [17, 17]}}).params
        with pytest.raises(ConfigError, match="unknown solver 'Direct'"):
            run(params, None, OptimizerConfig(), "Direct")

    def test_gauss_newton_tries_the_full_step_first(self, monkeypatch):
        """Every Gauss-Newton line search starts from the full step, also
        after a damped one (the gradient's starts from twice its last step):
        with the first two trials rejected, the first step is a quarter and
        the second a full one."""
        setup = build_setup({"case": "ELL2D-CUBIC"})
        evaluate_calls = []

        def reject_two_trials(params, v):
            evaluate_calls.append(v)
            return Evaluation(np.inf) if len(evaluate_calls) in (2, 3) else evaluate(params, v)

        monkeypatch.setattr(optimizer, "evaluate", reject_two_trials)
        report = run(setup.params, None, OptimizerConfig(), "direct")
        assert report.converged
        assert report.step_history[:2] == [0.25, 1.0] and report.halvings_history[:2] == [2, 0]

    def test_gauss_newton_at_the_rounding_floor_names_it(self):
        """At a core-weight span of e^173 (the 3-D cubic cap at 25^3, spacings
        1/24 and 1/12, lambda 2) two full steps land on J(u*) = 3.5e24, the
        float rounding of r(u*) times the weights, while beta ||u*||^2 is
        2.3e-3; no later step lowers J, and the reason names J, lambda and
        the span."""
        params, star = _cubic_cap_params(2.0)
        report = run(params, None, OptimizerConfig(), "direct")
        assert not report.converged and report.step_history == [1.0, 1.0]
        assert report.reason.startswith(
            "J does not decrease along the step at iteration 2 (J=3.47858e+24")
        assert report.reason.endswith("lambda=2, core-weight span e^173)")
        assert report.j_history[-1] == pytest.approx(evaluate(params, star), rel=1e-9)
        assert report.j_history[-1] > 1e26 * params.beta * params.space.norm_sq(star)

    def test_gauss_newton_stops_where_j_cannot_decrease(self):
        """At lambda 1.5 (span e^130) the same cap's two full steps reach
        J = 1.41e11, where a trial of about 4.5e-13 passes Armijo's test with
        equality, J bit-identical, as ARMIJO_C * t * slope is below half an
        ulp of J: only a strict decrease is accepted, so the run ends at
        iteration 2 instead of the cap, in few evaluations."""
        params, _ = _cubic_cap_params(1.5)
        report = run(params, None, OptimizerConfig(max_iters=10), "direct")
        assert not report.converged and report.reason.startswith(
            "J does not decrease along the step at iteration 2 (J=1.41287e+11")
        assert report.reason.endswith("lambda=1.5, core-weight span e^130)")
        assert report.iterations == 3 and report.evaluations <= 50
        assert report.evaluations == (1 + len(report.step_history)
                                      + sum(report.halvings_history))

    def test_gauss_newton_on_a_non_dyadic_grid(self):
        """ELL2D-CUBIC at 45x37, whose spacings 1/44 and 1/18 round the stencil
        sums of its quadratic u*: the direct solve converges in a few steps to
        the minimizer the gradient descent stops near (grad_tol 1e-6), and
        ends at a J no larger."""
        setup = build_setup({"case": "ELL2D-CUBIC", "grid": {"resolution": [45, 37]}})
        report = run(setup.params, None, OptimizerConfig(), "direct")
        descent = run(setup.params, data_extension(setup.space, setup.params.data),
                      OptimizerConfig(max_iters=3000))
        assert report.converged and descent.converged
        assert report.iterations <= 5
        assert setup.space.norm(report.final - descent.final) < 1e-5
        assert report.j_history[-1] <= descent.j_history[-1]

    def test_constraints_preserved_exactly(self, rng):
        _, grid, mask, op, space, params, _ = make_problem("PAR1D-CUBIC", beta=0.8)
        cfg = OptimizerConfig(max_iters=30, grad_tol=1e-12)
        report = run(params, data_extension(space, params.data), cfg)
        for v in report.iterates[::7] + [report.final]:
            assert np.array_equal(v[mask.value_pos], params.data.g0)
            assert np.array_equal(v[mask.deriv_pos], params.data.g1)

    def test_divergence_detected_in_fixed_mode(self, rng):
        """A fixed step that raises J is tried once, counted as a rejected
        trial, and ends the run unconverged, naming lambda and the span."""
        _, grid, mask, op, space, params, _ = make_problem(
            "ELL2D-HARMONIC", resolution=(17, 17), lam=2.0, beta=0.5)
        cfg = OptimizerConfig(max_iters=50, grad_tol=1e-14, step_mode="fixed",
                              gamma=0.99, store_iterates=False)
        report = run(params, ball_draw(params, 150.0, rng), cfg)
        _no_decrease(report, report.iterations - 1, params)
        assert report.halvings_history[-1] == 1
        assert report.evaluations == (1 + len(report.step_history)
                                      + sum(report.halvings_history))

    def test_line_search_failure_ends_the_run(self, rng, monkeypatch):
        """A line search whose every trial is rejected ends the run
        unconverged: it raises nothing, counts each rejected trial and names
        lambda and the span."""
        _, grid, mask, op, space, params, _ = make_problem(
            "ELL2D-HARMONIC", resolution=(17, 17), lam=2.0, beta=0.5)
        monkeypatch.setattr(optimizer, "MAX_HALVINGS", 1)
        cfg = OptimizerConfig(max_iters=50, grad_tol=1e-14, store_iterates=False)
        report = run(params, ball_draw(params, 150.0, rng), cfg)
        _no_decrease(report, report.iterations - 1, params)
        assert report.halvings_history[-1] == 1
        assert report.evaluations == (1 + len(report.step_history)
                                      + sum(report.halvings_history))

    def test_radius_reject_step_exits(self, rng):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC", lam=2.0, beta=0.55)
        start = ball_draw(params, 5.0, rng)
        tiny = 0.5 * space.norm(start)
        cfg = OptimizerConfig(max_iters=50, grad_tol=1e-12, radius=tiny,
                              radius_policy="reject_step", store_iterates=False)
        report = run(params, start, cfg)
        assert not report.converged
        assert "ball" in report.reason

    def test_radius_monitor_warns_and_continues(self, rng, caplog):
        import logging

        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC", lam=2.0, beta=0.55)
        start = ball_draw(params, 5.0, rng)
        tiny = 0.5 * space.norm(start)
        cfg = OptimizerConfig(max_iters=20, grad_tol=1e-12, radius=tiny,
                              radius_policy="monitor", store_iterates=False)
        with caplog.at_level(logging.WARNING, logger="convexcauchy.optimizer"):
            report = run(params, start, cfg)
        assert report.iterations > 1
        assert any("ball" in rec.message for rec in caplog.records)

    def test_iteration_cap_history_lengths(self, rng):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC", lam=2.0, beta=0.55)
        cfg = OptimizerConfig(max_iters=5, grad_tol=1e-14, store_iterates=False)
        report = run(params, ball_draw(params, 5.0, rng), cfg)
        assert report.reason == "iteration cap reached"
        assert report.iterations == len(report.grad_norm_history) == 5
        assert len(report.step_history) == 5
        # the J of the last accepted step is kept
        assert len(report.j_history) == 6
        assert report.j_history[-1] == evaluate(params, report.final)

        table = history_table(report)
        assert table["iter"] == list(range(6))
        assert all(len(column) == 6 for column in table.values())
        assert table["j"][-1] == report.j_history[-1]
        assert table["grad_norm"][-1] == "" and table["step"][-1] == ""
        assert table["grad_norm"][-2] == report.grad_norm_history[-1]

    def test_converged_history_lengths(self, rng):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC", lam=2.0, beta=0.55)
        cfg = OptimizerConfig(max_iters=3000, grad_tol=1e-6, store_iterates=False)
        report = run(params, ball_draw(params, 5.0, rng), cfg)
        assert report.converged
        assert report.iterations == len(report.grad_norm_history) == len(report.j_history)
        assert len(report.step_history) == report.iterations - 1

    @pytest.mark.parametrize("step_mode", ["backtracking", "fixed"])
    def test_step_below_rounding_stops(self, step_mode):
        """A step along which J does not decrease (below J's or u's rounding
        level) ends the run unconverged instead of accepting it until the
        iteration cap."""
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC", lam=2.0, beta=0.55)
        start = data_extension(space, params.data)
        cfg = OptimizerConfig(max_iters=400, grad_tol=1e-13, step_mode=step_mode,
                              gamma=0.1, store_iterates=True)
        report = run(params, start, cfg)
        _no_decrease(report, report.iterations - 1, params)
        assert report.iterations < cfg.max_iters
        assert report.iterations == len(report.grad_norm_history) == len(report.j_history)
        assert len(report.step_history) == report.iterations - 1
        # every accepted step moved u
        for prev, nxt in zip(report.iterates, report.iterates[1:]):
            assert not np.array_equal(prev, nxt)
        assert np.array_equal(report.final, report.iterates[-1])

    @pytest.mark.parametrize("ending", ["tolerance", "cap", "exact-step", "no-decrease"])
    def test_evaluations_count_every_trial(self, monkeypatch, ending):
        """evaluations == 1 + len(step_history) + sum(halvings_history) on
        every ending: the start, each accepted trial and each rejected one,
        the last line search's too when no trial lowers J (here every one of
        its MAX_HALVINGS trials is rejected, 10 of them, as from the 52nd on
        the trials leave u bit-identical)."""
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC", lam=2.0, beta=0.55)
        start, cfg, solver = data_extension(space, params.data), OptimizerConfig(), "gradient"
        if ending == "cap":
            cfg = OptimizerConfig(max_iters=5, grad_tol=1e-14)
        elif ending == "exact-step":
            params = build_setup({"case": "ELL2D-HARMONIC",
                                  "grid": {"resolution": [17, 17]}}).params
            start, solver = None, "direct"
        elif ending == "no-decrease":
            evaluations = []

            def reject_every_trial(params, v):
                evaluations.append(v)
                return evaluate(params, v) if len(evaluations) == 1 else Evaluation(np.inf)

            monkeypatch.setattr(optimizer, "evaluate", reject_every_trial)
            monkeypatch.setattr(optimizer, "MAX_HALVINGS", 10)
        report = run(params, start, cfg, solver)
        assert report.reason.startswith({
            "tolerance": "gradient tolerance reached", "cap": "iteration cap reached",
            "exact-step": optimizer.EXACT_STEP,
            "no-decrease": "J does not decrease along the step at iteration 0"}[ending])
        if ending == "no-decrease":
            assert report.halvings_history == [10] and len(evaluations) == 11
        assert report.evaluations == (1 + len(report.step_history)
                                      + sum(report.halvings_history))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            OptimizerConfig(step_mode="fixed", gamma=1.5)
        with pytest.raises(ConfigError):
            OptimizerConfig(step_mode="wild")
        with pytest.raises(ConfigError):
            OptimizerConfig(grad_tol=-1.0)


def _counted(calls: Counter, name: str, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


class TestEvaluateOnce:
    """run evaluates each iterate once: the gradient and the H^k norm of an
    accepted trial reuse its J evaluation."""

    @pytest.mark.parametrize("step_mode,gamma", [("backtracking", 0.5), ("fixed", 0.05)],
                             ids=["sobolev-backtracking-0.5", "sobolev-fixed-0.05"])
    def test_histories_equal_fresh_calls(self, step_mode, gamma):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC", lam=2.0, beta=0.55)
        cfg = OptimizerConfig(max_iters=25, grad_tol=1e-12, step_mode=step_mode, gamma=gamma)
        report = run(params, data_extension(space, params.data), cfg)
        assert report.iterations == len(report.iterates) == 25
        for k, u in enumerate(report.iterates):
            g = gradient(params, evaluate(params, u), "sobolev")
            gsq = float(np.sum(gradient(params, evaluate(params, u)) * g))  # the dual pairing
            assert gsq == pytest.approx(space.norm_sq(g), rel=1e-12)
            assert report.j_history[k] == evaluate(params, u)
            assert report.radius_history[k] == space.norm(u)
            assert report.grad_norm_history[k] == float(np.sqrt(max(gsq, 0.0)))
        assert (sum(report.halvings_history) > 0) == (step_mode == "backtracking")

    def test_each_iterate_evaluated_once(self, monkeypatch):
        """On the shipped solve config the residual and the H^k differences
        run once per J evaluation: the gradient norm is a dual pairing, with
        no differences pass of its own. The q_hat fit after the descent is
        not counted."""
        setup = load_problem(SOLVE_CONFIG)
        start = data_extension(setup.space, setup.params.data)
        calls = Counter()
        monkeypatch.setattr(OperatorStencil, "residual",
                            _counted(calls, "residual", OperatorStencil.residual))
        monkeypatch.setattr(SobolevSpace, "differences",
                            _counted(calls, "differences", SobolevSpace.differences))
        monkeypatch.setattr(optimizer, "evaluate",
                            _counted(calls, "evaluate", optimizer.evaluate))
        fit = optimizer.convergence_ratio

        def fit_after_descent(*args, **kwargs):
            calls["differences before the fit"] = calls["differences"]
            return fit(*args, **kwargs)

        monkeypatch.setattr(optimizer, "convergence_ratio", fit_after_descent)
        report = run(setup.params, start, setup.opt_config)
        assert report.converged and report.q_hat is not None
        assert calls["residual"] == calls["evaluate"]
        assert calls["differences before the fit"] == calls["evaluate"]

    @pytest.mark.parametrize("config", [SOLVE_CONFIG, DIRECT_CONFIG], ids=["gradient", "direct"])
    def test_counters_match_calls(self, monkeypatch, tmp_path, config):
        """run.counters in report.json against wrapped evaluate, gradient and
        sparse factorization calls, the fill of the factors made, and the
        halvings column of history.csv, for both solvers; the run block has
        the same keys for both. Both configs are 2-D, so neither solver
        refines in mixed precision, and the factor's values are float64."""
        calls, factors = Counter(), []
        for name in ("evaluate", "gradient"):
            monkeypatch.setattr(optimizer, name, _counted(calls, name, getattr(optimizer, name)))
        splu = _counted(calls, "_splu", sobolev._splu)
        monkeypatch.setattr(sobolev, "_splu",
                            lambda matrix: factors.append(splu(matrix)) or factors[-1])
        assert cli.main(["solve", str(config), "--out", str(tmp_path)]) == 0
        run_report = json.loads((tmp_path / "report.json").read_text())["run"]
        with open(tmp_path / "history.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(run_report) == RUN_KEYS
        assert run_report["final_j"] == run_report["j_history"][-1] == float(rows[-1]["j"])
        halvings = [int(row["halvings"]) for row in rows if row["halvings"] != ""]
        fill = max(lu.nnz for lu in factors)
        assert run_report["counters"] == {"evaluations": calls["evaluate"],
                                          "gradients": calls["gradient"],
                                          "halvings": sum(halvings),
                                          "factorizations": calls["_splu"],
                                          "refinements": 0,
                                          "factor_nnz": fill, "factor_bytes": 8 * fill}
        assert calls["_splu"] == 1  # the direct system, or the data extension's Gram
        # one line search per step, each evaluating its rejected trials and the accepted one
        assert len(halvings) == len(run_report["step_history"]) == len(rows) - 1
        assert calls["evaluate"] == 1 + len(halvings) + sum(halvings)
        if config == DIRECT_CONFIG:
            # one gradient for the Gauss-Newton direction, whose full step is exact
            assert (calls["gradient"], run_report["iterations"], len(rows)) == (1, 0, 2)
        else:
            assert calls["gradient"] == run_report["iterations"] == len(rows)
            assert sum(halvings) > 0


class TestReleases:
    """Each phase holds only the arrays it reads again: a weak reference to
    an array dies with its last holder."""

    @pytest.mark.parametrize("step_mode,gamma", [("backtracking", 0.5), ("fixed", 0.05)])
    def test_no_earlier_evaluation_is_alive_at_a_trial(self, monkeypatch, step_mode, gamma):
        """A rejected trial is released before the next one is evaluated, and
        an accepted point's residual, differences and Euclidean gradient once
        its gradient is formed: at every evaluation, no H^k difference of an
        earlier one is alive."""
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC", lam=2.0, beta=0.55)
        refs, alive = [], []

        def tracked(params, v):
            alive.append(sum(ref() is not None for ref in refs))
            j = evaluate(params, v)
            refs.extend(weakref.ref(d) for d in j.differences)
            return j

        monkeypatch.setattr(optimizer, "evaluate", tracked)
        cfg = OptimizerConfig(max_iters=25, grad_tol=1e-12, step_mode=step_mode, gamma=gamma)
        report = run(params, data_extension(space, params.data), cfg)
        assert (sum(report.halvings_history) > 0) == (step_mode == "backtracking")
        assert alive == [0] * report.evaluations

    def test_cli_drops_the_iterates_once_q_hat_is_reported(self, monkeypatch, tmp_path):
        """`solve` with the gradient solver releases the stored iterates after
        the run block holds q_hat: none but the final field is alive when the
        report is written. The RunReport of `run` keeps them."""
        refs, alive = [], []

        def tracked_run(*args, **kwargs):
            report = run(*args, **kwargs)
            assert report.q_hat is not None and len(report.iterates) >= 7
            refs.extend(weakref.ref(v) for v in report.iterates if v is not report.final)
            return report

        def tracked_emit(report, out_dir):
            alive.append(sum(ref() is not None for ref in refs))
            return harness.emit_report(report, out_dir)

        monkeypatch.setattr(cli, "run", tracked_run)
        monkeypatch.setattr(cli, "emit_report", tracked_emit)
        assert cli.main(["solve", str(SOLVE_CONFIG), "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "report.json").read_text())["run"]["q_hat"] is not None
        assert refs and alive == [0]

    def test_certificate_releases_each_spent_batch(self, monkeypatch):
        """Each draw_in_ball call of the certificate finds the batch before it
        released, with the row views of its pairs."""
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC")
        refs, alive = [], []

        def tracked(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in refs))
            drawn = draw_in_ball(*args, **kwargs)
            refs.append(weakref.ref(drawn))
            return drawn

        monkeypatch.setattr(optimizer, "draw_in_ball", tracked)
        convexity_certificate(params, radius=5.0, samples=5, seed=3, lambdas=[params.lam])
        assert alive == [0, 0, 0]


class TestConvergenceRatio:
    def _space(self):
        _, grid, mask, op, space, params, _ = make_problem("ELL1D-CUBIC")
        return grid, mask, space

    def test_synthetic_geometric_sequence(self, rng):
        grid, mask, space = self._space()
        direction = np.zeros(mask.dofs.size)
        direction[mask.free_pos] = rng.standard_normal(mask.free_pos.size)
        iterates = [0.5**n * direction for n in range(20)]
        q = convergence_ratio(space, iterates, np.zeros(mask.dofs.size))
        assert q == pytest.approx(0.5, abs=1e-6)

    def test_stalled_run_gives_unit_ratio(self, rng):
        grid, mask, space = self._space()
        direction = np.zeros(mask.dofs.size)
        direction[mask.free_pos] = 1.0
        q = convergence_ratio(space, [direction] * 12, np.zeros(mask.dofs.size))
        assert q == pytest.approx(1.0, abs=1e-9)

    def test_too_few_iterates(self):
        grid, mask, space = self._space()
        with pytest.raises(SolverError, match="tail"):
            convergence_ratio(space, [np.zeros(mask.dofs.size)] * 3, np.zeros(mask.dofs.size))

    def test_fixed_step_rate_matches_spectral_bound(self, rng):
        """Fixed-step descent in the Sobolev geometry contracts at the rate
        max |1 - gamma mu| over the generalized spectrum of (Hessian, Gram)."""
        import scipy.linalg as sla
        import scipy.sparse as sp

        _, grid, mask, op, space, params, _ = make_problem(
            "ELL2D-HARMONIC", resolution=(17, 17), lam=1.0, beta=2.0)
        free = mask.free_pos
        u_c = params.impose_dofs(np.zeros(mask.dofs.size))
        lmat = to_matrix(params.stencil.linearize(u_c))
        wdiag = sp.diags(params.core_weight)
        hess = 2.0 * (lmat.T @ wdiag @ lmat + params.beta * gram_matrix(space))
        h_ff = hess[free][:, free].toarray()
        g_ff = gram_matrix(space)[free][:, free].toarray()
        mu = sla.eigh(h_ff, g_ff, eigvals_only=True)
        gamma = min(0.9, 0.9 / float(np.max(mu)))
        q_pred = float(np.max(np.abs(1.0 - gamma * mu)))

        u_ref = run(params, None, OptimizerConfig(), "direct").final
        cfg = OptimizerConfig(max_iters=80, grad_tol=1e-14, step_mode="fixed",
                              gamma=gamma, store_iterates=True)
        try:
            report = run(params, ball_draw(params, 150.0, rng), cfg)
        except SolverError:
            pytest.fail("fixed-step run should not diverge at the spectral step size")
        q_hat = convergence_ratio(space, report.iterates, u_ref)
        assert abs(q_hat - q_pred) <= 0.1 * q_pred


class TestCertificate:
    def test_linear_operator_never_fails(self):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-HARMONIC", beta=0.2)
        (report,) = convexity_certificate(params, radius=150.0, samples=15, seed=5, lambdas=[params.lam])
        assert report.failures == 0
        assert report.passed
        assert report.min_margin >= 0.0

    def test_small_negative_margin_is_a_failure(self, monkeypatch):
        """A pair whose gap falls 1e-6 short of (beta/2) ||h||^2 fails."""
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC")

        def short_gap(params, u1, u2, core_weights):
            gaps, h1_inner, hk = bregman_gap(params, u1, u2, core_weights)
            return [0.5 * params.beta * hk - 1e-6 for _ in gaps], h1_inner, hk

        monkeypatch.setattr(optimizer, "bregman_gap", short_gap)
        (rep,) = convexity_certificate(params, radius=5.0, samples=3, seed=2, lambdas=[params.lam])
        assert rep.min_margin == pytest.approx(-1e-6, rel=1e-6)
        assert rep.failures == 3 and not rep.passed

    def test_zero_samples_rejected(self):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC")
        with pytest.raises(ConfigError):
            convexity_certificate(params, radius=5.0, samples=0, seed=1, lambdas=[params.lam])

    def test_deterministic_under_seed(self):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC")
        (r1,) = convexity_certificate(params, radius=5.0, samples=8, seed=11, lambdas=[params.lam])
        (r2,) = convexity_certificate(params, radius=5.0, samples=8, seed=11, lambdas=[params.lam])
        assert r1.margins == r2.margins
        (r3,) = convexity_certificate(params, radius=5.0, samples=8, seed=12, lambdas=[params.lam])
        assert r1.margins != r3.margins

    def test_sweep_matches_single_lambda_runs(self):
        """One draw stream scored at every lambda of a sweep gives, at each
        lambda, exactly the report of a run at that lambda alone."""
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC", beta=1e-3)
        lambdas = (1.0, 2.0, 4.0, 8.0)
        sweep = convexity_certificate(params, radius=5.0, samples=12, seed=7, lambdas=lambdas)
        assert [r.lam for r in sweep] == list(lambdas)
        for lam, rep in zip(lambdas, sweep):
            alone = FunctionalParams(
                op=op, lam=lam, mask=mask, beta=params.beta, data=params.data, beta_policy="keep")
            (single,) = convexity_certificate(alone, radius=5.0, samples=12, seed=7, lambdas=[alone.lam])
            for key in ("margins", "gaps", "h1_inner_terms", "hk_terms", "failures",
                        "min_margin"):
                assert getattr(rep, key) == getattr(single, key), (lam, key)

    def test_empty_lambda_list_rejected(self):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC")
        with pytest.raises(ConfigError, match="at least one lambda"):
            convexity_certificate(params, radius=5.0, samples=2, seed=1, lambdas=[])

    def test_margin_quantiles(self):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC")
        (rep,) = convexity_certificate(params, radius=5.0, samples=20, seed=3, lambdas=[params.lam])
        q = rep.to_dict()["margin_quantiles"]
        assert q["min"] == rep.min_margin == min(rep.margins)
        assert q["median"] == float(np.median(rep.margins))
        assert q["min"] <= q["p5"] <= q["median"]

    def test_report_serializable(self):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC")
        (rep,) = convexity_certificate(params, radius=5.0, samples=4, seed=2, lambdas=[params.lam])
        d = rep.to_dict()
        assert d["samples"] == 4
        assert len(d["margins"]) == 4
        assert d["passed"] == (d["failures"] == 0)
