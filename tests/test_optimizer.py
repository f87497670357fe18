import csv
import json
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import make_problem
from convexcauchy import cli, optimizer, sobolev
from convexcauchy.errors import ConfigError, SolverError
from convexcauchy.functional import (FunctionalParams, bregman_gap, data_extension, evaluate,
                                     gradient)
from convexcauchy.harness import build_setup, history_table, load_problem
from convexcauchy.operators import LOWER_TERMS, OperatorStencil
from convexcauchy.optimizer import (
    ARMIJO_C,
    OptimizerConfig,
    RunReport,
    convergence_ratio,
    convexity_certificate,
    direct_solve,
    run,
)
from convexcauchy.sampling import draw_in_ball
from convexcauchy.sobolev import SobolevSpace

SOLVE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "ell2d_cubic_solve.json"
DIRECT_CONFIG = SOLVE_CONFIG.with_name("ell2d_harmonic_reconstruct.json")
# the keys of report.json's run block, whichever solver ran
RUN_KEYS = {"converged", "reason", "iterations", "q_hat", "wall_time", "j_history",
            "grad_norm_history", "step_history", "radius_history", "final_j", "counters"}


class TestRun:
    def test_quadratic_matches_direct_solve(self, rng):
        _, grid, mask, op, space, params, _ = make_problem(
            "ELL2D-HARMONIC", resolution=(17, 17), lam=1.0, beta=0.5)
        u_direct = direct_solve(params).final
        start = draw_in_ball(params, 150.0, rng)
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
        first, second = direct_solve(params), direct_solve(params)
        assert (first.factorizations, first.refinements) == (1, 0)
        assert (second.factorizations, second.refinements) == (1, 0)
        cfg = OptimizerConfig(max_iters=3, store_iterates=False)
        start = draw_in_ball(params, 150.0, rng)
        fresh = replace(params, space=SobolevSpace(mask))  # no factor made yet
        runs = [run(fresh, start, cfg) for _ in range(2)]
        assert [(r.factorizations, r.refinements) for r in runs] == [(1, 0), (0, 0)]

    @pytest.mark.parametrize("kind", LOWER_TERMS)
    def test_direct_solve_needs_an_affine_term(self, kind):
        """Only a term whose partials all vanish keeps the residual affine."""
        setup = build_setup({"case": "ELL2D-HARMONIC", "grid": {"resolution": [17, 17]},
                             "operator": {"id": kind, "q": "x0"}})
        if LOWER_TERMS[kind].affine:
            assert kind == "source" and direct_solve(setup.params).converged
        else:
            with pytest.raises(ConfigError, match=f"operator id '{kind}' depends on the field"):
                direct_solve(setup.params)

    @pytest.mark.parametrize("kind", [k for k in LOWER_TERMS if not LOWER_TERMS[k].affine])
    def test_affine_rule_has_one_message(self, kind, tmp_path, caplog):
        """The library's direct solve and the CLI's load-time check reject a
        field-dependent term in the same words."""
        cfg = {"case": "ELL2D-HARMONIC", "grid": {"resolution": [17, 17]},
               "operator": {"id": kind, "q": "x0"}}
        with pytest.raises(ConfigError) as library:
            direct_solve(build_setup(cfg).params)
        path = tmp_path / "p.json"
        path.write_text(json.dumps({**cfg, "solver": "direct", "output_dir": str(tmp_path / "out")}))
        assert cli.main(["solve", str(path)]) == 1
        assert f"config error: config field solver: {library.value}" in caplog.text

    def test_start_at_minimizer_stops_immediately(self):
        _, grid, mask, op, space, params, _ = make_problem(
            "ELL2D-HARMONIC", resolution=(17, 17), lam=1.0, beta=0.5)
        u_direct = direct_solve(params).final
        cfg = OptimizerConfig(max_iters=50, grad_tol=1e-6)
        report = run(params, u_direct, cfg)
        assert report.converged
        assert report.iterations <= 2

    def test_multi_start_agreement(self, rng):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC", lam=2.0, beta=0.55)
        cfg = OptimizerConfig(max_iters=3000, grad_tol=1e-6, store_iterates=False)
        finals = []
        for _ in range(3):
            start = draw_in_ball(params, 5.0, rng)
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
        report = run(params, draw_in_ball(params, 5.0, rng), cfg)
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
        g = gradient(params, start, "sobolev", at=j)
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

    def test_constraints_preserved_exactly(self, rng):
        _, grid, mask, op, space, params, _ = make_problem("PAR1D-CUBIC", beta=0.8)
        cfg = OptimizerConfig(max_iters=30, grad_tol=1e-12)
        report = run(params, data_extension(space, params.data), cfg)
        for v in report.iterates[::7] + [report.final]:
            assert np.array_equal(v[mask.value_pos], params.data.g0)
            assert np.array_equal(v[mask.deriv_pos], params.data.g1)

    def test_divergence_detected_in_fixed_mode(self, rng):
        _, grid, mask, op, space, params, _ = make_problem(
            "ELL2D-HARMONIC", resolution=(17, 17), lam=2.0, beta=0.5)
        cfg = OptimizerConfig(max_iters=50, grad_tol=1e-14, step_mode="fixed",
                              gamma=0.99, store_iterates=False)
        with pytest.raises(SolverError, match="diverged"):
            run(params, draw_in_ball(params, 150.0, rng), cfg)

    def test_line_search_failure_raises(self, rng, monkeypatch):
        _, grid, mask, op, space, params, _ = make_problem(
            "ELL2D-HARMONIC", resolution=(17, 17), lam=2.0, beta=0.5)
        monkeypatch.setattr(optimizer, "MAX_HALVINGS", 1)
        cfg = OptimizerConfig(max_iters=50, grad_tol=1e-14, store_iterates=False)
        with pytest.raises(SolverError, match="line search|Armijo|decrease"):
            run(params, draw_in_ball(params, 150.0, rng), cfg)

    def test_radius_reject_step_exits(self, rng):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC", lam=2.0, beta=0.55)
        start = draw_in_ball(params, 5.0, rng)
        tiny = 0.5 * space.norm(start)
        cfg = OptimizerConfig(max_iters=50, grad_tol=1e-12, radius=tiny,
                              radius_policy="reject_step", store_iterates=False)
        report = run(params, start, cfg)
        assert not report.converged
        assert "ball" in report.reason

    def test_radius_monitor_warns_and_continues(self, rng, caplog):
        import logging

        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC", lam=2.0, beta=0.55)
        start = draw_in_ball(params, 5.0, rng)
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
        report = run(params, draw_in_ball(params, 5.0, rng), cfg)
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
        report = run(params, draw_in_ball(params, 5.0, rng), cfg)
        assert report.converged
        assert report.iterations == len(report.grad_norm_history) == len(report.j_history)
        assert len(report.step_history) == report.iterations - 1

    @pytest.mark.parametrize("step_mode", ["backtracking", "fixed"])
    def test_step_below_rounding_stops(self, step_mode):
        """A trial step that leaves u bit-identical ends the run unconverged
        instead of accepting it until the iteration cap."""
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC", lam=2.0, beta=0.55)
        start = data_extension(space, params.data)
        cfg = OptimizerConfig(max_iters=400, grad_tol=1e-13, step_mode=step_mode,
                              gamma=0.1, store_iterates=True)
        report = run(params, start, cfg)
        assert not report.converged
        assert report.reason.startswith("step below rounding level")
        assert report.iterations < cfg.max_iters
        assert report.iterations == len(report.grad_norm_history) == len(report.j_history)
        assert len(report.step_history) == report.iterations - 1
        # every accepted step moved u
        for prev, nxt in zip(report.iterates, report.iterates[1:]):
            assert not np.array_equal(prev, nxt)
        assert np.array_equal(report.final, report.iterates[-1])

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
            g = gradient(params, u, "sobolev")
            gsq = float(np.sum(gradient(params, u) * g))  # the dual pairing
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
        sparse factorization calls, and the halvings column of history.csv,
        for both solvers; the run block has the same keys for both. Both
        configs are 2-D, so neither solver refines in mixed precision."""
        calls = Counter()
        for name in ("evaluate", "gradient"):
            monkeypatch.setattr(optimizer, name, _counted(calls, name, getattr(optimizer, name)))
        monkeypatch.setattr(sobolev, "_splu", _counted(calls, "_splu", sobolev._splu))
        assert cli.main(["solve", str(config), "--out", str(tmp_path)]) == 0
        run_report = json.loads((tmp_path / "report.json").read_text())["run"]
        with open(tmp_path / "history.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert set(run_report) == RUN_KEYS
        assert run_report["final_j"] == run_report["j_history"][-1] == float(rows[-1]["j"])
        halvings = [int(row["halvings"]) for row in rows if row["halvings"] != ""]
        assert run_report["counters"] == {"evaluations": calls["evaluate"],
                                          "gradients": calls["gradient"],
                                          "halvings": sum(halvings),
                                          "factorizations": calls["_splu"],
                                          "refinements": 0}
        assert calls["_splu"] == 1  # the direct system, or the data extension's Gram
        # one line search per step, each evaluating its rejected trials and the accepted one
        assert len(halvings) == len(run_report["step_history"]) == len(rows) - 1
        assert calls["evaluate"] == 1 + len(halvings) + sum(halvings)
        if config == DIRECT_CONFIG:
            # one gradient for the right-hand side, one at the minimizer
            assert (calls["gradient"], run_report["iterations"], len(rows)) == (2, 0, 1)
        else:
            assert calls["gradient"] == run_report["iterations"] == len(rows)
            assert sum(halvings) > 0


class TestConvergenceRatio:
    def _space(self):
        _, grid, mask, op, space, params, _ = make_problem("ELL1D-CUBIC")
        return grid, mask, space

    def test_synthetic_geometric_sequence(self, rng):
        grid, mask, space = self._space()
        direction = np.zeros(mask.dofs.size)
        direction[mask.free_pos] = rng.standard_normal(mask.free_pos.size)
        report = RunReport(iterates=[0.5**n * direction for n in range(20)], space=space)
        q = convergence_ratio(report, np.zeros(mask.dofs.size))
        assert q == pytest.approx(0.5, abs=1e-6)

    def test_stalled_run_gives_unit_ratio(self, rng):
        grid, mask, space = self._space()
        direction = np.zeros(mask.dofs.size)
        direction[mask.free_pos] = 1.0
        report = RunReport(iterates=[direction for _ in range(12)], space=space)
        q = convergence_ratio(report, np.zeros(mask.dofs.size))
        assert q == pytest.approx(1.0, abs=1e-9)

    def test_too_few_iterates(self):
        grid, mask, space = self._space()
        report = RunReport(iterates=[np.zeros(mask.dofs.size)] * 3, space=space)
        with pytest.raises(SolverError, match="tail"):
            convergence_ratio(report, np.zeros(mask.dofs.size))

    def test_fixed_step_rate_matches_spectral_bound(self, rng):
        """Fixed-step descent in the Sobolev geometry contracts at the rate
        max |1 - gamma mu| over the generalized spectrum of (Hessian, Gram)."""
        import scipy.linalg as sla
        import scipy.sparse as sp

        _, grid, mask, op, space, params, _ = make_problem(
            "ELL2D-HARMONIC", resolution=(17, 17), lam=1.0, beta=2.0)
        free = mask.free_pos
        u_c = params.impose_dofs(np.zeros(mask.dofs.size))
        lmat = params.stencil.linearize(u_c).to_matrix()
        wdiag = sp.diags(params.core_weight)
        hess = 2.0 * (lmat.T @ wdiag @ lmat + params.beta * space.gram_matrix())
        h_ff = hess[free][:, free].toarray()
        g_ff = space.gram_matrix()[free][:, free].toarray()
        mu = sla.eigh(h_ff, g_ff, eigvals_only=True)
        gamma = min(0.9, 0.9 / float(np.max(mu)))
        q_pred = float(np.max(np.abs(1.0 - gamma * mu)))

        u_ref = direct_solve(params).final
        cfg = OptimizerConfig(max_iters=80, grad_tol=1e-14, step_mode="fixed",
                              gamma=gamma, store_iterates=True)
        try:
            report = run(params, draw_in_ball(params, 150.0, rng), cfg)
        except SolverError:
            pytest.fail("fixed-step run should not diverge at the spectral step size")
        q_hat = convergence_ratio(report, u_ref)
        assert abs(q_hat - q_pred) <= 0.1 * q_pred


class TestCertificate:
    def test_linear_operator_never_fails(self):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-HARMONIC", beta=0.2)
        (report,) = convexity_certificate(params, radius=150.0, samples=15, seed=5)
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
        (rep,) = convexity_certificate(params, radius=5.0, samples=3, seed=2)
        assert rep.min_margin == pytest.approx(-1e-6, rel=1e-6)
        assert rep.failures == 3 and not rep.passed

    def test_zero_samples_rejected(self):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC")
        with pytest.raises(ConfigError):
            convexity_certificate(params, radius=5.0, samples=0, seed=1)

    def test_deterministic_under_seed(self):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC")
        (r1,) = convexity_certificate(params, radius=5.0, samples=8, seed=11)
        (r2,) = convexity_certificate(params, radius=5.0, samples=8, seed=11)
        assert r1.margins == r2.margins
        (r3,) = convexity_certificate(params, radius=5.0, samples=8, seed=12)
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
                op=op, lam=lam, mask=mask, space=space,
                beta=params.beta, data=params.data, beta_policy="keep")
            (single,) = convexity_certificate(alone, radius=5.0, samples=12, seed=7)
            for key in ("margins", "gaps", "h1_inner_terms", "hk_terms", "failures",
                        "min_margin"):
                assert getattr(rep, key) == getattr(single, key), (lam, key)

    def test_empty_lambda_list_rejected(self):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC")
        with pytest.raises(ConfigError, match="at least one lambda"):
            convexity_certificate(params, radius=5.0, samples=2, seed=1, lambdas=[])

    def test_margin_quantiles(self):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC")
        (rep,) = convexity_certificate(params, radius=5.0, samples=20, seed=3)
        q = rep.to_dict()["margin_quantiles"]
        assert q["min"] == rep.min_margin == min(rep.margins)
        assert q["median"] == float(np.median(rep.margins))
        assert q["min"] <= q["p5"] <= q["median"]

    def test_report_serializable(self):
        _, grid, mask, op, space, params, _ = make_problem("ELL2D-CUBIC")
        (rep,) = convexity_certificate(params, radius=5.0, samples=4, seed=2)
        d = rep.to_dict()
        assert d["samples"] == 4
        assert len(d["margins"]) == 4
        assert d["passed"] == (d["failures"] == 0)
