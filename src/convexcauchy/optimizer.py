"""Gradient iteration with line search, convexity certificates, and rate fits.

The iteration u_{n+1} = u_n - gamma * grad J(u_n) runs in either the
Euclidean or the H^k (Sobolev) geometry; descent directions are zero-trace,
so every iterate carries the Cauchy data exactly. Backtracking enforces the
Armijo decrease J_new <= J - c * t * ||g||^2 in the norm matching the
geometry.

The convexity certificate samples field pairs inside an H^k ball and checks
the Bregman gap against (beta/2) times the squared H^k distance; it is the
runtime arbiter for whether the weight strength lambda is large enough. A
lambda sweep draws its pairs once and scores each pair at every lambda.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, SolverError
from .functional import FunctionalParams, bregman_gap, data_extension, evaluate, gradient
from .grid import check_finite
from .sampling import draw_in_ball
from .sobolev import SobolevSpace

logger = logging.getLogger(__name__)

STEP_MODES = ("fixed", "backtracking")
RADIUS_POLICIES = ("monitor", "reject_step")


@dataclass
class OptimizerConfig:
    max_iters: int = 2000
    grad_tol: float = 1e-6
    step_mode: str = "backtracking"
    gamma: float = 0.5
    armijo_c: float = 1e-4
    shrink: float = 0.5
    max_halvings: int = 60
    mode: str = "sobolev"
    radius: float = 0.0  # 0 disables the ball check
    radius_policy: str = "monitor"
    store_iterates: bool = True

    def __post_init__(self):
        if self.step_mode not in STEP_MODES:
            raise ConfigError(f"unknown step mode {self.step_mode!r}")
        if self.radius_policy not in RADIUS_POLICIES:
            raise ConfigError(f"unknown radius policy {self.radius_policy!r}")
        if self.step_mode == "fixed" and not (0.0 < self.gamma < 1.0):
            raise ConfigError(f"fixed step size must lie in (0, 1), got {self.gamma}")
        if self.grad_tol <= 0 or self.max_iters < 1:
            raise ConfigError("tolerances and iteration caps must be positive")
        if self.mode not in ("euclidean", "sobolev"):
            raise ConfigError(f"unknown gradient mode {self.mode!r}")


@dataclass
class RunReport:
    j_history: list[float] = dc_field(default_factory=list)
    grad_norm_history: list[float] = dc_field(default_factory=list)
    step_history: list[float] = dc_field(default_factory=list)
    radius_history: list[float] = dc_field(default_factory=list)
    halvings_history: list[int] = dc_field(default_factory=list)  # rejected trials per line search
    evaluations: int = 0  # J evaluations
    gradients: int = 0  # gradient evaluations
    factorizations: int = 0  # sparse factorizations of the space's solves
    refinements: int = 0  # CG iterations of its mixed-precision solves
    final: np.ndarray | None = None  # DOF vector of the last iterate
    converged: bool = False
    reason: str = ""
    iterations: int = 0
    q_hat: float | None = None
    wall_time: float = 0.0
    iterates: list[np.ndarray] | None = None  # DOF vectors of the accepted iterates
    space: SobolevSpace | None = None  # measures iterate distances

    def to_dict(self) -> dict:
        """The run block of report.json; final_j is the last J of the history."""
        return {
            "converged": self.converged,
            "reason": self.reason,
            "iterations": self.iterations,
            "q_hat": self.q_hat,
            "wall_time": self.wall_time,
            "j_history": self.j_history,
            "grad_norm_history": self.grad_norm_history,
            "step_history": self.step_history,
            "radius_history": self.radius_history,
            "final_j": self.j_history[-1] if self.j_history else None,
            "counters": {"evaluations": self.evaluations, "gradients": self.gradients,
                         "halvings": sum(self.halvings_history),
                         "factorizations": self.factorizations,
                         "refinements": self.refinements},
        }


def run(params: FunctionalParams, start: np.ndarray, config: OptimizerConfig) -> RunReport:
    """Minimize J from the DOF vector `start` by (projected) gradient descent.

    The start must carry the Cauchy data; every step direction is zero-trace,
    so the constraint is preserved exactly. Terminates on grad_tol, max_iters,
    a ball exit under the reject_step policy, or a trial step that leaves u
    bit-identical (the step is below the rounding level of u, so no further
    progress is possible). Line-search failure and divergence in fixed mode
    raise SolverError.

    The iterates, the gradients and `final` are DOF vectors. The gradient
    norm is the dual norm: the square root of the Euclidean pairing of the
    raw gradient with the step direction g, which is also the slope the
    Armijo test uses. In sobolev mode it equals the H^k norm of the Riesz
    representative g up to the rounding of the factorized Gram matrix, at
    the cost of one dot product instead of a differences pass.
    `iterations` counts gradient evaluations, len(grad_norm_history). At the
    iteration cap j_history also ends with the J of the last accepted step.
    Each iterate is evaluated once: the gradient and the H^k norm of an
    accepted trial reuse its J evaluation.
    """
    t0 = time.perf_counter()
    space = params.space
    params.check_dofs(start, "starting field")
    u = np.array(start, dtype=float)
    params.impose_dofs(u)
    report = RunReport(iterates=[] if config.store_iterates else None, space=space)

    j = evaluate(params, u)
    report.evaluations = 1
    step = config.gamma if config.step_mode == "fixed" else 1.0
    warned_radius = False

    def trial(v: np.ndarray, d: np.ndarray, t: float) -> np.ndarray | None:
        """v - t d with the trace data imposed; None when it equals v."""
        v_try = params.impose_dofs(v - t * d)
        return None if np.array_equal(v_try, v) else v_try

    for it in range(config.max_iters):
        g = check_finite(gradient(params, u, config.mode, at=j), "gradient")
        gsq = float(np.sum(j.euclidean_gradient * g))  # the dual norm, squared
        gnorm = float(np.sqrt(max(gsq, 0.0)))
        unorm = float(np.sqrt(max(j.norm_sq, 0.0)))  # = space.norm(u)

        report.j_history.append(float(j))
        report.grad_norm_history.append(gnorm)
        report.radius_history.append(unorm)
        if report.iterates is not None:
            report.iterates.append(u)

        if config.radius > 0 and unorm >= config.radius:
            if config.radius_policy == "reject_step":
                report.reason = f"iterate left the ball of radius {config.radius}"
                break
            if not warned_radius:
                logger.warning(
                    "iterate norm %.4g exceeds the monitored ball radius %.4g", unorm, config.radius
                )
                warned_radius = True

        if gnorm < config.grad_tol:
            report.converged = True
            report.reason = "gradient tolerance reached"
            break

        halvings = 0
        if config.step_mode == "fixed":
            t = config.gamma
            u_try = trial(u, g, t)
            j_try = j if u_try is None else evaluate(params, u_try)
            report.evaluations += u_try is not None
            if j_try > j + 1e-12 * (1.0 + abs(j)):
                raise SolverError(
                    f"fixed-step iteration diverged at iteration {it}: "
                    f"J rose from {j:.6g} to {j_try:.6g}"
                )
        else:
            t = min(1.0, step * 2.0)  # warm start from the last accepted step
            for halvings in range(config.max_halvings):
                u_try = trial(u, g, t)
                if u_try is None:
                    break
                j_try = evaluate(params, u_try)
                report.evaluations += 1
                if j_try <= j - config.armijo_c * t * gsq:
                    break
                t *= config.shrink
            else:
                raise SolverError(
                    f"line search found no Armijo decrease after {config.max_halvings} "
                    f"halvings at iteration {it} (J={j:.6g}, |g|={gnorm:.3g})"
                )
        report.halvings_history.append(halvings)
        if u_try is None:
            report.reason = f"step below rounding level at iteration {it} (|g|={gnorm:.3g})"
            break
        report.step_history.append(t)
        step = t
        u, j = u_try, j_try
    else:
        report.reason = "iteration cap reached"
        report.j_history.append(float(j))  # J of the last accepted step

    report.final = u
    report.iterations = report.gradients = len(report.grad_norm_history)
    report.factorizations, report.refinements = space.factorizations, space.refinements
    report.wall_time = time.perf_counter() - t0
    if report.converged and report.iterates is not None and len(report.iterates) >= 7:
        try:
            report.q_hat = convergence_ratio(report, report.final)
        except (SolverError, ConfigError):
            report.q_hat = None
    return report


def convergence_ratio(report: RunReport, reference: np.ndarray) -> float:
    """Fitted per-iteration contraction of ||u_n - reference||_{H^k}, reference
    a DOF vector.

    Least-squares slope of the log-error over the linear-decay tail; the
    returned q_hat is exp(slope). Needs at least 5 usable tail iterates.
    """
    if report.iterates is None:
        raise ConfigError("run stored no iterates; enable store_iterates")
    if report.space is None:
        raise ConfigError("report has no space attached")
    errs = np.asarray([report.space.norm(v - reference) for v in report.iterates])
    floor = max(errs.max() * 1e-14, 1e-300)
    usable = np.flatnonzero(errs > floor)
    if usable.size < 5:
        raise SolverError(f"only {usable.size} tail iterates with measurable error; need >= 5")
    tail = usable[-max(5, usable.size // 2):]
    n = tail.astype(float)
    y = np.log(errs[tail])
    slope = float(np.polyfit(n, y, 1)[0])
    return float(np.exp(slope))


def direct_solve(params: FunctionalParams) -> RunReport:
    """Exact minimizer of J for an affine residual map (no genuine nonlinearity).

    Solves the normal equations (L^T W L + beta G) v = -grad J(u_c)/2 on the
    free degrees of freedom, where u_c carries the Cauchy data and L is the
    residual's (constant) linearization, a core-node x DOF matrix. The system
    is assembled on the free DOFs only: L^T W L, from the free columns of L,
    is added in place into the constrained Gram matrix as it is scaled by
    beta; no DOF x DOF Hessian is formed. SobolevSpace.solve picks the
    precision and counts the work. The report has 0 iterations and one
    history row at the minimizer (`final`): J, the Euclidean gradient norm
    and the H^k norm. Raises ConfigError for operators whose lower-order
    term actually depends on the field.
    """
    t0 = time.perf_counter()
    lower = params.op.lower
    if lower is not None and not lower.affine:
        raise ConfigError("direct solve needs an affine residual; lower-order term is "
                          f"{lower.kind!r}")
    mask, space = params.mask, params.space
    v = params.impose_dofs(np.zeros(mask.dofs.size))
    free = mask.free_pos
    lmat = params.stencil.linearize(v).to_matrix()[:, free]
    lwl = lmat.T @ sp.diags(params.core_weight) @ lmat
    del lmat
    v[free] += space.solve(-0.5 * gradient(params, v)[free], params.beta, plus=lwl)

    j = evaluate(params, v)
    g = gradient(params, v, at=j)
    return RunReport(
        j_history=[float(j)], grad_norm_history=[float(np.linalg.norm(g))],
        radius_history=[float(np.sqrt(max(j.norm_sq, 0.0)))], evaluations=1, gradients=2,
        factorizations=space.factorizations, refinements=space.refinements,
        final=v, converged=True, reason="direct normal-equations solve", space=space,
        wall_time=time.perf_counter() - t0,
    )


@dataclass
class CertificateReport:
    lam: float
    beta: float
    radius: float
    samples: int
    seed: int
    failures: int
    min_margin: float
    margins: list[float]
    gaps: list[float]
    h1_inner_terms: list[float]
    hk_terms: list[float]

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "beta": self.beta,
            "radius": self.radius,
            "samples": self.samples,
            "seed": self.seed,
            "failures": self.failures,
            "passed": self.passed,
            "min_margin": self.min_margin,
            "margin_quantiles": {
                "min": self.min_margin,
                "p5": float(np.percentile(self.margins, 5)),
                "median": float(np.median(self.margins)),
            },
            "margins": self.margins,
            "gaps": self.gaps,
            "h1_inner_terms": self.h1_inner_terms,
            "hk_terms": self.hk_terms,
        }


def convexity_certificate(params: FunctionalParams, radius: float, samples: int, seed: int,
                          lambdas: Sequence[float] | None = None) -> list[CertificateReport]:
    """Sample the Bregman gap on random admissible pairs inside the H^k ball,
    at each lambda of a sweep (None: params.lam), beta kept as it is.

    Every lambda scores the same pairs: they are drawn once, each lambda's
    data weight is computed once, and everything but the weighted data terms
    is computed once per pair. A pair fails at a lambda when its gap <
    (beta/2) * ||u2 - u1||^2_{H^k}. The H^1 term over the inner subdomain is
    recorded but not asserted against (its constant is not constructive).
    Deterministic under the seed; one report per lambda, each equal to a
    single-lambda run at that lambda.
    """
    if samples < 1:
        raise ConfigError(f"certificate needs at least one sample, got {samples}")
    lambdas = [params.lam] if lambdas is None else list(lambdas)
    if not lambdas:
        raise ConfigError("certificate needs at least one lambda")
    core_weights = [params.core_weight_at(lam) for lam in lambdas]
    rng = np.random.default_rng(seed)
    base = data_extension(params.space, params.data)
    base_norm = params.space.norm(base)
    gaps, h1s, hks = [], [], []
    for _ in range(samples):
        u1 = draw_in_ball(params, radius, rng, base=base, base_norm=base_norm)
        u2 = draw_in_ball(params, radius, rng, base=base, base_norm=base_norm)
        gaps_by_lambda, h1_inner, hk_full = bregman_gap(params, u1, u2, core_weights)
        gaps.append(gaps_by_lambda)
        h1s.append(h1_inner)
        hks.append(hk_full)
    reports = []
    for k, lam in enumerate(lambdas):
        gaps_k = [g[k] for g in gaps]
        margins = [gap - 0.5 * params.beta * hk for gap, hk in zip(gaps_k, hks)]
        report = CertificateReport(
            lam=lam, beta=params.beta, radius=radius, samples=samples, seed=seed,
            failures=sum(m < 0.0 for m in margins), min_margin=float(np.min(margins)),
            margins=margins, gaps=gaps_k, h1_inner_terms=list(h1s), hk_terms=list(hks),
        )
        logger.info(
            "certificate lambda=%.4g beta=%.4g: %d/%d failures, min margin %.4g",
            lam, params.beta, report.failures, samples, report.min_margin,
        )
        reports.append(report)
    return reports
