"""One descent loop with line search, convexity certificates, and rate fits.

The iteration u_{n+1} = u_n + t d steps along -g, g the H^k (Sobolev)
Riesz representative of grad J, or along the Gauss-Newton step; both are
zero-trace, so every iterate carries the Cauchy data exactly. One trial
rule takes every step: a trial t is accepted on a strict Armijo decrease,
J_new < J and J_new <= J - ARMIJO_C * t * s, s = -grad J . d. A fixed step
(gradient only) tries gamma once; backtracking shrinks t by SHRINK at most
MAX_HALVINGS times. J_new >= 0, so a t with ARMIJO_C * t * s > J cannot
pass: backtracking shrinks it without evaluating J and without counting.
When no trial lowers J, or a trial leaves u bit-identical, the run ends
unconverged with a reason that names J, lambda and the core-weight span.

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

from .errors import ConfigError, SolverError, finite
from .functional import FunctionalParams, bregman_gap, data_extension, evaluate, gradient
from .sampling import draw_in_ball
from .sobolev import SobolevSpace

logger = logging.getLogger(__name__)

SOLVERS = ("gradient", "direct")  # the directions: H^k gradient, Gauss-Newton
STEP_MODES = ("fixed", "backtracking")
RADIUS_POLICIES = ("monitor", "reject_step")
ARMIJO_C = 1e-4
SHRINK = 0.5
MAX_HALVINGS = 60
EXACT_STEP = "exact Gauss-Newton step (affine residual)"  # a direct solve: 0 iterations
# sample pairs the certificate draws per draw_in_ball call: their four draws
# share one smoothing and one H^k-norm pass. At 129^2 one pair per call makes
# the certificate about a quarter slower, and three or more raise a sweep's
# traced peak memory by 15% or more
PAIRS_PER_DRAW = 2


@dataclass
class OptimizerConfig:
    max_iters: int = 2000
    grad_tol: float = 1e-6
    step_mode: str = "backtracking"
    gamma: float = 0.5
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
    factor_nnz: int = 0  # fill of the largest of their factors (SobolevSpace.factor_fills)
    factor_bytes: int = 0  # the bytes of that factor's values
    final: np.ndarray | None = None  # DOF vector of the last iterate
    converged: bool = False
    reason: str = ""
    iterations: int = 0
    q_hat: float | None = None
    wall_time: float = 0.0
    iterates: list[np.ndarray] | None = None  # DOF vectors of the accepted iterates

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
                         "refinements": self.refinements, "factor_nnz": self.factor_nnz,
                         "factor_bytes": self.factor_bytes},
        }


def default_start(params: FunctionalParams, solver: str) -> np.ndarray:
    """Where a solve given no start begins: for Gauss-Newton ("direct") the
    trace data with zero free DOFs, which factorizes nothing; for the gradient
    the data extension, made after the G_ff factor the Riesz solves keep."""
    if solver == "direct":
        return params.impose_dofs(np.zeros(params.mask.dofs.size))
    space = params.space
    space.constrained_solver()  # kept for the Riesz solves; the extension reuses it
    start = data_extension(space, params.data)
    params.check_dofs(start, "starting field")
    return start


def run(params: FunctionalParams, start: np.ndarray | None, config: OptimizerConfig,
        solver: str = "gradient") -> RunReport:
    """Minimize J from the DOF vector `start` by the damped descent u + t d;
    start None is the solver's own start (default_start).

    d is the negative H^k (Sobolev) gradient (solver "gradient") or the
    Gauss-Newton step (solver "direct"): (L^T W L + beta G) d = -grad J / 2 on
    the free DOFs, L the residual's linearization at u, summed into beta G_ff
    from L's stencil rows (SobolevSpace.solve). Both are zero-trace, so the
    constraint holds exactly. The slope -grad J . d is the Armijo slope and
    the recorded norm squared (for the gradient, its dual norm). The
    gradient's line search starts from twice the last step, Gauss-Newton's
    from the full step. For an affine residual J is quadratic and a full
    Gauss-Newton step is exact: the run ends there, converged, with 0
    iterations. A fixed step applies to the gradient only: "direct" with
    step_mode "fixed" is refused with ConfigError. Otherwise the run ends on
    grad_tol, max_iters, a ball exit under reject_step, or a step along
    which J does not decrease: no trial passes the strict Armijo test, or
    one leaves u bit-identical (below its rounding level). Only a result
    past the float range raises SolverError.

    Iterates and `final` are DOF vectors; `factorizations` and `refinements`
    count the space's work during this call, the start's included, and
    `factor_nnz` and `factor_bytes` are the largest factor it made.
    `gradients` (and `iterations`, but 0 after the exact step) is
    len(grad_norm_history); a run that ends on a step (the cap, the exact
    step) ends j_history with that step's J.
    halvings_history counts each line search's evaluated, rejected trials,
    the last one's too when J does not decrease, so that `evaluations` is
    1 + len(step_history) + sum(halvings_history) on every ending. Each
    iterate is evaluated once, its gradient and H^k norm reusing the
    evaluation, which keeps only its floats once d is formed; a rejected
    trial is released before the next.
    """
    if solver not in SOLVERS:
        raise ConfigError(f"unknown solver {solver!r}")
    fixed = config.step_mode == "fixed"
    if fixed and solver == "direct":
        raise ConfigError("solver 'direct' takes no step_mode 'fixed': its line search "
                          "tries the full Gauss-Newton step first")
    t0 = time.perf_counter()
    space = params.space
    work = space.factorizations, space.refinements, len(space.factor_fills)
    gauss_newton = solver == "direct"
    if start is None:
        u = default_start(params, solver)
    else:
        params.check_dofs(start, "starting field")
        u = params.impose_dofs(np.array(start, dtype=float))
    report = RunReport(iterates=[] if config.store_iterates else None)
    exact = gauss_newton and (params.op.lower is None or params.op.lower.f.affine)
    free = params.mask.free_pos

    j = evaluate(params, u)
    report.evaluations = 1
    t = 1.0  # the last accepted step: the gradient's line search starts from twice it
    warned_radius = False

    for it in range(config.max_iters):
        if gauss_newton:
            rhs = -0.5 * gradient(params, j)[free]
            j.residual = j.differences = j.euclidean_gradient = None  # not held in the solve
            d_free = space.solve(rhs, params.beta,
                                 normal=(params.stencil.linearize(u), params.core_weight))
            with np.errstate(all="ignore"):
                slope = 2.0 * float(rhs @ d_free)
            d = np.zeros_like(u)
            d[free] = d_free
        else:
            d = gradient(params, j, "sobolev")
            with np.errstate(all="ignore"):
                slope = float(np.sum(j.euclidean_gradient * d))  # the dual norm, squared
            np.negative(d, out=d)
        # an entry of d past the float range leaves the slope so too (0 * inf is NaN)
        finite(slope, "squared gradient norm",
               lambda: params.cause(np.max(params.stencil.residual(u)**2), np.max(u * u)))
        # only the floats J and norm_sq of the accepted point are read from here on
        j.residual = j.differences = j.euclidean_gradient = None
        gnorm = float(np.sqrt(max(slope, 0.0)))
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

        t = config.gamma if fixed else 1.0 if gauss_newton else min(1.0, t * 2.0)
        while not fixed and ARMIJO_C * t * slope > j:  # no trial J >= 0 passes Armijo here
            t *= SHRINK
        halvings = 0  # the evaluated trials that were rejected
        while halvings < (1 if fixed else MAX_HALVINGS):
            u_try = params.impose_dofs(u + t * d)
            if np.array_equal(u_try, u):  # below u's rounding level, as is every shorter step
                u_try = None
                break
            j_try = evaluate(params, u_try)
            report.evaluations += 1
            if j_try < j and j_try <= j - ARMIJO_C * t * slope:
                break
            u_try = j_try = None  # rejected: not held through the next trial
            halvings += 1
            t *= SHRINK
        report.halvings_history.append(halvings)
        if u_try is None:  # u unmoved, or every trial rejected
            with np.errstate(all="ignore"):  # J's rounding grows with the weight span
                span = np.log(np.max(params.core_weight) / np.min(params.core_weight))
            report.reason = (f"J does not decrease along the step at iteration {it} (J={j:.6g}, "
                             f"|g|={gnorm:.3g}, lambda={params.lam:g}, "
                             f"core-weight span e^{span:.3g})")
            break
        report.step_history.append(t)
        u, j = u_try, j_try
        if exact and t == 1.0:
            report.converged = True
            report.reason = EXACT_STEP
            report.j_history.append(float(j))
            break
    else:
        report.reason = "iteration cap reached"
        report.j_history.append(float(j))  # J of the last accepted step

    report.final = u
    report.gradients = len(report.grad_norm_history)
    report.iterations = 0 if report.reason == EXACT_STEP else report.gradients
    report.factorizations = space.factorizations - work[0]
    report.refinements = space.refinements - work[1]
    report.factor_nnz, report.factor_bytes = max(space.factor_fills[work[2]:], default=(0, 0))
    report.wall_time = time.perf_counter() - t0
    if report.converged and report.iterates is not None and len(report.iterates) >= 7:
        try:
            report.q_hat = convergence_ratio(space, report.iterates, report.final)
        except SolverError:
            report.q_hat = None
    return report


def convergence_ratio(space: SobolevSpace, iterates: Sequence[np.ndarray],
                      reference: np.ndarray) -> float:
    """Fitted per-iteration contraction of ||u_n - reference|| in `space`'s norm,
    u_n the DOF vectors `iterates` in order and `reference` a DOF vector.

    Least-squares slope of the log-error over the linear-decay tail; the
    returned q_hat is exp(slope). Needs at least 5 usable tail iterates.
    """
    errs = np.asarray([space.norm(v - reference) for v in iterates])
    floor = max(errs.max() * 1e-14, 1e-300)
    usable = np.flatnonzero(errs > floor)
    if usable.size < 5:
        raise SolverError(f"only {usable.size} tail iterates with measurable error; need >= 5")
    tail = usable[-max(5, usable.size // 2):]
    n = tail.astype(float)
    y = np.log(errs[tail])
    slope = float(np.polyfit(n, y, 1)[0])
    return float(np.exp(slope))


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
                          lambdas: Sequence[float]) -> list[CertificateReport]:
    """Sample the Bregman gap on random admissible pairs inside the H^k ball,
    at each lambda of a sweep, beta kept as it is.

    Every lambda scores the same pairs: they are drawn once, PAIRS_PER_DRAW
    pairs per draw_in_ball call (which leaves the draws as they are one at a
    time), each lambda's data weight is computed once, and everything but
    the weighted data terms is computed once per pair. A pair fails at a
    lambda when its gap < (beta/2) * ||u2 - u1||^2_{H^k}. The H^1 term over the inner subdomain is
    recorded but not asserted against (its constant is not constructive).
    Deterministic under the seed; one report per lambda, each equal to a
    single-lambda run at that lambda.
    """
    if samples < 1:
        raise ConfigError(f"certificate needs at least one sample, got {samples}")
    lambdas = list(lambdas)
    if not lambdas:
        raise ConfigError("certificate needs at least one lambda")
    core_weights = [params.core_weight_at(lam) for lam in lambdas]
    rng = np.random.default_rng(seed)
    base = data_extension(params.space, params.data)
    with np.errstate(all="ignore"):
        base_norm = finite(params.space.norm(base), "H^k norm of the data extension", params.cause)
    gaps, h1s, hks = [], [], []
    for first in range(0, samples, PAIRS_PER_DRAW):
        drawn = draw_in_ball(params, radius, rng, base, base_norm,
                             2 * min(PAIRS_PER_DRAW, samples - first))
        for u1, u2 in zip(drawn[0::2], drawn[1::2]):
            gaps_by_lambda, h1_inner, hk_full = bregman_gap(params, u1, u2, core_weights)
            gaps.append(gaps_by_lambda)
            h1s.append(h1_inner)
            hks.append(hk_full)
        del drawn, u1, u2  # spent: not held through the next draw
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
