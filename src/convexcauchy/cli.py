"""Command-line entry points: solve, certify, gradcheck, sweep.

Exit codes: 0 success, 1 usage/config error, 2 numerical failure,
3 I/O error.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time

import numpy as np

from .errors import ConfigError, ConvexCauchyError, GeometryError
from .functional import data_extension, evaluate, gradient
from .harness import (
    ProblemSetup,
    emit_report,
    error_norms,
    field_table,
    history_table,
    load_problem,
)
from .optimizer import convexity_certificate, run
from .sampling import random_smooth_values
from .weights import weight_extrema

logger = logging.getLogger(__name__)

GRADCHECK_DIRECTIONS = 10
GRADCHECK_SEED = 2024
GRADCHECK_REL_TOL = 1e-6


def _base_report(setup: ProblemSetup, command: str) -> dict:
    w_min, w_max, w_argmin = weight_extrema(setup.mask, setup.params.lam)
    return {
        "command": command,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": setup.config,
        "beta": setup.beta,
        "mask_counts": setup.mask.counts,
        "log_weight": {"min": w_min, "max": w_max, "argmin_label": w_argmin.name.lower()},
    }


def cmd_solve(setup: ProblemSetup, args) -> int:
    report = _base_report(setup, "solve")
    run_report = run(setup.params, None, setup.opt_config, setup.solver)
    report["run"] = run_report.to_dict()
    run_report.iterates = None  # q_hat is reported: the stored iterates are spent
    report["errors"] = error_norms(setup, run_report.final)
    report["history"] = history_table(run_report)
    report["field"] = field_table(setup, run_report.final)
    emit_report(report, setup.output_dir)
    if not run_report.converged:
        logger.error("solver did not converge: %s", report["run"]["reason"])
        return 2
    return 0


def _certificates(setup: ProblemSetup, lambdas: list[float], report: dict) -> list[dict]:
    """Run the certificate at every lambda on one draw stream; record the
    reports and the phase's wall time in `report`."""
    t0 = time.perf_counter()
    cert = setup.certificate
    results = [r.to_dict() for r in convexity_certificate(
        setup.params, radius=cert["radius"], samples=cert["samples"], seed=cert["seed"],
        lambdas=lambdas,
    )]
    report["certificates"] = results
    report["wall_time"] = time.perf_counter() - t0
    return results


def cmd_certify(setup: ProblemSetup, args) -> int:
    report = _base_report(setup, "certify")
    results = _certificates(setup, [setup.params.lam], report)
    emit_report(report, setup.output_dir)
    passed = results[0]["passed"]
    print(f"certificate lambda={setup.params.lam:g}: "
          f"{'PASS' if passed else 'FAIL'} ({results[0]['failures']} failures, "
          f"min margin {results[0]['min_margin']:.4g})")
    if args.require_certificate and not passed:
        return 2
    return 0


def cmd_sweep(setup: ProblemSetup, args) -> int:
    lambdas = setup.certificate["lambdas"] if args.lambdas is None else args.lambdas
    report = _base_report(setup, "sweep")
    results = _certificates(setup, lambdas, report)
    lambda1 = min((r["lambda"] for r in results if r["passed"]), default=None)
    report["lambda1"] = lambda1
    emit_report(report, setup.output_dir)
    for r in results:
        print(f"lambda={r['lambda']:g}: failures={r['failures']}/{r['samples']} "
              f"min_margin={r['min_margin']:.4g}")
    if lambda1 is None:
        print("no certificate-passing lambda in the sweep")
        if args.require_certificate:
            return 2
    else:
        print(f"smallest passing lambda: {lambda1:g}")
    return 0


def cmd_gradcheck(setup: ProblemSetup, args) -> int:
    params = setup.params
    rng = np.random.default_rng(GRADCHECK_SEED)
    u = data_extension(setup.space, setup.params.data)
    g = gradient(params, evaluate(params, u))
    free = setup.mask.free_pos.size
    worst = 0.0
    for _ in range(GRADCHECK_DIRECTIONS):
        h = random_smooth_values(setup.mask, rng.standard_normal((free, 1)))[0]
        delta = 1e-5 * max(1.0, float(np.max(np.abs(u))))
        fd = (evaluate(params, u + delta * h) - evaluate(params, u - delta * h)) / (2 * delta)
        an = float(np.sum(g * h))
        rel = abs(fd - an) / max(1.0, abs(an))
        worst = max(worst, rel)
    report = _base_report(setup, "gradcheck")
    report["gradcheck"] = {
        "directions": GRADCHECK_DIRECTIONS,
        "max_rel_error": worst,
        "tolerance": GRADCHECK_REL_TOL,
    }
    emit_report(report, setup.output_dir)
    print(f"gradcheck max relative error {worst:.3e} (tol {GRADCHECK_REL_TOL:g})")
    return 0 if worst < GRADCHECK_REL_TOL else 2


def _parse_lambdas(text: str) -> list[float]:
    try:
        lambdas = [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad --lambda list {text!r}: {exc}") from exc
    if not lambdas:
        raise argparse.ArgumentTypeError(f"--lambda list {text!r} names no lambda")
    if not all(np.isfinite(lam) and lam >= 1.0 for lam in lambdas):
        raise argparse.ArgumentTypeError(f"{text!r}: each lambda must be a finite number >= 1")
    return lambdas


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convexcauchy",
        description="Carleman-weighted convexification solver for ill-posed Cauchy problems",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("solve", "reconstruct the field from Cauchy data"),
        ("certify", "run the convexity certificate at the configured lambda"),
        ("gradcheck", "compare the assembled gradient against finite differences"),
        ("sweep", "run the certificate across a lambda list"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("config", help="problem definition JSON file")
        p.add_argument("--out", help="override the output directory")
        if name in ("certify", "sweep"):
            p.add_argument("--require-certificate", action="store_true",
                           help="exit 2 when the certificate fails")
        if name == "sweep":
            p.add_argument("--lambda", dest="lambdas", type=_parse_lambdas, default=None,
                           help="comma-separated lambda values, e.g. 1,2,4,8")
    return parser


_COMMANDS = {
    "solve": cmd_solve,
    "certify": cmd_certify,
    "gradcheck": cmd_gradcheck,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        setup = load_problem(args.config)
        if args.out:
            setup.output_dir = type(setup.output_dir)(args.out)
        return _COMMANDS[args.command](setup, args)
    except (ConfigError, GeometryError) as exc:
        logger.error("config error: %s", exc)
        return 1
    except MemoryError as exc:  # arrays are sized by the config's grid
        logger.error("out of memory: %s", exc)
        return 1
    except ConvexCauchyError as exc:
        logger.error("numerical failure: %s", exc)
        return 2
    except OSError as exc:
        logger.error("i/o failure: %s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
