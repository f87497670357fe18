"""Problem definitions, noise injection, error norms, and report emission.

Problems are described by a single JSON file. A minimal config names a
manufactured case; every geometric and solver knob can be overridden:

    {
      "case": "ELL2D-HARMONIC",
      "grid": {"resolution": [33, 33]},
      "weight": {"lambda": 2.0},
      "functional": {"beta": 5e-3, "beta_policy": "keep"},
      "solver": "direct",
      "output_dir": "runs/demo"
    }

The effective (fully defaulted) configuration is echoed into report.json
under "config", as config keys only, so `build_setup(report["config"])`
rebuilds the same problem. A data file is echoed by its path, so the file
must still be there, and relative to the same working directory; the output
directory is not echoed. Custom operators can be declared with expression
strings over the node coordinates (names x0, x1, ..., and t for the last axis
of time-dependent families), made of numbers, pi, e, + - * / **, unary minus
and calls of the functions in _EXPR_FUNCTIONS; nothing else is evaluated.
"""

from __future__ import annotations

import ast
import csv
import json
import logging
import math
import operator
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import catalog
from .errors import ConfigError
from .functional import CauchyData, FunctionalParams, beta_window, data_extension
from .grid import DomainMask, Field, Grid, Label, LevelSpec, build_grid, classify_nodes
from .operators import (
    QuasilinearOperator,
    lower_cubic,
    lower_grad_sq,
    lower_sine,
    lower_source,
    validate_lower_term,
    validate_operator,
)
from .optimizer import OptimizerConfig
from .sobolev import SobolevSpace
from .weights import WeightSpec

logger = logging.getLogger(__name__)

SCHEMA_VERSION = "1"

_EXPR_CONSTANTS = {"pi": math.pi, "e": math.e}
_EXPR_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "tanh": np.tanh,
    "cosh": np.cosh,
    "sinh": np.sinh,
}
_EXPR_BINARY = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}
_COORDINATE = re.compile(r"x\d+|t")


def _parse_expression(expr: str) -> ast.expr:
    """Syntax tree of a coordinate expression such as "(x0**2 + 1)**3 - 2".

    Allowed: int and float literals, the names x0, x1, ..., t, pi and e, the
    functions of _EXPR_FUNCTIONS called with positional arguments, the binary
    operators + - * / **, unary minus and parentheses. Anything else raises
    ConfigError, so an expression cannot reach attributes, subscripts,
    keyword arguments, lambdas or comprehensions.
    """
    if not isinstance(expr, str):
        raise ConfigError(f"expression {expr!r} is not a string")
    try:
        tree = ast.parse(expr.strip(), mode="eval").body
        _check_node(tree, expr)
    except (SyntaxError, ValueError) as exc:  # ValueError: a null byte
        raise ConfigError(f"cannot evaluate expression {expr!r}: {exc}") from exc
    except (MemoryError, RecursionError) as exc:  # the parser's nesting limits
        raise ConfigError(f"expression {expr[:40]!r}... is nested too deeply") from exc
    return tree


def _check_node(node: ast.AST, expr: str) -> None:
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return
    if isinstance(node, ast.Name) and (node.id in _EXPR_CONSTANTS
                                       or _COORDINATE.fullmatch(node.id)):
        return
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_BINARY:
        _check_node(node.left, expr)
        _check_node(node.right, expr)
        return
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        _check_node(node.operand, expr)
        return
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _EXPR_FUNCTIONS and not node.keywords):
        for arg in node.args:
            _check_node(arg, expr)
        return
    raise ConfigError(f"cannot evaluate expression {expr!r}: "
                      f"{ast.unparse(node)!r} is not allowed")


def _evaluate_node(node: ast.expr, names: dict):
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        if node.id not in names:
            raise NameError(f"unknown name {node.id!r}")
        return names[node.id]
    if isinstance(node, ast.BinOp):
        left = _evaluate_node(node.left, names)
        return _EXPR_BINARY[type(node.op)](left, _evaluate_node(node.right, names))
    if isinstance(node, ast.UnaryOp):
        return -_evaluate_node(node.operand, names)
    # a call of a function that _parse_expression has checked
    return _EXPR_FUNCTIONS[node.func.id](*[_evaluate_node(arg, names) for arg in node.args])


def evaluate_expression(expr: str | ast.expr, points: np.ndarray,
                        time_axis: bool) -> np.ndarray:
    """Evaluate a coordinate expression (text, or a tree from _parse_expression)
    on points; x_j is coordinate j and t the last coordinate of a
    time-dependent family."""
    tree = _parse_expression(expr) if isinstance(expr, str) else expr
    names = dict(_EXPR_CONSTANTS)
    for j in range(points.shape[-1]):
        names[f"x{j}"] = points[..., j]
    if time_axis:
        names["t"] = points[..., -1]
    try:
        out = _evaluate_node(tree, names)
    except (ArithmeticError, NameError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot evaluate expression {ast.unparse(tree)!r}: {exc}") from exc
    return np.broadcast_to(np.asarray(out, dtype=float), points.shape[:-1]).copy()


def _expr_fn(expr: str, time_axis: bool):
    tree = _parse_expression(expr)
    return lambda points: evaluate_expression(tree, points, time_axis)


# ---------------------------------------------------------------------------
# config schema


_TOP_KEYS = {
    "case", "family", "grid", "level", "operator", "weight", "functional",
    "data", "optimizer", "certificate", "solver", "output_dir",
}
_SECTION_KEYS = {
    "grid": {"bounds", "resolution"},
    "level": {"a", "c", "nu", "x_width", "t_span", "eta", "x0", "epsilon", "xi"},
    "operator": {"id", "q", "b", "principal", "mu", "a_bounds"},
    "weight": {"lambda"},
    "functional": {"beta", "beta_policy", "order"},
    "data": {"file", "noise_level", "noise_seed"},
    "optimizer": set(OptimizerConfig.__dataclass_fields__),
    "certificate": {"radius", "samples", "seed", "lambdas"},
}


def _require(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"config field {path}: {msg}")


def _get_section(cfg: dict, name: str) -> dict:
    section = cfg.get(name, {})
    _require(isinstance(section, dict), name, "must be an object")
    unknown = sorted(set(section) - _SECTION_KEYS[name])
    _require(not unknown, ",".join(f"{name}.{key}" for key in unknown), "unknown keys")
    return dict(section)


@dataclass(eq=False)
class ProblemSetup:
    """A fully resolved problem: geometry, operator, functional, solver knobs."""

    config: dict
    case: catalog.ManufacturedCase | None
    grid: Grid
    mask: DomainMask
    op: QuasilinearOperator
    weight: WeightSpec
    space: SobolevSpace
    params: FunctionalParams
    opt_config: OptimizerConfig
    solver: str
    u_star: Field | None
    clean_data: CauchyData
    beta: dict  # requested and effective beta, and the admissible window
    certificate: dict
    gradcheck: dict
    output_dir: Path


def load_problem(path: str | Path) -> ProblemSetup:
    """Parse, validate, and resolve a problem definition file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    _require(isinstance(cfg, dict), "<root>", "must be a JSON object")
    return build_setup(cfg)


def build_setup(cfg: dict) -> ProblemSetup:
    unknown = set(cfg) - _TOP_KEYS
    _require(not unknown, ",".join(sorted(unknown)), "unknown top-level keys")

    case = None
    if "case" in cfg:
        _require(isinstance(cfg["case"], str), "case", "must be a string id")
        case = catalog.get_case(cfg["case"])

    family = cfg.get("family", case.family if case else None)
    _require(family is not None, "family", "required when no case is given")

    grid_cfg = _get_section(cfg, "grid")
    bounds = grid_cfg.get("bounds", list(case.bounds) if case else None)
    resolution = grid_cfg.get("resolution", list(case.resolution) if case else None)
    _require(bounds is not None and resolution is not None, "grid",
             "bounds and resolution required when no case is given")
    grid = build_grid(bounds, resolution)
    _require(case is None or grid.dim == case.dim, "grid.resolution",
             f"case {case.id if case else ''} needs {case.dim if case else 0} axes")

    level = _resolve_level(cfg, case, family, grid)
    mask = classify_nodes(grid, level)

    op = _resolve_operator(cfg, case, family, grid)
    validate_operator(op, mask)
    if op.lower is not None:
        validate_lower_term(
            op.lower, grid.coords()[mask.is_core], op.n_spatial, np.random.default_rng(1234)
        )

    weight_cfg = _get_section(cfg, "weight")
    lam = float(weight_cfg.get("lambda", case.lam if case else 2.0))
    weight = WeightSpec(level=mask.level, lam=lam)

    fun_cfg = _get_section(cfg, "functional")
    order = fun_cfg.get("order")
    space = SobolevSpace(mask, order=int(order) if order is not None else None)
    beta = float(fun_cfg.get("beta", case.beta if case else 1e-3))
    beta_policy = fun_cfg.get("beta_policy", "clamp")

    data_cfg = _get_section(cfg, "data")
    noise_level = float(data_cfg.get("noise_level", 0.0))
    noise_seed = int(data_cfg.get("noise_seed", 0))
    _require(noise_level >= 0.0, "data.noise_level", "must be >= 0")

    u_star = None
    if "file" in data_cfg:
        clean = load_cauchy_csv(Path(data_cfg["file"]), mask)
    else:
        _require(case is not None, "data", "needs a case id or a data file")
        u_star, clean = catalog.cauchy_data_from_case(case.id, grid, mask)

    g0, g1 = add_noise(clean.g0, clean.g1, noise_level, noise_seed)
    params = FunctionalParams(
        op=op, weight=weight, mask=mask, space=space, beta=beta, data=CauchyData(g0, g1),
        beta_policy=beta_policy,
    )

    opt_config = OptimizerConfig(**_get_section(cfg, "optimizer"))

    solver = cfg.get("solver", "gradient")
    _require(solver in ("gradient", "direct"), "solver", "must be 'gradient' or 'direct'")

    cert_cfg = _get_section(cfg, "certificate")
    lambdas = cert_cfg.get("lambdas", [1.0, 2.0, 4.0, 8.0])
    _require(isinstance(lambdas, list) and len(lambdas) > 0, "certificate.lambdas",
             "must be a non-empty list of lambda values")
    try:
        lambdas = [float(x) for x in lambdas]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field certificate.lambdas: {exc}") from exc
    cert = {
        "radius": float(cert_cfg.get("radius", 5.0)),
        "samples": int(cert_cfg.get("samples", 50)),
        "seed": int(cert_cfg.get("seed", 7)),
        "lambdas": lambdas,
    }

    gradcheck = {
        "directions": 10,
        "rel_tol": 1e-6,
        "seed": 2024,
    }

    # config keys only, each at the value the run used
    effective = {
        "family": family,
        "grid": {"bounds": [[float(lo), float(hi)] for lo, hi in bounds],
                 "resolution": list(grid.shape)},
        "level": _level_to_dict(mask.level, cfg.get("level", {})),
        "weight": {"lambda": lam},
        "functional": {"beta": params.beta, "beta_policy": beta_policy, "order": space.order},
        "data": {"noise_level": noise_level, "noise_seed": noise_seed},
        "optimizer": {k: getattr(opt_config, k) for k in _SECTION_KEYS["optimizer"]},
        "certificate": cert,
        "solver": solver,
    }
    if case is not None:
        effective["case"] = case.id
    if "operator" in cfg:
        effective["operator"] = cfg["operator"]
    if "file" in data_cfg:
        effective["data"]["file"] = data_cfg["file"]
    logger.info("resolved problem: %s", json.dumps(effective, sort_keys=True, default=str))

    return ProblemSetup(
        config=effective, case=case, grid=grid, mask=mask, op=op, weight=weight,
        space=space, params=params, opt_config=opt_config, solver=solver,
        u_star=u_star, clean_data=clean,
        beta={"requested": beta, "effective": params.beta,
              "window": list(beta_window(lam, mask.epsilon))},
        certificate=cert, gradcheck=gradcheck,
        output_dir=Path(cfg.get("output_dir", "runs")),
    )


def _level_to_dict(level: LevelSpec, level_cfg: dict) -> dict:
    out = {"c": level.c, "epsilon": level.epsilon}
    if level.family in ("elliptic", "parabolic"):
        out.update({"a": level.a, "nu": level.nu, "x_width": level.x_width})
    if level.family == "parabolic":
        out["t_span"] = level.t_span
    if level.family == "hyperbolic":
        out.update({"eta": level.eta, "x0": list(level.x0)})
    if level.family == "generic":
        out["xi"] = level_cfg["xi"]
    return out


def _resolve_level(cfg: dict, case, family: str, grid: Grid) -> LevelSpec:
    level_cfg = _get_section(cfg, "level")
    base = case.level if case else None
    if base is not None and base.family != family:
        base = None
    if base is not None and not level_cfg:
        return base

    def pick(key, default):
        if key in level_cfg:
            return level_cfg[key]
        if base is not None:
            return getattr(base, key)
        return default

    kwargs = dict(
        family=family,
        a=float(pick("a", 0.25)),
        c=float(pick("c", 0.45)),
        nu=float(pick("nu", 2.0)),
        x_width=float(pick("x_width", 1.0)),
        t_span=float(pick("t_span", 1.0)),
        eta=float(pick("eta", 0.5)),
        x0=tuple(pick("x0", ())),
        epsilon=(None if pick("epsilon", None) is None else float(pick("epsilon", None))),
    )
    if family == "generic":
        expr = level_cfg.get("xi")
        _require(expr is not None, "level.xi", "generic family needs a level expression")
        kwargs["xi_fn"] = _expr_fn(expr, time_axis=False)
    return LevelSpec(**kwargs)


_OPERATOR_IDS = ("linear", "source", "cubic", "sine", "gradsq")


def _resolve_operator(cfg: dict, case, family: str, grid: Grid) -> QuasilinearOperator:
    op_cfg = _get_section(cfg, "operator")
    if not op_cfg and case is not None:
        return case.make_operator()
    _require(bool(op_cfg) or case is not None, "operator", "required when no case is given")

    op_id = op_cfg.get("id", "linear")
    _require(op_id in _OPERATOR_IDS, "operator.id",
             f"unknown catalog id {op_id!r}; available: {_OPERATOR_IDS}")
    op_family = "elliptic" if family == "generic" else family
    time_axis = op_family in ("parabolic", "hyperbolic")

    q_expr = op_cfg.get("q", "0")
    if op_id == "linear":
        lower = None
    elif op_id == "source":
        lower = lower_source(_expr_fn(q_expr, time_axis))
    elif op_id == "cubic":
        lower = lower_cubic(_expr_fn(q_expr, time_axis))
    elif op_id == "sine":
        lower = lower_sine(_expr_fn(q_expr, time_axis))
    else:
        lower = lower_grad_sq(_expr_fn(op_cfg.get("b", "1"), time_axis), _expr_fn(q_expr, time_axis))

    principal = None
    if "principal" in op_cfg:
        exprs = op_cfg["principal"]
        n = grid.dim if op_family == "elliptic" else grid.dim - 1
        if op_family == "hyperbolic":
            _require(isinstance(exprs, str), "operator.principal",
                     "hyperbolic principal is a single wave-coefficient expression")
            principal = _expr_fn(exprs, time_axis)
        else:
            _require(
                isinstance(exprs, list) and len(exprs) == n and all(len(r) == n for r in exprs),
                "operator.principal", f"needs an {n}x{n} matrix of expressions",
            )
            fns = [[_expr_fn(str(e), time_axis) for e in row] for row in exprs]

            def principal(points, _fns=fns, _n=n):
                out = np.empty(points.shape[:-1] + (_n, _n))
                for i in range(_n):
                    for j in range(_n):
                        out[..., i, j] = _fns[i][j](points)
                return out

    mu = op_cfg.get("mu", [1.0, 1.0])
    a_bounds = op_cfg.get("a_bounds", [1.0, 1.0])
    return QuasilinearOperator(
        family=op_family, dim=grid.dim, principal=principal, lower=lower,
        mu1=float(mu[0]), mu2=float(mu[1]), a_lo=float(a_bounds[0]), a_hi=float(a_bounds[1]),
    )


# ---------------------------------------------------------------------------
# noise and data files


def add_noise(g0: np.ndarray, g1: np.ndarray, level: float, seed: int
              ) -> tuple[np.ndarray, np.ndarray]:
    """Additive Gaussian noise with std = level * rms of the combined data.

    Deterministic under the seed; level 0 returns the inputs unchanged.
    """
    if level < 0:
        raise ConfigError(f"noise level must be >= 0, got {level}")
    if level == 0.0:
        return g0, g1
    stacked = np.concatenate([np.ravel(g0), np.ravel(g1)])
    rms = float(np.sqrt(np.mean(stacked**2)))
    rng = np.random.default_rng(seed)
    sigma = level * rms
    return (
        g0 + sigma * rng.standard_normal(np.shape(g0)),
        g1 + sigma * rng.standard_normal(np.shape(g1)),
    )


def load_cauchy_csv(path: Path, mask: DomainMask) -> CauchyData:
    """Plain CSV trace data: columns layer (g0|g1), flat node index, value.

    g0 rows must cover every value-layer node and g1 rows every
    derivative-layer node; rows on other nodes are ignored with a warning.
    """
    n = mask.grid.node_count
    values = {"g0": np.zeros(n), "g1": np.zeros(n)}
    seen = {"g0": np.zeros(n, bool), "g1": np.zeros(n, bool)}
    try:
        with open(path, newline="") as fh:
            for line, row in enumerate(csv.DictReader(fh), start=2):
                which = row["layer"].strip()
                idx = int(row["index"])
                val = float(row["value"])
                if which not in values:
                    raise ConfigError(f"data file {path}, line {line}: layer {which!r} "
                                      "is neither 'g0' nor 'g1'")
                if not 0 <= idx < n:
                    raise ConfigError(f"data file {path}, line {line}: index {idx} "
                                      f"outside the grid's {n} nodes")
                values[which][idx] = val
                seen[which][idx] = True
    except OSError as exc:
        raise ConfigError(f"cannot read data file {path}: {exc}") from exc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed data file {path}: {exc}") from exc
    ignored = 0
    for name, layer in (("g0", mask.value_layer), ("g1", mask.deriv_layer)):
        on = layer.ravel()
        covered = int(np.sum(seen[name][on]))
        if covered < on.sum():
            raise ConfigError(f"data file {path} gives {name} on {covered} "
                              f"of the {int(on.sum())} nodes of its trace layer")
        ignored += int(np.sum(seen[name][~on]))
    if ignored:
        logger.warning("data file %s: ignored %d rows off their trace layer", path, ignored)
    return CauchyData(g0=values["g0"][mask.value_layer.ravel()],
                      g1=values["g1"][mask.deriv_layer.ravel()])


# ---------------------------------------------------------------------------
# error norms and reports


def error_norms(setup: ProblemSetup, u: Field) -> dict | None:
    """Relative L2/H1/H^k errors of u against the exact solution, on the full
    masked subdomain and on the inner window where the stability estimate is
    strongest."""
    if setup.u_star is None:
        return None
    mask = setup.mask
    diff = np.where(mask.in_mask, u.values - setup.u_star.values, 0.0)
    star = np.where(mask.in_mask, setup.u_star.values, 0.0)
    # the inner window is the fixed region above the raised threshold, sampled
    # by level value so refinement studies compare like with like
    window = mask.in_mask & (mask.ell > mask.theta + 2 * mask.epsilon)
    out = {}
    for region, subset in (("subdomain", mask.in_mask), ("inner", window)):
        for name, order in (("l2", None), ("h1", 1), ("hk", setup.space.order)):
            space = SobolevSpace(mask, order=order if order else 1, node_subset=subset)
            if order is None:
                num = float(np.sqrt(np.sum(diff**2 * space.weights)))
                den = float(np.sqrt(np.sum(star**2 * space.weights)))
            else:
                num = space.norm(mask.gather(diff))
                den = space.norm(mask.gather(star))
            out[f"{name}_{region}"] = num / den if den > 0 else float("nan")
    return out


def field_table(setup: ProblemSetup, u: Field) -> list[dict]:
    """One row per masked node: coordinates, label, u, exact value, error."""
    inside = setup.mask.in_mask
    columns = {f"x{j}": col for j, col in enumerate(setup.grid.coords()[inside].T.tolist())}
    label_names = np.array([label.name.lower() for label in sorted(Label)])
    columns["label"] = label_names[setup.mask.label[inside]].tolist()
    u_vals = u.values[inside]
    columns["u"] = u_vals.tolist()
    if setup.u_star is not None:
        star = setup.u_star.values[inside]
        columns["u_star"] = star.tolist()
        columns["abs_err"] = np.abs(u_vals - star).tolist()
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def emit_report(report: dict, out_dir: str | Path) -> list[Path]:
    """Write report.json plus history.csv / field.csv side tables.

    The `history` and `field` keys of the report, when present, are split off
    into CSV files; everything else lands in report.json (sorted keys, so
    identical runs produce identical bytes modulo the timestamp/wall-time
    entries).
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out_dir}: {exc}") from exc

    report = dict(report)
    report["schema_version"] = SCHEMA_VERSION
    history = report.pop("history", None)
    table = report.pop("field", None)
    written = []

    json_path = out_dir / "report.json"
    try:
        json_path.write_text(json.dumps(report, indent=2, sort_keys=True, default=str) + "\n")
        written.append(json_path)
        if history is not None:
            path = out_dir / "history.csv"
            _write_csv(path, history, ["iter", "j", "grad_norm", "step"])
            written.append(path)
        if table is not None:
            path = out_dir / "field.csv"
            _write_csv(path, table, list(table[0].keys()) if table else ["u"])
            written.append(path)
    except OSError as exc:
        raise OSError(f"cannot write report files under {out_dir}: {exc}") from exc
    logger.info("wrote %s", ", ".join(str(p) for p in written))
    return written


def _write_csv(path: Path, rows: list[dict], fieldnames: list[str]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def history_rows(run_report) -> list[dict]:
    """One row per J in the history; at the iteration cap the last row holds
    the J of the final step, with empty gradient-norm and step cells."""
    grads, steps = run_report.grad_norm_history, run_report.step_history
    return [
        {
            "iter": i,
            "j": j,
            "grad_norm": grads[i] if i < len(grads) else "",
            "step": steps[i] if i < len(steps) else "",
        }
        for i, j in enumerate(run_report.j_history)
    ]


def starting_field(setup: ProblemSetup) -> Field:
    """Default initial iterate: the smooth extension of the Cauchy data."""
    return Field(setup.grid, setup.mask.scatter(data_extension(setup.space, setup.params.data)))
