"""Problem definitions, noise injection, error norms, and report emission.

Problems are described by a single JSON file. A minimal config names a
manufactured case (catalog.CASES), itself a config plus its exact solution;
every key can be overridden:

    {
      "case": "ELL2D-HARMONIC",
      "grid": {"resolution": [33, 33]},
      "weight": {"lambda": 2.0},
      "functional": {"beta": 5e-3, "beta_policy": "keep"},
      "solver": "direct",
      "output_dir": "runs/demo"
    }

A key the config does not give takes the case's value, and otherwise the
constant default of its table: SCHEMA has one per config section, TOP_SCHEMA
the top level, and each gives a key its converter, which checks type and
range or choices, and its default. The case's level applies only to its own
family, and a non-empty operator section replaces the case's whole. The
tables reject unknown keys and bad values with ConfigError("config field
<section>.<key>: ..."), and checks across the keys of one section fail with
"config field <section>: ...". report.json echoes the converted sections
under "config", the case's operator included, without unset keys and the
output directory, so `build_setup(report["config"])` rebuilds the same
problem (a data file is echoed by its path and must still be there).
Expressions over the node coordinates (x0, x1, ..., and t for the last axis
of time-dependent families) may use numbers, pi, e, + - * / **, unary minus
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
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import catalog
from .errors import ConfigError, GeometryError
from .functional import BETA_POLICIES, CauchyData, FunctionalParams, beta_window, data_extension
from .grid import (FAMILIES, TIME_FAMILIES, DomainMask, Field, Grid, Label, LevelSpec,
                   build_grid, classify_nodes, coordinate_components)
from .operators import LOWER_TERMS, LowerOrderTerm, QuasilinearOperator, validate_operator
from .optimizer import RADIUS_POLICIES, SOLVERS, STEP_MODES, OptimizerConfig
from .sobolev import SobolevSpace

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
    if isinstance(node, ast.Constant):  # a float, so that 9**9**9 overflows at once
        return float(node.value)
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


def evaluate_expression(expr: str, points, time_axis: bool) -> np.ndarray:
    """Evaluate a coordinate expression on points, given as
    grid.coordinate_components takes them; x_j is coordinate j and t the
    last coordinate of a time-dependent family. A value that is not finite
    raises ConfigError, and so does an expression that the check takes but
    that is nested too deeply to evaluate at the caller's stack depth."""
    tree = _parse_expression(expr)
    names = dict(_EXPR_CONSTANTS)
    x = coordinate_components(points)
    for j, c in enumerate(x):
        names[f"x{j}"] = c
    if time_axis:
        names["t"] = x[-1]
    try:
        with np.errstate(all="ignore"):
            out = np.asarray(_evaluate_node(tree, names), dtype=float)
    except (ArithmeticError, NameError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot evaluate expression {expr!r}: {exc}") from exc
    except RecursionError as exc:  # the evaluation runs deeper in the stack than the check
        raise ConfigError(f"expression {expr[:40]!r}... is nested too deeply") from exc
    if not np.all(np.isfinite(out)):
        raise ConfigError(f"expression {expr!r} is not finite at every point")
    return np.broadcast_to(out, np.broadcast_shapes(*(c.shape for c in x))).copy()


def _expr_fn(expr: str, time_axis: bool, field: str | None = None):
    """The expression as a function of points; its evaluation errors name the
    config field, as a run evaluates it long after the config is loaded."""
    def evaluate(points):
        with _section(field) if field else nullcontext():
            return evaluate_expression(expr, points, time_axis)

    return evaluate


# ---------------------------------------------------------------------------
# config schema: one table per section, key -> (converter, default)


def _check(ok, what: str):
    """Converter that passes a value for which ok(value) holds."""
    def convert(value):
        if not ok(value):
            raise ConfigError(f"must be {what}, got {value!r}")
        return value

    return convert


def _number(kind: type, bound: str = "", ok=lambda v: True):
    """Converter to an int (50.0 counts, 2.5 does not) or a finite float for which ok(value)
    holds, `bound` saying what ok tests; bools and numeric strings are no numbers."""
    what = f"{'an integer' if kind is int else 'a finite number'} {bound}".rstrip()

    def convert(value):
        try:
            number = None if isinstance(value, bool) else kind(value)
        except (OverflowError, TypeError, ValueError):  # no number, NaN, infinite or huge
            number = None
        if number is None or number != value or abs(number) == math.inf or not ok(number):
            raise ConfigError(f"must be {what}, got {value!r}")
        return number

    return convert


def _list(item, min_len: int = 1):
    is_list = _check(lambda v: isinstance(v, (list, tuple)) and len(v) >= min_len,
                     f"a {'non-empty ' if min_len else ''}list")
    return lambda value: [item(entry) for entry in is_list(value)]


def _pair(item):
    is_pair = _check(lambda v: isinstance(v, (list, tuple)) and len(v) == 2, "a pair [lo, hi]")
    is_ordered = _check(lambda p: p[0] <= p[1], "a pair [lo, hi] with lo <= hi")
    return lambda value: is_ordered(_list(item)(is_pair(value)))


def _choice(options: tuple):
    return _check(lambda v: isinstance(v, str) and v in options, f"one of {'/'.join(options)}")


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def _principal(value):
    """A wave-coefficient expression, or a matrix whose entries are expressions
    or numbers (kept as text); _operator checks its size against the family."""
    entries = _list(_list(lambda e: _EXPR(str(e) if type(e) in (int, float) else e)))
    return _EXPR(value) if isinstance(value, str) else entries(value)


# _parse_expression raises ConfigError with the reason a string is no expression
_EXPR = _check(lambda v: _parse_expression(v) is not None, "an expression")
_FLOAT = _number(float)
_POSITIVE = _number(float, "> 0", lambda v: v > 0)
_NONNEGATIVE = _number(float, ">= 0", lambda v: v >= 0)
_AT_LEAST_ONE = _number(float, ">= 1", lambda v: v >= 1)
_UNIT = _number(float, "in (0, 1)", lambda v: 0 < v < 1)
_COUNT = _number(int, ">= 1", lambda v: v >= 1)
_SEED = _number(int, ">= 0", lambda v: v >= 0)

SCHEMA = {
    "grid": {
        "bounds": (_list(_pair(_FLOAT)), None),
        "resolution": (_list(_number(int, ">= 3", lambda v: v >= 3)), None),
    },
    "level": {
        "a": (_NONNEGATIVE, 0.25),
        "c": (_NONNEGATIVE, 0.45),
        "nu": (_AT_LEAST_ONE, 2.0),
        "x_width": (_POSITIVE, 1.0),
        "t_span": (_POSITIVE, 1.0),
        "eta": (_UNIT, 0.5),
        "x0": (_list(_FLOAT, min_len=0), ()),
        "epsilon": (_optional(_POSITIVE), None),
        "xi": (_optional(_EXPR), None),
    },
    "operator": {
        "id": (_choice(("linear", *LOWER_TERMS)), "linear"),
        "q": (_EXPR, "0"),
        "b": (_EXPR, "1"),
        "principal": (_principal, None),
    },
    "weight": {"lambda": (_AT_LEAST_ONE, 2.0)},
    "functional": {
        "beta": (_POSITIVE, 1e-3),
        "beta_policy": (_choice(BETA_POLICIES), "clamp"),
        "order": (_optional(_COUNT), None),
    },
    "data": {
        "file": (_check(lambda v: isinstance(v, str), "a string"), None),
        "noise_level": (_NONNEGATIVE, 0.0),
        "noise_seed": (_SEED, 0),
    },
    "optimizer": {key: (convert, getattr(OptimizerConfig, key)) for key, convert in {
        "max_iters": _COUNT, "grad_tol": _POSITIVE, "step_mode": _choice(STEP_MODES),
        "gamma": _POSITIVE, "radius": _NONNEGATIVE, "radius_policy": _choice(RADIUS_POLICIES),
        "store_iterates": _check(lambda v: isinstance(v, bool), "true or false"),
    }.items()} | {"mode": (_choice(("sobolev",)), "sobolev")},  # names the one descent geometry
    "certificate": {
        "radius": (_POSITIVE, 5.0),
        "samples": (_COUNT, 50),
        "seed": (_SEED, 7),
        "lambdas": (_list(_AT_LEAST_ONE), (1.0, 2.0, 4.0, 8.0)),
    },
}
TOP_SCHEMA = {
    "case": (_choice(tuple(catalog.CASES)), None),
    "family": (_choice(FAMILIES), None),
    "solver": (_choice(SOLVERS), "gradient"),
    "output_dir": (_check(lambda v: isinstance(v, str), "a string"), "runs"),
    **{name: (_check(lambda v: isinstance(v, dict), "an object"), {}) for name in SCHEMA},
}


def _require(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ConfigError(f"config field {path}: {msg}")


@contextmanager
def _section(name: str):
    """Name the section in the errors of a check across its keys; an error
    that already names its field keeps that name."""
    try:
        yield
    except (ConfigError, GeometryError) as exc:
        if str(exc).startswith("config field "):
            raise
        raise type(exc)(f"config field {name}: {exc}") from None


def _convert(given: dict, table: dict, section: str = "") -> dict:
    """Every key of `table` at its converted value: the given one, else the
    table's default. Unknown keys and bad values raise ConfigError naming
    <section>.<key>."""
    prefix = f"{section}." if section else ""
    unknown = sorted(set(given) - set(table))
    _require(not unknown, ",".join(prefix + key for key in unknown), "unknown keys")
    out = {}
    for key, (convert, default) in table.items():
        value = given.get(key, default)
        if key in given or value is not None:
            try:
                value = convert(value)
            except ConfigError as exc:
                raise ConfigError(f"config field {prefix}{key}: {exc}") from None
        out[key] = value
    return out


@dataclass(eq=False)
class ProblemSetup:
    """A fully resolved problem: geometry, operator, functional, solver knobs."""

    config: dict
    grid: Grid
    mask: DomainMask
    space: SobolevSpace
    params: FunctionalParams
    opt_config: OptimizerConfig
    solver: str
    u_star: np.ndarray | None  # the case's exact solution on the DOFs
    beta: dict  # requested and effective beta, and the admissible window
    certificate: dict  # the converted certificate section
    output_dir: Path


def load_problem(path: str | Path) -> ProblemSetup:
    """Parse, validate, and resolve a problem definition file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc
    except RecursionError as exc:  # the parser's nesting limit
        raise ConfigError(f"config {path} is nested too deeply to parse") from exc
    _require(isinstance(cfg, dict), "<root>", "must be a JSON object")
    return build_setup(cfg)


def build_setup(cfg: dict) -> ProblemSetup:
    case = catalog.CASES.get(cfg["case"], {}) if isinstance(cfg.get("case"), str) else {}
    top = _convert({"family": case["family"], **cfg} if case else cfg, TOP_SCHEMA)
    family = top["family"]
    _require(family is not None, "family", "required when no case is given")
    # a key the config does not give takes the case's value, else the table's
    # default; the case's level belongs to its family, and a non-empty
    # operator section replaces the case's whole
    from_case = {name: case.get(name, {}) for name in SCHEMA}
    if case.get("family") != family:
        from_case["level"] = {}
    if top["operator"]:
        from_case["operator"] = {}
    sections = {name: _convert({**from_case[name], **top[name]}, table, name)
                for name, table in SCHEMA.items()}
    grid_cfg, level_cfg, fun_cfg, data_cfg = (
        sections[name] for name in ("grid", "level", "functional", "data"))

    _require(bool(top["operator"] or case), "operator", "required when no case is given")
    if case and data_cfg["file"] is None:
        # a generic level is a custom spatial threshold; elliptic cases fit it
        _require(family == case["family"] or (family, case["family"]) == ("generic", "elliptic"),
                 "family", f"case {top['case']} is {case['family']}, not {family}")
    _require(None not in grid_cfg.values(), "grid",
             "bounds and resolution required when no case is given")
    with _section("grid"):
        grid = build_grid(grid_cfg["bounds"], grid_cfg["resolution"])
    axes = len(case["grid"]["bounds"]) if case else grid.dim
    _require(grid.dim == axes, "grid.resolution", f"case {top['case']} needs {axes} axes")
    _require(family != "generic" or level_cfg["xi"] is not None, "level.xi",
             "generic family needs a level expression")
    with _section("level"):
        mask = classify_nodes(grid, LevelSpec(
            family, **{k: v for k, v in level_cfg.items() if k not in ("x0", "xi")},
            x0=tuple(level_cfg["x0"]),
            xi_fn=(_expr_fn(level_cfg["xi"], False, "level.xi") if family == "generic"
                   else None),
        ))

    op = _operator(sections["operator"], family, grid)
    with _section("operator"):
        validate_operator(op, mask)

    if data_cfg["file"] is not None:
        u_star, clean = None, load_cauchy_csv(Path(data_cfg["file"]), mask)
    else:
        _require(bool(case), "data", "needs a case id or a data file")
        u_star = evaluate_expression(case["u_star"], grid.coords(mask.dofs),
                                     family in TIME_FAMILIES)
        clean = CauchyData(u_star[mask.value_pos], u_star[mask.deriv_pos])
    with _section("data"):
        g0, g1 = add_noise(clean.g0, clean.g1, data_cfg["noise_level"], data_cfg["noise_seed"])
    space = SobolevSpace(mask, order=fun_cfg["order"])
    params = FunctionalParams(
        op=op, lam=sections["weight"]["lambda"], mask=mask, space=space, beta=fun_cfg["beta"],
        data=CauchyData(g0, g1), beta_policy=fun_cfg["beta_policy"],
    )
    beta = {"requested": fun_cfg["beta"], "effective": params.beta,
            "window": list(beta_window(params.lam, mask.epsilon))}

    # the echo: the converted sections at the values the run used, without
    # unset keys and the output directory
    level_cfg["epsilon"] = mask.level.epsilon
    fun_cfg.update(beta=params.beta, order=space.order)
    config = {key: top[key] for key in ("case", "family", "solver") if top[key] is not None}
    config.update({name: {key: value for key, value in section.items() if value is not None}
                   for name, section in sections.items()})
    logger.info("resolved problem: %s", json.dumps(config, sort_keys=True))

    with _section("optimizer"):
        sections["optimizer"].pop("mode")  # echoed only: the descent has one geometry
        opt_config = OptimizerConfig(**sections["optimizer"])
    return ProblemSetup(
        config=config, grid=grid, mask=mask, space=space, params=params, opt_config=opt_config,
        solver=top["solver"], u_star=u_star, beta=beta,
        certificate=sections["certificate"], output_dir=Path(top["output_dir"]),
    )


def _operator(op_cfg: dict, family: str, grid: Grid) -> QuasilinearOperator:
    op_family = "elliptic" if family == "generic" else family
    time_axis = op_family in TIME_FAMILIES
    kind, q, b = op_cfg["id"], op_cfg["q"], op_cfg["b"]
    lower = None
    # q and b at their defaults "0" and "1" add nothing, so every id takes them
    if kind == "linear":
        _require(q == "0", "operator.q", f"id 'linear' takes no source term, got {q!r}")
        _require(b == "1", "operator.b", f"id 'linear' takes no scale, got {b!r}")
    else:
        scale = None if b == "1" else _expr_fn(b, time_axis, "operator.b")
        with _section("operator.b"):
            lower = LowerOrderTerm(kind, _expr_fn(q, time_axis, "operator.q"), scale)

    exprs, principal = op_cfg["principal"], None
    if exprs is not None and op_family == "hyperbolic":
        _require(isinstance(exprs, str), "operator.principal",
                 "hyperbolic principal is a single wave-coefficient expression")
        principal = _expr_fn(exprs, time_axis, "operator.principal")
    elif exprs is not None:
        n = grid.dim if op_family == "elliptic" else grid.dim - 1
        _require(isinstance(exprs, list) and len(exprs) == n
                 and all(len(row) == n for row in exprs),
                 "operator.principal", f"needs an {n}x{n} matrix of expressions")
        fns = [[_expr_fn(e, time_axis, "operator.principal") for e in row] for row in exprs]

        def principal(points):
            return np.stack([np.stack([f(points) for f in row], -1) for row in fns], -2)

    return QuasilinearOperator(family=op_family, dim=grid.dim, principal=principal, lower=lower)


# ---------------------------------------------------------------------------
# noise and data files


def add_noise(g0: np.ndarray, g1: np.ndarray, level: float, seed: int
              ) -> tuple[np.ndarray, np.ndarray]:
    """Additive Gaussian noise with std = level * rms of the combined data.

    Deterministic under the seed; level 0 returns the inputs unchanged.
    Raises ConfigError when the noisy data is not finite.
    """
    if level < 0:
        raise ConfigError(f"noise level must be >= 0, got {level}")
    if level == 0.0:
        return g0, g1
    stacked = np.concatenate([np.ravel(g0), np.ravel(g1)])
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = level * float(np.sqrt(np.mean(stacked**2)))
        noisy = (g0 + sigma * rng.standard_normal(np.shape(g0)),
                 g1 + sigma * rng.standard_normal(np.shape(g1)))
    if not all(np.all(np.isfinite(g)) for g in noisy):
        raise ConfigError(f"noise level {level:g} makes the Cauchy data non-finite")
    return noisy


def load_cauchy_csv(path: Path, mask: DomainMask) -> CauchyData:
    """Plain CSV trace data: columns layer (g0|g1), flat node index, value.

    g0 rows must cover every value-layer node and g1 rows every
    derivative-layer node; rows on other nodes are ignored with a warning.
    """
    n = mask.grid.node_count
    given = {"g0": {}, "g1": {}}  # per layer name: flat node index -> value, the last row wins
    try:
        with open(path, newline="") as fh:
            for line, row in enumerate(csv.DictReader(fh), start=2):
                which = row["layer"].strip()
                idx = int(row["index"])
                val = float(row["value"])
                if not math.isfinite(val):
                    raise ConfigError(f"data file {path}, line {line}: value "
                                      f"{row['value'].strip()!r} is not finite")
                if which not in given:
                    raise ConfigError(f"data file {path}, line {line}: layer {which!r} "
                                      "is neither 'g0' nor 'g1'")
                if not 0 <= idx < n:
                    raise ConfigError(f"data file {path}, line {line}: index {idx} "
                                      f"outside the grid's {n} nodes")
                given[which][idx] = val
    except OSError as exc:
        raise ConfigError(f"cannot read data file {path}: {exc}") from exc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed data file {path}: {exc}") from exc
    ignored, data = 0, {}
    for name, layer in (("g0", mask.value_pos), ("g1", mask.deriv_pos)):
        nodes = mask.dofs[layer].tolist()
        covered = sum(idx in given[name] for idx in nodes)
        if covered < len(nodes):
            raise ConfigError(f"data file {path} gives {name} on {covered} "
                              f"of the {len(nodes)} nodes of its trace layer")
        ignored += len(given[name]) - covered
        data[name] = np.array([given[name][idx] for idx in nodes], dtype=float)
    if ignored:
        logger.warning("data file %s: ignored %d rows off their trace layer", path, ignored)
    return CauchyData(**data)


# ---------------------------------------------------------------------------
# error norms and reports


def error_norms(setup: ProblemSetup, u: np.ndarray) -> dict | None:
    """Relative L2/H1/H^k errors of the DOF vector u against the exact
    solution, on the full masked subdomain and on the inner window where the
    stability estimate is strongest.

    One H^k space per region: its monomials are sorted by order, so the
    squared L2 and H1 norms are the sums of its first 1 and 1 + dim
    monomial terms."""
    if setup.u_star is None:
        return None
    mask, star, order = setup.mask, setup.u_star, setup.space.order
    # the inner window is the fixed region above the raised threshold, sampled
    # by level value so refinement studies compare like with like
    window = np.flatnonzero(mask.dof_ell > mask.theta + 2 * mask.epsilon)
    out = {}
    for region, space in (("subdomain", setup.space),
                          ("inner", SobolevSpace(mask, order=order, node_subset=window))):
        num, den = ([float(np.sum(d * d * space.dof_weights)) for d in space.differences(x)]
                    for x in (u - star, star))
        for name, count in (("l2", 1), ("h1", 1 + mask.grid.dim), ("hk", len(num))):
            num_k, den_k = (float(np.sqrt(max(sum(terms[:count]), 0.0))) for terms in (num, den))
            out[f"{name}_{region}"] = num_k / den_k if den_k > 0 else float("nan")
    return out


def field_table(setup: ProblemSetup, u: np.ndarray) -> dict[str, list]:
    """The columns of field.csv, one entry per masked node of the DOF vector
    u: coordinates, label, u, exact value, error."""
    mask = setup.mask
    columns = {f"x{j}": col for j, col in enumerate(setup.grid.coords(mask.dofs).T.tolist())}
    label_names = np.array([label.name.lower() for label in sorted(Label)])
    columns["label"] = label_names[mask.dof_label].tolist()
    columns["u"] = u.tolist()
    if setup.u_star is not None:
        columns["u_star"] = setup.u_star.tolist()
        columns["abs_err"] = np.abs(u - setup.u_star).tolist()
    return columns


def emit_report(report: dict, out_dir: str | Path) -> list[Path]:
    """Write report.json plus history.csv / field.csv side tables.

    The `history` and `field` keys of the report, when present, are tables
    (column name -> column) split off into CSV files; everything else lands
    in report.json (sorted keys, so
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
        for name, columns in (("history.csv", history), ("field.csv", table)):
            if columns is not None:
                _write_csv(out_dir / name, columns)
                written.append(out_dir / name)
    except OSError as exc:
        raise OSError(f"cannot write report files under {out_dir}: {exc}") from exc
    logger.info("wrote %s", ", ".join(str(p) for p in written))
    return written


def _write_csv(path: Path, columns: dict[str, list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(zip(*columns.values()))


def history_table(run_report) -> dict[str, list]:
    """The columns of history.csv, one entry per J in the history: the
    gradient norm, the step, the H^k norm of the iterate (`radius`) and the
    trials the line search rejected (`halvings`). A column shorter than the
    history (the step column, and every column at the iteration cap, where
    the last entry holds the J of the final step) ends in empty cells."""
    rows = len(run_report.j_history)
    columns = {"iter": list(range(rows)), "j": run_report.j_history}
    for name, column in (("grad_norm", run_report.grad_norm_history),
                         ("step", run_report.step_history),
                         ("radius", run_report.radius_history),
                         ("halvings", run_report.halvings_history)):
        columns[name] = column + [""] * (rows - len(column))
    return columns


def starting_field(setup: ProblemSetup) -> Field:
    """Default initial iterate: the smooth extension of the Cauchy data."""
    return Field(setup.grid, setup.mask.scatter(data_extension(setup.space, setup.params.data)))
