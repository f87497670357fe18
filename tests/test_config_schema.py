"""The config tables in harness.SCHEMA / TOP_SCHEMA, fuzzed with hypothesis.

For every (section, key) a value of the wrong type, an out-of-range value and
a non-finite value are swapped into a small ELL1D-CUBIC config. build_setup
must raise ConfigError naming the key, and nothing else; through cli.main the
same configs exit 1. The ranges below are written down independently of the
harness, so a table entry that drifts from them fails here.
"""

import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexcauchy.catalog import CASES
from convexcauchy.cli import main
from convexcauchy.errors import ConfigError
from convexcauchy.grid import FAMILIES
from convexcauchy.harness import SCHEMA, TOP_SCHEMA, build_setup
from convexcauchy.operators import LOWER_TERMS

BASE = {"case": "ELL1D-CUBIC"}
NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
BAD_EXPRESSIONS = st.sampled_from(["x0.real", "__import__", "x0[0]", "(lambda: 1)()", "1 +"])


def words(*valid):
    """Strings outside a choice list."""
    return st.text(max_size=8).filter(lambda s: s not in valid)


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def below(bound, strict=False):
    """Finite numbers under `bound` (up to it when the bound is excluded)."""
    return floats(-1e6, bound).filter(lambda v: v <= bound if strict else v < bound)


def lists(strategy, min_size=1):
    return st.lists(strategy, min_size=min_size, max_size=3)


# (section or None, key) -> (kind, out-of-range strategy or None); kinds are
# number, integer, bool, text, word (a choice), expr, list and object. None as
# a value is valid for the keys in NULLABLE.
SPECS = {
    (None, "case"): ("word", words(*CASES)),
    (None, "family"): ("word", words(*FAMILIES)),
    (None, "solver"): ("word", words("gradient", "direct")),
    (None, "output_dir"): ("text", None),
    **{(None, name): ("object", None) for name in SCHEMA},
    ("grid", "bounds"): ("list", floats(0.1, 10).map(lambda w: [[w, -w]])
                         | st.sampled_from([[], [[0.0]], [[0.0, 1.0, 2.0]]])),
    ("grid", "resolution"): ("list", lists(st.integers(-5, 2)) | st.just([])),
    ("level", "a"): ("number", below(0.0)),
    ("level", "c"): ("number", below(0.0)),
    ("level", "nu"): ("number", below(1.0)),
    ("level", "x_width"): ("number", below(0.0, strict=True)),
    ("level", "t_span"): ("number", below(0.0, strict=True)),
    ("level", "eta"): ("number", below(0.0, strict=True) | floats(1.0, 1e6)),
    ("level", "x0"): ("list", None),
    ("level", "epsilon"): ("number", below(0.0, strict=True)),
    ("level", "xi"): ("expr", BAD_EXPRESSIONS),
    ("operator", "id"): ("word", words("linear", "source", "cubic", "sine", "gradsq")),
    ("operator", "q"): ("expr", BAD_EXPRESSIONS),
    ("operator", "b"): ("expr", BAD_EXPRESSIONS),
    ("operator", "principal"): ("expr", BAD_EXPRESSIONS | BAD_EXPRESSIONS.map(lambda e: [[e]])),
    ("operator", "mu"): ("list", st.sampled_from([[1.0], [1.0, 2.0, 3.0], [2.0, 1.0], [0.0, 1.0],
                                                  [-1.0, 1.0]])),
    ("operator", "a_bounds"): ("list", st.sampled_from([[], [3.0, 1.0], [0.0, 0.5]])),
    ("weight", "lambda"): ("number", below(1.0)),
    ("functional", "beta"): ("number", below(0.0, strict=True)),
    ("functional", "beta_policy"): ("word", words("clamp", "keep")),
    ("functional", "order"): ("integer", st.integers(-5, 0)),
    ("data", "file"): ("text", None),
    ("data", "noise_level"): ("number", below(0.0)),
    ("data", "noise_seed"): ("integer", st.integers(-10**6, -1)),
    ("optimizer", "max_iters"): ("integer", st.integers(-5, 0)),
    ("optimizer", "grad_tol"): ("number", below(0.0, strict=True)),
    ("optimizer", "step_mode"): ("word", words("fixed", "backtracking")),
    ("optimizer", "gamma"): ("number", below(0.0, strict=True)),
    ("optimizer", "mode"): ("word", words("sobolev")),
    ("optimizer", "radius"): ("number", below(0.0)),
    ("optimizer", "radius_policy"): ("word", words("monitor", "reject_step")),
    ("optimizer", "store_iterates"): ("bool", None),
    ("certificate", "radius"): ("number", below(0.0, strict=True)),
    ("certificate", "samples"): ("integer", st.integers(-5, 0)),
    ("certificate", "seed"): ("integer", st.integers(-10**6, -1)),
    ("certificate", "lambdas"): ("list", lists(below(1.0)) | st.just([])),
}
NULLABLE = {("level", "epsilon"), ("level", "xi"), ("functional", "order")}
# a list key's non-finite value goes inside the list
NONFINITE_LISTS = {
    ("grid", "bounds"): lambda v: [[0.0, v]],
    ("operator", "mu"): lambda v: [1.0, v],
    ("operator", "a_bounds"): lambda v: [v, 1.0],
}

TEXT = st.text(max_size=6)
NUMBERS = st.integers(-10**6, 10**6) | floats(-1e6, 1e6)
CONTAINERS = lists(st.integers(0, 9)) | st.dictionaries(TEXT, st.integers(), max_size=2)
WRONG_TYPES = {
    "number": TEXT | st.booleans() | CONTAINERS | st.none(),
    "integer": TEXT | st.booleans() | CONTAINERS | st.none()
    | floats(-1e6, 1e6).filter(lambda v: v != int(v)),
    "bool": NUMBERS | TEXT | CONTAINERS | st.none(),
    "text": NUMBERS | st.booleans() | CONTAINERS | st.none(),
    "word": NUMBERS | st.booleans() | CONTAINERS | st.none(),
    "expr": NUMBERS | st.booleans() | st.dictionaries(TEXT, st.integers(), max_size=2)
    | st.none(),
    "list": NUMBERS | TEXT | st.booleans() | st.dictionaries(TEXT, st.integers(), max_size=2)
    | st.none() | lists(st.text(min_size=1, max_size=4)),
    "object": NUMBERS | TEXT | st.booleans() | lists(st.integers(0, 9)) | st.none(),
}


def bad_values(path, category):
    kind, out_of_range = SPECS[path]
    if category == "wrong-type":
        strategy = WRONG_TYPES[kind]
        return strategy.filter(lambda v: v is not None) if path in NULLABLE else strategy
    if category == "out-of-range":
        return out_of_range
    return NONFINITE.map(NONFINITE_LISTS.get(path, lambda v: [v] if kind == "list" else v))


def with_value(path, value) -> dict:
    section, key = path
    if section is None:
        return {**BASE, key: value}
    return {**BASE, section: {key: value}}


def field_name(path) -> str:
    return ".".join(filter(None, path))


CASES_UNDER_TEST = [(path, category) for path in SPECS
                    for category in ("wrong-type", "out-of-range", "non-finite")
                    if category != "out-of-range" or SPECS[path][1] is not None]


def test_specs_cover_the_tables():
    """The accepted (section, key) pairs: exactly the ones fuzzed here."""
    table_keys = {(None, key) for key in TOP_SCHEMA}
    table_keys |= {(section, key) for section, table in SCHEMA.items() for key in table}
    assert set(SPECS) == table_keys
    assert len(table_keys) == 12 + 36  # top-level keys, section keys


@pytest.mark.parametrize("path,category", CASES_UNDER_TEST,
                         ids=[f"{field_name(p)}-{c}" for p, c in CASES_UNDER_TEST])
@settings(max_examples=5)
@given(data=st.data())
def test_bad_value_names_its_key(path, category, data):
    value = data.draw(bad_values(path, category), label="value")
    with pytest.raises(ConfigError, match=re.escape(f"config field {field_name(path)}: ")):
        build_setup(with_value(path, value))


@settings(max_examples=12)
@given(case=st.sampled_from(CASES_UNDER_TEST), data=st.data())
def test_cli_exits_one_on_bad_values(case, data):
    path, category = case
    value = data.draw(bad_values(path, category), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "p.json"
        config.write_text(json.dumps({"output_dir": str(Path(tmp) / "out"),
                                      **with_value(path, value)}))
        assert main(["solve", str(config)]) == 1
        assert not (Path(tmp) / "out").exists()


def test_readme_lists_every_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    missing = [field_name(path) for path in SPECS if path[1] not in SCHEMA
               and f"| `{field_name(path)}` |" not in readme]
    assert not missing


def test_readme_names_every_operator_id():
    """Each operator id has a row in the README's table of lower-order terms
    and is among the choices of its `operator.id` row."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    choices = next(line for line in readme.splitlines()
                   if line.startswith("| `operator.id` | string |"))
    missing = [kind for kind in ("linear", *LOWER_TERMS)
               if f"| `{kind}` |" not in readme or f"`{kind}`" not in choices]
    assert not missing
