"""The README's "Library use" example runs as written."""

import re
from pathlib import Path

from convexcauchy.harness import SCHEMA, TOP_SCHEMA

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The python block of the README section "## Library use"."""
    text = README.read_text()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    return block


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {"__name__": "readme_example"})
    iterations, q_hat, j, err = capsys.readouterr().out.split()
    assert int(iterations) > 0 and 0.0 < float(q_hat) < 1.0 and float(j) > 0.0
    assert float(err) < 1e-2
    assert not any(tmp_path.iterdir())  # the example writes no files


def test_config_reference_lists_every_key():
    """The rows of the README's config reference are the schema's keys, no
    more and no fewer: a section by its keys, the top level by the rest."""
    text = README.read_text()
    table = text.split("\n### Config reference\n", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `([\w.]+)` \|", table, flags=re.M)
    keys = [key for key in TOP_SCHEMA if key not in SCHEMA]
    keys += [f"{section}.{key}" for section, entries in SCHEMA.items() for key in entries]
    assert sorted(rows) == sorted(keys)
