"""Span tracing of the convexcauchy layers, installed from outside the program.

`Tracer.install` wraps every public function and every public method (plus
`__init__`) of the traced modules, then rebinds every module attribute that
refers to a wrapped function, so re-imported names such as
`optimizer.evaluate` or `sobolev.shift` are traced as well, and so are the
entries of module-level dicts such as cli's command table. Methods are
wrapped on their classes, and scipy's `spsolve` on its module.
`Tracer.restore` puts every original back.

A span is (id, name, start, end, parent id, repetition id, extra). Spans
stay in memory until `write_csv` is called at the end of the benchmark.
"""

from __future__ import annotations

import csv
import enum
import functools
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

import scipy.sparse.linalg as spla

TRACED_MODULES = ("grid", "weights", "operators", "sobolev", "functional",
                  "optimizer", "sampling", "harness", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.rep = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: set[int] = set()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        label = _LABELS.get(name)
        extra = _EXTRAS.get(name)
        sig = inspect.signature(fn) if label else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if label is not None:
                span_name = f"{name}.{label(sig, args, kwargs)}"
            before = extra[0](args) if extra else None
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                value = extra[1](args, before) if extra else None
                self.spans.append((sid, span_name, start, end, parent, self.rep, value))

        self._wrappers.add(id(wrapper))
        return wrapper

    def install(self) -> None:
        """Wrap the traced layers and rebind every attribute that names them."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrapped: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"convexcauchy.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, enum.Enum):
                    for meth, fn in list(vars(obj).items()):
                        public = meth == "__init__" or not meth.startswith("_")
                        if public and inspect.isfunction(fn):
                            self._set(obj, meth, self._wrap(f"{short}.{obj.__name__}.{meth}", fn))
        # scipy's sparse solve, looked up through the module at call time
        self._set(spla, "spsolve", self._wrap("scipy.spsolve", spla.spsolve))
        for modname, mod in list(sys.modules.items()):
            if modname == "convexcauchy" or modname.startswith("convexcauchy."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrapped:
                        self._set(mod, attr, wrapped[id(obj)])
                    elif isinstance(obj, dict):  # dispatch tables such as cli._COMMANDS
                        for key, value in list(obj.items()):
                            if id(value) in wrapped:
                                self._set(obj, key, wrapped[id(value)])

    def _set(self, owner, key, value) -> None:
        """Rebind an attribute of a module or class, or an entry of a dict."""
        if isinstance(owner, dict):
            self._patched.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patched.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def restore(self) -> None:
        """Put back every attribute and dict entry `install` replaced."""
        for owner, key, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()

    def leftovers(self) -> list[str]:
        """Names in the package, its classes and dicts, or scipy still bound to a wrapper."""
        modules = [m for n, m in sys.modules.items()
                   if n == "convexcauchy" or n.startswith("convexcauchy.")]
        found = []
        for owner in [spla] + modules:
            for attr, obj in vars(owner).items():
                if id(obj) in self._wrappers:
                    found.append(f"{owner.__name__}.{attr}")
                inner = vars(obj) if inspect.isclass(obj) else obj if isinstance(obj, dict) else {}
                found += [f"{owner.__name__}.{attr}.{key}" for key, value in list(inner.items())
                          if id(value) in self._wrappers]
        return found

    # -- output --------------------------------------------------------------

    def write_csv(self, path: Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start", "end", "parent", "rep", "extra"])
            for span in sorted(self.spans):
                writer.writerow(["" if v is None else v for v in span])


def _gradient_mode(sig, args, kwargs) -> str:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments["mode"]


def _riesz_before(args):
    return args[0].last_riesz_history


def _riesz_cg_iters(args, before) -> int:
    history = args[0].last_riesz_history
    # a zero right-hand side returns before CG runs and leaves the history alone
    return len(history) - 1 if history is not before else 0


# span names that get a suffix from the call's arguments
_LABELS = {"functional.gradient": _gradient_mode}
# span names that record a per-call value: (before-call hook, after-call hook)
_EXTRAS = {"sobolev.riesz_solve": (_riesz_before, _riesz_cg_iters)}


class RepSpans:
    """The spans of one repetition, indexed for self times and ancestry."""

    def __init__(self, spans: list[tuple]):
        self.spans = sorted(spans)
        self.by_id = {s[0]: s for s in self.spans}
        self.by_name: dict[str, list[tuple]] = defaultdict(list)
        child_time = defaultdict(float)
        for span in self.spans:
            self.by_name[span[1]].append(span)
            if span[4] >= 0:
                child_time[span[4]] += span[3] - span[2]
        self.self_time = {s[0]: (s[3] - s[2]) - child_time[s[0]] for s in self.spans}

    def named(self, name: str) -> list[tuple]:
        return self.by_name.get(name, [])

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def self_s(self, name: str) -> float:
        return sum(self.self_time[s[0]] for s in self.named(name))

    def within(self, ancestor: tuple, name: str) -> list[tuple]:
        """Spans called `name` nested anywhere under `ancestor`, in start order."""
        out = []
        for s in self.named(name):
            parent = s[4]
            while parent >= 0 and parent != ancestor[0]:
                parent = self.by_id[parent][4]
            if parent == ancestor[0]:
                out.append(s)
        return out
