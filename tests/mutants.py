"""Mutation smoke: one-line mutants of src/ that tier-1 must kill.

Each entry of MUTANTS names a module of src/convexcauchy, an exact old text
that must occur there exactly once, the text that replaces it, and why
tier-1 must fail on the result. The script copies the working tree (without
.git and caches) to WORKERS temporary directories, runs tier-1 in one of them
once unmutated, which must pass, and then once per mutant with `pytest -x`,
WORKERS mutants at once, each applied to one copy's src/ and removed again
afterwards. The report lines come in table order. A mutant is killed
when tier-1 fails on it, and the killing test is the first one that
pytest's short summary names; a failing run that names no test (a
timeout, or a crash before the summary) counts as broken.

A mutant marked equivalent cannot change any tested output; its reason says
why. It is not run, but its old text is still checked, so that the table
stays in step with the code.

    python tests/mutants.py

Exit 0 when every mutant not marked equivalent is killed; 1 when one
survives or is broken, when an old text is not found exactly once or a
mutated module does not compile, or when tier-1 fails on the unmutated
copy. Pytest does not collect this file (it is no test_*.py).
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "convexcauchy"
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                "*.egg-info", "runs", ".bench_work", ".benchmarks")
TIER1_TIMEOUT_S = 900
# copies of the tree that run mutants at once, one tier-1 process each
WORKERS = min(os.cpu_count() or 1, 4)
# pytest's summary line of a failing test, the one that names the killing test id;
# a captured log line ("ERROR    convexcauchy.cli:...") is no such line
SUMMARY = ("FAILED tests/", "ERROR tests/")


class Mutant(NamedTuple):
    module: str
    old: str
    new: str
    why: str
    equivalent: bool = False


MUTANTS = [
    Mutant("functional.py", "g[params.mask.trace_pos] = 0.0", "pass",
           "the gradient must vanish on the trace layers (criterion 3: one descent "
           "step keeps the Cauchy data)"),
    Mutant("sobolev.py", "REFINE_TOL = 1e-14", "REFINE_TOL = 1e-8",
           "the mixed-precision solve must match float64 to 1e-14"),
    Mutant("grid.py", "h, 0.5 * h)", "h, h)",
           "the trapezoid rule gives a rim node h/2 along an axis (golden values)"),
    Mutant("optimizer.py", "tail = usable[-max(5, usable.size // 2):]", "tail = usable[-5:]",
           "q_hat is fitted over the last half of the iterates (golden q_hat)"),
    Mutant("optimizer.py", "failures=sum(m < 0.0 for m in margins)",
           "failures=sum(m < -1e-3 for m in margins)",
           "any negative certificate margin is a failure"),
    Mutant("optimizer.py", "if j_try < j and j_try <= j - ARMIJO_C * t * slope:",
           "if j_try < j:",
           "a step must pass Armijo's sufficient decrease, not any decrease"),
    Mutant("optimizer.py", "if j_try < j and j_try <= j - ARMIJO_C * t * slope:",
           "if j_try <= j - ARMIJO_C * t * slope:",
           "a step must lower J strictly: where ARMIJO_C * t * slope is below half an ulp "
           "of J, Armijo's test alone accepts a J bit-identical, and the run goes to its "
           "cap (the 3-D cubic cap at lambda 1.5)"),
    Mutant("optimizer.py", "while halvings < (1 if fixed else MAX_HALVINGS):",
           "while halvings < MAX_HALVINGS:",
           "a fixed step is tried once: a fixed step that raises J ends the run, it is not "
           "shrunk"),
    Mutant("functional.py", "if dev > CONSTRAINT_TOL * self._trace_scale:",
           "if dev > 1000 * CONSTRAINT_TOL * self._trace_scale:",
           "the trace tolerance is CONSTRAINT_TOL relative to the data"),
    Mutant("functional.py", "h_free[params.mask.trace_pos] = 0.0", "pass",
           "equivalent: the certificate's pairs share their trace bit for bit, so the "
           "trace entries of h = v2 - v1 are zero before they are zeroed",
           equivalent=True),
    Mutant("sampling.py", "0.95 * np.sqrt(1.0 - base_frac**2))", "np.inf)",
           "a draw must lie strictly inside the ball even when the room "
           "sqrt(R^2 - ||b||^2) is under the 0.05 R floor"),
    Mutant("operators.py", "out += w * buf[self.stencil.adjoint_tables[off]]",
           "out += abs(w) * buf[self.stencil.adjoint_tables[off]]",
           "the adjoint of the linearization must satisfy the duality identity"),
    Mutant("sobolev.py", "x = self.dof_weights * d", "x = d",
           "the Gram action weights every H^k monomial as the norm does (gradient "
           "against central differences)"),
    Mutant("sobolev.py", "self.dof_weights = np.where(on_nodes[:-1], mask.dof_quad_weight, 0.0)",
           "self.dof_weights = np.where(on_nodes[:-1], 1.0, 0.0)",
           "every H^k monomial is weighted by the quadrature, also where the norm and "
           "the Gram action agree (shift reference, golden values)"),
    Mutant("sobolev.py", "if np.any(b[self.mask.trace_pos]):", "if False:",
           "a Riesz right-hand side that is not zero on the trace layers is refused"),
    Mutant("sampling.py", "        vals[mask.trace_pos] = 0.0", "        pass",
           "the draw is re-zeroed on the trace layers at the start of every smoothing "
           "pass, not only at the end (the appending form, bit for bit)"),
    Mutant("grid.py", "shape=(n, n)))", "shape=(n, n)).sorted_indices())",
           "each smoothing row sums [+, -, self] in that order; sorted columns "
           "change the bits of the draws"),
    Mutant("sobolev.py", "p = np.flatnonzero(valid)", "p = np.flatnonzero(self.dof_weights)",
           "a Gram term weights only the DOFs where its monomial's stencil box lies "
           "in the node set (the sparse-product Gram, bit for bit)"),
    Mutant("sobolev.py", "coef = ((-1.0 / h) * np.concatenate([up, zero], axis=axis)",
           "coef = ((1.0 / h) * np.concatenate([up, zero], axis=axis)",
           "a chain step is (v[p + e] - v[p]) / h, so its coefficient at p is -1/h"),
    Mutant("sobolev.py", "for i in reversed(range(size)):", "for i in range(size):",
           "each Gram entry sums its DOFs p in ascending order, as the sparse "
           "product does; on the uneven 2-D grid the other order changes bits"),
    Mutant("sobolev.py", "np.where(col[i] < m, weight, 0.0)", "weight",
           "a product whose row is a trace DOF belongs to no entry of the free block"),
    Mutant("sobolev.py", "target = (node[c0:c1, None] + spans)[keep]",
           "target = (node[c0:c1, None] - spans)[keep]",
           "the row of a slot's cell is the node at the slot's offset after the "
           "column's node, not before it"),
    Mutant("sobolev.py",
           'if not np.array_equal(node.take(indices[start:end], mode="clip"), target):',
           "if False:",
           "equivalent: the match check raises only for a kept cell whose row is no "
           "column DOF, and no such cell is kept: each of its products, of a monomial or "
           "of L, has the weight 0 (np.where(col[i] < m, weight, 0.0))",
           equivalent=True),
    Mutant("sobolev.py",
           "rows = sorted(linearization.rows(), key=lambda row: np.dot(row[0], strides))",
           "rows = linearization.rows()",
           "each entry of L^T W L sums its rows p in ascending order, as "
           "L.T @ diags(w) @ L does, which takes L's offsets ascending"),
    Mutant("operators.py", "for off, c, scale in self._terms():",
           "for off, c, scale in reversed(list(self._terms())):",
           "the stencil rows sum the terms of one offset in `_terms` order, as the "
           "coo sum of the terms does (to_matrix bits)"),
    Mutant("sobolev.py", 'finite(sums, f"{m} x {m} system at scale {scale:g}")', "pass",
           "a system past the float range raises SolverError naming the scale"),
    Mutant("optimizer.py", 'finite(slope, "squared gradient norm",\n'
           "               lambda: params.cause(np.max(params.stencil.residual(u)**2), "
           "np.max(u * u)))", "pass",
           "a direction whose slope overflows exits 2 naming beta, not a run that "
           "records an infinite norm"),
    Mutant("optimizer.py", "rhs = -0.5 * gradient(params, j)[free]",
           "rhs = 0.5 * gradient(params, j)[free]",
           "the Gauss-Newton direction descends: it solves the normal equations for "
           "-grad J / 2 (golden harmonic values, the direct-solve bit oracles)"),
    Mutant("optimizer.py", "if exact and t == 1.0:", "if False:",
           "an affine residual's full Gauss-Newton step is exact and ends the run: no "
           "second system (one factorization per affine direct solve)"),
    Mutant("optimizer.py",
           "t = config.gamma if fixed else 1.0 if gauss_newton else min(1.0, t * 2.0)",
           "t = config.gamma if fixed else min(1.0, t * 2.0)",
           "each Gauss-Newton line search tries the full step first, also after a "
           "damped step, instead of the gradient's warm start"),
    Mutant("sobolev.py", "sums[start:end] = table[c0:c1][keep]",
           "sums[start + 1:end + 1] = table[c0:c1][keep]",
           "the kept cells of a block move to the data's own offsets, those of indptr"),
    Mutant("sobolev.py", "copy=not matrix.has_canonical_format", "copy=False",
           "SuperLU sorts a matrix with unsorted indices in place, so the float32 "
           "copy may share only a canonical matrix's index arrays"),
    Mutant("grid.py", "pos = (plus if off > 0 else minus)[pos]",
           "pos = (minus if off > 0 else plus)[pos]",
           "a walk steps along its offset's sign: the stencil's mixed and adjoint tables "
           "are walks (full-grid numbering, residual bits)"),
    Mutant("grid.py", "pos, n), n))", "pos, n), 0))",
           "a step table ends in the sentinel's own entry, so a walk that has left the "
           "node set stays at the sentinel"),
    Mutant("grid.py", "(flat + stride, i < size - 1)", "(flat + stride, True)",
           "a +1 step off the grid's last node along an axis finds no node, not the "
           "first node of the next row (full-grid numbering)"),
    Mutant("optimizer.py", "u_try = j_try = None  # rejected: not held through the next trial",
           "pass",
           "a rejected trial's evaluation and point are released before the next trial is "
           "evaluated, and a line search whose every trial is rejected takes no step"),
    Mutant("optimizer.py", "on\n        j.residual = j.differences = j.euclidean_gradient = None",
           "on\n        pass",
           "an accepted point keeps only its floats J and norm_sq once its gradient is "
           "formed: its differences are dead at the next trial"),
    Mutant("optimizer.py",
           "j.residual = j.differences = j.euclidean_gradient = None  # not held in the solve",
           "pass",
           "the Gauss-Newton system is factorized with none of the point's arrays alive: "
           "the 3-D direct solve stays below 2.1 systems"),
    Mutant("cli.py",
           "run_report.iterates = None  # q_hat is reported: the stored iterates are spent",
           "pass",
           "`solve` releases the stored iterates once the run block holds q_hat, before "
           "the error norms and the report"),
    Mutant("optimizer.py", "del drawn, u1, u2  # spent: not held through the next draw", "pass",
           "the certificate releases each spent batch, and its row views, before the next "
           "draw_in_ball"),
    Mutant("sobolev.py", "del rows  # not held through the compaction and the factorization",
           "pass",
           "the assembly releases L's stencil rows once L^T W L is summed: none is alive "
           "at the factorization"),
    Mutant("functional.py", 'finite(gaps, "Bregman gap", lambda: params.cause(\n'
           "        np.max(np.abs(data_gap)), hk, max(np.max(np.abs(x)) for x in (v1, v2, h)),\n"
           "        max(map(np.max, core_weights))))", "pass",
           "a Bregman gap past the float range exits 2 naming beta, not PASS with NaN "
           "margins (inf - inf is never < 0)"),
    Mutant("sobolev.py", "if not (np.isfinite(low) and np.isfinite(high)):",
           "if not np.isfinite(high):",
           "a -inf system entry fails the float32 path's check before any refinement: the "
           "least entry is checked as well as the largest"),
    Mutant("errors.py",
           "if (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):",
           "if True:",
           "every result past the float range exits 2 with a message naming its cause, "
           "not a report of inf or NaN"),
    Mutant("errors.py", 'with np.errstate(all="ignore"):', "if True:",
           "a cause is worked out with numpy's float warnings off, as it may redo the "
           "arithmetic that overflowed"),
    Mutant("functional.py", "if pair > 2.0 * self._trace_scale:", "if pair >= 0.0:",
           "a value past the float range at a large trace-data scale names that scale, "
           "not the certificate radius"),
    Mutant("functional.py", "if pair > 2.0 * self._trace_scale:",
           "if pair > self._trace_scale:",
           "a pair that carries the data's values names the data, although its largest "
           "entry is a little over the trace data's scale"),
    Mutant("functional.py", "np.max(np.abs(x)) for x in (v1, v2, h)", "np.max(np.abs(h))",
           "an identical pair of huge fields is 0 apart: the pair's size, not its "
           "spread, names it"),
    Mutant("weights.py", 'finite(weight, f"Carleman weight at lambda={lam:.6g}", lambda: (\n'
           '        f"level value {np.max(ell):.6g}, exponent {np.max(expo):.3g}; '
           'reduce lambda"))', "pass",
           "a lambda whose weight is past the float range exits 2 at load, naming lambda "
           "and the largest level value"),
    Mutant("functional.py", "by_weight, by_beta = np.divide((weight, self.beta), factors,",
           "by_beta, by_weight = np.divide((weight, self.beta), factors,",
           "a gradient past the float range at beta 1e300 names beta, not lambda"),
    Mutant("sobolev.py", "if np.linalg.norm(r) <= stop < np.inf:",
           "if np.linalg.norm(r) <= stop:",
           "a right-hand side whose norm is past the float range falls back to the "
           "float64 factor, not to x = 0 (inf <= inf)"),
    Mutant("operators.py", "if not np.min(eig) > 0.0:", "if not np.min(eig) > -1.0:",
           "a principal matrix is elliptic only when its least eigenvalue is > 0 at every "
           "core node"),
    Mutant("operators.py", "if not np.min(a) > 0.0:", "if not np.min(a) > -1.0:",
           "a wave coefficient must be > 0 at every core node; 0 is refused"),
    Mutant("operators.py", "if np.max(skew) > 1e-9 * np.max(np.abs(coeff)):",
           "if np.max(skew) > 1e-9:",
           "the symmetry tolerance is relative to the matrix's largest entry: a matrix "
           "50% asymmetric at the scale 1e-10 is refused"),
    Mutant("operators.py", "if np.any(sprod < -1e-6 * np.max(a)):",
           "if np.any(sprod < -1e-6):",
           "the monotonicity tolerance is relative to the wave coefficient's largest "
           "value: a decreasing coefficient at the scale 1e-8 is refused"),
    Mutant("optimizer.py",
           "space.constrained_solver()  # kept for the Riesz solves; the extension reuses it",
           "pass",
           "a gradient run makes the float64 factor before its start's data extension, so "
           "that a 3-D solve factorizes once and refines nothing"),
    Mutant("optimizer.py", 'if solver == "direct":', "if False:",
           "a Gauss-Newton start is the trace data with zero free DOFs, which factorizes "
           "nothing, and starting_field is that start"),
    Mutant("cli.py", "rng.standard_normal((free, 1))", "rng.standard_normal((free, 2))",
           "each gradcheck direction takes the next normal of its seed per free DOF: the "
           "shipped gradcheck's error is the figure of that stream"),
    Mutant("harness.py", "if kept != val:", "if False:",
           "two trace rows that give one node different values on one layer are refused, "
           "not loaded with whichever came last"),
    Mutant("operators.py", "if op.dim != grid.dim:", "if False:",
           "an operator whose dimension is not its grid's is refused naming both, not "
           "built into a stencil that drops axes or raises an IndexError"),
    Mutant("harness.py", "key in _LEVEL_READS[family]", "True",
           "a level key that the family does not read is refused unless it holds its "
           "default, not echoed as if the run had used it"),
    Mutant("functional.py", "@dataclass(frozen=True, eq=False)", "@dataclass(eq=False)",
           "the params are frozen: a field assigned after the stencil, the weight and the "
           "space were built from it would leave them stale"),
]


def tier1(tree: Path) -> subprocess.CompletedProcess | None:
    """Tier-1 with -x on the copy at `tree`, or None when it timed out. No
    bytecode is written, so a mutated module is never read from a stale cache."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))}
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIER1_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None


def mutated(text: str, mutant: Mutant, path: Path) -> str:
    """text with the mutant applied; ValueError when its old text is not
    found exactly once or the result does not compile."""
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"old text {mutant.old!r} found {count} times in {mutant.module}")
    out = text.replace(mutant.old, mutant.new)
    try:
        compile(out, str(path), "exec")
    except SyntaxError as exc:
        raise ValueError(f"mutant {mutant.new!r} of {mutant.module} does not compile: {exc}")
    return out


def attempt(k: int, mutant: Mutant, trees: queue.Queue) -> tuple[str, bool]:
    """The report line of mutant k, run on a tree taken from `trees` and
    given back, and whether it counts as survived or broken."""
    tree = trees.get()
    try:
        path = tree / PACKAGE / mutant.module
        original = path.read_text()
        try:
            text = mutated(original, mutant, path)
        except ValueError as exc:
            return f"[{k}] table error: {exc}", True
        if mutant.equivalent:
            return f"[{k}] equivalent, not run: {mutant.why}", False
        path.write_text(text)
        t0 = time.perf_counter()
        try:
            done = tier1(tree)
        finally:
            path.write_text(original)
        took = time.perf_counter() - t0
    finally:
        trees.put(tree)
    if done is not None and done.returncode == 0:
        return (f"[{k}] SURVIVED ({took:.0f} s): {mutant.module}: {mutant.old!r} -> "
                f"{mutant.new!r}; it must die because {mutant.why}"), True
    lines = [] if done is None else done.stdout.splitlines()
    failed = next((line for line in lines if line.startswith(SUMMARY)), None)
    if failed is None:
        return (f"[{k}] BROKEN ({took:.0f} s): {mutant.module}: {mutant.new!r}; "
                + ("timed out" if done is None else f"exit {done.returncode}, "
                   "no failing test named")), True
    return f"[{k}] killed ({took:.0f} s): {mutant.module}: {mutant.new!r}; {failed}", False


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copies = [Path(tmp) / f"tree{k}" for k in range(WORKERS)]
        for tree in copies:
            shutil.copytree(ROOT, tree, ignore=IGNORE)
        done = tier1(copies[0])
        if done is None or done.returncode != 0:
            print("tier-1 fails on the unmutated copy:")
            print("timed out" if done is None else done.stdout[-3000:])
            return 1
        trees = queue.Queue()
        for tree in copies:
            trees.put(tree)
        bad = 0
        with ThreadPoolExecutor(WORKERS) as pool:
            runs = [pool.submit(attempt, k, mutant, trees) for k, mutant in enumerate(MUTANTS)]
            for run in runs:  # in table order, each as soon as it and those before are done
                line, failed = run.result()
                print(line, flush=True)
                bad += failed
    print(f"{len(MUTANTS)} mutants, {bad} survived or broken")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
