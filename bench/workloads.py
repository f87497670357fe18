"""Seeded input generator for the benchmark workloads.

Each workload turns a seed into the files a user would hand the CLI: a
config JSON, a trace CSV (columns layer, index, value) referenced from the
config's `data.file`, and the exact solution u* on the masked nodes, kept
for the output checks. The program never sees the seed or u*; it only
reads the generated config and CSV.

Grid geometry and the trace layers come from `convexcauchy.grid` (imported
when a workload is generated, once src/ is on the path), so the node
coordinates and layer membership match the program's bit for bit.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("solve-ell2d-257", "sweep-ell2d-129", "direct-ell3d-65")

# ELL2D-CUBIC's level: the masked cap is x0 + x1^2 < 0.2, about 6% of the box
ELL2D_LEVEL = {"a": 0.25, "c": 0.45, "nu": 1.0, "x_width": 1.0, "epsilon": 0.36}
ELL2D_BOUNDS = [[0.0, 1.0], [-1.0, 1.0]]
ELL3D_LEVEL = {"a": 0.2, "c": 0.45, "nu": 1.0, "x_width": 1.0}
ELL3D_BOUNDS = [[0.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]]

# the relative inner L2 error each solve workload must stay below
ERR_INNER_LIMIT = {"solve-ell2d-257": 1e-3, "direct-ell3d-65": 1e-3}


@dataclass
class Inputs:
    """Files written for one workload and seed, plus what the checks need."""

    name: str
    command: str  # CLI subcommand
    config: Path
    out_dir: Path
    u_star: np.ndarray  # (masked nodes, dim + 1): coordinates, then u*
    lambdas: list[float]
    samples: int


def _quadratic_harmonic(rng: np.random.Generator) -> tuple[str, Callable]:
    """u* = 3 + a(x0^2 - x1^2) + b x0 x1 + c x0 + d x1: harmonic, and quadratic
    so the centered stencil is exact and the cubic residual vanishes at u*."""
    a = float(rng.uniform(0.5, 1.5))
    b, c, d = (float(v) for v in rng.uniform(-0.5, 0.5, size=3))
    expr = f"(3 + {a!r}*(x0**2 - x1**2) + {b!r}*x0*x1 + {c!r}*x0 + {d!r}*x1)"

    def u_star(pts):
        x0, x1 = pts[..., 0], pts[..., 1]
        return 3 + a * (x0**2 - x1**2) + b * x0 * x1 + c * x0 + d * x1

    return expr, u_star


def _rotated_harmonic(rng: np.random.Generator) -> Callable:
    """u* = e^{3 x0} cos(3 y'/sqrt2) cos(3 z'/sqrt2) with (y', z') the (x1, x2)
    plane rotated by a seeded angle; harmonic since 9 - 9/2 - 9/2 = 0."""
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    cs, sn = math.cos(phi), math.sin(phi)
    k = 3.0 / math.sqrt(2.0)

    def u_star(pts):
        x0, x1, x2 = pts[..., 0], pts[..., 1], pts[..., 2]
        y = cs * x1 + sn * x2
        z = -sn * x1 + cs * x2
        return np.exp(3.0 * x0) * np.cos(k * y) * np.cos(k * z)

    return u_star


def _write_trace(path: Path, bounds, resolution, level: dict, u_star) -> np.ndarray:
    """Write u* on the two trace layers; return (coords, u*) on masked nodes."""
    from convexcauchy.grid import LevelSpec, build_grid, classify_nodes

    grid = build_grid(bounds, resolution)
    mask = classify_nodes(grid, LevelSpec(family="elliptic", **level))
    pts = grid.coords()
    vals = u_star(pts).ravel()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["layer", "index", "value"])
        for layer, nodes in (("g0", mask.value_layer), ("g1", mask.deriv_layer)):
            for idx in np.flatnonzero(nodes.ravel()):
                writer.writerow([layer, int(idx), repr(float(vals[idx]))])
    inside = mask.in_mask
    return np.column_stack([pts[inside], u_star(pts[inside])])


def generate(name: str, seed: int, work: Path) -> Inputs:
    """Write the config, trace CSV and u* of workload `name` under `work`."""
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    trace = work / "trace.csv"
    out_dir = work / "out"
    cert = {"radius": 5.0, "samples": 50, "seed": 7, "lambdas": [1.0, 2.0, 4.0, 8.0]}

    if name == "solve-ell2d-257":
        # why: the descent loop (norms, Gram, Riesz solve, line search) covers all nodes; 6% masked
        expr, u_star = _quadratic_harmonic(rng)
        resolution = [257, 257]
        stored = _write_trace(trace, ELL2D_BOUNDS, resolution, ELL2D_LEVEL, u_star)
        config = {
            "family": "elliptic",
            "grid": {"bounds": ELL2D_BOUNDS, "resolution": resolution},
            "level": ELL2D_LEVEL,
            "operator": {"id": "cubic", "q": f"{expr}**3"},
            "weight": {"lambda": 2.0},
            "functional": {"beta": 0.55, "beta_policy": "keep"},
            "solver": "gradient",
            "optimizer": {"max_iters": 4000, "grad_tol": 1e-6, "step_mode": "backtracking",
                          "mode": "sobolev", "radius": 5.0, "radius_policy": "monitor"},
        }
        command = "solve"
    elif name == "sweep-ell2d-129":
        # why: certificate work (ball draws, Bregman gaps, norms) with no line search or Riesz solve
        expr, u_star = _quadratic_harmonic(rng)
        resolution = [129, 129]
        stored = _write_trace(trace, ELL2D_BOUNDS, resolution, ELL2D_LEVEL, u_star)
        cert["seed"] = int(rng.integers(0, 2**31))
        config = {
            "family": "elliptic",
            "grid": {"bounds": ELL2D_BOUNDS, "resolution": resolution},
            "level": ELL2D_LEVEL,
            "operator": {"id": "cubic", "q": f"{expr}**3"},
            "functional": {"beta": 1e-3, "beta_policy": "keep"},
            "certificate": cert,
        }
        command = "sweep"
    else:
        # why: 3-D sparse Gram assembly and SuperLU dominate; no iterations, no q, 2.5% masked
        u_star = _rotated_harmonic(rng)
        resolution = [65, 65, 65]
        stored = _write_trace(trace, ELL3D_BOUNDS, resolution, ELL3D_LEVEL, u_star)
        config = {
            "family": "elliptic",
            "grid": {"bounds": ELL3D_BOUNDS, "resolution": resolution},
            "level": ELL3D_LEVEL,
            "operator": {"id": "linear"},
            "weight": {"lambda": 2.0},
            "functional": {"beta": 5e-3, "beta_policy": "keep"},
            "solver": "direct",
        }
        command = "solve"

    np.save(work / "u_star.npy", stored)
    config["data"] = {"file": str(trace.resolve())}
    config["output_dir"] = str(out_dir.resolve())
    path = work / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    return Inputs(name=name, command=command, config=path, out_dir=out_dir,
                  u_star=stored, lambdas=cert["lambdas"], samples=cert["samples"])

