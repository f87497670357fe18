import logging
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from convexcauchy.catalog import CASES
from convexcauchy.functional import data_extension
from convexcauchy.grid import LevelSpec, build_grid, classify_nodes, shift
from convexcauchy.harness import build_setup
from convexcauchy.sampling import draw_in_ball, random_smooth_values

logging.getLogger("convexcauchy").setLevel(logging.ERROR)

# every hypothesis test is reproducible and writes no example database
settings.register_profile("convexcauchy", derandomize=True, deadline=None, database=None)
settings.load_profile("convexcauchy")
# and keeps its caches (source constants, character maps) in a temporary
# directory, removed at exit, instead of .hypothesis/ in the working directory
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def ell2d_mask():
    """The 2-D elliptic geometry from the classification example set."""
    grid = build_grid(((0.0, 1.0), (-1.0, 1.0)), (33, 33))
    spec = LevelSpec(family="elliptic", a=0.2, c=0.4, nu=2.0, x_width=1.0)
    return classify_nodes(grid, spec)


def make_problem(case_id, resolution=None, lam=None, beta=None, beta_policy="keep"):
    """(case, grid, mask, op, space, params, u_star) of a catalog case, built
    from its config {"case": case_id}; u_star is a DOF vector. The params are
    the set-up's, replaced here, so that any beta (0 included) and policy can
    be given."""
    cfg = {"case": case_id}
    if resolution is not None:
        cfg["grid"] = {"resolution": list(resolution)}
    setup = build_setup(cfg)
    params = replace(
        setup.params,
        lam=setup.params.lam if lam is None else lam,
        beta=setup.beta["requested"] if beta is None else beta,
        beta_policy=beta_policy,
    )
    return (CASES[case_id], setup.grid, setup.mask, params.op, params.space, params,
            setup.u_star)


CATALOG_IDS = list(CASES)


def smooth_draw(mask, rng):
    """One smooth zero-trace draw, a DOF vector, from the next free-DOF
    normals of rng."""
    return random_smooth_values(mask, rng.standard_normal((mask.free_pos.size, 1)))[0]


def ball_draw(params, radius, rng):
    """One field inside the H^k ball around the data extension, a DOF vector."""
    base = data_extension(params.space, params.data)
    return draw_in_ball(params, radius, rng, base, params.space.norm(base), 1)[0]


def full_grid_table(nodes, offset, rows=None):
    """The gather table of `offset` over the boolean node set `nodes`, through
    a full-grid numbering and its shifted copy: entry k is the number of the
    node at `offset` from the k-th node of `rows` (default: `nodes`), or the
    node count where that node is not in the set."""
    n = int(np.count_nonzero(nodes))
    number = np.full(nodes.shape, n, dtype=np.intp)
    number[nodes] = np.arange(n)
    return shift(number, offset, fill=n)[nodes if rows is None else rows]
