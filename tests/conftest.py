import logging
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from convexcauchy.catalog import CASES
from convexcauchy.functional import FunctionalParams
from convexcauchy.grid import LevelSpec, build_grid, classify_nodes
from convexcauchy.harness import build_setup
from convexcauchy.weights import WeightSpec

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
    built here, so that any beta (0 included) and policy can be given."""
    cfg = {"case": case_id}
    if resolution is not None:
        cfg["grid"] = {"resolution": list(resolution)}
    setup = build_setup(cfg)
    params = FunctionalParams(
        op=setup.params.op,
        weight=WeightSpec(level=setup.mask.level, lam=setup.weight.lam if lam is None else lam),
        mask=setup.mask,
        space=setup.space,
        beta=setup.beta["requested"] if beta is None else beta,
        data=setup.params.data,
        beta_policy=beta_policy,
    )
    return (CASES[case_id], setup.grid, setup.mask, params.op, setup.space, params,
            setup.u_star)


CATALOG_IDS = list(CASES)
