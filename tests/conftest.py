import logging
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from convexcauchy.catalog import cauchy_data_from_case, get_case
from convexcauchy.functional import FunctionalParams
from convexcauchy.grid import LevelSpec, build_grid, classify_nodes
from convexcauchy.sobolev import SobolevSpace
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


def make_problem(case_id, resolution=None, lam=None, beta=None, order=None,
                 beta_policy="keep"):
    """Assemble (case, grid, mask, op, space, params, u_star) for a catalog case."""
    case = get_case(case_id)
    grid = build_grid(case.bounds, resolution or case.resolution)
    mask = classify_nodes(grid, case.level)
    op = case.make_operator()
    u_star, data = cauchy_data_from_case(case_id, grid, mask)
    space = SobolevSpace(mask)
    params = FunctionalParams(
        op=op,
        weight=WeightSpec(level=mask.level, lam=lam if lam is not None else case.lam),
        mask=mask,
        space=space,
        beta=beta if beta is not None else case.beta,
        data=data,
        beta_policy=beta_policy,
    )
    return case, grid, mask, op, space, params, u_star


CATALOG_IDS = ["ELL1D-CUBIC", "ELL2D-HARMONIC", "ELL2D-CUBIC", "PAR1D-CUBIC", "HYP1D-QUAD"]
