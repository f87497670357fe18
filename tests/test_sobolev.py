import numpy as np
import pytest
import scipy.sparse as sp

from convexcauchy import sobolev
from convexcauchy.errors import ConfigError, SolverError
from convexcauchy.grid import LevelSpec, build_grid, classify_nodes, level_values
from convexcauchy.harness import build_setup
from convexcauchy.sampling import random_smooth_values
from convexcauchy.sobolev import (SobolevSpace, difference_monomials, sobolev_order,
                                  spd_factorized, spd_solve)


class TestOrder:
    @pytest.mark.parametrize("dim,expect", [(1, 2), (2, 3), (3, 3), (4, 4)])
    def test_values(self, dim, expect):
        assert sobolev_order(dim) == expect

    def test_invalid(self):
        with pytest.raises(ConfigError):
            sobolev_order(0)

    def test_monomial_count(self):
        # d=2, k=3: all |beta| <= 3 multi-indices
        assert len(difference_monomials(2, 3)) == 10
        assert difference_monomials(2, 1) == [(0, 0), (0, 1), (1, 0)]


@pytest.fixture(scope="module")
def space(ell2d_mask):
    return SobolevSpace(ell2d_mask)


class TestInnerProduct:
    def test_zero(self, space):
        z = np.zeros(space.mask.dofs.size)
        assert space.inner_product(z, z) == 0.0

    def test_constants_give_masked_volume(self, space):
        one = np.ones(space.mask.dofs.size)
        vol = float(np.sum(space.mask.scatter(space.mask.dof_quad_weight)))
        assert space.inner_product(one, one) == pytest.approx(vol, rel=1e-12)

    def test_bilinearity(self, space, rng):
        f, g, h = (rng.standard_normal(space.mask.dofs.size) for _ in range(3))
        lhs = space.inner_product(f, g + h)
        rhs = space.inner_product(f, g) + space.inner_product(f, h)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_symmetry(self, space, rng):
        f = rng.standard_normal(space.mask.dofs.size)
        g = rng.standard_normal(space.mask.dofs.size)
        assert space.inner_product(f, g) == pytest.approx(space.inner_product(g, f), rel=1e-12)

    def test_norm_nesting(self, space, rng):
        """H^k >= H^1 >= L2 on the same mask: the monomial sums nest."""
        f = rng.standard_normal(space.mask.dofs.size)
        l2 = SobolevSpace(space.mask, order=1)
        h1 = l2.norm_sq(f)
        hk = space.norm_sq(f)
        l2_only = float(np.sum(f**2 * space.weights[space.mask.in_mask]))
        assert hk >= h1 >= l2_only

    def test_gram_matches_inner_product(self, space, rng):
        f = rng.standard_normal(space.mask.dofs.size)
        g = rng.standard_normal(space.mask.dofs.size)
        via_gram = float(g @ (space.gram_matrix() @ f))
        assert via_gram == pytest.approx(space.inner_product(f, g), rel=1e-10)

    def test_gram_matrix_free_matches_sparse(self, space, rng):
        v = rng.standard_normal(space.mask.dofs.size)
        assert np.allclose(space.apply_gram(v), space.gram_matrix() @ v, rtol=1e-12, atol=1e-8)

    def test_gram_spd_rayleigh(self, space, rng):
        smallest = np.inf
        for _ in range(20):
            v = random_smooth_values(space.mask, rng)
            if not np.any(v):
                continue
            q = float(np.sum(v * space.apply_gram(v))) / float(np.sum(v * v))
            smallest = min(smallest, q)
        assert smallest > 0


class TestRiesz:
    """riesz on DOF vectors; b must vanish on the trace layers."""

    def test_round_trip(self, space, rng):
        w = random_smooth_values(space.mask, rng)
        rhs = space.apply_gram(w)
        rhs[space.mask.trace_pos] = 0.0
        rec = space.riesz(rhs)
        assert np.max(np.abs(rec - w)) <= 1e-8 * max(np.max(np.abs(w)), 1e-30)

    def test_zero_rhs(self, space):
        out = space.riesz(np.zeros(space.mask.dofs.size))
        assert np.all(out == 0)

    def test_representation_identity(self, space, rng):
        mask = space.mask
        rhs = rng.standard_normal(mask.dofs.size)
        rhs[mask.trace_pos] = 0.0
        g = space.riesz(rhs)
        gnorm = space.norm(g)
        for _ in range(10):
            h = random_smooth_values(mask, rng)
            lhs = space.inner_product(g, h)
            rhs_pairing = float(np.sum(rhs * h))
            assert abs(lhs - rhs_pairing) <= 1e-8 * max(1.0, gnorm * space.norm(h))

    def test_non_projected_rhs_rejected(self, space):
        bad = space.mask.gather(space.mask.value_layer.astype(float))
        with pytest.raises(ConfigError):
            space.riesz(bad)


class TestSpdFactorization:
    def test_matches_general_sparse_solve(self, space, rng):
        import scipy.sparse.linalg as spla

        gram = space.constrained_gram()
        b = rng.standard_normal(gram.shape[0])
        x = spd_factorized(gram)(b)
        assert np.allclose(x, spla.spsolve(gram, b), rtol=1e-10, atol=0.0)
        assert np.linalg.norm(gram @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_constrained_solver_uses_it(self, space, rng):
        gram = space.constrained_gram()
        b = rng.standard_normal(gram.shape[0])
        assert np.array_equal(space.constrained_solver()(b), spd_factorized(gram)(b))

    def test_constrained_solver_factorizes_once(self, ell2d_mask):
        space = SobolevSpace(ell2d_mask)
        assert space.factorizations == 0
        assert space.constrained_solver() is space.constrained_solver()
        assert space.factorizations == 1

    def test_singular_matrix_raises_solver_error(self):
        with pytest.raises(SolverError, match="factorization of the 3 x 3 system failed: "
                                              "Factor is exactly singular"):
            spd_factorized(sp.diags([1.0, 0.0, 1.0]))


def _tridiagonal(n: int = 50) -> sp.csc_matrix:
    """An SPD tridiagonal matrix, diagonally dominant."""
    return sp.diags([np.full(n - 1, -1.0), np.full(n, 2.5), np.full(n - 1, -1.0)],
                    [-1, 0, 1]).tocsc()


class TestMixedPrecisionSolve:
    """spd_solve refines a float32 factor with float64 CG, and falls back to
    spd_factorized, bit for bit, on each way the float32 path can fail.
    Its accuracy on 3-D direct systems is checked in test_masked_setup."""

    @staticmethod
    def _falls_back(matrix, rhs):
        solved = spd_solve(matrix, rhs)
        assert solved.factorizations == 2
        assert np.array_equal(solved.x, spd_factorized(matrix)(rhs))
        return solved

    def test_refines_to_float64_accuracy(self):
        a, b = _tridiagonal(), np.arange(50.0)
        solved = spd_solve(a, b)
        assert solved.factorizations == 1 and solved.refinements >= 1
        assert np.linalg.norm(b - a @ solved.x) <= sobolev.REFINE_TOL * np.linalg.norm(b)

    def test_float64_only(self):
        a, b = _tridiagonal(), np.arange(50.0)
        solved = spd_solve(a, b, mixed=False)
        assert (solved.factorizations, solved.refinements) == (1, 0)
        assert np.array_equal(solved.x, spd_factorized(a)(b))

    def test_zero_rhs(self):
        solved = spd_solve(_tridiagonal(), np.zeros(50))
        assert (solved.factorizations, solved.refinements) == (1, 0)
        assert not np.any(solved.x)

    def test_empty_system(self):
        solved = spd_solve(sp.csc_matrix((0, 0)), np.zeros(0))
        assert (solved.x.shape, solved.factorizations, solved.refinements) == ((0,), 1, 0)

    def test_cast_past_float32_range_falls_back(self):
        solved = self._falls_back(_tridiagonal() * 1e40, np.arange(50.0))
        assert solved.refinements == 0

    def test_singular_float32_factor_falls_back(self):
        """1e-50 is a normal float64 and flushes to 0 in float32."""
        solved = self._falls_back(sp.diags([1.0, 1e-50, 1.0]).tocsc(), np.ones(3))
        assert solved.refinements == 0

    def test_non_finite_iterate_falls_back(self):
        """Entries subnormal in float32: the factor's solve overflows."""
        solved = self._falls_back(_tridiagonal() * 1e-40, np.ones(50))
        assert solved.refinements == 1

    def test_iteration_cap_falls_back(self, monkeypatch):
        a, b = _tridiagonal(), np.arange(50.0)
        assert spd_solve(a, b).refinements == 3
        monkeypatch.setattr(sobolev, "REFINE_MAX_ITERS", 2)
        assert self._falls_back(a, b).refinements == 2

    def test_backward_error_accepts_badly_scaled_gram(self, space, rng):
        """On the H^3 Gram CG meets REFINE_TOL on its recursive residual, and
        the true residual misses it relative to b (so does the float64
        factor's), but passes the backward-error test: no fall back."""
        gram = space.constrained_gram()
        b = rng.standard_normal(gram.shape[0])
        x, iterations = sobolev._refine(gram, b)
        assert x is not None and iterations > 0
        assert np.linalg.norm(b - gram @ x) > sobolev.REFINE_TOL * np.linalg.norm(b)
        assert np.linalg.norm(b - gram @ spd_factorized(gram)(b)) > (
            sobolev.REFINE_TOL * np.linalg.norm(b))
        solved = spd_solve(gram, b)
        assert (solved.factorizations, solved.refinements) == (1, iterations)
        assert np.array_equal(solved.x, x)

    def test_unconverged_refinement_falls_back(self):
        """The 2-D H^3 Gram at 257^2 is too ill-conditioned for its float32
        factor: CG reaches the iteration cap on the data extension's system."""
        setup = build_setup({"case": "ELL2D-CUBIC", "grid": {"resolution": [257, 257]}})
        space, mask = setup.space, setup.mask
        v = setup.params.impose_dofs(np.zeros(mask.dofs.size))
        solved = self._falls_back(space.constrained_gram(), -space.apply_gram(v)[mask.free_pos])
        assert solved.refinements == sobolev.REFINE_MAX_ITERS

    def test_deterministic(self):
        a, b = _tridiagonal(), np.sin(np.arange(50.0))
        first, second = spd_solve(a, b), spd_solve(a, b)
        assert np.array_equal(first.x, second.x) and first[1:] == second[1:]


class TestEmbeddingEcho:
    def test_sup_bounded_by_norm_under_refinement(self):
        """The exact discrete sup-norm-vs-H^k constant over inner nodes,
        sup_f |f(p)| / ||f|| = sqrt((G^-1 d_p)(p)), stays within a factor 2
        under grid refinement."""
        import scipy.sparse.linalg as spla

        spec = LevelSpec(family="elliptic", a=0.2, c=0.4, nu=2.0, x_width=1.0, epsilon=0.9)
        constants = []
        for res in (17, 33):
            grid = build_grid(((0.0, 1.0), (-1.0, 1.0)), (res, res))
            mask = classify_nodes(grid, spec)
            space = SobolevSpace(mask)
            solve = spla.factorized(space.gram_matrix().tocsc())
            ell = level_values(mask.level, grid.open_coords())
            window = np.flatnonzero(mask.gather(ell > mask.theta + 2 * mask.epsilon))
            best = 0.0
            for pos in window[:20]:
                e = np.zeros(mask.dofs.size)
                e[pos] = 1.0
                best = max(best, float(solve(e)[pos]))
            constants.append(np.sqrt(best))
        assert constants[1] <= 2.0 * constants[0]
        assert constants[0] <= 2.0 * constants[1]
