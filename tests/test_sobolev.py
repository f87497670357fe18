import numpy as np
import pytest

from convexcauchy.errors import ConfigError
from convexcauchy.grid import LevelSpec, build_grid, classify_nodes
from convexcauchy.sampling import random_smooth_values
from convexcauchy.sobolev import SobolevSpace, difference_monomials, sobolev_order, spd_factorized


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
        vol = float(np.sum(space.mask.quad_weight))
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
            window = np.flatnonzero(mask.gather(mask.ell > mask.theta + 2 * mask.epsilon))
            best = 0.0
            for pos in window[:20]:
                e = np.zeros(mask.dofs.size)
                e[pos] = 1.0
                best = max(best, float(solve(e)[pos]))
            constants.append(np.sqrt(best))
        assert constants[1] <= 2.0 * constants[0]
        assert constants[0] <= 2.0 * constants[1]
