"""Weight generator and validator tests."""

import numpy as np
import pytest

from nddc.weights import (
    SUM_TOL,
    WeightSpec,
    gamma,
    make_random_row_stochastic,
    make_random_symmetric_bistochastic,
    make_uniform,
    validate,
)


class TestUniform:
    @pytest.mark.parametrize("n,expected", [(2, 1.0), (3, 0.5), (5, 0.25)])
    def test_off_diagonal_value(self, n, expected):
        wm = make_uniform(n)
        off = wm.weights[~np.eye(n, dtype=bool)]
        assert np.all(off == expected)
        assert np.all(np.diag(wm.weights) == 0.0)

    def test_flags(self):
        wm = make_uniform(4)
        assert wm.row_stochastic and wm.symmetric and wm.positive_off_diagonal
        assert wm.irreducible and wm.bi_stochastic

    def test_rejects_single_agent(self):
        with pytest.raises(ValueError):
            make_uniform(1)


class TestRandomRowStochastic:
    def test_rows_sum_to_one(self):
        for seed in range(20):
            n = 4
            wm = make_random_row_stochastic(n, 0.1, seed)
            sums = wm.off_diagonal().sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) <= SUM_TOL

    def test_floor_respected(self):
        wm = make_random_row_stochastic(5, 0.2, seed=3)
        off = wm.weights[~np.eye(5, dtype=bool)]
        assert off.min() >= 0.2 - 1e-15

    def test_saturated_floor_gives_uniform(self):
        wm = make_random_row_stochastic(3, 0.5, seed=9)
        np.testing.assert_allclose(wm.weights, make_uniform(3).weights, atol=1e-15)

    def test_deterministic_in_seed(self):
        a = make_random_row_stochastic(4, 0.05, seed=7)
        b = make_random_row_stochastic(4, 0.05, seed=7)
        assert np.array_equal(a.weights, b.weights)
        c = make_random_row_stochastic(4, 0.05, seed=8)
        assert not np.array_equal(a.weights, c.weights)

    def test_infeasible_floor_rejected(self):
        with pytest.raises(ValueError):
            make_random_row_stochastic(4, 0.5, seed=0)
        with pytest.raises(ValueError):
            make_random_row_stochastic(4, 0.0, seed=0)

    def test_flags_for_all_seeds(self):
        for seed in range(25):
            n = int(np.random.default_rng(seed).integers(2, 9))
            wm = make_random_row_stochastic(n, 0.3 / (n - 1), seed)
            assert wm.row_stochastic and wm.positive_off_diagonal and wm.irreducible


class TestRandomSymmetricBistochastic:
    def test_structure(self):
        for seed in range(20):
            wm = make_random_symmetric_bistochastic(5, seed)
            w = wm.weights
            assert np.max(np.abs(w - w.T)) <= SUM_TOL
            assert np.max(np.abs(w.sum(axis=0) - 1.0)) <= SUM_TOL
            assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= SUM_TOL
            assert np.all(w >= 0.0)
            assert wm.symmetric and wm.bi_stochastic and wm.irreducible
            assert wm.positive_off_diagonal

    def test_two_agents_permit_zero_diagonal(self):
        wm = make_random_symmetric_bistochastic(2, seed=1)
        assert wm.weights[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert wm.weights[0, 0] == pytest.approx(0.0, abs=1e-12)


class TestValidate:
    def test_disconnected_cliques(self):
        block = np.array([
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ], dtype=float)
        wm = validate(block)
        assert not wm.irreducible
        assert wm.symmetric

    def test_directed_ring(self):
        n = 5
        ring = np.zeros((n, n))
        for i in range(n):
            ring[i, (i + 1) % n] = 1.0
        wm = validate(ring)
        assert wm.irreducible
        assert wm.row_stochastic
        assert not wm.symmetric
        assert not wm.positive_off_diagonal

    def test_uniform_all_flags(self):
        wm = validate(make_uniform(3).weights)
        assert all([wm.row_stochastic, wm.symmetric, wm.bi_stochastic,
                    wm.positive_off_diagonal, wm.irreducible])

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            validate(np.array([[0.0, -0.1], [1.0, 0.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            validate(np.ones((2, 3)))

    def test_idempotent(self):
        wm = make_random_row_stochastic(4, 0.1, seed=2)
        again = validate(wm.weights)
        for flag in ("row_stochastic", "symmetric", "bi_stochastic",
                     "positive_off_diagonal", "irreducible"):
            assert getattr(again, flag) == getattr(wm, flag)


class TestGamma:
    @pytest.mark.parametrize("n,expected", [(3, 0.5), (2, 1.0), (5, 0.25)])
    def test_uniform_values(self, n, expected):
        assert gamma(make_uniform(n)) == pytest.approx(expected)

    def test_requires_positive_off_diagonal(self):
        ring = np.zeros((3, 3))
        ring[0, 1] = ring[1, 2] = ring[2, 0] = 1.0
        with pytest.raises(ValueError):
            gamma(validate(ring))

    def test_lower_bound_for_row_stochastic(self):
        for seed in range(20):
            n = 3 + seed % 5
            wm = make_random_row_stochastic(n, 0.2 / (n - 1), seed)
            assert gamma(wm) >= 1.0 - (n - 2) / (n - 1) - 1e-12
            assert gamma(wm) <= 1.0


class TestWeightSpec:
    def test_kinds(self):
        assert WeightSpec(kind="uniform", n=3).build().row_stochastic
        assert WeightSpec(kind="random-row-stochastic", n=4, seed=1).build().row_stochastic
        assert WeightSpec(kind="random-symmetric-bistochastic", n=4, seed=1).build().bi_stochastic
        with pytest.raises(ValueError):
            WeightSpec(kind="bogus").build()
