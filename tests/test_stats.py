"""Empirical CDF tables."""

import numpy as np
import pytest

from dmimo import CdfTable, EmptySampleError, InvalidInputError, compute_cdf

from dmimo.selfcheck import cdf_by_counting
from oracles import normal_cdf


class TestComputeCdf:
    def test_small_exact(self):
        table = compute_cdf([1.0, 2.0, 3.0, 4.0, 5.0], grid_points=5)
        assert np.allclose(table.grid, [1, 2, 3, 4, 5])
        assert np.allclose(table.probs, [0.2, 0.4, 0.6, 0.8, 1.0])
        assert table.num_samples == 5
        assert table.num_saturated == 0

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(70)
        for _ in range(10):
            samples = rng.normal(size=200) * rng.uniform(0.5, 3.0)
            table = compute_cdf(samples, grid_points=64)
            ref = cdf_by_counting(samples, table.grid)
            assert np.array_equal(table.probs, ref)

    def test_grid_spans_min_max_uniformly(self):
        samples = np.array([3.0, -1.0, 7.0, 2.0])
        table = compute_cdf(samples, grid_points=9)
        assert table.grid[0] == -1.0
        assert table.grid[-1] == 7.0
        assert np.allclose(np.diff(table.grid), 1.0)
        assert len(table.grid) == 9

    def test_default_grid_size(self):
        table = compute_cdf(np.arange(100, dtype=float))
        assert len(table.grid) == 512
        assert len(table.probs) == 512

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(71)
        table = compute_cdf(rng.exponential(size=500))
        assert np.all(np.diff(table.probs) >= 0)
        assert table.probs[0] >= 1.0 / 500
        assert table.probs[-1] == 1.0

    def test_standard_normal_against_analytic(self):
        rng = np.random.default_rng(72)
        samples = rng.standard_normal(20_000)
        table = compute_cdf(samples, grid_points=256)
        analytic = np.array([normal_cdf(x) for x in table.grid])
        assert np.max(np.abs(table.probs - analytic)) < 0.015

    def test_saturated_tail(self):
        table = compute_cdf([1.0, 2.0, 3.0, np.inf])
        assert table.num_samples == 4
        assert table.num_saturated == 1
        assert table.saturated_mass == 0.25
        assert table.probs[-1] == 0.75
        assert np.isfinite(table.grid).all()

    def test_single_value(self):
        table = compute_cdf([2.5], grid_points=4)
        assert np.all(table.grid == 2.5)
        assert np.all(table.probs == 1.0)

    def test_errors(self):
        with pytest.raises(EmptySampleError):
            compute_cdf([])
        with pytest.raises(EmptySampleError):
            compute_cdf([np.inf, np.inf])
        with pytest.raises(InvalidInputError):
            compute_cdf([1.0, np.nan])
        with pytest.raises(InvalidInputError):
            compute_cdf([1.0, -np.inf])
        with pytest.raises(InvalidInputError):
            compute_cdf([1.0, 2.0], grid_points=0)
        for grid_points in (2.5, True, "4"):
            with pytest.raises(InvalidInputError, match="grid_points must be an integer"):
                compute_cdf([1.0, 2.0], grid_points=grid_points)

    def test_table_validation(self):
        with pytest.raises(InvalidInputError):
            CdfTable(grid=np.arange(4.0), probs=np.arange(3.0), num_samples=3, num_saturated=0)
