import math
import warnings

import numpy as np
import pytest

from conftest import make_grid, random_grid
from rmae.errors import EmptyQuerySet, ShapeError
from rmae.occupancy_net import (
    OccupancyPrediction,
    QueryConfig,
    build_query_set,
    occupancy_loss,
)
from rmae.voxelizer import GridGeometry, OccupancyGrid, occupancy_of


def naive_bce(logits, occ, query, batch_size=1):
    """Direct summation of the loss definition via sigmoid and log."""
    total = 0.0
    for ix, iy, iz in query:
        x = float(logits[ix, iy, iz])
        o = float(occ[ix, iy, iz])
        s = 1.0 / (1.0 + math.exp(-x))
        total += o * math.log(s) + (1 - o) * math.log(1 - s)
    return -total / (batch_size * len(query))


def grid_with(geom, occupied):
    o = np.zeros(geom.dims, dtype=np.uint8)
    for c in occupied:
        o[c] = 1
    return OccupancyGrid(geom, o)


GEOM = GridGeometry((0, 0, 0), (1, 1, 1), (4, 4, 2))


class TestOccupancyLoss:
    def test_saturated_correct_prediction(self):
        truth = grid_with(GEOM, [(0, 0, 0), (3, 3, 1)])
        logits = np.where(truth.o == 1, 20.0, -20.0)
        query = np.indices(GEOM.dims).reshape(3, -1).T
        loss, grad = occupancy_loss(logits, truth, query)
        assert loss < 1e-8
        assert np.abs(grad).max() < 1e-8

    def test_zero_logits_ln2(self):
        truth = grid_with(GEOM, [(1, 1, 1)])
        logits = np.zeros(GEOM.dims)
        query = np.indices(GEOM.dims).reshape(3, -1).T
        loss, _ = occupancy_loss(logits, truth, query)
        assert abs(loss - math.log(2)) < 1e-12

    def test_three_voxel_hand_case(self):
        geom = GridGeometry((0, 0, 0), (1, 1, 1), (3, 1, 1))
        truth = grid_with(geom, [(0, 0, 0), (2, 0, 0)])  # o = (1, 0, 1)
        logits = np.array([0.5, -0.2, 1.0]).reshape(3, 1, 1)
        query = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        loss, _ = occupancy_loss(logits, truth, query, batch_size=1)
        assert abs(loss - naive_bce(logits, truth.o, query)) < 1e-10

    def test_random_cases_match_direct_summation(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            dims = tuple(int(v) for v in rng.integers(2, 6, 3))
            geom = GridGeometry((0, 0, 0), (1, 1, 1), dims)
            o = (rng.uniform(0, 1, dims) < 0.4).astype(np.uint8)
            truth = OccupancyGrid(geom, o)
            logits = rng.uniform(-12, 12, dims)
            total = int(np.prod(dims))
            k = int(rng.integers(3, min(101, total + 1)))
            lin = rng.choice(total, size=k, replace=False)
            query = np.column_stack(
                [
                    lin // (dims[1] * dims[2]),
                    (lin // dims[2]) % dims[1],
                    lin % dims[2],
                ]
            )
            bsz = int(rng.integers(1, 5))
            loss, _ = occupancy_loss(logits, truth, query, batch_size=bsz)
            assert abs(loss - naive_bce(logits, o, query, bsz)) < 1e-10

    def test_gradient_formula_and_support(self):
        rng = np.random.default_rng(1)
        truth = grid_with(GEOM, [(0, 0, 0), (1, 2, 1)])
        logits = rng.normal(0, 2, GEOM.dims)
        query = np.array([[0, 0, 0], [1, 2, 1], [3, 0, 0]])
        loss, grad = occupancy_loss(logits, truth, query, batch_size=2)
        mask = np.zeros(GEOM.dims, dtype=bool)
        mask[query[:, 0], query[:, 1], query[:, 2]] = True
        assert (grad[~mask] == 0).all()
        for ix, iy, iz in query:
            x = logits[ix, iy, iz]
            o = truth.o[ix, iy, iz]
            expect = (1 / (1 + math.exp(-x)) - o) / (2 * 3)
            assert grad[ix, iy, iz] == pytest.approx(expect, rel=1e-12)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(2)
        truth = grid_with(GEOM, [(2, 2, 0)])
        logits = rng.normal(0, 1, GEOM.dims)
        query = np.indices(GEOM.dims).reshape(3, -1).T
        _, grad = occupancy_loss(logits, truth, query)
        h = 1e-6
        for _ in range(10):
            c = tuple(rng.integers(0, d) for d in GEOM.dims)
            lp = logits.copy()
            lp[c] += h
            lm = logits.copy()
            lm[c] -= h
            fd = (
                occupancy_loss(lp, truth, query)[0]
                - occupancy_loss(lm, truth, query)[0]
            ) / (2 * h)
            assert fd == pytest.approx(grad[c], rel=1e-6, abs=1e-12)

    def test_descent_direction(self):
        rng = np.random.default_rng(3)
        truth = grid_with(GEOM, [(0, 1, 0), (2, 3, 1)])
        logits = rng.normal(0, 1, GEOM.dims)
        query = np.indices(GEOM.dims).reshape(3, -1).T
        loss, grad = occupancy_loss(logits, truth, query)
        stepped, _ = occupancy_loss(logits - 0.1 * grad, truth, query)
        assert stepped < loss

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(4)
        truth = grid_with(GEOM, [(1, 1, 0)])
        for _ in range(20):
            logits = rng.normal(0, 5, GEOM.dims)
            query = np.indices(GEOM.dims).reshape(3, -1).T
            loss, _ = occupancy_loss(logits, truth, query)
            assert loss >= 0

    def test_extreme_logits_stable(self):
        truth = grid_with(GEOM, [(0, 0, 0)])
        logits = np.full(GEOM.dims, -745.0)  # exp overflow territory
        logits[0, 0, 0] = 745.0
        query = np.indices(GEOM.dims).reshape(3, -1).T
        loss, grad = occupancy_loss(logits, truth, query)
        assert np.isfinite(loss) and np.isfinite(grad).all()

    def test_sigmoid_of_huge_logits_has_no_overflow_warning(self):
        truth = grid_with(GEOM, [(0, 0, 0), (1, 0, 0)])
        logits = np.full(GEOM.dims, -800.0)
        logits[0, 0, 0] = 800.0
        logits[1, 0, 0] = -800.0  # occupied, maximally wrong
        query = np.indices(GEOM.dims).reshape(3, -1).T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grad = occupancy_loss(logits, truth, query)
            probs = OccupancyPrediction(logits).probabilities
        assert np.isfinite(loss) and np.isfinite(grad).all()
        assert probs[0, 0, 0] == 1.0 and probs[1, 0, 0] == 0.0
        assert grad[1, 0, 0] == pytest.approx(-1.0 / len(query), rel=1e-15)
        assert grad[0, 0, 0] == 0.0

    def test_empty_query(self):
        truth = grid_with(GEOM, [])
        with pytest.raises(EmptyQuerySet):
            occupancy_loss(np.zeros(GEOM.dims), truth, np.empty((0, 3)))

    def test_shape_mismatch(self):
        truth = grid_with(GEOM, [])
        with pytest.raises(ShapeError):
            occupancy_loss(np.zeros((2, 2, 2)), truth, np.array([[0, 0, 0]]))


class TestBuildQuerySet:
    def test_all_voxels(self, small_geom):
        grid = make_grid(small_geom, [[0, 0, 0]])
        truth = occupancy_of(grid)
        q = build_query_set(truth, grid.coords, QueryConfig())
        assert len(q) == np.prod(small_geom.dims)

    def test_sphere_radius_zero_is_visible_set(self, small_geom):
        rng = np.random.default_rng(5)
        grid = random_grid(small_geom, 40, rng)
        truth = occupancy_of(grid)
        q = build_query_set(
            truth,
            grid.coords,
            QueryConfig(mode="sphere", sphere_radius=0.0),
        )
        assert np.array_equal(q, grid.coords)

    def test_sphere_matches_brute_force_filter(self, small_geom):
        rng = np.random.default_rng(6)
        grid = random_grid(small_geom, 15, rng)
        truth = occupancy_of(grid)
        radius = 2.5
        q = build_query_set(
            truth,
            grid.coords,
            QueryConfig(mode="sphere", sphere_radius=radius),
        )
        expect = set()
        for cell in np.ndindex(*small_geom.dims):
            for v in grid.coords:
                if sum((np.asarray(cell) - v) ** 2) <= radius * radius:
                    expect.add(cell)
                    break
        assert set(map(tuple, q)) == expect

    def test_sphere_empty_visible(self, small_geom):
        grid = make_grid(small_geom, np.empty((0, 3)))
        truth = occupancy_of(grid)
        q = build_query_set(
            truth,
            np.empty((0, 3), np.int64),
            QueryConfig(mode="sphere", sphere_radius=2),
        )
        assert q.shape == (0, 3) and q.dtype == np.int64

    def test_balance_empty_equalizes_classes(self, small_geom):
        rng = np.random.default_rng(7)
        grid = random_grid(small_geom, 30, rng)
        truth = occupancy_of(grid)
        q = build_query_set(
            truth, grid.coords, QueryConfig(balance_empty=True), seed=3
        )
        occ = truth.o[q[:, 0], q[:, 1], q[:, 2]]
        assert occ.sum() == (1 - occ).sum() == 30

    def test_balance_is_seeded(self, small_geom):
        rng = np.random.default_rng(8)
        grid = random_grid(small_geom, 30, rng)
        truth = occupancy_of(grid)
        cfg = QueryConfig(balance_empty=True)
        a = build_query_set(truth, grid.coords, cfg, seed=3)
        b = build_query_set(truth, grid.coords, cfg, seed=3)
        c = build_query_set(truth, grid.coords, cfg, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_canonical_order(self, small_geom):
        rng = np.random.default_rng(9)
        grid = random_grid(small_geom, 10, rng)
        truth = occupancy_of(grid)
        q = build_query_set(
            truth, grid.coords, QueryConfig(mode="sphere", sphere_radius=2)
        )
        keys = [tuple(c) for c in q]
        assert keys == sorted(keys)
