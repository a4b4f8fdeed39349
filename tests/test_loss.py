import math
import warnings

import numpy as np
import pytest

from conftest import ball_oracle, make_grid, random_grid, stencil_union_oracle
from rmae.errors import EmptyQuerySet, ShapeError
from rmae.occupancy_net import (
    QueryConfig,
    build_query_set,
    occupancy_loss,
)
from rmae.occupancy_net.layers import sigmoid
from rmae.occupancy_net.loss import bce_elements
from rmae.voxelizer import GridGeometry, occupancy_of


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
    return o


GEOM = GridGeometry((0, 0, 0), (1, 1, 1), (4, 4, 2))


def occupancy_loss_oracle(logits, truth, query, batch_size=1):
    """occupancy_loss as first written: logits and truth gathered by three
    index arrays, the gradient added into zeros with np.add.at."""
    query = np.asarray(query, dtype=np.int64).reshape(-1, 3)
    ix, iy, iz = query.T
    x = logits[ix, iy, iz]
    o = truth[ix, iy, iz].astype(np.float64)
    scale = 1.0 / (batch_size * len(query))
    loss = float(bce_elements(x, o).sum() * scale)
    grad = np.zeros_like(logits)
    np.add.at(grad, (ix, iy, iz), (sigmoid(x) - o) * scale)
    return loss, grad


class TestOccupancyLoss:
    def test_saturated_correct_prediction(self):
        truth = grid_with(GEOM, [(0, 0, 0), (3, 3, 1)])
        logits = np.where(truth == 1, 20.0, -20.0)
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
        assert abs(loss - naive_bce(logits, truth, query)) < 1e-10

    def test_random_cases_match_direct_summation(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            dims = tuple(int(v) for v in rng.integers(2, 6, 3))
            geom = GridGeometry((0, 0, 0), (1, 1, 1), dims)
            o = (rng.uniform(0, 1, dims) < 0.4).astype(np.uint8)
            truth = o
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
            o = truth[ix, iy, iz]
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
            probs = sigmoid(logits)
        assert np.isfinite(loss) and np.isfinite(grad).all()
        assert probs[0, 0, 0] == 1.0 and probs[1, 0, 0] == 0.0
        assert grad[1, 0, 0] == pytest.approx(-1.0 / len(query), rel=1e-15)
        assert grad[0, 0, 0] == 0.0

    @pytest.mark.parametrize("batch_size", [1, 4])
    @pytest.mark.parametrize(
        "kind", ["all_voxels", "sphere", "balanced", "duplicated"]
    )
    def test_bitwise_against_add_at(self, kind, batch_size):
        # the gradient is one bincount over flat cell indices, which sums
        # a cell's terms in query order from 0.0 as np.add.at does
        rng = np.random.default_rng([3, batch_size])
        geom = GridGeometry((0, 0, 0), (1, 1, 1), (12, 10, 6))
        grid = random_grid(geom, 40, rng)
        truth = occupancy_of(grid)
        logits = rng.normal(0, 4, geom.dims)
        if kind == "duplicated":
            base = build_query_set(grid, grid.coords, QueryConfig("sphere"))
            # cells hit up to ~10 times, each hit adding its term once more
            query = np.concatenate([base, rng.integers(0, 4, (600, 3))])
            query = rng.permutation(query)
        else:
            q = QueryConfig(
                "all_voxels" if kind == "all_voxels" else "sphere",
                sphere_radius=2.0,
                balance_empty=kind == "balanced",
            )
            query = build_query_set(grid, grid.coords[::3], q, seed=5)
        loss, grad = occupancy_loss(logits, truth, query, batch_size)
        ref_loss, ref_grad = occupancy_loss_oracle(
            logits, truth, query, batch_size
        )
        assert loss == ref_loss
        assert grad.dtype == ref_grad.dtype and grad.shape == ref_grad.shape
        assert grad.tobytes() == ref_grad.tobytes()

    def test_empty_query(self):
        truth = grid_with(GEOM, [])
        with pytest.raises(EmptyQuerySet):
            occupancy_loss(np.zeros(GEOM.dims), truth, np.empty((0, 3)))

    def test_shape_mismatch(self):
        truth = grid_with(GEOM, [])
        with pytest.raises(ShapeError):
            occupancy_loss(np.zeros((2, 2, 2)), truth, np.array([[0, 0, 0]]))


def balanced_by_concatenation(coords, occ, seed):
    """The balanced draw as first written: the same rng.choice calls,
    positives first, then the drawn rows concatenated and sorted back to
    canonical order."""
    pos, neg = coords[occ], coords[~occ]
    small = min(len(pos), len(neg))
    rng = np.random.default_rng(seed)
    if len(pos) > small:
        pos = pos[rng.choice(len(pos), small, replace=False)]
    if len(neg) > small:
        neg = neg[rng.choice(len(neg), small, replace=False)]
    both = np.concatenate([pos, neg])
    return both[np.lexsort(both.T[::-1])]


class TestBuildQuerySet:
    def test_all_voxels(self, small_geom):
        grid = make_grid(small_geom, [[0, 0, 0]])
        q = build_query_set(grid, grid.coords, QueryConfig())
        assert len(q) == np.prod(small_geom.dims)

    def test_sphere_radius_zero_is_visible_set(self, small_geom):
        rng = np.random.default_rng(5)
        grid = random_grid(small_geom, 40, rng)
        q = build_query_set(
            grid,
            grid.coords,
            QueryConfig(mode="sphere", sphere_radius=0.0),
        )
        assert np.array_equal(q, grid.coords)

    def test_sphere_matches_brute_force_filter(self, small_geom):
        rng = np.random.default_rng(6)
        grid = random_grid(small_geom, 15, rng)
        radius = 2.5
        q = build_query_set(
            grid,
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

    # the same brute force, vectorized, over radii that reach past the grid
    @pytest.mark.parametrize("radius", [0, 1.5, 3, 1000, math.inf])
    def test_sphere_matches_brute_force_ball(self, small_geom, radius):
        rng = np.random.default_rng(10)
        grid = random_grid(small_geom, 12, rng)
        q = build_query_set(
            grid,
            grid.coords,
            QueryConfig(mode="sphere", sphere_radius=radius),
        )
        assert q.dtype == np.int64
        assert np.array_equal(q, ball_oracle(small_geom.dims, grid.coords, radius))
        if radius >= 1000:  # the ball holds the grid
            assert len(q) == np.prod(small_geom.dims)

    # small_geom's diagonal is sqrt(15**2 + 15**2 + 7**2) = 22.338...: a
    # radius past it covers the grid from every voxel, and one just short
    # of it misses the corner farthest from a voxel in a corner
    @pytest.mark.parametrize("radius", [22.34, 1000, math.inf])
    def test_covering_ball_with_many_visible(self, small_geom, radius):
        rng = np.random.default_rng(13)
        grid = random_grid(small_geom, 1400, rng)
        q = build_query_set(
            grid, grid.coords, QueryConfig(mode="sphere", sphere_radius=radius)
        )
        assert q.dtype == np.int64
        assert np.array_equal(q, ball_oracle(small_geom.dims, grid.coords, radius))
        assert len(q) == np.prod(small_geom.dims)

    def test_ball_surfaces_through_lattice_points(self):
        # at r = sqrt(n), and one ulp either side, a column's half-height
        # floor(sqrt(r^2 - dx^2 - dy^2)) rounds the wrong way for some n
        # (26, 29, 31, 89, ...) and must be set right by the exact test
        geom = GridGeometry((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (25, 25, 25))
        grid = make_grid(geom, [[12, 12, 12]])
        for n in range(1, 145):
            for radius in (
                math.nextafter(math.sqrt(n), 0.0),
                math.sqrt(n),
                math.nextafter(math.sqrt(n), math.inf),
            ):
                cfg = QueryConfig(mode="sphere", sphere_radius=radius)
                q = build_query_set(grid, grid.coords, cfg)
                expect = stencil_union_oracle(geom.dims, grid.coords, radius)
                assert q.tobytes() == expect.tobytes(), radius

    @pytest.mark.parametrize("radius, cells", [(22.33, 2047), (22.34, 2048)])
    def test_ball_from_a_corner_at_the_diagonal(self, small_geom, radius, cells):
        grid = make_grid(small_geom, [[0, 0, 0]])
        q = build_query_set(
            grid, grid.coords, QueryConfig(mode="sphere", sphere_radius=radius)
        )
        assert len(q) == cells
        assert np.array_equal(q, ball_oracle(small_geom.dims, grid.coords, radius))

    def test_nan_radius_is_rejected(self):
        with pytest.raises(ValueError, match="sphere_radius"):
            QueryConfig(mode="sphere", sphere_radius=float("nan"))

    def test_sphere_empty_visible(self, small_geom):
        grid = make_grid(small_geom, np.empty((0, 3)))
        q = build_query_set(
            grid,
            np.empty((0, 3), np.int64),
            QueryConfig(mode="sphere", sphere_radius=2),
        )
        assert q.shape == (0, 3) and q.dtype == np.int64

    def test_balance_empty_equalizes_classes(self, small_geom):
        rng = np.random.default_rng(7)
        grid = random_grid(small_geom, 30, rng)
        truth = occupancy_of(grid)
        q = build_query_set(
            grid, grid.coords, QueryConfig(balance_empty=True), seed=3
        )
        occ = truth[q[:, 0], q[:, 1], q[:, 2]]
        assert occ.sum() == (1 - occ).sum() == 30

    @pytest.mark.parametrize(
        "n_occupied, kept", [(20, 24), (5, 10)], ids=["pos-major", "neg-major"]
    )
    def test_balance_draws_as_first_written(self, n_occupied, kept):
        rng = np.random.default_rng(11)
        grid = random_grid(GEOM, n_occupied, rng)  # 32 cells
        truth = occupancy_of(grid)
        cells = np.indices(GEOM.dims).reshape(3, -1).T
        occ = truth.ravel().astype(bool)
        for seed in range(5):
            q = build_query_set(
                grid, grid.coords, QueryConfig(balance_empty=True), seed=seed
            )
            assert len(q) == kept
            assert np.array_equal(q, balanced_by_concatenation(cells, occ, seed))

    def test_balanced_sphere_query_draws_as_first_written(self, small_geom):
        rng = np.random.default_rng(12)
        grid = random_grid(small_geom, 30, rng)
        truth = occupancy_of(grid)
        cfg = QueryConfig(mode="sphere", sphere_radius=1.5)
        ball = build_query_set(grid, grid.coords, cfg)
        occ = truth[tuple(ball.T)].astype(bool)
        q = build_query_set(
            grid,
            grid.coords,
            QueryConfig(mode="sphere", sphere_radius=1.5, balance_empty=True),
            seed=3,
        )
        assert np.array_equal(q, balanced_by_concatenation(ball, occ, 3))

    def test_balance_is_seeded(self, small_geom):
        rng = np.random.default_rng(8)
        grid = random_grid(small_geom, 30, rng)
        cfg = QueryConfig(balance_empty=True)
        a = build_query_set(grid, grid.coords, cfg, seed=3)
        b = build_query_set(grid, grid.coords, cfg, seed=3)
        c = build_query_set(grid, grid.coords, cfg, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_sphere_queries_come_sorted(self, small_geom):
        rng = np.random.default_rng(9)
        grid = random_grid(small_geom, 10, rng)
        q = build_query_set(
            grid, grid.coords, QueryConfig(mode="sphere", sphere_radius=2)
        )
        keys = [tuple(c) for c in q]
        assert keys == sorted(keys)
