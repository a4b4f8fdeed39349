import math

import numpy as np

from conftest import make_grid, random_grid
from rmae.pointcloud import PointCloud, SceneSpec, synth_scene
from rmae.voxelizer import (
    FEATURE_WIDTH,
    GridGeometry,
    VoxelGrid,
    grid_cylindrical,
    occupancy_of,
    voxelize,
    write_debug_dump,
)


def cloud_from(pts):
    return PointCloud(np.asarray(pts, dtype=np.float32), frame_id="t")


class TestVoxelize:
    def test_empty_cloud(self, small_geom):
        grid = voxelize(PointCloud.empty(), small_geom)
        assert len(grid) == 0 and grid.dropped_points == 0
        assert grid.feats.shape == (0, FEATURE_WIDTH)
        far = cloud_from([[99.0, 0, 0, 1], [0, -99, 0, 1]])
        outside = voxelize(far, small_geom)
        assert outside == grid and outside.dropped_points == 2

    def test_point_at_center(self):
        geom = GridGeometry((0, 0, 0), (1, 1, 1), (4, 4, 4))
        grid = voxelize(cloud_from([[0.5, 0.5, 0.5, 0.7]]), geom)
        assert len(grid) == 1
        assert tuple(grid.coords[0]) == (0, 0, 0)
        np.testing.assert_allclose(grid.feats[0, :3], 0.0, atol=1e-7)
        assert abs(grid.feats[0, 3] - 0.7) < 1e-7
        assert grid.counts[0] == 1

    def test_brute_force_grouping_oracle(self, small_geom):
        rng = np.random.default_rng(10)
        pts = np.column_stack(
            [
                rng.uniform(-8, 8, 1000),
                rng.uniform(-8, 8, 1000),
                rng.uniform(-2, 2, 1000),
                rng.uniform(0, 1, 1000),
            ]
        ).astype(np.float32)
        grid = voxelize(cloud_from(pts), small_geom)

        groups: dict = {}
        dropped = 0
        mins = np.asarray(small_geom.min_corner)
        sizes = np.asarray(small_geom.voxel_size)
        for p in pts.astype(np.float64):
            idx = tuple(np.floor((p[:3] - mins) / sizes).astype(int))
            if all(0 <= idx[a] < small_geom.dims[a] for a in range(3)):
                groups.setdefault(idx, []).append(p)
            else:
                dropped += 1
        assert grid.dropped_points == dropped
        assert len(grid) == len(groups)
        for row, coord in enumerate(map(tuple, grid.coords)):
            pts_in = np.asarray(groups[coord])
            center = mins + (np.asarray(coord) + 0.5) * sizes
            np.testing.assert_allclose(
                grid.feats[row, :3],
                (pts_in[:, :3] - center).mean(axis=0),
                atol=1e-6,
            )
            assert abs(grid.feats[row, 3] - pts_in[:, 3].mean()) < 1e-6
            assert grid.counts[row] == len(pts_in)

    def test_partition_property(self, small_geom):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-10, 10, (500, 4)).astype(np.float32)
        grid = voxelize(cloud_from(pts), small_geom)
        assert grid.counts.sum() + grid.dropped_points == 500

    def test_point_order_does_not_change_content(self, small_geom):
        rng = np.random.default_rng(12)
        pts = rng.uniform(-6, 6, (400, 4)).astype(np.float32)
        a = voxelize(cloud_from(pts), small_geom)
        b = voxelize(cloud_from(pts[::-1]), small_geom)
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.counts, b.counts)
        np.testing.assert_allclose(a.feats, b.feats, atol=1e-12)

    def test_canonical_order_from_any_insertion_order(self, small_geom):
        coords = [[3, 2, 1], [0, 5, 7], [3, 1, 4], [0, 5, 6]]
        feats = np.arange(16, dtype=np.float64).reshape(4, 4)
        a = make_grid(small_geom, coords, feats)
        perm = [2, 0, 3, 1]
        b = make_grid(
            small_geom, np.asarray(coords)[perm], feats[perm]
        )
        assert a == b
        lin = [tuple(c) for c in a.coords]
        assert lin == sorted(lin)


class TestVoxelCylindrical:
    """grid_cylindrical: (r, theta) of each voxel center."""

    def test_hand_case(self):
        geom = GridGeometry((0, 0, 0), (2, 8, 2), (2, 1, 1))
        grid = make_grid(geom, [[0, 0, 0], [1, 0, 0]])
        r, theta = grid_cylindrical(grid)
        np.testing.assert_allclose(r, [math.hypot(1.0, 4.0), 5.0], rtol=1e-12)
        assert abs(theta[1] - math.atan2(4.0, 3.0)) < 1e-12

    def test_positive_x_axis(self):
        geom = GridGeometry((0, -1, 0), (1, 2, 1), (2, 1, 1))
        grid = make_grid(geom, [[0, 0, 0], [1, 0, 0]])
        assert grid_cylindrical(grid)[1].tolist() == [0.0, 0.0]

    def test_origin_column_half_diagonal(self):
        geom = GridGeometry()  # default: origin at a voxel corner
        grid = make_grid(geom, [[31, 31, 0], [32, 32, 15]])
        r, _ = grid_cylindrical(grid)
        half_diag = math.hypot(0.4, 0.4) / 2
        np.testing.assert_allclose(r, half_diag, rtol=1e-12)


class TestOccupancy:
    def test_empty(self, small_geom):
        grid = voxelize(PointCloud.empty(), small_geom)
        occ = occupancy_of(grid)
        assert occ.o.sum() == 0
        assert occ.o.shape == small_geom.dims

    def test_k_ones(self, small_geom):
        grid = make_grid(small_geom, [[0, 0, 0], [5, 5, 5], [1, 2, 3]])
        assert occupancy_of(grid).o.sum() == 3

    def test_positions_equal_key_set(self, small_geom):
        rng = np.random.default_rng(13)
        grid = random_grid(small_geom, 60, rng)
        occ = occupancy_of(grid)
        ones = set(map(tuple, np.argwhere(occ.o == 1)))
        keys = set(map(tuple, grid.coords))
        assert ones == keys

    def test_idempotent(self, small_geom):
        rng = np.random.default_rng(14)
        grid = random_grid(small_geom, 30, rng)
        a = occupancy_of(grid)
        b = occupancy_of(grid)
        assert np.array_equal(a.o, b.o)


def test_debug_dump_format(tmp_path, small_geom):
    rng = np.random.default_rng(15)
    grid = random_grid(small_geom, 20, rng)
    path = tmp_path / "voxels.txt"
    write_debug_dump(grid, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 20
    for row, line in enumerate(lines):
        parts = line.split(" ")
        assert len(parts) == 3 + grid.feats.shape[1] + 1
        assert [int(v) for v in parts[:3]] == list(grid.coords[row])
        assert int(parts[-1]) == grid.counts[row]
        np.testing.assert_allclose(
            [float(v) for v in parts[3:-1]], grid.feats[row], rtol=1e-8
        )


def test_real_scene_smoke(small_geom):
    cloud = synth_scene(SceneSpec(ground_extent=6.0, seed=3))
    grid = voxelize(cloud, small_geom)
    assert len(grid) > 50
    occ = occupancy_of(grid)
    assert occ.o.sum() == len(grid)
