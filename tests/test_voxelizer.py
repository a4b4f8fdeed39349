import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_grid, random_grid
from rmae import voxelizer
from rmae.pointcloud import PointCloud, SceneSpec, cylindrical_arrays, synth_scene
from rmae.voxelizer import (
    FEATURE_WIDTH,
    GridGeometry,
    VoxelGrid,
    occupancy_of,
    voxelize,
    write_debug_dump,
)


def cloud_from(pts):
    return PointCloud(np.asarray(pts, dtype=np.float32), frame_id="t")


# --- sort-based reference for voxelize ---------------------------------------


def sort_voxelize(cloud: PointCloud, geom: GridGeometry) -> VoxelGrid:
    """voxelize as np.unique over the (N, 3) index rows: the grouping the
    per-cell count replaced, kept as the reference it must equal byte for
    byte.  Points beyond ~9.2e18 voxels cast undefined here; keep cases
    nearer."""
    pts = cloud.data.astype(np.float64)
    mins = np.asarray(geom.min_corner)
    sizes = np.asarray(geom.voxel_size)
    dims = np.asarray(geom.dims, dtype=np.int64)

    idx = np.floor((pts[:, :3] - mins) / sizes).astype(np.int64)
    inside = ((idx >= 0) & (idx < dims)).all(axis=1)
    dropped = int((~inside).sum())
    idx = idx[inside]
    pts = pts[inside]
    uniq, inverse, counts = np.unique(
        np.ravel_multi_index(tuple(idx.T), dims),
        return_inverse=True,
        return_counts=True,
    )
    coords = np.column_stack(np.unravel_index(uniq, dims))

    offsets = pts[:, :3] - (mins + (idx + 0.5) * sizes)
    feats = np.zeros((len(uniq), FEATURE_WIDTH), dtype=np.float64)
    for c in range(3):
        feats[:, c] = np.bincount(
            inverse, weights=offsets[:, c], minlength=len(uniq)
        )
    feats[:, 3] = np.bincount(inverse, weights=pts[:, 3], minlength=len(uniq))
    feats /= counts[:, None]

    return VoxelGrid(geom, coords, feats, counts.astype(np.int64), dropped)


def assert_same_bytes(grid: VoxelGrid, ref: VoxelGrid):
    for name in ("coords", "feats", "counts"):
        got, want = getattr(grid, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert grid.dropped_points == ref.dropped_points


# dyadic corners and sizes, so float32 points can sit exactly on them
EXACT = GridGeometry((-4.0, -2.0, -1.0), (0.5, 0.25, 0.5), (16, 16, 4))


class TestAgainstSortOracle:
    def check(self, cloud, geom):
        grid = voxelize(cloud, geom)
        assert_same_bytes(grid, sort_voxelize(cloud, geom))
        return grid

    def test_kitti_density_frame(self):
        cloud = synth_scene(
            SceneSpec(seed=5, sensor_rings=64, azimuth_step_deg=0.2)
        )
        grid = self.check(cloud, GridGeometry())
        assert len(cloud) > 50_000 and len(grid) > 1_000

    def test_points_beyond_every_face(self, small_geom):
        rng = np.random.default_rng(16)
        inside = rng.uniform(-1.5, 1.5, (300, 4))
        lo = np.asarray(small_geom.min_corner)
        hi = lo + np.asarray(small_geom.dims) * small_geom.voxel_size
        beyond = []
        for axis in range(3):
            for face, step in ((lo, -0.3), (hi, 0.3)):
                pts = rng.uniform(-1.5, 1.5, (20, 4))
                pts[:, axis] = face[axis] + step * rng.uniform(0.01, 40, 20)
                beyond.append(pts)
        pts = np.concatenate([inside, *beyond])
        grid = self.check(cloud_from(rng.permutation(pts)), small_geom)
        assert grid.dropped_points == 120

    def test_points_on_the_min_and_max_corners(self):
        lo = np.asarray(EXACT.min_corner)
        hi = lo + np.asarray(EXACT.dims) * EXACT.voxel_size
        pts = [[*lo, 0.25], [*hi, 0.5], [hi[0], 0, 0, 1], [0, 0, hi[2], 1]]
        grid = self.check(cloud_from(pts), EXACT)
        assert grid.coords.tolist() == [[0, 0, 0]]
        assert grid.dropped_points == 3

    def test_single_point(self, small_geom):
        self.check(cloud_from([[0.1, -2.3, 0.7, 0.9]]), small_geom)

    def test_empty_cloud(self, small_geom):
        self.check(cloud_from(np.empty((0, 4))), small_geom)

    def test_all_outside(self, small_geom):
        far = cloud_from([[9, 0, 0, 1], [0, 0, -5, 1]])
        grid = self.check(far, small_geom)
        assert len(grid) == 0 and grid.dropped_points == 2


CHUNK = voxelizer._POINTS_PER_CHUNK  # noqa: PLC2701 - chunk-boundary tests


@pytest.mark.parametrize("lead", [1, CHUNK])
def test_far_points_are_dropped_without_a_cast_warning(lead):
    """lead near points come first, so at lead = CHUNK the far ones sit in
    the second chunk."""
    geom = GridGeometry()
    far = [[1, 1, 0, 0.5]] * lead
    for axis in range(3):
        for sign in (1.0, -1.0):
            pt = [1.0, 1.0, 0.0, 1.0]
            pt[axis] = sign * 1e30
            far.append(pt)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = voxelize(cloud_from(far), geom)
    assert grid.dropped_points == 6
    assert len(grid) == 1 and grid.counts.tolist() == [lead]


# clouds straddling EXACT's faces; snapped to the 0.25 m lattice, their
# points land exactly on voxel boundaries
clouds = st.integers(0, 200).flatmap(
    lambda n: arrays(
        np.float32, (n, 4), elements=st.floats(-5.0, 5.0, width=32)
    )
)


@settings(max_examples=100, deadline=None)
@given(clouds, st.booleans(), st.one_of(st.just(CHUNK), st.integers(1, 7)))
def test_voxelize_equals_sort_oracle(data, snap, chunk):
    """At chunk sizes of a few points the clouds cross many chunk
    boundaries."""
    if snap:
        data = np.round(data * 4) / 4
    cloud = PointCloud(data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(voxelizer, "_POINTS_PER_CHUNK", chunk)
        grid = voxelize(cloud, EXACT)
    assert_same_bytes(grid, sort_voxelize(cloud, EXACT))


class TestChunkBoundaries:
    geom = GridGeometry()

    def scatter(self, n, rng):
        """n points over the middle 8x8 by 16 voxels, about 20% of them
        above or below the grid, so voxels gather points from every
        chunk and the order of each voxel's sum shows in its bits."""
        pts = rng.uniform(-1, 1, (n, 4)) * (1.6, 1.6, 4.0, 1.0)
        return pts.astype(np.float32)

    def test_three_chunks_and_a_remainder(self):
        rng = np.random.default_rng(22)
        chunks = [self.scatter(CHUNK, rng) for _ in range(4)]
        chunks[1][:, 0] = rng.uniform(12.9, 60.0, CHUNK)  # wholly outside
        chunks[3] = chunks[3][: CHUNK // 3]
        cloud = cloud_from(np.concatenate(chunks))
        assert len(cloud) == 3 * CHUNK + CHUNK // 3
        grid = voxelize(cloud, self.geom)
        assert_same_bytes(grid, sort_voxelize(cloud, self.geom))
        for part in chunks:
            kept = voxelize(cloud_from(part), self.geom).counts.sum()
            assert kept < len(part)
        assert voxelize(cloud_from(chunks[1]), self.geom).counts.sum() == 0

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1])
    def test_cloud_sizes_around_one_chunk(self, n):
        cloud = cloud_from(self.scatter(n, np.random.default_rng(n)))
        grid = voxelize(cloud, self.geom)
        assert_same_bytes(grid, sort_voxelize(cloud, self.geom))
        assert 0 < grid.dropped_points < n

    def test_peak_memory_is_not_float64_per_point(self):
        """On a KITTI-density frame the traced peak stays under 48 bytes
        per point plus 2 MiB: the packed indices and weights take 40, and
        one chunk's temporaries and the per-cell bincounts fit in the
        constant.  Full-length float64 temporaries would take about 100."""
        cloud = synth_scene(
            SceneSpec(seed=5, sensor_rings=64, azimuth_step_deg=0.2)
        )
        assert len(cloud) > 90_000
        tracemalloc.start()
        try:
            voxelize(cloud, self.geom)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * len(cloud) + 2 * 2**20


class TestVoxelize:
    def test_empty_cloud(self, small_geom):
        grid = voxelize(cloud_from(np.empty((0, 4))), small_geom)
        assert len(grid) == 0 and grid.dropped_points == 0
        assert grid.feats.shape == (0, FEATURE_WIDTH)
        far = cloud_from([[99.0, 0, 0, 1], [0, -99, 0, 1]])
        outside = voxelize(far, small_geom)
        assert outside.geometry == grid.geometry
        for name in ("coords", "feats", "counts"):
            assert np.array_equal(getattr(outside, name), getattr(grid, name))
        assert outside.dropped_points == 2

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

    @pytest.mark.parametrize(
        "coords",
        [
            [[0, 5, 7], [3, 1, 4], [3, 2, 1], [0, 5, 6]],
            [[0, 4, 2], [0, 4, 1]],  # iz descending
            [[0, 4, 2], [1, 0, 0], [1, 0, 0]],
        ],
        ids=["unsorted", "iz-descending", "duplicate"],
    )
    def test_unsorted_or_duplicate_rows_raise(self, small_geom, coords):
        n = len(coords)
        feats, counts = np.zeros((n, FEATURE_WIDTH)), np.ones(n)
        with pytest.raises(ValueError, match="canonical order"):
            VoxelGrid(small_geom, coords, feats, counts)
        rows = sorted(set(map(tuple, coords)))
        grid = VoxelGrid(small_geom, rows, feats[: len(rows)], counts[: len(rows)])
        assert grid.coords.tolist() == [list(r) for r in rows]


@pytest.mark.parametrize("dims", [(4.0, 4, 4), (4, 0, 4), (4, 4, 2.5)])
def test_dims_must_be_positive_integers(dims):
    with pytest.raises(ValueError, match="dims"):
        GridGeometry((0, 0, 0), (1, 1, 1), dims)
    GridGeometry((0, 0, 0), (1, 1, 1), tuple(np.arange(1, 4)))


class TestVoxelCylindrical:
    """(r, theta) of each voxel center, the masking stage's coordinates."""

    def test_hand_case(self):
        geom = GridGeometry((0, 0, 0), (2, 8, 2), (2, 1, 1))
        grid = make_grid(geom, [[0, 0, 0], [1, 0, 0]])
        r, theta = cylindrical_arrays(geom.centers(grid.coords))
        np.testing.assert_allclose(r, [math.hypot(1.0, 4.0), 5.0], rtol=1e-12)
        assert abs(theta[1] - math.atan2(4.0, 3.0)) < 1e-12

    def test_positive_x_axis(self):
        geom = GridGeometry((0, -1, 0), (1, 2, 1), (2, 1, 1))
        grid = make_grid(geom, [[0, 0, 0], [1, 0, 0]])
        _, theta = cylindrical_arrays(geom.centers(grid.coords))
        assert theta.tolist() == [0.0, 0.0]

    def test_origin_column_half_diagonal(self):
        geom = GridGeometry()  # default: origin at a voxel corner
        grid = make_grid(geom, [[31, 31, 0], [32, 32, 15]])
        r, _ = cylindrical_arrays(geom.centers(grid.coords))
        half_diag = math.hypot(0.4, 0.4) / 2
        np.testing.assert_allclose(r, half_diag, rtol=1e-12)


class TestOccupancy:
    def test_empty(self, small_geom):
        grid = voxelize(cloud_from(np.empty((0, 4))), small_geom)
        occ = occupancy_of(grid)
        assert occ.dtype == np.uint8
        assert occ.sum() == 0
        assert occ.shape == small_geom.dims

    def test_k_ones(self, small_geom):
        grid = make_grid(small_geom, [[0, 0, 0], [5, 5, 5], [1, 2, 3]])
        assert occupancy_of(grid).sum() == 3

    def test_positions_equal_key_set(self, small_geom):
        rng = np.random.default_rng(13)
        grid = random_grid(small_geom, 60, rng)
        occ = occupancy_of(grid)
        ones = set(map(tuple, np.argwhere(occ == 1)))
        keys = set(map(tuple, grid.coords))
        assert ones == keys

    def test_idempotent(self, small_geom):
        rng = np.random.default_rng(14)
        grid = random_grid(small_geom, 30, rng)
        a = occupancy_of(grid)
        b = occupancy_of(grid)
        assert np.array_equal(a, b)


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
    assert occ.sum() == len(grid)
