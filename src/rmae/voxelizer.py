"""Sparse voxelization of point clouds and ground-truth occupancy grids.

Grids are regular Cartesian lattices; the masking stage reads each voxel's
cylindrical position from its geometry's per-column polar table.  A grid's
voxel rows must be distinct and in canonical lexicographic (ix, iy, iz)
order, so every downstream iteration is deterministic; VoxelGrid refuses
rows that are not.

voxelize works through the points in fixed-size chunks whose float64 rows
stay in cache, and groups the kept points by a per-cell count over the
grid's linear index, not by sorting, so its rows come out in canonical order
and each voxel's sums add its points in input order.  Memory: 40 bytes per
point, one chunk's temporaries and 8 bytes per grid cell for each bincount.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from .pointcloud import PointCloud, cylindrical_arrays

FEATURE_WIDTH = 4  # mean offset-from-center (x, y, z) + mean intensity
_POINTS_PER_CHUNK = 16_384  # voxelize's per-chunk float64 rows stay in cache

# the most cells (nx * ny * nz) a grid may have: 3 times a KITTI-scale
# 1600 x 1408 x 40 lattice.  voxelize takes 8 bytes per cell for each of its
# five bincounts (10 GiB at the cap), the decoder 4 per cell and channel.
MAX_CELLS = 2**28


@dataclass(frozen=True)
class GridGeometry:
    """A lattice of dims cells of voxel_size from min_corner.  A voxel's
    (r, theta) depends only on its (ix, iy) column, so column_polar holds
    each column center's, computed once per geometry and read-only, for
    every frame, mask ratio and epoch to gather at ix * ny + iy."""

    min_corner: tuple[float, float, float] = (-12.8, -12.8, -3.2)
    voxel_size: tuple[float, float, float] = (0.4, 0.4, 0.4)
    dims: tuple[int, int, int] = (64, 64, 16)

    def __post_init__(self):
        if any(s <= 0 for s in self.voxel_size):
            raise ValueError("voxel_size must be positive")
        if any(not isinstance(d, Integral) or d < 1 for d in self.dims):
            raise ValueError("dims must be positive integers")
        if self.n_cells > MAX_CELLS:
            raise ValueError(
                f"dims {list(self.dims)} hold {self.n_cells} cells, above"
                f" the cap of {MAX_CELLS}"
            )

    @property
    def n_cells(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    def centers(self, coords: np.ndarray) -> np.ndarray:
        """(N, 3) world coordinates of the given voxel indices' centers."""
        return np.asarray(self.min_corner) + (
            np.asarray(coords, dtype=np.float64) + 0.5
        ) * np.asarray(self.voxel_size)

    @cached_property
    def column_polar(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (r, theta) of each column center, row ix * ny + iy."""
        nx, ny, _ = self.dims
        ix, iy = np.divmod(np.arange(nx * ny), ny)
        cols = np.column_stack([ix, iy, np.zeros(nx * ny)])
        r, theta = cylindrical_arrays(self.centers(cols))
        r.flags.writeable = theta.flags.writeable = False
        return r, theta


@dataclass(eq=False)
class VoxelGrid:
    """Sparse voxel grid: coords with per-voxel features.  The rows must
    be distinct and in canonical (ix, iy, iz) order, as voxelize writes
    them; the constructor raises ValueError, and sorts nothing, otherwise.

    feats[i] = (mean dx, mean dy, mean dz, mean intensity) of the points in
    voxel coords[i], offsets measured from the voxel center in meters.
    """

    geometry: GridGeometry
    coords: np.ndarray  # (N, 3) int64, canonical order
    feats: np.ndarray  # (N, C) float64
    counts: np.ndarray  # (N,) int64, points per voxel (>= 1)
    dropped_points: int = 0

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.int64).reshape(-1, 3)
        self.feats = np.asarray(self.feats, dtype=np.float64)
        if self.feats.ndim != 2 or self.feats.shape[0] != len(self.coords):
            raise ValueError("feats must be (N, C) matching coords")
        self.counts = np.asarray(self.counts, dtype=np.int64).reshape(-1)
        if len(self.counts) != len(self.coords):
            raise ValueError("counts/coords length mismatch")
        dims = np.asarray(self.geometry.dims)
        if len(self.coords) and (
            (self.coords < 0).any() or (self.coords >= dims).any()
        ):
            raise ValueError("voxel coordinate outside grid dims")
        lin = np.ravel_multi_index(tuple(self.coords.T), self.geometry.dims)
        if not (lin[1:] > lin[:-1]).all():
            raise ValueError("voxel rows not distinct in canonical order")

    def __len__(self) -> int:
        return self.coords.shape[0]


def voxelize(cloud: PointCloud, geom: GridGeometry) -> VoxelGrid:
    """Bucket points into voxels; out-of-extent points are dropped (their
    count is kept on the grid's dropped_points field).

    Each chunk of points is cast to float64 rows in place, at the write
    offset of the (4, N) weights buffer, so each axis's floored index,
    bound check and center offset is one pass over a cached row; the bound
    check runs on the floored float, so only inside indices are cast to
    integers.  Inside points are packed in input order, 40 bytes each: the
    linear index (int64) and the weights (offsets, intensity).  Grouping by
    np.bincount over the linear index gives rows in ascending linear index,
    which is canonical (ix, iy, iz) order, and sums that add each voxel's
    points in input order; the count and each sum take 8 bytes per grid
    cell (512 KiB at 64x64x16).
    """
    data = cloud.data
    mins = np.asarray(geom.min_corner, dtype=np.float64)[:, None]
    sizes = np.asarray(geom.voxel_size, dtype=np.float64)[:, None]
    nx, ny, nz = geom.dims
    lin = np.empty(len(data), dtype=np.int64)
    weights = np.empty((FEATURE_WIDTH, len(data)), dtype=np.float64)
    k = 0  # inside points packed so far

    for start in range(0, len(data), _POINTS_PER_CHUNK):
        chunk = data[start : start + _POINTS_PER_CHUNK]
        cols = weights[:, k : k + len(chunk)]  # fits, as k <= start
        cols[...] = chunk.T
        idx = cols[:3] - mins
        idx /= sizes
        np.floor(idx, out=idx)
        inside = (idx[0] >= 0) & (idx[0] < nx)
        inside &= (idx[1] >= 0) & (idx[1] < ny)
        inside &= (idx[2] >= 0) & (idx[2] < nz)
        m = int(np.count_nonzero(inside))
        if m < len(chunk):
            cols[:, :m] = cols[:, inside]
            cols = cols[:, :m]
            idx = idx[:, inside]
        # exact in float64: every term is an integer below n_cells
        lin[k : k + m] = (idx[0] * ny + idx[1]) * nz + idx[2]
        idx += 0.5  # x - (min + (i + 0.5) * size), in place
        idx *= sizes
        idx += mins
        cols[:3] -= idx
        k += m

    lin = lin[:k]
    per_cell = np.bincount(lin, minlength=geom.n_cells)
    uniq = np.flatnonzero(per_cell)
    counts = per_cell[uniq]
    coords = np.column_stack(np.unravel_index(uniq, geom.dims))
    feats = np.empty((len(uniq), FEATURE_WIDTH), dtype=np.float64)
    for c in range(FEATURE_WIDTH):
        feats[:, c] = np.bincount(lin, weights[c, :k], geom.n_cells)[uniq]
    feats /= counts[:, None]

    return VoxelGrid(geom, coords, feats, counts, len(data) - k)


def occupancy_of(grid: VoxelGrid) -> np.ndarray:
    """Dense (nx, ny, nz) uint8 target: 1 exactly at the sparse key set."""
    o = np.zeros(grid.geometry.dims, dtype=np.uint8)
    if len(grid):
        o[grid.coords[:, 0], grid.coords[:, 1], grid.coords[:, 2]] = 1
    return o


def write_debug_dump(grid: VoxelGrid, path) -> None:
    """Text dump: one canonical-order line "ix iy iz f_1 ... f_C count"."""
    with open(path, "w", newline="\n") as fh:
        for (ix, iy, iz), f, n in zip(grid.coords, grid.feats, grid.counts):
            feats = " ".join(f"{v:.9g}" for v in f)
            fh.write(f"{ix} {iy} {iz} {feats} {n}\n")
