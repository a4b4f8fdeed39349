"""Sparse voxelization of point clouds and ground-truth occupancy grids.

Grids are regular Cartesian lattices; cylindrical coordinates are computed
per voxel center on demand for the masking stage.  Voxel rows are kept in
canonical lexicographic (ix, iy, iz) order so equal content always compares
equal and every downstream iteration is deterministic.

voxelize makes per-axis passes over contiguous point columns and groups the
points by a per-cell count over the grid's linear index (8 bytes per cell),
not by sorting them, so its rows come out in canonical order; VoxelGrid
sorts only rows that are not already strictly increasing.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .pointcloud import PointCloud, cylindrical_arrays

FEATURE_WIDTH = 4  # mean offset-from-center (x, y, z) + mean intensity


@dataclass(frozen=True)
class GridGeometry:
    min_corner: tuple[float, float, float] = (-12.8, -12.8, -3.2)
    voxel_size: tuple[float, float, float] = (0.4, 0.4, 0.4)
    dims: tuple[int, int, int] = (64, 64, 16)

    def __post_init__(self):
        if any(s <= 0 for s in self.voxel_size):
            raise ValueError("voxel_size must be positive")
        if any(not isinstance(d, Integral) or d < 1 for d in self.dims):
            raise ValueError("dims must be positive integers")

    @property
    def n_cells(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    def centers(self, coords: np.ndarray) -> np.ndarray:
        """(N, 3) world coordinates of the given voxel indices' centers."""
        return np.asarray(self.min_corner) + (
            np.asarray(coords, dtype=np.float64) + 0.5
        ) * np.asarray(self.voxel_size)


def canonical_order(coords: np.ndarray) -> np.ndarray:
    """Permutation sorting (N, 3) integer coords by (ix, then iy, then iz)."""
    return np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))


@dataclass
class VoxelGrid:
    """Sparse voxel grid: canonical-ordered coords with per-voxel features.

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
            order = canonical_order(self.coords)
            self.coords = self.coords[order]
            self.feats = self.feats[order]
            self.counts = self.counts[order]

    def __len__(self) -> int:
        return self.coords.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, VoxelGrid):
            return NotImplemented
        return (
            self.geometry == other.geometry
            and np.array_equal(self.coords, other.coords)
            and np.array_equal(self.feats, other.feats)
            and np.array_equal(self.counts, other.counts)
        )


@dataclass
class OccupancyGrid:
    """Dense binary occupancy: 1 where the sparse grid has a voxel."""

    geometry: GridGeometry
    o: np.ndarray  # (nx, ny, nz) uint8


def voxelize(cloud: PointCloud, geom: GridGeometry) -> VoxelGrid:
    """Bucket points into voxels; out-of-extent points are dropped (their
    count is kept on the grid's dropped_points field).

    Works on the transposed (4, N) float64 points, one contiguous row per
    column, so each axis's floored index, bound check and center offset is
    one pass over a row.  The bound check runs on the floored float, so only
    inside indices are ever cast to integers.  Points are grouped by a
    per-cell count (np.bincount over the linear index): voxel rows leave in
    ascending linear index, which is canonical (ix, iy, iz) order, and each
    voxel's sums add its points in input order.  The count and each sum are
    transient arrays of 8 bytes per grid cell (512 KiB at 64x64x16).
    """
    cols = np.array(cloud.data.T, dtype=np.float64, order="C")
    mins = np.asarray(geom.min_corner, dtype=np.float64)[:, None]
    sizes = np.asarray(geom.voxel_size, dtype=np.float64)[:, None]
    nx, ny, nz = geom.dims

    idx = cols[:3] - mins
    idx /= sizes
    np.floor(idx, out=idx)
    inside = (idx[0] >= 0) & (idx[0] < nx)
    inside &= (idx[1] >= 0) & (idx[1] < ny)
    inside &= (idx[2] >= 0) & (idx[2] < nz)
    dropped = len(inside) - int(np.count_nonzero(inside))
    if dropped:
        cols = cols[:, inside]
        idx = idx[:, inside]
    # exact in float64: every term is an integer below n_cells
    lin = ((idx[0] * ny + idx[1]) * nz + idx[2]).astype(np.int64)
    per_cell = np.bincount(lin, minlength=geom.n_cells)
    uniq = np.flatnonzero(per_cell)
    counts = per_cell[uniq]
    coords = np.column_stack(np.unravel_index(uniq, geom.dims))

    offsets = idx + 0.5  # x - (min + (i + 0.5) * size), in place
    offsets *= sizes
    offsets += mins
    np.subtract(cols[:3], offsets, out=offsets)
    feats = np.empty((len(uniq), FEATURE_WIDTH), dtype=np.float64)
    for c, weights in enumerate((*offsets, cols[3])):
        feats[:, c] = np.bincount(lin, weights, geom.n_cells)[uniq]
    feats /= counts[:, None]

    return VoxelGrid(geom, coords, feats, counts, dropped)


def grid_cylindrical(grid: VoxelGrid) -> tuple[np.ndarray, np.ndarray]:
    """(r, theta) arrays for every voxel in canonical order."""
    return cylindrical_arrays(grid.geometry.centers(grid.coords))


def occupancy_of(grid: VoxelGrid) -> OccupancyGrid:
    """Dense 0/1 target: exactly the sparse key set is marked occupied."""
    o = np.zeros(grid.geometry.dims, dtype=np.uint8)
    if len(grid):
        o[grid.coords[:, 0], grid.coords[:, 1], grid.coords[:, 2]] = 1
    return OccupancyGrid(grid.geometry, o)


def write_debug_dump(grid: VoxelGrid, path) -> None:
    """Text dump: one canonical-order line "ix iy iz f_1 ... f_C count"."""
    with open(path, "w", newline="\n") as fh:
        for (ix, iy, iz), f, n in zip(grid.coords, grid.feats, grid.counts):
            feats = " ".join(f"{v:.9g}" for v in f)
            fh.write(f"{ix} {iy} {iz} {feats} {n}\n")
