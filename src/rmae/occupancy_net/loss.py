"""Binary cross-entropy occupancy loss and query-set construction.

The loss is evaluated in the logit domain (max(x,0) - x*o + log1p(exp(-|x|)))
so saturated predictions never overflow; the raw sigmoid-then-log form is
deliberately not used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EmptyQuerySet, ShapeError
from ..voxelizer import VoxelGrid, occupancy_of
from .layers import sigmoid


@dataclass(frozen=True)
class QueryConfig:
    mode: str = "all_voxels"  # or "sphere"
    sphere_radius: float = 3.0  # voxel units, used in sphere mode
    balance_empty: bool = False

    def __post_init__(self):
        if self.mode not in ("all_voxels", "sphere"):
            raise ValueError(
                f"query mode must be all_voxels or sphere, got {self.mode!r}"
            )
        if not self.sphere_radius >= 0:  # also rejects NaN
            raise ValueError("sphere_radius must be non-negative")


def occupancy_loss(
    logits: np.ndarray,
    truth: np.ndarray,
    query: np.ndarray,
    batch_size: int = 1,
) -> tuple[float, np.ndarray]:
    """Mean BCE over the query voxels, scaled by 1/batch_size.

    Returns (loss, dense gradient w.r.t. logits); the gradient is
    (sigmoid(logit) - occupancy) / (batch_size * |query|) on queried voxels
    and zero elsewhere.
    """
    if logits.shape != truth.shape:
        raise ShapeError(
            f"logits shape {logits.shape} != occupancy shape {truth.shape}"
        )
    query = np.asarray(query, dtype=np.int64).reshape(-1, 3)
    if len(query) == 0:
        raise EmptyQuerySet("query set is empty")
    cells = np.ravel_multi_index(query.T, logits.shape)
    x = np.take(logits, cells)
    o = np.take(truth, cells).astype(np.float64)
    per_voxel = bce_elements(x, o)
    scale = 1.0 / (batch_size * len(query))
    loss = float(per_voxel.sum() * scale)
    # bincount adds each cell's terms in query order from 0.0, as an
    # unbuffered add into zeros would, so duplicate cells sum alike
    grad = np.bincount(cells, (sigmoid(x) - o) * scale, logits.size)
    return loss, grad.reshape(logits.shape).astype(logits.dtype, copy=False)


def bce_elements(logits: np.ndarray, occupancy: np.ndarray) -> np.ndarray:
    """Element-wise BCE of logits against 0/1 occupancy, in the logit
    domain: max(x, 0) - x*o + log1p(exp(-|x|))."""
    o = np.asarray(occupancy, dtype=np.float64)
    return (
        np.maximum(logits, 0.0)
        - logits * o
        + np.log1p(np.exp(-np.abs(logits)))
    )


def build_query_set(
    grid: VoxelGrid,
    visible_coords: np.ndarray,
    q: QueryConfig,
    seed: int = 0,
) -> np.ndarray:
    """Query voxel coordinates for one sample, grid, canonical order.

    all_voxels: every grid cell.  sphere: the union of L2 balls of
    sphere_radius (voxel units) around the visible voxels, listed by
    np.argwhere off a boolean grid.  A ball is marked as z runs: for each
    (dx, dy) of its disc it holds the cells |dz| <= h with
    dx^2 + dy^2 + h^2 <= r^2, so each visible voxel adds one +1 at the
    start and one -1 past the end of each of its columns to a difference
    grid, and a cell is hit where the running sum along z is positive.
    The columns are marked a bounded chunk of visible voxels at a time,
    each axis's reach is clipped to the grid, and a ball that covers the
    grid from any cell gives every cell at once.  With balance_empty, the
    majority class of grid's occupancy is subsampled (seeded) to the
    minority's size; if one class is absent the set is returned as is.
    """
    dims = grid.geometry.dims
    visible = np.asarray(visible_coords, dtype=np.int64).reshape(-1, 3)
    r = q.sphere_radius
    # a radius as long as the grid's diagonal reaches every cell from all
    covers = len(visible) > 0 and r * r >= sum((d - 1) ** 2 for d in dims)
    if q.mode == "all_voxels" or covers:
        coords = np.indices(dims).reshape(3, -1).T
    else:
        nx, ny, nz = dims
        reach = [int(min(r, d - 1)) for d in dims]
        dx, dy = np.indices((2 * reach[0] + 1, 2 * reach[1] + 1))
        dx, dy = dx.ravel() - reach[0], dy.ravel() - reach[1]
        s = dx * dx + dy * dy
        disc = s <= r * r
        dx, dy, s = dx[disc], dy[disc], s[disc]
        # h = floor(sqrt(r^2 - s)) up to rounding, set right by the exact
        # integer test s + h^2 <= r^2 and clipped to the reach along z
        h = np.minimum(np.sqrt(r * r - s), reach[2]).astype(np.int64)
        h += (h < reach[2]) & (s + (h + 1) ** 2 <= r * r)
        h -= s + h * h > r * r
        diff = np.zeros(nx * ny * (nz + 1), dtype=np.int64)
        chunk = max(1, len(diff) // len(s))  # rows: ~a grid of columns
        for lo in range(0, len(visible), chunk):
            v = visible[lo : lo + chunk, :, None]
            x, y = v[:, 0] + dx, v[:, 1] + dy
            inside = (x >= 0) & (x < nx) & (y >= 0) & (y < ny)
            col = ((x * ny + y) * (nz + 1))[inside]
            start = np.maximum(v[:, 2] - h, 0)[inside]
            stop = np.minimum(v[:, 2] + h, nz - 1)[inside] + 1
            diff += np.bincount(col + start, minlength=len(diff))
            diff -= np.bincount(col + stop, minlength=len(diff))
        runs = diff.reshape(nx, ny, nz + 1).cumsum(axis=2)
        coords = np.argwhere(runs[..., :nz] > 0)
    if q.balance_empty and len(coords):
        occ = occupancy_of(grid)[tuple(coords.T)].astype(bool)
        pos, neg = np.flatnonzero(occ), np.flatnonzero(~occ)
        small = min(len(pos), len(neg))
        if small > 0:
            rng = np.random.default_rng(seed)
            keep = np.zeros(len(coords), dtype=bool)
            for rows in (pos, neg):  # only the majority is drawn from
                if len(rows) > small:
                    rows = rows[rng.choice(len(rows), small, replace=False)]
                keep[rows] = True
            coords = coords[keep]
    return coords
