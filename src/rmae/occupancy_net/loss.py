"""Binary cross-entropy occupancy loss and query-set construction.

The loss is evaluated in the logit domain (max(x,0) - x*o + log1p(exp(-|x|)))
so saturated predictions never overflow; the raw sigmoid-then-log form is
deliberately not used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EmptyQuerySet, ShapeError
from ..voxelizer import OccupancyGrid
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
    truth: OccupancyGrid,
    query: np.ndarray,
    batch_size: int = 1,
) -> tuple[float, np.ndarray]:
    """Mean BCE over the query voxels, scaled by 1/batch_size.

    Returns (loss, dense gradient w.r.t. logits); the gradient is
    (sigmoid(logit) - occupancy) / (batch_size * |query|) on queried voxels
    and zero elsewhere.
    """
    if logits.shape != truth.o.shape:
        raise ShapeError(
            f"logits shape {logits.shape} != occupancy shape {truth.o.shape}"
        )
    query = np.asarray(query, dtype=np.int64).reshape(-1, 3)
    if len(query) == 0:
        raise EmptyQuerySet("query set is empty")
    ix, iy, iz = query[:, 0], query[:, 1], query[:, 2]
    x = logits[ix, iy, iz]
    o = truth.o[ix, iy, iz].astype(np.float64)
    per_voxel = bce_elements(x, o)
    scale = 1.0 / (batch_size * len(query))
    loss = float(per_voxel.sum() * scale)
    grad = np.zeros_like(logits)
    np.add.at(grad, (ix, iy, iz), (sigmoid(x) - o) * scale)
    return loss, grad


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
    truth: OccupancyGrid,
    visible_coords: np.ndarray,
    q: QueryConfig,
    seed: int = 0,
) -> np.ndarray:
    """Query voxel coordinates for one sample, canonical order.

    all_voxels: every grid cell.  sphere: the union of L2 balls of
    sphere_radius (voxel units) around the visible voxels, marked on a
    boolean grid and listed by np.argwhere.  Any radius works: a stencil
    offset longer than an axis reaches no cell, so each axis's reach is
    clipped to the grid, and the ball points are marked a bounded chunk of
    visible voxels at a time; a ball that covers the grid from any cell
    gives every cell at once.  With balance_empty, the majority occupancy
    class is subsampled (seeded) to the minority's size; if one class is
    absent the set is returned as is.
    """
    dims = truth.geometry.dims
    visible = np.asarray(visible_coords, dtype=np.int64).reshape(-1, 3)
    r = q.sphere_radius
    # a radius as long as the grid's diagonal reaches every cell from all
    covers = len(visible) > 0 and r * r >= sum((d - 1) ** 2 for d in dims)
    if q.mode == "all_voxels" or covers:
        coords = np.indices(dims).reshape(3, -1).T.astype(np.int64)
    else:
        reach = np.array([int(min(r, d - 1)) for d in dims])
        stencil = np.indices(2 * reach + 1).reshape(3, -1).T - reach
        stencil = stencil[(stencil**2).sum(axis=1) <= r * r]
        hit = np.zeros(dims, dtype=bool)
        chunk = max(1, hit.size // len(stencil))  # rows: ~a grid of points
        for lo in range(0, len(visible), chunk):
            pts = visible[lo : lo + chunk, None] + stencil
            pts = pts[((pts >= 0) & (pts < dims)).all(axis=2)]
            hit[tuple(pts.T)] = True
        coords = np.argwhere(hit)
    if q.balance_empty and len(coords):
        occ = truth.o[coords[:, 0], coords[:, 1], coords[:, 2]].astype(bool)
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
