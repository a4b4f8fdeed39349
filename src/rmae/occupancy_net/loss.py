"""Binary cross-entropy occupancy loss and query-set construction.

The loss is evaluated in the logit domain (max(x,0) - x*o + log1p(exp(-|x|)))
so saturated predictions never overflow; the raw sigmoid-then-log form is
deliberately not used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import EmptyQuerySet, ShapeError
from ..voxelizer import OccupancyGrid, canonical_order
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
        if self.sphere_radius < 0:
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
    per_voxel = np.maximum(x, 0.0) - x * o + np.log1p(np.exp(-np.abs(x)))
    scale = 1.0 / (batch_size * len(query))
    loss = float(per_voxel.sum() * scale)
    grad = np.zeros_like(logits)
    np.add.at(grad, (ix, iy, iz), (sigmoid(x) - o) * scale)
    return loss, grad


def build_query_set(
    truth: OccupancyGrid,
    visible_coords: np.ndarray,
    q: QueryConfig,
    seed: int = 0,
) -> np.ndarray:
    """Query voxel coordinates for one sample, canonical order.

    all_voxels: every grid cell.  sphere: the union of L2 balls of
    sphere_radius (voxel units) around the visible voxels.  With
    balance_empty, the majority occupancy class is subsampled (seeded) to
    the minority's size; if one class is absent the set is returned as is.
    """
    dims = truth.geometry.dims
    if q.mode == "all_voxels":
        grid_pts = np.indices(dims).reshape(3, -1).T.astype(np.int64)
        coords = grid_pts
    else:
        visible_coords = np.asarray(visible_coords, dtype=np.int64).reshape(
            -1, 3
        )
        if len(visible_coords) == 0:
            coords = np.empty((0, 3), dtype=np.int64)
        else:
            r = q.sphere_radius
            ri = int(np.floor(r))
            span = np.arange(-ri, ri + 1)
            sx, sy, sz = np.meshgrid(span, span, span, indexing="ij")
            stencil = np.column_stack(
                [sx.ravel(), sy.ravel(), sz.ravel()]
            ).astype(np.int64)
            stencil = stencil[(stencil**2).sum(axis=1) <= r * r]
            pts = (visible_coords[:, None, :] + stencil[None, :, :]).reshape(
                -1, 3
            )
            inside = ((pts >= 0) & (pts < np.asarray(dims))).all(axis=1)
            pts = pts[inside]
            _, ny, nz = dims
            lin = (pts[:, 0] * ny + pts[:, 1]) * nz + pts[:, 2]
            ulin = np.unique(lin)
            coords = np.column_stack(
                [ulin // (ny * nz), (ulin // nz) % ny, ulin % nz]
            ).astype(np.int64)
    if q.balance_empty and len(coords):
        occ = truth.o[coords[:, 0], coords[:, 1], coords[:, 2]].astype(bool)
        pos = coords[occ]
        neg = coords[~occ]
        small = min(len(pos), len(neg))
        if small > 0:
            rng = np.random.default_rng(seed)
            if len(pos) > small:
                pos = pos[rng.choice(len(pos), small, replace=False)]
            if len(neg) > small:
                neg = neg[rng.choice(len(neg), small, replace=False)]
            coords = np.concatenate([pos, neg], axis=0)
            coords = coords[canonical_order(coords)]
    return coords
