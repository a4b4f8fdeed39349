"""Two-stage radial masking of sparse voxel grids.

Stage 1 picks angular groups to sense (each group kept with probability
1 - m, or exactly round((1-m)*N_g) groups in exact_count mode); voxels in
unselected groups are fully masked.  Stage 2 drops voxels inside sensed
groups with a range-dependent probability looked up by distance subgroup.

Every random decision is a keyed draw (seed, group, voxel coordinate), so
outcomes are independent of iteration order and safe to parallelize, and
a mask pays only for what it senses: a voxel's (r, theta) is gathered from
its geometry's column_polar table, stage 1 is a boolean table over groups,
and stage 2 draws and looks up drop probabilities only for voxels in
sensed groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import keyrand
from .errors import InvalidParams
from .voxelizer import VoxelGrid

# Salts separating the keyed RNG streams.
_GROUP_STREAM = 0x47524F55
_VOXEL_STREAM = 0x564F5845

TWO_PI = 2.0 * math.pi

# the most angular groups a mask may have: one arc second each, finer than
# any LiDAR's azimuth step.  Stage 1's keyed draws take some 40 bytes per
# group, about 50 MiB at the cap.
MAX_GROUPS = 360 * 3600


@dataclass(frozen=True)
class MaskConfig:
    n_groups: int = 360  # 1-degree angular groups
    m: float = 0.8  # masking ratio; group selection probability is 1 - m
    selection_mode: str = "bernoulli"  # or "exact_count"
    r_thresholds: tuple[float, ...] = (30.0, 50.0)
    p_drop: tuple[tuple[float, ...], ...] = ((0.0, 0.5, 0.9),)
    seed: int = 0

    def __post_init__(self):
        if self.n_groups < 1:
            raise ValueError("n_groups must be >= 1")
        if self.n_groups > MAX_GROUPS:
            raise ValueError(
                f"n_groups {self.n_groups} is above the cap of {MAX_GROUPS}"
            )
        if not 0.0 <= self.m <= 1.0:
            raise ValueError("m must lie in [0, 1]")
        if self.selection_mode not in ("bernoulli", "exact_count"):
            raise ValueError(
                f"selection_mode must be bernoulli or exact_count,"
                f" got {self.selection_mode!r}"
            )
        t = self.r_thresholds
        if any(a <= 0 for a in t) or any(b <= a for a, b in zip(t, t[1:])):
            raise ValueError("r_thresholds must be positive and ascending")
        rows = self.p_drop
        if len(rows) not in (1, self.n_groups):
            raise ValueError(
                "p_drop must have 1 shared row or one row per group"
            )
        for row in rows:
            if len(row) != self.n_subgroups:
                raise ValueError(
                    f"each p_drop row needs {self.n_subgroups} entries"
                )
            if any(not 0.0 <= p <= 1.0 for p in row):
                raise ValueError("drop probabilities must lie in [0, 1]")

    @property
    def n_subgroups(self) -> int:
        return len(self.r_thresholds) + 1


@dataclass(frozen=True)
class MaskStats:
    """What a mask sensed, as stats.json holds it.  A band with no voxel in
    a sensed group has no drop rate: NaN, written as null, and a null read
    back is NaN.  No other value may be null or NaN."""

    group_visible_fraction: float
    voxel_visible_fraction: float
    per_subgroup_drop_rate: tuple[float | None, ...]
    max_sensed_range: float

    def __post_init__(self):
        rates = tuple(
            math.nan if v is None else v for v in self.per_subgroup_drop_rate
        )
        object.__setattr__(self, "per_subgroup_drop_rate", rates)
        fractions = (self.group_visible_fraction, self.voxel_visible_fraction)
        fractions += tuple(v for v in rates if not math.isnan(v))
        if not all(0.0 <= v <= 1.0 for v in fractions):
            raise InvalidParams("fractions and drop rates must lie in [0, 1]")
        if not 0.0 <= self.max_sensed_range < math.inf:
            raise InvalidParams(
                "max_sensed_range must be finite and non-negative"
            )


@dataclass
class MaskOutcome:
    """Per-voxel decisions for one grid: visible[i] matches grid.coords[i]."""

    selected_groups: frozenset[int]
    visible: np.ndarray  # (N,) bool, canonical grid order
    groups: np.ndarray  # (N,) int64, angular group per voxel
    subgroups: np.ndarray  # (N,) int64, distance subgroup per voxel
    stats: MaskStats


def angular_groups(theta: np.ndarray, n_groups: int) -> np.ndarray:
    """Index of the 2*pi/n_groups wedge containing each azimuth theta."""
    g = (theta / (TWO_PI / n_groups)).astype(np.int64)
    return np.minimum(g, n_groups - 1)


def distance_subgroups(r: np.ndarray, thresholds) -> np.ndarray:
    """Radial band index of each radius r; a radius equal to a threshold
    lands in the farther band."""
    return np.searchsorted(np.asarray(thresholds), r, side="right").astype(
        np.int64
    )


def _sensed_table(cfg: MaskConfig, seed: int) -> np.ndarray:
    """Stage 1 as an (n_groups,) bool table: True where a group is sensed."""
    p_keep = 1.0 - cfg.m
    if cfg.selection_mode == "bernoulli":
        groups = np.arange(cfg.n_groups, dtype=np.int64)
        return keyrand.uniform_array(seed, _GROUP_STREAM, groups) < p_keep
    count = int(round(p_keep * cfg.n_groups))
    rng = np.random.default_rng(keyrand.derive_seed(seed, _GROUP_STREAM))
    keep = np.zeros(cfg.n_groups, dtype=bool)
    keep[rng.choice(cfg.n_groups, size=count, replace=False)] = True
    return keep


def apply_mask(
    grid: VoxelGrid, cfg: MaskConfig, seed: int | None = None
) -> MaskOutcome:
    """Mask a voxel grid: unselected groups go dark entirely; voxels in
    sensed groups survive an independent keyed Bernoulli drop with
    probability p_drop[group, subgroup]."""
    seed = cfg.seed if seed is None else seed
    keep = _sensed_table(cfg, seed)
    coords = grid.coords
    col = coords[:, 0] * grid.geometry.dims[1] + coords[:, 1]
    r_col, theta_col = grid.geometry.column_polar
    r = r_col[col]
    groups = angular_groups(theta_col[col], cfg.n_groups)
    subgroups = distance_subgroups(r, cfg.r_thresholds)

    rows = np.flatnonzero(keep[groups])  # voxels in sensed groups
    g, k = groups[rows], subgroups[rows]
    xyz = np.take(coords, rows, axis=0).T
    u = keyrand.uniform_array(seed, _VOXEL_STREAM, g, *xyz)
    p_drop = np.asarray(cfg.p_drop, dtype=np.float64)
    kept = rows[u >= p_drop[g if len(p_drop) > 1 else 0, k]]
    visible = np.zeros(len(grid), dtype=bool)
    visible[kept] = True

    sensed = np.bincount(k, minlength=cfg.n_subgroups).tolist()
    shown = np.bincount(subgroups[kept], minlength=cfg.n_subgroups).tolist()
    selected = frozenset(np.flatnonzero(keep).tolist())
    stats = MaskStats(
        group_visible_fraction=len(selected) / cfg.n_groups,
        voxel_visible_fraction=len(kept) / len(grid) if len(grid) else 0.0,
        per_subgroup_drop_rate=tuple(
            (s - v) / s if s else math.nan for s, v in zip(sensed, shown)
        ),
        max_sensed_range=float(r[kept].max()) if len(kept) else 0.0,
    )
    return MaskOutcome(selected, visible, groups, subgroups, stats)


def write_mask_dump(outcome: MaskOutcome, grid: VoxelGrid, path) -> None:
    """Text export: "ix iy iz M" per voxel, M=1 visible, canonical order."""
    with open(path, "w", newline="\n") as fh:
        for (ix, iy, iz), vis in zip(grid.coords, outcome.visible):
            fh.write(f"{ix} {iy} {iz} {1 if vis else 0}\n")
