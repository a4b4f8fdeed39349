"""Two-stage radial masking of sparse voxel grids.

Stage 1 picks angular groups to sense (each group kept with probability
1 - m, or exactly round((1-m)*N_g) groups in exact_count mode); voxels in
unselected groups are fully masked.  Stage 2 drops voxels inside sensed
groups with a range-dependent probability looked up by distance subgroup.

Every random decision is a keyed draw (seed, group, voxel coordinate), so
outcomes are independent of iteration order and safe to parallelize.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import keyrand
from .errors import MalformedFile
from .pointcloud import cylindrical_arrays
from .voxelizer import VoxelGrid

# Salts separating the keyed RNG streams.
_GROUP_STREAM = 0x47524F55
_VOXEL_STREAM = 0x564F5845

TWO_PI = 2.0 * math.pi


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
    group_visible_fraction: float
    voxel_visible_fraction: float
    per_subgroup_drop_rate: tuple[float, ...]  # NaN where no voxels sampled
    max_sensed_range: float

    def to_json_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["per_subgroup_drop_rate"] = [
            None if math.isnan(v) else v for v in self.per_subgroup_drop_rate
        ]
        return doc

    @classmethod
    def from_json_dict(cls, raw) -> "MaskStats":
        """Inverse of to_json_dict; MalformedFile when a key is missing, a
        value is not a number (a drop rate may also be null), a fraction
        or rate lies outside [0, 1], or max_sensed_range is negative or
        not finite."""
        if not isinstance(raw, dict):
            raise MalformedFile("mask stats must be a JSON object")
        try:
            scalars = {
                f.name: raw[f.name]
                for f in dataclasses.fields(cls)
                if f.name != "per_subgroup_drop_rate"
            }
            rates = raw["per_subgroup_drop_rate"]
        except KeyError as e:
            raise MalformedFile(f"mask stats: missing key {e}") from e

        def number(v) -> bool:
            return isinstance(v, (int, float)) and not isinstance(v, bool)

        if not all(map(number, scalars.values())) or not (
            isinstance(rates, list)
            and all(v is None or number(v) for v in rates)
        ):
            raise MalformedFile(
                "mask stats: values must be numbers, and drop rates a"
                " list of numbers or nulls"
            )
        fractions = [
            scalars["group_visible_fraction"],
            scalars["voxel_visible_fraction"],
        ] + [v for v in rates if v is not None]
        if not all(0.0 <= v <= 1.0 for v in fractions) or not (
            0.0 <= scalars["max_sensed_range"] < math.inf
        ):
            raise MalformedFile(
                "mask stats: fractions and drop rates must lie in [0, 1],"
                " and max_sensed_range must be finite and non-negative"
            )
        return cls(
            per_subgroup_drop_rate=tuple(
                float("nan") if v is None else v for v in rates
            ),
            **scalars,
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


def in_groups(groups: np.ndarray, selected) -> np.ndarray:
    """Whether each group index is in the selected set (all False when
    the set is empty)."""
    return np.isin(groups, np.fromiter(selected, dtype=np.int64))


def distance_subgroups(r: np.ndarray, thresholds) -> np.ndarray:
    """Radial band index of each radius r; a radius equal to a threshold
    lands in the farther band."""
    return np.searchsorted(np.asarray(thresholds), r, side="right").astype(
        np.int64
    )


def select_groups(cfg: MaskConfig, seed: int | None = None) -> frozenset[int]:
    """Stage 1: the sensed angular groups, deterministic in the seed."""
    seed = cfg.seed if seed is None else seed
    p_keep = 1.0 - cfg.m
    if cfg.selection_mode == "bernoulli":
        u = keyrand.uniform_array(
            seed,
            np.full(cfg.n_groups, _GROUP_STREAM, dtype=np.int64),
            np.arange(cfg.n_groups, dtype=np.int64),
        )
        return frozenset(np.flatnonzero(u < p_keep).tolist())
    count = int(round(p_keep * cfg.n_groups))
    rng = np.random.default_rng(keyrand.derive_seed(seed, _GROUP_STREAM))
    return frozenset(
        rng.choice(cfg.n_groups, size=count, replace=False).tolist()
    )


def apply_mask(
    grid: VoxelGrid, cfg: MaskConfig, seed: int | None = None
) -> MaskOutcome:
    """Mask a voxel grid: unselected groups go dark entirely; voxels in
    sensed groups survive an independent keyed Bernoulli drop with
    probability p_drop[group, subgroup]."""
    seed = cfg.seed if seed is None else seed
    selected = select_groups(cfg, seed)
    n = len(grid)
    r, theta = cylindrical_arrays(grid.geometry.centers(grid.coords))
    groups = angular_groups(theta, cfg.n_groups)
    subgroups = distance_subgroups(r, cfg.r_thresholds)
    in_selected = in_groups(groups, selected)
    u = keyrand.uniform_array(
        seed,
        np.full(n, _VOXEL_STREAM, dtype=np.int64),
        groups,
        grid.coords[:, 0],
        grid.coords[:, 1],
        grid.coords[:, 2],
    )
    p = _drop_probs(cfg, groups, subgroups)
    visible = in_selected & (u >= p)

    stats = _compute_stats(cfg, selected, visible, in_selected, subgroups, r)
    return MaskOutcome(selected, visible, groups, subgroups, stats)


def _drop_probs(
    cfg: MaskConfig, groups: np.ndarray, subgroups: np.ndarray
) -> np.ndarray:
    table = np.asarray(cfg.p_drop, dtype=np.float64)
    rows = np.zeros_like(groups) if table.shape[0] == 1 else groups
    return table[rows, subgroups]


def _compute_stats(cfg, selected, visible, in_selected, subgroups, r):
    n = len(visible)
    rates = []
    for k in range(cfg.n_subgroups):
        sel_k = in_selected & (subgroups == k)
        total = int(sel_k.sum())
        if total == 0:
            rates.append(float("nan"))
        else:
            rates.append(float((sel_k & ~visible).sum()) / total)
    vis_r = r[visible]
    return MaskStats(
        group_visible_fraction=len(selected) / cfg.n_groups,
        voxel_visible_fraction=float(visible.sum()) / n if n else 0.0,
        per_subgroup_drop_rate=tuple(rates),
        max_sensed_range=float(vis_r.max()) if vis_r.size else 0.0,
    )


def write_mask_dump(outcome: MaskOutcome, grid: VoxelGrid, path) -> None:
    """Text export: "ix iy iz M" per voxel, M=1 visible, canonical order."""
    with open(path, "w", newline="\n") as fh:
        for (ix, iy, iz), vis in zip(grid.coords, outcome.visible):
            fh.write(f"{ix} {iy} {iz} {1 if vis else 0}\n")
