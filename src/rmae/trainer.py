"""Pre-training on masked frames, reconstruction metrics, and sweeps.

The pretext objective: mask each frame radially, encode the surviving
voxels, decode dense occupancy logits, and minimize BCE against the full
ground-truth occupancy.  Masks are re-drawn every epoch (keyed by config
seed, epoch, and frame index) unless remask_each_epoch is off.  All runs
are bitwise reproducible for a fixed config on one machine.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import keyrand
from .energy_model import EnergyParams, frugal_savings, total_power
from .errors import ConfigError, Diverged, NoData
from .occupancy_net import (
    OccupancyNet,
    QueryConfig,
    build_query_set,
    occupancy_loss,
    visible_features,
)
from .occupancy_net.loss import bce_elements
from .pointcloud import PointCloud, cylindrical_arrays
from .radial_mask import MaskConfig, MaskStats, apply_mask
from .voxelizer import GridGeometry, occupancy_of, voxelize

_SHUFFLE_STREAM = 0x53485546
_MASK_STREAM = 0x4D41534B
_QUERY_STREAM = 0x51535259
_EVAL_STREAM = 0x4556414C


def worker_count() -> int:
    """Worker cap from RMAE_THREADS (unset -> 1, 0 -> all cores)."""
    raw = os.environ.get("RMAE_THREADS")
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError:
        n = -1
    if n < 0:
        raise ConfigError(
            f"RMAE_THREADS must be a non-negative integer, got {raw!r}"
        )
    return os.cpu_count() or 1 if n == 0 else n


def parallel_map(fn, items):
    """Yield fn(item) for each item, in order.

    Up to min(worker_count(), len(items)) items run at once: the calling
    thread runs one, a pool runs the rest.  A result is yielded as soon as
    it and every result before it are done, and at most that many results
    exist before the consumer takes them.
    """
    items = list(items)
    n = min(worker_count(), len(items))
    if n <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=n - 1) as pool:
        pending: deque = deque()
        for i, item in enumerate(items):
            if len(pending) < n - 1 and i < len(items) - 1:
                pending.append(pool.submit(fn, item))
                continue
            mine = fn(item)
            while pending:
                yield pending.popleft().result()
            yield mine


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 4
    optimizer: str = "adam"  # or "sgd"
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    mask: MaskConfig = field(default_factory=MaskConfig)
    query: QueryConfig = field(default_factory=QueryConfig)
    deterministic: bool = True
    remask_each_epoch: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be non-negative")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(
                f"optimizer must be adam or sgd, got {self.optimizer!r}"
            )


@dataclass(frozen=True)
class EvalReport:
    bce: float
    occupied_iou: float
    masked_region_bce: float  # NaN when nothing was masked
    masked_region_iou: float
    voxel_accuracy: float
    mean_duty: float
    mean_max_sensed_range: float
    n_frames: int

    def to_json_dict(self) -> dict:
        return {
            k: (None if isinstance(v, float) and math.isnan(v) else v)
            for k, v in self.__dict__.items()
        }


@dataclass(frozen=True)
class SweepRow:
    label: str  # "m" or "span_deg"
    value: float
    report: EvalReport


class SgdOptimizer:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params, grads: dict[str, np.ndarray]) -> None:
        for path, arr in params:
            arr -= self.lr * grads[path]


class AdamOptimizer:
    def __init__(self, lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for path, arr in params:
            g = grads[path]
            m = self.m.setdefault(path, np.zeros_like(arr))
            v = self.v.setdefault(path, np.zeros_like(arr))
            m += (1 - b1) * (g - m)
            v += (1 - b2) * (g * g - v)
            mhat = m / (1 - b1**self.t)
            vhat = v / (1 - b2**self.t)
            arr -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


def make_optimizer(cfg: TrainConfig):
    if cfg.optimizer == "sgd":
        return SgdOptimizer(cfg.learning_rate)
    return AdamOptimizer(cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps)


def _prepare(frames, geom):
    grids = list(parallel_map(lambda f: voxelize(f, geom), frames))
    if all(len(g) == 0 for g in grids):
        raise NoData("every frame voxelized to an empty grid")
    truths = [occupancy_of(g) for g in grids]
    return grids, truths


def pretrain(
    frames: list[PointCloud],
    cfg: TrainConfig,
    net: OccupancyNet,
    geom: GridGeometry,
) -> tuple[OccupancyNet, list[float]]:
    """Train the network in place; returns (net, per-epoch mean BCE).

    A batch's frames are trained up to RMAE_THREADS at a time, each on its
    own thread with its own forward tape.  Batch norm normalizes each
    frame by its own statistics, so batch_size only averages gradients.
    Losses, gradients and batch-norm statistics are taken in frame order,
    so the result does not depend on the thread count.  Raises Diverged,
    before the optimizer step, on a non-finite loss or gradient.
    """
    if not frames:
        raise NoData("no frames given")
    grids, truths = _prepare(frames, geom)
    optimizer = make_optimizer(cfg)
    params = net.parameters()
    history = []
    for epoch in range(cfg.epochs):
        rng = np.random.default_rng(
            keyrand.derive_seed(cfg.seed, _SHUFFLE_STREAM, epoch)
        )
        order = rng.permutation(len(grids))
        epoch_key = epoch if cfg.remask_each_epoch else 0
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            bsz = len(batch)

            def step(fi: int):
                mask_seed = keyrand.derive_seed(
                    cfg.seed, _MASK_STREAM, epoch_key, fi
                )
                outcome = apply_mask(grids[fi], cfg.mask, seed=mask_seed)
                vis = visible_features(grids[fi], outcome.visible)
                query = build_query_set(
                    truths[fi],
                    vis.coords,
                    cfg.query,
                    seed=keyrand.derive_seed(
                        cfg.seed, _QUERY_STREAM, epoch_key, fi
                    ),
                )
                pred, tape = net.forward(vis, training=True)
                loss, grad_logits = occupancy_loss(
                    pred.logits, truths[fi], query, batch_size=bsz
                )
                grads = net.backward(tape, grad_logits)
                return loss, grads, tape["bn_stats"]

            batch_grads = net.zero_grads()
            batch_stats = []
            results = parallel_map(step, batch.tolist())
            with contextlib.closing(results):  # joins the pool on a raise
                for fi, (loss, grads, stats) in zip(batch, results):
                    if not math.isfinite(loss):
                        raise Diverged(
                            f"epoch {epoch}: frame {fi} has loss {loss}"
                        )
                    for path, g in grads.items():
                        batch_grads[path] += g
                    losses.append(loss * bsz)  # per-frame mean BCE
                    batch_stats.append(stats)
            bad = [
                p for p, g in batch_grads.items() if not np.isfinite(g).all()
            ]
            if bad:
                raise Diverged(
                    f"epoch {epoch}: non-finite gradient in {', '.join(bad)}"
                )
            for stats in batch_stats:
                net.commit_batch_stats(stats)
            if cfg.learning_rate > 0:
                optimizer.step(params, batch_grads)
        history.append(float(np.mean(losses)))
    return net, history


def _region_mask(geom: GridGeometry, n_groups: int, selected) -> np.ndarray:
    """Dense boolean mask of cells whose angular group was never sensed."""
    nx, ny, _ = geom.dims
    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    cols = np.column_stack([ix.ravel(), iy.ravel(), np.zeros(ix.size)])
    centers = geom.centers(cols)
    _, theta = cylindrical_arrays(centers)
    groups = np.minimum(
        (theta / (2.0 * np.pi / n_groups)).astype(np.int64), n_groups - 1
    )
    dark = ~np.isin(
        groups,
        np.fromiter(selected, dtype=np.int64)
        if selected
        else np.empty(0, dtype=np.int64),
    )
    return np.repeat(
        dark.reshape(nx, ny, 1), geom.dims[2], axis=2
    )


def _iou(pred: np.ndarray, truth: np.ndarray) -> float:
    union = int(np.logical_or(pred, truth).sum())
    if union == 0:
        return 1.0
    return float(np.logical_and(pred, truth).sum()) / union


def evaluate(
    frames: list[PointCloud],
    net: OccupancyNet,
    mask_cfg: MaskConfig,
    query_cfg: QueryConfig,
    geom: GridGeometry,
) -> EvalReport:
    """Masked-reconstruction metrics, averaged over frames.

    masked_region_* restrict to grid cells in never-sensed angular sectors;
    they are NaN when every group was sensed (m = 0).
    """
    if not frames:
        raise NoData("no frames given")
    grids, truths = _prepare(frames, geom)
    bces, ious, accs, mr_bces, mr_ious, duties, ranges = (
        [], [], [], [], [], [], [],
    )
    for i, (grid, truth) in enumerate(zip(grids, truths)):
        seed = keyrand.derive_seed(mask_cfg.seed, _EVAL_STREAM, i)
        outcome = apply_mask(grid, mask_cfg, seed=seed)
        vis = visible_features(grid, outcome.visible)
        pred, _ = net.forward(vis, training=False)
        occ = truth.o.astype(bool)
        pred_occ = pred.logits > 0.0  # probability 0.5 threshold

        query = build_query_set(
            truth,
            vis.coords,
            query_cfg,
            seed=keyrand.derive_seed(mask_cfg.seed, _QUERY_STREAM, i),
        )
        if len(query):
            loss, _ = occupancy_loss(pred.logits, truth, query, batch_size=1)
            bces.append(loss)
        ious.append(_iou(pred_occ, occ))
        accs.append(float((pred_occ == occ).mean()))
        duties.append(outcome.stats.group_visible_fraction)
        ranges.append(outcome.stats.max_sensed_range)

        region = _region_mask(geom, mask_cfg.n_groups, outcome.selected_groups)
        if region.any():
            mr_bces.append(
                float(bce_elements(pred.logits[region], occ[region]).mean())
            )
            mr_ious.append(_iou(pred_occ[region], occ[region]))
    nan = float("nan")
    return EvalReport(
        bce=float(np.mean(bces)) if bces else nan,
        occupied_iou=float(np.mean(ious)),
        masked_region_bce=float(np.mean(mr_bces)) if mr_bces else nan,
        masked_region_iou=float(np.mean(mr_ious)) if mr_ious else nan,
        voxel_accuracy=float(np.mean(accs)),
        mean_duty=float(np.mean(duties)),
        mean_max_sensed_range=float(np.mean(ranges)),
        n_frames=len(frames),
    )


def sweep_masking_ratio(
    frames: list[PointCloud],
    net_init: OccupancyNet,
    cfg: TrainConfig,
    ratios: list[float],
    geom: GridGeometry,
    eval_frames: list[PointCloud] | None = None,
) -> list[SweepRow]:
    """Re-train from net_init at each masking ratio and evaluate."""
    rows = []
    for m in ratios:
        cfg_m = replace(cfg, mask=replace(cfg.mask, m=m))
        net = copy.deepcopy(net_init)
        net, _ = pretrain(frames, cfg_m, net, geom)
        report = evaluate(
            eval_frames if eval_frames is not None else frames,
            net,
            cfg_m.mask,
            cfg.query,
            geom,
        )
        rows.append(SweepRow("m", float(m), report))
    return rows


def sweep_angular_range(
    frames: list[PointCloud],
    net_init: OccupancyNet,
    cfg: TrainConfig,
    group_spans_degrees: list[float],
    geom: GridGeometry,
    eval_frames: list[PointCloud] | None = None,
) -> list[SweepRow]:
    """Re-train at each angular group span (degrees); m stays fixed at the
    configured masking ratio (0.8 by default)."""
    rows = []
    for span in group_spans_degrees:
        if span <= 0:
            raise ValueError("group span must be positive degrees")
        n_g = max(1, int(round(360.0 / span)))
        # per-group drop rows cannot follow a group-count change; keep row 0
        shared = (cfg.mask.p_drop[0],)
        cfg_s = replace(
            cfg, mask=replace(cfg.mask, n_groups=n_g, p_drop=shared)
        )
        net = copy.deepcopy(net_init)
        net, _ = pretrain(frames, cfg_s, net, geom)
        report = evaluate(
            eval_frames if eval_frames is not None else frames,
            net,
            cfg_s.mask,
            cfg.query,
            geom,
        )
        rows.append(SweepRow("span_deg", float(span), report))
    return rows


def _fmt(v: float) -> str:
    if isinstance(v, float) and math.isnan(v):
        return "n/a"
    return repr(float(v))


def write_loss_csv(history: list[float], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["epoch", "mean_bce"])
        for i, v in enumerate(history):
            w.writerow([i, _fmt(v)])


def write_sweep_csv(
    rows: list[SweepRow], path, energy: EnergyParams | None = None
) -> None:
    """Sweep table; with energy params, frugal power columns are appended
    (duty from the mean sensed-group fraction, range from the mean max
    sensed range)."""
    metric_cols = [
        "duty",
        "mean_max_sensed_range",
        "bce",
        "occupied_iou",
        "masked_region_bce",
        "masked_region_iou",
        "voxel_accuracy",
    ]
    energy_cols = [
        "masked_P_laser",
        "masked_P_signal",
        "masked_P_ADC",
        "masked_P_total",
    ]
    base = total_power(energy) if energy is not None else None
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        label = rows[0].label if rows else "m"
        w.writerow([label] + metric_cols + (energy_cols if base else []))
        for row in rows:
            r = row.report
            vals = [
                r.mean_duty,
                r.mean_max_sensed_range,
                r.bce,
                r.occupied_iou,
                r.masked_region_bce,
                r.masked_region_iou,
                r.voxel_accuracy,
            ]
            if base is not None:
                stats = MaskStats(
                    group_visible_fraction=r.mean_duty,
                    voxel_visible_fraction=0.0,
                    per_subgroup_drop_rate=(),
                    max_sensed_range=r.mean_max_sensed_range,
                )
                fr = frugal_savings(base, stats, energy.R)
                vals += [
                    fr.masked_P_laser,
                    fr.masked_P_signal,
                    fr.masked_P_ADC,
                    fr.masked_P_total,
                ]
            w.writerow([_fmt(row.value)] + [_fmt(v) for v in vals])
