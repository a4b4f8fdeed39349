"""Pre-training on masked frames and reconstruction metrics.

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
import mmap
import os
import signal
import sys
from dataclasses import dataclass, field

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
from .pointcloud import PointCloud
from .radial_mask import MaskConfig, MaskStats, angular_groups, apply_mask
from .voxelizer import GridGeometry, occupancy_of, voxelize

_SHUFFLE_STREAM = 0x53485546
_MASK_STREAM = 0x4D41534B
_QUERY_STREAM = 0x51535259
_EVAL_STREAM = 0x4556414C
MAX_EPOCHS = 100_000  # over 3,000 times the default


def usable_cores() -> int:
    """Cores this process may run on (all of them where the platform has
    no affinity call)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count() -> int:
    """Worker cap from RMAE_THREADS (unset -> 1, 0 -> all cores), at most
    usable_cores(), and 1 where the platform has no os.fork: results do
    not depend on the count, and each worker holds a frame's working
    set."""
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
    if not hasattr(os, "fork"):
        return 1
    cores = usable_cores()
    return cores if n == 0 else min(n, cores)


def _as_is(k: int, result):
    return result


@contextlib.contextmanager
def _forked(n: int, step, send=_as_is, receive=_as_is):
    """Yield run(jobs), a generator of step(job) for each job, in order,
    with up to n jobs running at once.

    n - 1 forked worker processes run every job of a round of n but the
    last, which the calling process runs.  Worker k pipes back send(k,
    step(job)), which the caller hands on as receive(k, message).  A
    worker's exception is raised here with its type.  Leaving the block
    kills and reaps every worker.  At n <= 1 every job runs in the
    calling process."""
    if n <= 1:
        yield lambda jobs: map(step, jobs)
        return
    import multiprocessing  # ~1 MiB that a run forking no worker never pays

    pids, conns = [], []
    try:
        sys.stdout.flush()
        sys.stderr.flush()
        for k in range(n - 1):
            conn, child = multiprocessing.Pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    for other in conns + [conn]:
                        other.close()
                    _serve(child, lambda job: send(k, step(job)))
                finally:
                    os._exit(0)
            child.close()
            pids.append(pid)
            conns.append(conn)

        def run(jobs):
            for start in range(0, len(jobs), n):
                *theirs, last = jobs[start : start + n]
                busy = list(zip(pids, conns))[: len(theirs)]
                for (pid, conn), job in zip(busy, theirs):
                    _on_pipe(pid, conn.send, job)
                mine = step(last)
                for k, (pid, conn) in enumerate(busy):
                    ok, message = _on_pipe(pid, conn.recv)
                    if not ok:
                        raise message
                    yield receive(k, message)
                yield mine

        yield run
    finally:
        for conn in conns:
            conn.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _on_pipe(pid: int, call, *args):
    """call(*args) on worker pid's pipe; RuntimeError if the worker is
    gone."""
    try:
        return call(*args)
    except (EOFError, OSError):
        raise RuntimeError(f"worker {pid} exited without a result") from None


def _serve(conn, run) -> None:
    """A worker's loop: send (True, run(job)) for each job the pipe brings,
    or (False, the exception).  Returns when the pipe closes."""
    while True:
        try:
            job = conn.recv()
        except EOFError:
            return
        try:
            conn.send((True, run(job)))
        except Exception as exc:  # re-raised in the parent
            conn.send((False, exc))


@contextlib.contextmanager
def _gradient_blocks(net: OccupancyNet, n: int):
    """Yield (send, receive) for _forked's n - 1 training workers.

    For the length of the block the parameters live in block 0 of one
    anonymous shared mapping, so an in-place optimizer step is what every
    worker reads at its next job.  Worker k's send writes its frame's
    gradients into block k + 1 and returns only the loss and its batch
    norms' named statistics; receive rebuilds the result around that
    block, which holds the gradients until the worker's next job.  Leaving
    the block moves the parameters back to private arrays.  At n <= 1
    both pass results through."""
    if n <= 1:
        yield _as_is, _as_is
        return
    layers = [layer for _, layer in net.named_layers()]
    bound = [(layer, tname) for layer in layers for tname in layer.params()]
    params = net.parameters()  # bound's arrays, in bound's order
    sizes = [-(-arr.nbytes // 64) * 64 for _, arr in params]
    offsets = np.cumsum([0] + sizes).tolist()
    shared = mmap.mmap(-1, offsets[-1] * n)
    blocks = [  # views of the k-th parameter-sized block of the mapping
        {
            path: np.ndarray(a.shape, a.dtype, shared, k * offsets[-1] + at)
            for (path, a), at in zip(params, offsets)
        }
        for k in range(n)
    ]
    for (layer, tname), view in zip(bound, blocks[0].values()):
        view[...] = getattr(layer, tname)
        setattr(layer, tname, view)
    del params  # frees the private arrays that block 0 replaced
    grads = blocks[1:]

    def send(k, result):  # a skipped frame's None passes as it is
        if result is not None:
            loss, frame_grads, stats = result
            for path, g in frame_grads.items():
                grads[k][path][...] = g
            return loss, stats

    def receive(k, message):
        if message is not None:
            loss, stats = message
            return loss, grads[k], stats

    try:
        yield send, receive
    finally:
        for layer, tname in bound:
            setattr(layer, tname, getattr(layer, tname).copy())


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 4
    optimizer: str = "adam"  # the only one; kept as perfbench passes it
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
        if not 1 <= self.epochs <= MAX_EPOCHS:
            raise ValueError(f"epochs must lie in [1, {MAX_EPOCHS}]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be non-negative")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if not self.adam_eps > 0:
            raise ValueError("adam_eps must be positive")
        if self.optimizer != "adam":
            raise ValueError(
                f"optimizer must be adam, got {self.optimizer!r}"
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
            # the textbook operations, in order, in two temporaries d, s
            d = g - m
            m += np.multiply(d, 1 - b1, out=d)  # (1 - b1) * (g - m)
            np.subtract(np.multiply(g, g, out=d), v, out=d)
            v += np.multiply(d, 1 - b2, out=d)  # (1 - b2) * (g * g - v)
            np.multiply(np.divide(m, 1 - b1**self.t, out=d), self.lr, out=d)
            s = v / (1 - b2**self.t)  # vhat
            np.add(np.sqrt(s, out=s), self.eps, out=s)
            arr -= np.divide(d, s, out=d)  # lr * mhat / (sqrt(vhat) + eps)


def _prepare(frames, geom):
    if not frames:
        raise NoData("no frames given")
    grids = [voxelize(f, geom) for f in frames]
    if all(len(g) == 0 for g in grids):
        raise NoData("every frame voxelized to an empty grid")
    truths = [occupancy_of(g) for g in grids]
    return grids, truths


def _masked_input(grid, mask_cfg, query_cfg, key):
    """Mask grid and build its loss queries; returns (outcome, visible,
    query).  key is (seed, stream, *indices): the mask seed is
    derive_seed(*key), the query seed the same key on _QUERY_STREAM.
    apply_mask and build_query_set are looked up in this module per call,
    so perfbench's trace sees them by patching trainer's names."""
    seed, _, *indices = key
    outcome = apply_mask(grid, mask_cfg, seed=keyrand.derive_seed(*key))
    vis = visible_features(grid, outcome.visible)
    query_seed = keyrand.derive_seed(seed, _QUERY_STREAM, *indices)
    query = build_query_set(grid, vis.coords, query_cfg, seed=query_seed)
    return outcome, vis, query


def pretrain(
    frames: list[PointCloud],
    cfg: TrainConfig,
    net: OccupancyNet,
    geom: GridGeometry,
) -> tuple[OccupancyNet, list[float]]:
    """Train the network in place; returns (net, per-epoch mean BCE).

    A batch's frames are trained up to RMAE_THREADS at a time, each with
    its own forward tape, on forked worker processes (see _forked and
    _gradient_blocks).  Batch norm normalizes each frame by its own
    statistics, so batch_size only averages gradients.  Losses, gradients
    and batch-norm statistics are taken in frame order, so the result does
    not depend on the worker count.  Raises Diverged, before the optimizer
    step, on a non-finite loss or gradient.

    In sphere mode the decoder computes only the query cells and what they
    read (OccupancyNet.forward's query), and a frame with no query cell
    (nothing visible) is skipped: it adds no loss, gradient or batch-norm
    statistics, and the other frames keep their 1/len(batch) share.  A
    batch of skipped frames makes no optimizer step; an epoch of them
    raises NoData.
    """
    grids, truths = _prepare(frames, geom)
    sparse = cfg.query.mode == "sphere"  # decode only the query's reach

    def step(job):
        epoch_key, fi, bsz = job
        key = (cfg.seed, _MASK_STREAM, epoch_key, fi)
        _, vis, query = _masked_input(grids[fi], cfg.mask, cfg.query, key)
        if len(query) == 0:
            return None
        pred, tape = net.forward(
            vis, training=True, query=query if sparse else None
        )
        loss, grad_logits = occupancy_loss(
            pred.logits, truths[fi], query, batch_size=bsz
        )
        grads = net.backward(tape, grad_logits)
        return loss, grads, tape["bn_stats"]

    history = []
    n = min(worker_count(), cfg.batch_size, len(grids))
    with _gradient_blocks(net, n) as relay, _forked(n, step, *relay) as train:
        optimizer = AdamOptimizer(
            cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.adam_eps
        )
        params = net.parameters()
        for epoch in range(cfg.epochs):
            rng = np.random.default_rng(
                keyrand.derive_seed(cfg.seed, _SHUFFLE_STREAM, epoch)
            )
            order = rng.permutation(len(grids))
            epoch_key = epoch if cfg.remask_each_epoch else 0
            losses = []
            for start in range(0, len(order), cfg.batch_size):
                batch = order[start : start + cfg.batch_size].tolist()
                bsz = len(batch)
                batch_grads = None  # the first kept frame's, then summed
                batch_stats = []
                results = train([(epoch_key, fi, bsz) for fi in batch])
                for fi, result in zip(batch, results):
                    if result is None:  # nothing to query: skipped
                        continue
                    loss, grads, stats = result
                    if not math.isfinite(loss):
                        raise Diverged(
                            f"epoch {epoch}: frame {fi} has loss {loss}"
                        )
                    if batch_grads is None:
                        # a worker's are views of its block, which its
                        # next job overwrites: copied when there are workers
                        batch_grads = copy.deepcopy(grads) if n > 1 else grads
                    else:
                        for path, g in grads.items():
                            batch_grads[path] += g
                    losses.append(loss * bsz)  # per-frame mean BCE
                    batch_stats.append(stats)
                if batch_grads is None:  # every frame skipped: no step
                    continue
                bad = [
                    p
                    for p, g in batch_grads.items()
                    if not np.isfinite(g).all()
                ]
                if bad:
                    raise Diverged(
                        f"epoch {epoch}: non-finite gradient in"
                        f" {', '.join(bad)}"
                    )
                for stats in batch_stats:
                    net.commit_batch_stats(stats)
                if cfg.learning_rate > 0:
                    optimizer.step(params, batch_grads)
            if not losses:
                raise NoData(f"epoch {epoch}: no frame had a cell to query")
            history.append(float(np.mean(losses)))
    return net, history


def _region_mask(geom: GridGeometry, n_groups: int, selected) -> np.ndarray:
    """Dense boolean mask of cells whose angular group was never sensed."""
    nx, ny, nz = geom.dims
    dark = np.ones(n_groups, dtype=bool)
    dark[list(selected)] = False
    cells = dark[angular_groups(geom.column_polar[1], n_groups)]
    return np.repeat(cells.reshape(nx, ny, 1), nz, axis=2)


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

    Frames are evaluated up to RMAE_THREADS at a time, on forked worker
    processes (see _forked), and averaged in frame order, so the report
    does not depend on the worker count.
    masked_region_* restrict to grid cells in never-sensed angular sectors;
    they are NaN when every group was sensed (m = 0).
    """
    grids, truths = _prepare(frames, geom)

    def frame_metrics(i: int) -> dict:
        """Frame i's metrics, keyed by EvalReport field; bce is None
        without queries, the masked_region pair None where every cell was
        sensed."""
        truth, key = truths[i], (mask_cfg.seed, _EVAL_STREAM, i)
        outcome, vis, query = _masked_input(grids[i], mask_cfg, query_cfg, key)
        pred, _ = net.forward(vis, training=False)
        occ = truth.astype(bool)
        pred_occ = pred.logits > 0.0  # probability 0.5 threshold
        out = {
            "bce": None,
            "occupied_iou": _iou(pred_occ, occ),
            "masked_region_bce": None,
            "masked_region_iou": None,
            "voxel_accuracy": float((pred_occ == occ).mean()),
            "mean_duty": outcome.stats.group_visible_fraction,
            "mean_max_sensed_range": outcome.stats.max_sensed_range,
        }
        if len(query):
            out["bce"], _ = occupancy_loss(
                pred.logits, truth, query, batch_size=1
            )
        region = _region_mask(geom, mask_cfg.n_groups, outcome.selected_groups)
        if region.any():
            region_bce = bce_elements(pred.logits[region], occ[region])
            out["masked_region_bce"] = float(region_bce.mean())
            out["masked_region_iou"] = _iou(pred_occ[region], occ[region])
        return out

    n = min(worker_count(), len(grids))
    with _forked(n, frame_metrics) as run:
        per_frame = list(run(list(range(len(grids)))))
    means = {}
    for key in per_frame[0]:
        values = [m[key] for m in per_frame if m[key] is not None]
        means[key] = float(np.mean(values)) if values else float("nan")
    return EvalReport(**means, n_frames=len(frames))


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


# sweep.csv metric columns -> EvalReport fields, then FrugalReport fields
_SWEEP_COLUMNS = {"duty": "mean_duty"} | {
    name: name
    for name in (
        "mean_max_sensed_range",
        "bce",
        "occupied_iou",
        "masked_region_bce",
        "masked_region_iou",
        "voxel_accuracy",
    )
}
_SWEEP_ENERGY_COLUMNS = (
    "masked_P_laser",
    "masked_P_signal",
    "masked_P_ADC",
    "masked_P_total",
)


def write_sweep_csv(
    label: str, rows: list, path, energy: EnergyParams
) -> None:
    """Sweep table of (value, EvalReport) rows with frugal power columns
    (duty: mean sensed-group fraction; range: mean max sensed range)."""
    base = total_power(energy)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([label, *_SWEEP_COLUMNS, *_SWEEP_ENERGY_COLUMNS])
        for value, r in rows:
            stats = MaskStats(
                group_visible_fraction=r.mean_duty,
                voxel_visible_fraction=0.0,
                per_subgroup_drop_rate=(),
                max_sensed_range=r.mean_max_sensed_range,
            )
            fr = frugal_savings(base, stats, energy.R)
            vals = [getattr(r, name) for name in _SWEEP_COLUMNS.values()]
            vals += [getattr(fr, name) for name in _SWEEP_ENERGY_COLUMNS]
            w.writerow([_fmt(value)] + [_fmt(v) for v in vals])
