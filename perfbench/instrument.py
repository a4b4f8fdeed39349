"""Where the traced run wraps rmae, and how its spans become per-layer metrics.

Public calls are wrapped from outside, where their callers look them up:
``rmae.trainer.apply_mask`` as well as ``rmae.radial_mask.apply_mask``, and
``keyrand.uniform_array`` on its module, which is where ``radial_mask``
finds it.  Layer methods are wrapped on their classes and named after the
``named_layers()`` entry of the net that is running, so nets built after
the wrappers went in are traced too.
"""

from __future__ import annotations

import functools
import math
import os
import statistics

import numpy as np

from rmae import energy_model, keyrand, pointcloud, radial_mask, trainer, voxelizer
from rmae.occupancy_net import NetConfig, checkpoint, layers, loss, network

_MODULE_OBJECTS = {
    "pointcloud": pointcloud,
    "voxelizer": voxelizer,
    "keyrand": keyrand,
    "radial_mask": radial_mask,
    "loss": loss,
    "network": network,
    "layers": layers,
    "trainer": trainer,
    "checkpoint": checkpoint,
    "energy_model": energy_model,
}
MODULES = tuple(_MODULE_OBJECTS)
_MODULE_OF_FILE = {
    os.path.realpath(m.__file__): name for name, m in _MODULE_OBJECTS.items()
}
# Work counts are taken over the first traced ops only, so for one seed
# they repeat exactly however many ops fit in the run.
COUNT_OPS = 8
# layers whose busy time trainer.parallelism sums
_BUSY = (
    "network.forward",
    "network.backward",
    "loss.build_query_set",
    "loss.occupancy_loss",
    "trainer.optimizer_step",
)


@functools.cache
def _layers() -> tuple[tuple[str, type, str], ...]:
    """(name, class, kind) of every named layer of the default net."""
    net = network.OccupancyNet.create(NetConfig())
    return tuple((n, type(layer), layer.kind) for n, layer in net.named_layers())


def _sites(y) -> int:
    """Rows of a sparse output, cells of a dense (C, X, Y, Z) one."""
    if isinstance(y, np.ndarray):
        return int(np.prod(y.shape[1:]))
    return len(y)


def _mask_counts(args, outcome) -> dict:
    sensed = np.isin(
        outcome.groups, np.fromiter(outcome.selected_groups, dtype=np.int64)
    )
    return {
        "voxels": len(outcome.visible),
        "visible": int(outcome.visible.sum()),
        "sensed": int(sensed.sum()),
        "dropped": int((sensed & ~outcome.visible).sum()),
    }


def install(tracer) -> None:
    """Wrap every traced call; tracer.restore() takes the wrappers out."""
    names: dict[int, str] = {}  # id(layer) -> its name in the running net

    def timed(fn, name, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as span:
                out = fn(*args, **kwargs)
                if count is not None:
                    span.counts = count(args, out)
            return out

        return wrapper

    def wrap(owner, attr, name, count=None):
        tracer.patch(owner, attr, timed(getattr(owner, attr), name, count))

    wrap(pointcloud, "load_kitti_bin", "pointcloud.load_kitti_bin")
    for mod in (voxelizer, trainer):
        wrap(
            mod,
            "voxelize",
            "voxelizer.voxelize",
            lambda a, grid: {"points": len(a[0]), "voxels": len(grid)},
        )
        wrap(mod, "occupancy_of", "voxelizer.occupancy_of")
    wrap(keyrand, "uniform_array", "keyrand.uniform_array")
    for mod in (radial_mask, trainer):
        wrap(mod, "apply_mask", "radial_mask.apply_mask", _mask_counts)
    wrap(
        trainer,
        "build_query_set",
        "loss.build_query_set",
        lambda a, q: {"queries": len(q), "cells": a[0].geometry.n_cells},
    )
    wrap(trainer, "occupancy_loss", "loss.occupancy_loss")
    wrap(trainer, "pretrain", "trainer.pretrain")
    wrap(trainer, "evaluate", "trainer.evaluate")
    wrap(trainer.AdamOptimizer, "step", "trainer.optimizer_step")
    wrap(
        checkpoint,
        "save_checkpoint",
        "checkpoint.save",
        lambda a, _: {"bytes": os.path.getsize(a[1])},
    )
    wrap(checkpoint, "load_checkpoint", "checkpoint.load")
    wrap(energy_model, "frugal_savings", "energy_model.frugal_savings")

    def net_method(fn, name):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            names.update((id(layer), n) for n, layer in self.named_layers())
            with tracer.span(name):
                return fn(self, *args, **kwargs)

        return wrapper

    def layer_method(fn, suffix, conv):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            name = names.get(id(self), type(self).__name__)
            with tracer.span(f"layers.{name}.{suffix}") as span:
                out = fn(self, *args, **kwargs)
                if conv:
                    span.counts = {"sites": _sites(out[0])}
            return out

        return wrapper

    net_cls = network.OccupancyNet
    tracer.patch(net_cls, "forward", net_method(net_cls.forward, "network.forward"))
    tracer.patch(
        net_cls, "backward", net_method(net_cls.backward, "network.backward")
    )
    for cls, kind in {(cls, kind) for _, cls, kind in _layers()}:
        conv = kind != "batch_norm"
        tracer.patch(cls, "forward", layer_method(cls.forward, "fwd", conv))
        tracer.patch(cls, "backward", layer_method(cls.backward, "bwd", False))


def _steps(spans) -> list:
    """(forward, backward) span pairs, one per trained frame."""
    pairs, last = [], {}
    for s in sorted(spans, key=lambda s: s.start):
        if s.name == "network.forward":
            last[s.thread] = s
        elif s.name == "network.backward" and s.thread in last:
            pairs.append((last.pop(s.thread), s))
    return pairs


def _union_seconds(spans) -> float:
    total, hi = 0.0, float("-inf")
    for s in sorted(spans, key=lambda s: s.start):
        a, b = max(s.start, hi), s.end
        if b > a:
            total += b - a
            hi = b
    return total


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(tracer, quality: dict, overhead_pct: float) -> list[tuple]:
    """(name, value, unit, better) for every per-layer metric.

    Times are medians over the spans recorded inside traced ops; a call
    made only outside ops (set-up, evaluation, checks) is taken from all
    its spans.  A layer the workload never calls reads 0."""
    spans = tracer.spans
    selfs = tracer.self_seconds()
    in_op = [s for s in spans if s.op is not None and s.name != "op"]
    counted_ops = set(sorted({s.op for s in in_op})[:COUNT_OPS])
    out = []

    def put(name, value, unit, better="lower"):
        # a NaN quality number already fails the run's checks; print 0
        value = float(value)
        out.append((name, value if math.isfinite(value) else 0.0, unit, better))

    def pick(name):
        inside = [s for s in in_op if s.name == name]
        return inside or [s for s in spans if s.name == name]

    def ms(name):
        return _median(s.seconds for s in pick(name)) * 1e3

    def counts(name, key):
        picked = [s for s in pick(name) if s.op is None or s.op in counted_ops]
        return [s.counts[key] for s in picked]

    def mean_count(name, key):
        values = counts(name, key)
        return sum(values) / len(values) if values else 0.0

    put("pointcloud.load_kitti_bin.ms", ms("pointcloud.load_kitti_bin"), "ms")
    vox = "voxelizer.voxelize"
    put("pointcloud.points_per_frame", mean_count(vox, "points"), "points")
    put("voxelizer.voxelize.ms", ms("voxelizer.voxelize"), "ms")
    put("voxelizer.occupancy_of.ms", ms("voxelizer.occupancy_of"), "ms")
    put("voxelizer.voxels_per_frame", mean_count(vox, "voxels"), "voxels")
    put("keyrand.uniform_array.ms", ms("keyrand.uniform_array"), "ms")
    put(
        "radial_mask.apply_mask.self_ms",
        _median(selfs[s.id] for s in pick("radial_mask.apply_mask")) * 1e3,
        "ms",
    )
    mask = "radial_mask.apply_mask"
    put(
        "radial_mask.visible_ratio",
        _ratio(sum(counts(mask, "visible")), sum(counts(mask, "voxels"))),
        "ratio",
    )
    put(
        "radial_mask.stage2_drop_ratio",
        _ratio(sum(counts(mask, "dropped")), sum(counts(mask, "sensed"))),
        "ratio",
    )
    put("loss.build_query_set.ms", ms("loss.build_query_set"), "ms")
    put("loss.occupancy_loss.ms", ms("loss.occupancy_loss"), "ms")
    query = "loss.build_query_set"
    put(
        "loss.query_ratio",
        _ratio(sum(counts(query, "queries")), sum(counts(query, "cells"))),
        "ratio",
    )
    warned = [  # (module, text) per warning
        (_MODULE_OF_FILE.get(os.path.realpath(f)), text)
        for f, _, text in tracer.warned
    ]
    put(
        "loss.overflow_warnings",
        sum(1 for mod, text in warned if mod == "loss" and "overflow" in text),
        "count",
    )

    steps = _steps(in_op)
    backward_of = {f.id: b for f, b in steps}
    put("network.forward.ms", ms("network.forward"), "ms")
    put("network.backward.ms", ms("network.backward"), "ms")
    glue = []  # per frame: network self time, forward plus backward
    for f in pick("network.forward"):
        b = backward_of.get(f.id)
        glue.append(selfs[f.id] + (selfs[b.id] if b else 0.0))
    put("network.self_ms", _median(glue) * 1e3, "ms")

    for name, _, kind in _layers():
        put(f"layers.{name}.fwd_ms", ms(f"layers.{name}.fwd"), "ms")
        put(f"layers.{name}.bwd_ms", ms(f"layers.{name}.bwd"), "ms")
        if kind != "batch_norm":
            sites = mean_count(f"layers.{name}.fwd", "sites")
            put(f"layers.{name}.out_sites", sites, "sites")

    step_ms = [(b.end - f.start) * 1e3 for f, b in steps]
    put("trainer.step_ms.p50", np.percentile(step_ms, 50) if steps else 0.0, "ms")
    put("trainer.step_ms.p90", np.percentile(step_ms, 90) if steps else 0.0, "ms")
    put("trainer.optimizer_step.ms", ms("trainer.optimizer_step"), "ms")
    put("trainer.evaluate.ms", ms("trainer.evaluate"), "ms")
    busy = [s for s in in_op if s.name in _BUSY]
    put(
        "trainer.parallelism",
        _ratio(sum(s.seconds for s in busy), _union_seconds(busy)),
        "ratio",
        "higher",
    )
    put("trainer.train_loss_final", quality.get("train_loss_final", 0.0), "nats")
    put("trainer.heldout_bce", quality.get("heldout_bce", 0.0), "nats")
    put(
        "trainer.heldout_masked_iou",
        quality.get("heldout_masked_iou", 0.0),
        "ratio",
        "higher",
    )

    put("checkpoint.save.ms", ms("checkpoint.save"), "ms")
    put("checkpoint.load.ms", ms("checkpoint.load"), "ms")
    put("checkpoint.bytes", _median(counts("checkpoint.save", "bytes")), "bytes")
    put("energy_model.frugal_savings.ms", ms("energy_model.frugal_savings"), "ms")

    for mod in MODULES:
        put(f"{mod}.errors", tracer.errors[mod], "count")
        put(f"{mod}.warnings", sum(1 for m, _ in warned if m == mod), "count")

    coverage = []  # per frame: self times inside the step over the step
    for f, b in steps:
        inside = [
            s
            for s in in_op
            if s.thread == f.thread and s.start >= f.start and s.end <= b.end
        ]
        coverage.append(sum(selfs[s.id] for s in inside) / (b.end - f.start))
    put("trace.step_self_coverage", _median(coverage), "ratio", "higher")
    put("trace.overhead_pct", overhead_pct, "%")
    return out
