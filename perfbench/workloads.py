"""The four benchmark workloads: explicit configs, set-up, one op, checks.

Every config value is written out here instead of taken from a package
default, so a change to a default cannot silently change a workload.  All
seeds derive from the workload seed given on the command line.  The
benchmark calls the program only through public functions, looked up on
their modules at call time so that the traced run can wrap them.

Each workload answers four calls:

- ``setup(workdir)`` builds the inputs and whatever the op needs; it is
  timed as ``setup_s``.
- ``op(state, i)`` runs op ``i`` and returns ``(frames, output)``; it is the
  only timed work.
- ``check(state, i, output)`` returns a list of broken invariants.  It
  checks invariants, never golden values.
- ``finish(state)`` returns the quality numbers and any broken invariants.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict

import numpy as np

from rmae import energy_model, pointcloud, radial_mask, trainer, voxelizer
from rmae.energy_model import EnergyParams
from rmae.occupancy_net import NetConfig, QueryConfig, checkpoint, network
from rmae.pointcloud import SceneSpec
from rmae.radial_mask import MaskConfig
from rmae.trainer import TrainConfig
from rmae.voxelizer import GridGeometry

NAMES = ("train-dense", "train-sphere", "infer", "sense")
SWEEP_RATIOS = (0.5, 0.6, 0.7, 0.8, 0.9, 0.92, 0.95)  # the CLI's sweep default
NEAR_BANDS = (6.0, 12.0)  # inside the grid's reach, so stage 2 drops voxels


def sub_seed(seed: int, tag: str) -> int:
    """A 32-bit child seed of the workload seed, one per named use."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _geometry(tiny: bool) -> GridGeometry:
    if tiny:
        return GridGeometry((-6.4, -6.4, -1.6), (0.8, 0.8, 0.8), (16, 16, 8))
    return GridGeometry((-12.8, -12.8, -3.2), (0.4, 0.4, 0.4), (64, 64, 16))


def _net(tiny: bool, seed: int) -> NetConfig:
    return NetConfig(
        in_channels=4,
        stage_channels=(4, 8, 8) if tiny else (16, 32, 64),
        bn_eps=1e-5,
        bn_momentum=0.1,
        seed=sub_seed(seed, "net"),
    )


def _scene(seed: int, tag: str, rings: int, az_step: float) -> SceneSpec:
    return SceneSpec(
        ground_extent=12.0,
        box_count=6,
        box_size=(0.6, 2.4),
        occlusion=True,
        seed=sub_seed(seed, tag),
        ground_noise=0.02,
        sensor_rings=rings,
        azimuth_step_deg=az_step,
    )


def _mask(m: float, bands, seed: int) -> MaskConfig:
    return MaskConfig(
        n_groups=360,
        m=m,
        selection_mode="bernoulli",
        r_thresholds=bands,
        p_drop=((0.0, 0.5, 0.9),),
        seed=seed,
    )


def mask_problems(outcome) -> list[str]:
    """Invariants of one mask outcome."""
    out = []
    selected = np.fromiter(outcome.selected_groups, dtype=np.int64)
    if not np.isin(outcome.groups[outcome.visible], selected).all():
        out.append("a visible voxel lies outside the selected groups")
    stats = outcome.stats
    if not 0.0 <= stats.group_visible_fraction <= 1.0:
        out.append(f"duty {stats.group_visible_fraction} outside [0, 1]")
    # NaN marks a range band with no voxel in a sensed group
    if any(
        not (math.isnan(r) or 0.0 <= r <= 1.0)
        for r in stats.per_subgroup_drop_rate
    ):
        out.append(f"drop rates {stats.per_subgroup_drop_rate} outside [0, 1]")
    return out


def logit_problems(logits, geom: GridGeometry) -> list[str]:
    out = []
    if logits.shape != tuple(geom.dims):
        out.append(f"logits shape {logits.shape} != grid {tuple(geom.dims)}")
    if not np.isfinite(logits).all():
        out.append("non-finite logits")
    return out


def _jsonable(value):
    if hasattr(value, "__dataclass_fields__"):
        return _jsonable(asdict(value))
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


class Workload:
    name: str
    threads: int  # RMAE_THREADS for the run
    min_ops: int  # ops a run makes even when --seconds runs out first
    geom: GridGeometry

    def config(self) -> dict:
        """The full config, as JSON-ready data."""
        return _jsonable(
            {k: v for k, v in vars(self).items() if not k.startswith("_")}
        )

    def config_hash(self) -> str:
        raw = json.dumps(self.config(), sort_keys=True).encode()
        return hashlib.sha256(raw).hexdigest()[:16]

    def finish(self, state) -> tuple[dict[str, float], list[str]]:
        return {}, []


class Train(Workload):
    """trainer.pretrain from a freshly built net, one epoch over the frames.

    Every op trains from the same initial weights on the same frames, so
    the quality numbers come from the first op and do not depend on how
    many ops fit in the run."""

    def __init__(self, name, seed, tiny, query, m, batch_size, threads):
        self.name = name
        self.threads = threads
        self.min_ops = 1
        self.geom = _geometry(tiny)
        self.net = _net(tiny, seed)
        self.n_train = 2 if tiny else 8
        self.scenes = [
            _scene(seed, f"frame{i}", 28, 0.8)
            for i in range(self.n_train + (1 if tiny else 2))
        ]
        self.train = TrainConfig(
            epochs=1,
            batch_size=batch_size,
            optimizer="adam",
            learning_rate=1e-3,
            beta1=0.9,
            beta2=0.999,
            adam_eps=1e-8,
            seed=sub_seed(seed, "train"),
            mask=_mask(m, (30.0, 50.0), sub_seed(seed, "mask")),
            query=QueryConfig(mode=query, sphere_radius=3.0, balance_empty=False),
            deterministic=True,
            remask_each_epoch=True,
        )

    def setup(self, workdir):
        frames = [pointcloud.synth_scene(s) for s in self.scenes]
        grids = [voxelizer.voxelize(f, self.geom) for f in frames]
        if any(len(g) == 0 for g in grids):
            raise RuntimeError("a synthetic frame voxelized to an empty grid")
        # input of the checkpoint round trip: the first held-out frame, masked
        held = grids[self.n_train]
        outcome = radial_mask.apply_mask(held, self.train.mask)
        return {
            "workdir": workdir,
            "train": frames[: self.n_train],
            "heldout": frames[self.n_train :],
            "probe": network.visible_features(held, outcome.visible),
        }

    def op(self, state, i):
        net = network.OccupancyNet.create(self.net)
        net, history = trainer.pretrain(state["train"], self.train, net, self.geom)
        return self.n_train * self.train.epochs, (net, history)

    def check(self, state, i, out):
        net, history = out
        problems = []
        if len(history) != self.train.epochs or not np.isfinite(history).all():
            problems.append(f"loss history {history} is not finite per epoch")
        if not all(np.isfinite(a).all() for _, a in net.parameters()):
            problems.append("non-finite parameter after training")
        if "net" not in state:
            state["net"], state["history"] = net, history
            problems += _round_trip(net, state["probe"], state["workdir"], self.geom)
        return problems

    def finish(self, state):
        report = trainer.evaluate(
            state["heldout"],
            state["net"],
            self.train.mask,
            self.train.query,
            self.geom,
        )
        quality = {
            "train_loss_final": state["history"][-1],
            "heldout_bce": report.bce,
            "heldout_masked_iou": report.masked_region_iou,
        }
        bad = [k for k, v in quality.items() if not math.isfinite(v)]
        return quality, [f"{k} is not finite" for k in bad]


def _round_trip(net, probe, workdir, geom) -> list[str]:
    """A net reloaded from its checkpoint must give bitwise-identical logits."""
    path = os.path.join(workdir, "net.rmae")
    checkpoint.save_checkpoint(net, path)
    reloaded = checkpoint.load_checkpoint(path)
    a = net.forward(probe, training=False)[0].logits
    b = reloaded.forward(probe, training=False)[0].logits
    problems = logit_problems(b, geom)
    if a.tobytes() != b.tobytes():
        problems.append("reloaded checkpoint changes the logits")
    return problems


class Infer(Workload):
    """Closed loop, one client, one frame per request: voxelize, mask,
    encode and decode in eval mode, threshold.  The served net is loaded
    from a checkpoint during set-up; it keeps its seeded initial weights,
    which cost the same to run as trained ones."""

    def __init__(self, seed, tiny):
        self.name = "infer"
        self.threads = 1
        self.min_ops = 100  # p90 then has at least 10 samples beyond it
        self.seed = seed
        self.geom = _geometry(tiny)
        self.net = _net(tiny, seed)
        self.scenes = [_scene(seed, f"frame{i}", 28, 0.8) for i in range(8)]
        self.mask = _mask(0.8, NEAR_BANDS, sub_seed(seed, "mask"))

    def setup(self, workdir):
        frames = [pointcloud.synth_scene(s) for s in self.scenes]
        net = network.OccupancyNet.create(self.net)
        path = os.path.join(workdir, "served.rmae")
        checkpoint.save_checkpoint(net, path)
        return {
            "frames": frames,
            "served": checkpoint.load_checkpoint(path),
            "built": net,
        }

    def op(self, state, i):
        frames = state["frames"]
        grid = voxelizer.voxelize(frames[i % len(frames)], self.geom)
        seed = sub_seed(self.seed, f"request{i}")
        outcome = radial_mask.apply_mask(grid, self.mask, seed=seed)
        visible = network.visible_features(grid, outcome.visible)
        pred, _ = state["served"].forward(visible, training=False)
        occupied = pred.logits > 0.0
        return 1, (outcome, visible, pred.logits, occupied)

    def check(self, state, i, out):
        outcome, visible, logits, occupied = out
        problems = mask_problems(outcome) + logit_problems(logits, self.geom)
        if occupied.shape != logits.shape:
            problems.append("thresholded occupancy lost the grid's shape")
        if i == 0:
            ref = state["built"].forward(visible, training=False)[0].logits
            if ref.tobytes() != logits.tobytes():
                problems.append("net loaded from checkpoint changes the logits")
        return problems


class Sense(Workload):
    """KITTI-density frames read from .bin files, voxelized, masked at each
    sweep ratio and priced.  No network runs."""

    def __init__(self, seed, tiny):
        self.name = "sense"
        self.threads = 1
        self.min_ops = 100
        self.seed = seed
        self.geom = _geometry(tiny)
        rings, az = (8, 1.0) if tiny else (64, 0.2)
        self.scenes = [_scene(seed, f"frame{i}", rings, az) for i in range(8)]
        self.energy = EnergyParams(
            P_r=1e-9,
            R=100.0,
            tau=5e-9,
            A_r=1e-3,
            rho=0.5,
            eta=0.5,
            f_pulse=1e5,
            eta_laser=0.25,
            V_motor=12.0,
            I_motor=0.5,
            eta_motor=0.8,
            k_adc=1e-12,
            N_bits=12,
            P_MCU=0.2,
            k_signal=1e-10,
            N_fft=1024,
            lam=905e-9,
            D_aperture=0.01,
        )
        # the mask seed is drawn per frame in op()
        self.masks = [_mask(m, NEAR_BANDS, 0) for m in SWEEP_RATIOS]

    def setup(self, workdir):
        paths = []
        for i, spec in enumerate(self.scenes):
            path = os.path.join(workdir, f"{i:06d}.bin")
            pointcloud.save_kitti_bin(pointcloud.synth_scene(spec), path)
            paths.append(path)
        return {"paths": paths, "base": energy_model.total_power(self.energy)}

    def op(self, state, i):
        paths = state["paths"]
        cloud = pointcloud.load_kitti_bin(paths[i % len(paths)])
        grid = voxelizer.voxelize(cloud, self.geom)
        seed = sub_seed(self.seed, f"mask{i}")
        out = []
        for cfg in self.masks:
            outcome = radial_mask.apply_mask(grid, cfg, seed=seed)
            report = energy_model.frugal_savings(
                state["base"], outcome.stats, self.energy.R
            )
            out.append((cfg, outcome, report))
        return 1, out

    def check(self, state, i, out):
        problems = []
        total = state["base"].P_total
        for cfg, outcome, report in out:
            problems += mask_problems(outcome)
            if not report.masked_P_total <= total:
                problems.append(
                    f"masked_P_total {report.masked_P_total} > P_total {total}"
                )
        return problems


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    """The named workload; tiny shrinks grid, net and frames for tests."""
    if name == "train-dense":
        return Train(name, seed, tiny, "all_voxels", 0.8, 4, 2)
    if name == "train-sphere":
        return Train(name, seed, tiny, "sphere", 0.9, 1, 1)
    if name == "infer":
        return Infer(seed, tiny)
    if name == "sense":
        return Sense(seed, tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
