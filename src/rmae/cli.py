"""Command-line entry point and run configuration.

One subcommand per run: voxelize | mask | energy | pretrain | eval |
sweep-ratio | sweep-angle.  Configuration comes from an optional JSON file
plus dotted KEY=VALUE overrides (flags win over file values); the fully
materialized config is echoed to resolved_config.json in the output
directory so any run can be reproduced exactly.  Artifacts are written to
a temp name and renamed, never overwritten in place.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import os
import sys
import typing
from dataclasses import dataclass, replace
from pathlib import Path

from . import keyrand
from .energy_model import EnergyParams, frugal_savings, total_power
from .errors import ConfigError, Diverged, MalformedFile, NoData, RmaeError
from .occupancy_net import NetConfig, OccupancyNet, load_checkpoint, save_checkpoint
from .occupancy_net.loss import QueryConfig
from .pointcloud import MAX_BOX_POINTS, PointCloud, SceneSpec, load_kitti_bin, synth_scene
from .radial_mask import (
    MAX_GROUPS,
    MaskConfig,
    MaskStats,
    apply_mask,
    write_mask_dump,
)
from .records import build, fits, json_form
from .trainer import (
    TrainConfig,
    evaluate,
    pretrain,
    write_loss_csv,
    write_sweep_csv,
)
from .voxelizer import FEATURE_WIDTH, GridGeometry, voxelize, write_debug_dump

COMMANDS = (
    "voxelize",
    "mask",
    "energy",
    "pretrain",
    "eval",
    "sweep-ratio",
    "sweep-angle",
)

# Exit codes, documented in the README.
EXIT_IO = 2
EXIT_CONFIG = 3
EXIT_MALFORMED = 4
EXIT_NODATA = 5
EXIT_INTERNAL = 6
EXIT_DIVERGED = 7

_SECTION_SEED_TAGS = {"mask": 1, "train": 2, "net": 3, "synth": 4}
# the most points a synthetic input set may hold (512 MiB of float32
# records): every frame is synthesized before the first is used
MAX_SYNTH_POINTS = 2**25


@dataclass(frozen=True)
class SynthConfig(SceneSpec):
    """Synthetic input set used when no --input paths are given: frames
    scenes of this spec, each with a seed derived from this one."""

    frames: int = 8

    def __post_init__(self):
        super().__post_init__()
        if self.frames < 1:
            raise ValueError("synth frames must be >= 1")
        most = self.sensor_rings * self.azimuth_samples  # ground samples
        most += MAX_BOX_POINTS * self.box_count
        if self.frames > MAX_SYNTH_POINTS // most:
            raise ValueError(f"frames may hold over {MAX_SYNTH_POINTS} points")


def span_groups(span_deg: float) -> int:
    """The angular group count of a sweep span of span_deg (> 0) degrees:
    round(360 / span_deg), at least 1 and at most 2 * MAX_GROUPS (no inf)."""
    return max(1, round(min(360.0 / span_deg, 2 * MAX_GROUPS)))


@dataclass(frozen=True)
class SweepConfig:
    ratios: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9, 0.92, 0.95)
    spans_deg: tuple[float, ...] = (1.0, 5.0, 15.0, 45.0)
    eval_frames: int = 0  # 0: hold out a fifth of the inputs

    def __post_init__(self):
        if not self.ratios or not self.spans_deg:
            raise ValueError("sweep ratios and spans_deg must not be empty")
        if any(not 0.0 <= r <= 1.0 for r in self.ratios):
            raise ValueError("sweep ratios must lie in [0, 1]")
        if any(s <= 0 for s in self.spans_deg):
            raise ValueError("sweep spans must be positive degrees")
        for s in self.spans_deg:
            if span_groups(s) > MAX_GROUPS:
                raise ValueError(
                    f"spans_deg {s} gives more than {MAX_GROUPS} groups"
                )
        if self.eval_frames < 0:
            raise ValueError("eval_frames must be non-negative")


@dataclass
class RunConfig:
    """A run's configuration, echoed as its run record."""

    command: str
    out: Path
    inputs: list[Path]
    checkpoint: Path | None
    stats: Path | None
    seed: int
    geometry: GridGeometry
    mask: MaskConfig
    energy: EnergyParams
    train: TrainConfig
    query: QueryConfig
    net: NetConfig
    synth: SynthConfig
    sweep: SweepConfig

    def to_json_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        for name in ("mask", "query"):  # they come from their own sections
            del doc["train"][name]
        return doc


_RUN_HINTS = typing.get_type_hints(RunConfig)
# the config sections in build order: train takes the built mask and query
_SECTION_TYPES = {
    k: h
    for k, h in sorted(_RUN_HINTS.items(), key=lambda i: i[0] == "train")
    if dataclasses.is_dataclass(h)
}


def _parse_override(text: str) -> tuple[list[str], object]:
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not KEY=VALUE")
    key, raw = text.split("=", 1)
    path = key.strip().split(".")
    if not all(path):
        raise ConfigError(f"override {text!r} has an empty key component")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return path, value


def _read_json(path, what: str, error: type[RmaeError]):
    """path's JSON document; error, naming it what, if it is not UTF-8 JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as e:  # JSONDecodeError or UnicodeDecodeError
        raise error(f"{what} {path}: not valid JSON ({e})") from e


def _set_path(doc: dict, path: list[str], value) -> None:
    cur = doc
    for part in path[:-1]:
        nxt = cur.setdefault(part, {})
        if not isinstance(nxt, dict):
            raise ConfigError(
                f"override path {'.'.join(path)} crosses a non-section value"
            )
        cur = nxt
    cur[path[-1]] = value


def _recorded_paths(doc: dict, key: str, many: bool = False):
    """The Path (many: list of Paths) doc holds under key; None (many: [])
    when it holds none."""
    value = doc.get(key)
    paths = value if many else [value]
    if value is not None and not (
        isinstance(paths, list) and all(isinstance(p, str) for p in paths)
    ):
        kind = "a list of paths" if many else "a path"
        raise ConfigError(f"'{key}' must be {kind} or null")
    if many:
        return [Path(p) for p in value or []]
    return Path(value) if value else None


def _checked_seed(key: str, seed):
    """seed, the value of key; ConfigError unless a non-negative integer."""
    if not fits(seed, int) or seed < 0:
        raise ConfigError(f"{key} must be a non-negative integer")
    return seed


def parse_config(args: argparse.Namespace) -> RunConfig:
    """The run's configuration.  The config file may be a run's
    resolved_config.json: its command must be this one and its out is
    ignored.  --seed, --input, --checkpoint and --stats set the seed,
    inputs, checkpoint and stats keys, over the file's values."""
    doc = _read_json(args.config, "config", ConfigError) if args.config else {}
    if not isinstance(doc, dict):
        raise ConfigError(f"config {args.config}: top level must be an object")
    for text in args.overrides:
        path, value = _parse_override(text)
        _set_path(doc, path, value)
    for key in ("seed", "inputs", "checkpoint", "stats"):  # flags win
        if getattr(args, key) is not None:
            doc[key] = getattr(args, key)

    for key in doc:
        if key not in _RUN_HINTS:
            raise ConfigError(f"unknown key '{key}'")
    if doc.get("command", args.command) != args.command:
        raise ConfigError(
            f"config records a {doc['command']!r} run, not {args.command!r}"
        )
    seed = _checked_seed("seed", doc.get("seed", 0))

    sections = {}
    for name, cls in _SECTION_TYPES.items():
        section = doc.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"section {name!r} must be an object")
        # a section without an explicit seed gets a child of the global one
        if name in _SECTION_SEED_TAGS:
            tag = _SECTION_SEED_TAGS[name]
            section.setdefault("seed", keyrand.derive_seed(seed, tag))
            _checked_seed(f"{name}.seed", section["seed"])
        rows = section.get("p_drop")
        if isinstance(rows, list) and rows and not isinstance(rows[0], list):
            section["p_drop"] = [rows]  # a single shared row
        sections[name] = build(cls, section, ConfigError, name, sections)

    inputs = []
    for p in _recorded_paths(doc, "inputs", many=True):
        found = sorted(p.glob("*.bin")) if p.is_dir() else [p]
        if not found:
            raise NoData(f"input {p} holds no .bin file")
        inputs.extend(found)
    return RunConfig(
        command=args.command,
        out=Path(args.out),
        inputs=inputs,
        checkpoint=_recorded_paths(doc, "checkpoint"),
        stats=_recorded_paths(doc, "stats"),
        seed=seed,
        **sections,
    )


def _atomic(path: Path, writer) -> None:
    """Run writer(tmp_path) then rename tmp over path; if writer raises,
    remove what it left and leave path as it was."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        writer(tmp)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _json_dump(path: Path, obj) -> None:
    text = json.dumps(json_form(obj), indent=2, default=os.fspath) + "\n"
    _atomic(path, lambda p: p.write_text(text))


def _load_frames(cfg: RunConfig) -> list[PointCloud]:
    if cfg.inputs:
        return [load_kitti_bin(p) for p in cfg.inputs]
    return [
        synth_scene(
            replace(cfg.synth, seed=keyrand.derive_seed(cfg.synth.seed, i))
        )
        for i in range(cfg.synth.frames)
    ]


# sweep command -> its sweep.csv label
_SWEEPS = {"sweep-ratio": "m", "sweep-angle": "span_deg"}


def sweep_masks(cfg: RunConfig) -> list[tuple[float, MaskConfig]]:
    """The running sweep's (value, mask) pairs: a ratio replaces the mask's
    m; a span sets its n_groups and keeps p_drop's row 0, as per-group
    rows cannot follow a group-count change."""
    if cfg.command == "sweep-ratio":
        return [(m, replace(cfg.mask, m=m)) for m in cfg.sweep.ratios]
    row0 = cfg.mask.p_drop[:1]
    return [
        (s, replace(cfg.mask, n_groups=span_groups(s), p_drop=row0))
        for s in cfg.sweep.spans_deg
    ]


def _runnable_net(cfg: RunConfig) -> OccupancyNet:
    """The net the command runs (the checkpoint's for eval, a new one of
    cfg.net otherwise), once it is known to read the grid: ConfigError
    unless its input width is the voxel feature width and its downsample
    factor divides every grid dim."""
    net, source = None, ""  # a new net is built once its config is checked
    if cfg.command == "eval":
        if cfg.checkpoint is None:
            raise ConfigError("eval requires --checkpoint")
        net, source = load_checkpoint(cfg.checkpoint), f"{cfg.checkpoint}: "
    config = cfg.net if net is None else net.config
    width, factor = config.in_channels, config.downsample_factor
    if width != FEATURE_WIDTH:
        raise ConfigError(
            f"{source}net.in_channels is {width}, but a voxel has"
            f" {FEATURE_WIDTH} features"
        )
    if any(d % factor for d in cfg.geometry.dims):
        raise ConfigError(
            f"{source}geometry.dims {list(cfg.geometry.dims)} must be"
            f" divisible by the downsample factor {factor} of"
            f" net.stage_channels {list(config.stage_channels)}"
        )
    return OccupancyNet(config) if net is None else net


def run(cfg: RunConfig) -> int:
    """Execute one command; raises on failure (main maps to exit codes)."""
    if cfg.command in ("pretrain", "eval", *_SWEEPS):
        net = _runnable_net(cfg)
    if cfg.command in _SWEEPS:  # scores its last frames, trains on the rest
        count = len(cfg.inputs) or cfg.synth.frames
        n_held = cfg.sweep.eval_frames or max(1, count // 5)
        if n_held >= count:
            raise ConfigError(
                f"a sweep holding out {n_held} of {count} frames has none"
                " left to train on"
            )
    cfg.out.mkdir(parents=True, exist_ok=True)
    _json_dump(cfg.out / "resolved_config.json", cfg.to_json_dict())

    if cfg.command == "energy":
        report = total_power(cfg.energy)
        frugal = None
        if cfg.stats is not None:  # a bad stats file writes nothing
            raw = _read_json(cfg.stats, "stats", MalformedFile)
            stats = build(MaskStats, raw, MalformedFile, f"{cfg.stats}: stats")
            frugal = frugal_savings(report, stats, cfg.energy.R)
        _json_dump(cfg.out / "energy.json", report)
        if frugal is not None:
            _json_dump(cfg.out / "frugal.json", frugal)
        return 0

    frames = _load_frames(cfg)

    if cfg.command == "voxelize":
        summary = []
        for i, frame in enumerate(frames):
            grid = voxelize(frame, cfg.geometry)
            name = f"voxels_{i:04d}.txt"
            _atomic(cfg.out / name, lambda p, g=grid: write_debug_dump(g, p))
            summary.append(
                {
                    "frame": frame.frame_id,
                    "file": name,
                    "voxels": len(grid),
                    "dropped_points": grid.dropped_points,
                }
            )
        _json_dump(cfg.out / "summary.json", {"frames": summary})
        return 0

    if cfg.command == "mask":
        grid = voxelize(frames[0], cfg.geometry)
        outcome = apply_mask(grid, cfg.mask)
        _atomic(
            cfg.out / "mask.txt",
            lambda p: write_mask_dump(outcome, grid, p),
        )
        _json_dump(cfg.out / "stats.json", outcome.stats)
        return 0

    if cfg.command == "pretrain":
        net, history = pretrain(frames, cfg.train, net, cfg.geometry)
        _atomic(
            cfg.out / "checkpoint.rmae",
            lambda p: save_checkpoint(net, p),
        )
        _atomic(
            cfg.out / "loss.csv", lambda p: write_loss_csv(history, p)
        )
        return 0

    if cfg.command == "eval":
        report = evaluate(frames, net, cfg.mask, cfg.query, cfg.geometry)
        _json_dump(cfg.out / "eval.json", report)
        return 0

    if cfg.command in _SWEEPS:
        fit, held = frames[:-n_held], frames[-n_held:]
        rows = []
        for value, mask in sweep_masks(cfg):  # each from the initial net
            train = replace(cfg.train, mask=mask)
            trained, _ = pretrain(fit, train, copy.deepcopy(net), cfg.geometry)
            report = evaluate(held, trained, mask, cfg.query, cfg.geometry)
            rows.append((value, report))
        label = _SWEEPS[cfg.command]
        _atomic(
            cfg.out / "sweep.csv",
            lambda p: write_sweep_csv(label, rows, p, cfg.energy),
        )
        return 0

    raise ConfigError(f"unknown command {cfg.command!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmae",
        description="Frugal-LiDAR masking, occupancy pre-training, and "
        "energy modeling toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default="rmae_out", help="output directory")
        p.add_argument("--seed", type=int, help="global seed override")
        p.add_argument(
            "--input",
            action="append",
            dest="inputs",
            help=".bin file or directory of .bin files (repeatable); "
            "omitted: synthetic frames from the synth section",
        )
        p.add_argument("--checkpoint", help="checkpoint path (eval)")
        p.add_argument(
            "--stats", help="stats.json from a mask run (energy command)"
        )
        p.add_argument(
            "overrides",
            nargs="*",
            metavar="KEY=VALUE",
            help="dotted config overrides, e.g. mask.m=0.9",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args)
        return run(cfg)
    except ConfigError as e:
        return _fail("ConfigError", e, EXIT_CONFIG)
    except MalformedFile as e:
        return _fail("MalformedFile", e, EXIT_MALFORMED)
    except NoData as e:
        return _fail("NoData", e, EXIT_NODATA)
    except Diverged as e:
        return _fail("Diverged", e, EXIT_DIVERGED)
    except OSError as e:
        return _fail("IoError", e, EXIT_IO)
    except Exception as e:  # noqa: BLE001 - last-resort category
        return _fail("InternalError", e, EXIT_INTERNAL)


def _fail(category: str, err: Exception, code: int) -> int:
    msg = " ".join(str(err).split())
    print(f"error: {category}: {msg}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
