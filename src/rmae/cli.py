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
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import keyrand
from .energy_model import EnergyParams, frugal_savings, total_power
from .errors import ConfigError, Diverged, MalformedFile, NoData, RmaeError
from .occupancy_net import NetConfig, OccupancyNet, load_checkpoint, save_checkpoint
from .occupancy_net.loss import QueryConfig
from .pointcloud import PointCloud, SceneSpec, load_kitti_bin, synth_scene
from .radial_mask import MaskConfig, MaskStats, apply_mask, write_mask_dump
from .trainer import (
    TrainConfig,
    evaluate,
    pretrain,
    sweep_angular_range,
    sweep_masking_ratio,
    write_loss_csv,
    write_sweep_csv,
)
from .voxelizer import GridGeometry, voxelize, write_debug_dump

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


@dataclass(frozen=True)
class SynthConfig(SceneSpec):
    """Synthetic input set used when no --input paths are given: frames
    scenes of this spec, each with a seed derived from this one."""

    frames: int = 8

    def __post_init__(self):
        super().__post_init__()
        if self.frames < 1:
            raise ValueError("synth frames must be >= 1")


@dataclass(frozen=True)
class SweepConfig:
    ratios: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9, 0.92, 0.95)
    spans_deg: tuple[float, ...] = (1.0, 5.0, 15.0, 45.0)
    eval_frames: int = 0  # 0: hold out a fifth of the inputs

    def __post_init__(self):
        if any(not 0.0 <= r <= 1.0 for r in self.ratios):
            raise ValueError("sweep ratios must lie in [0, 1]")
        if any(s <= 0 for s in self.spans_deg):
            raise ValueError("sweep spans must be positive degrees")
        if self.eval_frames < 0:
            raise ValueError("eval_frames must be non-negative")


@dataclass
class RunConfig:
    command: str
    out_dir: Path
    inputs: list[Path]
    checkpoint: Path | None
    stats_path: Path | None
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
        doc = {
            "command": self.command,
            "out": str(self.out_dir),
            "inputs": [str(p) for p in self.inputs],
            "checkpoint": str(self.checkpoint) if self.checkpoint else None,
            "stats": str(self.stats_path) if self.stats_path else None,
            "seed": self.seed,
        }
        for name in _SECTION_TYPES:
            doc[name] = dataclasses.asdict(getattr(self, name))
        for name in _TRAIN_SKIP:
            del doc["train"][name]
        return doc


_SECTION_TYPES = {
    "geometry": GridGeometry,
    "mask": MaskConfig,
    "energy": EnergyParams,
    "train": TrainConfig,
    "query": QueryConfig,
    "net": NetConfig,
    "synth": SynthConfig,
    "sweep": SweepConfig,
}
_TRAIN_SKIP = {"mask", "query"}  # nested configs come from their sections
# keys of the run record (RunConfig.to_json_dict) besides seed and sections
_RECORD_KEYS = {"command", "out", "inputs", "checkpoint", "stats"}


def _tuplify(v):
    if isinstance(v, list):
        return tuple(_tuplify(x) for x in v)
    return v


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


def _load_config_file(path: Path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path}: not valid JSON ({e})") from e
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    return doc


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


def _build_section(name: str, cls, doc: dict, skip=(), extra=None):
    fields = {f.name for f in dataclasses.fields(cls)} - set(skip)
    kwargs = dict(extra or {})
    for key, value in doc.get(name, {}).items():
        if key not in fields:
            raise ConfigError(f"unknown key '{name}.{key}'")
        kwargs[key] = _tuplify(value)
    try:
        return cls(**kwargs)
    except (ValueError, TypeError, RmaeError) as e:
        raise ConfigError(f"{name}: {e}") from e


def _recorded_paths(doc: dict, key: str, many: bool = False):
    """The path (many: list of paths) a run record holds under key, or
    None."""
    value = doc.get(key)
    paths = value if many else [value]
    if value is not None and not (
        isinstance(paths, list) and all(isinstance(p, str) for p in paths)
    ):
        kind = "a list of paths" if many else "a path"
        raise ConfigError(f"'{key}' must be {kind} or null")
    return value


def parse_config(args: argparse.Namespace) -> RunConfig:
    """The run's configuration.  The config file may be a run's
    resolved_config.json: its command must be this one, its out is
    ignored, and its inputs, checkpoint and stats apply unless the
    command line gives its own."""
    doc = _load_config_file(Path(args.config)) if args.config else {}
    for text in args.overrides:
        path, value = _parse_override(text)
        _set_path(doc, path, value)
    if args.seed is not None:
        doc["seed"] = args.seed

    allowed_top = {"seed"} | _RECORD_KEYS | set(_SECTION_TYPES)
    for key in doc:
        if key not in allowed_top:
            raise ConfigError(f"unknown key '{key}'")
    if doc.get("command", args.command) != args.command:
        raise ConfigError(
            f"config records a {doc['command']!r} run, not {args.command!r}"
        )
    input_items = args.input or _recorded_paths(doc, "inputs", many=True)
    checkpoint = args.checkpoint or _recorded_paths(doc, "checkpoint")
    stats_path = args.stats or _recorded_paths(doc, "stats")
    for name in _SECTION_TYPES:
        if not isinstance(doc.get(name, {}), dict):
            raise ConfigError(f"section {name!r} must be an object")

    seed = doc.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed must be a non-negative integer")

    # Sections without an explicit seed get a child seed of the global one.
    for name, tag in _SECTION_SEED_TAGS.items():
        section = doc.setdefault(name, {})
        section.setdefault("seed", keyrand.derive_seed(seed, tag))

    if "p_drop" in doc["mask"]:
        rows = doc["mask"]["p_drop"]
        if rows and not isinstance(rows[0], list):
            doc["mask"]["p_drop"] = [rows]

    geometry = _build_section("geometry", GridGeometry, doc)
    mask = _build_section("mask", MaskConfig, doc)
    energy = _build_section("energy", EnergyParams, doc)
    query = _build_section("query", QueryConfig, doc)
    net = _build_section("net", NetConfig, doc)
    synth = _build_section("synth", SynthConfig, doc)
    sweep = _build_section("sweep", SweepConfig, doc)
    train = _build_section(
        "train",
        TrainConfig,
        doc,
        skip=_TRAIN_SKIP,
        extra={"mask": mask, "query": query},
    )

    inputs = []
    for item in input_items or []:
        p = Path(item)
        if p.is_dir():
            inputs.extend(sorted(p.glob("*.bin")))
        else:
            inputs.append(p)

    return RunConfig(
        command=args.command,
        out_dir=Path(args.out),
        inputs=inputs,
        checkpoint=Path(checkpoint) if checkpoint else None,
        stats_path=Path(stats_path) if stats_path else None,
        seed=seed,
        geometry=geometry,
        mask=mask,
        energy=energy,
        train=train,
        query=query,
        net=net,
        synth=synth,
        sweep=sweep,
    )


def _atomic(path: Path, writer) -> None:
    """Run writer(tmp_path) then rename tmp over path."""
    tmp = path.with_name(path.name + ".tmp")
    writer(tmp)
    os.replace(tmp, path)
    sidecar = Path(f"{tmp}.manifest.txt")
    if sidecar.exists():  # checkpoint writer emits a manifest next to it
        os.replace(sidecar, Path(f"{path}.manifest.txt"))


def _json_dump(path: Path, obj: dict) -> None:
    _atomic(path, lambda p: p.write_text(json.dumps(obj, indent=2) + "\n"))


def _load_frames(cfg: RunConfig) -> list[PointCloud]:
    if cfg.inputs:
        return [load_kitti_bin(p) for p in cfg.inputs]
    return [
        synth_scene(
            dataclasses.replace(
                cfg.synth, seed=keyrand.derive_seed(cfg.synth.seed, i)
            )
        )
        for i in range(cfg.synth.frames)
    ]


def _split_frames(frames, cfg: RunConfig):
    held = cfg.sweep.eval_frames or max(1, len(frames) // 5)
    held = min(held, len(frames))
    if held == len(frames):
        return frames, frames
    return frames[:-held], frames[-held:]


def run(cfg: RunConfig) -> int:
    """Execute one command; raises on failure (main maps to exit codes)."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    _json_dump(cfg.out_dir / "resolved_config.json", cfg.to_json_dict())

    if cfg.command == "energy":
        report = total_power(cfg.energy)
        frugal = None
        if cfg.stats_path is not None:  # a bad stats file writes nothing
            with open(cfg.stats_path) as fh:
                try:
                    raw = json.load(fh)
                except ValueError as e:  # not JSON, or not UTF-8
                    raise MalformedFile(
                        f"stats {cfg.stats_path}: not valid JSON ({e})"
                    ) from e
            stats = MaskStats.from_json_dict(raw)
            frugal = frugal_savings(report, stats, cfg.energy.R)
        _json_dump(cfg.out_dir / "energy.json", report.to_json_dict())
        if frugal is not None:
            _json_dump(cfg.out_dir / "frugal.json", frugal.to_json_dict())
        return 0

    frames = _load_frames(cfg)

    if cfg.command == "voxelize":
        summary = []
        for i, frame in enumerate(frames):
            grid = voxelize(frame, cfg.geometry)
            name = f"voxels_{i:04d}.txt"
            _atomic(cfg.out_dir / name, lambda p, g=grid: write_debug_dump(g, p))
            summary.append(
                {
                    "frame": frame.frame_id,
                    "file": name,
                    "voxels": len(grid),
                    "dropped_points": grid.dropped_points,
                }
            )
        _json_dump(cfg.out_dir / "summary.json", {"frames": summary})
        return 0

    if cfg.command == "mask":
        grid = voxelize(frames[0], cfg.geometry)
        outcome = apply_mask(grid, cfg.mask)
        _atomic(
            cfg.out_dir / "mask.txt",
            lambda p: write_mask_dump(outcome, grid, p),
        )
        _json_dump(cfg.out_dir / "stats.json", outcome.stats.to_json_dict())
        return 0

    if cfg.command == "pretrain":
        net = OccupancyNet(cfg.net)
        net, history = pretrain(frames, cfg.train, net, cfg.geometry)
        _atomic(
            cfg.out_dir / "checkpoint.rmae",
            lambda p: save_checkpoint(net, p),
        )
        _atomic(
            cfg.out_dir / "loss.csv", lambda p: write_loss_csv(history, p)
        )
        return 0

    if cfg.command == "eval":
        if cfg.checkpoint is None:
            raise ConfigError("eval requires --checkpoint")
        net = load_checkpoint(cfg.checkpoint)
        report = evaluate(frames, net, cfg.mask, cfg.query, cfg.geometry)
        _json_dump(cfg.out_dir / "eval.json", report.to_json_dict())
        return 0

    if cfg.command in ("sweep-ratio", "sweep-angle"):
        train_frames, eval_frames = _split_frames(frames, cfg)
        net = OccupancyNet(cfg.net)
        if cfg.command == "sweep-ratio":
            rows = sweep_masking_ratio(
                train_frames,
                net,
                cfg.train,
                list(cfg.sweep.ratios),
                cfg.geometry,
                eval_frames=eval_frames,
            )
        else:
            rows = sweep_angular_range(
                train_frames,
                net,
                cfg.train,
                list(cfg.sweep.spans_deg),
                cfg.geometry,
                eval_frames=eval_frames,
            )
        _atomic(
            cfg.out_dir / "sweep.csv",
            lambda p: write_sweep_csv(rows, p, energy=cfg.energy),
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
