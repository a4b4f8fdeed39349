#!/usr/bin/env python3
"""Run every rmae command on a tiny synthetic config and keep its artifacts.

    python3 scripts/cli_artifacts.py SRC OUT

Every run goes through rmae.cli.main in this process, on the rmae package
in SRC (a checkout's src/).  OUT gets a tree per RMAE_THREADS value (t1,
t2): a directory per run of RUNS, the frames/ that --input runs read, and
exit-codes.txt with the code of each run of BAD_RUNS.  The tests read the
same lists.  Paths are relative, so the trees of two checkouts differ only
in "out" lines:

    diff -r -I '"out":' OUT_A OUT_B    # no output: same behaviour
"""

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

TINY = """synth.frames=2 synth.ground_extent=6.0 synth.box_count=3
geometry.min_corner=[-6.4,-6.4,-1.6] geometry.voxel_size=[0.8,0.8,0.8]
geometry.dims=[16,16,8] net.stage_channels=[4,8,8] train.epochs=1
train.batch_size=1""".split()
# per-group drop rows for four groups
ROWS = "mask.p_drop=[[0.0,0.5,0.9],[0.2,0.2,0.2],[1.0,0.0,0.0],[0.5,0.5,0.5]]"


def _words(run: str) -> list[str]:
    """The words of run, with TINY standing for its words."""
    return run.replace("TINY", " ".join(TINY)).split()


# each run's directory, command and arguments but --out, in the order they run
RUNS = [_words(run) for run in [
    "pretrain pretrain TINY",
    # a training dense backward on unequal axes
    "pretrain-anisotropic pretrain TINY geometry.dims=[16,12,8]",
    "eval eval --checkpoint pretrain/checkpoint.rmae TINY",
    # three frames: at two workers a forked worker and the caller take a
    # round of two, and the caller alone a ragged round
    "eval-ragged eval --checkpoint pretrain/checkpoint.rmae TINY"
    " synth.frames=3",
    # an anisotropic grid, whose decoder phases differ per axis
    "eval-anisotropic eval --checkpoint pretrain/checkpoint.rmae TINY"
    " geometry.dims=[16,12,8]",
    "sweep-ratio sweep-ratio sweep.ratios=[0.0,0.9] TINY",
    "sweep-angle sweep-angle sweep.spans_deg=[5.0,45.0] TINY",
    "mask mask mask.r_thresholds=[6.0,12.0] TINY",
    # each branch of the mask: an exact-count draw, nothing masked, and
    # per-group drop rows with bands inside the grid's reach
    "mask-exact mask TINY mask.selection_mode=exact_count mask.m=0.5",
    "mask-none mask TINY mask.m=0.0 mask.p_drop=[[0.0,0.0,0.0]]",
    f"mask-rows mask TINY mask.n_groups=4 mask.r_thresholds=[3.0,6.0] {ROWS}",
    "voxelize voxelize TINY",
    # a grid smaller than the scene, so points are dropped
    "voxelize-crop voxelize TINY geometry.dims=[8,8,4]",
    # a 64-ring, 0.2 degree scan whose 40 boxes of up to 6 m cast shadows
    # over many rings and columns
    "voxelize-dense voxelize TINY synth.sensor_rings=64"
    " synth.azimuth_step_deg=0.2 synth.box_count=40 synth.box_size=[0.6,6.0]",
    # one ground sample per ring
    "voxelize-one-sample voxelize TINY synth.azimuth_step_deg=400.0",
    # the two frames of write_frames, read back through --input
    "voxelize-input voxelize --input frames TINY",
    "pretrain-input pretrain --input frames TINY",
    "energy energy --stats mask/stats.json",
    "energy-params energy --stats mask/stats.json energy.R=60.0"
    " energy.tau=2e-9 energy.N_bits=10 energy.N_fft=256",
    "rerun pretrain --config pretrain/resolved_config.json",
    "sphere pretrain query.mode=sphere TINY",
    "sphere-eval eval --checkpoint sphere/checkpoint.rmae TINY",
    "sphere-batch2 pretrain TINY query.mode=sphere train.batch_size=2",
    # one full batch of two frames and one ragged batch of one, so at two
    # workers two frames train at once
    "batched pretrain TINY synth.frames=3 train.batch_size=2",
    # the same in sphere mode: at two workers the ragged batch's sum starts
    # from a forked worker's gradients
    "sphere-batched pretrain TINY query.mode=sphere synth.frames=3"
    " train.batch_size=2",
    # a one-stage net, whose head decodes the latent itself
    "one-stage pretrain TINY net.stage_channels=[4]",
    "one-stage-eval eval --checkpoint one-stage/checkpoint.rmae TINY",
    # a four-stage net: a third down conv and a fourth level
    "four-stage pretrain TINY net.stage_channels=[4,8,8,8] query.mode=sphere",
    "four-stage-eval eval --checkpoint four-stage/checkpoint.rmae TINY"
    " query.mode=sphere",
    # the seeds of later epochs without remasking, the balanced query draw
    # and the exact-count mask draw
    "keyed pretrain TINY train.epochs=2 train.remask_each_epoch=false"
    " query.balance_empty=true mask.selection_mode=exact_count",
    "keyed-eval eval --checkpoint keyed/checkpoint.rmae TINY"
    " query.balance_empty=true mask.selection_mode=exact_count",
    # a balanced sphere query, whose draw keeps canonical order
    "sphere-balanced pretrain TINY query.mode=sphere query.balance_empty=true"
    " query.sphere_radius=1.5 train.epochs=2",
    "sphere-balanced-eval eval --checkpoint sphere-balanced/checkpoint.rmae"
    " TINY query.mode=sphere query.balance_empty=true query.sphere_radius=1.5",
    # a three-stage net down to a coarsest level of [3,3,1]
    "odd-coarse pretrain TINY geometry.dims=[12,12,4] query.mode=sphere",
    # a mask that leaves so few voxels that some kernel taps of the encoder
    # find exactly one present neighbour pair
    "sparse-mask pretrain TINY mask.m=0.95",
    "sparse-mask-eval eval --checkpoint sparse-mask/checkpoint.rmae TINY"
    " mask.m=0.95",
    # per-group drop rows, which an angular sweep cuts to row 0
    "sweep-angle-rows sweep-angle sweep.spans_deg=[90.0,30.0] TINY"
    f" mask.n_groups=4 mask.m=0.5 {ROWS}",
    # the same rows, kept by a ratio sweep, with bands inside the grid's reach
    "sweep-ratio-rows sweep-ratio sweep.ratios=[0.0,0.5] TINY mask.n_groups=4"
    f" mask.r_thresholds=[3.0,6.0] {ROWS}",
]]

_STATS = (b'{"group_visible_fraction": 0.2, "voxel_visible_fraction": 0.1,'
          b' "max_sensed_range": 17, "per_subgroup_drop_rate": ')
# the files that bad runs read, by the argument that names them
FILES = {
    "not-utf8.json": b"\xff{}",
    "not-json.json": b"not json",
    "stats-extra-key.json": _STATS + b'[0.0, null, null], "zzz": 1}',
    "stats-bad-rate.json": _STATS + b"[1.5, null, null]}",
}
# each bad run's name, exit code, {file: bytes} it reads, and command and
# arguments but --out.  The sizes are far beyond any cap, so code without
# the caps is refused their arrays at once.
BAD_RUNS = [
    (name, int(code), {a: FILES[a] for a in argv if a in FILES}, argv)
    for name, code, *argv in map(_words, [
        "not-utf8-config 3 mask --config not-utf8.json TINY",
        "dims-cap 3 mask TINY geometry.dims=[100000,100000,1000]",
        "groups-cap 3 mask TINY mask.n_groups=1000000000000",
        "channels-cap 3 pretrain TINY net.stage_channels=[1000000000]",
        "net-seed 3 pretrain TINY net.seed=-1",
        "optimizer-sgd 3 pretrain TINY train.optimizer=sgd",
        "epochs-cap 3 pretrain TINY train.epochs=1000000000000",
        "spans-cap 3 sweep-angle TINY sweep.spans_deg=[1e-9]",
        # one frame: none is left to train on once one is held out
        "sweep-one-frame 3 sweep-ratio TINY sweep.ratios=[0.0,0.9]"
        " synth.frames=1",
        "stats-not-json 4 energy --stats not-json.json",
        "stats-extra-key 4 energy --stats stats-extra-key.json",
        "stats-bad-rate 4 energy --stats stats-bad-rate.json",
        "diverged 7 pretrain TINY train.learning_rate=1e300",
    ])
]


def write_frames(at: Path) -> None:
    """Save two synthetic scenes as at/1.bin and at/2.bin."""
    from rmae.pointcloud import SceneSpec, save_kitti_bin, synth_scene

    at.mkdir()
    for seed in (1, 2):
        spec = SceneSpec(ground_extent=6.0, box_count=3, seed=seed)
        save_kitti_bin(synth_scene(spec), at / f"{seed}.bin")


def run_bad(name: str, files: dict, argv: list[str]) -> int:
    """The exit code of one bad run in the working directory, its error
    unprinted; the files it reads and whatever it wrote are removed."""
    from rmae import cli

    for path, data in files.items():
        Path(path).write_bytes(data)
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([argv[0], "--out", name, *argv[1:]])
    for path in files:
        Path(path).unlink()
    shutil.rmtree(name, ignore_errors=True)
    return code


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(f"usage: {sys.argv[0]} SRC OUT", file=sys.stderr)
        return 2
    src, out = (Path(a).resolve() for a in argv)
    sys.path.insert(0, str(src))
    from rmae import cli

    for threads in (1, 2):
        os.environ["RMAE_THREADS"] = str(threads)
        shutil.rmtree(out / f"t{threads}", ignore_errors=True)
        (out / f"t{threads}").mkdir(parents=True)
        os.chdir(out / f"t{threads}")
        write_frames(Path("frames"))
        for name, command, *args in RUNS:
            if cli.main([command, "--out", name, *args]) != 0:
                raise SystemExit(f"{name} failed at RMAE_THREADS={threads}")
        Path("exit-codes.txt").write_text("".join(
            f"{name} {run_bad(name, files, argv)}\n"
            for name, _, files, argv in BAD_RUNS
        ))
    print(f"artifacts in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
