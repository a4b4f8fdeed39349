import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rmae
from rmae import cli
from rmae.errors import InvalidSpec
from rmae.occupancy_net import NetConfig, OccupancyNet, save_checkpoint
from rmae.occupancy_net.network import MAX_STAGE_CHANNELS
from rmae.pointcloud import (
    MAX_BOXES,
    MAX_SCENE_LENGTH,
    SceneSpec,
    save_kitti_bin,
    synth_scene,
)
from rmae.radial_mask import MAX_GROUPS, MaskConfig
from rmae.trainer import MAX_EPOCHS, TrainConfig
from rmae.voxelizer import MAX_CELLS, GridGeometry

TINY = [
    "synth.frames=2",
    "synth.ground_extent=6.0",
    "synth.box_count=3",
    "geometry.min_corner=[-6.4,-6.4,-1.6]",
    "geometry.voxel_size=[0.8,0.8,0.8]",
    "geometry.dims=[16,16,8]",
    "net.stage_channels=[4,8,8]",
    "train.epochs=1",
    "train.batch_size=1",
]


def _with_header(raw: bytes, header: bytes) -> bytes:
    """A checkpoint's bytes with its config json replaced by header."""
    (length,) = struct.unpack("<I", raw[8:12])
    return raw[:8] + struct.pack("<I", len(header)) + header + raw[12 + length :]


def _with_layer_count(raw: bytes, count: int) -> bytes:
    """A checkpoint's bytes with its layer count, after the config json,
    set to count."""
    (length,) = struct.unpack("<I", raw[8:12])
    at = 12 + length
    return raw[:at] + struct.pack("<I", count) + raw[at + 4 :]


class TestExitCodes:
    @pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
    def test_bad_rmae_threads_is_config_error(
        self, value, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("RMAE_THREADS", value)
        code = cli.main(
            [
                "pretrain",
                "--out",
                str(tmp_path),
                "synth.frames=1",
                "train.epochs=1",
            ]
        )
        assert code == cli.EXIT_CONFIG == 3
        assert "error: ConfigError: RMAE_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "checkpoint.rmae").exists()

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        code = cli.main(["energy", "--out", str(blocker / "out")])
        assert code == cli.EXIT_IO == 2
        assert "error: IoError:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda raw: raw[:200],  # truncated
            lambda raw: _with_header(raw, b'{"in_channels": 4,'),
            lambda raw: _with_header(raw, b'{"colour": 1}'),
            lambda raw: _with_header(raw, b'{"stage_channels": [0, 8, 8]}'),
            lambda raw: _with_header(raw, b'{"stage_channels\xff": [4]}'),
            lambda raw: raw.replace(b"stem", b"st\xffm", 1),  # a layer name
            lambda raw: _with_layer_count(raw, 1),
            lambda raw: raw.replace(b"weight", b"wexght", 1),  # stem's
            lambda raw: raw + b"\0",
        ],
        ids=[
            "truncated",
            "not-json",
            "unknown-key",
            "bad-value",
            "not-utf8",
            "name-not-utf8",
            "layer-count",
            "unexpected-tensor",
            "trailing-bytes",
        ],
    )
    def test_corrupt_checkpoint_is_malformed(self, corrupt, tmp_path, capsys):
        good = tmp_path / "good.rmae"
        net = OccupancyNet(NetConfig(stage_channels=(4, 8, 8)))
        save_checkpoint(net, good)
        bad = tmp_path / "bad.rmae"
        bad.write_bytes(corrupt(good.read_bytes()))
        code = cli.main(
            ["eval", "--out", str(tmp_path / "out"), "--checkpoint", str(bad)]
            + TINY
        )
        assert code == cli.EXIT_MALFORMED == 4
        assert "error: MalformedFile:" in capsys.readouterr().err
        assert not (tmp_path / "out" / "eval.json").exists()

    def test_non_finite_bin_is_malformed(self, tmp_path, capsys):
        frame = tmp_path / "inf.bin"
        frame.write_bytes(struct.pack("<8f", 1, 2, 3, 0, 4, 5, float("nan"), 0))
        out = tmp_path / "out"
        code = cli.main(["voxelize", "--out", str(out), "--input", str(frame)])
        assert code == cli.EXIT_MALFORMED == 4
        err = capsys.readouterr().err
        assert f"error: MalformedFile: {frame}: non-finite value in point 1" in err
        assert not (out / "summary.json").exists()

    def test_frames_that_voxelize_empty_are_no_data(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(
            ["pretrain", "--out", str(out)]
            + TINY
            + ["geometry.min_corner=[1000.0,1000.0,1000.0]"]
        )
        assert code == cli.EXIT_NODATA == 5
        assert "error: NoData:" in capsys.readouterr().err
        assert not (out / "checkpoint.rmae").exists()

    def test_sphere_mode_with_nothing_visible_is_no_data(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(
            ["pretrain", "--out", str(out)]
            + TINY
            + ["query.mode=sphere", "mask.m=1.0"]
        )
        assert code == cli.EXIT_NODATA == 5
        assert "error: NoData:" in capsys.readouterr().err
        assert not (out / "checkpoint.rmae").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_pretrain_writes_no_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(
            ["pretrain", "--out", str(out)]
            + TINY
            + ["train.learning_rate=1e300"]
        )
        assert code == cli.EXIT_DIVERGED == 7
        assert "error: Diverged:" in capsys.readouterr().err
        assert not (out / "checkpoint.rmae").exists()
        assert not (out / "loss.csv").exists()

    def test_diverging_run_ends_stderr_with_its_error(self, tmp_path):
        """Run as a user runs it, outside pytest's warning filters: numpy's
        overflow warnings may come first, and the error line is last."""
        env = {
            k: v
            for k, v in os.environ.items()
            if k not in ("PYTHONWARNINGS", "RMAE_THREADS")
        }
        env["PYTHONPATH"] = str(Path(rmae.__file__).parents[1])
        out = tmp_path / "out"
        argv = ["pretrain", "--out", str(out)] + TINY
        argv += ["train.learning_rate=1e300", "train.epochs=2"]
        run = subprocess.run(
            [sys.executable, "-m", "rmae.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert run.returncode == cli.EXIT_DIVERGED == 7
        assert "RuntimeWarning" in run.stderr
        assert run.stderr.splitlines()[-1].startswith("error: Diverged: ")
        assert not (out / "checkpoint.rmae").exists()

    def test_non_finite_gradient_stops_before_the_step(
        self, tmp_path, capsys, monkeypatch
    ):
        backward = OccupancyNet.backward

        def nan_in_one_tensor(self, tape, grad_logits):
            grads = backward(self, tape, grad_logits)
            grads["head.bias"][0] = np.nan
            return grads

        monkeypatch.setattr(OccupancyNet, "backward", nan_in_one_tensor)
        out = tmp_path / "out"
        code = cli.main(["pretrain", "--out", str(out)] + TINY)
        assert code == cli.EXIT_DIVERGED == 7
        err = capsys.readouterr().err
        assert "error: Diverged: epoch 0: non-finite gradient in head.bias" in err
        assert not (out / "checkpoint.rmae").exists()


PRETRAIN_ARTIFACTS = {"checkpoint.rmae", "loss.csv"}
# one run of each command: its arguments but --out and TINY, in which
# {stats} and {checkpoint} stand for the inputs fixture's files, and the
# artifacts it writes besides resolved_config.json
COMMAND_RUNS = [
    ("voxelize", [], {"voxels_0000.txt", "voxels_0001.txt", "summary.json"}),
    ("mask", [], {"mask.txt", "stats.json"}),
    ("energy", [], {"energy.json"}),
    ("energy", ["--stats", "{stats}"], {"energy.json", "frugal.json"}),
    ("pretrain", [], PRETRAIN_ARTIFACTS),
    ("eval", ["--checkpoint", "{checkpoint}"], {"eval.json"}),
    ("sweep-ratio", ["sweep.ratios=[0.5]"], {"sweep.csv"}),
    ("sweep-angle", ["sweep.spans_deg=[45.0]"], {"sweep.csv"}),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """What {stats} and {checkpoint} stand for in a run's arguments: a good
    stats file and an untrained checkpoint of TINY's net."""
    at = tmp_path_factory.mktemp("inputs")
    stats, checkpoint = at / "stats.json", at / "net.rmae"
    stats.write_text(json.dumps(GOOD_STATS))
    save_checkpoint(OccupancyNet(NetConfig(stage_channels=(4, 8, 8))), checkpoint)
    return {"stats": stats, "checkpoint": checkpoint}


class TestCommands:
    """Each command writes exactly its README artifacts plus
    resolved_config.json, and leaves no *.tmp file."""

    @pytest.mark.parametrize("command, extra, artifacts", COMMAND_RUNS)
    def test_writes_its_artifacts(
        self, command, extra, artifacts, inputs, tmp_path
    ):
        extra = [a.format(**inputs) for a in extra]
        out = tmp_path / "out"
        assert cli.main([command, "--out", str(out)] + TINY + extra) == 0
        names = {p.name for p in out.iterdir()}
        assert names == artifacts | {"resolved_config.json"}

    def test_input_dir_reads_its_bin_files_in_sorted_order(self, tmp_path):
        frames = tmp_path / "frames"
        frames.mkdir()
        for seed, name in enumerate(("b.bin", "a.bin", "c.bin")):
            spec = SceneSpec(ground_extent=6.0, box_count=3, seed=seed)
            save_kitti_bin(synth_scene(spec), frames / name)
        (frames / "notes.txt").write_text("not a frame")
        out = tmp_path / "out"
        argv = ["voxelize", "--out", str(out), "--input", str(frames)]
        assert cli.main(argv + TINY) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert [f["frame"] for f in summary["frames"]] == [
            str(frames / name) for name in ("a.bin", "b.bin", "c.bin")
        ]


# scripts/cli_artifacts.sh's runs whose artifacts no GEMM touches, in its
# order: each run's directory and its arguments but --out
GEMM_FREE_RUNS = [
    ("mask", ["mask", "mask.r_thresholds=[6.0,12.0]", *TINY]),
    ("mask-exact", ["mask", *TINY, "mask.selection_mode=exact_count", "mask.m=0.5"]),
    ("mask-none", ["mask", *TINY, "mask.m=0.0", "mask.p_drop=[[0.0,0.0,0.0]]"]),
    (
        "mask-rows",
        [
            "mask",
            *TINY,
            "mask.n_groups=4",
            "mask.r_thresholds=[3.0,6.0]",
            "mask.p_drop=[[0.0,0.5,0.9],[0.2,0.2,0.2],[1.0,0.0,0.0],[0.5,0.5,0.5]]",
        ],
    ),
    ("voxelize", ["voxelize", *TINY]),
    ("voxelize-crop", ["voxelize", *TINY, "geometry.dims=[8,8,4]"]),
    (
        "voxelize-dense",
        [
            "voxelize",
            *TINY,
            "synth.sensor_rings=64",
            "synth.azimuth_step_deg=0.2",
            "synth.box_count=40",
            "synth.box_size=[0.6,6.0]",
        ],
    ),
    ("voxelize-one-sample", ["voxelize", *TINY, "synth.azimuth_step_deg=400.0"]),
    ("voxelize-input", ["voxelize", "--input", "frames", *TINY]),
    ("energy", ["energy", "--stats", "mask/stats.json"]),
    (
        "energy-params",
        [
            "energy",
            "--stats",
            "mask/stats.json",
            "energy.R=60.0",
            "energy.tau=2e-9",
            "energy.N_bits=10",
            "energy.N_fft=256",
        ],
    ),
]
# what sha256sum prints for every file those runs write but
# resolved_config.json, which records their paths, and for the script's
# two frames/*.bin inputs
GEMM_FREE_DIGESTS = """
64facb16c91f683cdcaf547ef4a981ae7311c3985df0e1c46336d015c0b999d8  frames/1.bin
d74081d20bc753248e5e40089bf9dac8342afe1604dce1c4f02502978f50a87d  frames/2.bin
66da1e0219c6b210c55bd29cd462aa61238ef139437816668041bfdfa4fcf503  mask/mask.txt
f36baa2adfe7012a897867aa21cc47a1652a8193e342395931bbaa7887c2995c  mask/stats.json
2e8667a87660f10c667913c1cf7c3728a5fcaa4579b474e3fd7ef918e0ad6e3f  mask-exact/mask.txt
ac4b3e0ab9157e89927eedf58ecee9fa6baeca8e170445e386249bfa70a2c974  mask-exact/stats.json
ec4f743c1af8f86ca632c5d6861d16088a933ec52622bea7ab222d4576735623  mask-none/mask.txt
44881ed212afbed5758d8aafc48dff670cbae12779f57a4581c13e8d44d3cd36  mask-none/stats.json
2ff4988d6d7667dccb3fe2d7e6fa6016f92c988a3f54d247d710463a13336582  mask-rows/mask.txt
fafa7e2ae2baaa3ec79d1a1f7cb0b142d133473ae04bf7f22f35f17c9dad2cc1  mask-rows/stats.json
517558482737418364eca3f5a1e3994042587961ab062150a6c44741c89a83a6  voxelize/summary.json
9beeb7301aeff3bfb8ea29da9eccf145d33951e9fbae626ae7d46e067307a7fa  voxelize/voxels_0000.txt
21af9ce02771f4358a1029b008f36b6b824e03e7c3b733e5fa83d3b867d402ac  voxelize/voxels_0001.txt
04c9c519582c31078a7ded43fe0492b1ffc3167cdecb96f6b3379ed1cf5a087d  voxelize-crop/summary.json
fe16e187684e28d0105908b6cf0ded9db395586842162bc67ea65c0585b8bbea  voxelize-crop/voxels_0000.txt
592bb3cf1f09cfb07a73ee324e15292d8941594a959e0be29ccdd5d6458f8fd5  voxelize-crop/voxels_0001.txt
7d6dc4ca047961258a6efadd16a158f64d2a0dd235b3ddfcb62d78c7c409dc09  voxelize-dense/summary.json
898b73af07e02f5143afbbb4fd3a3afc3d86e385235a1963a5a74f13978d9d76  voxelize-dense/voxels_0000.txt
79f8d35a21c96b6910409530713dc0f0d7596c63a48d5eae5711c8aacdb6abc1  voxelize-dense/voxels_0001.txt
aed380f7cd02f69040578fa7266bc41434b6ea39b36bf21018e314d6753d06a1  voxelize-one-sample/summary.json
ab2ee0b726eebb6012080774f2c0c83c1e318a4e5f2869768ba322e7ecd2f1b9  voxelize-one-sample/voxels_0000.txt
b2405ae1ed4e30e07691ce3b0899060c1fbcbacdf597daa4f736e61455d72e63  voxelize-one-sample/voxels_0001.txt
7d5c64405a1c4c49e6bb3343e108c85a2ddc6d55f7d2691eb60c2d4e78089a7f  voxelize-input/summary.json
2c056ae059430fa4b1c850c15ddfa26a8fa8c3e174333eb4968b18e9271e8c9a  voxelize-input/voxels_0000.txt
5032eb5e81487052d9ed5b95ac6945574d798e12a311a4caffeb2401d5fbe625  voxelize-input/voxels_0001.txt
f63ab10add986966f6e2886c1380680f15dcf4c7140be3a96fb97ec75aa0c104  energy/energy.json
1ebeb266217c700d3cef83c0a81d1e9db7f170c43691867489aafa8745e4aa50  energy/frugal.json
a03b262648a9e6a4038c91b808b265b7879023afd0b916fae9f4278dcd4d129b  energy-params/energy.json
0cabe68192bb4e907009965a0968950ec6c855a9a4c89a0c1fd1318b86476afe  energy-params/frugal.json
"""


class TestPinnedArtifacts:
    """The artifacts that no GEMM touches keep their pinned bytes.
    Checkpoints, loss.csv and eval.json are not pinned: their bytes depend
    on the BLAS kernel that the CPU gets.  A change that moves an artifact
    on purpose updates its digest, and the digest diff lists what moved."""

    def test_gemm_free_runs_write_their_pinned_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # the energy runs read mask/stats.json
        (tmp_path / "frames").mkdir()
        for seed in (1, 2):  # the script's two .bin frames
            spec = SceneSpec(ground_extent=6.0, box_count=3, seed=seed)
            save_kitti_bin(synth_scene(spec), tmp_path / f"frames/{seed}.bin")
        for name, (command, *args) in GEMM_FREE_RUNS:
            assert cli.main([command, "--out", name, *args]) == 0, name
        got = {
            p.relative_to(tmp_path).as_posix(): hashlib.sha256(
                p.read_bytes()
            ).hexdigest()
            for p in sorted(tmp_path.glob("*/*"))
            if p.name != "resolved_config.json"
        }
        pinned = (line.split() for line in GEMM_FREE_DIGESTS.strip().split("\n"))
        assert got == {path: digest for digest, path in pinned}


class TestSweeps:
    @pytest.mark.parametrize(
        "command, setting, label",
        [
            ("sweep-ratio", "sweep.ratios=[0.0,0.9]", "m"),
            ("sweep-angle", "sweep.spans_deg=[5.0,45.0]", "span_deg"),
        ],
    )
    def test_one_row_per_setting(self, command, setting, label, tmp_path):
        out = tmp_path / "out"
        assert cli.main([command, "--out", str(out), setting] + TINY) == 0
        rows = list(csv.reader((out / "sweep.csv").read_text().splitlines()))
        assert rows[0][0] == label
        assert [float(r[0]) for r in rows[1:]] == json.loads(
            setting.split("=")[1]
        )
        assert all(len(r) == len(rows[0]) for r in rows)

    def test_one_frame_trains_and_evaluates_on_it(self, tmp_path, monkeypatch):
        calls = []
        for name in ("pretrain", "evaluate"):

            def recording(*args, _name=name, _call=getattr(cli, name)):
                calls.append((_name, args))
                return _call(*args)

            monkeypatch.setattr(cli, name, recording)
        out = tmp_path / "out"
        argv = ["sweep-ratio", "--out", str(out), "sweep.ratios=[0.0,0.9]"]
        assert cli.main(argv + TINY + ["synth.frames=1"]) == 0
        assert [name for name, _ in calls] == ["pretrain", "evaluate"] * 2
        frames, nets = calls[0][1][0], []
        assert len(frames) == 1
        settings = zip(calls[::2], calls[1::2], (0.0, 0.9))
        for (_, trained), (_, scored), m in settings:
            frames_in, train_cfg, net, _ = trained
            held, scored_net, mask, *_ = scored
            # a fresh copy per setting, trained and scored on the one frame
            assert frames_in == held == frames
            assert scored_net is net and all(net is not n for n in nets)
            assert train_cfg.mask == mask and mask.m == m
            nets.append(net)
        rows = list(csv.reader((out / "sweep.csv").read_text().splitlines()))
        assert [float(r[0]) for r in rows[1:]] == [0.0, 0.9]

    def test_nonpositive_span_exits_before_training(
        self, tmp_path, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(cli, "pretrain", lambda *a: calls.append(a))
        out = tmp_path / "out"
        argv = ["sweep-angle", "--out", str(out), "sweep.spans_deg=[45.0,0.0]"]
        assert cli.main(argv + TINY) == cli.EXIT_CONFIG == 3
        assert "positive degrees" in capsys.readouterr().err
        assert calls == []

    ROWS = ((0.0, 0.5, 0.9), (0.2, 0.2, 0.2), (1.0, 0.0, 0.0), (0.5,) * 3)

    @pytest.mark.parametrize(
        "command, values",
        [
            ("sweep-ratio", [0.0, 0.5, 0.9]),
            ("sweep-angle", [1.0, 30.0, 90.0, 500.0, 1000.0]),
        ],
    )
    def test_sweep_masks(self, command, values):
        rows = json.dumps(self.ROWS).replace(" ", "")
        setting = "ratios" if command == "sweep-ratio" else "spans_deg"
        argv = [command, f"sweep.{setting}={json.dumps(values)}"]
        argv += ["mask.n_groups=4", "mask.m=0.5", f"mask.p_drop={rows}"]
        cfg = cli.parse_config(cli.build_parser().parse_args(argv))
        assert cfg.mask.p_drop == self.ROWS
        pairs = cli.sweep_masks(cfg)
        assert [value for value, _ in pairs] == values
        for value, mask in pairs:
            if command == "sweep-ratio":  # only m changes; the rows stay
                assert mask == dataclasses.replace(cfg.mask, m=value)
            else:  # a span's group count, and p_drop's row 0 only
                assert mask == dataclasses.replace(
                    cfg.mask,
                    n_groups=max(1, round(360 / value)),
                    p_drop=self.ROWS[:1],
                )


# (argv, what the error says): overrides that give no run config
MALFORMED_CONFIG = [
    (["pretrain", "train.epochs"], "is not KEY=VALUE"),
    (["pretrain", "train..epochs=1"], "has an empty key component"),
    (["pretrain", ".epochs=1"], "has an empty key component"),
    (["pretrain", "seed=1", "seed.x=2"], "crosses a non-section"),
    (["pretrain", "train.colour=1"], "unknown key 'train.colour'"),
    (["pretrain", "colour=1"], "unknown key 'colour'"),
    (["pretrain", "train=5"], "section 'train' must be an object"),
    (["pretrain", "inputs=[1]"], "'inputs' must be a list of paths"),
    (["eval", "checkpoint=5"], "'checkpoint' must be a path"),
    (["energy", 'stats=["a.json"]'], "'stats' must be a path"),
    (["eval"], "eval requires --checkpoint"),
]


class TestBadInput:
    @pytest.mark.parametrize(
        "override",
        [
            "synth.ground_extent=-1",
            "synth.box_size=[3,1]",
            # round(360 / 720) is no azimuth sample per ring
            "synth.azimuth_step_deg=720",
            # too many ground points; 360 / 5e-324 is inf
            "synth.azimuth_step_deg=1e-300",
            "synth.azimuth_step_deg=5e-324",
            "synth.box_count=-1",
            "synth.frames=0",
            "synth.frames=1000000000000",
            "synth.ground_noise=-1",
        ],
    )
    def test_bad_synth_value_is_config_error(self, override, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["voxelize", "--out", str(out), override])
        assert code == cli.EXIT_CONFIG == 3
        assert "error: ConfigError: synth:" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_synth_frames_are_capped_by_the_points_they_may_hold(self):
        """Two frames at the ground-point cap fit, with as many boxes as
        the shadow-test cap allows (268 * 4,000,000 <= 2**30); a default
        frame's most points are 28 * 450 ground samples and 1,200 for
        each of its 6 boxes."""
        big = {"sensor_rings": 40, "azimuth_step_deg": 0.0036}
        cli.SynthConfig(frames=2, box_count=268, **big)
        with pytest.raises(InvalidSpec, match="^box_count "):
            cli.SynthConfig(frames=2, box_count=269, **big)
        most = 28 * 450 + 1_200 * 6
        cli.SynthConfig(frames=cli.MAX_SYNTH_POINTS // most)
        with pytest.raises(ValueError, match="over 33554432 points"):
            cli.SynthConfig(frames=cli.MAX_SYNTH_POINTS // most + 1)

    @pytest.mark.parametrize(
        "argv",
        [
            ["pretrain", "geometry.dims=[64.0,64.0,16.0]"],
            ["mask", "mask.n_groups=2.5"],
            ["voxelize", "synth.frames=2.0"],
            ["mask", "mask.p_drop=0.5"],
            ["voxelize", "seed=true"],
            # a float field takes no NaN or infinity
            ["voxelize", "geometry.voxel_size=[NaN,0.4,0.4]"],
            ["voxelize", "geometry.min_corner=[NaN,0,0]"],
            ["voxelize", "synth.ground_extent=NaN"],
            ["pretrain", "train.learning_rate=NaN"],
            ["voxelize", "geometry.voxel_size=[Infinity,0.4,0.4]"],
        ],
        ids=" ".join,
    )
    def test_value_of_the_wrong_type_is_config_error(
        self, argv, tmp_path, capsys
    ):
        out = tmp_path / "out"
        code = cli.main(argv[:1] + ["--out", str(out)] + argv[1:])
        assert code == cli.EXIT_CONFIG == 3
        assert "error: ConfigError:" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["pretrain", "train.beta1=1.0"],
            ["pretrain", "train.beta2=1.0"],
            ["pretrain", "train.beta1=-0.1"],
            ["pretrain", "train.adam_eps=0.0"],
            ["pretrain", "net.bn_eps=-1.0"],
            ["pretrain", "net.bn_eps=0.0"],
            ["pretrain", "net.bn_momentum=7.0"],
            ["pretrain", "net.bn_momentum=-0.5"],
            ["sweep-ratio", "sweep.ratios=[]"],
            ["sweep-angle", "sweep.spans_deg=[]"],
            ["pretrain", "train.epochs=0"],
            ["pretrain", "train.batch_size=0"],
            ["pretrain", "train.learning_rate=-1.0"],
            ["pretrain", "train.optimizer=rmsprop"],
            ["pretrain", "train.optimizer=sgd"],
            ["mask", "mask.n_groups=0"],
            ["mask", "mask.selection_mode=foo"],
            ["mask", "mask.p_drop=[[0.0,0.5,1.5]]"],
            ["pretrain", "query.mode=foo"],
            ["pretrain", "net.in_channels=0"],
            ["voxelize", "geometry.voxel_size=[0.0,0.8,0.8]"],
            ["sweep-ratio", "sweep.ratios=[1.5]"],
            ["sweep-angle", "sweep.spans_deg=[0.0]"],
            ["sweep-ratio", "sweep.eval_frames=-1"],
        ],
        ids=" ".join,
    )
    def test_out_of_range_value_is_config_error(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(argv[:1] + ["--out", str(out)] + TINY + argv[1:])
        assert code == cli.EXIT_CONFIG == 3
        section = argv[1].split(".")[0]
        assert f"error: ConfigError: {section}: " in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "key", ["seed", "mask.seed", "train.seed", "net.seed", "synth.seed"]
    )
    def test_negative_seed_is_config_error(self, key, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["pretrain", "--out", str(out), *TINY, f"{key}=-1"])
        assert code == cli.EXIT_CONFIG == 3
        err = capsys.readouterr().err
        assert f"error: ConfigError: {key} must be a non-negative integer" in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["pretrain", "net.in_channels=3"],
            ["sweep-ratio", "net.in_channels=5", "sweep.ratios=[0.5]"],
            # the downsample factor of three stages is 4
            ["pretrain", "geometry.dims=[15,16,8]"],
            ["sweep-angle", "geometry.dims=[16,16,6]", "sweep.spans_deg=[5]"],
        ],
        ids=" ".join,
    )
    def test_net_that_cannot_read_the_grid_is_config_error(
        self, argv, tmp_path, capsys
    ):
        out = tmp_path / "out"
        code = cli.main(argv[:1] + ["--out", str(out)] + TINY + argv[1:])
        assert code == cli.EXIT_CONFIG == 3
        key = argv[1].split("=")[0]
        assert f"error: ConfigError: {key} " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, overrides, key",
        [
            (NetConfig(stage_channels=(4, 8, 8)), ["geometry.dims=[18,16,8]"],
             "geometry.dims"),
            (NetConfig(in_channels=3, stage_channels=(4, 8, 8)), [],
             "net.in_channels"),
        ],
        ids=["dims", "in-channels"],
    )
    def test_eval_of_a_net_that_cannot_read_the_grid_is_config_error(
        self, config, overrides, key, tmp_path, capsys
    ):
        checkpoint = tmp_path / "net.rmae"
        save_checkpoint(OccupancyNet(config), checkpoint)
        out = tmp_path / "out"
        argv = ["eval", "--out", str(out), "--checkpoint", str(checkpoint)]
        assert cli.main(argv + TINY + overrides) == cli.EXIT_CONFIG == 3
        err = capsys.readouterr().err
        assert f"error: ConfigError: {checkpoint}: {key} " in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["mask", "geometry.dims=[100000,100000,1000]"],
            ["mask", "mask.n_groups=1000000000000"],
            ["pretrain", "net.in_channels=1000000000000"],
            ["pretrain", "net.stage_channels=[1000000000]"],
            ["pretrain", "train.epochs=1000000000000"],
            ["sweep-angle", "sweep.spans_deg=[1e-9]"],
            ["voxelize", "synth.box_count=1000000000000"],
            # 269 boxes over 4,000,000 ground points: over 2**30 shadow tests
            [
                "voxelize",
                "synth.box_count=269",
                "synth.sensor_rings=40",
                "synth.azimuth_step_deg=0.0036",
            ],
            ["voxelize", "synth.box_size=[1e300,1e300]"],
            ["voxelize", "synth.ground_extent=1e300"],
            ["voxelize", "synth.ground_noise=1e300"],
        ],
        ids=" ".join,
    )
    def test_size_above_its_cap_is_config_error(self, argv, tmp_path, capsys):
        """Sizes whose arrays could never be allocated are refused by key,
        before anything is written."""
        out = tmp_path / "out"
        code = cli.main(argv[:1] + ["--out", str(out)] + TINY + argv[1:])
        assert code == cli.EXIT_CONFIG == 3
        section, key = argv[1].split("=")[0].split(".")
        err = capsys.readouterr().err
        assert f"error: ConfigError: {section}: {key} " in err
        assert not out.exists()

    def test_sizes_at_their_caps_are_accepted(self):
        GridGeometry(dims=(MAX_CELLS, 1, 1))
        MaskConfig(n_groups=MAX_GROUPS)
        NetConfig(in_channels=MAX_STAGE_CHANNELS,
                  stage_channels=(MAX_STAGE_CHANNELS,))
        TrainConfig(epochs=MAX_EPOCHS)  # built, not trained
        cli.SweepConfig(spans_deg=(360.0 / MAX_GROUPS,))
        longest = (MAX_SCENE_LENGTH, MAX_SCENE_LENGTH)
        SceneSpec(box_count=MAX_BOXES, ground_extent=MAX_SCENE_LENGTH,
                  box_size=longest, ground_noise=MAX_SCENE_LENGTH)

    @pytest.mark.parametrize("command", ["mask", "voxelize"])
    def test_a_command_without_a_net_takes_any_dims(self, command, tmp_path):
        out = tmp_path / "out"
        argv = [command, "--out", str(out)] + TINY + ["geometry.dims=[15,16,8]"]
        assert cli.main(argv) == 0

    @pytest.mark.parametrize(
        "content, with_frames",
        [([], False), (["notes.txt"], False), ([], True)],
        ids=["empty", "no-bin", "beside-a-frame"],
    )
    def test_input_dir_without_bin_files_is_no_data(
        self, content, with_frames, tmp_path, capsys
    ):
        frames = tmp_path / "frames"
        frames.mkdir()
        for name in content:
            (frames / name).write_text("not a frame")
        out = tmp_path / "out"
        argv = ["voxelize", "--out", str(out), "--input", str(frames)]
        if with_frames:  # another --input that does hold a frame
            spec = SceneSpec(ground_extent=6.0, box_count=3)
            save_kitti_bin(synth_scene(spec), tmp_path / "a.bin")
            argv += ["--input", str(tmp_path / "a.bin")]
        assert cli.main(argv + TINY) == cli.EXIT_NODATA == 5
        assert "error: NoData:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        MALFORMED_CONFIG,
        ids=[" ".join(argv) for argv, _ in MALFORMED_CONFIG],
    )
    def test_malformed_override_is_config_error(
        self, argv, message, tmp_path, capsys
    ):
        out = tmp_path / "out"
        code = cli.main(argv[:1] + ["--out", str(out)] + TINY + argv[1:])
        assert code == cli.EXIT_CONFIG == 3
        err = capsys.readouterr().err
        assert "error: ConfigError:" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "raw",
        [b"not json", b"[1, 2]", b"null", b"\xff{}"],
        ids=["not-json", "list", "null", "not-utf8"],
    )
    def test_config_file_that_is_no_object_is_config_error(
        self, raw, tmp_path, capsys
    ):
        config = tmp_path / "config.json"
        config.write_bytes(raw)
        out = tmp_path / "out"
        argv = ["pretrain", "--out", str(out), "--config", str(config)]
        assert cli.main(argv + TINY) == cli.EXIT_CONFIG == 3
        err = capsys.readouterr().err
        assert f"error: ConfigError: config {config}: " in err
        assert not out.exists()

    def test_single_p_drop_row_is_shared_by_every_group(self, tmp_path):
        out = tmp_path / "out"
        argv = ["mask", "--out", str(out), "mask.n_groups=4"]
        assert cli.main(argv + TINY + ["mask.p_drop=[0.0,0.5,0.9]"]) == 0
        record = json.loads((out / "resolved_config.json").read_text())
        assert record["mask"]["p_drop"] == [[0.0, 0.5, 0.9]]

    def test_int_for_a_float_field_runs_and_is_echoed(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["mask", "--out", str(out), "mask.m=1"] + TINY) == 0
        record = json.loads((out / "resolved_config.json").read_text())
        assert type(record["mask"]["m"]) is int and record["mask"]["m"] == 1

    @pytest.mark.parametrize("text", ["{}", "not json", "[]"])
    def test_malformed_stats_file(self, text, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        stats.write_text(text)
        out = tmp_path / "out"
        code = cli.main(["energy", "--out", str(out), "--stats", str(stats)])
        assert code == cli.EXIT_MALFORMED == 4
        assert "error: MalformedFile:" in capsys.readouterr().err
        assert not (out / "frugal.json").exists()

    @pytest.mark.parametrize(
        "change",
        [
            {"group_visible_fraction": "x"},
            {"voxel_visible_fraction": None},
            {"max_sensed_range": True},
            {"per_subgroup_drop_rate": ["a", None]},
            {"per_subgroup_drop_rate": 0.5},
            {"group_visible_fraction": 2.0},
            {"voxel_visible_fraction": -0.1},
            {"group_visible_fraction": float("nan")},
            {"per_subgroup_drop_rate": [1.5, None, None]},
            {"max_sensed_range": -1.0},
            {"max_sensed_range": float("inf")},
            {"zzz": 1},
            "{}",
            "not json",
        ],
    )
    def test_bad_stats_file_writes_no_report(self, change, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        # json.dumps writes inf and nan as the Infinity and NaN literals,
        # which json.load accepts
        stats.write_text(
            change if isinstance(change, str) else json.dumps(
                {**GOOD_STATS, **change}
            )
        )
        out = tmp_path / "out"
        code = cli.main(["energy", "--out", str(out), "--stats", str(stats)])
        assert code == cli.EXIT_MALFORMED == 4
        assert "error: MalformedFile:" in capsys.readouterr().err
        assert not (out / "energy.json").exists()
        assert not (out / "frugal.json").exists()

    @pytest.mark.parametrize(
        "params",
        [
            ["energy.A_r=1e-200", "energy.rho=1e-200"],  # A_r*rho underflows
            ["energy.R=1e90"],  # R^4 overflows
            ["energy.k_adc=1e300"],  # P_ADC is infinite
        ],
        ids=" ".join,
    )
    def test_energy_the_model_cannot_evaluate_is_config_error(
        self, params, tmp_path, capsys
    ):
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps(GOOD_STATS))
        out = tmp_path / "out"
        argv = ["energy", "--out", str(out), "--stats", str(stats)]
        assert cli.main(argv + params) == cli.EXIT_CONFIG == 3
        assert "error: ConfigError: energy:" in capsys.readouterr().err
        assert not (out / "energy.json").exists()
        assert not (out / "frugal.json").exists()

    def test_sweep_with_such_energy_fails_before_training(
        self, tmp_path, monkeypatch, capsys
    ):
        calls = []
        monkeypatch.setattr(cli, "pretrain", lambda *a: calls.append(a))
        out = tmp_path / "out"
        argv = ["sweep-ratio", "--out", str(out), "sweep.ratios=[0.5]"]
        code = cli.main(argv + TINY + ["energy.k_adc=1e300"])
        assert code == cli.EXIT_CONFIG == 3
        assert "error: ConfigError: energy:" in capsys.readouterr().err
        assert calls == []
        assert not (out / "sweep.csv").exists()

    def test_good_stats_file_writes_both_reports(self, tmp_path):
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps(GOOD_STATS))
        out = tmp_path / "out"
        code = cli.main(["energy", "--out", str(out), "--stats", str(stats)])
        assert code == 0
        assert (out / "energy.json").exists()
        assert (out / "frugal.json").exists()


# every config key an override may set (train's mask and query are set
# through their own sections), a top-level one and an unknown one
OVERRIDE_KEYS = [
    f"{name}.{f.name}"
    for name, cls in cli._SECTION_TYPES.items()
    for f in dataclasses.fields(cls)
    if f.name not in cli._SECTION_TYPES
] + ["seed", "colour"]
HUGE = "1000000000000"
# adversarial override values: zero, negative, non-finite, of the wrong
# type, empty or ragged lists, and sizes either tiny or far past any cap,
# never large enough that uncapped code would really allocate them
OVERRIDE_VALUES = [
    "0", "-1", "1", "2", "0.5", "1e-300", "1e300", "-1e300", HUGE, "NaN",
    "Infinity", "true", '"x"', "abc", "null", "{}", "[]", "[0]", "[2,2,2]",
    "[0,0,0]", "[-1,-1,-1]", f"[{HUGE},1,1]", "[1e300,1e300,1e300]",
    "[1e-300,1e-300,1e-300]", "[1.5,0.5]", "[[]]", "[[0.5]]",
    "[[0.0,0.5],[0.5]]", '["a"]',
]
OVERRIDES = st.tuples(
    st.sampled_from(OVERRIDE_KEYS), st.sampled_from(OVERRIDE_VALUES)
)


class TestNoInternalError:
    """No override ends mask, energy, voxelize, pretrain or eval as
    InternalError (6): each runs (0) or is a bad configuration (3), as the
    README's exit-code table says; pretrain and eval (of an untrained
    checkpoint of TINY's net) may also find no data (5), and pretrain may
    diverge (7).  The examples are the overrides it found that exited 6:
    an unbounded synth.ground_noise and an unchecked net.seed."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(["mask", "energy", "voxelize", "pretrain", "eval"]),
        st.lists(OVERRIDES, min_size=1, max_size=3),
    )
    @example("voxelize", [("synth.ground_noise", "-1")])
    @example("mask", [("synth.ground_noise", "1e300")])
    @example("pretrain", [("net.seed", "-1")])
    def test_overrides_exit_with_a_documented_code(
        self, inputs, command, overrides
    ):
        err = io.StringIO()
        codes = (0, cli.EXIT_CONFIG)
        extra = []
        if command == "pretrain":
            codes += (cli.EXIT_NODATA, cli.EXIT_DIVERGED)
        elif command == "eval":
            codes += (cli.EXIT_NODATA,)
            extra = ["--checkpoint", str(inputs["checkpoint"])]
        overrides = [f"{k}={v}" for k, v in overrides]
        with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a run prints them and goes on
            argv = [command, "--out", out, *extra, *TINY, *overrides]
            with contextlib.redirect_stderr(err):
                code = cli.main(argv)
        assert code in codes, err.getvalue()


GOOD_STATS = {
    "group_visible_fraction": 0.2,
    "voxel_visible_fraction": 0.1,
    "per_subgroup_drop_rate": [0.0, None, None],
    "max_sensed_range": 17,
}


class TestAtomicWrite:
    @pytest.mark.parametrize("old", [None, b"the previous artifact"])
    def test_failed_writer_leaves_no_partial_artifact(self, old, tmp_path):
        target = tmp_path / "checkpoint.rmae"
        if old is not None:
            target.write_bytes(old)

        def half_then_fail(tmp):
            tmp.write_bytes(b"half a file")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            cli._atomic(target, half_then_fail)
        assert not list(tmp_path.glob("*.tmp*"))
        if old is None:
            assert not target.exists()
        else:
            assert target.read_bytes() == old


# COMMAND_RUNS' runs whose frames go to forked workers
WORKER_RUNS = [
    run
    for run in COMMAND_RUNS
    if run[0] in ("pretrain", "eval", "sweep-ratio", "sweep-angle")
]


class TestWorkerCount:
    """A run at RMAE_THREADS=2 writes the bytes it writes at 1, and a
    record that differs only in its out.  Three frames in batches of two:
    at two workers pretrain trains two frames at once and sums their
    gradients, and every command scores frames on both."""

    @pytest.mark.parametrize("command, extra, artifacts", WORKER_RUNS)
    def test_two_workers_write_the_same_bytes(
        self, command, extra, artifacts, inputs, tmp_path, monkeypatch
    ):
        extra = [a.format(**inputs) for a in extra]
        batched = [*TINY, "synth.frames=3", "train.batch_size=2"]
        runs = [tmp_path / "t1", tmp_path / "t2"]
        for threads, out in zip(("1", "2"), runs):
            monkeypatch.setenv("RMAE_THREADS", threads)
            assert cli.main([command, "--out", str(out), *extra, *batched]) == 0
        for name in artifacts:
            assert (runs[1] / name).read_bytes() == (runs[0] / name).read_bytes()
        records = [
            json.loads((d / "resolved_config.json").read_text()) for d in runs
        ]
        assert [r.pop("out") for r in records] == [str(d) for d in runs]
        assert json.dumps(records[0]) == json.dumps(records[1])


class TestRerunFromRecord:
    """resolved_config.json given back as --config repeats the run."""

    @pytest.mark.parametrize("command, extra, artifacts", COMMAND_RUNS)
    def test_rerun_writes_the_same_bytes(
        self, command, extra, artifacts, inputs, tmp_path
    ):
        """The rerun writes the same artifacts, byte for byte, and a record
        that differs only in its out."""
        extra = [a.format(**inputs) for a in extra]
        first, again = tmp_path / "a", tmp_path / "b"
        assert cli.main([command, "--out", str(first), *extra, *TINY]) == 0
        record = str(first / "resolved_config.json")
        assert cli.main([command, "--config", record, "--out", str(again)]) == 0
        for name in artifacts:
            assert (again / name).read_bytes() == (first / name).read_bytes()
        records = [
            json.loads((d / "resolved_config.json").read_text())
            for d in (first, again)
        ]
        assert [r.pop("out") for r in records] == [str(first), str(again)]
        assert json.dumps(records[0]) == json.dumps(records[1])

    def test_flags_win_over_the_file(self, tmp_path):
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps(GOOD_STATS))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 5, "stats": "missing.json"}))
        out = tmp_path / "out"
        argv = ["energy", "--config", str(config), "--out", str(out)]
        assert cli.main(argv + ["--seed", "7", "--stats", str(stats)]) == 0
        record = json.loads((out / "resolved_config.json").read_text())
        assert (record["seed"], record["stats"]) == (7, str(stats))
        assert (out / "frugal.json").exists()

    def test_record_of_another_command_is_config_error(self, tmp_path, capsys):
        first = tmp_path / "a"
        assert cli.main(["energy", "--out", str(first)]) == 0
        record = str(first / "resolved_config.json")
        out = tmp_path / "b"
        code = cli.main(["mask", "--config", record, "--out", str(out)])
        assert code == cli.EXIT_CONFIG == 3
        assert "records a 'energy' run" in capsys.readouterr().err
        assert not out.exists()
