import csv
import json

import pytest

from rmae import cli
from rmae.occupancy_net import NetConfig, OccupancyNet, save_checkpoint

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

    def test_corrupt_checkpoint_is_malformed(self, tmp_path, capsys):
        good = tmp_path / "good.rmae"
        net = OccupancyNet(NetConfig(stage_channels=(4, 8, 8)))
        save_checkpoint(net, good)
        bad = tmp_path / "bad.rmae"
        bad.write_bytes(good.read_bytes()[:200])
        code = cli.main(
            ["eval", "--out", str(tmp_path / "out"), "--checkpoint", str(bad)]
            + TINY
        )
        assert code == cli.EXIT_MALFORMED == 4
        assert "error: MalformedFile:" in capsys.readouterr().err
        assert not (tmp_path / "out" / "eval.json").exists()

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


class TestBadInput:
    @pytest.mark.parametrize(
        "override", ["synth.ground_extent=-1", "synth.box_size=[3,1]"]
    )
    def test_bad_synth_value_is_config_error(self, override, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["voxelize", "--out", str(out), override])
        assert code == cli.EXIT_CONFIG == 3
        assert "error: ConfigError: synth:" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("text", ["{}", "not json"])
    def test_malformed_stats_file(self, text, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        stats.write_text(text)
        out = tmp_path / "out"
        code = cli.main(["energy", "--out", str(out), "--stats", str(stats)])
        assert code == cli.EXIT_MALFORMED == 4
        assert "error: MalformedFile:" in capsys.readouterr().err
        assert not (out / "frugal.json").exists()
