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

    def test_good_stats_file_writes_both_reports(self, tmp_path):
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps(GOOD_STATS))
        out = tmp_path / "out"
        code = cli.main(["energy", "--out", str(out), "--stats", str(stats)])
        assert code == 0
        assert (out / "energy.json").exists()
        assert (out / "frugal.json").exists()


GOOD_STATS = {
    "group_visible_fraction": 0.2,
    "voxel_visible_fraction": 0.1,
    "per_subgroup_drop_rate": [0.0, None, None],
    "max_sensed_range": 17,
}


class TestRerunFromRecord:
    """resolved_config.json given back as --config repeats the run."""

    def test_pretrain(self, tmp_path):
        first, again = tmp_path / "a", tmp_path / "b"
        assert cli.main(["pretrain", "--out", str(first)] + TINY) == 0
        record = str(first / "resolved_config.json")
        rerun = ["pretrain", "--config", record, "--out", str(again)]
        assert cli.main(rerun) == 0
        for name in ("checkpoint.rmae", "loss.csv"):
            assert (again / name).read_bytes() == (first / name).read_bytes()
        records = [
            json.loads((d / "resolved_config.json").read_text())
            for d in (first, again)
        ]
        assert [r.pop("out") for r in records] == [str(first), str(again)]
        assert json.dumps(records[0]) == json.dumps(records[1])

    def test_eval_takes_the_recorded_checkpoint(self, tmp_path):
        net = tmp_path / "net.rmae"
        untrained = OccupancyNet(NetConfig(stage_channels=(4, 8, 8)))
        save_checkpoint(untrained, net)
        first, again = tmp_path / "a", tmp_path / "b"
        args = ["eval", "--out", str(first), "--checkpoint", str(net)]
        assert cli.main(args + TINY) == 0
        record = str(first / "resolved_config.json")
        assert cli.main(["eval", "--config", record, "--out", str(again)]) == 0
        expect = (first / "eval.json").read_bytes()
        assert (again / "eval.json").read_bytes() == expect

    def test_record_of_another_command_is_config_error(self, tmp_path, capsys):
        first = tmp_path / "a"
        assert cli.main(["energy", "--out", str(first)]) == 0
        record = str(first / "resolved_config.json")
        out = tmp_path / "b"
        code = cli.main(["mask", "--config", record, "--out", str(out)])
        assert code == cli.EXIT_CONFIG == 3
        assert "records a 'energy' run" in capsys.readouterr().err
        assert not out.exists()
