import pytest

from rmae import cli


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
