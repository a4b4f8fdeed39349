import numpy as np

from rmae.occupancy_net import NetConfig, OccupancyNet, save_checkpoint
from rmae.pointcloud import SceneSpec, synth_scene
from rmae.trainer import TrainConfig, pretrain


def tiny_pretrain(geom, out_path):
    """One epoch over two small frames; returns (loss history, checkpoint
    bytes)."""
    frames = [
        synth_scene(SceneSpec(ground_extent=6.0, box_count=3, seed=s))
        for s in (1, 2)
    ]
    net = OccupancyNet(NetConfig(stage_channels=(4, 8, 8), seed=5))
    net, history = pretrain(
        frames, TrainConfig(epochs=1, batch_size=2), net, geom
    )
    save_checkpoint(net, out_path)
    return history, out_path.read_bytes()


class TestPretrainDeterminism:
    def test_bitwise_identical_across_runs_and_threads(
        self, small_geom, tmp_path, monkeypatch
    ):
        runs = []
        for i, threads in enumerate(("1", "1", "2")):
            monkeypatch.setenv("RMAE_THREADS", threads)
            runs.append(tiny_pretrain(small_geom, tmp_path / f"ck{i}.rmae"))
        history, blob = runs[0]
        assert len(history) == 1 and np.isfinite(history[0])
        for other_history, other_blob in runs[1:]:
            assert other_history == history
            assert other_blob == blob
