import contextlib
import sys
import threading

import numpy as np
import pytest

from rmae.errors import Diverged, StaleCache
from rmae.occupancy_net import (
    NetConfig,
    OccupancyNet,
    build_query_set,
    load_checkpoint,
    occupancy_loss,
    save_checkpoint,
    visible_features,
)
from rmae.pointcloud import SceneSpec, synth_scene
from rmae.radial_mask import MaskConfig, apply_mask
from rmae.trainer import TrainConfig, parallel_map, pretrain
from rmae.voxelizer import occupancy_of, voxelize


def tiny_frames(n):
    return [
        synth_scene(SceneSpec(ground_extent=6.0, box_count=3, seed=s))
        for s in range(1, n + 1)
    ]


def tiny_pretrain(geom, out_path, n_frames=2, **train):
    """pretrain over small frames (one epoch in batches of two unless train
    says otherwise); returns (loss history, checkpoint bytes)."""
    net = OccupancyNet(NetConfig(stage_channels=(4, 8, 8), seed=5))
    cfg = TrainConfig(**{"epochs": 1, "batch_size": 2, **train})
    net, history = pretrain(tiny_frames(n_frames), cfg, net, geom)
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

    def test_ragged_batches_over_epochs_for_1_2_3_threads(
        self, small_geom, tmp_path, monkeypatch
    ):
        """5 frames in batches of 4 leave a ragged batch of 1; the
        checkpoint holds the running statistics committed per frame.  Three
        threads on a short switch interval would expose shared state."""
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for threads in ("1", "2", "3"):
                monkeypatch.setenv("RMAE_THREADS", threads)
                runs.append(
                    tiny_pretrain(
                        small_geom,
                        tmp_path / f"ck{threads}.rmae",
                        n_frames=5,
                        epochs=2,
                        batch_size=4,
                    )
                )
        finally:
            sys.setswitchinterval(interval)
        history, blob = runs[0]
        assert len(history) == 2 and np.isfinite(history).all()
        saved = load_checkpoint(tmp_path / "ck1.rmae")
        for path, arr in saved.buffers():  # 10 commits moved every stat
            start = 0.0 if path.endswith("running_mean") else 1.0
            assert (arr != start).all(), path
        for other_history, other_blob in runs[1:]:
            assert other_history == history
            assert other_blob == blob

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_before_the_step(self, small_geom, tmp_path):
        net = OccupancyNet(NetConfig(stage_channels=(4, 8, 8), seed=5))
        cfg = TrainConfig(epochs=3, batch_size=1, learning_rate=1e300)
        with pytest.raises(Diverged):
            pretrain(tiny_frames(2), cfg, net, small_geom)


class TestParallelMap:
    @pytest.mark.parametrize("threads", ["1", "2", "3", "8"])
    def test_yields_in_order(self, threads, monkeypatch):
        monkeypatch.setenv("RMAE_THREADS", threads)
        assert list(parallel_map(lambda v: v * v, range(7))) == [
            v * v for v in range(7)
        ]

    def test_closing_early_joins_the_pool(self, monkeypatch):
        monkeypatch.setenv("RMAE_THREADS", "2")
        before = threading.active_count()
        results = parallel_map(lambda v: v, range(6))
        with contextlib.closing(results):
            assert next(results) == 0
        assert threading.active_count() == before

    def test_error_of_any_item_reaches_the_consumer(self, monkeypatch):
        monkeypatch.setenv("RMAE_THREADS", "2")

        def fn(v):
            if v == 2:
                raise ValueError("item 2")
            return v

        with pytest.raises(ValueError, match="item 2"):
            list(parallel_map(fn, range(4)))


def test_backward_consumes_the_tape(small_geom):
    """After backward the tape keeps only per-channel batch statistics, and
    a second backward raises StaleCache."""
    grid = voxelize(tiny_frames(1)[0], small_geom)
    truth = occupancy_of(grid)
    outcome = apply_mask(grid, MaskConfig(n_groups=8, m=0.5), seed=1)
    vis = visible_features(grid, outcome.visible)
    net = OccupancyNet(NetConfig(stage_channels=(4, 8, 8), seed=5))
    pred, tape = net.forward(vis, training=True)
    query = build_query_set(truth, vis.coords, TrainConfig().query)
    _, grad = occupancy_loss(pred.logits, truth, query)
    net.backward(tape, grad)

    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, dict):
            for v in obj.values():
                yield from arrays(v)
        elif isinstance(obj, (list, tuple)):
            for v in obj:
                yield from arrays(v)
        elif hasattr(obj, "__dict__"):
            yield from arrays(vars(obj))

    left = list(arrays(tape))
    assert left and all(a.ndim == 1 for a in left)
    norms = [l for _, l in net.named_layers() if l.kind == "batch_norm"]
    assert [bn for bn, _ in tape["bn_stats"]] == norms
    with pytest.raises(StaleCache):
        net.backward(tape, grad)
