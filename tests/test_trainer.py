import contextlib
import copy
import math
import os
import signal
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import net_buffers
from rmae import cli
from rmae.errors import Diverged, EmptyQuerySet, NoData, StaleCache
from rmae.keyrand import derive_seed
from rmae.occupancy_net import (
    NetConfig,
    OccupancyNet,
    QueryConfig,
    build_query_set,
    load_checkpoint,
    occupancy_loss,
    save_checkpoint,
    visible_features,
)
from rmae.pointcloud import (
    PointCloud,
    SceneSpec,
    cylindrical_arrays,
    synth_scene,
)
from rmae.radial_mask import MaskConfig, apply_mask
from rmae import trainer
from rmae.trainer import (
    AdamOptimizer,
    TrainConfig,
    evaluate,
    pretrain,
)
from rmae.voxelizer import GridGeometry, occupancy_of, voxelize


def tiny_frames(n):
    return [
        synth_scene(SceneSpec(ground_extent=6.0, box_count=3, seed=s))
        for s in range(1, n + 1)
    ]


@pytest.fixture
def eight_cores(monkeypatch):
    """Let RMAE_THREADS up to 8 take effect whatever this machine's cores."""
    monkeypatch.setattr(trainer, "usable_cores", lambda: 8)


@pytest.fixture
def forked(monkeypatch):
    """The pids os.fork returns to this process while the test runs."""
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block after seconds (SIGALRM)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def in_workers(monkeypatch, name, action):
    """Patch trainer.name so that, in a forked worker only, it calls
    action() instead."""
    parent, real = os.getpid(), getattr(trainer, name)

    def patched(*args, **kwargs):
        if os.getpid() != parent:
            action()
        return real(*args, **kwargs)

    monkeypatch.setattr(trainer, name, patched)


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
        self, small_geom, tmp_path, monkeypatch, eight_cores
    ):
        """5 frames in batches of 4 leave a ragged batch of 1; the
        checkpoint holds the running statistics committed per frame."""
        runs = []
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
        history, blob = runs[0]
        assert len(history) == 2 and np.isfinite(history).all()
        saved = load_checkpoint(tmp_path / "ck1.rmae")
        for path, arr in net_buffers(saved):  # 10 commits moved every stat
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


SPHERE = QueryConfig(mode="sphere", sphere_radius=3.0)
# a tiny pretrain run for cli.main, two frames in one batch
TINY_RUN = [
    "synth.frames=2",
    "synth.ground_extent=6.0",
    "synth.box_count=3",
    "geometry.min_corner=[-6.4,-6.4,-1.6]",
    "geometry.voxel_size=[0.8,0.8,0.8]",
    "geometry.dims=[16,16,8]",
    "net.stage_channels=[4,8,8]",
    "train.epochs=1",
    "train.batch_size=2",
]


def fail_in_worker():
    raise EmptyQuerySet("raised in a worker")


def sphere_runs_at_1_2_3_workers(frames, batch_size, geom, monkeypatch):
    """Per RMAE_THREADS of 1, 2 and 3: the loss history and the bytes of
    every parameter and buffer after two sphere-mode epochs."""
    runs = []
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("RMAE_THREADS", threads)
        net = OccupancyNet(NetConfig(stage_channels=(4, 8, 8), seed=5))
        cfg = TrainConfig(epochs=2, batch_size=batch_size, query=SPHERE)
        net, history = pretrain(frames, cfg, net, geom)
        state = net.parameters() + net_buffers(net)
        runs.append((history, [a.tobytes() for _, a in state]))
    return runs


class TestFrameWorkers:
    """pretrain's forked frame workers: how many, what they send back, and
    that none outlives the call."""

    def test_worker_count_is_capped_at_the_usable_cores(self, monkeypatch):
        monkeypatch.setattr(trainer, "usable_cores", lambda: 4)
        for raw, count in [("1", 1), ("3", 3), ("4", 4), ("100000", 4), ("0", 4)]:
            monkeypatch.setenv("RMAE_THREADS", raw)
            assert trainer.worker_count() == count, raw
        monkeypatch.delenv("RMAE_THREADS")
        assert trainer.worker_count() == 1

    def test_usable_cores_follow_the_affinity_mask(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert trainer.usable_cores() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert trainer.usable_cores() == (os.cpu_count() or 1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("outcome", ["return", "raise", "diverged"])
    def test_no_worker_outlives_pretrain(
        self, outcome, small_geom, monkeypatch, eight_cores, forked
    ):
        """Three frames a batch on three workers' worth: two forked
        workers, reaped whether pretrain returns, re-raises a worker's
        error with its type, or stops on a diverged loss; the parameters
        leave the shared mapping either way."""
        monkeypatch.setenv("RMAE_THREADS", "3")
        train, error = {"epochs": 2, "batch_size": 3}, None
        if outcome == "raise":
            in_workers(monkeypatch, "occupancy_loss", fail_in_worker)
            error = EmptyQuerySet
        elif outcome == "diverged":
            train["learning_rate"], error = 1e300, Diverged
        net = OccupancyNet(NetConfig(stage_channels=(4, 8, 8), seed=5))
        with pytest.raises(error) if error else contextlib.nullcontext():
            pretrain(tiny_frames(3), TrainConfig(**train), net, small_geom)
        assert len(forked) == 2
        assert_reaped(forked)
        for path, arr in net.parameters():
            assert arr.flags.owndata, path

    def test_worker_error_reaches_the_cli_with_its_exit_code(
        self, tmp_path, monkeypatch, capsys, eight_cores, forked
    ):
        def no_data():
            raise NoData("raised in a worker")

        in_workers(monkeypatch, "occupancy_loss", no_data)
        monkeypatch.setenv("RMAE_THREADS", "2")
        argv = ["pretrain", "--out", str(tmp_path / "out"), *TINY_RUN]
        assert cli.main(argv) == cli.EXIT_NODATA == 5
        assert "error: NoData: raised in a worker" in capsys.readouterr().err
        assert len(forked) == 1
        assert_reaped(forked)

    @pytest.mark.parametrize("when", ["in its step", "before its first job"])
    def test_a_worker_that_dies_makes_pretrain_raise(
        self, when, small_geom, monkeypatch, eight_cores, forked
    ):
        if when == "in its step":
            in_workers(monkeypatch, "occupancy_loss", lambda: os._exit(3))
        else:  # its pipe breaks on the send or on the receive
            monkeypatch.setattr(trainer, "_serve", lambda *args: None)
        monkeypatch.setenv("RMAE_THREADS", "2")
        net = OccupancyNet(NetConfig(stage_channels=(4, 8, 8), seed=5))
        cfg = TrainConfig(epochs=1, batch_size=2)
        with deadline(120), pytest.raises(RuntimeError, match="without a result"):
            pretrain(tiny_frames(2), cfg, net, small_geom)
        assert len(forked) == 1
        assert_reaped(forked)

    def test_a_frame_with_nothing_visible_is_skipped_on_a_worker(
        self, small_geom, monkeypatch, eight_cores, forked
    ):
        """Two of three frames see nothing; at three workers a round's
        first two frames run forked, so one of them at least is skipped
        there.  Every worker count gives the same bytes."""
        outside = PointCloud(np.array([[100.0, 100.0, 0.0, 0.5]]))
        frames = tiny_frames(1) + [outside, outside]
        runs = sphere_runs_at_1_2_3_workers(frames, 3, small_geom, monkeypatch)
        assert len(forked) == 1 + 2
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_a_batch_of_four_at_two_and_three_workers(
        self, small_geom, monkeypatch, eight_cores, forked
    ):
        """Two workers run a batch of 4 in two rounds, so a worker's block
        is rewritten while the batch's sum, which began from that block's
        gradients, is still open; three run it in rounds of 3 and 1.  Both
        give the bytes of one worker."""
        frames = tiny_frames(4)
        runs = sphere_runs_at_1_2_3_workers(frames, 4, small_geom, monkeypatch)
        assert len(forked) == 1 + 2
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_gradients_are_copied_only_at_two_workers(
        self, small_geom, tmp_path, monkeypatch, eight_cores
    ):
        """A batch's sum starts from its first frame's gradients.  At two
        workers they may be a worker's block, so each of the two batches
        copies them; at one worker they are the caller's own, so none
        does.  Both give the same bytes."""
        calls = []

        def deepcopy(x):
            calls.append(x)
            return copy.deepcopy(x)

        monkeypatch.setattr(trainer, "copy", SimpleNamespace(deepcopy=deepcopy))
        runs, counts = [], []
        for threads in ("1", "2"):
            monkeypatch.setenv("RMAE_THREADS", threads)
            path = tmp_path / f"ck{threads}.rmae"
            runs.append(tiny_pretrain(small_geom, path, n_frames=4))
            counts.append(len(calls))
            calls.clear()
        assert counts == [0, 2]
        assert runs[1] == runs[0]

    def test_without_fork_the_frames_run_in_the_caller(
        self, small_geom, tmp_path, monkeypatch, eight_cores, forked
    ):
        monkeypatch.setenv("RMAE_THREADS", "2")
        runs = [tiny_pretrain(small_geom, tmp_path / "a.rmae", n_frames=3)]
        monkeypatch.delattr(os, "fork")
        runs.append(tiny_pretrain(small_geom, tmp_path / "b.rmae", n_frames=3))
        assert len(forked) == 1
        assert runs[1] == runs[0]


class TestForked:
    """_forked on its own: the order of its results, which process runs
    which job, its errors, and that no worker outlives the block."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_yields_in_order(self, n, forked):
        with deadline(60), trainer._forked(n, lambda v: v * v) as run:
            assert list(run(list(range(7)))) == [v * v for v in range(7)]
        assert len(forked) == n - 1
        assert_reaped(forked)

    def test_schedule_of_three_workers(self, forked):
        """Three at once over 7 jobs: worker k runs job k of each round of
        three, the caller the round's last job and the ragged last round."""
        with deadline(60), trainer._forked(3, lambda v: (v, os.getpid())) as run:
            ran_on = dict(run(list(range(7))))
        assert len(forked) == 2
        caller = os.getpid()
        assert [v for v, pid in ran_on.items() if pid == caller] == [2, 5, 6]
        for v in (0, 1, 3, 4):
            assert ran_on[v] == forked[v % 3], v

    def test_leaving_early_reaps_the_workers(self, forked):
        with deadline(60), trainer._forked(2, lambda v: v) as run:
            results = run(list(range(6)))
            assert next(results) == 0
        assert len(forked) == 1
        assert_reaped(forked)

    @pytest.mark.parametrize("bad", [0, 1], ids=["on a worker", "on the caller"])
    def test_error_of_any_job_reaches_the_consumer(self, bad, forked):
        def step(v):
            if v == bad:
                raise ValueError(f"job {v}")
            return v

        with deadline(60), pytest.raises(ValueError, match=f"job {bad}"):
            with trainer._forked(2, step) as run:
                list(run(list(range(4))))
        assert len(forked) == 1
        assert_reaped(forked)


class TestRemask:
    @pytest.mark.parametrize("remask", [True, False])
    def test_mask_seeds_per_epoch(self, remask, small_geom, monkeypatch):
        """Each epoch masks every frame once; with remask_each_epoch off
        every epoch draws the first epoch's masks again."""
        monkeypatch.setenv("RMAE_THREADS", "1")
        seeds = []
        apply = trainer.apply_mask

        def recording_apply(grid, cfg, seed=None):
            seeds.append(seed)
            return apply(grid, cfg, seed=seed)

        monkeypatch.setattr(trainer, "apply_mask", recording_apply)
        net = OccupancyNet(NetConfig(stage_channels=(4, 8, 8), seed=5))
        cfg = TrainConfig(epochs=3, batch_size=1, remask_each_epoch=remask)
        pretrain(tiny_frames(2), cfg, net, small_geom)
        epochs = [sorted(seeds[i : i + 2]) for i in (0, 2, 4)]
        assert len(seeds) == 6 and len(set(epochs[0])) == 2
        if remask:
            assert not set(epochs[0]) & set(epochs[1])
            assert not set(epochs[1]) & set(epochs[2])
        else:
            assert epochs[0] == epochs[1] == epochs[2]


def test_query_seeds_have_their_own_stream(small_geom, monkeypatch):
    """Epoch e's frame f is masked with derive_seed(seed, _MASK_STREAM, e,
    f) and its query set drawn with the same key on _QUERY_STREAM, so
    balance_empty's subsample is not the mask's draw."""
    monkeypatch.setenv("RMAE_THREADS", "1")
    drawn = []  # (mask seed, query seed) per masked frame
    apply, build = trainer.apply_mask, trainer.build_query_set

    def recording_apply(grid, cfg, seed=None):
        drawn.append([seed])
        return apply(grid, cfg, seed=seed)

    def recording_build(grid, coords, q, seed=0):
        drawn[-1].append(seed)
        return build(grid, coords, q, seed=seed)

    monkeypatch.setattr(trainer, "apply_mask", recording_apply)
    monkeypatch.setattr(trainer, "build_query_set", recording_build)
    net = OccupancyNet(NetConfig(stage_channels=(4, 8, 8), seed=5))
    query = QueryConfig(balance_empty=True)
    cfg = TrainConfig(epochs=2, batch_size=1, seed=4, query=query)
    pretrain(tiny_frames(2), cfg, net, small_geom)
    assert sorted(drawn) == sorted(
        [
            derive_seed(4, trainer._MASK_STREAM, e, f),
            derive_seed(4, trainer._QUERY_STREAM, e, f),
        ]
        for e in range(2)
        for f in range(2)
    )


def test_each_epoch_trains_its_keyed_permutation(small_geom, monkeypatch):
    """Epoch e takes the frames in the order of
    default_rng(derive_seed(seed, _SHUFFLE_STREAM, e)).permutation(n)."""
    monkeypatch.setenv("RMAE_THREADS", "1")
    trained = []
    masked_input = trainer._masked_input

    def recording(grid, mask_cfg, query_cfg, key):
        trained.append(key[3])  # key is (seed, stream, epoch key, frame)
        return masked_input(grid, mask_cfg, query_cfg, key)

    monkeypatch.setattr(trainer, "_masked_input", recording)
    net = OccupancyNet(NetConfig(stage_channels=(4, 8, 8), seed=5))
    cfg = TrainConfig(epochs=3, batch_size=2, seed=4)
    pretrain(tiny_frames(4), cfg, net, small_geom)
    orders = [
        np.random.default_rng(
            derive_seed(cfg.seed, trainer._SHUFFLE_STREAM, epoch)
        ).permutation(4).tolist()
        for epoch in range(3)
    ]
    assert any(order != [0, 1, 2, 3] for order in orders)
    assert trained == [fi for order in orders for fi in order]


@pytest.mark.parametrize("query", [QueryConfig(), SPHERE], ids=["all", "sphere"])
def test_training_learns_what_the_mask_hid(query, small_geom, monkeypatch):
    """Twenty epochs on four tiny frames rebuild the masked sectors of two
    held-out frames: their masked-region IoU goes from about 0.15 to over
    0.5, and their BCE from log 2 to below 0.4 (here 0.69-0.72 and
    0.17-0.32; 0.67-0.80 and 0.13-0.30 over four other seeds)."""
    monkeypatch.setenv("RMAE_THREADS", "1")
    frames = tiny_frames(6)
    mask = MaskConfig(m=0.7, r_thresholds=(3.0, 6.0))
    net = OccupancyNet(NetConfig(stage_channels=(4, 8, 8)))
    untrained = evaluate(frames[4:], net, mask, query, small_geom)
    assert untrained.masked_region_iou < 0.3 and untrained.bce > 0.69
    cfg = TrainConfig(
        epochs=20, batch_size=2, learning_rate=1e-2, mask=mask, query=query
    )
    net, _ = pretrain(frames[:4], cfg, net, small_geom)
    report = evaluate(frames[4:], net, mask, query, small_geom)
    assert report.masked_region_iou > 0.5
    assert report.bce < 0.4


def test_adam_step_is_the_textbook_update():
    rng = np.random.default_rng(1)
    lr, b1, b2, eps = 3e-3, 0.8, 0.99, 1e-6
    params = [("a", rng.normal(size=(5, 3))), ("b", rng.normal(size=7))]
    expect = {path: arr.copy() for path, arr in params}
    m = {path: np.zeros_like(arr) for path, arr in params}
    v = {path: np.zeros_like(arr) for path, arr in params}
    opt = AdamOptimizer(lr, b1, b2, eps)
    for t in (1, 2, 3, 4):
        grads = {path: rng.normal(size=arr.shape) for path, arr in params}
        opt.step(params, grads)
        for path, arr in params:
            g = grads[path]
            m[path] = m[path] + (1 - b1) * (g - m[path])
            v[path] = v[path] + (1 - b2) * (g * g - v[path])
            mhat = m[path] / (1 - b1**t)
            vhat = v[path] / (1 - b2**t)
            expect[path] = expect[path] - lr * mhat / (np.sqrt(vhat) + eps)
            assert arr.tobytes() == expect[path].tobytes(), (t, path)
            assert opt.m[path].tobytes() == m[path].tobytes()
            assert opt.v[path].tobytes() == v[path].tobytes()

def test_trained_state_stays_float64(small_geom, monkeypatch):
    """The decoder computes in float32; parameters, batch-norm running
    statistics and Adam moments stay float64."""
    made = []

    class Kept(AdamOptimizer):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(trainer, "AdamOptimizer", Kept)
    net = OccupancyNet(NetConfig(stage_channels=(4, 8, 8), seed=5))
    cfg = TrainConfig(epochs=1, batch_size=2)
    pretrain(tiny_frames(2), cfg, net, small_geom)
    (adam,) = made
    assert adam.t == 1
    assert adam.m.keys() == adam.v.keys() == dict(net.parameters()).keys()
    state = net.parameters() + net_buffers(net)
    state += list(adam.m.items()) + list(adam.v.items())
    for path, arr in state:
        assert arr.dtype == np.float64, path


class TestEvaluate:
    """evaluate reports the mean of its frames' metrics; on forked workers
    it keeps the report of one worker, and no worker outlives the call."""

    MASK = MaskConfig(n_groups=8, m=0.5)

    def test_bitwise_identical_for_1_and_2_workers(
        self, small_geom, monkeypatch, eight_cores, forked
    ):
        """Two workers take three frames in a round of two and a ragged
        round of one, which the caller runs: the caller's forwards leave
        out the worker's frame, and the report keeps every bit of the
        one-worker report."""
        net = OccupancyNet(NetConfig(stage_channels=(4, 8, 8), seed=5))
        calls = []
        net.forward = record(calls, "forward", net.forward)
        reports, forwards = {}, {}
        for workers in ("1", "2"):
            monkeypatch.setenv("RMAE_THREADS", workers)
            calls.clear()
            reports[workers] = evaluate(
                tiny_frames(3), net, self.MASK, QueryConfig(), small_geom
            )
            forwards[workers] = len(calls)
        assert forwards == {"1": 3, "2": 2}
        assert len(forked) == 1
        assert_reaped(forked)
        assert all(math.isfinite(v) for v in vars(reports["1"]).values())
        assert repr(reports["2"]) == repr(reports["1"])

    def test_reports_the_mean_of_its_frames(self, small_geom, monkeypatch):
        """With nothing masked a frame's metrics do not depend on its
        index, so a report of two frames is the mean of their one-frame
        reports, which differ."""
        monkeypatch.setenv("RMAE_THREADS", "1")
        net = OccupancyNet(NetConfig(stage_channels=(4, 8, 8), seed=5))
        mask = MaskConfig(n_groups=8, m=0.0, p_drop=((0.0, 0.0, 0.0),))
        frames = tiny_frames(2)
        a, b = (
            evaluate([f], net, mask, QueryConfig(), small_geom) for f in frames
        )
        both = evaluate(frames, net, mask, QueryConfig(), small_geom)
        for name in ("bce", "occupied_iou", "voxel_accuracy"):
            x, y = getattr(a, name), getattr(b, name)
            assert x != y, name
            assert getattr(both, name) == float(np.mean([x, y])), name
        assert both.n_frames == 2

    def test_a_logit_of_zero_predicts_empty(self, small_geom, monkeypatch):
        """A cell is predicted occupied where its probability exceeds 0.5:
        a head of zeros gives every cell the logit 0 and predicts none."""
        monkeypatch.setenv("RMAE_THREADS", "1")
        net = OccupancyNet(NetConfig(stage_channels=(4, 8, 8), seed=5))
        for arr in net.head.params().values():
            arr[...] = 0.0
        cells = small_geom.n_cells
        empty = (cells - len(voxelize(tiny_frames(1)[0], small_geom))) / cells
        report = evaluate(
            tiny_frames(1), net, self.MASK, QueryConfig(), small_geom
        )
        assert report.occupied_iou == 0.0
        assert report.voxel_accuracy == empty
        assert report.bce == pytest.approx(math.log(2.0), rel=1e-12)

    @pytest.mark.parametrize(
        "action, error, message",
        [
            (fail_in_worker, EmptyQuerySet, "raised in a worker"),
            (lambda: os._exit(3), RuntimeError, "without a result"),
        ],
        ids=["raises", "dies"],
    )
    def test_a_worker_that_fails_makes_evaluate_raise(
        self, action, error, message, small_geom, monkeypatch, eight_cores, forked
    ):
        """A worker's exception keeps its type; a worker that dies
        becomes a RuntimeError.  Either way the worker is reaped."""
        in_workers(monkeypatch, "apply_mask", action)
        monkeypatch.setenv("RMAE_THREADS", "2")
        net = OccupancyNet(NetConfig(stage_channels=(4, 8, 8), seed=5))
        with deadline(120), pytest.raises(error, match=message):
            evaluate(tiny_frames(2), net, self.MASK, QueryConfig(), small_geom)
        assert len(forked) == 1
        assert_reaped(forked)


def test_backward_consumes_the_tape(small_geom):
    """After backward the tape keeps only per-channel batch statistics, and
    a second backward raises StaleCache."""
    grid = voxelize(tiny_frames(1)[0], small_geom)
    truth = occupancy_of(grid)
    outcome = apply_mask(grid, MaskConfig(n_groups=8, m=0.5), seed=1)
    vis = visible_features(grid, outcome.visible)
    net = OccupancyNet(NetConfig(stage_channels=(4, 8, 8), seed=5))
    pred, tape = net.forward(vis, training=True)
    query = build_query_set(grid, vis.coords, TrainConfig().query)
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
    norms = [n for n, l in net.named_layers() if l.kind == "batch_norm"]
    assert [name for name, _ in tape["bn_stats"]] == norms
    with pytest.raises(StaleCache):
        net.backward(tape, grad)


def record(calls, name, method):
    def recorded(*args, **kwargs):
        calls.append(name)
        return method(*args, **kwargs)

    return recorded


class TestSphereMode:
    """In sphere mode the decoder computes only the query cells and what
    they read."""

    def test_bitwise_identical_for_1_2_3_threads(
        self, small_geom, tmp_path, monkeypatch, eight_cores
    ):
        runs = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("RMAE_THREADS", threads)
            runs.append(
                tiny_pretrain(
                    small_geom,
                    tmp_path / f"ck{threads}.rmae",
                    n_frames=5,
                    batch_size=4,
                    query=SPHERE,
                )
            )
        history, blob = runs[0]
        assert len(history) == 1 and np.isfinite(history).all()
        for other_history, other_blob in runs[1:]:
            assert other_history == history
            assert other_blob == blob

    def test_nothing_visible_in_any_frame_is_no_data(self, small_geom):
        net = OccupancyNet(NetConfig(stage_channels=(4, 8, 8), seed=5))
        cfg = TrainConfig(epochs=1, mask=MaskConfig(m=1.0), query=SPHERE)
        with pytest.raises(NoData, match="epoch 0"):
            pretrain(tiny_frames(2), cfg, net, small_geom)

    def test_a_frame_with_nothing_visible_is_skipped(
        self, small_geom, monkeypatch
    ):
        """The frame adds no loss, gradient or batch-norm statistics and
        the others keep their 1/len(batch) share: a batch of three with
        one skipped steps like a batch of the other two at 2/3 of the
        learning rate, under an optimizer linear in the gradient."""

        class Sgd:
            def __init__(self, lr, *_):
                self.lr = lr

            def step(self, params, grads):
                for path, arr in params:
                    arr -= self.lr * grads[path]

        monkeypatch.setattr(trainer, "AdamOptimizer", Sgd)
        outside = PointCloud(np.array([[100.0, 100.0, 0.0, 0.5]]))
        runs = []
        for frames, lr in ((tiny_frames(2) + [outside], 0.3), (tiny_frames(2), 0.2)):
            net = OccupancyNet(NetConfig(stage_channels=(4, 8, 8), seed=5))
            start = {path: arr.copy() for path, arr in net.parameters()}
            calls = []
            for name in ("forward", "commit_batch_stats"):
                method = getattr(net, name)
                setattr(net, name, record(calls, name, method))
            cfg = TrainConfig(
                epochs=1,
                batch_size=len(frames),
                learning_rate=lr,
                query=SPHERE,
            )
            net, history = pretrain(frames, cfg, net, small_geom)
            steps = {path: arr - start[path] for path, arr in net.parameters()}
            runs.append((history, steps, calls))
        (history3, steps3, calls3), (history2, steps2, calls2) = runs
        assert calls3 == calls2 == ["forward"] * 2 + ["commit_batch_stats"] * 2
        assert history3 == pytest.approx(history2, rel=1e-12)
        largest = max(np.abs(d).max() for d in steps2.values())
        for path, step in steps2.items():
            np.testing.assert_allclose(
                steps3[path], step, rtol=1e-4, atol=1e-6 * largest, err_msg=path
            )


    def test_a_batch_of_skipped_frames_makes_no_step(self, small_geom):
        """Adam steps even on a zero gradient, so a batch that trained no
        frame must not step: training a frame next to a frame with
        nothing visible, one frame a batch, gives the bytes of training
        it alone."""
        outside = PointCloud(np.array([[100.0, 100.0, 0.0, 0.5]]))
        blobs = []
        for frames in (tiny_frames(1) + [outside], tiny_frames(1)):
            net = OccupancyNet(NetConfig(stage_channels=(4, 8, 8), seed=5))
            cfg = TrainConfig(epochs=1, batch_size=1, query=SPHERE)
            net, history = pretrain(frames, cfg, net, small_geom)
            blobs.append((history, [a.tobytes() for _, a in net.parameters()]))
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("mode", ["all_voxels", "sphere"])
    def test_only_sphere_mode_hands_the_query_to_the_net(
        self, mode, small_geom, monkeypatch
    ):
        monkeypatch.setenv("RMAE_THREADS", "1")
        queries = []
        built = trainer.build_query_set

        def recording_build(*args, **kwargs):
            queries.append(built(*args, **kwargs))
            return queries[-1]

        monkeypatch.setattr(trainer, "build_query_set", recording_build)
        net = OccupancyNet(NetConfig(stage_channels=(4, 8, 8), seed=5))
        handed = []
        forward = net.forward

        def recording_forward(visible, training=False, query=None):
            handed.append(query)
            return forward(visible, training, query)

        net.forward = recording_forward
        cfg = TrainConfig(epochs=1, batch_size=2, query=QueryConfig(mode=mode))
        pretrain(tiny_frames(2), cfg, net, small_geom)
        assert len(handed) == len(queries) == 2
        for query, made in zip(handed, queries):
            assert query is (made if mode == "sphere" else None)


def test_sphere_backward_consumes_the_tape(small_geom):
    grid = voxelize(tiny_frames(1)[0], small_geom)
    truth = occupancy_of(grid)
    outcome = apply_mask(grid, MaskConfig(n_groups=8, m=0.5), seed=1)
    vis = visible_features(grid, outcome.visible)
    net = OccupancyNet(NetConfig(stage_channels=(4, 8, 8), seed=5))
    query = build_query_set(grid, vis.coords, SPHERE)
    pred, tape = net.forward(vis, training=True, query=query)
    _, grad = occupancy_loss(pred.logits, truth, query)
    net.backward(tape, grad)
    assert set(tape) == {"training", "bn_stats"}
    with pytest.raises(StaleCache):
        net.backward(tape, grad)


def test_region_mask_marks_every_cell_of_an_unsensed_sector():
    geom = GridGeometry((-2.5, -3.1, 0.0), (1.0, 0.7, 0.5), (5, 9, 3))
    cfg = MaskConfig(n_groups=7, m=0.5, seed=4)
    empty = voxelize(PointCloud(np.empty((0, 4))), geom)
    selected = apply_mask(empty, cfg).selected_groups
    assert 0 < len(selected) < 7
    region = trainer._region_mask(geom, 7, selected)
    cells = np.indices(geom.dims).reshape(3, -1).T
    _, theta = cylindrical_arrays(geom.centers(cells))
    groups = np.minimum((theta / (2 * math.pi / 7)).astype(int), 6)
    expect = ~np.isin(groups, list(selected))
    assert region.dtype == bool and region.shape == geom.dims
    assert region.reshape(-1).tolist() == expect.tolist()
    none = trainer._region_mask(geom, 7, frozenset())
    assert none.all()
