import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import eval_batch_norm, random_grid
from rmae.errors import MalformedFile, ShapeError, StaleCache
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
from rmae.occupancy_net import network
from rmae.occupancy_net.layers import SparseFeatureMap, sigmoid, site_rows, unrows
from rmae.voxelizer import GridGeometry, occupancy_of


def toy_net(seed=0, in_ch=2, stages=(2, 4)):
    return OccupancyNet(NetConfig(in_channels=in_ch, stage_channels=stages, seed=seed))


def sparse_input(dims, n, cin, rng):
    total = int(np.prod(dims))
    lin = np.sort(rng.choice(total, size=min(n, total), replace=False))
    coords = np.column_stack(
        [
            lin // (dims[1] * dims[2]),
            (lin // dims[2]) % dims[1],
            lin % dims[2],
        ]
    ).astype(np.int64)
    return SparseFeatureMap(dims, coords, rng.normal(0, 1, (len(coords), cin)))


class TestForward:
    def test_output_shape(self):
        rng = np.random.default_rng(0)
        net = toy_net()
        x = sparse_input((8, 8, 4), 25, 2, rng)
        pred, _ = net.forward(x)
        assert pred.logits.shape == (8, 8, 4)
        probs = sigmoid(pred.logits)
        assert ((probs > 0) & (probs < 1)).all()

    def test_deterministic_logits(self):
        rng = np.random.default_rng(1)
        net = toy_net(seed=3)
        x = sparse_input((8, 8, 4), 25, 2, rng)
        a, _ = net.forward(x)
        b, _ = net.forward(x)
        assert np.array_equal(a.logits, b.logits)
        again = toy_net(seed=3)
        c, _ = again.forward(x)
        assert np.array_equal(a.logits, c.logits)

    def test_empty_visible_set(self):
        net = toy_net()
        x = SparseFeatureMap(
            (8, 8, 4), np.empty((0, 3), np.int64), np.empty((0, 2))
        )
        pred, tape = net.forward(x, training=True)
        assert pred.logits.shape == (8, 8, 4)
        assert np.isfinite(pred.logits).all()
        grads = net.backward(tape, np.ones((8, 8, 4)))
        # nothing reached the encoder
        assert not grads["stem.weight"].any()
        assert grads["head.bias"].any()

    def test_indivisible_dims_rejected(self):
        rng = np.random.default_rng(2)
        net = toy_net()
        x = sparse_input((7, 8, 4), 10, 2, rng)
        with pytest.raises(ShapeError):
            net.forward(x)

    def test_wrong_channels_rejected(self):
        rng = np.random.default_rng(3)
        net = toy_net()
        x = sparse_input((8, 8, 4), 10, 3, rng)
        with pytest.raises(ShapeError):
            net.forward(x)

    def test_eval_tape_keeps_no_encoder_unit_or_decoder_stage(self):
        rng = np.random.default_rng(4)
        net = toy_net()
        x = sparse_input((8, 8, 4), 25, 2, rng)
        _, tape = net.forward(x)
        assert tape["encoder"] == [] and tape["decoder"] == []
        _, tape = net.forward(x, training=True)
        assert len(tape["encoder"]) == len(net.encoder)
        assert len(tape["decoder"]) == len(net.decoder)

    def test_stale_cache(self):
        net = toy_net()
        with pytest.raises(StaleCache):
            net.backward({}, np.zeros((8, 8, 4)))

    def test_default_config_downsamples_4x(self):
        cfg = NetConfig()
        assert cfg.downsample_factor == 4
        assert cfg.latent_width == 64


def unfused_eval(net, visible, query=None):
    """The eval forward's logits from each layer's own forward: every
    batch norm by eval_batch_norm on its conv's output rows, then the
    ReLU, each stage's output laid out as its conv's."""
    x = skip = visible
    for _, conv, _, bn, residual in net.encoder:
        y, _ = conv.forward(x)
        f = eval_batch_norm(bn, y.feats)
        f = np.maximum(skip.feats + f if residual else f, 0.0)
        skip, x = x, replace(y, feats=f)
    x = replace(x, feats=x.feats.astype(network.DECODER_DTYPE))
    if query is None:
        supports = [None] * (len(net.decoder) + 1)
    else:
        supports = net._supports(query, visible.dims)
    for (_, deconv, _, bn), sites in zip(net.decoder, supports):
        y, _ = deconv.forward(x, sites)
        x = unrows(y, np.maximum(eval_batch_norm(bn, site_rows(y)), 0.0))
    y, _ = net.head.forward(x, supports[-1])
    if query is None:
        return y[0].astype(np.float64)
    logits = np.full(visible.dims, np.nan)
    logits[tuple(y.coords.T)] = y.feats[:, 0]
    return logits


def with_drawn_statistics(net, rng):
    """net with every batch norm's parameters and running statistics
    drawn, so an eval forward's normalization is not the identity."""
    for _, layer in net.named_layers():
        if layer.kind == "batch_norm":
            layer.gamma[:] = rng.uniform(0.5, 2.0, layer.ch)
            layer.beta[:] = rng.normal(0, 0.5, layer.ch)
            layer.running_mean[:] = rng.normal(0, 0.5, layer.ch)
            layer.running_var[:] = rng.uniform(0.2, 3.0, layer.ch)
    return net


def eval_forward_peak(net, x) -> int:
    tracemalloc.start()
    try:
        net.forward(x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestEvalEpilogue:
    """An eval forward runs each decoder stage's batch norm and ReLU on
    the deconv's phase buffers and hands the next layer the phases, which
    a deconv interleaves and the head reads as they are; its logits are
    the unfused forward's, bit for bit."""

    NETS = {
        "default": ((16, 32, 64), (16, 16, 8)),
        "one-stage": ((8,), (6, 5, 3)),
        "four-stage": ((4, 8, 8, 8), (16, 16, 8)),
        "anisotropic": ((16, 32, 64), (12, 8, 16)),
        "two-stage": ((4, 8), (2, 6, 4)),
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", NETS)
    def test_logits_equal_unfused(self, name, dtype, monkeypatch):
        monkeypatch.setattr(network, "DECODER_DTYPE", dtype)
        stages, dims = self.NETS[name]
        rng = np.random.default_rng(51)
        net = OccupancyNet(NetConfig(stage_channels=stages, seed=2))
        net = with_drawn_statistics(net, rng)
        x = sparse_input(dims, int(np.prod(dims)) // 6, 4, rng)
        pred, _ = net.forward(x)
        assert pred.logits.tobytes() == unfused_eval(net, x).tobytes()
        query = x.coords[::3]
        pred, _ = net.forward(x, query=query)
        ref = unfused_eval(net, x, query)
        assert pred.logits.tobytes() == ref.tobytes()

    def test_state_and_input_untouched(self):
        rng = np.random.default_rng(52)
        net = with_drawn_statistics(OccupancyNet(NetConfig()), rng)
        x = sparse_input((16, 16, 8), 300, 4, rng)
        coords, feats = x.coords.copy(), x.feats.copy()
        state = [(p, a.copy()) for p, a in net.parameters() + net.buffers()]
        net.forward(x)
        net.forward(x, query=x.coords[::2])
        assert x.coords.tobytes() == coords.tobytes()
        assert x.feats.tobytes() == feats.tobytes()
        for (path, before), (_, after) in zip(
            state, net.parameters() + net.buffers()
        ):
            assert after.tobytes() == before.tobytes(), path

    def test_peak_memory_of_the_default_net(self):
        # the unfused eval forward peaked at 14.4 MiB on this input, in
        # batch norm's two new buffers of deconv1's 4 MiB output.  The
        # fused one peaks at 12.3 MiB, inside deconv1, while it holds its
        # slab and its eight kept 16-channel phases; the head, whose eight
        # 27-tap products replace the phases it reads one by one, peaks
        # at 10.3 MiB.  A head that kept every phase beside its products
        # peaks at 14.6 MiB.
        rng = np.random.default_rng(46)
        net = OccupancyNet(NetConfig())
        x = sparse_input((64, 64, 16), 3000, 4, rng)
        net.forward(x)
        assert eval_forward_peak(net, x) < 13.0 * 2**20


def toy_problem(seed):
    """(net input, truth, query set) on an 8x8x4 grid."""
    rng = np.random.default_rng(seed)
    x = sparse_input((8, 8, 4), 30, 2, rng)
    geom = GridGeometry((0, 0, 0), (1, 1, 1), (8, 8, 4))
    truth = occupancy_of(random_grid(geom, 40, rng))
    return x, truth, build_query_set(truth, x.coords, QueryConfig())


class TestComposedGradients:
    def test_finite_differences_small(self, monkeypatch):
        """Composed net on an 8x8x4 grid vs central differences, with the
        decoder in float64: at float32, rounding swamps the difference
        quotient of parameters whose true gradient is about 0."""
        monkeypatch.setattr(network, "DECODER_DTYPE", np.float64)
        rng = np.random.default_rng(4)
        net = toy_net(seed=5)
        x = sparse_input((8, 8, 4), 30, 2, rng)
        geom = GridGeometry((0, 0, 0), (1, 1, 1), (8, 8, 4))
        truth_grid = random_grid(geom, 40, rng)
        truth = occupancy_of(truth_grid)
        query = build_query_set(truth, x.coords, QueryConfig())

        def loss_value():
            pred, _ = net.forward(x, training=True)
            return occupancy_loss(pred.logits, truth, query)[0]

        pred, tape = net.forward(x, training=True)
        loss, grad_logits = occupancy_loss(pred.logits, truth, query)
        grads = net.backward(tape, grad_logits)

        params = net.parameters()
        checked = 0
        for pi in rng.choice(len(params), size=8, replace=False):
            path, arr = params[pi]
            flat = arr.reshape(-1)
            for idx in rng.choice(arr.size, size=min(3, arr.size), replace=False):
                old = flat[idx]
                h = 1e-4
                flat[idx] = old + h
                lp = loss_value()
                flat[idx] = old - h
                lm = loss_value()
                flat[idx] = old
                fd = (lp - lm) / (2 * h)
                an = grads[path].reshape(-1)[idx]
                rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
                assert rel < 1e-4, f"{path}[{idx}]: fd={fd} analytic={an}"
                checked += 1
        assert checked >= 20

    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(5)
        net = toy_net()
        x = sparse_input((8, 8, 4), 20, 2, rng)
        _, tape = net.forward(x, training=True)
        grads = net.backward(tape, np.zeros((8, 8, 4)))
        for path, g in grads.items():
            assert not g.any(), path


class TestGradientContract:
    """backward hands out each layer's own gradient arrays, keyed and
    ordered as parameters(), zeros for parameters it did not reach, and
    no negative zero, so a batch's sum that starts from them is bitwise
    a sum from zeros."""

    @pytest.mark.parametrize("visible", [25, 0])  # 0: the encoder saw nothing
    def test_keys_in_order_and_zeros_where_nothing_reached(self, visible):
        rng = np.random.default_rng(7)
        net = toy_net()
        x = sparse_input((8, 8, 4), visible, 2, rng)
        _, tape = net.forward(x, training=True)
        grads = net.backward(tape, np.ones((8, 8, 4)))
        params = net.parameters()
        assert list(grads) == [path for path, _ in params]
        for path, arr in params:
            g = grads[path]
            assert g.dtype == np.float64 and g.shape == arr.shape, path
            assert not np.signbit(g[g == 0]).any(), path
            if not visible and not path.startswith(("deconv", "head")):
                assert not g.any(), path

    def test_a_layers_negative_zero_reads_positive(self, monkeypatch):
        """A layer's -0.0 leaves backward as +0.0, as 0.0 + -0.0 is."""
        net = toy_net()
        real = net.head.backward

        def negative_zero_bias(ctx, grad_out):
            grad_in, grads = real(ctx, grad_out)
            grads["bias"] = np.full_like(grads["bias"], -0.0)
            return grad_in, grads

        monkeypatch.setattr(net.head, "backward", negative_zero_bias)
        x = sparse_input((8, 8, 4), 25, 2, np.random.default_rng(8))
        _, tape = net.forward(x, training=True)
        grads = net.backward(tape, np.ones((8, 8, 4)))
        assert grads["head.bias"].tobytes() == bytes(8)


class TestDecoderPrecision:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_float32_decoder_tracks_float64(self, seed, monkeypatch):
        net = toy_net(seed=5)
        x, truth, query = toy_problem(seed)
        runs = {}
        for dtype in (np.float32, np.float64):
            monkeypatch.setattr(network, "DECODER_DTYPE", dtype)
            pred, tape = net.forward(x, training=True)
            _, grad_logits = occupancy_loss(pred.logits, truth, query)
            runs[dtype] = pred.logits, net.backward(tape, grad_logits)
        (logits32, g32), (logits64, g64) = runs[np.float32], runs[np.float64]
        err = np.abs(logits32 - logits64).max()
        assert err <= 1e-6 * np.abs(logits64).max()

        def norm(a):
            return float(np.linalg.norm(a))

        compared = 0
        for path, g in g64.items():
            assert g32[path].dtype == np.float64, path
            if norm(g) > 1e-12:
                assert norm(g32[path] - g) <= 1e-5 * norm(g), path
                compared += 1
        assert compared >= 6

    def test_logits_are_float64(self):
        x, _, _ = toy_problem(3)
        for training in (False, True):
            pred, _ = toy_net().forward(x, training=training)
            assert pred.logits.dtype == np.float64


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(6)
        net = toy_net(seed=7)
        # perturb state so it is not just the seeded init
        for _, arr in net.parameters():
            arr += rng.normal(0, 0.1, arr.shape)
        p = tmp_path / "ck.rmae"
        save_checkpoint(net, p)
        back = load_checkpoint(p)
        for (pa, a), (pb, b) in zip(net.parameters(), back.parameters()):
            assert pa == pb
            assert a.tobytes() == b.tobytes()
        for (pa, a), (pb, b) in zip(net.buffers(), back.buffers()):
            assert pa == pb
            assert a.tobytes() == b.tobytes()

    def test_same_net_same_bytes(self, tmp_path):
        net = toy_net(seed=8)
        p1 = tmp_path / "a.rmae"
        p2 = tmp_path / "b.rmae"
        save_checkpoint(net, p1)
        save_checkpoint(net, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.rmae"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(MalformedFile):
            load_checkpoint(p)

    def test_truncated(self, tmp_path):
        net = toy_net()
        p = tmp_path / "ck.rmae"
        save_checkpoint(net, p)
        (tmp_path / "trunc.rmae").write_bytes(p.read_bytes()[:100])
        with pytest.raises(MalformedFile):
            load_checkpoint(tmp_path / "trunc.rmae")


def test_visible_features_sorted(small_geom):
    rng = np.random.default_rng(9)
    grid = random_grid(small_geom, 50, rng)
    mask = rng.uniform(0, 1, 50) < 0.5
    vis = visible_features(grid, mask)
    assert len(vis) == mask.sum()
    assert np.array_equal(vis.coords, grid.coords[mask])
    assert vis.channel_width == 4


def test_default_layer_names_and_kinds():
    """Checkpoint paths and per-layer bench metrics are keyed by these."""
    sc, bn = "sparse_conv", "batch_norm"
    assert [
        (name, layer.kind)
        for name, layer in OccupancyNet(NetConfig()).named_layers()
    ] == [
        ("stem", sc),
        ("stem_bn", bn),
        ("block0.conv1", sc),
        ("block0.bn1", bn),
        ("block0.conv2", sc),
        ("block0.bn2", bn),
        ("down1", sc),
        ("down1_bn", bn),
        ("block1.conv1", sc),
        ("block1.bn1", bn),
        ("block1.conv2", sc),
        ("block1.bn2", bn),
        ("down2", sc),
        ("down2_bn", bn),
        ("block2.conv1", sc),
        ("block2.bn1", bn),
        ("block2.conv2", sc),
        ("block2.bn2", bn),
        ("deconv0", "dense_deconv"),
        ("deconv0_bn", bn),
        ("deconv1", "dense_deconv"),
        ("deconv1_bn", bn),
        ("head", "dense_conv"),
    ]


def empty_input(dims, cin):
    return SparseFeatureMap(dims, np.empty((0, 3), np.int64), np.empty((0, cin)))


def assert_grads_close(actual, expect, tol):
    """Each gradient within tol of its magnitude."""
    for path, g in expect.items():
        scale = np.abs(g).max()
        err = np.abs(actual[path] - g).max()
        assert err <= tol * max(scale, 1e-300), f"{path}: {err:.3g}"


class TestSparseDecode:
    """forward(query=...) decodes only the query cells and what they read,
    with each decoder batch norm over its decoded support."""

    @pytest.mark.parametrize("stages", [(2, 4), (2, 3, 4)])
    @pytest.mark.parametrize("empty", [False, True])
    def test_full_support_equals_dense(self, empty, stages, monkeypatch):
        monkeypatch.setattr(network, "DECODER_DTYPE", np.float64)
        net = toy_net(seed=5, stages=stages)
        x, truth, query = toy_problem(6)  # all_voxels: every cell
        if empty:
            x = empty_input(x.dims, x.channel_width)
        runs = []
        for q in (None, query):
            pred, tape = net.forward(x, training=True, query=q)
            _, grad_logits = occupancy_loss(pred.logits, truth, query)
            runs.append((pred.logits, tape["bn_stats"], net.backward(tape, grad_logits)))
        (dense, dense_stats, dense_grads), (sparse, sparse_stats, sparse_grads) = runs
        err = np.abs(sparse - dense).max()
        assert err <= 1e-12 * np.abs(dense).max()
        assert_grads_close(sparse_grads, dense_grads, 1e-12)
        for (bn_a, (mu_a, var_a)), (bn_b, (mu_b, var_b)) in zip(
            dense_stats, sparse_stats
        ):
            assert bn_a is bn_b
            np.testing.assert_allclose(mu_b, mu_a, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(var_b, var_a, rtol=1e-12, atol=1e-15)

    def test_logits_only_at_the_query(self):
        x, truth, _ = toy_problem(7)
        query = build_query_set(truth, x.coords, QueryConfig("sphere", 1.0))
        assert 0 < len(query) < truth.o.size
        net = toy_net(stages=(2, 3, 4))
        pred, _ = net.forward(x, training=True, query=query)
        at = np.zeros(truth.o.shape, dtype=bool)
        at[tuple(query.T)] = True
        assert pred.logits.dtype == np.float64
        assert np.isfinite(pred.logits[at]).all()
        assert np.isnan(pred.logits[~at]).all()

    def test_finite_differences_on_a_sphere_support(self, monkeypatch):
        monkeypatch.setattr(network, "DECODER_DTYPE", np.float64)
        rng = np.random.default_rng(8)
        net = toy_net(seed=9, stages=(2, 3, 4))
        x, truth, _ = toy_problem(8)
        query = build_query_set(truth, x.coords, QueryConfig("sphere", 1.0))
        assert len(query) < truth.o.size

        def loss_value():
            pred, _ = net.forward(x, training=True, query=query)
            return occupancy_loss(pred.logits, truth, query)[0]

        pred, tape = net.forward(x, training=True, query=query)
        _, grad_logits = occupancy_loss(pred.logits, truth, query)
        grads = net.backward(tape, grad_logits)
        checked = 0
        for path, arr in net.parameters():
            flat = arr.reshape(-1)
            for idx in rng.choice(arr.size, size=min(2, arr.size), replace=False):
                old = flat[idx]
                h = 1e-5
                flat[idx] = old + h
                lp = loss_value()
                flat[idx] = old - h
                lm = loss_value()
                flat[idx] = old
                fd = (lp - lm) / (2 * h)
                an = grads[path].reshape(-1)[idx]
                rel = abs(fd - an) / max(abs(fd), abs(an), 1e-8)
                assert rel < 1e-6, f"{path}[{idx}]: fd={fd} analytic={an}"
                checked += 1
        assert checked >= 20

    def test_empty_latent_with_a_query(self):
        net = toy_net()
        x = empty_input((8, 8, 4), 2)
        query = np.array([[0, 0, 0], [3, 4, 1], [7, 7, 3]])
        pred, tape = net.forward(x, training=True, query=query)
        assert np.isfinite(pred.logits[tuple(query.T)]).all()
        grad_logits = np.zeros((8, 8, 4))
        grad_logits[tuple(query.T)] = 1.0
        grads = net.backward(tape, grad_logits)
        assert not grads["stem.weight"].any()  # nothing reached the encoder
        assert not grads["deconv0.weight"].any()  # it read only zeros
        assert grads["head.bias"].any()
        assert all(np.isfinite(g).all() for g in grads.values())

    @pytest.mark.parametrize("mode", ["all_voxels", "sphere"])
    def test_one_stage_net(self, mode):
        """One stage has no deconv: the head reads the latent itself."""
        x, truth, _ = toy_problem(10)
        query = build_query_set(truth, x.coords, QueryConfig(mode, 1.0))
        at = np.zeros(truth.o.shape, dtype=bool)
        at[tuple(query.T)] = True
        assert at.all() == (mode == "all_voxels")
        net = toy_net(seed=3, stages=(4,))
        assert not net.decoder
        q = query if mode == "sphere" else None
        pred, tape = net.forward(x, training=True, query=q)
        assert pred.logits.shape == truth.o.shape
        assert np.isfinite(pred.logits[at]).all()
        assert np.isnan(pred.logits[~at]).all()
        _, grad_logits = occupancy_loss(pred.logits, truth, query)
        grads = net.backward(tape, grad_logits)
        assert grads.keys() == dict(net.parameters()).keys()
        assert all(np.isfinite(g).all() for g in grads.values())
        assert grads["head.weight"].any() and grads["stem.weight"].any()
        net.commit_batch_stats(tape["bn_stats"])
        full, _ = net.forward(x)
        assert np.isfinite(full.logits).all()
        # without decoder batch norms a query changes only what is computed
        train, _ = net.forward(x, training=True)
        np.testing.assert_allclose(
            pred.logits[at], train.logits[at], rtol=1e-5, atol=1e-6
        )

    def test_eval_mode_sparse_equals_dense_at_the_query(self):
        """Eval mode normalizes with the running statistics, so only the
        query cells differ: they are the dense logits there."""
        x, truth, _ = toy_problem(9)
        query = build_query_set(truth, x.coords, QueryConfig("sphere", 1.0))
        net = toy_net(seed=2, stages=(2, 3, 4))
        dense, _ = net.forward(x)
        sparse, _ = net.forward(x, query=query)
        at = tuple(query.T)
        np.testing.assert_allclose(sparse.logits[at], dense.logits[at], rtol=1e-5, atol=1e-6)
