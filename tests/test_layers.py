import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    dense_backward_oracle,
    down_sites_oracle,
    eval_batch_norm,
    interleaved,
    parity_views,
    phase_backward_oracle,
    phases_of,
    sparse_backward_oracle,
)
from rmae.errors import DegenerateBatch, ShapeError, StaleCache
from rmae.occupancy_net import NetConfig, OccupancyNet
from rmae.occupancy_net.layers import (
    OFFSETS3,
    BatchNorm,
    DenseConv,
    DenseDeconv,
    Phases,
    SparseDownConv,
    SparseFeatureMap,
    SubmanifoldConv,
    _kernel_map,
    _rulebook,
    _shift_slices,
)


def residual_add(a: SparseFeatureMap, b: SparseFeatureMap) -> SparseFeatureMap:
    """Elementwise sum of two maps sharing support and width: the
    reference for the skip connection of the network's residual blocks."""
    if a.dims != b.dims or a.feats.shape != b.feats.shape:
        raise ShapeError("residual operands must share support and width")
    if not np.array_equal(a.coords, b.coords):
        raise ShapeError("residual operands must share support")
    return SparseFeatureMap(a.dims, a.coords, a.feats + b.feats)


def random_sparse(dims, n, cin, rng) -> SparseFeatureMap:
    total = int(np.prod(dims))
    lin = rng.choice(total, size=min(n, total), replace=False)
    coords = np.column_stack(
        [
            lin // (dims[1] * dims[2]),
            (lin // dims[2]) % dims[1],
            lin % dims[2],
        ]
    ).astype(np.int64)
    order = np.lexsort((coords[:, 2], coords[:, 1], coords[:, 0]))
    coords = coords[order]
    return SparseFeatureMap(dims, coords, rng.normal(0, 1, (len(coords), cin)))


def sparse_touching_last_rows(dims, n, cin, rng) -> SparseFeatureMap:
    """A random map of up to n voxels, at least four, some on the last
    row of each axis and one in the far corner."""
    coords = random_sparse(dims, max(n, 4), cin, rng).coords
    for axis in range(3):
        coords[axis::4, axis] = dims[axis] - 1
    coords[3::4] = np.array(dims) - 1
    coords = np.unique(coords, axis=0)  # canonical order
    return SparseFeatureMap(dims, coords, rng.normal(0, 1, (len(coords), cin)))


def dense_of(x: SparseFeatureMap) -> np.ndarray:
    """The dense (C, X, Y, Z) tensor of x, zeros at absent sites."""
    dense = np.zeros((x.channel_width,) + tuple(x.dims), dtype=x.feats.dtype)
    dense[(slice(None),) + tuple(x.coords.T)] = x.feats.T
    return dense


def dense_forward(layer, x):
    """layer.forward on the (C, X, Y, Z) array x, held as stride-1 Phases:
    the output interleaved, and the ctx."""
    out, ctx = layer.forward(phases_of(x, 1))
    return interleaved(out), ctx


def dense_backward(layer, ctx, grad_out):
    """layer.backward after dense_forward, with the array grad_out held as
    the output's Phases: the input gradient interleaved, and the parameter
    gradients."""
    grad_in, grads = layer.backward(ctx, phases_of(grad_out, len(layer.axis_taps)))
    return interleaved(grad_in), grads


def shift_dense(dense, off):
    """shifted[v] = dense[v + off], zero padded."""
    out = np.zeros_like(dense)
    src = []
    dst = []
    for o, dim in zip(off, dense.shape[1:]):
        src.append(slice(max(0, o), dim + min(0, o)))
        dst.append(slice(max(0, -o), dim + min(0, -o)))
    out[:, dst[0], dst[1], dst[2]] = dense[:, src[0], src[1], src[2]]
    return out


def dense_conv_at_sites(dense_in, sites, weight):
    """Stride-1 3x3x3 convolution evaluated at the given sites via dense
    shifts.  Taps accumulate in the same canonical order and through the
    same (rows, cin) @ (cin, cout) contraction the sparse path uses, so a
    correct implementation must match bit for bit."""
    out = np.zeros((len(sites), weight.shape[2]))
    for t, off in enumerate(OFFSETS3):
        shifted = shift_dense(dense_in, off)
        rows = shifted[:, sites[:, 0], sites[:, 1], sites[:, 2]].T
        out += rows @ weight[t]
    return out


class TestSubmanifoldConv:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = random_sparse((6, 6, 6), 30, 3, rng)
        layer = SubmanifoldConv(3, 3, rng)
        layer.weight[:] = 0.0
        center = OFFSETS3.index((0, 0, 0))
        layer.weight[center] = np.eye(3)
        out, _ = layer.forward(x)
        assert np.array_equal(out.feats, x.feats)
        assert np.array_equal(out.coords, x.coords)

    def test_dense_oracle_exact(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            x = random_sparse((8, 8, 8), 60, 4, rng)
            layer = SubmanifoldConv(4, 5, rng)
            out, _ = layer.forward(x)
            ref = dense_conv_at_sites(dense_of(x), x.coords, layer.weight)
            _, _, gathers = per_tap_submanifold(layer, x)
            assert_equal_unless_one_pair_tap(out.feats, ref, gathers)

    def test_single_voxel(self):
        rng = np.random.default_rng(2)
        coords = np.array([[3, 3, 3]], dtype=np.int64)
        x = SparseFeatureMap((8, 8, 8), coords, rng.normal(0, 1, (1, 2)))
        layer = SubmanifoldConv(2, 3, rng)
        out, _ = layer.forward(x)
        center = OFFSETS3.index((0, 0, 0))
        expect = x.feats[0] @ layer.weight[center]
        np.testing.assert_allclose(out.feats[0], expect, rtol=1e-15)

    def test_empty_input(self):
        rng = np.random.default_rng(3)
        x = SparseFeatureMap(
            (4, 4, 4), np.empty((0, 3), np.int64), np.empty((0, 2))
        )
        out, _ = layer_forward_empty = SubmanifoldConv(2, 3, rng).forward(x)
        assert len(out) == 0
        assert out.feats.shape == (0, 3)

    def test_width_mismatch(self):
        rng = np.random.default_rng(4)
        x = random_sparse((4, 4, 4), 5, 3, rng)
        with pytest.raises(ShapeError):
            SubmanifoldConv(2, 3, rng).forward(x)


class TestSparseDownConv:
    def test_support_rule(self):
        rng = np.random.default_rng(5)
        x = random_sparse((8, 8, 8), 40, 3, rng)
        layer = SparseDownConv(3, 4, rng)
        out, _ = layer.forward(x)
        assert out.dims == (4, 4, 4)
        occupied = dense_of(x).any(axis=0)
        expect = set()
        for u in np.ndindex(4, 4, 4):
            for k in np.ndindex(3, 3, 3):
                v = tuple(2 * np.asarray(u) - 1 + np.asarray(k))
                if all(0 <= v[a] < 8 for a in range(3)) and occupied[v]:
                    expect.add(u)
                    break
        assert set(map(tuple, out.coords)) == expect

    def test_dense_oracle_exact(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            x = random_sparse((8, 8, 6), 50, 3, rng)
            layer = SparseDownConv(3, 4, rng)
            out, _ = layer.forward(x)
            dense = dense_of(x)
            # oracle: out[u] = sum_k W[k] . in[2u - 1 + k], with the
            # per-tap neighbor rows gathered brute-force from the dense grid
            ref = np.zeros((len(out.coords), 4))
            for t, off in enumerate(OFFSETS3):
                k = np.asarray(off) + 1
                rows = np.zeros((len(out.coords), 3))
                for i, u in enumerate(out.coords):
                    v = 2 * np.asarray(u) - 1 + k
                    if all(0 <= v[a] < x.dims[a] for a in range(3)):
                        rows[i] = dense[:, v[0], v[1], v[2]]
                ref += rows @ layer.weight[t]
            _, _, gathers = per_tap_down(layer, x)
            assert_equal_unless_one_pair_tap(out.feats, ref, gathers)

    def test_odd_dims_round_up(self):
        rng = np.random.default_rng(7)
        x = random_sparse((7, 5, 3), 20, 2, rng)
        out, _ = SparseDownConv(2, 2, rng).forward(x)
        assert out.dims == (4, 3, 2)

    @pytest.mark.parametrize(
        "dims", [(8, 8, 6), (7, 5, 3), (12, 12, 4), (6, 6, 2), (1, 2, 3)]
    )
    def test_sites_against_every_voxel_offset_pair(self, dims):
        rng = np.random.default_rng(8)
        x = sparse_touching_last_rows(dims, 30, 2, rng)
        out, _ = SparseDownConv(2, 2, rng).forward(x)
        assert out.coords.dtype == np.int64
        assert np.array_equal(out.coords, down_sites_oracle(x.coords, dims))

    def test_three_stage_net_down_to_odd_coarse_dims(self):
        rng = np.random.default_rng(9)
        net = OccupancyNet(NetConfig(stage_channels=(4, 8, 8)))
        width = net.config.in_channels
        x = sparse_touching_last_rows((12, 12, 4), 40, width, rng)
        _, tape = net.forward(x, training=True)
        maps = [ctx[0] for ctx, _ in tape["encoder"]] + [tape["latent"]]
        levels = {m.dims: m.coords for m in maps}
        assert list(levels) == [(12, 12, 4), (6, 6, 2), (3, 3, 1)]
        for fine, coarse in zip(levels, list(levels)[1:]):
            expect = down_sites_oracle(levels[fine], fine)
            assert np.array_equal(levels[coarse], expect)


# --- per-tap references for the sparse convs --------------------------------
#
# The sparse convs' earlier forward: per tap, a neighbor search through a
# dense index volume, a zero-filled full-height neighbor matrix and one
# (rows, C_in) @ (C_in, C_out) GEMM, added onto zeros in tap order; and
# its backward over the recorded (input rows, output rows) pairs.  The
# layers multiply only the present rows and add them in the same order,
# so they agree bit for bit, except where a tap has a single present
# pair: numpy then runs the (1, C_in) @ (C_in, C_out) product as a
# matrix-vector product, which may round differently in the last place
# from the same row of the full-height GEMM.


def _index_volume(dims, coords) -> np.ndarray:
    vol = np.full(dims, -1, dtype=np.int64)
    if len(coords):
        vol[coords[:, 0], coords[:, 1], coords[:, 2]] = np.arange(
            len(coords), dtype=np.int64
        )
    return vol


def per_tap_submanifold(layer, x):
    """(output feats, output coords, per-tap (in rows, out rows))."""
    n = len(x)
    out = np.zeros((n, layer.out_ch))
    gathers = []
    if n:
        vol = _index_volume(x.dims, x.coords)
        dims = np.asarray(x.dims)
        for t, off in enumerate(OFFSETS3):
            nb = x.coords + np.asarray(off)
            inside = ((nb >= 0) & (nb < dims)).all(axis=1)
            out_rows = np.flatnonzero(inside)
            in_rows = vol[nb[inside, 0], nb[inside, 1], nb[inside, 2]]
            present = in_rows >= 0
            out_rows = out_rows[present]
            in_rows = in_rows[present]
            rows = np.zeros((n, layer.in_ch))
            rows[out_rows] = x.feats[in_rows]
            out += rows @ layer.weight[t]
            gathers.append((in_rows, out_rows))
    return out, x.coords, gathers


def per_tap_down(layer, x):
    """(output feats, output coords, per-tap (in rows, out rows))."""
    odims = layer.out_dims(x.dims)
    odims_arr = np.asarray(odims)
    taps = []
    targets = []
    for t, off in enumerate(OFFSETS3):
        k = np.asarray(off) + 1
        num = x.coords - k + 1
        even = (num % 2 == 0).all(axis=1)
        u = num // 2
        ok = even & ((u >= 0) & (u < odims_arr)).all(axis=1)
        taps.append((np.flatnonzero(ok), u[ok]))
        if ok.any():
            targets.append(u[ok])
    if targets:
        allu = np.concatenate(targets, axis=0)
        lin = (allu[:, 0] * odims[1] + allu[:, 1]) * odims[2] + allu[:, 2]
        ulin = np.unique(lin)
        out_coords = np.column_stack(
            [
                ulin // (odims[1] * odims[2]),
                (ulin // odims[2]) % odims[1],
                ulin % odims[2],
            ]
        ).astype(np.int64)
    else:
        out_coords = np.empty((0, 3), dtype=np.int64)
    m = len(out_coords)
    out = np.zeros((m, layer.out_ch))
    ovol = _index_volume(odims, out_coords)
    gathers = []
    for t, (in_rows, u) in enumerate(taps):
        out_rows = (
            ovol[u[:, 0], u[:, 1], u[:, 2]]
            if len(in_rows)
            else np.empty(0, dtype=np.int64)
        )
        if m:
            rows = np.zeros((m, layer.in_ch))
            rows[out_rows] = x.feats[in_rows]
            out += rows @ layer.weight[t]
        gathers.append((in_rows, out_rows))
    return out, out_coords, gathers


def per_tap_sparse_backward(layer, x, gathers, grad_out):
    grad_in = np.zeros_like(x.feats)
    grad_w = np.zeros_like(layer.weight)
    for t, (in_rows, out_rows) in enumerate(gathers):
        if len(out_rows):
            g = grad_out[out_rows]
            grad_in[in_rows] += g @ layer.weight[t].T
            grad_w[t] = x.feats[in_rows].T @ g
    return grad_in, grad_w


PER_TAP_SPARSE = {
    SubmanifoldConv: per_tap_submanifold,
    SparseDownConv: per_tap_down,
}


def assert_bitwise(actual, expect):
    assert actual.shape == expect.shape and actual.dtype == expect.dtype
    assert actual.tobytes() == expect.tobytes()


def assert_rel_close(actual, expect, tol=1e-12):
    """Max abs difference within tol of the reference's max magnitude."""
    assert actual.shape == expect.shape
    scale = max(float(np.abs(expect).max()), 1e-300)
    err = float(np.abs(actual - expect).max()) / scale
    assert err <= tol, f"relative error {err:.3g} > {tol:g}"


def assert_equal_unless_one_pair_tap(actual, expect, gathers) -> bool:
    """A sparse forward equals its full-height reference bit for bit, except
    that a row written by a tap with exactly one present pair may differ
    within 1e-14 relative (see above); returns whether every row matched
    bit for bit."""
    assert actual.shape == expect.shape and actual.dtype == expect.dtype
    word = np.dtype(f"u{actual.itemsize}")
    differs = (
        np.ascontiguousarray(actual).view(word)
        != np.ascontiguousarray(expect).view(word)
    ).any(axis=1)
    if not differs.any():
        return True
    one_pair = np.zeros(len(actual), dtype=bool)
    for _, out_rows in gathers:
        if len(out_rows) == 1:
            one_pair[out_rows] = True
    assert one_pair[differs].all(), "a row no one-pair tap writes differs"
    assert_rel_close(actual[differs], expect[differs], tol=1e-14)
    return False


def check_sparse_against_per_tap(layer, x, rng):
    """Forward and backward of layer on x equal the per-tap reference (the
    forward as assert_equal_unless_one_pair_tap states, the backward bit
    for bit), and the ctx holds the reference's per-tap pairs; returns the
    forward's output and whether its comparison was bitwise."""
    out, ctx = layer.forward(x)
    ref, ref_coords, gathers = PER_TAP_SPARSE[type(layer)](layer, x)
    assert_bitwise(out.coords, ref_coords)
    bitwise = assert_equal_unless_one_pair_tap(out.feats, ref, gathers)
    # the submanifold reference records no tap for an empty input
    none = (np.empty(0, np.int64),) * 2
    assert len(ctx[1]) == 27
    for (out_rows, in_rows), (ref_in, ref_out) in zip(
        ctx[1], gathers or [none] * 27
    ):
        assert_bitwise(out_rows, ref_out)
        assert_bitwise(in_rows, ref_in)
    probe = rng.normal(0, 1, ref.shape)
    grad_in, grads = layer.backward(ctx, probe)
    ref_in, ref_w = per_tap_sparse_backward(layer, x, gathers, probe)
    assert grads.keys() == {"weight"}
    assert_bitwise(grad_in, ref_in)
    assert_bitwise(grads["weight"], ref_w)
    return out, bitwise


class TestSparseAgainstPerTap:
    @pytest.mark.parametrize("cls", [SubmanifoldConv, SparseDownConv])
    @pytest.mark.parametrize(
        "cin, cout, dims, n",
        [  # the default net's level widths, on its level grids
            (4, 16, (64, 64, 16), 2000),
            (16, 16, (64, 64, 16), 2000),
            (16, 32, (64, 64, 16), 2000),
            (32, 32, (32, 32, 8), 800),
            (32, 64, (32, 32, 8), 800),
            (64, 64, (16, 16, 4), 300),
        ],
    )
    def test_default_widths(self, cls, cin, cout, dims, n):
        rng = np.random.default_rng(40)
        layer = cls(cin, cout, rng)
        x = random_sparse(dims, n, cin, rng)
        _, bitwise = check_sparse_against_per_tap(layer, x, rng)
        assert bitwise

    @pytest.mark.parametrize("cls", [SubmanifoldConv, SparseDownConv])
    @pytest.mark.parametrize(
        "dims, n", [((4, 4, 4), 0), ((8, 8, 8), 1), ((7, 5, 3), 40)]
    )
    def test_empty_single_and_odd(self, cls, dims, n):
        rng = np.random.default_rng(41)
        layer = cls(3, 5, rng)
        x = random_sparse(dims, n, 3, rng)
        _, bitwise = check_sparse_against_per_tap(layer, x, rng)
        # only these two inputs' down convs have a differing one-pair row
        if cls is SubmanifoldConv or n not in (1, 40):
            assert bitwise

    @pytest.mark.parametrize("cls", [SubmanifoldConv, SparseDownConv])
    def test_map_carrying_an_earlier_convs_table(self, cls):
        rng = np.random.default_rng(42)
        first = SubmanifoldConv(3, 4, rng)
        y, _ = first.forward(random_sparse((9, 8, 6), 150, 3, rng))
        assert y.rulebook is not None
        x = SparseFeatureMap(y.dims, y.coords, np.tanh(y.feats), y.rulebook)
        layer = cls(4, 6, rng)
        out, bitwise = check_sparse_against_per_tap(layer, x, rng)
        assert bitwise
        if cls is SubmanifoldConv:
            assert out.rulebook is y.rulebook
        else:  # its rulebook reads the finer map, so its output has none
            assert out.rulebook is None

    def test_one_table_per_level_in_the_default_net(self):
        """In a training forward every submanifold conv at one resolution
        reads the same rulebook object, which its ctx holds and its output
        map carries; each down conv builds its own, so the default net
        builds five."""
        rng = np.random.default_rng(43)
        net = OccupancyNet(NetConfig())
        x = random_sparse((64, 64, 16), 1500, 4, rng)
        _, tape = net.forward(x, training=True)
        # each unit's output map: the next unit's input, and the latent
        inputs = [c_conv[0] for c_conv, _ in tape["encoder"]]
        outputs = inputs[1:] + [tape["latent"]]
        rulebooks = {}
        built = set()
        for (name, conv, *_), (c_conv, _), y in zip(
            net.encoder, tape["encoder"], outputs
        ):
            built.add(id(c_conv[1]))
            if isinstance(conv, SubmanifoldConv):
                level = "0" if name == "stem" else name[len("block")]
                rulebooks.setdefault(level, set()).update(
                    {id(c_conv[1]), id(y.rulebook)}
                )
            else:
                assert y.rulebook is None
        assert sorted(rulebooks) == ["0", "1", "2"]
        assert all(len(ids) == 1 for ids in rulebooks.values())
        assert len(set.union(*rulebooks.values())) == 3
        assert len(built) == 5


def one_gemm_forward(layer, x, table):
    """The sparse conv forward as a single batched GEMM over all 27 taps,
    full height, zero rows where a neighbour is absent."""
    padded = np.concatenate([x.feats, np.zeros((1, layer.in_ch))])
    out = np.zeros((table.shape[1], layer.out_ch))
    for product in np.matmul(padded[table], layer.weight):
        out += product
    return out


def peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSparseForwardMemory:
    def test_peak_memory_under_half_of_one_batched_gemm(self):
        rng = np.random.default_rng(45)
        layer = SubmanifoldConv(16, 16, rng)
        x = random_sparse((32, 32, 16), 3000, 16, rng)
        table = _kernel_map(x.dims, x.coords, x.coords)
        pairs = _rulebook(x.dims, x.coords, x.coords)
        x = SparseFeatureMap(x.dims, x.coords, x.feats, pairs)
        per_tap = peak_bytes(lambda: layer.forward(x))
        one_gemm = peak_bytes(lambda: one_gemm_forward(layer, x, table))
        assert per_tap < one_gemm / 2


def channel_major_stats(x: np.ndarray):
    """(mean, var, deviations) of an (N, C) matrix as a training batch
    norm takes them: on the channel-major copy x.T, per-channel pairwise
    row sums, the variance two-pass over the (C, N) deviations."""
    xt = x.T.copy()
    n = x.shape[0]
    mu = xt.sum(axis=1) / n
    dev = xt - mu[:, None]
    return mu, np.square(dev).sum(axis=1) / n, dev


def random_running_bn(ch, rng) -> BatchNorm:
    """A BatchNorm whose parameters and running statistics are drawn."""
    bn = BatchNorm(ch)
    bn.gamma[:] = rng.uniform(0.5, 2.0, ch)
    bn.beta[:] = rng.normal(0, 1, ch)
    bn.running_mean[:] = rng.normal(0, 1, ch)
    bn.running_var[:] = rng.uniform(0.2, 3.0, ch)
    return bn


class TestBatchNorm:
    def test_already_normalized_passthrough(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 1, (4000, 3))
        x = (x - x.mean(0)) / x.std(0)
        bn = BatchNorm(3)
        out, _ = bn.forward(x, training=True)
        # eps=1e-5 inside the sqrt shrinks values by ~5e-7 per unit
        np.testing.assert_allclose(out, x, atol=1e-5, rtol=1e-5)

    def test_constant_input_gives_beta(self):
        bn = BatchNorm(2)
        bn.beta[:] = [1.5, -2.0]
        x = np.full((10, 2), 7.0)
        out, _ = bn.forward(x, training=True)
        np.testing.assert_allclose(out, np.tile(bn.beta, (10, 1)), atol=1e-12)

    def test_moment_oracle(self):
        rng = np.random.default_rng(9)
        bn = BatchNorm(4)
        bn.gamma[:] = rng.uniform(0.5, 2.0, 4)
        bn.beta[:] = rng.normal(0, 1, 4)
        x = rng.normal(3.0, 2.0, (5000, 4))
        out, _ = bn.forward(x, training=True)
        np.testing.assert_allclose(out.mean(0), bn.beta, atol=1e-4)
        np.testing.assert_allclose(out.var(0), bn.gamma**2, rtol=1e-4)

    def test_running_stats_update_and_eval(self):
        rng = np.random.default_rng(10)
        bn = BatchNorm(2, momentum=0.1)
        x = rng.normal(5.0, 3.0, (1000, 2))
        _, (_, _, stats) = bn.forward(x, training=True)
        bn.commit(stats)
        np.testing.assert_allclose(
            bn.running_mean, 0.9 * 0.0 + 0.1 * x.mean(0), rtol=1e-12
        )
        np.testing.assert_allclose(
            bn.running_var, 0.9 * 1.0 + 0.1 * x.var(0), rtol=1e-12
        )
        y = bn.eval_inplace(x[:3].copy())
        assert y.tobytes() == eval_batch_norm(bn, x[:3]).tobytes()
        expect = (x[:3] - bn.running_mean) / np.sqrt(bn.running_var + bn.eps)
        np.testing.assert_allclose(y, expect, rtol=1e-12)

    def test_deferred_commit_matches_in_place_update(self):
        """Committing each pass's statistics afterwards, in pass order,
        gives the bytes of updating the running statistics inside every
        training forward."""
        rng = np.random.default_rng(30)
        xs = [rng.normal(1.0, 2.0, (n, 4)) for n in (37, 500, 3)]
        bn = BatchNorm(4, momentum=0.3)
        mean, var = bn.running_mean.copy(), bn.running_var.copy()
        pending = []
        for x in xs:
            _, (_, _, stats) = bn.forward(x, training=True)
            pending.append(stats)
            mu, sigma2, _ = channel_major_stats(x)
            mean += 0.3 * (mu - mean)
            var += 0.3 * (sigma2 - var)
        for stats in pending:
            bn.commit(stats)
        assert bn.running_mean.tobytes() == mean.tobytes()
        assert bn.running_var.tobytes() == var.tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_textbook_expressions_bitwise(self, order):
        """forward and backward form every value with the operations of
        the plain channel-major expressions on x.T, in place, so the bits
        agree; F order is the decoder's (N, C) view of a (C, X, Y, Z)
        tensor, whose transpose is C-contiguous, so it also shows that
        neither pass writes over its input."""
        rng = np.random.default_rng(31)
        bn = BatchNorm(3)
        bn.gamma[:] = rng.uniform(0.5, 2.0, 3)
        bn.beta[:] = rng.normal(0, 1, 3)
        bn.running_mean[:] = rng.normal(0, 1, 3)
        bn.running_var[:] = rng.uniform(0.5, 2.0, 3)
        x = np.asarray(rng.normal(1.0, 2.0, (20000, 3)), order=order)
        probe = np.asarray(rng.normal(0, 1, x.shape), order=order)
        before = (x.copy(), probe.copy())
        out, ctx = bn.forward(x, training=True)
        grad_in, grads = bn.backward(ctx, probe)
        assert np.array_equal(x, before[0])  # inputs are left alone
        assert np.array_equal(probe, before[1])

        _, var, dev = channel_major_stats(x)
        ivar = 1.0 / np.sqrt(var + bn.eps)
        gain = bn.gamma * ivar
        g = probe.T.copy()
        n = x.shape[0]
        grad_beta = g.sum(axis=1)
        grad_gamma = (g * dev).sum(axis=1) * ivar  # xhat = dev * ivar
        # grad_in = ivar / n * (n * dxhat - dxhat.sum(0)
        #                       - xhat * (dxhat * xhat).sum(0)),
        # dxhat = probe * gamma, per channel
        slope = (gain / n * grad_gamma * ivar)[:, None]
        shift = (gain / n * grad_beta)[:, None]
        expect_in = g * gain[:, None] - dev * slope - shift
        expect_out = dev * gain[:, None] + bn.beta[:, None]
        assert out.tobytes() == expect_out.T.tobytes()
        assert grad_in.tobytes() == expect_in.T.tobytes()
        assert grads["gamma"].tobytes() == grad_gamma.tobytes()
        assert grads["beta"].tobytes() == grad_beta.tobytes()

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize(
        "stride, dims", [(2, (6, 4, 10)), (2, (2, 2, 2)), (1, (3, 5, 2))]
    )
    def test_phases_equal_the_interleaved_rows(self, stride, dims, dtype, tol):
        """Over Phases, forward and backward leave the pad slots out of
        every sum and agree with the (sites, C) rows of the tensor they
        hold, up to the order of the sums; forward writes the deviations
        over its input's buffers, and every pad slot it hands on is zero."""
        rng = np.random.default_rng(34)
        bn = random_running_bn(3, rng)
        x = rng.normal(1.0, 2.0, (3,) + dims).astype(dtype)
        probe = rng.normal(0, 1, x.shape).astype(dtype)
        ref, ref_ctx = bn.forward(x.reshape(3, -1).T, training=True)
        ref_stats = ref_ctx[2]
        ref_in, ref_grads = bn.backward(ref_ctx, probe.reshape(3, -1).T)
        out, ctx = bn.forward(phases_of(x, stride), training=True)
        assert isinstance(out, Phases) and out.stride == stride
        assert out.data[0].dtype == dtype
        for stat, ref_stat in zip(ctx[2], ref_stats):
            assert stat.dtype == np.float64
            np.testing.assert_allclose(stat, ref_stat, rtol=tol, atol=tol)
        grad_in, grads = bn.backward(ctx, phases_of(probe, stride))
        assert ctx == []
        for actual, expect in ((out, ref), (grad_in, ref_in)):
            assert_rel_close(interleaved(actual), expect.T.reshape(x.shape), tol)
        assert grads.keys() == ref_grads.keys()
        for name, ref_g in ref_grads.items():
            assert grads[name].dtype == np.float64, name
            assert_rel_close(grads[name], ref_g, tol)

    def test_a_map_equals_its_feats_matrix_bitwise(self):
        """Over a SparseFeatureMap, forward and backward give the bytes of
        the same passes over its feats matrix, as maps with its coords,
        dims and rulebook, and leave the caller's rows alone."""
        rng = np.random.default_rng(35)
        bn = random_running_bn(3, rng)
        coords = np.argwhere(rng.uniform(size=(6, 4, 5)) < 0.4)
        feats = rng.normal(1.0, 2.0, (len(coords), 3)).astype(np.float32)
        x = SparseFeatureMap((6, 4, 5), coords, feats, rulebook=[])
        probe = rng.normal(0, 1, feats.shape).astype(np.float32)
        before = feats.copy(), probe.copy()
        ref, ref_ctx = bn.forward(feats, training=True)
        ref_stats = ref_ctx[2]
        ref_in, ref_grads = bn.backward(ref_ctx, probe)
        out, ctx = bn.forward(x, training=True)
        for stat, ref_stat in zip(ctx[2], ref_stats):
            assert stat.tobytes() == ref_stat.tobytes()
        grad_in, grads = bn.backward(ctx, replace(x, feats=probe))
        for actual, expect in ((out, ref), (grad_in, ref_in)):
            assert isinstance(actual, SparseFeatureMap)
            assert actual.dims == x.dims and actual.coords is coords
            assert actual.rulebook is x.rulebook
            assert actual.feats.tobytes() == expect.tobytes()
        assert feats.tobytes() == before[0].tobytes()
        assert probe.tobytes() == before[1].tobytes()
        assert grads.keys() == ref_grads.keys()
        for name, ref_g in ref_grads.items():
            assert grads[name].tobytes() == ref_g.tobytes(), name

    def test_backward_consumes_ctx(self):
        rng = np.random.default_rng(33)
        bn = BatchNorm(3)
        x = rng.normal(0, 1, (50, 3))
        _, ctx = bn.forward(x, training=True)
        bn.backward(ctx, np.ones(x.shape))
        assert ctx == []
        with pytest.raises(StaleCache):
            bn.backward(ctx, np.ones(x.shape))

    def test_degenerate_batch(self):
        bn = BatchNorm(2)
        with pytest.raises(DegenerateBatch):
            bn.forward(np.empty((0, 2)), training=True)
        assert bn.eval_inplace(np.empty((0, 2))).shape == (0, 2)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_eval_inplace_is_textbook_expression(self, order, dtype):
        rng = np.random.default_rng(47)
        bn = random_running_bn(5, rng)
        x = np.asarray(rng.normal(1.0, 3.0, (300, 5)), dtype, order=order)
        ref = eval_batch_norm(bn, x)
        before = [a.copy() for a in bn.params().values()]
        before += [a.copy() for a in bn.buffers().values()]
        out = bn.eval_inplace(x)
        assert out is x and out.dtype == dtype
        assert out.tobytes() == ref.tobytes()
        after = list(bn.params().values()) + list(bn.buffers().values())
        for a, b in zip(after, before):
            assert a.tobytes() == b.tobytes()

    def test_eval_inplace_checks_width(self):
        with pytest.raises(ShapeError):
            BatchNorm(3).eval_inplace(np.zeros((4, 2)))

    def test_eval_forward_is_eval_inplace(self):
        """An eval forward overwrites x with eval_inplace's output and
        returns no ctx, so it serves no backward."""
        rng = np.random.default_rng(53)
        bn = random_running_bn(4, rng)
        x = rng.normal(1.0, 3.0, (100, 4))
        ref = eval_batch_norm(bn, x)
        out, ctx = bn.forward(x, training=False)
        assert out is x and ctx is None
        assert out.tobytes() == ref.tobytes()
        with pytest.raises(StaleCache):
            bn.backward(ctx, np.ones(x.shape))


class TestReluResidual:
    def test_residual_identity(self):
        rng = np.random.default_rng(11)
        x = random_sparse((4, 4, 4), 10, 3, rng)
        zero = SparseFeatureMap(x.dims, x.coords, np.zeros_like(x.feats))
        out = residual_add(x, zero)
        assert np.array_equal(out.feats, x.feats)

    def test_relu_residual_scalar_oracle(self):
        rng = np.random.default_rng(12)
        x = random_sparse((4, 4, 4), 12, 2, rng)
        y = SparseFeatureMap(x.dims, x.coords, rng.normal(0, 1, x.feats.shape))
        out = np.maximum(residual_add(x, y).feats, 0.0)
        expect = np.array(
            [
                [max(0.0, a + b) for a, b in zip(ra, rb)]
                for ra, rb in zip(x.feats, y.feats)
            ]
        )
        np.testing.assert_allclose(out, expect, rtol=0, atol=0)

    def test_support_mismatch(self):
        rng = np.random.default_rng(13)
        x = random_sparse((4, 4, 4), 10, 3, rng)
        y = random_sparse((4, 4, 4), 9, 3, rng)
        with pytest.raises(ShapeError):
            residual_add(x, y)


def dense_strided_conv_adjoint(y, weight):
    """Independent adjoint of DenseDeconv: stride-2 kernel-4 pad-1 dense
    convolution, out[p] = sum_k W[k]^T . y[2p + k - 1]."""
    cin = weight.shape[3]
    _, qx, qy, qz = y.shape
    px, py, pz = qx // 2, qy // 2, qz // 2
    out = np.zeros((cin, px, py, pz))
    for kx, ky, kz in np.ndindex(4, 4, 4):
        for p in np.ndindex(px, py, pz):
            q = (
                2 * p[0] + kx - 1,
                2 * p[1] + ky - 1,
                2 * p[2] + kz - 1,
            )
            if all(0 <= q[a] < y.shape[1 + a] for a in range(3)):
                out[(slice(None),) + p] += (
                    weight[kx, ky, kz] @ y[:, q[0], q[1], q[2]]
                )
    return out


class TestDenseDeconv:
    def test_kernel_stamp(self):
        rng = np.random.default_rng(14)
        layer = DenseDeconv(1, 1, rng)
        x = np.zeros((1, 3, 3, 3))
        x[0, 1, 1, 1] = 1.0
        out, _ = dense_forward(layer, x)
        assert out.shape == (1, 6, 6, 6)
        # input p=1 writes W[k] at q = 2 + k - 1 = k + 1
        for kx, ky, kz in np.ndindex(4, 4, 4):
            assert out[0, kx + 1, ky + 1, kz + 1] == pytest.approx(
                layer.weight[kx, ky, kz, 0, 0], rel=1e-15
            )

    def test_output_doubles_dims(self):
        rng = np.random.default_rng(15)
        layer = DenseDeconv(2, 3, rng)
        out, _ = dense_forward(layer, rng.normal(0, 1, (2, 5, 4, 3)))
        assert out.shape == (3, 10, 8, 6)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            layer = DenseDeconv(3, 2, rng)
            x = rng.normal(0, 1, (3, 4, 3, 2))
            y = rng.normal(0, 1, (2, 8, 6, 4))
            lhs = float((dense_forward(layer, x)[0] * y).sum())
            rhs = float((x * dense_strided_conv_adjoint(y, layer.weight)).sum())
            assert lhs == pytest.approx(rhs, abs=1e-8)


class TestDenseConv:
    def test_shape_and_identity(self):
        rng = np.random.default_rng(17)
        layer = DenseConv(2, 1, rng)
        out, _ = dense_forward(layer, rng.normal(0, 1, (2, 5, 4, 3)))
        assert out.shape == (1, 5, 4, 3)

    def test_dense_oracle(self):
        rng = np.random.default_rng(18)
        layer = DenseConv(3, 2, rng)
        layer.bias[:] = rng.normal(0, 1, 2)
        x = rng.normal(0, 1, (3, 6, 5, 4))
        out, _ = dense_forward(layer, x)
        # brute force via zero-padded gather
        ref = np.zeros_like(out)
        for p in np.ndindex(6, 5, 4):
            acc = layer.bias.copy()
            for kx, ky, kz in np.ndindex(3, 3, 3):
                q = (p[0] + kx - 1, p[1] + ky - 1, p[2] + kz - 1)
                if all(0 <= q[a] < x.shape[1 + a] for a in range(3)):
                    acc = acc + x[:, q[0], q[1], q[2]] @ layer.weight[kx, ky, kz]
            ref[(slice(None),) + p] = acc
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-14)


# --- per-tap references for the dense layers ---------------------------------
#
# One tensordot per kernel tap over strided slabs: slow, but a direct reading
# of each layer's definition.  The layers sum in a different order (one GEMM
# per output phase, then shift-adds), so they must agree to 1e-12 relative.


def draw_head_bias(layer, rng):
    """A random bias for the head (DenseConv), the one conv that has one:
    a batch norm follows every other."""
    if isinstance(layer, DenseConv):
        layer.bias[:] = rng.normal(0, 1, layer.out_ch)


def add_bias(layer, out):
    """out (C, X, Y, Z) plus the layer's bias, if it has one."""
    bias = layer.params().get("bias", np.zeros(layer.out_ch))
    return out + bias.astype(out.dtype)[:, None, None, None]


def _deconv_slices(o, size):
    """(input, output) slices along one axis for transposed-conv tap
    offset o = kernel_index - pad, kernel 4, stride 2, pad 1."""
    p0 = 1 if o < 0 else 0
    p1 = size - 1 if o == 2 else size
    q0 = 2 * p0 + o
    n = p1 - p0
    return slice(p0, p1), slice(q0, q0 + 2 * n, 2)


def _conv_slices(o, size):
    """(output, input) slices along one axis for stride-1 pad-1 kernel-3
    tap offset o in {-1, 0, 1}."""
    x0 = max(0, -o)
    x1 = size - max(0, o)
    return slice(x0, x1), slice(x0 + o, x1 + o)


def _deconv_taps(shape):
    """(kernel index, input slab index, output slab index) per tap."""
    _, sx, sy, sz = shape
    for k in np.ndindex(4, 4, 4):
        (px, qx), (py, qy), (pz, qz) = (
            _deconv_slices(ki - 1, n) for ki, n in zip(k, (sx, sy, sz))
        )
        yield k, (slice(None), px, py, pz), (slice(None), qx, qy, qz)


def _conv_taps(shape):
    _, sx, sy, sz = shape
    for k in np.ndindex(3, 3, 3):
        (ox, ix_), (oy, iy_), (oz, iz_) = (
            _conv_slices(ki - 1, n) for ki, n in zip(k, (sx, sy, sz))
        )
        yield k, (slice(None), ix_, iy_, iz_), (slice(None), ox, oy, oz)


def per_tap_forward(taps, out_shape, weight, x):
    out = np.zeros(out_shape)
    for k, src, dst in taps(x.shape):
        out[dst] += np.tensordot(weight[k], x[src], axes=([0], [0]))
    return out


def per_tap_backward(taps, weight, x, grad_out):
    grad_in = np.zeros_like(x)
    grad_w = np.zeros_like(weight)
    for k, src, dst in taps(x.shape):
        gslab = grad_out[dst]
        grad_in[src] += np.tensordot(weight[k], gslab, axes=([1], [0]))
        grad_w[k] = np.tensordot(
            x[src], gslab, axes=([1, 2, 3], [1, 2, 3])
        )
    return grad_in, grad_w


class TestDenseAgainstPerTap:
    def check(self, cls, taps, cin, cout, dims, seed, stride):
        rng = np.random.default_rng(seed)
        layer = cls(cin, cout, rng)
        draw_head_bias(layer, rng)
        x = rng.normal(0, 1, (cin,) + dims)
        out_shape = (cout,) + tuple(stride * n for n in dims)
        out, ctx = dense_forward(layer, x)
        ref = per_tap_forward(taps, out_shape, layer.weight, x)
        assert_rel_close(out, add_bias(layer, ref))
        probe = rng.normal(0, 1, out_shape)
        grad_in, grads = dense_backward(layer, ctx, probe)
        ref_in, ref_w = per_tap_backward(taps, layer.weight, x, probe)
        assert_rel_close(grad_in, ref_in)
        assert_rel_close(grads["weight"], ref_w)
        if cls is DenseConv:
            assert_rel_close(grads["bias"], probe.sum(axis=(1, 2, 3)))
        else:
            assert grads.keys() == {"weight"}

    @pytest.mark.parametrize(
        "cin, cout, dims",
        [
            (64, 32, (16, 16, 4)),  # decoder deconv0
            (32, 16, (32, 32, 8)),  # decoder deconv1
            (3, 2, (3, 5, 1)),
            (2, 3, (1, 1, 1)),
            (2, 2, (2, 1, 3)),
        ],
    )
    def test_deconv(self, cin, cout, dims):
        self.check(DenseDeconv, _deconv_taps, cin, cout, dims, 27, 2)

    @pytest.mark.parametrize(
        "cin, cout, dims",
        [
            (16, 1, (64, 64, 16)),  # decoder head
            (3, 4, (6, 5, 4)),
            (3, 2, (3, 5, 1)),
            (2, 3, (1, 1, 1)),
        ],
    )
    def test_conv(self, cin, cout, dims):
        self.check(DenseConv, _conv_taps, cin, cout, dims, 28, 1)


class TestDenseBackwardAgainstSliceShift:
    """The dense backward's flat-offset copies fill the same per-tap
    stacks as the per-axis slices of dense_backward_oracle (a deconv, on
    its interleaved input) and phase_backward_oracle (the head, on its
    input's phases) and feed the same GEMMs, so the input and weight
    gradients agree bit for bit, whether the input is held at stride 1
    or 2; a shift as long as an axis leaves a tap's copy all zero."""

    def check(self, cls, cin, cout, dims, dtype, seed, in_stride):
        rng = np.random.default_rng(seed)
        layer = cls(cin, cout, rng)
        dims = tuple(in_stride * n for n in dims)
        x = rng.normal(0, 1, (cin,) + dims).astype(dtype)
        given = phases_of(x, in_stride)
        out, ctx = layer.forward(given)
        probe = rng.normal(0, 1, (cout,) + out.dims).astype(dtype)
        grad_out = phases_of(probe, out.stride)
        if cls is DenseDeconv:
            ref_in, ref_w = dense_backward_oracle(layer, x, probe)
        else:
            ref_in, ref_w = phase_backward_oracle(layer, given, grad_out)
            ref_in = interleaved(Phases(in_stride, dims, ref_in))
        grad_in, grads = layer.backward(ctx, grad_out)
        assert grad_in.stride == in_stride and grad_in.dims == dims
        grad_in = interleaved(grad_in)
        assert grad_in.dtype == dtype
        assert grad_in.tobytes() == ref_in.tobytes()
        assert grads["weight"].tobytes() == ref_w.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([DenseDeconv, DenseConv]),
        st.integers(1, 4),
        st.integers(1, 4),
        st.tuples(*[st.integers(1, 7)] * 3),
        st.sampled_from([np.float32, np.float64]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2]),
    )
    @example(DenseDeconv, 2, 2, (2, 1, 3), np.float32, 27, 1)
    @example(DenseDeconv, 3, 2, (1, 1, 1), np.float64, 1, 1)
    @example(DenseConv, 2, 3, (1, 1, 1), np.float32, 2, 1)
    @example(DenseConv, 3, 2, (3, 5, 1), np.float64, 3, 1)
    @example(DenseConv, 3, 2, (1, 1, 1), np.float32, 4, 2)
    @example(DenseDeconv, 2, 3, (3, 1, 2), np.float64, 5, 2)
    def test_bitwise(self, cls, cin, cout, dims, dtype, seed, in_stride):
        self.check(cls, cin, cout, dims, dtype, seed, in_stride)

    @pytest.mark.parametrize(
        "cls, cin, cout, dims, in_stride",
        [
            (DenseDeconv, 64, 32, (16, 16, 4), 1),  # deconv0
            (DenseDeconv, 32, 16, (16, 16, 4), 2),  # deconv1
            (DenseConv, 16, 1, (32, 32, 8), 2),  # head
        ],
    )
    def test_bitwise_at_the_decoder_shapes(self, cls, cin, cout, dims, in_stride):
        self.check(cls, cin, cout, dims, np.float32, 29, in_stride)


class TestDenseCtx:
    @pytest.mark.parametrize("cls", [DenseDeconv, DenseConv])
    def test_backward_consumes_ctx(self, cls):
        rng = np.random.default_rng(32)
        layer = cls(2, 3, rng)
        out, ctx = dense_forward(layer, rng.normal(0, 1, (2, 3, 2, 2)))
        dense_backward(layer, ctx, np.ones(out.shape))
        assert ctx == []
        with pytest.raises(StaleCache):
            dense_backward(layer, ctx, np.ones(out.shape))


def bn_relu(bn):
    """The eval stage epilogue as a function of a phase's rows."""

    def epilogue(rows):
        np.maximum(bn.eval_inplace(rows), 0.0, out=rows)

    return epilogue


def unfused_stage(layer, bn, x, sites=None):
    """layer.forward, then eval batch norm on its rows, then a ReLU: the
    (C, X, Y, Z) array of a dense output (x an array or a sparse map), or
    the map at the sites."""
    if isinstance(x, np.ndarray):
        x = phases_of(x, 1)
    y, _ = layer.forward(x, sites)
    if sites is not None:
        feats = np.maximum(eval_batch_norm(bn, y.feats), 0.0)
        return SparseFeatureMap(y.dims, y.coords, feats)
    t = interleaved(y)
    rows = np.maximum(eval_batch_norm(bn, t.reshape(len(t), -1).T), 0.0)
    return rows.T.reshape(t.shape)


class TestStageEpilogue:
    """An epilogue forward gives the unfused stage's bytes, held
    phase-major with zero pad slots, that serve one reader; a dense layer
    reads Phases as it reads the tensor they hold, at any stride, and
    consumes those that serve one reader."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dims", [(3, 2, 4), (1, 1, 1), (2, 5, 1)])
    def test_dense_deconv(self, dims, dtype):
        rng = np.random.default_rng(48)
        layer, bn = DenseDeconv(3, 4, rng), random_running_bn(4, rng)
        x = rng.normal(0, 1, (3,) + dims).astype(dtype)
        ref = unfused_stage(layer, bn, x)
        x_before = x.copy()
        out, _ = layer.forward(phases_of(x, 1), epilogue=bn_relu(bn))
        assert isinstance(out, Phases) and out.stride == 2 and out.once
        assert out.data[0].dtype == dtype and len(out.data) == 8
        assert len(out) == np.prod(ref.shape[1:])
        assert interleaved(out).tobytes() == np.ascontiguousarray(ref).tobytes()
        assert x.tobytes() == x_before.tobytes()

    @pytest.mark.parametrize("cls", [DenseDeconv, DenseConv])
    def test_phases_input(self, cls):
        rng = np.random.default_rng(49)
        layer = cls(3, 2, rng)
        draw_head_bias(layer, rng)
        x = rng.normal(0, 1, (3, 4, 6, 2)).astype(np.float32)
        ref, _ = dense_forward(layer, x)
        kept = phases_of(x)
        out, ctx = layer.forward(kept)
        assert interleaved(out).tobytes() == ref.tobytes()
        assert ctx[0] is kept  # for backward, its buffers intact
        assert interleaved(kept).tobytes() == x.tobytes()
        given = phases_of(x, once=True)
        out, _ = layer.forward(given)
        assert interleaved(out).tobytes() == ref.tobytes()
        assert given.data == []  # consumed
        with pytest.raises(ShapeError):
            layer.forward(phases_of(x[:2]))

    @pytest.mark.parametrize("cls", [DenseDeconv, DenseConv])
    def test_consumed_phases_are_stale(self, cls):
        rng = np.random.default_rng(51)
        deconv, bn = DenseDeconv(3, 2, rng), random_running_bn(2, rng)
        x = rng.normal(0, 1, (3, 2, 3, 1)).astype(np.float32)
        given, _ = deconv.forward(phases_of(x, 1), epilogue=bn_relu(bn))
        layer = cls(2, 3, rng)
        layer.forward(given)
        with pytest.raises(StaleCache, match="Phases already consumed"):
            layer.forward(given)

    def test_sparse_deconv(self):
        rng = np.random.default_rng(50)
        layer, bn = DenseDeconv(3, 4, rng), random_running_bn(4, rng)
        x = random_sparse((4, 3, 2), 9, 3, rng)
        x = SparseFeatureMap(x.dims, x.coords, x.feats.astype(np.float32))
        ref = unfused_stage(layer, bn, x)
        out, _ = layer.forward(x, epilogue=bn_relu(bn))
        assert isinstance(out, Phases) and len(out) == np.prod(ref.shape[1:])
        assert interleaved(out).tobytes() == np.ascontiguousarray(ref).tobytes()
        sites = random_sites((8, 6, 4), 0.3, rng)
        ref = unfused_stage(layer, bn, x, sites)
        out, _ = layer.forward(x, sites, bn_relu(bn))
        assert np.array_equal(out.coords, sites)
        assert out.feats.tobytes() == ref.feats.tobytes()


class TestPhaseMajorHead:
    """A stride-1 layer given Phases runs in the phase domain: one GEMM
    per input phase, each output phase summing its taps in lexicographic
    order.  Its output is the interleaved input's, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "cin, cout, dims",
        [
            (16, 1, (6, 4, 2)),  # a size-1 phase axis (z)
            (16, 1, (2, 8, 6)),  # a size-1 phase axis (x)
            (16, 1, (10, 6, 4)),
            (3, 2, (4, 2, 8)),  # a size-1 phase axis (y)
            (5, 3, (8, 6, 10)),
            (16, 1, (64, 64, 16)),  # the default head
        ],
    )
    def test_equals_the_interleaved_input(self, cin, cout, dims, dtype):
        rng = np.random.default_rng([cin, cout, *dims])
        layer = DenseConv(cin, cout, rng)
        draw_head_bias(layer, rng)
        x = rng.normal(0, 1, (cin,) + dims).astype(dtype)
        ref, _ = dense_forward(layer, x)
        out, _ = layer.forward(phases_of(x))
        assert out.stride == 2
        out = interleaved(out)
        assert out.dtype == dtype and out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()


def slice_shift_forward(layer, x):
    """The dense forward without the padded lattice: per phase, one GEMM
    of its taps on x's (C_in, N) view, each tap's slab shift-added by
    per-axis slices into a zeroed buffer in tap order, the head's bias
    last."""
    size = x.shape[1:]
    stride = len(layer.axis_taps)
    flat = x.reshape(layer.in_ch, -1)
    out = np.empty((layer.out_ch,) + tuple(stride * n for n in size), x.dtype)
    every = (slice(None),)
    for view, (kernel, shifts, _) in zip(parity_views(stride), layer.phases):
        buf = np.zeros((layer.out_ch,) + size, x.dtype)
        slabs = layer._stacked_weight(kernel, x.dtype) @ flat
        slabs = slabs.reshape((-1, layer.out_ch) + size)
        for slab, d in zip(slabs, shifts.tolist()):
            src, dst = zip(*map(_shift_slices, d, size))
            buf[every + dst] += slab[every + src]
        out[view] = add_bias(layer, buf)
    return out


class TestDenseForwardAgainstSliceShift:
    """The padded-lattice forward adds the same products in the same order
    as the slice-shift form, plus exact zeros from the padded slots, so
    the bytes agree wherever the BLAS computes a GEMM column the same way
    whatever the number of columns.  It does at the decoder's shapes and
    at these small ones; OpenBLAS rounds some small float32 GEMMs
    differently (C_in 32 at 8x8x2 sites, 128 columns against 216)."""

    def layer_and_input(self, cls, cin, cout, dims, dtype):
        rng = np.random.default_rng([cin, cout, *dims])
        layer = cls(cin, cout, rng)
        draw_head_bias(layer, rng)
        return layer, rng.normal(0, 1, (cin,) + dims).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("cls", [DenseDeconv, DenseConv])
    @pytest.mark.parametrize(
        "cin, cout, dims",
        [
            (3, 2, (2, 1, 1)),
            (3, 2, (1, 2, 1)),
            (2, 3, (1, 1, 2)),
            (2, 2, (2, 2, 2)),
            (3, 1, (3, 5, 1)),
            (4, 3, (1, 3, 4)),
            (2, 5, (5, 1, 3)),
            (5, 4, (2, 7, 3)),
            (3, 2, (7, 2, 5)),
        ],
    )
    def test_bitwise(self, cls, cin, cout, dims, dtype):
        layer, x = self.layer_and_input(cls, cin, cout, dims, dtype)
        ref = slice_shift_forward(layer, x)
        before = dict(vars(layer))
        out, _ = dense_forward(layer, x)
        assert out.dtype == dtype
        assert out.tobytes() == ref.tobytes()
        # no buffer or other state is kept on the layer across calls
        assert vars(layer).keys() == before.keys()
        assert all(vars(layer)[k] is v for k, v in before.items())

    @pytest.mark.parametrize(
        "cls, cin, cout, dims",
        [
            (DenseDeconv, 64, 32, (16, 16, 4)),  # deconv0
            (DenseDeconv, 32, 16, (32, 32, 8)),  # deconv1
            (DenseConv, 16, 1, (64, 64, 16)),  # head
        ],
    )
    def test_bitwise_at_the_decoder_shapes(self, cls, cin, cout, dims):
        layer, x = self.layer_and_input(cls, cin, cout, dims, np.float32)
        out, _ = dense_forward(layer, x)
        assert out.tobytes() == slice_shift_forward(layer, x).tobytes()

    @pytest.mark.parametrize("cls", [DenseDeconv, DenseConv])
    def test_one_site(self, cls):
        # a one-site input makes the slice-shift form's GEMM one column
        # wide, which numpy runs as a matrix-vector product; the padded
        # lattice has four columns and takes the matrix-matrix path, whose
        # dot products may round differently in the last place (and an
        # output near cancellation can be small against that place)
        layer, x = self.layer_and_input(cls, 5, 4, (1, 1, 1), np.float64)
        out, _ = dense_forward(layer, x)
        ref = slice_shift_forward(layer, x)
        atol = 1e-15 * np.abs(ref).max()
        np.testing.assert_allclose(out, ref, rtol=1e-15, atol=atol)


class TestFloat32Input:
    """Layers fed float32 compute in float32 and return float64 parameter
    gradients; batch statistics stay float64."""

    @pytest.mark.parametrize("cls", [DenseDeconv, DenseConv])
    def test_dense_layers(self, cls):
        rng = np.random.default_rng(40)
        layer = cls(3, 2, rng)
        draw_head_bias(layer, rng)
        x = rng.normal(0, 1, (3, 4, 3, 2))
        ref, ref_ctx = dense_forward(layer, x)
        out, ctx = dense_forward(layer, x.astype(np.float32))
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-5)
        g = rng.normal(0, 1, ref.shape)
        ref_in, ref_grads = dense_backward(layer, ref_ctx, g)
        grad_in, grads = dense_backward(layer, ctx, g.astype(np.float32))
        assert grad_in.dtype == np.float32
        np.testing.assert_allclose(grad_in, ref_in, rtol=1e-5, atol=1e-5)
        for name, ref_g in ref_grads.items():
            assert grads[name].dtype == np.float64, name
            np.testing.assert_allclose(grads[name], ref_g, rtol=1e-5, atol=1e-5)

    def test_batch_norm(self):
        rng = np.random.default_rng(41)
        bn = BatchNorm(3)
        bn.gamma[:] = rng.uniform(0.5, 2.0, 3)
        bn.beta[:] = rng.normal(0, 1, 3)
        x = rng.normal(2.0, 3.0, (500, 3))
        ref, ref_ctx = bn.forward(x, training=True)
        out, ctx = bn.forward(x.astype(np.float32), training=True)
        assert out.dtype == ctx[0].dtype == np.float32
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-5)
        for stat, ref_stat in zip(ctx[2], ref_ctx[2]):
            assert stat.dtype == np.float64
            np.testing.assert_allclose(stat, ref_stat, rtol=1e-6)
        g = rng.normal(0, 1, x.shape)
        ref_in, ref_grads = bn.backward(ref_ctx, g)
        grad_in, grads = bn.backward(ctx, g.astype(np.float32))
        assert grad_in.dtype == np.float32
        np.testing.assert_allclose(grad_in, ref_in, rtol=1e-4, atol=1e-5)
        for name, ref_g in ref_grads.items():
            assert grads[name].dtype == np.float64, name
            np.testing.assert_allclose(grads[name], ref_g, rtol=1e-5, atol=1e-4)


# --- finite-difference checks, one layer kind at a time ---------------------


def fd_param_check(loss_fn, arr, grad, rng, n=6, h=1e-4, tol=1e-4):
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for idx in rng.choice(arr.size, size=min(n, arr.size), replace=False):
        old = flat[idx]
        flat[idx] = old + h
        lp = loss_fn()
        flat[idx] = old - h
        lm = loss_fn()
        flat[idx] = old
        fd = (lp - lm) / (2 * h)
        an = gflat[idx]
        assert abs(fd - an) / max(abs(fd), abs(an), 1e-8) < tol, (
            f"fd={fd} analytic={an} at {idx}"
        )


class TestFiniteDifferences:
    def test_submanifold_conv(self):
        rng = np.random.default_rng(21)
        x = random_sparse((6, 6, 4), 30, 3, rng)
        layer = SubmanifoldConv(3, 4, rng)
        probe = rng.normal(0, 1, (30, 4))

        def loss():
            out, _ = layer.forward(x)
            return float((out.feats * probe).sum())

        out, ctx = layer.forward(x)
        grad_in, grads = layer.backward(ctx, probe)
        fd_param_check(loss, layer.weight, grads["weight"], rng)

        def loss_x():
            out, _ = layer.forward(x)
            return float((out.feats * probe).sum())

        fd_param_check(loss_x, x.feats, grad_in, rng)

    def test_down_conv(self):
        rng = np.random.default_rng(22)
        x = random_sparse((6, 6, 4), 35, 3, rng)
        layer = SparseDownConv(3, 4, rng)
        out, ctx = layer.forward(x)
        probe = rng.normal(0, 1, out.feats.shape)

        def loss():
            o, _ = layer.forward(x)
            return float((o.feats * probe).sum())

        grad_in, grads = layer.backward(ctx, probe)
        fd_param_check(loss, layer.weight, grads["weight"], rng)
        fd_param_check(loss, x.feats, grad_in, rng)

    def test_batch_norm_training(self):
        rng = np.random.default_rng(23)
        bn = BatchNorm(3)
        bn.gamma[:] = rng.uniform(0.5, 1.5, 3)
        bn.beta[:] = rng.normal(0, 1, 3)
        x = rng.normal(1.0, 2.0, (40, 3))
        probe = rng.normal(0, 1, (40, 3))

        def loss():
            out, _ = bn.forward(x, training=True)
            return float((out * probe).sum())

        out, ctx = bn.forward(x, training=True)
        grad_in, grads = bn.backward(ctx, probe)
        fd_param_check(loss, bn.gamma, grads["gamma"], rng)
        fd_param_check(loss, bn.beta, grads["beta"], rng)
        fd_param_check(loss, x, grad_in, rng)

    def test_dense_deconv(self):
        rng = np.random.default_rng(24)
        layer = DenseDeconv(2, 3, rng)
        x = rng.normal(0, 1, (2, 4, 3, 2))
        out, ctx = dense_forward(layer, x)
        probe = rng.normal(0, 1, out.shape)

        def loss():
            o, _ = dense_forward(layer, x)
            return float((o * probe).sum())

        grad_in, grads = dense_backward(layer, ctx, probe)
        fd_param_check(loss, layer.weight, grads["weight"], rng)
        fd_param_check(loss, x, grad_in, rng)

    def test_dense_conv(self):
        rng = np.random.default_rng(25)
        layer = DenseConv(3, 1, rng)
        x = rng.normal(0, 1, (3, 4, 4, 3))
        out, ctx = dense_forward(layer, x)
        probe = rng.normal(0, 1, out.shape)

        def loss():
            o, _ = dense_forward(layer, x)
            return float((o * probe).sum())

        grad_in, grads = dense_backward(layer, ctx, probe)
        fd_param_check(loss, layer.weight, grads["weight"], rng)
        fd_param_check(loss, layer.bias, grads["bias"], rng)
        fd_param_check(loss, x, grad_in, rng)


# --- sparse calls of the dense layers ----------------------------------------
#
# A sparse call computes the dense layer at chosen output sites, or at every
# site when given none, reading absent input rows as zero: the dense layer
# run on dense_of(x) is its oracle.


def random_sites(dims, fraction, rng) -> np.ndarray:
    """At least one distinct random site of dims, canonical order."""
    total = int(np.prod(dims))
    n = max(1, int(fraction * total))
    lin = np.sort(rng.choice(total, size=n, replace=False))
    return np.column_stack(np.unravel_index(lin, dims)).astype(np.int64)


def reads_of(cls, out_site, in_dims):
    """The input sites one output site reads, straight from the layer's
    definition: q = 2p + k - 1 (deconv, k < 4) or q = p - k + 1 (conv)."""
    per_axis = []
    for q, n in zip(out_site, in_dims):
        if cls is DenseDeconv:
            ps = [(q + 1 - k) // 2 for k in range(4) if (q + 1 - k) % 2 == 0]
        else:
            ps = [q + k - 1 for k in range(3)]
        per_axis.append([p for p in ps if 0 <= p < n])
    return set(itertools.product(*per_axis))


LAYER_CASES = [
    (DenseDeconv, 64, 32, (4, 4, 2)),
    (DenseDeconv, 3, 2, (3, 5, 1)),
    (DenseDeconv, 2, 3, (1, 1, 1)),
    (DenseConv, 16, 1, (8, 6, 4)),
    (DenseConv, 3, 4, (6, 5, 4)),
    (DenseConv, 2, 3, (1, 1, 1)),
]


class TestSparseCallAgainstDense:
    @pytest.mark.parametrize("site_fraction", [0.4, 1.0])
    @pytest.mark.parametrize("cls, cin, cout, dims", LAYER_CASES)
    @pytest.mark.parametrize("fill", [0.0, 0.3, 1.0])
    def test_forward_and_backward_at_the_sites(
        self, cls, cin, cout, dims, fill, site_fraction
    ):
        rng = np.random.default_rng(50)
        layer = cls(cin, cout, rng)
        draw_head_bias(layer, rng)
        x = random_sparse(dims, int(fill * np.prod(dims)), cin, rng)
        stride = len(cls.axis_taps)
        out_dims = tuple(stride * n for n in dims)
        sites = random_sites(out_dims, site_fraction, rng)
        at = (slice(None),) + tuple(sites.T)
        every = len(sites) == np.prod(out_dims)

        dense, dense_ctx = dense_forward(layer, dense_of(x))
        y, ctx = layer.forward(x, sites)
        assert y.dims == out_dims
        assert np.array_equal(y.coords, sites)
        assert_rel_close(y.feats, dense[at].T)
        if every:  # the same sums in the same order as the dense call
            assert np.array_equal(y.feats, dense[at].T)
            full, full_ctx = layer.forward(x)  # no sites: the dense output
            assert np.array_equal(interleaved(full), dense)

        probe = rng.normal(0, 1, (len(sites), cout))
        grad_dense = np.zeros_like(dense)
        grad_dense[at] = probe.T
        ref_in, ref = dense_backward(layer, dense_ctx, grad_dense)
        grad_x, grads = layer.backward(ctx, SparseFeatureMap(out_dims, sites, probe))
        assert np.array_equal(grad_x.coords, x.coords)
        if len(x):
            assert_rel_close(grad_x.feats, ref_in[(slice(None),) + tuple(x.coords.T)].T)
        assert grads.keys() == ref.keys()
        for name, ref_g in ref.items():
            assert_rel_close(grads[name], ref_g)
        assert ctx == []
        with pytest.raises(StaleCache):
            layer.backward(ctx, SparseFeatureMap(out_dims, sites, probe))
        if every:  # the full-support call takes a dense grad_out
            grad_x, grads = layer.backward(full_ctx, phases_of(grad_dense, stride))
            assert np.array_equal(grad_x.coords, x.coords)
            if len(x):
                assert_rel_close(grad_x.feats, ref_in[(slice(None),) + tuple(x.coords.T)].T)
            for name, ref_g in ref.items():
                assert_rel_close(grads[name], ref_g)

    @pytest.mark.parametrize("cls, cin, cout, dims", LAYER_CASES)
    def test_float32_map_computes_in_float32(self, cls, cin, cout, dims):
        rng = np.random.default_rng(51)
        layer = cls(cin, cout, rng)
        x = random_sparse(dims, 5, cin, rng)
        x32 = SparseFeatureMap(x.dims, x.coords, x.feats.astype(np.float32))
        sites = random_sites(tuple(len(cls.axis_taps) * n for n in dims), 0.5, rng)
        y, ctx = layer.forward(x32, sites)
        assert y.feats.dtype == np.float32
        np.testing.assert_allclose(
            y.feats, layer.forward(x, sites)[0].feats, rtol=1e-5, atol=1e-5
        )
        g = SparseFeatureMap(y.dims, sites, np.ones_like(y.feats))
        grad_x, grads = layer.backward(ctx, g)
        assert grad_x.feats.dtype == np.float32
        assert all(v.dtype == np.float64 for v in grads.values())


class TestSparseBackwardAgainstOracle:
    """The sparse backward's one re-zeroed buffer and whole-row item
    assignments, through the slab rows its forward's plan keeps, fill the
    same spread as sparse_backward_oracle's fresh buffer per phase, whose
    rows and kernel maps come from the output sites, and feed the same
    GEMMs, so the input and weight gradients agree bit for bit: over
    float32 and float64, sparse and dense grad_out, phases without output
    sites and an empty input map."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(LAYER_CASES),
        st.sampled_from([np.float32, np.float64]),
        st.sampled_from([0.0, 0.3, 1.0]),  # input fill; 0: an empty map
        st.sampled_from([None, 0.0, 0.2, 1.0]),  # sites; None: dense
        st.integers(0, 2**32 - 1),
    )
    @example(LAYER_CASES[0], np.float32, 0.3, None, 1)
    @example(LAYER_CASES[2], np.float64, 0.0, 0.0, 2)  # one site, no input
    @example(LAYER_CASES[3], np.float32, 1.0, 0.2, 3)
    def test_bitwise(self, case, dtype, fill, site_fraction, seed):
        cls, cin, cout, dims = case
        rng = np.random.default_rng(seed)
        layer = cls(cin, cout, rng)
        x = random_sparse(dims, int(fill * np.prod(dims)), cin, rng)
        x = SparseFeatureMap(x.dims, x.coords, x.feats.astype(dtype))
        out_dims = tuple(len(cls.axis_taps) * n for n in dims)
        if site_fraction is None:  # every site; grad_out is dense
            sites = None
            y, ctx = layer.forward(x)
            probe = rng.normal(0, 1, (cout,) + y.dims).astype(dtype)
            grad_out = phases_of(probe, y.stride)
        else:  # a fraction 0 keeps one site, so most phases hold none
            sites = random_sites(out_dims, site_fraction, rng)
            _, ctx = layer.forward(x, sites)
            rows = rng.normal(0, 1, (len(sites), cout)).astype(dtype)
            grad_out = SparseFeatureMap(out_dims, sites, rows)
        ref_in, ref_w = sparse_backward_oracle(layer, sites, x, grad_out)
        grad_x, grads = layer.backward(ctx, grad_out)
        assert grad_x.feats.dtype == dtype
        assert grad_x.feats.tobytes() == ref_in.tobytes()
        assert grads["weight"].tobytes() == ref_w.tobytes()


class TestInputSupport:
    @pytest.mark.parametrize("cls, cin, cout, dims", LAYER_CASES)
    def test_equals_a_scan_of_what_each_site_reads(self, cls, cin, cout, dims):
        rng = np.random.default_rng(52)
        layer = cls(cin, cout, rng)
        out_dims = tuple(len(cls.axis_taps) * n for n in dims)
        for fraction in (0.0, 0.1, 0.5):
            mask = np.zeros((1,) + out_dims, dtype=bool)
            if fraction:
                mask[(0,) + tuple(random_sites(out_dims, fraction, rng).T)] = True
            expect = np.zeros((1,) + dims, dtype=bool)
            for q in np.argwhere(mask[0]):
                for p in reads_of(cls, tuple(q), dims):
                    expect[(0,) + p] = True
            assert np.array_equal(layer.input_support(mask), expect)

    @pytest.mark.parametrize("cls, cin, cout, dims", LAYER_CASES[:4])
    def test_outside_the_support_is_never_read(self, cls, cin, cout, dims):
        """Input rows outside input_support leave the outputs as they are."""
        rng = np.random.default_rng(53)
        layer = cls(cin, cout, rng)
        out_dims = tuple(len(cls.axis_taps) * n for n in dims)
        sites = random_sites(out_dims, 0.1, rng)
        mask = np.zeros((1,) + out_dims, dtype=bool)
        mask[(0,) + tuple(sites.T)] = True
        need = layer.input_support(mask)[0]
        full = random_sparse(dims, int(np.prod(dims)), cin, rng)
        keep = need[tuple(full.coords.T)]
        part = SparseFeatureMap(dims, full.coords[keep], full.feats[keep])
        a, _ = layer.forward(full, sites)
        b, _ = layer.forward(part, sites)
        assert np.array_equal(a.feats, b.feats)
