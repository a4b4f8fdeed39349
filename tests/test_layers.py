import tracemalloc

import numpy as np
import pytest

from rmae.errors import DegenerateBatch, ShapeError, StaleCache
from rmae.occupancy_net import NetConfig, OccupancyNet
from rmae.occupancy_net.layers import (
    OFFSETS3,
    BatchNorm,
    DenseConv,
    DenseDeconv,
    SparseDownConv,
    SparseFeatureMap,
    SubmanifoldConv,
    densify,
    densify_backward,
    relu,
    relu_backward,
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


def dense_of(x: SparseFeatureMap) -> np.ndarray:
    return densify(x)


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


def dense_conv_at_sites(dense_in, sites, weight, bias):
    """Stride-1 3x3x3 convolution evaluated at the given sites via dense
    shifts.  Taps accumulate in the same canonical order and through the
    same (rows, cin) @ (cin, cout) contraction the sparse path uses, so a
    correct implementation must match bit for bit."""
    out = np.tile(bias, (len(sites), 1))
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
        layer.bias[:] = 0.0
        out, _ = layer.forward(x)
        assert np.array_equal(out.feats, x.feats)
        assert np.array_equal(out.coords, x.coords)

    def test_dense_oracle_exact(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            x = random_sparse((8, 8, 8), 60, 4, rng)
            layer = SubmanifoldConv(4, 5, rng)
            layer.bias[:] = rng.normal(0, 1, 5)
            out, _ = layer.forward(x)
            ref = dense_conv_at_sites(
                dense_of(x), x.coords, layer.weight, layer.bias
            )
            assert np.array_equal(out.feats, ref)

    def test_single_voxel(self):
        rng = np.random.default_rng(2)
        coords = np.array([[3, 3, 3]], dtype=np.int64)
        x = SparseFeatureMap((8, 8, 8), coords, rng.normal(0, 1, (1, 2)))
        layer = SubmanifoldConv(2, 3, rng)
        out, _ = layer.forward(x)
        center = OFFSETS3.index((0, 0, 0))
        expect = layer.bias + x.feats[0] @ layer.weight[center]
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
            layer.bias[:] = rng.normal(0, 1, 4)
            out, _ = layer.forward(x)
            dense = dense_of(x)
            # oracle: out[u] = bias + sum_k W[k] . in[2u - 1 + k], with the
            # per-tap neighbor rows gathered brute-force from the dense grid
            ref = np.tile(layer.bias, (len(out.coords), 1))
            for t, off in enumerate(OFFSETS3):
                k = np.asarray(off) + 1
                rows = np.zeros((len(out.coords), 3))
                for i, u in enumerate(out.coords):
                    v = 2 * np.asarray(u) - 1 + k
                    if all(0 <= v[a] < x.dims[a] for a in range(3)):
                        rows[i] = dense[:, v[0], v[1], v[2]]
                ref += rows @ layer.weight[t]
            assert np.array_equal(out.feats, ref)

    def test_odd_dims_round_up(self):
        rng = np.random.default_rng(7)
        x = random_sparse((7, 5, 3), 20, 2, rng)
        out, _ = SparseDownConv(2, 2, rng).forward(x)
        assert out.dims == (4, 3, 2)


# --- per-tap references for the sparse convs --------------------------------
#
# The sparse convs' earlier forward: per tap, a neighbor search through a
# dense index volume, a zero-filled full-height neighbor matrix and one
# (rows, C_in) @ (C_in, C_out) GEMM, added to the bias in tap order; and
# its backward over the recorded (input rows, output rows) pairs.  The
# layers form the same products in one batched GEMM and add them in the
# same order, so they must agree bit for bit.


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
    out = np.tile(layer.bias, (n, 1))
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
    out = np.tile(layer.bias, (m, 1))
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
    return grad_in, grad_w, grad_out.sum(axis=0)


PER_TAP_SPARSE = {
    SubmanifoldConv: per_tap_submanifold,
    SparseDownConv: per_tap_down,
}


def assert_bitwise(actual, expect):
    assert actual.shape == expect.shape and actual.dtype == expect.dtype
    assert actual.tobytes() == expect.tobytes()


def check_sparse_against_per_tap(layer, x, rng):
    """Forward and backward of layer on x equal the per-tap reference bit
    for bit; returns the forward's output."""
    out, ctx = layer.forward(x)
    ref, ref_coords, gathers = PER_TAP_SPARSE[type(layer)](layer, x)
    assert_bitwise(out.coords, ref_coords)
    assert_bitwise(out.feats, ref)
    probe = rng.normal(0, 1, ref.shape)
    grad_in, grads = layer.backward(ctx, probe)
    ref_in, ref_w, ref_b = per_tap_sparse_backward(layer, x, gathers, probe)
    assert_bitwise(grad_in, ref_in)
    assert_bitwise(grads["weight"], ref_w)
    assert_bitwise(grads["bias"], ref_b)
    return out


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
        layer.bias[:] = rng.normal(0, 1, cout)
        x = random_sparse(dims, n, cin, rng)
        check_sparse_against_per_tap(layer, x, rng)

    @pytest.mark.parametrize("cls", [SubmanifoldConv, SparseDownConv])
    @pytest.mark.parametrize(
        "dims, n", [((4, 4, 4), 0), ((8, 8, 8), 1), ((7, 5, 3), 40)]
    )
    def test_empty_single_and_odd(self, cls, dims, n):
        rng = np.random.default_rng(41)
        layer = cls(3, 5, rng)
        layer.bias[:] = rng.normal(0, 1, 5)
        x = random_sparse(dims, n, 3, rng)
        check_sparse_against_per_tap(layer, x, rng)

    @pytest.mark.parametrize("cls", [SubmanifoldConv, SparseDownConv])
    def test_map_carrying_an_earlier_convs_table(self, cls):
        rng = np.random.default_rng(42)
        first = SubmanifoldConv(3, 4, rng)
        y, _ = first.forward(random_sparse((9, 8, 6), 150, 3, rng))
        assert y.neighbors is not None
        x = SparseFeatureMap(y.dims, y.coords, np.tanh(y.feats), y.neighbors)
        layer = cls(4, 6, rng)
        layer.bias[:] = rng.normal(0, 1, 6)
        out = check_sparse_against_per_tap(layer, x, rng)
        if cls is SubmanifoldConv:
            assert out.neighbors is y.neighbors
        else:
            assert out.neighbors is None

    def test_one_table_per_level_in_the_default_net(self):
        """In a training forward every submanifold conv at one resolution
        reads the same kernel map object: the default net builds three."""
        rng = np.random.default_rng(43)
        net = OccupancyNet(NetConfig())
        x = random_sparse((64, 64, 16), 1500, 4, rng)
        _, tape = net.forward(x, training=True)
        tables = {}
        units = zip(net.encoder, tape["encoder"])
        for (name, conv, *_), (c_conv, _, _) in units:
            if isinstance(conv, SubmanifoldConv):
                level = "0" if name == "stem" else name[len("block")]
                tables.setdefault(level, set()).add(id(c_conv[1]))
        assert sorted(tables) == ["0", "1", "2"]
        assert all(len(ids) == 1 for ids in tables.values())
        assert len(set.union(*tables.values())) == 3


def one_gemm_forward(layer, x, table):
    """The sparse conv forward as a single batched GEMM over all 27 taps:
    the reference for the forward that multiplies a few taps at a time."""
    padded = np.concatenate([x.feats, np.zeros((1, layer.in_ch))])
    out = np.tile(layer.bias, (table.shape[1], 1))
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


class TestChunkedSparseForward:
    @pytest.mark.parametrize("cls", [SubmanifoldConv, SparseDownConv])
    def test_equals_one_batched_gemm(self, cls):
        rng = np.random.default_rng(44)
        layer = cls(16, 24, rng)
        layer.bias[:] = rng.normal(0, 1, 24)
        x = random_sparse((32, 32, 16), 3000, 16, rng)
        out, (_, table) = layer.forward(x)
        assert_bitwise(out.feats, one_gemm_forward(layer, x, table))

    def test_peak_memory_under_half_of_one_batched_gemm(self):
        rng = np.random.default_rng(45)
        layer = SubmanifoldConv(16, 16, rng)
        x = random_sparse((32, 32, 16), 3000, 16, rng)
        _, (_, table) = layer.forward(x)
        x = SparseFeatureMap(x.dims, x.coords, x.feats, table)
        chunked = peak_bytes(lambda: layer.forward(x))
        one_gemm = peak_bytes(lambda: one_gemm_forward(layer, x, table))
        assert chunked < one_gemm / 2


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
        y, _ = bn.forward(x[:3], training=False)
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
            mean += 0.3 * (x.mean(axis=0) - mean)
            var += 0.3 * (x.var(axis=0) - var)
        for stats in pending:
            bn.commit(stats)
        assert bn.running_mean.tobytes() == mean.tobytes()
        assert bn.running_var.tobytes() == var.tobytes()

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_textbook_expressions_bitwise(self, training, order):
        """forward and backward form every value with the operations of
        the plain expressions, in place, so the bits agree; F order is the
        decoder's (N, C) view of a (C, X, Y, Z) tensor, with more rows than
        one row block."""
        rng = np.random.default_rng(31)
        bn = BatchNorm(3)
        bn.gamma[:] = rng.uniform(0.5, 2.0, 3)
        bn.beta[:] = rng.normal(0, 1, 3)
        bn.running_mean[:] = rng.normal(0, 1, 3)
        bn.running_var[:] = rng.uniform(0.5, 2.0, 3)
        x = np.asarray(rng.normal(1.0, 2.0, (20000, 3)), order=order)
        probe = np.asarray(rng.normal(0, 1, x.shape), order=order)
        before = (x.copy(), probe.copy())
        out, ctx = bn.forward(x, training)
        grad_in, grads = bn.backward(ctx, probe)
        assert np.array_equal(x, before[0])  # inputs are left alone
        assert np.array_equal(probe, before[1])

        if training:
            mu, var = x.mean(axis=0), x.var(axis=0)
        else:
            mu, var = bn.running_mean, bn.running_var
        ivar = 1.0 / np.sqrt(var + bn.eps)
        xhat = (x - mu) * ivar
        dxhat = probe * bn.gamma
        if training:
            n = x.shape[0]
            expect_in = (
                ivar
                / n
                * (
                    n * dxhat
                    - dxhat.sum(axis=0)
                    - xhat * (dxhat * xhat).sum(axis=0)
                )
            )
        else:
            expect_in = dxhat * ivar
        assert out.tobytes() == (bn.gamma * xhat + bn.beta).tobytes()
        assert grad_in.tobytes() == expect_in.tobytes()
        assert grads["gamma"].tobytes() == (probe * xhat).sum(axis=0).tobytes()
        assert grads["beta"].tobytes() == probe.sum(axis=0).tobytes()

    def test_degenerate_batch(self):
        bn = BatchNorm(2)
        with pytest.raises(DegenerateBatch):
            bn.forward(np.empty((0, 2)), training=True)
        out, _ = bn.forward(np.empty((0, 2)), training=False)
        assert out.shape == (0, 2)


class TestReluResidual:
    def test_relu_values(self):
        out, _ = relu(np.array([-1.0, 0.0, 2.0]))
        assert np.array_equal(out, [0.0, 0.0, 2.0])

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
        out, _ = relu(residual_add(x, y).feats)
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
        layer.bias[:] = 0.0
        x = np.zeros((1, 3, 3, 3))
        x[0, 1, 1, 1] = 1.0
        out, _ = layer.forward(x)
        assert out.shape == (1, 6, 6, 6)
        # input p=1 writes W[k] at q = 2 + k - 1 = k + 1
        for kx, ky, kz in np.ndindex(4, 4, 4):
            assert out[0, kx + 1, ky + 1, kz + 1] == pytest.approx(
                layer.weight[kx, ky, kz, 0, 0], rel=1e-15
            )

    def test_output_doubles_dims(self):
        rng = np.random.default_rng(15)
        layer = DenseDeconv(2, 3, rng)
        out, _ = layer.forward(rng.normal(0, 1, (2, 5, 4, 3)))
        assert out.shape == (3, 10, 8, 6)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            layer = DenseDeconv(3, 2, rng)
            layer.bias[:] = 0.0
            x = rng.normal(0, 1, (3, 4, 3, 2))
            y = rng.normal(0, 1, (2, 8, 6, 4))
            lhs = float((layer.forward(x)[0] * y).sum())
            rhs = float((x * dense_strided_conv_adjoint(y, layer.weight)).sum())
            assert lhs == pytest.approx(rhs, abs=1e-8)


class TestDenseConv:
    def test_shape_and_identity(self):
        rng = np.random.default_rng(17)
        layer = DenseConv(2, 1, rng)
        out, _ = layer.forward(rng.normal(0, 1, (2, 5, 4, 3)))
        assert out.shape == (1, 5, 4, 3)

    def test_dense_oracle(self):
        rng = np.random.default_rng(18)
        layer = DenseConv(3, 2, rng)
        layer.bias[:] = rng.normal(0, 1, 2)
        x = rng.normal(0, 1, (3, 6, 5, 4))
        out, _ = layer.forward(x)
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


def per_tap_forward(taps, out_shape, weight, bias, x):
    out = np.zeros(out_shape)
    for k, src, dst in taps(x.shape):
        out[dst] += np.tensordot(weight[k], x[src], axes=([0], [0]))
    out += bias[:, None, None, None]
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
    return grad_in, grad_w, grad_out.sum(axis=(1, 2, 3))


def assert_rel_close(actual, expect, tol=1e-12):
    """Max abs difference within tol of the reference's max magnitude."""
    assert actual.shape == expect.shape
    scale = max(float(np.abs(expect).max()), 1e-300)
    err = float(np.abs(actual - expect).max()) / scale
    assert err <= tol, f"relative error {err:.3g} > {tol:g}"


class TestDenseAgainstPerTap:
    def check(self, cls, taps, cin, cout, dims, seed, stride):
        rng = np.random.default_rng(seed)
        layer = cls(cin, cout, rng)
        layer.bias[:] = rng.normal(0, 1, cout)
        x = rng.normal(0, 1, (cin,) + dims)
        out_shape = (cout,) + tuple(stride * n for n in dims)
        out, ctx = layer.forward(x)
        ref = per_tap_forward(taps, out_shape, layer.weight, layer.bias, x)
        assert_rel_close(out, ref)
        probe = rng.normal(0, 1, out_shape)
        grad_in, grads = layer.backward(ctx, probe)
        ref_in, ref_w, ref_b = per_tap_backward(taps, layer.weight, x, probe)
        assert_rel_close(grad_in, ref_in)
        assert_rel_close(grads["weight"], ref_w)
        assert_rel_close(grads["bias"], ref_b)

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


class TestDenseCtx:
    @pytest.mark.parametrize("cls", [DenseDeconv, DenseConv])
    def test_backward_consumes_ctx(self, cls):
        rng = np.random.default_rng(32)
        layer = cls(2, 3, rng)
        out, ctx = layer.forward(rng.normal(0, 1, (2, 3, 2, 2)))
        layer.backward(ctx, np.ones(out.shape))
        assert ctx == []
        with pytest.raises(StaleCache):
            layer.backward(ctx, np.ones(out.shape))


class TestDensify:
    def test_round_trip(self):
        rng = np.random.default_rng(19)
        x = random_sparse((5, 4, 3), 15, 4, rng)
        dense = densify(x)
        assert dense.shape == (4, 5, 4, 3)
        back = densify_backward(x, dense)
        assert np.array_equal(back, x.feats)

    def test_absent_sites_zero(self):
        rng = np.random.default_rng(20)
        x = random_sparse((5, 4, 3), 5, 2, rng)
        dense = densify(x)
        mask = np.zeros((5, 4, 3), dtype=bool)
        mask[x.coords[:, 0], x.coords[:, 1], x.coords[:, 2]] = True
        assert (dense[:, ~mask] == 0).all()


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
        fd_param_check(loss, layer.bias, grads["bias"], rng)

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
        fd_param_check(loss, layer.bias, grads["bias"], rng)
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
        out, ctx = layer.forward(x)
        probe = rng.normal(0, 1, out.shape)

        def loss():
            o, _ = layer.forward(x)
            return float((o * probe).sum())

        grad_in, grads = layer.backward(ctx, probe)
        fd_param_check(loss, layer.weight, grads["weight"], rng)
        fd_param_check(loss, layer.bias, grads["bias"], rng)
        fd_param_check(loss, x, grad_in, rng)

    def test_dense_conv(self):
        rng = np.random.default_rng(25)
        layer = DenseConv(3, 1, rng)
        x = rng.normal(0, 1, (3, 4, 4, 3))
        out, ctx = layer.forward(x)
        probe = rng.normal(0, 1, out.shape)

        def loss():
            o, _ = layer.forward(x)
            return float((o * probe).sum())

        grad_in, grads = layer.backward(ctx, probe)
        fd_param_check(loss, layer.weight, grads["weight"], rng)
        fd_param_check(loss, layer.bias, grads["bias"], rng)
        fd_param_check(loss, x, grad_in, rng)

    def test_relu_backward(self):
        rng = np.random.default_rng(26)
        x = rng.normal(0, 1, (20, 3))
        probe = rng.normal(0, 1, (20, 3))
        out, ctx = relu(x)
        grad_in = relu_backward(ctx, probe)

        def loss():
            o, _ = relu(x)
            return float((o * probe).sum())

        fd_param_check(loss, x, grad_in, rng, tol=2e-4)
