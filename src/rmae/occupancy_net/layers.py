"""Network primitives with explicit forward/backward passes.

Everything is float64 numpy.  Each layer's forward returns (output, ctx)
where ctx carries exactly what backward needs; backward returns the input
gradient and a dict of parameter gradients.  Sparse maps keep their rows in
canonical (ix, iy, iz) order throughout, and every accumulation loops
kernel taps in one fixed order, so results are bitwise reproducible.

The sparse convs run from a kernel map (the "rulebook" of submanifold
sparse convs, Graham et al. 2018): a (27, M) table holding, per kernel tap
and output row, the input row it reads, or N where that site is absent.
It is built with one broadcast over the 27 offsets through an index
volume, and a stride-1 conv hands it on with its output map, whose support
is the input's, so every conv at one resolution shares one table.  The
forward then gathers the input, padded with a zero row, for
_TAPS_PER_GEMM taps at a time into a (taps, M, C_in) array, makes one
batched GEMM against those taps' (taps, C_in, C_out) weights, and adds
the per-tap products onto the bias in tap order: the same full-height
products, added in the same order, as a per-tap loop.  Each tap's (input
rows, output rows) pairs come from the table in ascending output order
when backward needs them.

The dense decoder layers run "transform, then shift": the taps that write
one output phase (one parity class of a strided output; the whole output
at stride 1) are contracted with the input's channels in a single GEMM on
its (C_in, N) view, and the per-tap results are then shift-added into
place.  A 4x4x4 stride-2 transposed conv is 8 phases of 8 taps each (the
sub-pixel view of Shi et al. 2016); a 3x3x3 stride-1 conv is 1 phase of
27 taps.  Taps within a phase add in lexicographic kernel order, so every
output sums its taps in the same fixed order on every run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateBatch, ShapeError, StaleCache

# rows per temporary in BatchNorm.backward's last per-element product
_ROW_BLOCK = 8192
# taps per forward GEMM: bounds the slab of per-tap results at 9 taps
# (27 taps take three GEMMs, a deconv phase's 8 taps one)
_TAPS_PER_GEMM = 9

OFFSETS3 = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
]
_OFFSETS = np.array(OFFSETS3, dtype=np.int64)  # (27, 3)


@dataclass
class SparseFeatureMap:
    """Sparse voxel features at some (possibly strided) resolution.

    neighbors, when set, is the map's kernel map: a (27, N) int64 table
    whose [t, i] is the row at coords[i] + OFFSETS3[t], or N where that
    site is absent.  It depends on coords alone, so maps that share
    coords may share it.
    """

    dims: tuple[int, int, int]
    coords: np.ndarray  # (N, 3) int64, canonical order
    feats: np.ndarray  # (N, C) float64
    neighbors: np.ndarray | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def channel_width(self) -> int:
        return self.feats.shape[1]

    def __len__(self) -> int:
        return self.coords.shape[0]


def _kernel_map(dims, coords, sites) -> np.ndarray:
    """(27, len(sites)) table whose [t, i] is the row of coords at
    sites[i] + OFFSETS3[t], or len(coords) where no row is there.  Sites
    may lie up to one voxel outside dims."""
    n = len(coords)
    vol = np.full(tuple(d + 2 for d in dims), n, dtype=np.int64)
    inner = coords + 1  # vol has a one-voxel border of absent sites
    vol[inner[:, 0], inner[:, 1], inner[:, 2]] = np.arange(n)
    at = sites + 1 + _OFFSETS[:, None]  # (27, M, 3)
    return vol[at[..., 0], at[..., 1], at[..., 2]]


def _check_width(feats: np.ndarray, expected: int, what: str) -> None:
    if feats.shape[1] != expected:
        raise ShapeError(
            f"{what}: expected {expected} channels, got {feats.shape[1]}"
        )


class _SparseConv:
    """A 3x3x3 sparse convolution run from a kernel map (see the module
    docstring).  Subclasses give, in _output_sites, the output's dims and
    coords, the (27, M) table of input rows per tap and output row, and
    the kernel map the output map carries (or None)."""

    kind = "sparse_conv"

    def __init__(self, in_ch: int, out_ch: int, rng: np.random.Generator):
        std = np.sqrt(2.0 / (27.0 * in_ch))
        self.weight = rng.normal(0.0, std, size=(27, in_ch, out_ch))
        self.bias = np.zeros(out_ch)
        self.in_ch = in_ch
        self.out_ch = out_ch

    def params(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    def buffers(self) -> dict[str, np.ndarray]:
        return {}

    def forward(self, x: SparseFeatureMap):
        _check_width(x.feats, self.in_ch, type(self).__name__)
        dims, coords, table, neighbors = self._output_sites(x)
        padded = np.concatenate([x.feats, np.zeros((1, self.in_ch))])
        out = np.tile(self.bias, (len(coords), 1))
        # one buffer takes every chunk's products, so a chunk's GEMM never
        # runs while the previous chunk's products are still held
        products = np.empty((_TAPS_PER_GEMM, len(coords), self.out_ch))
        for lo in range(0, len(table), _TAPS_PER_GEMM):
            taps = slice(lo, lo + _TAPS_PER_GEMM)
            chunk = products[: len(table[taps])]
            # full-height neighbor matrices (zeros where absent) keep the
            # gemm shape fixed, so results are independent of sparsity
            np.matmul(padded[table[taps]], self.weight[taps], out=chunk)
            for product in chunk:
                out += product
        return SparseFeatureMap(dims, coords, out, neighbors), (x, table)

    def backward(self, ctx, grad_out: np.ndarray):
        x, table = ctx
        grad_in = np.zeros_like(x.feats)
        grad_w = np.zeros_like(self.weight)
        for t, rows in enumerate(table):
            out_rows = np.flatnonzero(rows < len(x))
            if len(out_rows):
                in_rows = rows[out_rows]
                g = grad_out[out_rows]
                grad_in[in_rows] += g @ self.weight[t].T
                grad_w[t] = x.feats[in_rows].T @ g
        grad_b = grad_out.sum(axis=0)
        return grad_in, {"weight": grad_w, "bias": grad_b}


class SubmanifoldConv(_SparseConv):
    """3x3x3 stride-1 sparse convolution; output support = input support,
    so the output carries the input's kernel map, built here if absent."""

    def _output_sites(self, x: SparseFeatureMap):
        table = x.neighbors
        if table is None:
            table = _kernel_map(x.dims, x.coords, x.coords)
        return x.dims, x.coords, table, table


class SparseDownConv(_SparseConv):
    """3x3x3 stride-2 sparse convolution onto the half-resolution lattice;
    an output site exists iff any input voxel falls in its receptive
    field."""

    @staticmethod
    def out_dims(dims) -> tuple[int, int, int]:
        return tuple((d + 1) // 2 for d in dims)

    def _output_sites(self, x: SparseFeatureMap):
        odims = self.out_dims(x.dims)
        # input x reaches output u through tap t when x = 2u + OFFSETS3[t]
        num = x.coords - _OFFSETS[:, None]  # (27, N, 3)
        u = num // 2
        ok = ((num % 2 == 0) & (u >= 0) & (u < odims)).all(axis=2)
        lin = np.unique(np.ravel_multi_index(tuple(u[ok].T), odims))
        coords = np.column_stack(np.unravel_index(lin, odims)).astype(np.int64)
        return odims, coords, _kernel_map(x.dims, x.coords, 2 * coords), None


class BatchNorm:
    """Per-channel batch normalization over an (N, C) matrix.

    Training mode normalizes with the batch's biased variance; eval mode
    uses the running statistics only.  forward never writes the running
    statistics: a training pass returns the batch (mean, var) as the last
    item of its ctx, and commit() folds it in.  Training mode never reads
    the running statistics, so passes may run concurrently and commit
    afterwards in their original order.

    Besides its input, forward keeps two full-size buffers (xhat and the
    output) and backward one (its result); per-element products are
    formed in place, so every value is computed by the same operations in
    the same order as the textbook expressions in the comments.
    """

    kind = "batch_norm"

    def __init__(self, ch: int, eps: float = 1e-5, momentum: float = 0.1):
        self.gamma = np.ones(ch)
        self.beta = np.zeros(ch)
        self.running_mean = np.zeros(ch)
        self.running_var = np.ones(ch)
        self.eps = eps
        self.momentum = momentum
        self.ch = ch

    def params(self) -> dict[str, np.ndarray]:
        return {"gamma": self.gamma, "beta": self.beta}

    def buffers(self) -> dict[str, np.ndarray]:
        return {
            "running_mean": self.running_mean,
            "running_var": self.running_var,
        }

    def forward(self, x: np.ndarray, training: bool):
        """Returns (out, (xhat, ivar, stats)); stats is the batch
        (mean, var) in training mode and None in eval mode."""
        _check_width(x, self.ch, "batch norm")
        if training:
            if x.shape[0] == 0:
                raise DegenerateBatch(
                    "batch norm saw zero elements in training mode"
                )
            mu = x.mean(axis=0)
            var = x.var(axis=0)
            stats = (mu, var)
        else:
            mu = self.running_mean
            var = self.running_var
            stats = None
        ivar = 1.0 / np.sqrt(var + self.eps)
        xhat = x - mu  # xhat = (x - mu) * ivar
        xhat *= ivar
        return self.scale_shift(xhat), (xhat, ivar, stats)

    def scale_shift(self, xhat: np.ndarray) -> np.ndarray:
        """gamma * xhat + beta: forward's output, recomputable from xhat."""
        out = xhat * self.gamma
        out += self.beta
        return out

    def commit(self, stats) -> None:
        """Fold one training pass's batch (mean, var) into the running
        statistics."""
        mu, var = stats
        self.running_mean += self.momentum * (mu - self.running_mean)
        self.running_var += self.momentum * (var - self.running_var)

    def backward(self, ctx, grad_out: np.ndarray):
        xhat, ivar, stats = ctx
        grad_beta = grad_out.sum(axis=0)
        buf = np.empty_like(grad_out)
        np.multiply(grad_out, xhat, out=buf)
        grad_gamma = buf.sum(axis=0)
        np.multiply(grad_out, self.gamma, out=buf)  # dxhat
        if stats is None:
            buf *= ivar
            return buf, {"gamma": grad_gamma, "beta": grad_beta}
        # grad_in = ivar / n * (n * dxhat - dxhat.sum(0)
        #                       - xhat * (dxhat * xhat).sum(0))
        n = xhat.shape[0]
        dxhat_sum = buf.sum(axis=0)
        buf *= xhat
        dxhat_xhat_sum = buf.sum(axis=0)
        np.multiply(grad_out, self.gamma, out=buf)  # dxhat again
        buf *= n
        buf -= dxhat_sum
        for lo in range(0, n, _ROW_BLOCK):
            rows = slice(lo, lo + _ROW_BLOCK)
            buf[rows] -= xhat[rows] * dxhat_xhat_sum
        buf *= ivar / n
        return buf, {"gamma": grad_gamma, "beta": grad_beta}


def relu(x: np.ndarray):
    out = np.maximum(x, 0.0)
    return out, (x > 0.0)


def relu_backward(ctx, grad_out: np.ndarray) -> np.ndarray:
    return grad_out * ctx


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows: with e = exp(-|x|) it is
    1/(1+e) for x >= 0 and e/(1+e) elsewhere."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _phase_table(axis_taps) -> list:
    """3-D phases from a per-axis table.

    axis_taps[r] lists, for output parity r along one axis, the (k, d)
    pairs of the kernel indices k writing that parity and the shift d that
    takes input site p to phase site p + d.  Returns, per phase in
    lexicographic parity order, (parity triple, taps), each tap a
    ((kx, ky, kz), (dx, dy, dz)) pair in lexicographic kernel order.
    """
    table = []
    for parity in itertools.product(range(len(axis_taps)), repeat=3):
        per_axis = [axis_taps[r] for r in parity]
        taps = [tuple(zip(*kd)) for kd in itertools.product(*per_axis)]
        table.append((parity, taps))
    return table


def _shift_slices(d: int, size: int) -> tuple[slice, slice]:
    """(source, destination) slices along one axis moving site p to p + d;
    sites shifted off either end are dropped."""
    return (
        slice(max(0, -d), size - max(0, d)),
        slice(max(0, d), size + min(0, d)),
    )


class _DenseTapConv:
    """Dense 3-D convolution run as "transform, then shift".

    Subclasses set the per-axis tap table (see _phase_table), whose length
    is the output stride and whose tap count is the kernel size, and the
    gain of the weights' normal init, std = sqrt(gain / fan_in).  Each
    phase owns out[:, rx::s, ry::s, rz::s], which has the input's spatial
    shape.  Forward makes a (taps * C_out, C_in) @ (C_in, N) GEMM per
    phase, in chunks of at most _TAPS_PER_GEMM taps, shift-adds the
    per-tap slabs into a zeroed phase buffer in tap order, adds the bias
    last and writes the buffer to its strided output view once.  Backward copies the phase's view of grad_out
    once, stacks its per-tap shifted copies, and makes one GEMM for grad_w
    and one for grad_in.  Transient buffers hold one phase's worth of data.

    The ctx is a one-item list holding the input, and backward takes the
    input out of it: a ctx serves one backward, and a caller that hands
    over the only reference lets backward free the input before its last
    grad_in GEMM.
    """

    def __init__(self, in_ch: int, out_ch: int, rng: np.random.Generator):
        k = sum(len(taps) for taps in self.axis_taps)
        std = np.sqrt(self.gain / (k**3 * in_ch))
        self.weight = rng.normal(0.0, std, size=(k, k, k, in_ch, out_ch))
        self.bias = np.zeros(out_ch)
        self.in_ch = in_ch
        self.out_ch = out_ch

    def params(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    def buffers(self) -> dict[str, np.ndarray]:
        return {}

    def _phases(self, size):
        """Per phase: (output view index, kernel indices, per-tap (source,
        destination) indices of the shift-adds), all over (C, X, Y, Z)."""
        stride = len(self.axis_taps)
        every = slice(None)
        for parity, taps in _phase_table(self.axis_taps):
            view = (every,) + tuple(slice(r, None, stride) for r in parity)
            kernel = [k for k, _ in taps]
            moves = []
            for _, d in taps:
                src, dst = zip(*map(_shift_slices, d, size))
                moves.append(((every,) + src, (every,) + dst))
            yield view, kernel, moves

    def _stacked_weight(self, kernel) -> np.ndarray:
        """(taps * C_out, C_in) matrix of the given taps, tap-major."""
        w = np.stack([self.weight[k] for k in kernel])  # (taps, C_in, C_out)
        return w.transpose(0, 2, 1).reshape(-1, self.in_ch)

    def forward(self, x: np.ndarray):
        if x.ndim != 4 or x.shape[0] != self.in_ch:
            raise ShapeError(
                f"{type(self).__name__} expects ({self.in_ch}, X, Y, Z),"
                f" got {x.shape}"
            )
        size = x.shape[1:]
        stride = len(self.axis_taps)
        flat = x.reshape(self.in_ch, -1)
        out = np.empty((self.out_ch,) + tuple(stride * n for n in size))
        for view, kernel, moves in self._phases(size):
            buf = np.zeros((self.out_ch,) + size)
            for lo in range(0, len(kernel), _TAPS_PER_GEMM):
                taps = slice(lo, lo + _TAPS_PER_GEMM)
                slabs = self._stacked_weight(kernel[taps]) @ flat
                slabs = slabs.reshape((-1, self.out_ch) + size)
                for slab, (src, dst) in zip(slabs, moves[taps]):
                    buf[dst] += slab[src]
            buf += self.bias[:, None, None, None]
            out[view] = buf
        return out, [x]

    def backward(self, ctx, grad_out: np.ndarray):
        if not ctx:
            raise StaleCache(
                f"{type(self).__name__} backward: ctx already consumed"
            )
        shape = ctx[0].shape
        flat = ctx.pop().reshape(self.in_ch, -1)
        size = shape[1:]
        phases = list(self._phases(size))
        grad_in = None
        grad_w = np.zeros_like(self.weight)
        for i, (view, kernel, moves) in enumerate(phases):
            g = np.ascontiguousarray(grad_out[view])
            shifted = np.zeros((len(kernel), self.out_ch) + size)
            for rows, (src, dst) in zip(shifted, moves):
                rows[src] = g[dst]
            shifted = shifted.reshape(len(kernel) * self.out_ch, -1)
            gw = (shifted @ flat.T).reshape(len(kernel), self.out_ch, -1)
            for k, gk in zip(kernel, gw):
                grad_w[k] = gk.T
            if i == len(phases) - 1:
                del flat  # last use of the input
            part = self._stacked_weight(kernel).T @ shifted
            if grad_in is None:
                grad_in = part
            else:
                grad_in += part
        grad_b = grad_out.sum(axis=(1, 2, 3))
        return grad_in.reshape(shape), {"weight": grad_w, "bias": grad_b}


class DenseDeconv(_DenseTapConv):
    """4x4x4 stride-2 pad-1 transposed convolution; doubles every spatial
    dim.  Input site p reaches output q = 2p + k - 1 through kernel index
    k, so parity 0 is written by k = 1, 3 (shifts 0, +1) and parity 1 by
    k = 0, 2 (shifts -1, 0): 8 phases of 8 taps."""

    kind = "dense_deconv"
    axis_taps = (((1, 0), (3, 1)), ((0, -1), (2, 0)))
    gain = 2.0


class DenseConv(_DenseTapConv):
    """3x3x3 stride-1 pad-1 dense convolution (the 1-channel logit head):
    out[v] = bias + sum_k W[k]^T x[v + k - 1], one phase of 27 taps."""

    kind = "dense_conv"
    axis_taps = (((0, 1), (1, 0), (2, -1)),)
    gain = 1.0


def densify(x: SparseFeatureMap) -> np.ndarray:
    """Sparse map to a dense (C, X, Y, Z) tensor, zeros at absent sites."""
    c = x.channel_width
    dense = np.zeros((c,) + tuple(x.dims))
    if len(x):
        dense[:, x.coords[:, 0], x.coords[:, 1], x.coords[:, 2]] = x.feats.T
    return dense


def densify_backward(x: SparseFeatureMap, grad_dense: np.ndarray) -> np.ndarray:
    if len(x) == 0:
        return np.zeros_like(x.feats)
    return grad_dense[:, x.coords[:, 0], x.coords[:, 1], x.coords[:, 2]].T
