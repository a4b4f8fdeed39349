"""Network primitives with explicit forward/backward passes.

Parameters and batch-norm statistics are float64.  The dense layers and
BatchNorm compute in their input's dtype (the network feeds its decoder
float32) and return float64 parameter gradients; the sparse convs compute
in float64.  Each layer's forward returns (output, ctx) where ctx carries
exactly what backward needs; backward returns the input gradient and a
dict of parameter gradients.  Sparse maps keep their rows in canonical
(ix, iy, iz) order throughout, and every accumulation loops kernel taps
in one fixed order, so results are bitwise reproducible.

The sparse convs run from a rulebook (Graham et al. 2018; Choy et al.
2019): per kernel tap, the present (output rows, input rows) pairs in
ascending output order.  _rulebook takes them from a kernel map, a
(27, M) table of the input row each tap reads per output row, built with
one broadcast over the 27 offsets through an index volume.  A stride-1
conv hands its rulebook on with its output map, whose support is the
input's, so every conv at one resolution shares one rulebook.  Per tap,
in tap order, forward gathers the input rows, multiplies them by the
tap's (C_in, C_out) weight and adds the products onto the output rows,
so no product is formed for an absent neighbour; backward walks the same
pairs.  (A one-pair tap's product runs as a matrix-vector product, which
may round differently in the last place from a row of a taller GEMM.)

The dense decoder layers run "transform, then shift": the taps that write
one output phase (one parity class of a strided output; the whole output
at stride 1) are contracted with the input's channels in a single GEMM,
and the per-tap results are then shift-added into place.  A 4x4x4
stride-2 transposed conv is 8 phases of 8 taps each (the sub-pixel view of
Shi et al. 2016); a 3x3x3 stride-1 conv is 1 phase of 27 taps.  Forward
runs on a row-padded lattice: the input gets one zero slot after every
row and every plane, (X, Y + 1, Z + 1), so on its flat (C, P) view a tap's
shift d is one offset d @ (Y'Z', Z', 1) and its shift-add one contiguous
slice add.  A shift off y or z lands on a zero slot and one off x leaves
the flat array; the padded slots are cropped when the phase buffer is
written to its strided output view.  An eval forward may run an epilogue
(a stage's batch norm and ReLU) on each phase buffer while it is in
cache and then keep the buffer as it is, its pad slots zeroed: the
output is handed on phase-major, as Phases, each phase a row-padded
sub-lattice.  A strided layer interleaves Phases into its own padded
input.  The stride-1 head reads them where they lie: along an axis, the
output of parity r takes its tap of shift d from input parity
(r - d) mod 2, so one GEMM per input phase makes the products of every
tap that reads it, each output phase shift-adds its taps on the
sub-lattices, and only the 1-channel logits are interleaved.  Backward
works on the unpadded (C, X, Y, Z) arrays, so its GEMMs contract over
exactly the input's sites: on the flat view of a phase's grad_out a tap's
shifted copy is one contiguous copy at the offset d @ (YZ, Z, 1), and the
sites p whose p + d leaves the box, one face slab per shifted axis, are
then zeroed.  The phase's copies are stacked, so one GEMM gives its
grad_w and one its grad_in.  Taps within a phase add in lexicographic
kernel order, so every output sums its taps in the same fixed order on
every run, however its input is held.

The same layers also run sparse, "transform, then gather", when given a
SparseFeatureMap and the output sites wanted (the generative transposed
sparse conv of Gwak et al. 2020): the same phases, one GEMM per phase on
the input's present rows plus one zero row, the same tap order, but each
tap's products reach the phase's output sites through a (taps, M) kernel
map, built by _kernel_map at the phase's negated shifts, instead of by a
slice shift.  Without output sites a sparse call computes every output
site and returns the dense tensor, so a decoder can start from a sparse
map and continue dense.  Backward is the adjoint: each tap sends an output
row to one input row, so grad_out rows, each copied as one (C_out,) item,
are assigned through the map into an (N + 1, taps, C_out) buffer, one per
call that each phase re-zeroes, and one GEMM per phase gives grad_w and
one grad_in.  input_support gives the input sites a set of output sites
reads, so a caller can decode only what it will look at.

Only the head (DenseConv) has a bias, added last, dense or sparse: a batch
norm follows every other conv and would cancel one.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import DegenerateBatch, ShapeError, StaleCache

# taps per GEMM of the dense forward: bounds its slab of per-tap results
# at 9 taps (the head's 27 taps take three GEMMs, a deconv phase's 8 one);
# one GEMM per phase is bitwise equal but adds 7 MiB or more to peak RSS
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

    rulebook, when set, is what a stride-1 conv on the map reads: per
    tap of OFFSETS3, the rows i and j with coords[i] + offset at
    coords[j] (see _rulebook).  It depends on coords alone, so maps that
    share coords may share it.
    """

    dims: tuple[int, int, int]
    coords: np.ndarray  # (N, 3) int64, canonical order
    feats: np.ndarray  # (N, C) float64 in the encoder, float32 decoded
    rulebook: list | None = field(default=None, compare=False, repr=False)

    @property
    def channel_width(self) -> int:
        return self.feats.shape[1]

    def __len__(self) -> int:
        return self.coords.shape[0]


def _kernel_map(dims, coords, sites, offsets=_OFFSETS) -> np.ndarray:
    """(len(offsets), len(sites)) table whose [t, i] is the row of coords
    at sites[i] + offsets[t], or len(coords) where no row is there.  The
    offsets default to OFFSETS3; sites plus offsets may lie up to one voxel
    outside dims."""
    n = len(coords)
    size = tuple(d + 2 for d in dims)  # a one-voxel border of absent sites
    vol = np.full(size, n, dtype=np.int64)
    vol[tuple((coords + 1).T)] = np.arange(n)
    step = np.array([size[1] * size[2], size[2], 1])
    at = (sites + 1) @ step  # flat index of each site in vol
    return vol.ravel()[at + (offsets @ step)[:, None]]


def _rulebook(dims, coords, sites) -> list:
    """Per tap of OFFSETS3, the (rows of sites, rows of coords) pairs
    where sites[i] + offset is coords[j], in ascending i."""
    table = _kernel_map(dims, coords, sites)
    present = [np.flatnonzero(rows < len(coords)) for rows in table]
    return [(out, rows[out]) for rows, out in zip(table, present)]


def _check_width(feats: np.ndarray, expected: int, what: str) -> None:
    if feats.shape[1] != expected:
        raise ShapeError(
            f"{what}: expected {expected} channels, got {feats.shape[1]}"
        )


class _SparseConv:
    """A 3x3x3 sparse convolution run on a rulebook (see the module
    docstring).  Subclasses give, in _output_sites, the output's dims and
    coords, the rulebook from x's rows to them, and the rulebook the
    output map carries (or None).  The ctx is (x, rulebook)."""

    kind = "sparse_conv"

    def __init__(self, in_ch: int, out_ch: int, rng: np.random.Generator):
        std = np.sqrt(2.0 / (27.0 * in_ch))
        self.weight = rng.normal(0.0, std, size=(27, in_ch, out_ch))
        self.in_ch = in_ch
        self.out_ch = out_ch

    def params(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight}

    def buffers(self) -> dict[str, np.ndarray]:
        return {}

    def forward(self, x: SparseFeatureMap):
        _check_width(x.feats, self.in_ch, type(self).__name__)
        dims, coords, pairs, carried = self._output_sites(x)
        out = np.zeros((len(coords), self.out_ch))
        for (out_rows, in_rows), w in zip(pairs, self.weight):
            out[out_rows] += x.feats[in_rows] @ w
        return SparseFeatureMap(dims, coords, out, carried), (x, pairs)

    def backward(self, ctx, grad_out: np.ndarray):
        x, pairs = ctx
        grad_in = np.zeros_like(x.feats)
        grad_w = np.zeros_like(self.weight)
        for t, (out_rows, in_rows) in enumerate(pairs):
            g = grad_out[out_rows]
            grad_in[in_rows] += g @ self.weight[t].T
            grad_w[t] = x.feats[in_rows].T @ g
        return grad_in, {"weight": grad_w}


class SubmanifoldConv(_SparseConv):
    """3x3x3 stride-1 sparse convolution; output support = input support,
    so the output carries the input's rulebook, built here if absent."""

    def _output_sites(self, x: SparseFeatureMap):
        pairs = x.rulebook or _rulebook(x.dims, x.coords, x.coords)
        return x.dims, x.coords, pairs, pairs


class SparseDownConv(_SparseConv):
    """3x3x3 stride-2 sparse convolution onto the half-resolution lattice;
    an output site exists iff any input voxel falls in its receptive
    field.  Each voxel marks the at most 8 sites whose field holds it on a
    boolean grid of the output dims, and np.argwhere lists the marked
    sites in canonical order."""

    @staticmethod
    def out_dims(dims) -> tuple[int, int, int]:
        return tuple((d + 1) // 2 for d in dims)

    def _output_sites(self, x: SparseFeatureMap):
        odims = self.out_dims(x.dims)
        # input x reaches output u through tap t when x = 2u + OFFSETS3[t],
        # so per axis u is x >> 1 or (x + 1) >> 1; the latter past the last
        # output row is clipped onto x >> 1, which the former marks anyway
        last = np.array(odims) - 1
        ends = (x.coords >> 1, np.minimum((x.coords + 1) >> 1, last))
        hit = np.zeros(odims, dtype=bool)
        for a, b, c in itertools.product(ends, repeat=3):
            hit[a[:, 0], b[:, 1], c[:, 2]] = True
        coords = np.argwhere(hit)
        return odims, coords, _rulebook(x.dims, x.coords, 2 * coords), None


class BatchNorm:
    """Per-channel batch normalization over an (N, C) matrix.

    Training mode normalizes with the batch's mean and biased variance;
    it never touches the running statistics but ends its ctx with the
    batch (mean, var) for commit() to fold in, so passes may run
    concurrently and commit afterwards in their original order.  Eval
    mode is eval_inplace, on the running statistics: it overwrites its
    input and keeps no ctx, so it serves no backward.  An eval forward
    only calls it, so perfbench, which times forward, still sees it.

    Besides its input, forward makes two full-size buffers (xhat and the
    output, which holds the squared deviations until the output overwrites
    them) and backward one (its result); every per-element product is
    formed in place, and every value is computed by the same operations in
    the same order as the textbook expressions in the comments.

    The ctx is a list [xhat, ivar, (mean, var)], and backward empties it:
    its last step scales xhat in place, so a ctx serves one backward.
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
        """(out, [xhat, ivar, (mean, var)]) in training mode; in eval
        mode (eval_inplace(x), None), which overwrites x."""
        if not training:
            return self.eval_inplace(x), None
        _check_width(x, self.ch, "batch norm")
        if x.shape[0] == 0:
            raise DegenerateBatch(
                "batch norm saw zero elements in training mode"
            )
        mu = x.mean(axis=0, dtype=np.float64)
        xhat = x - mu.astype(x.dtype, copy=False)  # xhat = (x - mu) * ivar
        # x.var's operations on the deviations xhat holds, without
        # x.var's float64 copy of a float32 x; out holds their squares
        out = np.square(xhat)
        var = out.sum(axis=0, dtype=np.float64) / len(x)
        ivar = 1.0 / np.sqrt(var + self.eps)
        xhat *= ivar.astype(x.dtype, copy=False)
        np.multiply(xhat, self.gamma.astype(x.dtype, copy=False), out=out)
        out += self.beta.astype(x.dtype, copy=False)
        return out, [xhat, ivar, (mu, var)]

    def eval_inplace(self, x: np.ndarray) -> np.ndarray:
        """gamma * ((x - running_mean) * ivar) + beta in x's dtype, with
        ivar = 1 / sqrt(running_var + eps), written over x and returned."""
        _check_width(x, self.ch, "batch norm")
        dtype = x.dtype
        ivar = 1.0 / np.sqrt(self.running_var + self.eps)
        x -= self.running_mean.astype(dtype, copy=False)
        x *= ivar.astype(dtype, copy=False)
        x *= self.gamma.astype(dtype, copy=False)
        x += self.beta.astype(dtype, copy=False)
        return x

    def commit(self, stats) -> None:
        """Fold one training pass's batch (mean, var) into the running
        statistics."""
        mu, var = stats
        self.running_mean += self.momentum * (mu - self.running_mean)
        self.running_var += self.momentum * (var - self.running_var)

    def backward(self, ctx, grad_out: np.ndarray):
        if not ctx:
            raise StaleCache("BatchNorm backward: ctx already consumed")
        xhat, ivar, _ = ctx
        ctx.clear()
        dtype = xhat.dtype
        gamma = self.gamma.astype(dtype, copy=False)
        grad_beta = grad_out.sum(axis=0, dtype=np.float64)
        buf = np.empty_like(grad_out)
        np.multiply(grad_out, xhat, out=buf)
        grad_gamma = buf.sum(axis=0, dtype=np.float64)
        np.multiply(grad_out, gamma, out=buf)  # dxhat
        # grad_in = ivar / n * (n * dxhat - dxhat.sum(0)
        #                       - xhat * (dxhat * xhat).sum(0))
        n = xhat.shape[0]
        dxhat_sum = buf.sum(axis=0, dtype=np.float64).astype(dtype)
        buf *= xhat
        dxhat_xhat_sum = buf.sum(axis=0, dtype=np.float64).astype(dtype)
        np.multiply(grad_out, gamma, out=buf)  # dxhat again
        buf *= n
        buf -= dxhat_sum
        xhat *= dxhat_xhat_sum
        buf -= xhat
        buf *= (ivar / n).astype(dtype, copy=False)
        return buf, {"gamma": grad_gamma, "beta": grad_beta}


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function that never overflows: with e = exp(-|x|) it is
    1/(1+e) for x >= 0 and e/(1+e) elsewhere."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def site_rows(t) -> np.ndarray:
    """The (sites, C) matrix of a decoder tensor: a sparse map's features,
    or the transposed view of a dense (C, X, Y, Z) tensor."""
    if isinstance(t, SparseFeatureMap):
        return t.feats
    return t.reshape(len(t), -1).T


def unrows(like, rows: np.ndarray):
    """The inverse of site_rows: the decoder tensor laid out as like (its
    sites, or its dense shape) that holds rows."""
    if isinstance(like, SparseFeatureMap):
        return replace(like, feats=rows)
    return rows.T.reshape(like.shape)


def _shift_slices(d: int, size: int) -> tuple[slice, slice]:
    """(source, destination) slices along one axis moving site p to p + d;
    sites shifted off either end are dropped."""
    return (
        slice(max(0, -d), size - max(0, d)),
        slice(max(0, d), size + min(0, d)),
    )


def _parity_views(stride: int) -> list[tuple]:
    """Per parity class (rx, ry, rz) of a stride, in lexicographic order,
    its view [:, rx::s, ry::s, rz::s] of a (C, X, Y, Z) tensor."""
    return [
        (slice(None),) + tuple(slice(r, None, stride) for r in parity)
        for parity in itertools.product(range(stride), repeat=3)
    ]


def _zero_pads(grid: np.ndarray) -> np.ndarray:
    """grid, a (C, X, Y + 1, Z + 1) row-padded lattice, with its pad
    slots set to zero."""
    grid[:, :, -1] = 0
    grid[..., -1] = 0
    return grid


def _lattice(channels: int, dims, dtype) -> np.ndarray:
    """A row-padded lattice for a (channels, *dims) tensor: pad slots
    zero, interior unset."""
    x, y, z = dims
    return _zero_pads(np.empty((channels, x, y + 1, z + 1), dtype))


@dataclass
class Phases:
    """A dense (C, X, Y, Z) tensor held phase-major, as a stride-s layer
    computes it: per parity class, in _parity_views order, the class's
    sub-lattice in the interior of its row-padded lattice (see the module
    docstring), (C, X/s, Y/s + 1, Z/s + 1), whose pad slots are zero.  A
    reader takes the buffers out of data, so a Phases serves one forward;
    len() is the tensor's number of sites, as for a SparseFeatureMap."""

    stride: int
    dims: tuple[int, int, int]  # X, Y, Z
    data: list  # the padded sub-lattices, one per parity class

    def __len__(self) -> int:
        return int(np.prod(self.dims))


@functools.cache
def _phase_table(axis_taps, in_stride: int = 1) -> tuple[list, list]:
    """(phases, gemms) of a dense layer with these axis taps reading an
    input held phase-major at in_stride (see Phases; 1: the whole input).

    phases lists per output phase, in _parity_views order, its view of
    the output, the kernel indices (kx, ky, kz) of its taps, their
    (taps, 3) array of shifts, and per tap (the input phase it reads, its
    row in that phase's GEMM); gemms lists per input phase the kernel
    indices of its GEMM's rows.

    axis_taps[r] lists, for output parity r along one axis, the (k, d)
    pairs of the kernel indices k writing that parity and the shift d
    that takes input site p to phase site p + d; a phase's taps are the
    product of its three axes' pairs, in lexicographic kernel order.  An
    input at stride s splits each output parity of a stride-S layer in s:
    parity r has the taps of axis_taps[r % S], and with u = r // S - d a
    tap reads input parity u mod s at shift -floor(u / s).  The tables
    are cached, one per (axis_taps, in_stride), and only read."""
    stride = len(axis_taps)
    table = []  # per output parity along one axis: its (k, read, shift)
    for r in range(stride * in_stride):
        us = [(k, r // stride - d) for k, d in axis_taps[r % stride]]
        table.append([(k, u % in_stride, -(u // in_stride)) for k, u in us])
    phases, gemms = [], [[] for _ in range(in_stride**3)]
    views = _parity_views(stride * in_stride)
    for view, parity in zip(views, itertools.product(table, repeat=3)):
        taps = [tuple(zip(*kgd)) for kgd in itertools.product(*parity)]
        kernel, reads, shifts = zip(*taps)
        reads = np.ravel_multi_index(tuple(zip(*reads)), (in_stride,) * 3)
        rows = []
        for k, g in zip(kernel, reads.tolist()):
            rows.append((g, len(gemms[g])))
            gemms[g].append(k)
        phases.append((view, list(kernel), np.array(shifts), rows))
    return phases, gemms


class _DenseTapConv:
    """Dense 3-D convolution run as "transform, then shift" (see the
    module docstring).

    Subclasses set the per-axis tap table (see _phase_table), whose
    length is the output stride and whose tap count is the kernel size,
    and the gain of the weights' normal init, std = sqrt(gain / fan_in).
    Each phase owns out[:, rx::s, ry::s, rz::s], which has the input's
    spatial shape.  Forward's GEMM per phase, (taps * C_out, C_in) @
    (C_in, P), runs in chunks of at most _TAPS_PER_GEMM taps into one slab
    buffer (_slabs); the per-input-phase GEMMs of a stride-1 layer given
    Phases run in _products.  The slab buffer and an unkept phase buffer,
    and backward's copy of a phase's view of grad_out (the stride-1 head
    reads grad_out itself) and its (taps, C_out, P) workspace, are each
    allocated once per call and reused by every phase and chunk.

    The ctx is a one-item list holding the input, and backward takes the
    input out of it: a ctx serves one backward, and a caller that hands
    over the only reference lets backward free the input before its last
    grad_in GEMM.
    """

    def __init__(self, in_ch: int, out_ch: int, rng: np.random.Generator):
        k = sum(len(taps) for taps in self.axis_taps)
        std = np.sqrt(self.gain / (k**3 * in_ch))
        self.weight = rng.normal(0.0, std, size=(k, k, k, in_ch, out_ch))
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.phases, _ = _phase_table(self.axis_taps)

    def params(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight}

    def buffers(self) -> dict[str, np.ndarray]:
        return {}

    def _stacked_weight(self, kernel, dtype) -> np.ndarray:
        """(taps * C_out, C_in) matrix of the given taps, tap-major, in
        dtype: one gather, as the head's phase GEMMs stack 27 taps each."""
        w = self.weight[tuple(zip(*kernel))].astype(dtype, copy=False)
        return w.transpose(0, 2, 1).reshape(-1, self.in_ch)

    def input_support(self, mask: np.ndarray) -> np.ndarray:
        """Boolean (1, X, Y, Z) mask of the input sites that the output
        sites set in mask, a (1, sX, sY, sZ) boolean array, read.  The
        taps of a phase are a product of per-axis taps, so the dense
        forward's shift moves, run backwards on the mask, factor into
        per-axis moves: one axis at a time, input p is needed where an
        output of parity r at p + d is, for every (k, d) of axis_taps[r]."""
        stride = len(self.axis_taps)
        need = mask
        for axis in (1, 2, 3):
            size = need.shape[axis] // stride
            shape = need.shape[:axis] + (size,) + need.shape[axis + 1 :]
            out = np.zeros(shape, dtype=bool)
            lead = (slice(None),) * axis
            for r, taps in enumerate(self.axis_taps):
                parity = need[lead + (slice(r, None, stride),)]
                for _, d in taps:
                    src, dst = _shift_slices(d, size)
                    out[lead + (src,)] |= parity[lead + (dst,)]
            need = out
        return need

    def _sparse_forward(self, x: SparseFeatureMap, sites, epilogue):
        _check_width(x.feats, self.in_ch, type(self).__name__)
        dtype = x.feats.dtype
        stride = len(self.axis_taps)
        dims = tuple(stride * n for n in x.dims)
        dense = sites is None
        if dense:  # every output site, in canonical order
            sites = np.indices(dims).reshape(3, -1).T
            out = self._dense_output(dims, stride, dtype, epilogue)
        else:
            out = np.empty((len(sites), self.out_ch), dtype=dtype)
        # a zero last row is what a tap reads where x has no row
        padded = np.concatenate([x.feats, np.zeros((1, self.in_ch), dtype)])
        phase = np.ravel_multi_index(tuple((sites % stride).T), (stride,) * 3)
        lattice = sites // stride  # a phase site, on the input's lattice
        # the plan: per phase holding output sites, its kernel indices, the
        # rows of sites in it and the (taps, rows) table of the row of x
        # each tap reads there (p = site - d), len(x) where x has none
        plan = []
        for i, (view, kernel, shifts, _) in enumerate(self.phases):
            rows = np.flatnonzero(phase == i)
            if not len(rows):
                continue
            table = _kernel_map(x.dims, x.coords, lattice[rows], -shifts)
            plan.append((kernel, rows, table))
            w = self._stacked_weight(kernel, dtype)
            # (N + 1, taps, C_out) products, one row per (row, tap)
            slabs = (padded @ w.T).reshape(-1, self.out_ch)
            buf = np.zeros((len(rows), self.out_ch), dtype=dtype)
            for j, reads in enumerate(table):
                buf += np.take(slabs, reads * len(kernel) + j, axis=0)
            if epilogue is not None:
                epilogue(buf)
            if not dense:
                out[rows] = buf
                continue
            # the phase's rows are its view's sites in C order
            grid = buf.T.reshape((self.out_ch,) + x.dims)
            if isinstance(out, Phases):
                out.data.append(_lattice(self.out_ch, x.dims, dtype))
                out.data[-1][..., :-1, :-1] = grid
            else:
                out[view] = grid
        if not dense:
            out = SparseFeatureMap(dims, sites, out)
        return out, [plan, x]

    def _dense_output(self, dims, stride, dtype, epilogue):
        """The dense (C_out, X, Y, Z) output of a forward whose phases
        stride its dims: an array to write each phase through its view,
        or with an epilogue a Phases to keep each phase in."""
        if epilogue is None:
            return np.empty((self.out_ch,) + tuple(dims), dtype)
        return Phases(stride, tuple(dims), [])

    def _sparse_backward(self, plan, x: SparseFeatureMap, grad_out):
        dtype = x.feats.dtype
        padded = np.concatenate([x.feats, np.zeros((1, self.in_ch), dtype)])
        grad_in = np.zeros_like(padded)
        grad_w = np.zeros_like(self.weight)
        taps = len(self.phases[0][1])  # every phase has as many
        # (N + 1, taps * C_out): per input row, each tap's grad_out row,
        # one buffer that every phase re-zeroes; its slots view holds each
        # (C_out,) row as one item, so a row assignment is one item copy
        spread = np.empty((len(padded), taps * self.out_ch), dtype)
        item = np.dtype((np.void, self.out_ch * spread.itemsize))
        slots = spread.reshape(-1, self.out_ch).view(item)[:, 0]
        for kernel, rows, table in plan:
            g = np.ascontiguousarray(site_rows(grad_out)[rows])
            # a tap sends each output row to its own input row, so the
            # adjoint of forward's gather is an assignment; outputs that
            # read nothing land on the zero row, which adds nothing to
            # grad_w and whose grad_in is dropped
            spread.fill(0)
            for j, reads in enumerate(table):
                slots[reads * taps + j] = g.view(item)[:, 0]
            gw = (padded.T @ spread).reshape(self.in_ch, taps, -1)
            for j, k in enumerate(kernel):
                grad_w[k] = gw[:, j]
            grad_in += spread @ self._stacked_weight(kernel, dtype)
        grad_x = SparseFeatureMap(x.dims, x.coords, grad_in[:-1])
        return grad_x, {"weight": grad_w}

    def forward(self, x, sites: np.ndarray | None = None, epilogue=None):
        """Dense: x is (C_in, X, Y, Z), or Phases holding it; returns
        the (C_out, sX, sY, sZ) output and the ctx [x].  Sparse: x is a
        SparseFeatureMap, absent rows reading as zero, and sites the
        (M, 3) output sites; returns the output map on sites, or with
        sites None the dense output, and the ctx [plan, x].

        epilogue, for a forward that serves no backward, is a function
        applied in place to each phase's (sites, C_out) rows once they are
        summed; a dense output is then returned as Phases.  A forward
        consumes Phases: a strided layer interleaves them into its padded
        input, and a stride-1 layer reads them as they are (_products)."""
        if isinstance(x, SparseFeatureMap):
            return self._sparse_forward(x, sites, epilogue)
        grids = x.data if isinstance(x, Phases) else [x]
        if not grids:
            raise StaleCache(f"{type(self).__name__}: Phases already consumed")
        if grids[0].ndim != 4 or grids[0].shape[0] != self.in_ch:
            raise ShapeError(
                f"{type(self).__name__} expects ({self.in_ch}, X, Y, Z),"
                f" got {grids[0].shape}"
            )
        dtype, lattice = grids[0].dtype, grids[0].shape[1:]
        stride = len(self.axis_taps)
        if isinstance(x, Phases) and stride == 1:  # in the phase domain
            stride = x.stride
            phases, gemms = _phase_table(self.axis_taps, stride)
            slabs = self._products(phases, gemms, grids)
        else:
            padded = self._padded(x)
            phases, lattice = self.phases, padded.shape[1:]
            slabs = self._slabs(padded)
        n = int(np.prod(lattice))
        step = np.array([lattice[1] * lattice[2], lattice[2], 1])
        size = (lattice[0], lattice[1] - 1, lattice[2] - 1)  # one phase
        dims = [stride * k for k in size]
        out = self._dense_output(dims, stride, dtype, epilogue)
        keep = isinstance(out, Phases)  # each phase keeps its own buffer
        buf = None if keep else np.empty((self.out_ch, n), dtype)
        for i, (view, _, shifts, _) in enumerate(phases):
            if keep:
                buf = np.empty((self.out_ch, n), dtype)
            buf.fill(0)
            for t, off in zip(slabs(i), (shifts @ step).tolist()):
                a, b = max(0, -off), n - max(0, off)
                if a < b:
                    buf[:, a + off : b + off] += t[:, a:b]
            if epilogue is not None:
                epilogue(buf.T)
            grid = buf.reshape((self.out_ch,) + lattice)
            if keep:
                out.data.append(_zero_pads(grid))
            else:
                out[view] = grid[..., :-1, :-1]
        return out, [x]

    def _padded(self, x) -> np.ndarray:
        """The row-padded lattice of x, a (C, X, Y, Z) array or Phases
        (which it consumes): a one-site shift off y or z lands on a zero
        slot, and a shift off x leaves the flat array."""
        if not isinstance(x, Phases):
            return np.pad(x, ((0, 0), (0, 0), (0, 1), (0, 1)))
        padded = _lattice(self.in_ch, x.dims, x.data[0].dtype)
        interior = padded[..., :-1, :-1]
        for view, grid in zip(_parity_views(x.stride), x.data):
            interior[view] = grid[..., :-1, :-1]
        x.data.clear()
        return padded

    def _slabs(self, padded):
        """slabs(i): the (C_out, P) products of phase i's taps with the
        padded input, in tap order, from GEMMs of at most _TAPS_PER_GEMM
        taps into one slab buffer that every phase reuses."""
        flat = padded.reshape(self.in_ch, -1)
        chunk = min(_TAPS_PER_GEMM, len(self.phases[0][1]))
        slab = np.empty((chunk * self.out_ch, flat.shape[1]), flat.dtype)

        def slabs(i):
            kernel = self.phases[i][1]
            for lo in range(0, len(kernel), _TAPS_PER_GEMM):
                taps = kernel[lo : lo + _TAPS_PER_GEMM]
                w = self._stacked_weight(taps, flat.dtype)
                prods = np.matmul(w, flat, out=slab[: len(w)])
                yield from prods.reshape(len(taps), self.out_ch, -1)

        return slabs

    def _products(self, phases, gemms, grids):
        """slabs(i): the (C_out, P) products of phase i's taps, in tap
        order, from one GEMM per input phase (see _phase_table).  It
        empties grids, the input phases, as it goes, so each is freed once
        its GEMM is done and the products never meet all of them."""
        prods = []
        for kernel in gemms:
            flat = grids.pop(0).reshape(self.in_ch, -1)
            w = self._stacked_weight(kernel, flat.dtype)
            prods.append((w @ flat).reshape(len(kernel), self.out_ch, -1))
            del flat
        return lambda i: [prods[g][j] for g, j in phases[i][3]]

    def backward(self, ctx, grad_out):
        """Dense: grad_out is (C_out, sX, sY, sZ) and the input gradient
        is dense too.  Sparse: grad_out is a map on forward's output sites,
        or dense when forward was given no sites, and the input gradient
        a map on x's sites."""
        if not ctx:
            raise StaleCache(
                f"{type(self).__name__} backward: ctx already consumed"
            )
        if isinstance(ctx[-1], SparseFeatureMap):
            x = ctx.pop()
            return self._sparse_backward(ctx.pop(), x, grad_out)
        shape, dtype = ctx[0].shape, ctx[0].dtype
        flat = ctx.pop().reshape(self.in_ch, -1)
        size, n = shape[1:], flat.shape[1]
        step = np.array([size[1] * size[2], size[2], 1])
        grad_in = None
        grad_w = np.zeros_like(self.weight)
        g = np.empty((self.out_ch,) + size, grad_out.dtype)
        taps = len(self.phases[0][1])
        work = np.empty((taps, self.out_ch, n), dtype)
        for i, (view, kernel, shifts, _) in enumerate(self.phases):
            g[...] = grad_out[view]
            src = g.reshape(self.out_ch, n)
            offsets = (shifts @ step).tolist()
            for rows, d, off in zip(work, shifts.tolist(), offsets):
                a, b = max(0, -off), n - max(0, off)
                if a < b:
                    rows[:, a:b] = src[:, a + off : b + off]
                # the sites p whose p + d leaves the box read zero: one
                # face slab per shifted axis, which holds the flat ends
                grid = rows.reshape((self.out_ch,) + size)
                for axis, (dk, k) in enumerate(zip(d, size), 1):
                    if dk:
                        edge = slice(k - dk, None) if dk > 0 else slice(-dk)
                        grid[(slice(None),) * axis + (edge,)] = 0
            shifted = work.reshape(taps * self.out_ch, n)
            gw = (shifted @ flat.T).reshape(len(kernel), self.out_ch, -1)
            for k, gk in zip(kernel, gw):
                grad_w[k] = gk.T
            if i == len(self.phases) - 1:
                del flat  # last use of the input
            part = self._stacked_weight(kernel, dtype).T @ shifted
            if grad_in is None:
                grad_in = part
            else:
                grad_in += part
        return grad_in.reshape(shape), {"weight": grad_w}


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
    out[v] = sum_k W[k]^T x[v + k - 1] + bias, one phase of 27 taps.  The
    bias is added to, and its gradient summed over, the site_rows view of
    the output, dense or sparse."""

    kind = "dense_conv"
    axis_taps = (((0, 1), (1, 0), (2, -1)),)
    gain = 1.0

    def __init__(self, in_ch: int, out_ch: int, rng: np.random.Generator):
        super().__init__(in_ch, out_ch, rng)
        self.bias = np.zeros(out_ch)

    def params(self) -> dict[str, np.ndarray]:
        return {"weight": self.weight, "bias": self.bias}

    def forward(self, x, sites: np.ndarray | None = None):
        out, ctx = super().forward(x, sites)
        rows = site_rows(out)
        rows += self.bias.astype(rows.dtype, copy=False)
        return out, ctx

    def backward(self, ctx, grad_out):
        grad_in, grads = super().backward(ctx, grad_out)
        grads["bias"] = site_rows(grad_out).sum(axis=0, dtype=np.float64)
        return grad_in, grads

