"""Sparse encoder / dense decoder for voxel occupancy reconstruction.

OccupancyNet is two lists of named stages plus a head, built in
named_layers() order (the order of its rng draws); forward, backward and
named_layers() all walk the two lists, backward in reverse.

- encoder: units (conv name, conv, bn name, bn, residual), each
  conv -> batch norm -> (+ the block's input when residual) -> ReLU: a
  submanifold stem, then per resolution a stride-2 sparse downsample
  (none at full resolution) and a residual block of two submanifold
  units, the second adding the first one's input.  A unit's output map
  keeps its conv output's rulebook (SparseFeatureMap.rulebook): the
  first submanifold conv at each resolution builds it and the others at
  that resolution reuse it.
- decoder: stages (deconv name, deconv, bn name, bn), each stride-2
  transposed conv -> batch norm -> ReLU, from the sparse coarsest latent
  (absent sites read as zero) to full resolution, where a 3x3x3 head
  emits one logit per voxel.  The first decoder layer (the head in a
  one-stage net) always runs sparse and reads only the latent's present
  rows ("transform, then gather"; see layers).

Every conv but the head feeds a batch norm, whose mean subtraction would
cancel a bias (Ioffe & Szegedy 2015), so only the head has one.

Without a query the first decoder layer computes every site of its
output and hands the dense tensor to the dense layers after it.  Every
dense decoder tensor, in training and in eval, and every gradient of one,
is held in one form: phase-major, as layers.Phases, each deconv's output
kept as the phase buffers it computed them in; the head reads them where
they lie, and only its 1-channel logits are interleaved.  Given a query
(the cells a loss reads), every decoder layer runs sparse: the head
computes only the query cells, deconv1 only the sites the head reads,
deconv0 only the sites deconv1 reads.  Each decoder batch norm then
normalizes over its decoded support, as batch norm does over active sites
in sparse-conv networks; over the full grid this is the dense decode.
The logits outside the query are NaN.

A training forward's tape keeps what each layer's backward reads (a
ReLU's output stays as the next layer's input, or as the latent, and
backward takes the ReLU's mask from it), and backward consumes it.
Every training batch norm is one channel-major BatchNorm call (see
layers) on the tensor its conv returned, and backward applies the ReLU
mask and the batch-norm adjoint to the gradient in the form it comes
in.  An eval forward keeps neither encoder units nor decoder stages, so
its tape serves no backward.  Its batch norms run eval_inplace over
their conv's fresh output: an encoder unit's through BatchNorm.forward
after the conv, a decoder stage's (and ReLU) as the deconv's epilogue,
with the unfused stage's bytes, on each phase buffer while it is in
cache; a training batch norm needs the whole output's statistics first.

The decoder computes in DECODER_DTYPE (float32): the latent, cast on
entry, each deconv, batch norm and ReLU, and the head.  Everything that
persists stays float64 (mixed precision with float64 master weights,
Micikevicius et al. 2018): the parameters and the gradients backward
returns, the batch norms' batch and running statistics, the encoder, and
the logits forward hands to the loss.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import ShapeError, StaleCache
from ..voxelizer import VoxelGrid
from .layers import (
    BatchNorm,
    DenseConv,
    DenseDeconv,
    Phases,
    SparseDownConv,
    SparseFeatureMap,
    SubmanifoldConv,
)

# the dtype the dense decoder computes in; see the module docstring
DECODER_DTYPE = np.float32

# the most channels a stage, or the input, may have: 16 times the default's
# widest.  A 1024-to-1024 3x3x3 conv holds 216 MiB of float64 weights, and
# Adam keeps two more copies.
MAX_STAGE_CHANNELS = 1024


@dataclass(frozen=True)
class NetConfig:
    in_channels: int = 4
    stage_channels: tuple[int, ...] = (16, 32, 64)
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.in_channels < 1 or len(self.stage_channels) < 1:
            raise ValueError("need at least one input channel and one stage")
        if any(c < 1 for c in self.stage_channels):
            raise ValueError("stage channels must be positive")
        if self.in_channels > MAX_STAGE_CHANNELS:
            raise ValueError(f"in_channels exceeds {MAX_STAGE_CHANNELS}")
        if max(self.stage_channels) > MAX_STAGE_CHANNELS:
            raise ValueError(
                f"stage_channels {list(self.stage_channels)} exceed the cap"
                f" of {MAX_STAGE_CHANNELS} per stage"
            )
        if not self.bn_eps > 0:
            raise ValueError("bn_eps must be positive")
        if not 0.0 <= self.bn_momentum <= 1.0:
            raise ValueError("bn_momentum must lie in [0, 1]")

    @property
    def downsample_factor(self) -> int:
        return 2 ** (len(self.stage_channels) - 1)

    @property
    def latent_width(self) -> int:
        return self.stage_channels[-1]


@dataclass
class OccupancyPrediction:
    logits: np.ndarray  # (nx, ny, nz) float64, pre-sigmoid


def _arrays(t) -> list:
    """The arrays holding a decoder tensor: a sparse map's features, or
    the phase buffers of Phases."""
    return t.data if isinstance(t, Phases) else [t.feats]


class OccupancyNet:
    """The autoencoder; construct with OccupancyNet.create(config)."""

    def __init__(self, config: NetConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        ch = config.stage_channels

        def bn(c: int) -> BatchNorm:
            return BatchNorm(c, config.bn_eps, config.bn_momentum)

        stem = SubmanifoldConv(config.in_channels, ch[0], rng)
        self.encoder = [("stem", stem, "stem_bn", bn(ch[0]), False)]
        for i, (prev, cur) in enumerate(zip(ch[:1] + ch, ch)):
            if i:  # no downsample at full resolution
                down = SparseDownConv(prev, cur, rng)
                self.encoder.append(
                    (f"down{i}", down, f"down{i}_bn", bn(cur), False)
                )
            for j in (1, 2):  # the residual block; unit 2 adds its input
                conv = SubmanifoldConv(cur, cur, rng)
                conv_name, bn_name = f"block{i}.conv{j}", f"block{i}.bn{j}"
                unit = (conv_name, conv, bn_name, bn(cur), j == 2)
                self.encoder.append(unit)
        rev = ch[::-1]
        self.decoder = [
            (f"deconv{i}", DenseDeconv(c, n, rng), f"deconv{i}_bn", bn(n))
            for i, (c, n) in enumerate(zip(rev, rev[1:]))
        ]
        self.head = DenseConv(ch[0], 1, rng)

    @classmethod
    def create(cls, config: NetConfig | None = None) -> "OccupancyNet":
        return cls(config or NetConfig())

    # --- parameter plumbing -------------------------------------------------

    def named_layers(self) -> list[tuple[str, object]]:
        out = []
        for conv_name, conv, bn_name, bn, *_ in self.encoder + self.decoder:
            out += [(conv_name, conv), (bn_name, bn)]
        return out + [("head", self.head)]

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """("layer.tensor", array) of each layer's params."""
        return [
            (f"{lname}.{tname}", arr)
            for lname, layer in self.named_layers()
            for tname, arr in layer.params().items()
        ]

    def commit_batch_stats(self, stats) -> None:
        """Fold the batch statistics of one training forward (its tape's
        "bn_stats") into the batch norms' running statistics."""
        layers = dict(self.named_layers())
        for bn_name, batch_stats in stats:
            layers[bn_name].commit(batch_stats)

    # --- forward / backward -------------------------------------------------

    def _coarse_dims(self, dims) -> tuple[int, int, int]:
        f = self.config.downsample_factor
        if any(d % f != 0 for d in dims):
            raise ShapeError(
                f"grid dims {tuple(dims)} must be divisible by the"
                f" downsample factor {f}"
            )
        return tuple(d // f for d in dims)

    def forward(
        self,
        visible: SparseFeatureMap,
        training: bool = False,
        query: np.ndarray | None = None,
    ):
        """Run the autoencoder; returns (OccupancyPrediction, tape).

        With query, an (M, 3) array of cells, only those cells' logits are
        computed (see the module docstring); the others are NaN.  The
        running statistics are left alone: a training forward lists each
        batch norm's (name, (mean, var)) in tape["bn_stats"], in forward
        order, for commit_batch_stats()."""
        if visible.channel_width != self.config.in_channels:
            raise ShapeError(
                f"expected {self.config.in_channels} input channels, got"
                f" {visible.channel_width}"
            )
        coarse = self._coarse_dims(visible.dims)
        stats: list = []
        units: list = []
        stages: list = []
        tape = {
            "training": training,
            "bn_stats": stats,
            "encoder": units,
            "decoder": stages,
        }

        x = skip = visible  # skip: the previous unit's input
        if len(visible):
            for _, conv, bn_name, bn, residual in self.encoder:
                y, c_conv = conv.forward(x)
                f, c_bn = bn.forward(y.feats, training)
                if training:
                    stats.append((bn_name, c_bn[2]))
                    units.append((c_conv, c_bn))
                f = np.maximum(skip.feats + f if residual else f, 0.0)
                skip, x = x, replace(y, feats=f)
        else:
            x = SparseFeatureMap(
                coarse,
                np.empty((0, 3), dtype=np.int64),
                np.empty((0, self.config.latent_width)),
            )
        tape["latent"] = x

        if query is None:
            supports = [None] * (len(self.decoder) + 1)
        else:
            supports = self._supports(query, visible.dims)
        x = replace(x, feats=x.feats.astype(DECODER_DTYPE))
        for (_, deconv, bn_name, bn), sites in zip(self.decoder, supports):
            if not training:  # the stage epilogue; see the module docstring

                def epilogue(rows, bn=bn):
                    np.maximum(bn.eval_inplace(rows), 0.0, out=rows)

                x, _ = deconv.forward(x, sites, epilogue)
                continue
            y, ctx = deconv.forward(x, sites)
            x, c_bn = bn.forward(y, training=True)
            stats.append((bn_name, c_bn[2]))
            stages.append((ctx, c_bn))
            del y
            for a in _arrays(x):
                np.maximum(a, 0.0, out=a)  # ReLU
        y, ctx = self.head.forward(x, supports[-1])
        if query is None:
            tape["head"] = ctx, replace(y, data=[])
            logits = y.interleave(np.empty((1,) + tuple(visible.dims)))
            return OccupancyPrediction(logits[0]), tape
        tape["head"] = ctx, y
        logits = np.full(tuple(visible.dims), np.nan)
        logits[tuple(y.coords.T)] = y.feats[:, 0]
        return OccupancyPrediction(logits), tape

    def _supports(self, query: np.ndarray, dims) -> list[np.ndarray]:
        """The output sites of each decoder stage and of the head when
        only the query cells are decoded: the query cells, and what each
        layer's output sites read of its input, back to deconv0's output."""
        need = np.zeros((1,) + tuple(dims), dtype=bool)
        need[(0,) + tuple(np.asarray(query).reshape(-1, 3).T)] = True
        sites = [np.argwhere(need[0])]
        readers = [self.head] + [d for _, d, _, _ in self.decoder[:0:-1]]
        for layer in readers:
            need = layer.input_support(need)
            sites.append(np.argwhere(need[0]))
        return sites[::-1]

    def backward(self, tape, grad_logits: np.ndarray) -> dict[str, np.ndarray]:
        """Reverse pass for a completed training forward's tape; returns a
        dict of parameter gradients keyed, and ordered, like parameters():
        each layer's own arrays, with zeros for the encoder's when it saw
        nothing.  Each tape entry is popped as it is used, so a tape
        serves one backward; only tape["bn_stats"] is left."""
        if not tape.get("training") or "latent" not in tape:
            raise StaleCache(
                "backward needs the tape of a training forward not yet run"
                " backward"
            )
        params = self.parameters()
        grads = dict.fromkeys(path for path, _ in params)

        def store(name, sub):
            for k, v in sub.items():
                v += 0.0  # no -0.0: a sum from v is then one from zeros
                grads[f"{name}.{k}"] = v

        latent = tape.pop("latent")
        stages = tape.pop("decoder")
        ctx, y = tape.pop("head")
        if isinstance(y, Phases):
            g = Phases.split(grad_logits[None], y.stride, DECODER_DTYPE)
        else:
            rows = grad_logits[tuple(y.coords.T)][:, None]
            g = replace(y, feats=rows.astype(DECODER_DTYPE))
        layer, name = self.head, "head"
        for deconv_name, deconv, bn_name, bn in reversed(self.decoder):
            deconv_ctx, c_bn = stages.pop()
            # the mask of the ReLU feeding layer, from its input
            keep = [a > 0.0 for a in _arrays(ctx[-1])]
            g, sub = layer.backward(ctx, g)
            store(name, sub)
            for a, k in zip(_arrays(g), keep):
                np.multiply(a, k, out=a)  # relu_backward
            del keep
            g, sub = bn.backward(c_bn, g)
            del c_bn
            store(bn_name, sub)
            layer, name, ctx = deconv, deconv_name, deconv_ctx
        g, sub = layer.backward(ctx, g)
        store(name, sub)

        g = g.feats.astype(latent.feats.dtype)
        units = tape.pop("encoder")  # empty when the encoder saw nothing
        g_skip = None  # gradient into a residual block's input via its skip
        out = latent  # the output of the unit being walked back
        for conv_name, conv, bn_name, bn, residual in reversed(
            self.encoder[: len(units)]
        ):
            c_conv, c_bn = units.pop()
            g = g * (out.feats > 0.0)  # relu_backward
            out = c_conv[0]  # the conv's input: the previous unit's output
            g_sum = g if residual else None
            g, sub = bn.backward(c_bn, g)
            store(bn_name, sub)
            g, sub = conv.backward(c_conv, g)
            store(conv_name, sub)
            if g_skip is not None:
                g = g + g_skip
            g_skip = g_sum
        for path, arr in params:  # the layers backward did not reach
            if grads[path] is None:
                grads[path] = np.zeros_like(arr)
        return grads


def visible_features(grid: VoxelGrid, visible: np.ndarray) -> SparseFeatureMap:
    """SparseFeatureMap of the voxels a mask left visible."""
    rows = np.flatnonzero(visible) if visible.dtype == bool else visible
    return SparseFeatureMap(
        tuple(grid.geometry.dims),
        grid.coords[rows],
        grid.feats[rows],
    )
