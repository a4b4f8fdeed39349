"""Sparse encoder / dense decoder for voxel occupancy reconstruction.

Encoder: a submanifold stem plus one residual block per stage, with
stride-2 sparse downsampling between stages.  The per-voxel latent at the
coarsest resolution is densified (absent sites are zero) and a stack of
stride-2 transposed convolutions restores full resolution; a 3x3x3 head
emits one logit per voxel.  backward() mirrors forward() exactly and
returns gradients for every parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError, StaleCache
from ..voxelizer import VoxelGrid
from .layers import (
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
    sigmoid,
)


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

    @property
    def downsample_factor(self) -> int:
        return 2 ** (len(self.stage_channels) - 1)

    @property
    def latent_width(self) -> int:
        return self.stage_channels[-1]


@dataclass
class OccupancyPrediction:
    logits: np.ndarray  # (nx, ny, nz) float64, pre-sigmoid

    @property
    def probabilities(self) -> np.ndarray:
        return sigmoid(self.logits)


class _ResidualBlock:
    """conv-bn-relu-conv-bn plus identity skip, relu after the sum."""

    def __init__(self, ch: int, cfg: NetConfig, rng):
        self.conv1 = SubmanifoldConv(ch, ch, rng)
        self.bn1 = BatchNorm(ch, cfg.bn_eps, cfg.bn_momentum)
        self.conv2 = SubmanifoldConv(ch, ch, rng)
        self.bn2 = BatchNorm(ch, cfg.bn_eps, cfg.bn_momentum)

    def sublayers(self):
        return [
            ("conv1", self.conv1),
            ("bn1", self.bn1),
            ("conv2", self.conv2),
            ("bn2", self.bn2),
        ]

    def forward(self, x: SparseFeatureMap, training: bool):
        h, c_conv1 = self.conv1.forward(x)
        f, c_bn1 = self.bn1.forward(h.feats, training)
        f, c_relu1 = relu(f)
        h2, c_conv2 = self.conv2.forward(
            SparseFeatureMap(x.dims, x.coords, f)
        )
        f2, c_bn2 = self.bn2.forward(h2.feats, training)
        s, c_relu2 = relu(x.feats + f2)
        ctx = (c_conv1, c_bn1, c_relu1, c_conv2, c_bn2, c_relu2)
        return SparseFeatureMap(x.dims, x.coords, s), ctx

    def backward(self, ctx, grad_out: np.ndarray):
        c_conv1, c_bn1, c_relu1, c_conv2, c_bn2, c_relu2 = ctx
        g_sum = relu_backward(c_relu2, grad_out)
        g, bn2_g = self.bn2.backward(c_bn2, g_sum)
        g, conv2_g = self.conv2.backward(c_conv2, g)
        g = relu_backward(c_relu1, g)
        g, bn1_g = self.bn1.backward(c_bn1, g)
        g, conv1_g = self.conv1.backward(c_conv1, g)
        grads = {}
        for name, sub in (
            ("conv1", conv1_g),
            ("bn1", bn1_g),
            ("conv2", conv2_g),
            ("bn2", bn2_g),
        ):
            for k, v in sub.items():
                grads[f"{name}.{k}"] = v
        return g + g_sum, grads


class OccupancyNet:
    """The autoencoder; construct with OccupancyNet.create(config)."""

    def __init__(self, config: NetConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        ch = config.stage_channels
        self.stem = SubmanifoldConv(config.in_channels, ch[0], rng)
        self.stem_bn = BatchNorm(ch[0], config.bn_eps, config.bn_momentum)
        self.blocks = [_ResidualBlock(ch[0], config, rng)]
        self.downs = []
        for prev, cur in zip(ch, ch[1:]):
            self.downs.append(
                (
                    SparseDownConv(prev, cur, rng),
                    BatchNorm(cur, config.bn_eps, config.bn_momentum),
                )
            )
            self.blocks.append(_ResidualBlock(cur, config, rng))
        self.deconvs = []
        for cur, prev in zip(ch[::-1], ch[::-1][1:]):
            self.deconvs.append(
                (
                    DenseDeconv(cur, prev, rng),
                    BatchNorm(prev, config.bn_eps, config.bn_momentum),
                )
            )
        self.head = DenseConv(ch[0], 1, rng)

    @classmethod
    def create(cls, config: NetConfig | None = None) -> "OccupancyNet":
        return cls(config or NetConfig())

    # --- parameter plumbing -------------------------------------------------

    def named_layers(self) -> list[tuple[str, object]]:
        out = [("stem", self.stem), ("stem_bn", self.stem_bn)]
        for name, sub in self.blocks[0].sublayers():
            out.append((f"block0.{name}", sub))
        for i, (down, bn) in enumerate(self.downs):
            out.append((f"down{i + 1}", down))
            out.append((f"down{i + 1}_bn", bn))
            for name, sub in self.blocks[i + 1].sublayers():
                out.append((f"block{i + 1}.{name}", sub))
        for i, (deconv, bn) in enumerate(self.deconvs):
            out.append((f"deconv{i}", deconv))
            out.append((f"deconv{i}_bn", bn))
        out.append(("head", self.head))
        return out

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for lname, layer in self.named_layers():
            for pname, arr in layer.params().items():
                out.append((f"{lname}.{pname}", arr))
        return out

    def buffers(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for lname, layer in self.named_layers():
            for pname, arr in layer.buffers().items():
                out.append((f"{lname}.{pname}", arr))
        return out

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {path: np.zeros_like(arr) for path, arr in self.parameters()}

    # --- forward / backward -------------------------------------------------

    def _coarse_dims(self, dims) -> tuple[int, int, int]:
        f = self.config.downsample_factor
        if any(d % f != 0 for d in dims):
            raise ShapeError(
                f"grid dims {tuple(dims)} must be divisible by the"
                f" downsample factor {f}"
            )
        return tuple(d // f for d in dims)

    def forward(self, visible: SparseFeatureMap, training: bool = False):
        """Run the autoencoder; returns (OccupancyPrediction, tape)."""
        if visible.channel_width != self.config.in_channels:
            raise ShapeError(
                f"expected {self.config.in_channels} input channels, got"
                f" {visible.channel_width}"
            )
        coarse = self._coarse_dims(visible.dims)
        tape: dict = {"dims": tuple(visible.dims), "training": training}

        if len(visible):
            x, c = self.stem.forward(visible)
            tape["stem"] = c
            f, c = self.stem_bn.forward(x.feats, training)
            tape["stem_bn"] = c
            f, c = relu(f)
            tape["stem_relu"] = c
            x = SparseFeatureMap(x.dims, x.coords, f)
            x, c = self.blocks[0].forward(x, training)
            tape["blocks"] = [c]
            tape["downs"] = []
            for i, (down, bn) in enumerate(self.downs):
                y, c_down = down.forward(x)
                f, c_bn = bn.forward(y.feats, training)
                f, c_relu = relu(f)
                tape["downs"].append((c_down, c_bn, c_relu))
                x = SparseFeatureMap(y.dims, y.coords, f)
                x, c = self.blocks[i + 1].forward(x, training)
                tape["blocks"].append(c)
            latent = x
            if tuple(latent.dims) != coarse:
                raise ShapeError(
                    f"latent dims {latent.dims} do not match expected"
                    f" {coarse}"
                )
        else:
            latent = SparseFeatureMap(
                coarse,
                np.empty((0, 3), dtype=np.int64),
                np.empty((0, self.config.latent_width)),
            )
        tape["latent"] = latent

        dense = densify(latent)
        tape["deconvs"] = []
        for deconv, bn in self.deconvs:
            dense, c_deconv = deconv.forward(dense)
            shape = dense.shape
            mat = dense.reshape(shape[0], -1).T
            mat, c_bn = bn.forward(mat, training)
            mat, c_relu = relu(mat)
            tape["deconvs"].append((c_deconv, shape, c_bn, c_relu))
            dense = mat.T.reshape(shape)
        logits4, c = self.head.forward(dense)
        tape["head"] = c
        return OccupancyPrediction(logits4[0]), tape

    def backward(self, tape, grad_logits: np.ndarray) -> dict[str, np.ndarray]:
        """Reverse pass for a completed forward tape; returns a dict of
        parameter gradients keyed like parameters()."""
        if not tape or "head" not in tape:
            raise StaleCache("backward called without a forward tape")
        grads = self.zero_grads()

        def store(prefix, sub):
            for k, v in sub.items():
                grads[f"{prefix}.{k}"] += v

        g_dense, head_g = self.head.backward(tape["head"], grad_logits[None])
        store("head", head_g)
        for i in range(len(self.deconvs) - 1, -1, -1):
            deconv, bn = self.deconvs[i]
            c_deconv, shape, c_bn, c_relu = tape["deconvs"][i]
            gmat = g_dense.reshape(shape[0], -1).T
            gmat = relu_backward(c_relu, gmat)
            gmat, bn_g = bn.backward(c_bn, gmat)
            store(f"deconv{i}_bn", bn_g)
            g_dense, deconv_g = deconv.backward(
                c_deconv, gmat.T.reshape(shape)
            )
            store(f"deconv{i}", deconv_g)

        latent = tape["latent"]
        g_feats = densify_backward(latent, g_dense)
        if "stem" not in tape:
            return grads  # empty visible set: encoder saw nothing

        for i in range(len(self.downs) - 1, -1, -1):
            g_feats, block_g = self.blocks[i + 1].backward(
                tape["blocks"][i + 1], g_feats
            )
            store(f"block{i + 1}", block_g)
            down, bn = self.downs[i]
            c_down, c_bn, c_relu = tape["downs"][i]
            g_feats = relu_backward(c_relu, g_feats)
            g_feats, bn_g = bn.backward(c_bn, g_feats)
            store(f"down{i + 1}_bn", bn_g)
            g_feats, down_g = down.backward(c_down, g_feats)
            store(f"down{i + 1}", down_g)

        g_feats, block_g = self.blocks[0].backward(tape["blocks"][0], g_feats)
        store("block0", block_g)
        g_feats = relu_backward(tape["stem_relu"], g_feats)
        g_feats, bn_g = self.stem_bn.backward(tape["stem_bn"], g_feats)
        store("stem_bn", bn_g)
        _, stem_g = self.stem.backward(tape["stem"], g_feats)
        store("stem", stem_g)
        return grads


def visible_features(grid: VoxelGrid, visible: np.ndarray) -> SparseFeatureMap:
    """SparseFeatureMap of the voxels a mask left visible."""
    rows = np.flatnonzero(visible) if visible.dtype == bool else visible
    return SparseFeatureMap(
        tuple(grid.geometry.dims),
        grid.coords[rows],
        grid.feats[rows].astype(np.float64),
    )
