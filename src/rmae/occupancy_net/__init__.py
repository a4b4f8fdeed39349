"""Sparse-encoder / dense-decoder occupancy network."""

from .checkpoint import load_checkpoint, save_checkpoint
from .layers import (
    BatchNorm,
    DenseConv,
    DenseDeconv,
    SparseDownConv,
    SparseFeatureMap,
    SubmanifoldConv,
    densify,
    relu,
)
from .loss import QueryConfig, build_query_set, occupancy_loss
from .network import (
    NetConfig,
    OccupancyNet,
    OccupancyPrediction,
    visible_features,
)

__all__ = [
    "BatchNorm",
    "DenseConv",
    "DenseDeconv",
    "NetConfig",
    "OccupancyNet",
    "OccupancyPrediction",
    "QueryConfig",
    "SparseDownConv",
    "SparseFeatureMap",
    "SubmanifoldConv",
    "build_query_set",
    "densify",
    "load_checkpoint",
    "occupancy_loss",
    "relu",
    "save_checkpoint",
    "visible_features",
]
