"""Sparse-encoder / dense-decoder occupancy network."""

from .checkpoint import load_checkpoint, save_checkpoint
from .layers import (
    BatchNorm,
    DenseConv,
    DenseDeconv,
    Phases,
    SparseDownConv,
    SparseFeatureMap,
    SubmanifoldConv,
)
from .loss import QueryConfig, build_query_set, occupancy_loss
from .network import (
    NetConfig,
    OccupancyNet,
    OccupancyPrediction,
    visible_features,
)
