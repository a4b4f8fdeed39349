"""rmae: frugal-LiDAR radial masking, occupancy pre-training, and energy
modeling at desk scale."""

__version__ = "0.1.0"

from .energy_model import (
    EnergyParams,
    EnergyReport,
    FrugalReport,
    frugal_savings,
    total_power,
)
from .occupancy_net import (
    NetConfig,
    OccupancyNet,
    QueryConfig,
    load_checkpoint,
    save_checkpoint,
)
from .pointcloud import (
    PointCloud,
    SceneSpec,
    load_kitti_bin,
    save_kitti_bin,
    synth_scene,
)
from .radial_mask import MaskConfig, MaskOutcome, MaskStats, apply_mask
from .trainer import TrainConfig, evaluate, pretrain
from .voxelizer import GridGeometry, VoxelGrid, occupancy_of, voxelize

__all__ = [
    "EnergyParams",
    "EnergyReport",
    "FrugalReport",
    "GridGeometry",
    "MaskConfig",
    "MaskOutcome",
    "MaskStats",
    "NetConfig",
    "OccupancyNet",
    "PointCloud",
    "QueryConfig",
    "SceneSpec",
    "TrainConfig",
    "VoxelGrid",
    "apply_mask",
    "evaluate",
    "frugal_savings",
    "load_checkpoint",
    "load_kitti_bin",
    "occupancy_of",
    "pretrain",
    "save_checkpoint",
    "save_kitti_bin",
    "synth_scene",
    "total_power",
    "voxelize",
]
