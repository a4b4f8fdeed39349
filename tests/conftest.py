import itertools

import numpy as np
import pytest

from rmae.voxelizer import FEATURE_WIDTH, GridGeometry, VoxelGrid


@pytest.fixture
def small_geom():
    """16x16x8 grid over +/-6.4 m, 0.8 m voxels."""
    return GridGeometry(
        min_corner=(-6.4, -6.4, -1.6),
        voxel_size=(0.8, 0.8, 0.8),
        dims=(16, 16, 8),
    )


def make_grid(geom: GridGeometry, coords, feats=None, counts=None) -> VoxelGrid:
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    if feats is None:
        feats = np.zeros((len(coords), FEATURE_WIDTH))
    if counts is None:
        counts = np.ones(len(coords), dtype=np.int64)
    return VoxelGrid(geom, coords, np.asarray(feats, dtype=np.float64), counts)


def random_grid(geom: GridGeometry, n: int, rng: np.random.Generator) -> VoxelGrid:
    """Grid with n distinct random voxels and random features."""
    dims = np.asarray(geom.dims)
    total = int(dims.prod())
    n = min(n, total)
    lin = rng.choice(total, size=n, replace=False)
    coords = np.column_stack(
        [
            lin // (dims[1] * dims[2]),
            (lin // dims[2]) % dims[1],
            lin % dims[2],
        ]
    ).astype(np.int64)
    feats = rng.normal(0, 1, (n, FEATURE_WIDTH))
    return make_grid(geom, coords, feats)


def eval_batch_norm(bn, x: np.ndarray) -> np.ndarray:
    """Eval batch norm as the textbook expression, in x's dtype:
    gamma * ((x - running_mean) * ivar) + beta, with
    ivar = 1 / sqrt(running_var + eps)."""
    dtype = x.dtype
    ivar = (1.0 / np.sqrt(bn.running_var + bn.eps)).astype(dtype)
    xhat = (x - bn.running_mean.astype(dtype)) * ivar
    return bn.gamma.astype(dtype) * xhat + bn.beta.astype(dtype)


def down_sites_oracle(coords, dims) -> np.ndarray:
    """A stride-2 sparse conv's output sites, canonical order, by brute
    force over every (voxel, offset) pair: voxel x reaches output u
    through offset o when x = 2u + o, with u inside the output dims."""
    odims = [(d + 1) // 2 for d in dims]
    sites = set()
    for x in np.asarray(coords).tolist():
        for off in itertools.product((-1, 0, 1), repeat=3):
            num = [a - o for a, o in zip(x, off)]
            if all(n % 2 == 0 and 0 <= n // 2 < d for n, d in zip(num, odims)):
                sites.add(tuple(n // 2 for n in num))
    return np.array(sorted(sites), dtype=np.int64).reshape(-1, 3)


def ball_oracle(dims, visible, radius) -> np.ndarray:
    """The cells, canonical order, within radius (L2, voxel units) of some
    visible voxel, by brute force over every (cell, voxel) pair."""
    cells = np.indices(dims).reshape(3, -1).T
    visible = np.asarray(visible, dtype=np.int64).reshape(-1, 3)
    d2 = ((cells[:, None, :] - visible[None]) ** 2).sum(axis=2)
    return cells[(d2 <= radius * radius).any(axis=1)]
