import itertools
import math

import numpy as np
import pytest

from rmae import keyrand
from rmae.keyrand import derive_seed
from rmae.occupancy_net.layers import (
    Phases,
    _kernel_map,
    _phase_table,
    _shift_slices,
)
from rmae.pointcloud import (  # noqa: PLC2701 - the oracle samples boxes alike
    _POINT_DTYPE,
    PointCloud,
    _sample_box_faces,
    cylindrical_arrays,
)
from rmae.radial_mask import (  # noqa: PLC2701 - the oracle keys its draws alike
    _GROUP_STREAM,
    _VOXEL_STREAM,
    MaskOutcome,
    MaskStats,
    angular_groups,
    distance_subgroups,
)
from rmae.records import json_form
from rmae.voxelizer import FEATURE_WIDTH, GridGeometry, VoxelGrid


@pytest.fixture
def small_geom():
    """16x16x8 grid over +/-6.4 m, 0.8 m voxels."""
    return GridGeometry(
        min_corner=(-6.4, -6.4, -1.6),
        voxel_size=(0.8, 0.8, 0.8),
        dims=(16, 16, 8),
    )


def uniform(seed: int, *keys: int) -> float:
    """Scalar oracle for keyrand.uniform_array: the draw in [0, 1) for one
    key tuple."""
    return (derive_seed(seed, *keys) >> 11) * 2.0 ** -53


def apply_mask_oracle(grid: VoxelGrid, cfg, seed=None) -> MaskOutcome:
    """Oracle for radial_mask.apply_mask: every voxel's center and polar
    position computed afresh, stage 1 as a set, every voxel drawn and the
    stats counted band by band."""
    seed = cfg.seed if seed is None else seed
    p_keep = 1.0 - cfg.m
    if cfg.selection_mode == "bernoulli":
        u = keyrand.uniform_array(
            seed,
            np.full(cfg.n_groups, _GROUP_STREAM, dtype=np.int64),
            np.arange(cfg.n_groups, dtype=np.int64),
        )
        selected = frozenset(np.flatnonzero(u < p_keep).tolist())
    else:
        count = int(round(p_keep * cfg.n_groups))
        rng = np.random.default_rng(derive_seed(seed, _GROUP_STREAM))
        selected = frozenset(
            rng.choice(cfg.n_groups, size=count, replace=False).tolist()
        )
    n = len(grid)
    r, theta = cylindrical_arrays(grid.geometry.centers(grid.coords))
    groups = angular_groups(theta, cfg.n_groups)
    subgroups = distance_subgroups(r, cfg.r_thresholds)
    in_selected = np.isin(groups, np.fromiter(selected, dtype=np.int64))
    u = keyrand.uniform_array(
        seed,
        np.full(n, _VOXEL_STREAM, dtype=np.int64),
        groups,
        grid.coords[:, 0],
        grid.coords[:, 1],
        grid.coords[:, 2],
    )
    table = np.asarray(cfg.p_drop, dtype=np.float64)
    rows = np.zeros_like(groups) if table.shape[0] == 1 else groups
    visible = in_selected & (u >= table[rows, subgroups])

    rates = []
    for k in range(cfg.n_subgroups):
        sel_k = in_selected & (subgroups == k)
        total = int(sel_k.sum())
        if total == 0:
            rates.append(math.nan)
        else:
            rates.append(float((sel_k & ~visible).sum()) / total)
    vis_r = r[visible]
    stats = MaskStats(
        group_visible_fraction=len(selected) / cfg.n_groups,
        voxel_visible_fraction=float(visible.sum()) / n if n else 0.0,
        per_subgroup_drop_rate=tuple(rates),
        max_sensed_range=float(vis_r.max()) if vis_r.size else 0.0,
    )
    return MaskOutcome(selected, visible, groups, subgroups, stats)


def same_outcome(a: MaskOutcome, b: MaskOutcome) -> bool:
    """Bitwise equality of two mask outcomes (NaN drop rates compare as
    their JSON null)."""
    return (
        a.selected_groups == b.selected_groups
        and a.visible.tobytes() == b.visible.tobytes()
        and a.groups.tobytes() == b.groups.tobytes()
        and a.subgroups.tobytes() == b.subgroups.tobytes()
        and json_form(a.stats) == json_form(b.stats)
    )


def make_grid(geom: GridGeometry, coords, feats=None, counts=None) -> VoxelGrid:
    """A grid of these voxels, rows sorted into canonical (ix, iy, iz)
    order as VoxelGrid requires."""
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 3)
    if feats is None:
        feats = np.zeros((len(coords), FEATURE_WIDTH))
    if counts is None:
        counts = np.ones(len(coords), dtype=np.int64)
    order = np.lexsort(coords.T[::-1])
    feats = np.asarray(feats, dtype=np.float64)[order]
    return VoxelGrid(geom, coords[order], feats, np.asarray(counts)[order])


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


def net_buffers(net) -> list[tuple[str, np.ndarray]]:
    """("layer.tensor", array) of each layer's buffers, named and ordered
    as net.parameters() lists the params."""
    return [
        (f"{lname}.{tname}", arr)
        for lname, layer in net.named_layers()
        for tname, arr in layer.buffers().items()
    ]


def eval_batch_norm(bn, x: np.ndarray) -> np.ndarray:
    """Eval batch norm as the textbook expression, in x's dtype:
    gamma * ((x - running_mean) * ivar) + beta, with
    ivar = 1 / sqrt(running_var + eps)."""
    dtype = x.dtype
    ivar = (1.0 / np.sqrt(bn.running_var + bn.eps)).astype(dtype)
    xhat = (x - bn.running_mean.astype(dtype)) * ivar
    return bn.gamma.astype(dtype) * xhat + bn.beta.astype(dtype)


def stencil_union_oracle(dims, visible, radius) -> np.ndarray:
    """Oracle for build_query_set's sphere mode, as it was first written:
    the stencil of offsets d with d @ d <= radius**2 (each axis's reach
    clipped to the grid) added to every visible voxel, the points inside
    the grid marked on a boolean grid, canonical order."""
    visible = np.asarray(visible, dtype=np.int64).reshape(-1, 3)
    reach = np.array([int(min(radius, d - 1)) for d in dims])
    stencil = np.indices(2 * reach + 1).reshape(3, -1).T - reach
    stencil = stencil[(stencil**2).sum(axis=1) <= radius * radius]
    pts = (visible[:, None] + stencil).reshape(-1, 3)
    pts = pts[((pts >= 0) & (pts < dims)).all(axis=1)]
    hit = np.zeros(dims, dtype=bool)
    hit[tuple(pts.T)] = True
    return np.argwhere(hit)


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


def parity_views(stride):
    """Per parity class (rx, ry, rz), in lexicographic order, its view
    [:, rx::stride, ry::stride, rz::stride] of a (C, X, Y, Z) tensor."""
    return [
        (slice(None),) + tuple(slice(r, None, stride) for r in parity)
        for parity in itertools.product(range(stride), repeat=3)
    ]


def phases_of(x, stride=2, once=False) -> Phases:
    """x, a (C, X, Y, Z) array, held phase-major: each parity class's
    sub-lattice with a zero slot after every row and plane."""
    pad = ((0, 0), (0, 0), (0, 1), (0, 1))
    grids = [np.pad(x[view], pad) for view in parity_views(stride)]
    return Phases(stride, x.shape[1:], grids, once)


def interleaved(phases: Phases) -> np.ndarray:
    """The (C, X, Y, Z) tensor that phases holds, after checking that
    every pad slot is zero."""
    grid = phases.data[0]
    out = np.empty((len(grid),) + tuple(phases.dims), grid.dtype)
    for view, grid in zip(parity_views(phases.stride), phases.data):
        assert not grid[:, :, -1].any() and not grid[..., -1].any()
        out[view] = grid[..., :-1, :-1]
    return out


def dense_backward_oracle(layer, x, grad_out):
    """Oracle for a DenseDeconv's backward, as first written: per phase,
    a fresh zeroed stack of its taps' shifted copies of the phase's view
    of grad_out, each made by per-axis slices on the (C_out, X, Y, Z)
    arrays, then one GEMM for the taps' weight gradients and one for the
    input gradient.  Returns (grad_in, grad_weight)."""
    size = x.shape[1:]
    flat = x.reshape(layer.in_ch, -1)
    parts = []
    grad_w = np.zeros_like(layer.weight)
    every = (slice(None),)
    for view, (kernel, shifts, _) in zip(parity_views(2), layer.phases):
        g = np.ascontiguousarray(grad_out[view])
        shifted = np.zeros((len(kernel), layer.out_ch) + size, x.dtype)
        for rows, d in zip(shifted, shifts.tolist()):
            src, dst = zip(*map(_shift_slices, d, size))
            rows[every + src] = g[every + dst]
        shifted = shifted.reshape(len(kernel) * layer.out_ch, -1)
        gw = (shifted @ flat.T).reshape(len(kernel), layer.out_ch, -1)
        for k, gk in zip(kernel, gw):
            grad_w[k] = gk.T
        parts.append(layer._stacked_weight(kernel, x.dtype).T @ shifted)
    grad_in = parts[0]
    for part in parts[1:]:
        grad_in += part
    return grad_in.reshape(x.shape), grad_w


def phase_backward_oracle(layer, x: Phases, grad_out: Phases):
    """Oracle for a stride-1 dense layer's backward on Phases (DenseConv,
    without the bias): per input phase, a fresh zeroed stack holding, for
    each row of its GEMM, the grad_out phase that row wrote, shifted back
    by per-axis slices on the padded sub-lattices; then one GEMM for the
    taps' weight gradients, added over the input phases in order, and one
    for the phase's input gradient, whose pad slots are zeroed.  Returns
    (grad_in phase buffers, grad_weight)."""
    phases, gemms = _phase_table(layer.axis_taps, x.stride)
    lattice = x.data[0].shape[1:]
    every = (slice(None),)
    grad_w = np.zeros_like(layer.weight)
    grad_in = []
    for q, (kernel, grid) in enumerate(zip(gemms, x.data)):
        shifted = np.zeros((len(kernel), layer.out_ch) + lattice, grid.dtype)
        for g, (_, shifts, rows) in zip(grad_out.data, phases):
            for (read, j), d in zip(rows, shifts.tolist()):
                if read == q:
                    src, dst = zip(*map(_shift_slices, d, lattice))
                    shifted[j][every + src] = g[every + dst]
        shifted = shifted.reshape(len(kernel) * layer.out_ch, -1)
        flat = grid.reshape(layer.in_ch, -1)
        gw = (shifted @ flat.T).reshape(len(kernel), layer.out_ch, -1)
        for k, gk in zip(kernel, gw):
            grad_w[k] += gk.T
        part = layer._stacked_weight(kernel, grid.dtype).T @ shifted
        part = part.reshape((layer.in_ch,) + lattice)
        part[:, :, -1] = 0
        part[..., -1] = 0
        grad_in.append(part)
    return grad_in, grad_w


def sparse_backward_oracle(layer, sites, x, grad_out):
    """Oracle for a dense layer's sparse backward (DenseDeconv or
    DenseConv, without the bias) given the output sites of its sparse
    forward (None: every site, in canonical order) and its input map, as
    first written: per phase, the rows of sites in it and the kernel map
    of the input row each tap reads there, then a fresh zeroed
    (N + 1, taps, C_out) buffer, one fancy row assignment of the phase's
    grad_out rows per tap, one GEMM for the taps' weight gradients and one
    for the input gradient.  A dense grad_out (Phases) is read as its
    (sites, C_out) rows in canonical order.  Returns (grad_in rows,
    grad_weight)."""
    dtype = x.feats.dtype
    stride = len(layer.axis_taps)
    if sites is None:
        dims = tuple(stride * n for n in x.dims)
        sites = np.indices(dims).reshape(3, -1).T
    padded = np.concatenate([x.feats, np.zeros((1, layer.in_ch), dtype)])
    grad_in = np.zeros_like(padded)
    grad_w = np.zeros_like(layer.weight)
    if isinstance(grad_out, Phases):
        dense = interleaved(grad_out)
        every_row = dense.reshape(layer.out_ch, -1).T
    else:
        every_row = grad_out.feats
    phase = np.ravel_multi_index(tuple((sites % stride).T), (stride,) * 3)
    for i, (kernel, shifts, _) in enumerate(layer.phases):
        rows = np.flatnonzero(phase == i)
        if not len(rows):
            continue
        at = sites[rows] // stride
        table = _kernel_map(x.dims, x.coords, at, -shifts)
        g = every_row[rows]
        spread = np.zeros((len(padded), len(kernel), layer.out_ch), dtype)
        slots = spread.reshape(-1, layer.out_ch)
        for j, reads in enumerate(table):
            slots[reads * len(kernel) + j] = g
        spread = spread.reshape(len(padded), -1)
        gw = (padded.T @ spread).reshape(layer.in_ch, len(kernel), -1)
        for j, k in enumerate(kernel):
            grad_w[k] = gw[:, j]
        grad_in += spread @ layer._stacked_weight(kernel, dtype)
    return grad_in[:-1], grad_w


def synth_scene_oracle(spec) -> PointCloud:
    """Oracle for pointcloud.synth_scene, as first written: a loop over the
    rings with four rng.uniform draws each, then every ground point tested
    against every box's shadow."""
    rng = np.random.default_rng(spec.seed)
    chunks: list[np.ndarray] = []

    # Ground rings: geometric radii from 0.6 m out to the extent.
    radii = []
    r = 0.6
    growth = (spec.ground_extent / r) ** (1.0 / max(spec.sensor_rings - 1, 1))
    for _ in range(spec.sensor_rings):
        radii.append(min(r, spec.ground_extent))
        r *= growth
    n_az = spec.azimuth_samples
    for ring_r in radii:
        phi = (np.arange(n_az) + rng.uniform(0, 1, n_az) * 0.5) * (
            2.0 * np.pi / n_az
        )
        rr = ring_r * (1.0 + rng.uniform(-0.01, 0.01, n_az))
        gx = rr * np.cos(phi)
        gy = rr * np.sin(phi)
        gz = rng.uniform(-spec.ground_noise, spec.ground_noise, n_az)
        gi = rng.uniform(0.1, 0.5, n_az)
        chunks.append(np.column_stack([gx, gy, gz, gi]))
    ground = np.concatenate(chunks, axis=0)

    boxes = []
    box_chunks: list[np.ndarray] = []
    lo, hi = spec.box_size
    for _ in range(spec.box_count):
        center_r = rng.uniform(1.5, max(spec.ground_extent * 0.85, 1.6))
        center_phi = rng.uniform(0.0, 2.0 * np.pi)
        cx = center_r * np.cos(center_phi)
        cy = center_r * np.sin(center_phi)
        sx, sy, sz = rng.uniform(lo, hi, 3)
        boxes.append((cx, cy, center_r, center_phi, sx, sy, sz))
        box_chunks.append(
            _sample_box_faces(rng, cx, cy, sx, sy, sz, center_r)
        )

    if spec.occlusion and boxes:
        keep = np.ones(len(ground), dtype=bool)
        g_phi = np.arctan2(ground[:, 1], ground[:, 0])
        g_r = np.hypot(ground[:, 0], ground[:, 1])
        for cx, cy, center_r, center_phi, sx, sy, sz in boxes:
            half_diag = 0.5 * math.hypot(sx, sy)
            half_width = math.atan2(half_diag, center_r)
            dphi = np.abs(
                (g_phi - center_phi + np.pi) % (2.0 * np.pi) - np.pi
            )
            shadow = (dphi < half_width) & (g_r > center_r)
            keep &= ~shadow
        ground = ground[keep]

    parts = [ground] + box_chunks
    data = np.concatenate([p for p in parts if len(p)], axis=0)
    return PointCloud(data.astype(_POINT_DTYPE), frame_id=f"synth-{spec.seed}")
