"""Property tests of the mask, voxelizer and site-set invariants
(hypothesis, bounded so the suite stays fast)."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    apply_mask_oracle,
    ball_oracle,
    down_sites_oracle,
    random_grid,
    same_outcome,
    stencil_union_oracle,
    synth_scene_oracle,
)
from rmae.cli import SweepConfig
from rmae.energy_model import EnergyParams, frugal_savings, total_power
from rmae.occupancy_net import QueryConfig, build_query_set
from rmae.occupancy_net.layers import SparseDownConv, SparseFeatureMap
from rmae.pointcloud import PointCloud, SceneSpec, synth_scene
from rmae.radial_mask import MaskConfig, apply_mask
from rmae.voxelizer import GridGeometry, voxelize

GEOM = GridGeometry((-6.4, -6.4, -1.6), (0.8, 0.8, 0.8), (16, 16, 8))
BOUNDED = settings(max_examples=50, deadline=None)
probability = st.floats(0.0, 1.0)


@st.composite
def mask_configs(draw) -> MaskConfig:
    n_groups = draw(st.integers(1, 360))
    near = draw(st.floats(0.5, 8.0))
    far = near + draw(st.floats(0.5, 8.0))
    # one p_drop row per group only for a few groups, to keep examples small
    shared = draw(st.booleans()) or n_groups > 8
    rows = 1 if shared else n_groups
    row = st.tuples(probability, probability, probability)
    return MaskConfig(
        n_groups=n_groups,
        m=draw(probability),
        selection_mode=draw(st.sampled_from(["bernoulli", "exact_count"])),
        r_thresholds=(near, far),
        p_drop=tuple(draw(st.lists(row, min_size=rows, max_size=rows))),
        seed=draw(st.integers(0, 2**32)),
    )


grids = st.builds(
    lambda n, seed: random_grid(GEOM, n, np.random.default_rng(seed)),
    st.integers(0, 300),
    st.integers(0, 2**32),
)


@BOUNDED
@given(grids, mask_configs(), st.integers(0, 2**63))
def test_visible_voxels_lie_in_selected_groups(grid, cfg, seed):
    out = apply_mask(grid, cfg, seed=seed)
    visible_groups = set(out.groups[out.visible].tolist())
    assert visible_groups <= out.selected_groups
    assert all(0 <= g < cfg.n_groups for g in out.selected_groups)
    stats = out.stats
    assert 0.0 <= stats.group_visible_fraction <= 1.0
    assert 0.0 <= stats.voxel_visible_fraction <= 1.0
    for rate in stats.per_subgroup_drop_rate:
        assert math.isnan(rate) or 0.0 <= rate <= 1.0


@BOUNDED
@given(grids, mask_configs(), st.integers(0, 2**63), st.integers(0, 2**63))
def test_apply_mask_is_a_pure_function_of_grid_cfg_and_seed(
    grid, cfg, seed, other
):
    first = apply_mask(grid, cfg, seed=seed)
    apply_mask(grid, cfg, seed=other)  # no state carries between calls
    assert same_outcome(first, apply_mask(grid, cfg, seed=seed))


@st.composite
def oracle_cases(draw):
    """A grid on a drawn geometry (odd dims, any corner and voxel size, or
    a corner that centers one column on the origin), a mask config with
    1-720 groups and bands inside and beyond the grid's reach, and a seed."""
    dims = (
        draw(st.integers(1, 13)),
        draw(st.integers(1, 13)),
        draw(st.integers(1, 5)),
    )
    size = tuple(draw(st.floats(0.05, 2.0)) for _ in range(3))
    corner = [draw(st.floats(-20.0, 5.0)) for _ in range(3)]
    if draw(st.booleans()):  # column (cx, cy) centered on the origin
        for axis in (0, 1):
            c = draw(st.integers(0, dims[axis] - 1))
            corner[axis] = -((c + 0.5) * size[axis])
    geom = GridGeometry(tuple(corner), size, dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    grid = random_grid(geom, draw(st.integers(0, 200)), rng)

    reach = max(
        math.hypot(x, y)
        for x in (corner[0], corner[0] + dims[0] * size[0])
        for y in (corner[1], corner[1] + dims[1] * size[1])
    )
    scales = draw(st.lists(st.floats(0.01, 2.0), min_size=0, max_size=3))
    thresholds = tuple(sorted({reach * f for f in scales if reach * f > 0}))
    n_groups = draw(st.integers(1, 720))
    rows = draw(st.sampled_from([1, n_groups]))
    p_drop = rng.uniform(size=(rows, len(thresholds) + 1))
    p_drop[rng.uniform(size=p_drop.shape) < 0.2] = 0.0
    p_drop[rng.uniform(size=p_drop.shape) < 0.1] = 1.0
    cfg = MaskConfig(
        n_groups=n_groups,
        m=draw(st.sampled_from([0.0, 1.0]) | probability),
        selection_mode=draw(st.sampled_from(["bernoulli", "exact_count"])),
        r_thresholds=thresholds,
        p_drop=tuple(map(tuple, p_drop.tolist())),
        seed=draw(st.integers(0, 2**32)),
    )
    return grid, cfg, draw(st.none() | st.integers(0, 2**63))


@settings(max_examples=150, deadline=None)
@given(oracle_cases())
def test_apply_mask_equals_the_per_voxel_oracle(case):
    grid, cfg, seed = case
    expect = apply_mask_oracle(grid, cfg, seed=seed)
    assert same_outcome(apply_mask(grid, cfg, seed=seed), expect)
    # a second call reads the geometry's cached column table
    assert same_outcome(apply_mask(grid, cfg, seed=seed), expect)


def across_ratios(grid, n_groups, seed) -> list:
    """Bernoulli-mode outcomes of one grid at one seed, m rising over 0, the
    sweep's ratios and 1."""
    return [
        apply_mask(
            grid,
            MaskConfig(
                n_groups=n_groups,
                m=m,
                r_thresholds=(3.0, 6.0),
                p_drop=((0.1, 0.5, 0.9),),
            ),
            seed=seed,
        )
        for m in (0.0, *SweepConfig().ratios, 1.0)
    ]


@BOUNDED
@given(grids, st.integers(1, 720), st.integers(0, 2**63))
def test_raising_m_never_unmasks_a_voxel(grid, n_groups, seed):
    """A group sensed at m is sensed at every lower m, and the range
    stage's draws do not depend on m, so the visible sets nest."""
    visible = [out.visible for out in across_ratios(grid, n_groups, seed)]
    for lower, higher in zip(visible, visible[1:]):
        assert not (higher & ~lower).any()


@BOUNDED
@given(grids, st.integers(1, 720), st.integers(0, 2**63))
def test_raising_m_never_raises_masked_power(grid, n_groups, seed):
    """Sensed groups and kept voxels nest, so the duty cycle and the sensed
    range, and with them the masked power, never rise with m."""
    report, R = total_power(EnergyParams()), EnergyParams().R
    power = [
        frugal_savings(report, out.stats, R).masked_P_total
        for out in across_ratios(grid, n_groups, seed)
    ]
    assert all(b <= a for a, b in zip(power, power[1:]))


points = st.integers(0, 200).flatmap(
    lambda n: arrays(
        np.float32,
        (n, 4),
        elements=st.floats(-8.0, 8.0, width=32),
    )
)


@BOUNDED
@given(points, st.randoms(use_true_random=False))
def test_voxelize_ignores_point_order(data, random):
    order = list(range(len(data)))
    random.shuffle(order)
    a = voxelize(PointCloud(data), GEOM)
    b = voxelize(PointCloud(data[order]), GEOM)
    assert a.coords.tobytes() == b.coords.tobytes()
    assert a.counts.tobytes() == b.counts.tobytes()
    assert a.dropped_points == b.dropped_points
    # bincount sums each voxel's points in point order
    np.testing.assert_allclose(b.feats, a.feats, rtol=0, atol=1e-12)


small_dims = st.tuples(*[st.integers(1, 9)] * 3)


@BOUNDED
@given(small_dims, st.integers(0, 60), st.integers(0, 2**32))
def test_down_conv_sites_are_every_voxel_offset_pair(dims, n, seed):
    rng = np.random.default_rng(seed)
    geom = GridGeometry((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), dims)
    coords = np.unique(random_grid(geom, n, rng).coords, axis=0)
    x = SparseFeatureMap(dims, coords, np.ones((len(coords), 1)))
    out, _ = SparseDownConv(1, 1, rng).forward(x)
    assert out.coords.tobytes() == down_sites_oracle(coords, dims).tobytes()


@BOUNDED
@given(
    st.integers(0, 30),
    st.integers(0, 2**32),
    st.floats(0.0, 20.0) | st.just(math.inf),
)
def test_sphere_query_is_the_union_of_balls(n, seed, radius):
    grid = random_grid(GEOM, n, np.random.default_rng(seed))
    cfg = QueryConfig(mode="sphere", sphere_radius=radius)
    q = build_query_set(grid, grid.coords, cfg)
    assert q.tobytes() == ball_oracle(GEOM.dims, grid.coords, radius).tobytes()


# radii at which the per-column run length rounds: zero, integers, square
# roots of integers (balls whose surface passes through lattice points,
# where sqrt may round either way), other fractions, and radii past the
# diagonal of every small grid
radii = st.one_of(
    st.just(0.0),
    st.integers(1, 12).map(float),
    st.integers(1, 200).flatmap(
        lambda n: st.sampled_from(
            [math.nextafter(math.sqrt(n), 0.0), math.sqrt(n)]
            + [math.nextafter(math.sqrt(n), math.inf)]
        )
    ),
    st.floats(0.0, 14.0),
    st.floats(14.0, 1e6) | st.just(math.inf),
)


@BOUNDED
@given(small_dims, st.integers(0, 40), st.integers(0, 2**32), radii)
def test_sphere_query_is_the_stencil_union(dims, n, seed, radius):
    geom = GridGeometry((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), dims)
    grid = random_grid(geom, n, np.random.default_rng(seed))
    cfg = QueryConfig(mode="sphere", sphere_radius=radius)
    q = build_query_set(grid, grid.coords, cfg)
    expect = stencil_union_oracle(dims, grid.coords, radius)
    assert q.dtype == np.int64
    assert q.tobytes() == expect.tobytes()


@st.composite
def scene_specs(draw) -> SceneSpec:
    lo = draw(st.floats(0.05, 30.0))
    return SceneSpec(
        # at the smallest extents every box stands beyond every ring
        ground_extent=draw(st.sampled_from([0.5, 2.0, 12.0, 40.0])),
        box_count=draw(st.integers(0, 40)),
        # up to 30 m a box's shadow crosses +-pi or holds the sensor
        box_size=(lo, draw(st.floats(lo, 30.0))),
        occlusion=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
        ground_noise=draw(st.sampled_from([0.0, 0.02, 1.0])),
        sensor_rings=draw(st.integers(1, 70)),
        # 400 degrees is one sample per ring
        azimuth_step_deg=draw(
            st.sampled_from([0.2, 90.0, 400.0]) | st.floats(0.5, 45.0)
        ),
    )


@settings(max_examples=150, deadline=None)
@given(scene_specs())
def test_synth_scene_matches_the_per_ring_oracle(spec):
    """The one ground draw and the windowed occlusion give the per-ring,
    every-point oracle's bytes."""
    assert synth_scene(spec).data.tobytes() == (
        synth_scene_oracle(spec).data.tobytes()
    )
