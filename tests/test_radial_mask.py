import json
import math

import numpy as np
import pytest

from conftest import make_grid, random_grid
from rmae import keyrand
from rmae.radial_mask import (
    MaskConfig,
    MaskStats,
    angular_groups,
    apply_mask,
    distance_subgroups,
    select_groups,
    write_mask_dump,
)
from rmae.radial_mask import _VOXEL_STREAM  # noqa: PLC2701 - keyed-RNG contract test
from rmae.pointcloud import cylindrical_arrays
from rmae.voxelizer import GridGeometry


def group_of(theta: float, n_groups: int) -> int:
    g = angular_groups(np.array([theta]), n_groups)
    assert g.dtype == np.int64
    return int(g[0])


def band_of(r: float, thresholds=(30.0, 50.0)) -> int:
    k = distance_subgroups(np.array([r]), thresholds)
    assert k.dtype == np.int64
    return int(k[0])


class TestGroupAssignment:
    def test_zero_theta(self):
        assert group_of(0.0, 360) == 0

    def test_pi_quarter_groups(self):
        assert group_of(math.pi, 4) == 2

    def test_wrap_boundary_clamps(self):
        assert group_of(2 * math.pi - 1e-12, 360) == 359
        # the largest double below 2*pi divides to n_groups (for 3 groups)
        assert group_of(np.nextafter(2 * math.pi, 0.0), 3) == 2

    def test_matches_floor_arithmetic(self):
        rng = np.random.default_rng(0)
        for n_g in rng.integers(1, 720, 20):
            theta = rng.uniform(0, 2 * math.pi * (1 - 1e-12), 10)
            g = angular_groups(theta, int(n_g))
            width = 2 * math.pi / n_g
            assert g.tolist() == [min(int(t / width), n_g - 1) for t in theta]
            assert ((0 <= g) & (g < n_g)).all()


class TestSubgroupAssignment:
    def test_zero_radius(self):
        assert band_of(0.0) == 0

    def test_between_thresholds(self):
        assert band_of(40.0) == 1

    def test_boundary_goes_to_farther_band(self):
        assert band_of(30.0) == 1
        assert band_of(50.0) == 2
        assert band_of(np.nextafter(30.0, 0.0)) == 0

    def test_beyond_last(self):
        assert band_of(99.0) == 2
        assert band_of(99.0, ()) == 0


class TestSelectGroups:
    def test_m_one_selects_nothing(self):
        for mode in ("bernoulli", "exact_count"):
            cfg = MaskConfig(m=1.0, selection_mode=mode, seed=3)
            assert select_groups(cfg) == frozenset()

    def test_m_zero_selects_all(self):
        for mode in ("bernoulli", "exact_count"):
            cfg = MaskConfig(n_groups=48, m=0.0, selection_mode=mode, seed=3)
            assert select_groups(cfg) == frozenset(range(48))

    def test_bernoulli_calibration(self):
        cfg = MaskConfig(n_groups=1000, m=0.8)
        fracs = [
            len(select_groups(cfg, seed=s)) / cfg.n_groups for s in range(100)
        ]
        assert 0.18 <= float(np.mean(fracs)) <= 0.22

    def test_exact_count_is_exact(self):
        for m in (0.5, 0.8, 0.92, 0.95):
            cfg = MaskConfig(
                n_groups=1000, m=m, selection_mode="exact_count", seed=9
            )
            assert len(select_groups(cfg)) == round((1 - m) * 1000)

    def test_deterministic_in_seed(self):
        cfg = MaskConfig(n_groups=100, m=0.7, seed=5)
        assert select_groups(cfg) == select_groups(cfg)
        assert select_groups(cfg, seed=6) != select_groups(cfg, seed=7)


def drop_rate_grid():
    """Three radial bands of 10_000 voxels each, all in group 0.

    Voxels sit along +x (theta = 0) at r = ix + 0.5 m; the z column index
    only multiplies the sample count.
    """
    geom = GridGeometry(
        min_corner=(0.0, -0.5, 0.0),
        voxel_size=(1.0, 1.0, 1.0),
        dims=(100, 1, 1000),
    )
    cols = list(range(0, 10)) + list(range(35, 45)) + list(range(60, 70))
    coords = [(ix, 0, iz) for ix in cols for iz in range(1000)]
    return make_grid(geom, coords)


class TestApplyMask:
    def test_nothing_masked(self, small_geom):
        rng = np.random.default_rng(20)
        grid = random_grid(small_geom, 120, rng)
        cfg = MaskConfig(m=0.0, p_drop=((0.0, 0.0, 0.0),), seed=1)
        out = apply_mask(grid, cfg)
        assert out.visible.all()
        assert out.stats.voxel_visible_fraction == 1.0

    def test_everything_masked(self, small_geom):
        rng = np.random.default_rng(21)
        grid = random_grid(small_geom, 120, rng)
        out = apply_mask(grid, MaskConfig(m=1.0, seed=1))
        assert not out.visible.any()
        assert out.stats.voxel_visible_fraction == 0.0
        assert out.stats.max_sensed_range == 0.0

    def test_empty_grid(self, small_geom):
        grid = make_grid(small_geom, np.empty((0, 3)))
        out = apply_mask(grid, MaskConfig(seed=2))
        assert len(out.visible) == 0 and out.visible.dtype == bool
        assert out.groups.dtype == out.subgroups.dtype == np.int64
        assert out.stats.voxel_visible_fraction == 0.0
        assert out.stats.max_sensed_range == 0.0
        assert all(map(math.isnan, out.stats.per_subgroup_drop_rate))

    def test_range_aware_drop_rates(self):
        grid = drop_rate_grid()
        cfg = MaskConfig(
            n_groups=1,
            m=0.0,
            r_thresholds=(30.0, 50.0),
            p_drop=((0.0, 0.5, 0.9),),
            seed=77,
        )
        out = apply_mask(grid, cfg)
        assert out.selected_groups == frozenset({0})
        for k, expect in enumerate((0.0, 0.5, 0.9)):
            assert abs(out.stats.per_subgroup_drop_rate[k] - expect) <= 0.03

    def test_determinism_and_purity(self, small_geom):
        rng = np.random.default_rng(22)
        grid = random_grid(small_geom, 200, rng)
        cfg = MaskConfig(n_groups=16, m=0.5, seed=8)
        a = apply_mask(grid, cfg)
        b = apply_mask(grid, cfg)
        assert np.array_equal(a.visible, b.visible)
        assert a.selected_groups == b.selected_groups

    def test_partition_and_angular_coherence(self, small_geom):
        rng = np.random.default_rng(23)
        grid = random_grid(small_geom, 200, rng)
        cfg = MaskConfig(n_groups=12, m=0.6, seed=4)
        out = apply_mask(grid, cfg)
        # partition: every voxel is decided exactly once
        assert len(out.visible) == len(grid)
        # coherence: unselected groups are entirely dark
        vis_groups = set(out.groups[out.visible].tolist())
        assert vis_groups <= set(out.selected_groups)

    def test_monotone_in_drop_probability(self, small_geom):
        rng = np.random.default_rng(24)
        grid = random_grid(small_geom, 300, rng)
        base = MaskConfig(
            n_groups=8,
            m=0.0,
            r_thresholds=(3.0, 6.0),
            p_drop=((0.1, 0.3, 0.5),),
            seed=31,
        )
        raised = MaskConfig(
            n_groups=8,
            m=0.0,
            r_thresholds=(3.0, 6.0),
            p_drop=((0.1, 0.6, 0.5),),
            seed=31,
        )
        a = apply_mask(grid, base)
        b = apply_mask(grid, raised)
        # keyed draws: raising p can only turn visible voxels dark
        assert set(map(tuple, grid.coords[b.visible])) <= set(
            map(tuple, grid.coords[a.visible])
        )

    def test_decisions_are_pure_keyed_draws(self, small_geom):
        """The published contract: voxel v in a sensed group is visible iff
        uniform(seed, group, ix, iy, iz) >= p_drop[group, subgroup]."""
        rng = np.random.default_rng(25)
        grid = random_grid(small_geom, 150, rng)
        cfg = MaskConfig(
            n_groups=4,
            m=0.5,
            r_thresholds=(3.0, 6.0),
            p_drop=((0.2, 0.4, 0.8),),
            seed=13,
        )
        out = apply_mask(grid, cfg)
        r, theta = cylindrical_arrays(grid.geometry.centers(grid.coords))
        for i, (ix, iy, iz) in enumerate(map(tuple, grid.coords)):
            g = min(int(theta[i] / (2 * math.pi / 4)), 3)
            k = int(np.searchsorted(np.asarray((3.0, 6.0)), r[i], "right"))
            u = keyrand.uniform(13, _VOXEL_STREAM, g, ix, iy, iz)
            expect = g in out.selected_groups and u >= cfg.p_drop[0][k]
            assert out.visible[i] == expect

    def test_rotation_equivariance_with_shifted_keys(self):
        """Rotating azimuths by one group span and shifting the group-keyed
        draws by the same amount reproduces the rotated mask."""
        geom = GridGeometry((-4.0, -4.0, 0.0), (1.0, 1.0, 1.0), (8, 8, 2))
        rng = np.random.default_rng(26)
        grid = random_grid(geom, 60, rng)
        cfg = MaskConfig(
            n_groups=4,
            m=0.5,
            r_thresholds=(2.0,),
            p_drop=((0.3, 0.7),),
            seed=19,
        )
        out = apply_mask(grid, cfg)
        # quarter-turn (x, y) -> (-y, x): lattice maps onto itself
        rot = np.column_stack(
            [7 - grid.coords[:, 1], grid.coords[:, 0], grid.coords[:, 2]]
        )
        selected_rot = frozenset((g + 1) % 4 for g in out.selected_groups)
        r, theta = cylindrical_arrays(grid.geometry.centers(grid.coords))
        for i, (ix, iy, iz) in enumerate(map(tuple, rot)):
            g = min(int(theta[i] / (2 * math.pi / 4)), 3)
            g_rot = (g + 1) % 4
            k = int(np.searchsorted(np.asarray((2.0,)), r[i], "right"))
            # shifted stream: the rotated voxel re-uses the original keys
            u = keyrand.uniform(
                19, _VOXEL_STREAM, g, *map(int, grid.coords[i])
            )
            expect = g_rot in selected_rot and u >= cfg.p_drop[0][k]
            assert expect == out.visible[i]


class TestMaskStatistics:
    def test_recount_oracle(self, small_geom):
        rng = np.random.default_rng(27)
        grid = random_grid(small_geom, 250, rng)
        cfg = MaskConfig(
            n_groups=10,
            m=0.4,
            r_thresholds=(3.0, 6.0),
            p_drop=((0.1, 0.5, 0.9),),
            seed=5,
        )
        out = apply_mask(grid, cfg)
        stats = out.stats

        r, theta = cylindrical_arrays(grid.geometry.centers(grid.coords))
        visible = out.visible
        assert stats.voxel_visible_fraction == visible.sum() / len(grid)
        assert stats.group_visible_fraction == len(out.selected_groups) / 10
        if visible.any():
            assert stats.max_sensed_range == r[visible].max()
        for k in range(3):
            sel = np.isin(
                out.groups, list(out.selected_groups)
            ) & (out.subgroups == k)
            if sel.sum():
                expect = (sel & ~visible).sum() / sel.sum()
                assert stats.per_subgroup_drop_rate[k] == expect
            else:
                assert math.isnan(stats.per_subgroup_drop_rate[k])

    def test_trivial_extremes(self, small_geom):
        rng = np.random.default_rng(28)
        grid = random_grid(small_geom, 100, rng)
        s = apply_mask(grid, MaskConfig(m=1.0, seed=1)).stats
        assert s.voxel_visible_fraction == 0.0
        assert s.max_sensed_range == 0.0
        none = MaskConfig(m=0.0, p_drop=((0.0, 0.0, 0.0),), seed=1)
        s = apply_mask(grid, none).stats
        assert s.voxel_visible_fraction == 1.0


class TestConfigValidation:
    def test_m_range(self):
        with pytest.raises(ValueError, match=r"m must lie in \[0, 1\]"):
            MaskConfig(m=1.5)

    def test_thresholds_ascending(self):
        with pytest.raises(ValueError):
            MaskConfig(r_thresholds=(50.0, 30.0))

    def test_p_drop_row_length(self):
        with pytest.raises(ValueError):
            MaskConfig(p_drop=((0.0, 0.5),))

    def test_p_drop_rows_one_or_per_group(self):
        with pytest.raises(ValueError):
            MaskConfig(n_groups=4, p_drop=((0.0, 0.5, 0.9),) * 2)
        MaskConfig(n_groups=2, p_drop=((0.0, 0.5, 0.9),) * 2)  # per-group ok


def test_exports(tmp_path, small_geom):
    rng = np.random.default_rng(30)
    grid = random_grid(small_geom, 40, rng)
    cfg = MaskConfig(n_groups=8, m=0.5, seed=3)
    out = apply_mask(grid, cfg)

    mask_path = tmp_path / "mask.txt"
    write_mask_dump(out, grid, mask_path)
    lines = mask_path.read_text().splitlines()
    assert len(lines) == 40
    for row, line in enumerate(lines):
        ix, iy, iz, m = line.split(" ")
        assert [int(ix), int(iy), int(iz)] == list(grid.coords[row])
        assert int(m) == int(out.visible[row])

    doc = json.loads(json.dumps(out.stats.to_json_dict()))
    assert set(doc) == {
        "group_visible_fraction",
        "voxel_visible_fraction",
        "per_subgroup_drop_rate",
        "max_sensed_range",
    }
    assert doc["voxel_visible_fraction"] == out.stats.voxel_visible_fraction
    assert MaskStats.from_json_dict(doc).to_json_dict() == doc
