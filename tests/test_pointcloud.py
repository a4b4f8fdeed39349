import math
import struct

import numpy as np
import pytest

from rmae.errors import InvalidSpec, MalformedFile
from rmae.pointcloud import (
    MAX_BOXES,
    MAX_GROUND_POINTS,
    MAX_SCENE_LENGTH,
    PointCloud,
    SceneSpec,
    cylindrical_arrays,
    load_kitti_bin,
    save_kitti_bin,
    synth_scene,
)


def random_cloud(rng, n):
    # spread across magnitudes so the float32 payload is non-trivial
    vals = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-3, 4, (n, 4))
    return PointCloud(vals.astype(np.float32), frame_id="t")


class TestKittiBin:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.bin"
        p.write_bytes(b"")
        assert len(load_kitti_bin(p)) == 0

    def test_single_record(self, tmp_path):
        p = tmp_path / "one.bin"
        p.write_bytes(struct.pack("<4f", 1.0, 2.0, 3.0, 0.5))
        cloud = load_kitti_bin(p)
        assert len(cloud) == 1
        assert cloud.data[0].tolist() == [1.0, 2.0, 3.0, 0.5]

    def test_sizes(self, tmp_path):
        rng = np.random.default_rng(0)
        for n in (0, 3, 17):
            p = tmp_path / f"c{n}.bin"
            save_kitti_bin(random_cloud(rng, n), p)
            assert p.stat().st_size == 16 * n

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        for i in range(25):
            cloud = random_cloud(rng, int(rng.integers(0, 300)))
            p = tmp_path / "rt.bin"
            save_kitti_bin(cloud, p)
            back = load_kitti_bin(p, frame_id="t")
            assert back == cloud

    def test_loaded_data_is_read_only_and_round_trips(self, tmp_path):
        cloud = random_cloud(np.random.default_rng(3), 40)
        p = tmp_path / "ro.bin"
        save_kitti_bin(cloud, p)
        back = load_kitti_bin(p)
        assert not back.data.flags.writeable
        with pytest.raises(ValueError):
            back.data[0, 0] = 1.0
        again = tmp_path / "again.bin"
        save_kitti_bin(back, again)
        assert again.read_bytes() == p.read_bytes()

    def test_bad_length(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"\x00" * 15)
        with pytest.raises(MalformedFile, match="15 bytes"):
            load_kitti_bin(p)

    def test_non_finite(self, tmp_path):
        data = np.zeros((3, 4), dtype="<f4")
        data[1, 2] = np.inf
        p = tmp_path / "inf.bin"
        p.write_bytes(data.tobytes())
        with pytest.raises(MalformedFile) as err:
            load_kitti_bin(p)
        assert str(err.value) == f"{p}: non-finite value in point 1"

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_kitti_bin(tmp_path / "nope.bin")

    def test_cloud_data_is_read_only(self):
        cloud = random_cloud(np.random.default_rng(2), 5)
        with pytest.raises(ValueError):
            cloud.data[0, 0] = 1.0


class TestCylindrical:
    """cylindrical_arrays, one row per case."""

    def test_axis_points(self):
        r, theta = cylindrical_arrays([[1.0, 0.0, 5.0], [0.0, 1.0, 0.0]])
        assert r.tolist() == [1.0, 1.0]
        assert theta[0] == 0.0 and abs(theta[1] - math.pi / 2) < 1e-15

    def test_third_quadrant(self):
        r, theta = cylindrical_arrays([[-1.0, -1.0, 2.0]])
        assert abs(r[0] - math.sqrt(2)) < 1e-15
        assert abs(theta[0] - 5 * math.pi / 4) < 1e-15

    def test_origin_convention(self):
        # atan2 of negative zeros is +-pi; the origin still maps to 0
        r, theta = cylindrical_arrays(
            [[0.0, 0.0, 1.0], [-0.0, -0.0, 1.0], [-0.0, 0.0, 1.0]]
        )
        assert r.tolist() == theta.tolist() == [0.0, 0.0, 0.0]
        assert not np.signbit(theta).any()

    def test_range_and_inverse(self):
        rng = np.random.default_rng(3)
        xyz = rng.uniform(-1e4, 1e4, (500, 3))
        r, theta = cylindrical_arrays(xyz)
        assert (r >= 0.0).all()
        assert ((0.0 <= theta) & (theta < 2 * math.pi)).all()
        np.testing.assert_allclose(r * np.cos(theta), xyz[:, 0], atol=1e-6)
        np.testing.assert_allclose(r * np.sin(theta), xyz[:, 1], atol=1e-6)

    def test_negative_zero_y(self):
        # -0.0 gives atan2 = -0.0; a tiny negative y wraps to exactly 2*pi
        # before the clamp: both must come out as 0
        r, theta = cylindrical_arrays([[1.0, -0.0], [1.0, -1e-300]])
        assert theta.tolist() == [0.0, 0.0]
        assert not np.signbit(theta).any()


class TestSynthScene:
    def test_ground_only_height_bound(self):
        spec = SceneSpec(box_count=0, occlusion=False, seed=11)
        cloud = synth_scene(spec)
        assert len(cloud) > 1000
        assert (np.abs(cloud.xyz[:, 2]) < spec.ground_noise + 1e-9).all()

    def test_deterministic(self):
        spec = SceneSpec(seed=5)
        assert synth_scene(spec) == synth_scene(spec)

    def test_seed_changes_scene(self):
        assert synth_scene(SceneSpec(seed=1)) != synth_scene(SceneSpec(seed=2))

    def test_golden_seed7(self):
        # regression oracle frozen from the first verified run
        cloud = synth_scene(SceneSpec(seed=7))
        assert len(cloud) == 12718
        lo = cloud.xyz.min(axis=0)
        hi = cloud.xyz.max(axis=0)
        np.testing.assert_allclose(
            lo, [-11.94393, -12.102571, -0.01999914], rtol=1e-5
        )
        np.testing.assert_allclose(
            hi, [12.074284, 12.082129, 2.184541], rtol=1e-5
        )

    def test_density_falls_with_range(self):
        spec = SceneSpec(box_count=0, occlusion=False, seed=4)
        cloud = synth_scene(spec)
        r = np.hypot(cloud.xyz[:, 0], cloud.xyz[:, 1])
        near = ((r > 1.0) & (r < 3.0)).sum() / (np.pi * (3.0**2 - 1.0**2))
        far = ((r > 8.0) & (r < 12.0)).sum() / (np.pi * (12.0**2 - 8.0**2))
        assert near > 2 * far

    def test_occlusion_removes_ground(self):
        with_occ = synth_scene(SceneSpec(seed=9, occlusion=True))
        without = synth_scene(SceneSpec(seed=9, occlusion=False))
        assert len(with_occ) < len(without)

    def test_widest_azimuth_step_samples_once_per_ring(self):
        spec = SceneSpec(box_count=0, sensor_rings=3, azimuth_step_deg=719.0)
        assert spec.azimuth_samples == 1
        assert len(synth_scene(spec)) == 3

    def test_degenerate_spec(self):
        with pytest.raises(InvalidSpec):
            SceneSpec(ground_extent=0.0)
        with pytest.raises(InvalidSpec):
            SceneSpec(box_size=(0.0, 1.0))
        # round(360 / step) is no azimuth sample per ring
        for step in (720.0, 1000.0, float("inf")):
            with pytest.raises(InvalidSpec, match="azimuth sample"):
                SceneSpec(azimuth_step_deg=step)

    def test_scene_sizes_have_caps(self):
        """A scene at the length cap is finite; sizes above a cap, or not
        a number, are refused by key without generating anything."""
        longest = (MAX_SCENE_LENGTH, MAX_SCENE_LENGTH)
        far = synth_scene(
            SceneSpec(ground_extent=MAX_SCENE_LENGTH, box_size=longest)
        )
        assert np.isfinite(far.data).all()
        SceneSpec(box_count=MAX_BOXES)
        for key, value in [
            ("ground_extent", MAX_SCENE_LENGTH * 2),
            ("ground_extent", float("nan")),
            ("box_size", (1e300, 1e300)),
            ("box_size", (1.0, MAX_SCENE_LENGTH * 2)),
            ("box_count", MAX_BOXES + 1),
            ("box_count", 10**12),
        ]:
            with pytest.raises(InvalidSpec, match=f"^{key} "):
                SceneSpec(**{key: value})

    def test_ground_point_budget(self):
        """Specs are only constructed here: no scene is generated."""
        kitti = SceneSpec(sensor_rings=64, azimuth_step_deg=0.08)
        assert 64 * kitti.azimuth_samples == 288_000 < MAX_GROUND_POINTS / 10
        SceneSpec(sensor_rings=MAX_GROUND_POINTS, azimuth_step_deg=360.0)
        for rings, step in [
            (MAX_GROUND_POINTS + 1, 360.0),
            (10**400, 360.0),  # no float holds rings
            (28, 1e-300),
            (28, 5e-324),  # 360 / step is inf
            (1, 360.0 / (MAX_GROUND_POINTS + 1)),
        ]:
            with pytest.raises(InvalidSpec, match="ground points"):
                SceneSpec(sensor_rings=rings, azimuth_step_deg=step)
