"""Point-cloud frames: KITTI .bin I/O, synthetic scenes, cylindrical coords.

A frame is stored as an (N, 4) little-endian float32 array (x, y, z,
intensity), exactly the on-disk KITTI record layout, so save/load
round-trips are bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, MalformedFile

_RECORD_BYTES = 16
_POINT_DTYPE = np.dtype("<f4")

# the most ground points (sensor_rings * 360 / azimuth_step_deg) a scene may
# ask for: 14 times a 64-beam scan at 0.08 degrees (288,000 points)
MAX_GROUND_POINTS = 4_000_000
# the most points a box face samples; a box shows the sensor at most three
_FACE_CAP = 400
MAX_BOX_POINTS = 3 * _FACE_CAP
# the most boxes a scene may hold: their points stay below MAX_GROUND_POINTS
MAX_BOXES = 3_000
# the longest ground_extent, box_size or ground_noise a scene may ask for, in
# metres: every coordinate then stays finite, with a float32 step of at most
# 1/8 m
MAX_SCENE_LENGTH = 1e6
# the most box shadow tests (box_count * sensor_rings * azimuth_samples) an
# occluded scene may ask for: at about 7 ns a test, some 7 s of a frame
MAX_SHADOW_TESTS = 2**30
# a ground point's radius is its ring's times 1 + U(-1, 1) * _RADIUS_JITTER
_RADIUS_JITTER = 0.01


class PointCloud:
    """Ordered, immutable point sequence backed by an (N, 4) float32 array."""

    def __init__(self, data: np.ndarray, frame_id: str = ""):
        data = np.ascontiguousarray(data, dtype=_POINT_DTYPE)
        if data.ndim != 2 or data.shape[1] != 4:
            raise ValueError(f"point data must be (N, 4), got {data.shape}")
        if data.size and not np.isfinite(data).all():
            bad = int(np.flatnonzero(~np.isfinite(data).all(axis=1))[0])
            raise ValueError(f"non-finite value in point {bad}")
        data.setflags(write=False)
        self._data = data
        self.frame_id = frame_id

    @property
    def data(self) -> np.ndarray:
        """(N, 4) read-only float32 view: columns x, y, z, intensity."""
        return self._data

    def __len__(self) -> int:
        return self._data.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointCloud):
            return NotImplemented
        return (
            self.frame_id == other.frame_id
            and self._data.shape == other._data.shape
            and self._data.tobytes() == other._data.tobytes()
        )


def load_kitti_bin(path, frame_id: str | None = None) -> PointCloud:
    """Decode a KITTI velodyne .bin file (packed x,y,z,intensity float32 LE).

    Raises MalformedFile when the byte count is not a multiple of 16 or a
    decoded value is non-finite; OS-level failures propagate as OSError.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) % _RECORD_BYTES != 0:
        raise MalformedFile(
            f"{path}: {len(raw)} bytes is not a multiple of {_RECORD_BYTES}"
        )
    data = np.frombuffer(raw, dtype=_POINT_DTYPE).reshape(-1, 4)
    try:
        return PointCloud(data, str(path) if frame_id is None else frame_id)
    except ValueError as e:  # a non-finite value
        raise MalformedFile(f"{path}: {e}") from e


def save_kitti_bin(cloud: PointCloud, path) -> None:
    """Inverse of load_kitti_bin; writes 16 bytes per point, no header."""
    with open(path, "wb") as fh:
        fh.write(cloud.data)


def cylindrical_arrays(xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(r, theta) for an (N, >=2) array of x, y columns, theta in
    [0, 2*pi); the origin maps to (0, 0)."""
    x = np.asarray(xyz, dtype=np.float64)
    r = np.hypot(x[:, 0], x[:, 1])
    theta = np.arctan2(x[:, 1], x[:, 0]) % (2.0 * np.pi)
    # a tiny negative angle wraps to 2*pi; at the origin arctan2 of
    # negative zeros gives pi
    theta[(theta >= 2.0 * np.pi) | (r == 0.0)] = 0.0
    return r, theta


@dataclass(frozen=True)
class SceneSpec:
    """Parameters for the synthetic desk-scale LiDAR scene generator."""

    ground_extent: float = 12.0
    box_count: int = 6
    box_size: tuple[float, float] = (0.6, 2.4)
    occlusion: bool = True
    seed: int = 0
    ground_noise: float = 0.02
    sensor_rings: int = 28
    azimuth_step_deg: float = 0.8

    def __post_init__(self):
        if not 0 < self.ground_extent <= MAX_SCENE_LENGTH:
            raise InvalidSpec(
                f"ground_extent must lie in (0, {MAX_SCENE_LENGTH:g}] m"
            )
        if not 0 <= self.box_count <= MAX_BOXES:
            raise InvalidSpec(f"box_count must lie in [0, {MAX_BOXES}]")
        if not 0 <= self.ground_noise <= MAX_SCENE_LENGTH:
            raise InvalidSpec(
                f"ground_noise must lie in [0, {MAX_SCENE_LENGTH:g}] m"
            )
        lo, hi = self.box_size
        if not 0 < lo <= hi <= MAX_SCENE_LENGTH:
            raise InvalidSpec(
                "box_size range must satisfy 0 < lo <= hi <="
                f" {MAX_SCENE_LENGTH:g} m"
            )
        rings = min(self.sensor_rings, MAX_GROUND_POINTS + 1)  # fits a float
        if rings < 1 or not self.azimuth_step_deg > 0:
            raise InvalidSpec("need one ring and one azimuth sample per ring")
        if not rings * 360.0 / self.azimuth_step_deg <= MAX_GROUND_POINTS:
            raise InvalidSpec(f"more than {MAX_GROUND_POINTS} ground points")
        if self.azimuth_samples < 1:
            raise InvalidSpec("need one ring and one azimuth sample per ring")
        tests = self.box_count * self.sensor_rings * self.azimuth_samples
        if self.occlusion and tests > MAX_SHADOW_TESTS:
            raise InvalidSpec(
                "box_count * sensor_rings * azimuth_samples must be at most"
                f" {MAX_SHADOW_TESTS} with occlusion on"
            )

    @property
    def azimuth_samples(self) -> int:
        """Ground points per ring."""
        return int(round(360.0 / self.azimuth_step_deg))


def synth_scene(spec: SceneSpec) -> PointCloud:
    """Deterministic synthetic frame: polar-sampled ground plane plus
    axis-aligned boxes sampled on their sensor-facing faces.

    Sampling mimics a spinning LiDAR: ring radii grow geometrically and the
    azimuth step is fixed, so areal density falls off with range.  Box faces
    receive points in proportion to their subtended solid angle.

    The ground is one rng.random((rings, 4, n_az)) draw, ring-major: each
    ring's azimuth jitter, radius jitter, height and intensity, in that
    order; each row lo + (hi - lo) * u is what rng.uniform(lo, hi, n_az)
    would return.  Column j's azimuth lies in [j, j + 1/2) steps and its
    radius within _RADIUS_JITTER of its ring's.  The boxes are drawn after.
    With occlusion enabled, a ground point is removed when it lies beyond a
    box's centre range and within the box's angular half-width of its
    centre azimuth.  That test runs only on a box's candidate window: the
    rings that can reach past its centre and the columns within half-width
    plus two steps of its centre azimuth.
    """
    rng = np.random.default_rng(spec.seed)
    rings, n_az = spec.sensor_rings, spec.azimuth_samples
    # geometric ring radii from 0.6 m out to the extent
    growth = (spec.ground_extent / 0.6) ** (1.0 / max(rings - 1, 1))
    radii = np.cumprod(np.concatenate([[0.6], np.full(rings - 1, growth)]))
    radii = np.minimum(radii, spec.ground_extent)[:, None]
    u = rng.random((rings, 4, n_az))
    step = 2.0 * np.pi / n_az
    phi = (np.arange(n_az) + u[:, 0] * 0.5) * step
    rr = radii * (1.0 + (-_RADIUS_JITTER + 2 * _RADIUS_JITTER * u[:, 1]))
    gx, gy = rr * np.cos(phi), rr * np.sin(phi)
    del phi, rr

    keep = np.ones((rings, n_az), dtype=bool)
    # a point's hypot may pass its jittered radius by a few ulps
    reach = radii[:, 0] * (1.0 + _RADIUS_JITTER + 1e-9)
    box_chunks: list[np.ndarray] = []
    lo, hi = spec.box_size
    for _ in range(spec.box_count):
        center_r = rng.uniform(1.5, max(spec.ground_extent * 0.85, 1.6))
        center_phi = rng.uniform(0.0, 2.0 * np.pi)
        cx = center_r * np.cos(center_phi)
        cy = center_r * np.sin(center_phi)
        sx, sy, sz = rng.uniform(lo, hi, 3)
        box_chunks.append(
            _sample_box_faces(rng, cx, cy, sx, sy, sz, center_r)
        )
        if not spec.occlusion:
            continue
        half_width = math.atan2(0.5 * math.hypot(sx, sy), center_r)
        # the columns within half_width plus two steps of center_phi
        span = half_width / step + 2.0
        first = math.ceil(center_phi / step - span)
        last = math.floor(center_phi / step + span)
        cols = np.arange(first, min(last + 1, first + n_az)) % n_az
        window = np.ix_(np.flatnonzero(reach > center_r), cols)
        x, y = gx[window], gy[window]
        dphi = np.abs(
            (np.arctan2(y, x) - center_phi + np.pi) % (2.0 * np.pi) - np.pi
        )
        keep[window] &= ~((dphi < half_width) & (np.hypot(x, y) > center_r))

    kept = int(keep.sum())
    data = np.empty((kept + sum(map(len, box_chunks)), 4), _POINT_DTYPE)
    data[:kept, 0] = gx[keep]
    data[:kept, 1] = gy[keep]
    data[:kept, 2] = -spec.ground_noise + 2 * spec.ground_noise * u[:, 2][keep]
    data[:kept, 3] = 0.1 + (0.5 - 0.1) * u[:, 3][keep]
    for chunk in box_chunks:
        data[kept : kept + len(chunk)] = chunk
        kept += len(chunk)
    return PointCloud(data, frame_id=f"synth-{spec.seed}")


def _sample_box_faces(rng, cx, cy, sx, sy, sz, center_r) -> np.ndarray:
    """Points on the faces of an axis-aligned box that face the sensor."""
    faces = []
    # Vertical faces whose outward normal points back toward the origin.
    if cx > 0:
        faces.append(("x", cx - sx / 2, sy * sz))
    elif cx < 0:
        faces.append(("x", cx + sx / 2, sy * sz))
    if cy > 0:
        faces.append(("y", cy - sy / 2, sx * sz))
    elif cy < 0:
        faces.append(("y", cy + sy / 2, sx * sz))
    faces.append(("top", sz, sx * sy))

    # Solid-angle-proportional budgets, clamped to keep scenes desk-scale.
    counts = [
        int(min(max(900.0 * area / max(center_r, 1.0) ** 2, 12), _FACE_CAP))
        for _, _, area in faces
    ]
    pts = np.empty((sum(counts), 4))
    at = 0
    for (axis, plane, _), n in zip(faces, counts):
        u = rng.uniform(-0.5, 0.5, n)
        v = rng.uniform(-0.5, 0.5, n)
        face = pts[at : at + n]
        at += n
        if axis == "x":
            face[:, 0] = plane
            face[:, 1] = cy + u * sy
            face[:, 2] = (v + 0.5) * sz
        elif axis == "y":
            face[:, 0] = cx + u * sx
            face[:, 1] = plane
            face[:, 2] = (v + 0.5) * sz
        else:
            face[:, 0] = cx + u * sx
            face[:, 1] = cy + v * sy
            face[:, 2] = plane
        face[:, 3] = rng.uniform(0.4, 0.9, n)
    return pts
