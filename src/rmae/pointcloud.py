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
# the most boxes a scene may hold: each samples at most 1,200 points (three
# faces of at most 400), so its box points stay below MAX_GROUND_POINTS
MAX_BOXES = 3_000
# the longest ground_extent, box_size or ground_noise a scene may ask for, in
# metres: every coordinate then stays finite, with a float32 step of at most
# 1/8 m
MAX_SCENE_LENGTH = 1e6


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

    @classmethod
    def empty(cls, frame_id: str = "") -> "PointCloud":
        return cls(np.empty((0, 4), dtype=_POINT_DTYPE), frame_id)

    @property
    def data(self) -> np.ndarray:
        """(N, 4) read-only float32 view: columns x, y, z, intensity."""
        return self._data

    @property
    def xyz(self) -> np.ndarray:
        return self._data[:, :3]

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

    def __repr__(self) -> str:
        return f"PointCloud(frame_id={self.frame_id!r}, n={len(self)})"


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
        fh.write(cloud.data.tobytes())


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

    @property
    def azimuth_samples(self) -> int:
        """Ground points per ring."""
        return int(round(360.0 / self.azimuth_step_deg))


def synth_scene(spec: SceneSpec) -> PointCloud:
    """Deterministic synthetic frame: polar-sampled ground plane plus
    axis-aligned boxes sampled on their sensor-facing faces.

    Sampling mimics a spinning LiDAR: ring radii grow geometrically and the
    azimuth step is fixed, so areal density falls off with range.  Box faces
    receive points in proportion to their subtended solid angle.  With
    occlusion enabled, ground points in the angular shadow behind a box are
    removed.
    """
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

    pts = []
    for axis, plane, area in faces:
        # Solid-angle-proportional budget, clamped to keep scenes desk-scale.
        n = int(np.clip(900.0 * area / max(center_r, 1.0) ** 2, 12, 400))
        u = rng.uniform(-0.5, 0.5, n)
        v = rng.uniform(-0.5, 0.5, n)
        if axis == "x":
            x = np.full(n, plane)
            y = cy + u * sy
            z = (v + 0.5) * sz
        elif axis == "y":
            x = cx + u * sx
            y = np.full(n, plane)
            z = (v + 0.5) * sz
        else:
            x = cx + u * sx
            y = cy + v * sy
            z = np.full(n, plane)
        it = rng.uniform(0.4, 0.9, n)
        pts.append(np.column_stack([x, y, z, it]))
    return np.concatenate(pts, axis=0)
