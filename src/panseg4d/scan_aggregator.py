"""Rigid-body geometry and spatio-temporal fusion of consecutive scans.

A window of N scans is expressed in the frame of the window's first scan
(the reference). Keeping coordinates relative to the reference scan keeps
them small and well-conditioned; all derived quantities used downstream are
invariant under that frame choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import LengthMismatch, WindowOutOfRange
from .sk_formats import CalibRecord, PointCloudScan, PoseRecord


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid motion: p -> R @ p + t."""

    rotation: np.ndarray  # (3, 3) orthonormal
    translation: np.ndarray  # (3,) meters

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=np.float64).reshape(3, 3))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=np.float64).reshape(3))

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self after other: (self . other)(p) = self(other(p))."""
        return RigidTransform(
            rotation=self.rotation @ other.rotation,
            translation=self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rotation=rt, translation=-(rt @ self.translation))

    def apply(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            return self.rotation @ pts + self.translation
        return pts @ self.rotation.T + self.translation

    def as_matrix(self) -> np.ndarray:
        mat = np.eye(4)
        mat[:3, :3] = self.rotation
        mat[:3, 3] = self.translation
        return mat

    @classmethod
    def from_matrix(cls, mat) -> "RigidTransform":
        mat = np.asarray(mat, dtype=np.float64)
        return cls(rotation=mat[:3, :3], translation=mat[:3, 3])


@dataclass(frozen=True)
class PoseTable(Sequence):
    """A sequence's rigid poses packed into one rotation and one translation
    array, 96 bytes per pose where a list of :class:`RigidTransform` costs
    about 700; item ``i`` is a :class:`RigidTransform` viewing row ``i``."""

    rotations: np.ndarray  # (n, 3, 3)
    translations: np.ndarray  # (n, 3)

    def __len__(self) -> int:
        return len(self.rotations)

    def __getitem__(self, index: int) -> RigidTransform:
        return RigidTransform(self.rotations[index], self.translations[index])


@dataclass(frozen=True)
class Aggregated4DCloud:
    """N scans fused in the reference frame with per-point scan offsets.

    ``prior`` carries the per-point semantic prior as train ids (the argmax
    of each point's semantic evidence row). ``origin`` holds (scan_index,
    point_index) back-references into the input scans and is a bijection
    onto them.
    """

    positions: np.ndarray  # (m, 3) float64, reference frame
    feature: np.ndarray  # (m,)
    prior: np.ndarray  # (m,) int64 train ids
    time_index: np.ndarray  # (m,) int64, scan offset in [0, n_scans)
    origin: np.ndarray  # (m, 2) int64, (scan_index, point_index)
    n_scans: int

    def __post_init__(self):
        m = len(self.positions)
        for name in ("feature", "prior", "time_index", "origin"):
            if len(getattr(self, name)) != m:
                raise LengthMismatch(f"aggregated cloud: {name} has {len(getattr(self, name))} rows, expected {m}")

    def __len__(self) -> int:
        return len(self.positions)


def transform_points(points, transform: RigidTransform) -> np.ndarray:
    """Apply p' = R @ p + t to every point; length is preserved."""
    return transform.apply(points)


def lidar_pose_from_camera_pose(pose: PoseRecord, calib: CalibRecord) -> RigidTransform:
    """Chain a camera-frame pose into the LiDAR world frame.

    KITTI odometry poses move camera-frame points of scan k into the world
    camera frame; with Tr the lidar-to-camera calibration the LiDAR-frame
    pose is Tr^-1 . T_cam . Tr.
    """
    if pose.frame != "camera":
        raise ValueError(f"expected a camera-frame pose, got frame={pose.frame!r}")
    tr = RigidTransform(calib.rotation, calib.translation)
    cam = RigidTransform(pose.rotation, pose.translation)
    return tr.inverse().compose(cam).compose(tr)


def window_relative_transform(
    lidar_poses: Sequence[RigidTransform], reference: int, scan: int
) -> RigidTransform:
    """Transform taking sensor-frame points of ``scan`` into ``reference``'s frame."""
    return lidar_poses[reference].inverse().compose(lidar_poses[scan])


def aggregate(
    scans: Sequence[PointCloudScan],
    lidar_poses: Sequence[RigidTransform],
    labels: Sequence[np.ndarray],
    window: tuple[int, int],
) -> Aggregated4DCloud:
    """Fuse scans [start, start + n) into the frame of scan ``start``.

    ``scans``, ``lidar_poses`` and ``labels`` (per-point train ids) are
    aligned by scan index over the full sequence; ``window = (start, n)``
    selects the slice to fuse. Labels are copied through unchanged;
    time_index is the scan offset within the window.
    """
    start, n = window
    if n < 1 or start < 0 or start + n > len(scans):
        raise WindowOutOfRange(
            f"window [{start}, {start + n}) out of range for {len(scans)} scans"
        )
    if not (len(scans) == len(lidar_poses) == len(labels)):
        raise LengthMismatch(
            f"{len(scans)} scans vs {len(lidar_poses)} poses vs {len(labels)} label arrays"
        )

    positions, features, label_rows, time_rows, origin_rows = [], [], [], [], []
    for offset in range(n):
        scan_index = start + offset
        scan = scans[scan_index]
        scan_labels = np.asarray(labels[scan_index], dtype=np.int64).reshape(-1)
        if len(scan_labels) != len(scan):
            raise LengthMismatch(
                f"scan {scan_index}: {len(scan_labels)} labels for {len(scan)} points"
            )
        to_reference = window_relative_transform(lidar_poses, start, scan_index)
        positions.append(to_reference.apply(scan.points))
        features.append(scan.feature)
        label_rows.append(scan_labels)
        time_rows.append(np.full(len(scan), offset, dtype=np.int64))
        origin = np.empty((len(scan), 2), dtype=np.int64)
        origin[:, 0] = scan_index
        origin[:, 1] = np.arange(len(scan))
        origin_rows.append(origin)

    return Aggregated4DCloud(
        positions=np.concatenate(positions) if positions else np.zeros((0, 3)),
        feature=np.concatenate(features),
        prior=np.concatenate(label_rows),
        time_index=np.concatenate(time_rows),
        origin=np.concatenate(origin_rows),
        n_scans=n,
    )
