"""Rigid-body geometry and spatio-temporal fusion of consecutive scans.

A sequence's poses are packed in a :class:`PoseTable`, one rotation and one
translation array; :func:`lidar_poses_from_camera_poses` chains a whole
file's camera-frame poses into the LiDAR frame in four stacked matrix
products, with no object per pose.

A window of N scans is expressed in the frame of the window's first scan
(the reference). Keeping coordinates relative to the reference scan keeps
them small and well-conditioned; all derived quantities used downstream are
invariant under that frame choice.

A window is a run of whole scans concatenated in scan order, so a point's
(scan, index) origin follows from the window start and the row offsets at
which each scan begins (``scan_starts``); no per-point back-reference is
stored, and stitching pairs consecutive windows' shared scans by row slices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import LengthMismatch, WindowOutOfRange
from .sk_formats import CalibRecord, PointCloudScan


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

    def chained(self, left: RigidTransform, right: RigidTransform) -> "PoseTable":
        """``left . T_k . right`` for every pose ``T_k``, in stacked products
        run in the order of ``left.compose(T_k).compose(right)``, whose bits
        they give."""
        rotations = np.matmul(left.rotation, self.rotations)
        translations = np.matmul(left.rotation, self.translations[:, :, None])[:, :, 0] + left.translation
        return PoseTable(
            np.matmul(rotations, right.rotation), np.matmul(rotations, right.translation) + translations
        )


def check_scan_starts(scan_starts, n_rows: int, n_scans: int, where: str) -> np.ndarray:
    """``scan_starts`` as int64 row offsets of ``n_scans`` runs tiling
    ``n_rows`` rows: it must start at 0, never decrease, and end at
    ``n_rows``; raises ``LengthMismatch`` naming ``where`` otherwise."""
    starts = np.asarray(scan_starts, dtype=np.int64).reshape(-1)
    if len(starts) != n_scans + 1:
        raise LengthMismatch(
            f"{where}: {len(starts)} scan starts for {n_scans} scans, expected {n_scans + 1}"
        )
    if starts[0] != 0 or starts[-1] != n_rows:
        raise LengthMismatch(
            f"{where}: scan starts run from {starts[0]} to {starts[-1]}, expected 0 to {n_rows}"
        )
    falls = np.flatnonzero(np.diff(starts) < 0)
    if len(falls):
        raise LengthMismatch(f"{where}: scan starts decrease after scan offset {falls[0]}")
    return starts


@dataclass(frozen=True)
class Aggregated4DCloud:
    """A window of whole scans fused in the reference frame.

    The window ``(start, n)`` is its scans concatenated in scan order, so
    scan ``start + j`` holds rows ``scan_starts[j]:scan_starts[j + 1]`` and
    a row's (scan, point) origin follows from those offsets. The cloud
    stores 32 bytes per point (``positions`` and ``prior``, the per-point
    train ids) plus ``n + 1`` offsets; ``feature``, ``time_index`` and
    ``origin`` are derived when read and no pipeline stage reads them.
    """

    positions: np.ndarray  # (m, 3) float64, reference frame
    prior: np.ndarray  # (m,) int64 train ids
    scan_starts: np.ndarray  # (n + 1,) int64 row offsets
    window: tuple[int, int]  # (start, n)
    # Each scan's own feature array, referenced, not copied.
    scan_features: tuple[np.ndarray, ...] = field(repr=False, compare=False)

    def __post_init__(self):
        m, (start, n) = len(self.positions), self.window
        where = f"aggregated window [{start}, {start + n})"
        if len(self.prior) != m:
            raise LengthMismatch(f"{where}: prior has {len(self.prior)} rows, expected {m}")
        if len(self.scan_features) != n:
            raise LengthMismatch(f"{where}: {len(self.scan_features)} feature arrays for {n} scans")
        object.__setattr__(self, "scan_starts", check_scan_starts(self.scan_starts, m, n, where))

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def n_scans(self) -> int:
        return self.window[1]

    @property
    def feature(self) -> np.ndarray:
        """(m,) per-point feature, concatenated from the window's scans."""
        return np.concatenate(self.scan_features)

    @property
    def time_index(self) -> np.ndarray:
        """(m,) int64 scan offset within the window."""
        return np.repeat(np.arange(self.n_scans, dtype=np.int64), np.diff(self.scan_starts))

    @property
    def origin(self) -> np.ndarray:
        """(m, 2) int64 (scan_index, point_index) back-references."""
        offset = self.time_index
        origin = np.empty((len(self), 2), dtype=np.int64)
        origin[:, 0] = self.window[0] + offset
        origin[:, 1] = np.arange(len(self)) - self.scan_starts[offset]
        return origin


def transform_points(points, transform: RigidTransform) -> np.ndarray:
    """Apply p' = R @ p + t to every point; length is preserved."""
    return transform.apply(points)


def lidar_poses_from_camera_poses(
    rotations: np.ndarray, translations: np.ndarray, calib: CalibRecord
) -> PoseTable:
    """Chain (n, 3, 3) / (n, 3) camera-frame poses into the LiDAR world frame.

    KITTI odometry poses move camera-frame points of scan k into the world
    camera frame; with Tr the lidar-to-camera calibration the LiDAR-frame
    pose is Tr^-1 . T_cam . Tr.
    """
    tr = RigidTransform(calib.rotation, calib.translation)
    return PoseTable(rotations, translations).chained(tr.inverse(), tr)


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
    selects the slice to fuse. The scans are concatenated whole, in scan
    order; labels are copied through unchanged.
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

    window_scans = scans[start: start + n]
    scan_starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(scan) for scan in window_scans], out=scan_starts[1:])
    positions = np.empty((scan_starts[-1], 3))
    prior = np.empty(scan_starts[-1], dtype=np.int64)
    for offset, scan in enumerate(window_scans):
        scan_index = start + offset
        scan_labels = np.asarray(labels[scan_index]).reshape(-1)
        if len(scan_labels) != len(scan):
            raise LengthMismatch(
                f"scan {scan_index}: {len(scan_labels)} labels for {len(scan)} points"
            )
        rows = slice(scan_starts[offset], scan_starts[offset + 1])
        to_reference = window_relative_transform(lidar_poses, start, scan_index)
        # to_reference.apply(scan.points), computed in place.
        np.matmul(scan.points, to_reference.rotation.T, out=positions[rows])
        positions[rows] += to_reference.translation
        prior[rows] = scan_labels

    return Aggregated4DCloud(
        positions=positions,
        prior=prior,
        scan_starts=scan_starts,
        window=window,
        scan_features=tuple(scan.feature for scan in window_scans),
    )
