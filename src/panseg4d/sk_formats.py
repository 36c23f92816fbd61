"""Bit-exact readers and writers for the SemanticKITTI on-disk formats.

Formats handled here:

* velodyne scan ``<seq>/velodyne/NNNNNN.bin`` -- N x 16 bytes, little-endian
  float32 quadruples ``(x, y, z, f)`` where ``f`` is the per-point feature
  (remission).
* label file ``<seq>/labels/NNNNNN.label`` -- N x 4 bytes, little-endian
  uint32; the lower 16 bits hold the raw semantic id, the upper 16 bits the
  instance id. Instance id 0 means "no instance / stuff point".
* poses file ``<seq>/poses.txt`` -- one 3x4 row-major matrix per nonempty
  line, camera frame.
* calib file ``<seq>/calib.txt`` -- the line starting with ``Tr:`` holds the
  lidar-to-camera rigid transform as 12 row-major numbers.
* prediction files -- same packing as label files, written one per scan.
* offset files -- N x 12 bytes, little-endian float32 triples (dx, dy, dz).
* confidence files -- N x (4*C) bytes, little-endian float32 rows.

All binary I/O is little-endian regardless of host byte order: the dataset
ships x86-native files and the explicit dtype keeps readers portable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    CountMismatch,
    FileTooShort,
    IdOverflow,
    LengthMismatch,
    MalformedLine,
    MissingTrLine,
    NonFiniteValue,
    NonOrthonormalRotationWarning,
)

POINT_RECORD_BYTES = 16
LABEL_RECORD_BYTES = 4
MAX_ID = 0xFFFF

_F32LE = np.dtype("<f4")
_U32LE = np.dtype("<u4")


@dataclass(frozen=True)
class PointCloudScan:
    """One LiDAR sweep: sensor-frame coordinates plus a per-point feature."""

    points: np.ndarray  # (n, 3) float64, meters
    feature: np.ndarray  # (n,) float64
    scan_index: int = 0

    def __post_init__(self):
        points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        feature = np.asarray(self.feature, dtype=np.float64).reshape(-1)
        if len(points) != len(feature):
            raise LengthMismatch(
                f"scan {self.scan_index}: {len(points)} points vs {len(feature)} feature values"
            )
        finite = np.isfinite(points).all(axis=1)
        if not finite.all():
            raise NonFiniteValue(
                f"scan {self.scan_index}: non-finite coordinate at point {int(np.argmax(~finite))}"
            )
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "feature", feature)

    def __len__(self) -> int:
        return len(self.points)


class LabelRecord(NamedTuple):
    """One point's label: raw semantic id and per-sequence instance id."""

    semantic_raw: int
    instance_id: int

    @property
    def packed(self) -> int:
        return (self.instance_id << 16) | self.semantic_raw

    @classmethod
    def from_packed(cls, word: int) -> "LabelRecord":
        return cls(semantic_raw=word & 0xFFFF, instance_id=word >> 16)


@dataclass(frozen=True)
class LabelArray:
    """Column view of a label file; indexable as a sequence of LabelRecord."""

    semantic_raw: np.ndarray  # (n,) int64
    instance_id: np.ndarray  # (n,) int64

    def __post_init__(self):
        sem = np.asarray(self.semantic_raw, dtype=np.int64).reshape(-1)
        inst = np.asarray(self.instance_id, dtype=np.int64).reshape(-1)
        if len(sem) != len(inst):
            raise LengthMismatch(f"{len(sem)} semantic vs {len(inst)} instance entries")
        object.__setattr__(self, "semantic_raw", sem)
        object.__setattr__(self, "instance_id", inst)

    def __len__(self) -> int:
        return len(self.semantic_raw)

    def __getitem__(self, i: int) -> LabelRecord:
        return LabelRecord(int(self.semantic_raw[i]), int(self.instance_id[i]))

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


@dataclass(frozen=True)
class PoseRecord:
    """Rigid pose (rotation + translation) tagged with its frame."""

    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,)
    frame: str = "camera"  # "camera" | "lidar"

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=np.float64).reshape(3, 3))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=np.float64).reshape(3))


@dataclass(frozen=True)
class CalibRecord:
    """Lidar-to-camera rigid transform from the calibration file."""

    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=np.float64).reshape(3, 3))
        object.__setattr__(self, "translation", np.asarray(self.translation, dtype=np.float64).reshape(3))


def _scan_index_from_name(path: Path) -> int:
    stem = path.stem
    return int(stem) if stem.isdigit() else 0


def read_scan(path, scan_index: int | None = None) -> PointCloudScan:
    """Decode a velodyne ``.bin`` file.

    Point ``i`` is decoded from bytes ``[16i, 16i + 16)`` as four
    little-endian float32 values ``(x, y, z, f)``. The scan index defaults to
    the numeric file stem.
    """
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) % POINT_RECORD_BYTES != 0:
        raise FileTooShort(
            f"{path}: {len(raw)} bytes is not a multiple of {POINT_RECORD_BYTES}"
        )
    arr = np.frombuffer(raw, dtype=_F32LE).astype(np.float64).reshape(-1, 4)
    points = arr[:, :3]
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        raise NonFiniteValue(
            f"{path}: non-finite coordinate at point {int(np.argmax(~finite))}"
        )
    if scan_index is None:
        scan_index = _scan_index_from_name(path)
    return PointCloudScan(points=points, feature=arr[:, 3], scan_index=scan_index)


def write_scan(path, scan: PointCloudScan) -> None:
    """Write a scan in the velodyne ``.bin`` layout (float32 quadruples)."""
    arr = np.empty((len(scan), 4), dtype=_F32LE)
    arr[:, :3] = scan.points
    arr[:, 3] = scan.feature
    Path(path).write_bytes(arr.tobytes())


def read_labels(path, expected_count: int) -> LabelArray:
    """Decode a ``.label`` file of exactly ``expected_count`` records.

    Each record is one little-endian uint32 word ``w`` with
    ``semantic_raw = w & 0xFFFF`` and ``instance_id = w >> 16``.
    """
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) != LABEL_RECORD_BYTES * expected_count:
        raise CountMismatch(
            f"{path}: {len(raw)} bytes, expected {LABEL_RECORD_BYTES * expected_count} "
            f"({expected_count} records)"
        )
    words = np.frombuffer(raw, dtype=_U32LE).astype(np.int64)
    return LabelArray(semantic_raw=words & 0xFFFF, instance_id=words >> 16)


def _label_columns(labels) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(labels, LabelArray):
        return labels.semantic_raw, labels.instance_id
    arr = np.asarray(list(labels) if not isinstance(labels, np.ndarray) else labels, dtype=np.int64)
    if arr.size == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    arr = arr.reshape(-1, 2)
    return arr[:, 0], arr[:, 1]


def write_predictions(path, labels) -> None:
    """Write (semantic_raw, instance_id) pairs in the ``.label`` packing.

    Byte-exact inverse of :func:`read_labels`. ``labels`` may be a
    :class:`LabelArray`, an (n, 2) array, or an iterable of pairs.
    """
    sem, inst = _label_columns(labels)
    if sem.size and (sem.min() < 0 or sem.max() > MAX_ID):
        bad = int(np.argmax((sem < 0) | (sem > MAX_ID)))
        raise IdOverflow(f"{path}: semantic id {int(sem[bad])} at record {bad} exceeds 16 bits")
    if inst.size and (inst.min() < 0 or inst.max() > MAX_ID):
        bad = int(np.argmax((inst < 0) | (inst > MAX_ID)))
        raise IdOverflow(f"{path}: instance id {int(inst[bad])} at record {bad} exceeds 16 bits")
    words = ((inst.astype(np.uint32) << np.uint32(16)) | sem.astype(np.uint32)).astype(_U32LE)
    Path(path).write_bytes(words.tobytes())


# Predictions and ground-truth labels share one packing.
write_labels = write_predictions


def _parse_row_major_3x4(tokens: Sequence[str], where: str) -> tuple[np.ndarray, np.ndarray]:
    if len(tokens) != 12:
        raise MalformedLine(f"{where}: expected 12 numbers, got {len(tokens)}")
    try:
        values = np.array([float(t) for t in tokens], dtype=np.float64)
    except ValueError as exc:
        raise MalformedLine(f"{where}: {exc}") from None
    mat = values.reshape(3, 4)
    return mat[:, :3], mat[:, 3]


def _orthonormality_defect(rotation: np.ndarray) -> float:
    gram = rotation.T @ rotation
    return float(max(np.abs(gram - np.eye(3)).max(), abs(np.linalg.det(rotation) - 1.0)))


def read_poses(path) -> list[PoseRecord]:
    """Parse a KITTI odometry ``poses.txt``: one camera-frame 3x4 per line."""
    path = Path(path)
    poses = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        rotation, translation = _parse_row_major_3x4(line.split(), f"{path}:{lineno}")
        if _orthonormality_defect(rotation) > 1e-3:
            warnings.warn(
                f"{path}:{lineno}: rotation block is not orthonormal within 1e-3",
                NonOrthonormalRotationWarning,
                stacklevel=2,
            )
        poses.append(PoseRecord(rotation=rotation, translation=translation, frame="camera"))
    return poses


def write_poses(path, poses: Iterable[PoseRecord]) -> None:
    """Write poses as 3x4 row-major lines at full float64 precision."""
    lines = []
    for pose in poses:
        mat = np.hstack([pose.rotation, pose.translation.reshape(3, 1)])
        lines.append(" ".join(f"{v:.17g}" for v in mat.reshape(-1)))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_calib(path) -> CalibRecord:
    """Parse the ``Tr:`` (lidar-to-camera) line of a KITTI ``calib.txt``."""
    path = Path(path)
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if line.startswith("Tr:"):
            rotation, translation = _parse_row_major_3x4(
                line[len("Tr:"):].split(), f"{path}:{lineno}"
            )
            if _orthonormality_defect(rotation) > 1e-3:
                warnings.warn(
                    f"{path}:{lineno}: Tr rotation block is not orthonormal within 1e-3",
                    NonOrthonormalRotationWarning,
                    stacklevel=2,
                )
            return CalibRecord(rotation=rotation, translation=translation)
    raise MissingTrLine(f"{path}: no line starting with 'Tr:'")


def write_calib(path, calib: CalibRecord) -> None:
    mat = np.hstack([calib.rotation, calib.translation.reshape(3, 1)])
    Path(path).write_text("Tr: " + " ".join(f"{v:.17g}" for v in mat.reshape(-1)) + "\n")


def read_offsets(path, expected_count: int) -> np.ndarray:
    """Read an offset file: ``expected_count`` little-endian float32 triples,
    every one finite."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) != 12 * expected_count:
        raise CountMismatch(
            f"{path}: {len(raw)} bytes, expected {12 * expected_count} ({expected_count} offset rows)"
        )
    offsets = np.frombuffer(raw, dtype=_F32LE).astype(np.float64).reshape(-1, 3)
    if not np.isfinite(offsets).all():
        i = int(np.argmin(np.isfinite(offsets).all(axis=1)))
        raise NonFiniteValue(f"{path}: non-finite offset at point {i}")
    return offsets


def write_offsets(path, offsets: np.ndarray) -> None:
    arr = np.asarray(offsets, dtype=np.float64).reshape(-1, 3).astype(_F32LE)
    Path(path).write_bytes(arr.tobytes())


def read_confidences(path, expected_count: int, n_classes: int) -> np.ndarray:
    """Read a confidence file: ``expected_count`` rows of ``n_classes`` float32."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) != 4 * n_classes * expected_count:
        raise CountMismatch(
            f"{path}: {len(raw)} bytes, expected {4 * n_classes * expected_count} "
            f"({expected_count} rows x {n_classes} classes)"
        )
    return np.frombuffer(raw, dtype=_F32LE).astype(np.float64).reshape(-1, n_classes)


def write_confidences(path, scores: np.ndarray) -> None:
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 2:
        raise LengthMismatch(f"{path}: confidence array must be 2-D, got shape {arr.shape}")
    Path(path).write_bytes(arr.astype(_F32LE).tobytes())
