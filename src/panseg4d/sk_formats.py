"""Bit-exact readers and writers for the SemanticKITTI on-disk formats.

Formats handled here:

* velodyne scan ``<seq>/velodyne/NNNNNN.bin`` -- N x 16 bytes, little-endian
  float32 quadruples ``(x, y, z, f)`` where ``f`` is the per-point feature
  (remission).
* label file ``<seq>/labels/NNNNNN.label`` -- N x 4 bytes, little-endian
  uint32; the lower 16 bits hold the raw semantic id, the upper 16 bits the
  instance id. Instance id 0 means "no instance / stuff point".
* poses file ``<seq>/poses.txt`` -- one 3x4 row-major matrix per nonempty
  line, camera frame. :func:`read_poses` returns the whole file packed as an
  (n, 3, 3) rotation and an (n, 3) translation array, parsed and checked in
  a fixed number of array passes with no object per pose.
* calib file ``<seq>/calib.txt`` -- the line starting with ``Tr:`` holds the
  lidar-to-camera rigid transform as 12 row-major numbers.
* prediction files -- same packing as label files, written one per scan.
* offset files -- N x 12 bytes, little-endian float32 triples (dx, dy, dz).
* confidence files -- N x (4*C) bytes, little-endian float32 rows.
* config files (pipeline runs, synthetic scenes, the class map, score
  fixtures) -- text lines, ``#`` starting a comment (:func:`config_lines`).
  In pipeline and scene configs each line is ``key: value`` and
  :func:`read_fields` parses the value by the type its dataclass field
  declares, naming ``path:line`` on an unknown key, a repeated key or a bad
  value.

All binary I/O is little-endian regardless of host byte order: the dataset
ships x86-native files and the explicit dtype keeps readers portable.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
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


def _first_non_finite_row(rows: np.ndarray) -> int:
    """Index of the first row holding a NaN or inf (callers checked one exists)."""
    return int(np.argmin(np.isfinite(rows).all(axis=1)))


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
        if not np.isfinite(points).all():
            raise NonFiniteValue(
                f"scan {self.scan_index}: non-finite coordinate at point {_first_non_finite_row(points)}"
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


def _point_count(path, n_bytes: int) -> int:
    """Points in a velodyne file of ``n_bytes``; it must hold whole records."""
    if n_bytes % POINT_RECORD_BYTES != 0:
        raise FileTooShort(f"{path}: {n_bytes} bytes is not a multiple of {POINT_RECORD_BYTES}")
    return n_bytes // POINT_RECORD_BYTES


@dataclass(frozen=True, slots=True)
class ScanFile:
    """A velodyne file not yet decoded; ``len()`` is its point count, taken
    from the file size by :func:`scan_file`. Decode it with :func:`read_scan`.

    A sequence holds one per scan for the whole run, so the path is kept as
    a plain string (a ``Path`` costs about four times the memory).
    """

    path: str
    n_points: int

    def __len__(self) -> int:
        return self.n_points


def scan_file(path: str, n_bytes: int) -> ScanFile:
    """Handle on a velodyne ``.bin`` file of ``n_bytes``, sized without reading it."""
    return ScanFile(path, _point_count(path, n_bytes))


def read_scan(path, scan_index: int | None = None) -> PointCloudScan:
    """Decode a velodyne ``.bin`` file.

    Point ``i`` is decoded from bytes ``[16i, 16i + 16)`` as four
    little-endian float32 values ``(x, y, z, f)``. The scan index defaults to
    the numeric file stem.
    """
    path = Path(path)
    raw = path.read_bytes()
    _point_count(path, len(raw))
    arr = np.frombuffer(raw, dtype=_F32LE).astype(np.float64).reshape(-1, 4)
    points = arr[:, :3]
    if not np.isfinite(points).all():
        raise NonFiniteValue(
            f"{path}: non-finite coordinate at point {_first_non_finite_row(points)}"
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


def read_label_words(path, expected_count: int) -> np.ndarray:
    """A ``.label`` file of exactly ``expected_count`` records as its packed
    uint32 words, undecoded (``semantic_raw = w & 0xFFFF``,
    ``instance_id = w >> 16``)."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) != LABEL_RECORD_BYTES * expected_count:
        raise CountMismatch(
            f"{path}: {len(raw)} bytes, expected {LABEL_RECORD_BYTES * expected_count} "
            f"({expected_count} records)"
        )
    return np.frombuffer(raw, dtype=_U32LE)


def read_labels(path, expected_count: int) -> LabelArray:
    """Decode a ``.label`` file of exactly ``expected_count`` records.

    Each record is one little-endian uint32 word ``w`` with
    ``semantic_raw = w & 0xFFFF`` and ``instance_id = w >> 16``.
    """
    words = read_label_words(path, expected_count).astype(np.int64)
    return LabelArray(semantic_raw=words & 0xFFFF, instance_id=words >> 16)


def _label_columns(labels) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(labels, LabelArray):
        return labels.semantic_raw, labels.instance_id
    arr = np.asarray(list(labels) if not isinstance(labels, np.ndarray) else labels, dtype=np.int64)
    if arr.size == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    arr = arr.reshape(-1, 2)
    return arr[:, 0], arr[:, 1]


def label_bytes(labels, where) -> bytes:
    """(semantic_raw, instance_id) pairs packed as ``.label`` records.

    Byte-exact inverse of :func:`read_labels`. ``labels`` may be a
    :class:`LabelArray`, an (n, 2) array, or an iterable of pairs. An id
    outside 16 bits raises ``IdOverflow`` naming ``where``.
    """
    sem, inst = _label_columns(labels)
    if sem.size and (sem.min() < 0 or sem.max() > MAX_ID):
        bad = int(np.argmax((sem < 0) | (sem > MAX_ID)))
        raise IdOverflow(f"{where}: semantic id {int(sem[bad])} at record {bad} exceeds 16 bits")
    if inst.size and (inst.min() < 0 or inst.max() > MAX_ID):
        bad = int(np.argmax((inst < 0) | (inst > MAX_ID)))
        raise IdOverflow(f"{where}: instance id {int(inst[bad])} at record {bad} exceeds 16 bits")
    return ((inst.astype(np.uint32) << np.uint32(16)) | sem.astype(np.uint32)).astype(_U32LE).tobytes()


def write_predictions(path, labels) -> None:
    """Write (semantic_raw, instance_id) pairs in the ``.label`` packing
    (:func:`label_bytes`)."""
    Path(path).write_bytes(label_bytes(labels, path))


# Predictions and ground-truth labels share one packing.
write_labels = write_predictions


def _parse_rows_3x4(rows: list[tuple[int, list[str]]], path) -> np.ndarray:
    """(n, 3, 4) float64 matrices from ``(line number, tokens)`` rows, each
    value bit-identical to ``float(token)``. A row without exactly 12 tokens
    or with one that does not parse raises ``MalformedLine``, and a NaN or
    inf ``NonFiniteValue``, naming ``path:line``."""
    for lineno, tokens in rows:
        if len(tokens) != 12:
            raise MalformedLine(f"{path}:{lineno}: expected 12 numbers, got {len(tokens)}")
    try:
        values = np.array(list(chain.from_iterable(tokens for _, tokens in rows)), dtype=np.float64)
    except ValueError:
        for lineno, tokens in rows:
            try:
                np.array(tokens, dtype=np.float64)
            except ValueError as exc:
                raise MalformedLine(f"{path}:{lineno}: {exc}") from None
        raise
    values = values.reshape(-1, 12)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise NonFiniteValue(f"{path}:{rows[int(np.argmin(finite))][0]}: non-finite value")
    return values.reshape(-1, 3, 4)


def _warn_non_orthonormal(rotations: np.ndarray, rows, path, what: str) -> None:
    """One ``NonOrthonormalRotationWarning`` per rotation whose Gram matrix or
    determinant is off by more than 1e-3, naming its line."""
    gram = np.matmul(np.swapaxes(rotations, 1, 2), rotations)
    defect = np.maximum(
        np.abs(gram - np.eye(3)).max(axis=(1, 2)), np.abs(np.linalg.det(rotations) - 1.0)
    )
    for index in np.flatnonzero(defect > 1e-3):
        warnings.warn(
            f"{path}:{rows[index][0]}: {what} is not orthonormal within 1e-3",
            NonOrthonormalRotationWarning,
            stacklevel=3,
        )


def read_poses(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse a KITTI odometry ``poses.txt``: one camera-frame 3x4 per nonempty
    line, returned as (n, 3, 3) rotations and (n, 3) translations."""
    path = Path(path)
    lines = map(str.split, path.read_text().splitlines())
    rows = [(lineno, tokens) for lineno, tokens in enumerate(lines, start=1) if tokens]
    matrices = _parse_rows_3x4(rows, path)
    rotations = matrices[:, :, :3]
    _warn_non_orthonormal(rotations, rows, path, "rotation block")
    return rotations, matrices[:, :, 3]


def write_poses(path, rotations: np.ndarray, translations: np.ndarray) -> None:
    """Write poses as 3x4 row-major lines at full float64 precision."""
    matrices = np.concatenate([rotations, translations[:, :, None]], axis=2).reshape(-1, 12)
    lines = [" ".join(f"{v:.17g}" for v in row) for row in matrices.tolist()]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_calib(path) -> CalibRecord:
    """Parse the ``Tr:`` (lidar-to-camera) line of a KITTI ``calib.txt``."""
    path = Path(path)
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if line.startswith("Tr:"):
            rows = [(lineno, line[len("Tr:"):].split())]
            matrix = _parse_rows_3x4(rows, path)
            _warn_non_orthonormal(matrix[:, :, :3], rows, path, "Tr rotation block")
            return CalibRecord(rotation=matrix[0, :, :3], translation=matrix[0, :, 3])
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
        raise NonFiniteValue(f"{path}: non-finite offset at point {_first_non_finite_row(offsets)}")
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


def config_lines(path):
    """``("path:line", text)`` for each line of a config file that is not
    blank once its ``#`` comment is cut."""
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if text:
            yield f"{path}:{lineno}", text


def split_items(text: str) -> tuple[str, ...]:
    """The items of a comma or space separated list."""
    return tuple(text.replace(",", " ").split())


def _nonempty(text: str) -> str:
    if not text:
        raise ValueError("empty value")
    return text


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_bool(text: str) -> bool:
    if text.lower() not in _BOOL_WORDS:
        raise ValueError(f"expected one of 1/0/true/false/yes/no, got {text!r}")
    return _BOOL_WORDS[text.lower()]


def _parse_triples(text: str) -> tuple[tuple[float, float, float], ...]:
    """``x,y,z`` triples separated by ``;``."""
    triples = tuple(tuple(float(c) for c in item.split(",")) for item in text.split(";") if item.strip())
    for triple in triples:
        if len(triple) != 3:
            raise ValueError(f"expected 3 coordinates per waypoint, got {len(triple)}")
    return triples


# Value parsers by declared field type; ``X | None`` parses as ``X``.
_FIELD_PARSERS = {
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "str": _nonempty,
    "Path": lambda text: Path(_nonempty(text)),
    "tuple[str, ...]": split_items,
    "tuple[int, ...]": lambda text: tuple(int(v) for v in text.split()),
    "tuple[tuple[float, float, float], ...]": _parse_triples,
}


def read_fields(cls, path, what: str) -> dict:
    """The fields of dataclass ``cls`` that a ``key: value`` config file
    sets, each value parsed by its field's declared type. An unknown key
    raises ``ConfigError("path:line: unknown <what> key ...")``, a key set
    twice one naming both lines, a bad value ``ConfigError("path:line:
    ...")``. A field whose type has no parser fails every load."""
    parsers = {spec.name: _FIELD_PARSERS[spec.type.removesuffix(" | None")] for spec in fields(cls)}
    values, set_at = {}, {}
    for where, text in config_lines(path):
        key, sep, value = text.partition(":")
        key = key.strip()
        if not sep or key not in parsers:
            raise ConfigError(f"{where}: unknown {what} key {key!r}")
        if key in set_at:
            raise ConfigError(f"{where}: {what} key {key!r} is already set at {set_at[key]}")
        set_at[key] = where
        try:
            values[key] = parsers[key](value.strip())
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    return values


def read_config(cls, path, what: str, **overrides):
    """``cls`` built from the fields a config file sets (:func:`read_fields`)
    and the ``overrides`` that are not None, then validated; an error from
    ``validate()`` is raised again naming ``path``."""
    values = read_fields(cls, path, what)
    values.update({k: v for k, v in overrides.items() if v is not None})
    config = cls(**values)
    try:
        config.validate()
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return config
