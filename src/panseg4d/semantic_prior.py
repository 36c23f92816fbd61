"""Class-id remapping, semantic-prior encoding, and prediction sources.

A provider hands the pipeline each scan's inputs once, through
:meth:`PredictionSource.scan_inputs`: per-point train ids (IGNORE where
unlabelled) and per-point offset vectors in the scan's sensor frame. The
pipeline passes in the scan's decoded points, so providers hold no scans.
Label sources give their remapped ids directly; confidence rows are
normalized and reduced with :func:`argmax_labels`. Each window then only
rotates its scans' offsets into its reference frame
(:meth:`PredictionSource.window_offsets`, through :func:`rotate_into_window`).

:meth:`PredictionSource.semantic_prior` gives the same evidence as a
length-C row per point, one-hot for labels (IGNORE as the uniform row 1/C)
or the normalized confidences, for callers that want the matrix.
:class:`FileProvider` reads its inputs from disk; the synthetic oracle
provider lives in :mod:`panseg4d.synthlab`.
"""

from __future__ import annotations

import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    AllZeroRow,
    ConfigError,
    EmptyAfterFilter,
    IdOutOfRange,
    LengthMismatch,
    NonFiniteValue,
    UnknownRawIdWarning,
)
from . import sk_formats
from .sk_formats import LabelArray
from .scan_aggregator import RigidTransform, window_relative_transform

IGNORE = -1

_RAW_ID_SPACE = 1 << 16


@dataclass(frozen=True)
class ClassMap:
    """Raw-id to train-id remap plus the thing/stuff split.

    ``raw_to_train`` is a dense lookup table over the 16-bit raw id space
    with IGNORE for unmapped ids; ``known_raw`` marks ids the map actually
    lists (so silently-unknown ids can be counted).
    """

    raw_to_train: np.ndarray  # (65536,) int32, IGNORE where unmapped
    known_raw: np.ndarray  # (65536,) bool
    train_to_raw: np.ndarray  # (C,) int64 canonical raw ids
    thing_mask: np.ndarray  # (C,) bool
    names: tuple[str, ...]

    @property
    def n_classes(self) -> int:
        return len(self.train_to_raw)

    def __post_init__(self):
        c = len(self.train_to_raw)
        if len(self.thing_mask) != c or len(self.names) != c:
            raise ConfigError("class map: names/things length disagrees with class count")
        back = self.raw_to_train[self.train_to_raw]
        if not np.array_equal(back, np.arange(c)):
            raise ConfigError("class map: canonical ids do not map back to their train ids")

    @classmethod
    def load(cls, path) -> "ClassMap":
        """Parse the plain-text key-value class map format."""
        n_classes = None
        things: list[int] = []
        names: dict[int, str] = {}
        remap_pairs: dict[int, int] = {}
        canonical: dict[int, int] = {}
        for where, line in sk_formats.config_lines(path):
            key, _, value = line.partition(":")
            key_parts = key.split()
            value = value.strip()
            try:
                if key_parts[0] == "classes":
                    n_classes = int(value)
                elif key_parts[0] == "things":
                    things = [int(t) for t in value.split()]
                elif key_parts[0] == "name":
                    names[int(key_parts[1])] = value
                elif key_parts[0] == "remap":
                    raw = int(key_parts[1])
                    remap_pairs[raw] = IGNORE if value == "ignore" else int(value)
                elif key_parts[0] == "canonical":
                    canonical[int(key_parts[1])] = int(value)
                else:
                    raise ConfigError(f"{where}: unknown key {key_parts[0]!r}")
            except (ValueError, IndexError) as exc:
                raise ConfigError(f"{where}: {exc}") from None
        if n_classes is None:
            raise ConfigError(f"{path}: missing 'classes:' line")
        if sorted(canonical) != list(range(n_classes)):
            raise ConfigError(f"{path}: canonical ids must cover 0..{n_classes - 1}")

        raw_to_train = np.full(_RAW_ID_SPACE, IGNORE, dtype=np.int32)
        known = np.zeros(_RAW_ID_SPACE, dtype=bool)
        for raw, train in remap_pairs.items():
            if not 0 <= raw < _RAW_ID_SPACE:
                raise ConfigError(f"{path}: raw id {raw} out of 16-bit range")
            if train != IGNORE and not 0 <= train < n_classes:
                raise ConfigError(f"{path}: train id {train} out of range for raw {raw}")
            raw_to_train[raw] = train
            known[raw] = True
        thing_mask = np.zeros(n_classes, dtype=bool)
        thing_mask[things] = True
        return cls(
            raw_to_train=raw_to_train,
            known_raw=known,
            train_to_raw=np.array([canonical[t] for t in range(n_classes)], dtype=np.int64),
            thing_mask=thing_mask,
            names=tuple(names.get(t, f"class-{t}") for t in range(n_classes)),
        )

    @classmethod
    def semantic_kitti(cls) -> "ClassMap":
        """The bundled 19-class SemanticKITTI map (8 things, 11 stuff)."""
        with resources.as_file(
            resources.files("panseg4d").joinpath("data/semantic_kitti_classes.txt")
        ) as path:
            return cls.load(path)


@dataclass(frozen=True)
class SemanticPrior:
    """Per-point semantic evidence rows; each row is nonnegative and sums to 1."""

    matrix: np.ndarray  # (n, C) float64

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise LengthMismatch(f"prior matrix must be 2-D, got shape {matrix.shape}")
        if matrix.size:
            if matrix.min() < 0:
                raise AllZeroRow("prior rows must be nonnegative")
            sums = matrix.sum(axis=1)
            if np.abs(sums - 1.0).max() > 1e-6:
                bad = int(np.argmax(np.abs(sums - 1.0)))
                raise LengthMismatch(f"prior row {bad} sums to {sums[bad]!r}, expected 1")
        object.__setattr__(self, "matrix", matrix)

    def __len__(self) -> int:
        return len(self.matrix)


def remap(labels, class_map: ClassMap) -> np.ndarray:
    """Map raw semantic ids to train ids; unknown raw ids become IGNORE.

    Accepts a :class:`LabelArray` or any array of raw ids. Unknown ids are
    tolerated by design and reported once per call with their count.
    """
    raw = labels.semantic_raw if isinstance(labels, LabelArray) else np.asarray(labels, dtype=np.int64)
    raw = raw.reshape(-1)
    unknown = int((~class_map.known_raw[raw]).sum())
    if unknown:
        warnings.warn(
            f"{unknown} label(s) with raw ids absent from the class map -> IGNORE",
            UnknownRawIdWarning,
            stacklevel=2,
        )
    return class_map.raw_to_train[raw].astype(np.int64)


def encode_one_hot(train_ids, n_classes: int) -> SemanticPrior:
    """Unit-vector rows for valid ids; IGNORE rows encode as uniform 1/C."""
    ids = np.asarray(train_ids, dtype=np.int64).reshape(-1)
    valid = ids != IGNORE
    if valid.any():
        bad = valid & ((ids < 0) | (ids >= n_classes))
        if bad.any():
            i = int(np.argmax(bad))
            raise IdOutOfRange(f"train id {int(ids[i])} at row {i} outside [0, {n_classes})")
    matrix = np.zeros((len(ids), n_classes), dtype=np.float64)
    matrix[valid, ids[valid]] = 1.0
    matrix[~valid] = 1.0 / n_classes
    return SemanticPrior(matrix=matrix)


def normalize_confidences(raw_scores) -> SemanticPrior:
    """Divide each nonnegative score row by its sum."""
    scores = np.asarray(raw_scores, dtype=np.float64)
    if scores.ndim != 2:
        raise LengthMismatch(f"confidence array must be 2-D, got shape {scores.shape}")
    if scores.size and scores.min() < 0:
        raise AllZeroRow("confidence rows must be nonnegative")
    sums = scores.sum(axis=1)
    zero = sums <= 0
    if zero.any():
        raise AllZeroRow(f"confidence row {int(np.argmax(zero))} has no positive entry")
    return SemanticPrior(matrix=scores / sums[:, None])


def majority_label(member_train_ids) -> int:
    """Modal train id of the members, IGNORE excluded; ties break low."""
    ids = np.asarray(member_train_ids, dtype=np.int64).reshape(-1)
    ids = ids[ids != IGNORE]
    if ids.size == 0:
        raise EmptyAfterFilter("no members left after dropping IGNORE labels")
    values, counts = np.unique(ids, return_counts=True)
    return int(values[int(np.argmax(counts))])


def argmax_label(prior_row) -> int:
    """Index of the largest entry; ties break to the lowest index."""
    row = np.asarray(prior_row, dtype=np.float64).reshape(-1)
    return int(np.argmax(row))


def argmax_labels(prior_matrix) -> np.ndarray:
    """Row-wise :func:`argmax_label` for a full prior matrix, except that a
    row whose largest entry is at most 1/C (the uniform row an IGNORE label
    encodes to) reduces to IGNORE: it carries no class evidence."""
    matrix = np.asarray(prior_matrix, dtype=np.float64)
    labels = np.argmax(matrix, axis=1).astype(np.int64, copy=False)
    labels[matrix[np.arange(len(matrix)), labels] <= 1.0 / matrix.shape[1]] = IGNORE
    return labels


class ScanInputs(NamedTuple):
    """One scan's provider inputs, row-aligned with the scan's points."""

    labels: np.ndarray  # (n,) int64 train ids, IGNORE where unlabelled
    offsets: np.ndarray  # (n, 3) float64, in the scan's sensor frame


def check_scan_inputs(inputs: ScanInputs, scan_index: int, n_points: int, n_classes: int) -> ScanInputs:
    """``inputs`` as int64 labels beside their offsets, after checking that
    both hold one row per point, every label is IGNORE or a train id below
    ``n_classes`` and every offset is finite; errors name the scan."""
    labels, offsets = np.asarray(inputs.labels), np.asarray(inputs.offsets)
    if labels.shape != (n_points,):
        raise LengthMismatch(f"scan {scan_index}: labels of shape {labels.shape} for {n_points} points")
    if labels.dtype.kind not in "iu":
        raise IdOutOfRange(f"scan {scan_index}: labels of dtype {labels.dtype} are not train ids")
    if n_points and (labels.min() < IGNORE or labels.max() >= n_classes):
        i = int(np.argmax((labels < IGNORE) | (labels >= n_classes)))
        raise IdOutOfRange(
            f"scan {scan_index}: label {int(labels[i])} at point {i} outside [{IGNORE}, {n_classes})"
        )
    if offsets.shape != (n_points, 3):
        raise LengthMismatch(f"scan {scan_index}: offsets of shape {offsets.shape} for {n_points} points")
    if not np.isfinite(offsets).all():
        i = int(np.argmin(np.isfinite(offsets).all(axis=1)))
        raise NonFiniteValue(f"scan {scan_index}: non-finite offset at point {i}")
    return ScanInputs(labels.astype(np.int64, copy=False), offsets)


def rotate_into_window(lidar_poses: Sequence[RigidTransform], start: int, scan_offsets) -> np.ndarray:
    """Sensor-frame offsets of scans ``start``, ``start + 1``, ... rotated
    into scan ``start``'s frame (the rotation the aggregator applies to the
    points) and concatenated in scan order."""
    rows = [
        offsets @ window_relative_transform(lidar_poses, start, start + i).rotation.T
        for i, offsets in enumerate(scan_offsets)
    ]
    return np.concatenate(rows) if rows else np.zeros((0, 3))


class PredictionSource(ABC):
    """Provider of each scan's semantic labels and offsets.

    The pipeline asks :meth:`scan_inputs` once per scan, in the window job
    that decoded the scan, and passes the offsets of a window's scans, in
    window order, to :meth:`window_offsets`, which returns them in the frame
    of the window's reference scan, row-aligned with the aggregated cloud.
    """

    @abstractmethod
    def scan_inputs(self, scan_index: int, points: np.ndarray) -> ScanInputs:
        """Scan k's inputs, one row per row of its (n, 3) sensor-frame
        ``points``; a provider that needs no coordinates uses only ``len``."""

    @abstractmethod
    def semantic_prior(self, scan_index: int, points: np.ndarray) -> SemanticPrior:
        ...

    @abstractmethod
    def window_offsets(self, window: tuple[int, int], scan_offsets: Sequence[np.ndarray]) -> np.ndarray:
        ...


class FileProvider(PredictionSource):
    """Reads labels and offsets from per-scan files.

    Semantic inputs are either ``.label``-format files (semantic field used,
    instance field ignored) or confidence files (N x C float32 rows). Offset
    files hold N x 3 float32 rows per scan in the scan's sensor frame, which
    :meth:`window_offsets` rotates into each window's frame using the lidar
    poses. N is the number of points the caller passes; no coordinate is read.
    """

    def __init__(
        self,
        class_map: ClassMap,
        lidar_poses: Sequence[RigidTransform],
        semantic_paths: Sequence | None = None,
        confidence_paths: Sequence | None = None,
        offset_paths: Sequence | None = None,
    ):
        if (semantic_paths is None) == (confidence_paths is None):
            raise ConfigError("provide exactly one of semantic_paths / confidence_paths")
        self.class_map = class_map
        self.semantic_paths = list(semantic_paths) if semantic_paths is not None else None
        self.confidence_paths = list(confidence_paths) if confidence_paths is not None else None
        self.offset_paths = list(offset_paths) if offset_paths is not None else None
        self.lidar_poses = lidar_poses

    def _path_for(self, paths, scan_index: int, what: str):
        if paths is None or scan_index >= len(paths):
            raise FileNotFoundError(f"no {what} file configured for scan {scan_index}")
        path = Path(paths[scan_index])
        if not path.exists():
            raise FileNotFoundError(f"{what} file for scan {scan_index} not found: {path}")
        return path

    def _confidences(self, scan_index: int, n_points: int) -> SemanticPrior:
        path = self._path_for(self.confidence_paths, scan_index, "confidence")
        scores = sk_formats.read_confidences(path, n_points, self.class_map.n_classes)
        return normalize_confidences(scores)

    def _labels(self, scan_index: int, n_points: int) -> np.ndarray:
        if self.semantic_paths is None:
            return argmax_labels(self._confidences(scan_index, n_points).matrix)
        path = self._path_for(self.semantic_paths, scan_index, "semantic label")
        return remap(sk_formats.read_labels(path, n_points), self.class_map)

    def scan_inputs(self, scan_index: int, points: np.ndarray) -> ScanInputs:
        labels = self._labels(scan_index, len(points))
        path = self._path_for(self.offset_paths, scan_index, "offset")
        return ScanInputs(labels, sk_formats.read_offsets(path, len(points)))

    def semantic_prior(self, scan_index: int, points: np.ndarray) -> SemanticPrior:
        if self.semantic_paths is None:
            return self._confidences(scan_index, len(points))
        return encode_one_hot(self._labels(scan_index, len(points)), self.class_map.n_classes)

    def window_offsets(self, window: tuple[int, int], scan_offsets: Sequence[np.ndarray]) -> np.ndarray:
        return rotate_into_window(self.lidar_poses, window[0], scan_offsets)
