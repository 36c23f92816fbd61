"""Deterministic synthetic scenes with exact ground truth for every stage.

Scenes are rigid point blobs on linear trajectories above a ground plane
with box obstacles, observed by an ego sensor moving along a waypoint
polyline. :func:`generate` draws the scene layout once: the sensor poses,
each object's zero-mean template, trajectory and class, and the static
stuff points. Every scan holds the same rows in the same order (each
object's template rows, object by object, then the stuff rows), so one
semantic and one instance column label every scan (:class:`GroundTruth`).

Scan k is built from the layout only when it is read from
:class:`SceneScans`: each template is moved to its object's trajectory
point at step k, the stuff rows follow, and all rows are taken into the
sensor frame of pose k, with a feature column from scan k's own keyed
stream. No scan is kept, so :func:`write_dataset` holds one scan at a time
and ``synth``'s memory does not grow with the sequence. Coordinates are
quantized to float32 as a scan is built, so that a scene round-trips
bit-exactly through the on-disk scan format; per-point instance centers
are computed from the quantized points by :func:`instance_centers`, so a
center equals its instance's centroid by construction, and a written
dataset's labels give the same centers bit for bit (:class:`DatasetTruth`).

All randomness comes from the counter-based Philox4x64-10 generator keyed
as ``[seed, (purpose << 32) | index]``; a scan's stream is keyed by its
index, so a scan is the same whichever scans are built before it, and a
(config, seed) pair yields identical scenes everywhere.
Key test vector: ``Philox(key=[42, 0]).random_raw(4)`` ==
(15129985323320379406, 3490965594592278910, 16005516994917231875,
7278743398533373529).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, InfeasibleLayout, LengthMismatch
from . import sk_formats
from .sk_formats import CalibRecord, PointCloudScan
from .scan_aggregator import PoseTable, RigidTransform
from .semantic_prior import (
    IGNORE,
    ClassMap,
    PredictionSource,
    ScanInputs,
    SemanticPrior,
    encode_one_hot,
    remap,
    rotate_into_window,
)

# Stream purposes for the keyed RNG.
_STREAM_LAYOUT = 0
_STREAM_TEMPLATE = 1
_STREAM_STUFF = 2
_STREAM_FEATURE = 3
_STREAM_SEMANTIC_NOISE = 4
_STREAM_OFFSET_NOISE = 5

_MASK64 = (1 << 64) - 1

# Default lidar-to-camera calibration used for emitted datasets: the usual
# axis permutation (x_cam = -y_l, y_cam = -z_l, z_cam = x_l) plus a small
# mounting offset, so camera-frame poses exercise real frame chaining.
DEFAULT_CALIB = CalibRecord(
    rotation=np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]),
    translation=np.array([-0.01, -0.05, -0.29]),
)

ROAD_TRAIN_ID = 8
BUILDING_TRAIN_ID = 12


def keyed_rng(seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    """Philox generator for an independent, reproducible stream."""
    key = np.array([seed & _MASK64, ((purpose << 32) | index) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class SceneConfig:
    """Layout and sampling parameters of a synthetic scene."""

    n_scans: int = 6
    points_per_scan: int = 20000
    n_objects: int = 6
    object_classes: tuple[int, ...] = (0, 3, 4, 5, 6, 7)  # thing train ids, cycled
    # Default speeds keep a moving object's per-scan center chain within the
    # default grouping radius for windows up to N=4 (1.5 m/s * 3 * 0.1 s).
    speed_min: float = 0.5  # m/s
    speed_max: float = 1.5
    radius_min: float = 0.3  # m
    radius_max: float = 0.6
    min_gap: float = 2.0  # m, closest allowed point-to-point distance between objects
    object_z_min: float = 4.0
    object_z_max: float = 5.0
    plane_extent: float = 12.0  # ground plane spans [-extent, extent]^2 at z = 0
    n_boxes: int = 4
    box_height_max: float = 1.0
    box_fraction: float = 0.2  # share of stuff points on boxes
    points_per_m2: float = 60.0  # object surface sampling density
    ego_waypoints: tuple[tuple[float, float, float], ...] = ((0.0, 0.0, 0.0), (8.0, 0.0, 0.0))
    scan_period_s: float = 0.1
    seed: int = 20240831
    enforce_separability: bool = True

    def validate(self) -> None:
        if self.n_scans < 1:
            raise ConfigError("n_scans must be >= 1")
        if self.points_per_scan < 1:
            raise ConfigError("points_per_scan must be >= 1")
        if self.n_objects < 0:
            raise ConfigError("n_objects must be >= 0")
        if self.n_objects and not self.object_classes:
            raise ConfigError("object_classes must be nonempty when n_objects > 0")
        if not 0 < self.radius_min <= self.radius_max:
            raise ConfigError("need 0 < radius_min <= radius_max")
        if not 0 <= self.speed_min <= self.speed_max:
            raise ConfigError("need 0 <= speed_min <= speed_max")
        if self.enforce_separability and self.min_gap <= 2.0 * self.radius_max:
            raise ConfigError(
                f"separability requires min_gap > 2 * radius_max "
                f"({self.min_gap} <= {2.0 * self.radius_max})"
            )
        if len(self.ego_waypoints) < 1:
            raise ConfigError("ego_waypoints must hold at least one waypoint")
        if any(len(waypoint) != 3 for waypoint in self.ego_waypoints):
            raise ConfigError("every ego waypoint needs exactly 3 coordinates")

    def save(self, path) -> None:
        lines = []
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "ego_waypoints":
                value = " ; ".join(",".join(f"{c:.17g}" for c in wp) for wp in value)
            elif spec.name == "object_classes":
                value = " ".join(str(v) for v in value)
            lines.append(f"{spec.name}: {value}")
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "SceneConfig":
        return sk_formats.read_config(cls, path, "scene")


@dataclass
class GroundTruth:
    """Exact per-point labels and the objects' trajectories.

    Every scan of a generated scene holds the same rows in the same order,
    so one ``semantic`` and one ``instance`` column label them all.
    """

    semantic: np.ndarray  # (n,) train ids of every scan's rows
    instance: np.ndarray  # (n,) ids, 0 = stuff
    trajectories: np.ndarray  # (n_objects, n_scans, 3) ideal world centers
    object_classes: np.ndarray  # (n_objects,) train ids
    object_radii: np.ndarray  # (n_objects,)

    def scan_truth(self, scan_index: int, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Scan k's train ids and per-point instance centers, the centers
        taken from ``points`` (scan k's) by :func:`instance_centers`."""
        return self.semantic, instance_centers(points, self.instance)


class DatasetTruth:
    """Ground truth of a written sequence, read from its ``labels/`` files.

    :meth:`scan_truth` decodes scan k's ``.label`` file once for both of
    its results: train ids are the remapped semantic field, centers come
    from the instance field and the scan's points, which the caller passes,
    through :func:`instance_centers`. It holds no scans. The pipeline asks
    once per scan, in the window job that decoded the scan, and holds the
    result while windows need it, so each file is decoded once per run.
    Serves :class:`OracleProvider` in place of a :class:`GroundTruth`
    without regenerating the scene.
    """

    def __init__(self, seq_dir, class_map: ClassMap):
        self.labels_dir = Path(seq_dir) / "labels"
        self.class_map = class_map

    def scan_truth(self, scan_index: int, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Scan k's train ids and per-point instance centers, from one decode
        of its label file, which must hold one record per row of ``points``."""
        path = self.labels_dir / f"{scan_index:06d}.label"
        labels = sk_formats.read_labels(path, len(points))
        centers = instance_centers(points, labels.instance_id)
        return remap(labels, self.class_map), centers


def instance_centers(points, instance_ids) -> np.ndarray:
    """Per point, the centroid of its instance's points; rows with instance
    id 0 (stuff) keep the point itself, so their oracle offset is zero.

    Each instance's rows are summed in ascending row order from the first
    (the order ``points[rows].mean(axis=0)`` adds them) and divided by their
    count, so a scene's centers are the same bits whether its instances
    occupy contiguous slices (as generated) or any other rows.
    """
    points = np.asarray(points, dtype=np.float64)
    ids = np.asarray(instance_ids, dtype=np.int64).reshape(-1)
    if len(ids) != len(points):
        raise LengthMismatch(f"{len(ids)} instance ids for {len(points)} points")
    centers = points.copy()
    rows = np.flatnonzero(ids > 0)
    if len(rows):
        rows = rows[np.argsort(ids[rows], kind="stable")]
        sorted_ids = ids[rows]
        heads = np.flatnonzero(np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1])))
        counts = np.diff(np.append(heads, len(rows)))
        sums = np.add.reduceat(points[rows], heads, axis=0)
        centers[rows] = np.repeat(sums / counts[:, None], counts, axis=0)
    return centers


def _ego_poses(config: SceneConfig) -> list[RigidTransform]:
    """Sensor poses along the waypoint polyline, yaw following the heading."""
    waypoints = np.asarray(config.ego_waypoints, dtype=np.float64)
    if len(waypoints) == 1 or config.n_scans == 1:
        positions = np.repeat(waypoints[:1], config.n_scans, axis=0)
    else:
        seg_lengths = np.linalg.norm(np.diff(waypoints, axis=0), axis=1)
        total = float(seg_lengths.sum())
        stations = np.linspace(0.0, total, config.n_scans)
        cumulative = np.concatenate([[0.0], np.cumsum(seg_lengths)])
        positions = np.empty((config.n_scans, 3))
        for axis in range(3):
            positions[:, axis] = np.interp(stations, cumulative, waypoints[:, axis])
    poses = []
    for k in range(config.n_scans):
        if config.n_scans > 1 and k + 1 < config.n_scans:
            heading = positions[min(k + 1, config.n_scans - 1)] - positions[k]
        elif config.n_scans > 1:
            heading = positions[k] - positions[k - 1]
        else:
            heading = np.zeros(3)
        norm = float(np.hypot(heading[0], heading[1]))
        yaw = float(np.arctan2(heading[1], heading[0])) if norm > 1e-12 else 0.0
        cos_yaw, sin_yaw = np.cos(yaw), np.sin(yaw)
        rotation = np.array(
            [[cos_yaw, -sin_yaw, 0.0], [sin_yaw, cos_yaw, 0.0], [0.0, 0.0, 1.0]]
        )
        poses.append(RigidTransform(rotation=rotation, translation=positions[k]))
    return poses


def _sample_layout(config: SceneConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Object start centers, velocities, and radii satisfying the gap."""
    rng = keyed_rng(config.seed, _STREAM_LAYOUT)
    times = np.arange(config.n_scans) * config.scan_period_s
    centers = np.zeros((config.n_objects, 3))
    velocities = np.zeros((config.n_objects, 3))
    radii = np.zeros(config.n_objects)
    budget = 1000 * max(1, config.n_objects)
    placed = 0
    while placed < config.n_objects:
        if budget <= 0:
            raise InfeasibleLayout(
                f"could not place object {placed} subject to min_gap={config.min_gap}"
            )
        budget -= 1
        span = 0.85 * config.plane_extent
        center = np.array(
            [
                rng.uniform(-span, span),
                rng.uniform(-span, span),
                rng.uniform(config.object_z_min, config.object_z_max),
            ]
        )
        speed = rng.uniform(config.speed_min, config.speed_max)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        velocity = speed * np.array([np.cos(theta), np.sin(theta), 0.0])
        radius = rng.uniform(config.radius_min, config.radius_max)
        ok = True
        for other in range(placed):
            gap_needed = config.min_gap + radius + radii[other]
            delta0 = center - centers[other]
            dvel = velocity - velocities[other]
            dists = np.linalg.norm(delta0[None, :] + times[:, None] * dvel[None, :], axis=1)
            if (dists < gap_needed).any():
                ok = False
                break
        if ok:
            centers[placed] = center
            velocities[placed] = velocity
            radii[placed] = radius
            placed += 1
    return centers, velocities, radii


def _object_template(config: SceneConfig, object_index: int, radius: float) -> np.ndarray:
    """Zero-mean rigid blob sampled on a sphere of the given radius."""
    n_points = max(30, int(round(config.points_per_m2 * 4.0 * np.pi * radius * radius)))
    rng = keyed_rng(config.seed, _STREAM_TEMPLATE, object_index)
    directions = rng.normal(size=(n_points, 3))
    norms = np.linalg.norm(directions, axis=1)
    norms[norms < 1e-12] = 1.0
    points = radius * directions / norms[:, None]
    return points - points.mean(axis=0)


def _sample_stuff(config: SceneConfig, n_stuff: int) -> tuple[np.ndarray, np.ndarray]:
    """Static world stuff points and their semantic train ids."""
    rng = keyed_rng(config.seed, _STREAM_STUFF)
    n_box = int(round(n_stuff * config.box_fraction)) if config.n_boxes > 0 else 0
    n_plane = n_stuff - n_box
    plane = np.zeros((n_plane, 3))
    plane[:, 0] = rng.uniform(-config.plane_extent, config.plane_extent, n_plane)
    plane[:, 1] = rng.uniform(-config.plane_extent, config.plane_extent, n_plane)
    semantics = [np.full(n_plane, ROAD_TRAIN_ID, dtype=np.int64)]
    points = [plane]
    if n_box:
        span = 0.8 * config.plane_extent
        box_centers = rng.uniform(-span, span, (config.n_boxes, 2))
        box_sizes = rng.uniform(1.0, 3.0, (config.n_boxes, 2))
        box_heights = rng.uniform(0.5, config.box_height_max, config.n_boxes)
        box_points = np.zeros((n_box, 3))
        which = np.arange(n_box) % config.n_boxes
        unit = rng.uniform(0.0, 1.0, (n_box, 3))
        box_points[:, 0] = box_centers[which, 0] + (unit[:, 0] - 0.5) * box_sizes[which, 0]
        box_points[:, 1] = box_centers[which, 1] + (unit[:, 1] - 0.5) * box_sizes[which, 1]
        box_points[:, 2] = unit[:, 2] * box_heights[which]
        points.append(box_points)
        semantics.append(np.full(n_box, BUILDING_TRAIN_ID, dtype=np.int64))
    return np.concatenate(points), np.concatenate(semantics)


def _quantize(points: np.ndarray) -> np.ndarray:
    """Round-trip through float32 so in-memory values match the disk format."""
    return points.astype(np.float32).astype(np.float64)


@dataclass(frozen=True)
class SceneScans(Sequence):
    """A scene's scans in their sensor frames, each built from the scene
    layout when it is asked for; item ``k`` is a new
    :class:`PointCloudScan`, and no scan is kept. Every scan holds the
    objects' template rows, object by object, then the static stuff rows."""

    poses: list[RigidTransform]  # lidar poses, one per scan
    trajectories: np.ndarray  # (n_objects, n_scans, 3) world centers
    object_sizes: np.ndarray  # (n_objects,) template rows per object
    object_points: np.ndarray  # (sum of object_sizes, 3) zero-mean templates
    stuff_points: np.ndarray  # (n_stuff, 3) world frame
    seed: int

    def __len__(self) -> int:
        return len(self.poses)

    def __getitem__(self, index: int | slice) -> PointCloudScan | list[PointCloudScan]:
        scans = range(len(self))[index]
        if isinstance(scans, range):
            return [self._build(k) for k in scans]
        return self._build(scans)

    def _build(self, k: int) -> PointCloudScan:
        objects = np.repeat(self.trajectories[:, k], self.object_sizes, axis=0) + self.object_points
        world = np.concatenate((objects, self.stuff_points))
        sensor = _quantize(self.poses[k].inverse().apply(world))
        feature = _quantize(keyed_rng(self.seed, _STREAM_FEATURE, k).random(len(world)))
        return PointCloudScan(points=sensor, feature=feature, scan_index=k)


def generate(config: SceneConfig) -> tuple[SceneScans, list[RigidTransform], GroundTruth]:
    """Lay out the scene: its scans (built one at a time as they are read),
    lidar poses, and ground truth."""
    config.validate()
    object_centers, velocities, radii = _sample_layout(config)
    templates = [
        _object_template(config, j, radii[j]) for j in range(config.n_objects)
    ]
    classes = np.array(
        [config.object_classes[j % len(config.object_classes)] for j in range(config.n_objects)]
        if config.n_objects
        else [],
        dtype=np.int64,
    )
    sizes = np.array([len(t) for t in templates], dtype=np.int64)
    n_object_points = int(sizes.sum())
    n_stuff = config.points_per_scan - n_object_points
    if n_stuff < 0:
        raise ConfigError(
            f"points_per_scan={config.points_per_scan} below the {n_object_points} object points"
        )
    stuff_world, stuff_semantic = _sample_stuff(config, n_stuff)
    poses = _ego_poses(config)

    times = np.arange(config.n_scans) * config.scan_period_s
    trajectories = object_centers[:, None, :] + velocities[:, None, :] * times[None, :, None]

    scans = SceneScans(
        poses=poses,
        trajectories=trajectories,
        object_sizes=sizes,
        object_points=np.concatenate([np.empty((0, 3)), *templates]),
        stuff_points=stuff_world,
        seed=config.seed,
    )
    object_ids = np.arange(1, config.n_objects + 1)
    gt = GroundTruth(
        semantic=np.concatenate((np.repeat(classes, sizes), stuff_semantic)),
        instance=np.concatenate((np.repeat(object_ids, sizes), np.zeros(n_stuff, dtype=np.int64))),
        trajectories=trajectories,
        object_classes=classes,
        object_radii=radii,
    )
    return scans, poses, gt


def oracle_offsets(
    scans: Sequence[PointCloudScan],
    lidar_poses: list[RigidTransform],
    gt: GroundTruth,
    window: tuple[int, int],
) -> np.ndarray:
    """Exact offsets toward instance centers, in the window reference frame.

    Stuff points get zero offsets. Offsets are computed per scan in the
    sensor frame and rotated with the same composed transform the
    aggregator applies, so predicted centers land on the aggregated
    instance centroids to within rounding. The noise-free reference for
    :class:`OracleProvider`'s offsets.
    """
    start, count = window
    return rotate_into_window(lidar_poses, start, [
        gt.scan_truth(k, scan.points)[1] - scan.points
        for k, scan in enumerate(scans[start: start + count], start)
    ])


def _scan_offsets(points, centers, scan_index: int, sigma: float, seed: int) -> np.ndarray:
    """Sensor-frame oracle offsets of one scan, plus its keyed noise."""
    delta = centers - points
    if sigma > 0:
        rng = keyed_rng(seed, _STREAM_OFFSET_NOISE, scan_index)
        delta = delta + rng.normal(0.0, sigma, delta.shape)
    return delta


def flip_labels(train_ids: np.ndarray, flip_prob: float, rng: np.random.Generator, n_classes: int) -> np.ndarray:
    """Replace each label by a uniformly random different class with prob flip_prob.

    Both random draws happen unconditionally so the stream consumption, and
    therefore the result, does not depend on the flip decisions. IGNORE
    (unlabelled) points stay IGNORE.
    """
    ids = np.asarray(train_ids, dtype=np.int64).copy()
    flip = (rng.random(len(ids)) < flip_prob) & (ids != IGNORE)
    shift = rng.integers(1, n_classes, len(ids))
    ids[flip] = (ids[flip] + shift[flip]) % n_classes
    return ids


class OracleProvider(PredictionSource):
    """Prediction source backed by ground truth, with dial-in noise.

    ``gt`` is the generator's :class:`GroundTruth` or a dataset's
    :class:`DatasetTruth`, asked for one scan at a time. The provider holds
    no scans: the caller passes each scan's decoded points, from which the
    offsets are taken. Labels are the ground-truth train ids and offsets
    point from each point to its instance center; ``flip_prob`` corrupts
    labels and ``offset_sigma`` perturbs the offsets, each from its own
    ``noise_seed`` stream keyed by the scan index, so a scan's inputs do not
    depend on the window asking.
    """

    def __init__(
        self,
        lidar_poses: list[RigidTransform],
        gt: GroundTruth | DatasetTruth,
        class_map: ClassMap,
        flip_prob: float = 0.0,
        offset_sigma: float = 0.0,
        noise_seed: int = 0,
    ):
        if not 0.0 <= flip_prob <= 1.0:
            raise ConfigError(f"flip_prob must lie in [0, 1], got {flip_prob}")
        if offset_sigma < 0:
            raise ConfigError(f"offset_sigma must be >= 0, got {offset_sigma}")
        self.lidar_poses = lidar_poses
        self.gt = gt
        self.class_map = class_map
        self.flip_prob = flip_prob
        self.offset_sigma = offset_sigma
        self.noise_seed = noise_seed

    def scan_inputs(self, scan_index: int, points: np.ndarray) -> ScanInputs:
        ids, centers = self.gt.scan_truth(scan_index, points)
        if self.flip_prob > 0:
            rng = keyed_rng(self.noise_seed, _STREAM_SEMANTIC_NOISE, scan_index)
            ids = flip_labels(ids, self.flip_prob, rng, self.class_map.n_classes)
        offsets = _scan_offsets(points, centers, scan_index, self.offset_sigma, self.noise_seed)
        return ScanInputs(ids, offsets)

    def semantic_prior(self, scan_index: int, points: np.ndarray) -> SemanticPrior:
        return encode_one_hot(self.scan_inputs(scan_index, points).labels, self.class_map.n_classes)

    def window_offsets(self, window: tuple[int, int], scan_offsets) -> np.ndarray:
        return rotate_into_window(self.lidar_poses, window[0], scan_offsets)


def write_dataset(
    out_root,
    sequence: str,
    scans: Sequence[PointCloudScan],
    lidar_poses: list[RigidTransform],
    gt: GroundTruth,
    class_map: ClassMap,
    calib: CalibRecord = DEFAULT_CALIB,
    scene_config: SceneConfig | None = None,
    emit_offsets: bool = False,
) -> Path:
    """Emit the scene in the SemanticKITTI directory layout.

    Writes ``velodyne/NNNNNN.bin``, ``labels/NNNNNN.label``, camera-frame
    ``poses.txt`` (Tr . T_lidar . Tr^-1) and ``calib.txt``; optionally a copy
    of the scene config for provenance. With ``emit_offsets``, also each
    scan's sensor-frame oracle offsets as ``oracle_offsets/NNNNNN.offset``
    (read with source=files; ``labels/`` serves as the semantic input).
    Scans are read one at a time and each is written whole before the next.
    """
    seq_dir = Path(out_root) / sequence
    subdirs = ["velodyne", "labels"] + (["oracle_offsets"] if emit_offsets else [])
    for name in subdirs:
        (seq_dir / name).mkdir(parents=True, exist_ok=True)
    # Every scan's label records are the same bytes.
    record = sk_formats.label_bytes(
        np.stack([class_map.train_to_raw[gt.semantic], gt.instance], axis=1), seq_dir / "labels"
    )
    for k, scan in enumerate(scans):
        sk_formats.write_scan(seq_dir / "velodyne" / f"{k:06d}.bin", scan)
        (seq_dir / "labels" / f"{k:06d}.label").write_bytes(record)
        if emit_offsets:
            sk_formats.write_offsets(
                seq_dir / "oracle_offsets" / f"{k:06d}.offset",
                gt.scan_truth(k, scan.points)[1] - scan.points,
            )
    tr = RigidTransform(calib.rotation, calib.translation)
    lidar = PoseTable(
        np.stack([pose.rotation for pose in lidar_poses]),
        np.stack([pose.translation for pose in lidar_poses]),
    )
    camera = lidar.chained(tr, tr.inverse())
    sk_formats.write_poses(seq_dir / "poses.txt", camera.rotations, camera.translations)
    sk_formats.write_calib(seq_dir / "calib.txt", calib)
    if scene_config is not None:
        scene_config.save(seq_dir / "scene.cfg")
    return seq_dir
