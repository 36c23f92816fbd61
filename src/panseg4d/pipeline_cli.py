"""Command-line entry point wiring the pipeline into runnable workflows.

Subcommands:

* ``synth``     generate a synthetic dataset in the SemanticKITTI layout
* ``segment``   run aggregation, proposal voting, merging, and id stitching
* ``evaluate``  score predictions against ground truth (or re-emit the
  combined score from a fixture of (s_assoc, s_cls) pairs)
* ``ablate``    sweep a label-noise grid and tabulate the scores
* ``inspect``   dump header/stats of any supported file

``segment`` takes a sequence's windows in order, on a thread pool when
``threads > 1``, with at most ``threads + 1`` windows submitted and not yet
stitched. Before the first window only poses, calibration and each
velodyne file's size are read. The first window job holding a scan decodes
it and reads its provider inputs (train ids and sensor-frame offsets) once;
later windows holding it wait for that result, and each window only
rotates its scans' offsets into its own frame. Each window is stitched and
its new scans are written as soon as its result arrives; only the previous
window's result and the decoded scans and inputs from the next window's
start on are kept, so the scans held do not grow with the sequence's
length. A bad scan fails the run when its first window reaches it, after
earlier windows have written their predictions.

Configuration comes from one plain-text key-value file plus flag overrides;
flags win. Diagnostics go to stderr, data to files. Exit code 0 iff no
errors.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
import warnings
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import sk_formats
from .errors import ConfigError, CountMismatch, PipelineError, UnknownRawIdWarning
from .lstq_eval import LSTQReport, SequenceEvaluator, lstq, pool_reports
from .proposal_engine import (
    DEFAULT_DBSCAN_EPS_M,
    DEFAULT_DBSCAN_MIN_PTS,
    DEFAULT_GROUP_RADIUS_M,
    NOISE,
    covering_bound,
    covering_prefix,
    dbscan,
    default_proposal_count,
    farthest_point_sample,
    merge_and_assign,
    radius_group,
    refine_proposal,
    shift_to_centers,
)
from .scan_aggregator import aggregate, lidar_poses_from_camera_poses
from .semantic_prior import IGNORE, ClassMap, FileProvider, check_scan_inputs
from .synthlab import DatasetTruth, OracleProvider, SceneConfig, generate, write_dataset
from .window_tracker import MAX_GLOBAL_ID, TrackState, WindowSegmentation, shared_rows, stitch

ENV_DATASET_ROOT = "PANSEG4D_DATA"

logger = logging.getLogger("panseg4d")


def bundled_path(name: str) -> Path:
    resource = resources.files("panseg4d").joinpath(f"data/{name}")
    with resources.as_file(resource) as path:
        return Path(path)


@dataclass
class PipelineConfig:
    """Everything a segment/ablate run needs, file-loadable and overridable."""

    dataset_root: Path = field(default_factory=lambda: Path(os.environ.get(ENV_DATASET_ROOT, ".")))
    out_dir: Path = Path("out")
    sequences: tuple[str, ...] = ("00",)
    window_n: int = 2
    stride: int = 0  # 0 = auto (window_n - 1, minimum 1)
    source: str = "oracle"  # "oracle" | "files"
    scene_config: Path | None = None
    # source=files reads exactly one semantic input kind: .label files from
    # semantic_dir or .conf confidence rows from confidence_dir.
    semantic_dir: str | None = None  # may contain {seq}
    confidence_dir: str | None = None
    offset_dir: str | None = None
    flip_prob: float = 0.0
    offset_sigma: float = 0.0
    noise_seed: int = 0
    k_proposals: int = 0  # cap on seeds per window; 0 = default_proposal_count(window points)
    group_radius_m: float = DEFAULT_GROUP_RADIUS_M
    dbscan_eps_m: float = DEFAULT_DBSCAN_EPS_M
    dbscan_min_pts: int = DEFAULT_DBSCAN_MIN_PTS
    threads: int = 1

    @property
    def effective_stride(self) -> int:
        return self.stride if self.stride > 0 else max(1, self.window_n - 1)

    def validate(self) -> None:
        check_sequences(self.sequences)
        if self.window_n < 1:
            raise ConfigError("window_n must be >= 1")
        if self.stride and not 1 <= self.stride <= self.window_n:
            raise ConfigError(f"stride must lie in [1, window_n], got {self.stride}")
        if self.source not in ("oracle", "files"):
            raise ConfigError(f"source must be oracle or files, got {self.source!r}")
        if self.source == "oracle" and self.scene_config is None:
            raise ConfigError("source=oracle requires scene_config")
        if self.source == "files":
            if self.offset_dir is None:
                raise ConfigError("source=files requires offset_dir")
            if (self.semantic_dir is None) == (self.confidence_dir is None):
                raise ConfigError("source=files requires exactly one of semantic_dir, confidence_dir")
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ConfigError("flip_prob must lie in [0, 1]")
        if self.offset_sigma < 0:
            raise ConfigError("offset_sigma must be >= 0")
        if self.k_proposals < 0 or self.threads < 1 or self.dbscan_min_pts < 1:
            raise ConfigError("k_proposals >= 0, threads >= 1, dbscan_min_pts >= 1 required")
        if min(self.group_radius_m, self.dbscan_eps_m) <= 0:
            raise ConfigError("group_radius_m, dbscan_eps_m must be positive")

    @classmethod
    def from_file(cls, path, **overrides) -> "PipelineConfig":
        """The file's config with the non-None ``overrides`` applied,
        validated; errors name ``path``."""
        return sk_formats.read_config(cls, path, "config", **overrides)


def check_sequences(sequences) -> None:
    """A run names at least one sequence, and none twice: two runs of one
    sequence would write over the same output directory."""
    if not sequences:
        raise ConfigError("sequences must name at least one sequence")
    repeated = [sequence for k, sequence in enumerate(sequences) if sequence in sequences[:k]]
    if repeated:
        raise ConfigError(f"sequence {repeated[0]} is listed more than once")


def plan_windows(n_scans: int, window_n: int, stride: int) -> list[tuple[int, int]]:
    """Window starts covering every scan; a clipped tail window if needed."""
    if window_n > n_scans:
        raise ConfigError(f"window_n={window_n} exceeds the {n_scans} scans available")
    starts = list(range(0, n_scans - window_n + 1, stride))
    if starts[-1] + window_n < n_scans:
        starts.append(n_scans - window_n)
    return [(start, window_n) for start in starts]


def scan_files(seq_dir: Path) -> list[sk_formats.ScanFile]:
    """One undecoded handle per velodyne file of a sequence, in name order
    (list position is the scan index), sized from one directory listing; a
    file that is not whole point records raises ``FileTooShort``."""
    velodyne = seq_dir / "velodyne"
    try:
        with os.scandir(velodyne) as entries:
            files = sorted(
                (entry.path, entry.stat().st_size) for entry in entries if entry.name.endswith(".bin")
            )
    except FileNotFoundError:
        files = []
    if not files:
        raise ConfigError(f"no scans under {velodyne}")
    return [sk_formats.scan_file(path, n_bytes) for path, n_bytes in files]


def load_sequence(dataset_root, sequence: str):
    """Scan handles (``len()`` is each scan's point count, nothing is
    decoded), lidar poses, and the sequence directory for one sequence."""
    seq_dir = Path(dataset_root) / sequence
    scans = scan_files(seq_dir)
    calib = sk_formats.read_calib(seq_dir / "calib.txt")
    rotations, translations = sk_formats.read_poses(seq_dir / "poses.txt")
    if len(rotations) != len(scans):
        raise CountMismatch(f"{seq_dir}: {len(rotations)} poses for {len(scans)} scans")
    return scans, lidar_poses_from_camera_poses(rotations, translations, calib), seq_dir


def build_provider(config: PipelineConfig, sequence: str, scans, lidar_poses, class_map: ClassMap):
    if config.source == "oracle":
        # The oracle's truth is the dataset's own labels/ files, read per scan
        # when asked; the scene config only checks the dataset's shape.
        scene = SceneConfig.load(config.scene_config)
        if scene.n_scans != len(scans) or any(len(scan) != scene.points_per_scan for scan in scans):
            raise ConfigError(
                f"scene_config {config.scene_config} does not match dataset {sequence}"
            )
        return OracleProvider(
            lidar_poses=lidar_poses,
            gt=DatasetTruth(Path(config.dataset_root) / sequence, class_map),
            class_map=class_map,
            flip_prob=config.flip_prob,
            offset_sigma=config.offset_sigma,
            noise_seed=config.noise_seed,
        )

    def scan_paths(template: str | None, extension: str) -> list[str] | None:
        if template is None:
            return None
        directory = template.format(seq=sequence)
        return [os.path.join(directory, f"{k:06d}{extension}") for k in range(len(scans))]

    return FileProvider(
        class_map=class_map,
        semantic_paths=scan_paths(config.semantic_dir, ".label"),
        confidence_paths=scan_paths(config.confidence_dir, ".conf"),
        offset_paths=scan_paths(config.offset_dir, ".offset"),
        lidar_poses=lidar_poses,
    )


@dataclass
class SegmentStats:
    sequence: str
    n_scans: int
    total_points: int
    window_rows: list[str]
    wall_time_s: float
    uncovered_thing_points: int

    @property
    def points_per_sec(self) -> float:
        """End-to-end throughput: every scan's points over the run's wall time."""
        return self.total_points / self.wall_time_s if self.wall_time_s > 0 else float("inf")


def _segment_window(config, window, scans, lidar_poses, labels, scan_offsets, provider, thing_mask):
    timing: dict[str, float] = {}

    def clock(name, fn):
        start = time.perf_counter()
        result = fn()
        timing[name] = time.perf_counter() - start
        return result

    cloud = clock("aggregate", lambda: aggregate(scans, lidar_poses, labels, window))
    offsets = clock("offsets", lambda: provider.window_offsets(window, scan_offsets))
    centers = clock("shift", lambda: shift_to_centers(cloud.positions, offsets))
    k = config.k_proposals or default_proposal_count(len(cloud))
    # Seeds come from thing-labelled points only; members from every point.
    thing = np.flatnonzero(thing_mask[cloud.prior] & (cloud.prior != IGNORE))

    def sample_seeds():
        if not len(thing):
            return thing, 0
        # A covering prefix holds at most covering_bound picks, and the first
        # m picks do not depend on the count asked for, so the prefix of the
        # first min(k, bound) picks is the prefix of all k.
        votes = centers[thing]
        count = min(k, covering_bound(votes, config.group_radius_m))
        picks = thing[farthest_point_sample(votes, count)]
        return picks[: covering_prefix(centers[picks], config.group_radius_m)], len(picks)

    seed_indices, picks = clock("fps", sample_seeds)
    # Each seed's own shifted center lies within the radius, so no group is empty.
    groups = clock("group", lambda: radius_group(centers[seed_indices], centers, config.group_radius_m))
    proposal_centers = clock("refine", lambda: refine_proposal(centers, groups))
    cluster_ids = clock(
        "dbscan", lambda: dbscan(proposal_centers, config.dbscan_eps_m, config.dbscan_min_pts)
    )
    segmentation = clock(
        "merge",
        lambda: merge_and_assign(centers, groups, proposal_centers, cluster_ids, cloud.prior, thing_mask),
    )
    result = WindowSegmentation(segmentation=segmentation, scan_starts=cloud.scan_starts, window=window)
    counters = {
        "points": len(cloud),
        "things": len(thing),
        "picks": picks,
        "proposals": len(groups),
        "clusters": int(cluster_ids.max()) + 1 if len(cluster_ids) else 0,
        "noise": int((cluster_ids == NOISE).sum()),
        # Merge numbers kept instances 1..M and stitching maps them one to one.
        "instances": int(segmentation.instance.max(initial=0)),
    }
    return result, timing, counters


def _read_scans(provider, futures: dict[int, Future], scans, n_classes: int) -> None:
    """Decode each scan and read its checked provider inputs, in scan order,
    into its future as ``(scan, inputs)``. On failure every future still
    unset gets the error, so no window waits for a scan that will never be
    read."""
    try:
        for scan_index, future in futures.items():
            scan = sk_formats.read_scan(scans[scan_index].path, scan_index)
            inputs = provider.scan_inputs(scan_index, scan.points)
            future.set_result((scan, check_scan_inputs(inputs, scan_index, len(scan), n_classes)))
    except BaseException as exc:
        for future in futures.values():
            if not future.done():
                future.set_exception(exc)
        raise


def _in_order(pool, fn, items, limit: int):
    """``fn`` over ``items`` on ``pool``, results yielded in item order, with
    at most ``limit`` items submitted and not yet consumed (a result is
    consumed when the next one is asked for)."""
    pending = deque()
    for item in items:
        if len(pending) == limit:
            yield pending.popleft().result()
        pending.append(pool.submit(fn, item))
    while pending:
        yield pending.popleft().result()


def segment_sequence(config: PipelineConfig, sequence: str) -> SegmentStats:
    """Run the full window pipeline for one sequence and write predictions."""
    config.validate()
    wall_start = time.perf_counter()
    class_map = ClassMap.semantic_kitti()
    scans, lidar_poses, _ = load_sequence(config.dataset_root, sequence)
    provider = build_provider(config, sequence, scans, lidar_poses, class_map)
    windows = plan_windows(len(scans), config.window_n, config.effective_stride)
    out_seq = Path(config.out_dir) / sequence
    pred_dir = out_seq / "predictions"
    pred_dir.mkdir(parents=True, exist_ok=True)
    # IGNORE (-1) reads the appended slot: unlabelled points write raw 0.
    raw_of = np.append(class_map.train_to_raw, 0)

    # Scan index -> its decoded scan and provider inputs (train ids and
    # sensor-frame offsets), a future set by the first window job that holds
    # the scan, so each scan's files are read once. Filled on the main
    # thread, in window order, as each window is handed out.
    inputs: dict[int, Future] = {}

    def hand_out(window):
        held = range(window[0], window[0] + window[1])
        owned = {k: Future() for k in held if k not in inputs}
        inputs.update(owned)
        return window, {k: inputs[k] for k in held}, owned

    def job(task):
        window, held, owned = task
        start = time.perf_counter()
        _read_scans(provider, owned, scans, class_map.n_classes)
        inputs_s = time.perf_counter() - start
        # Aligned with the sequence; only this window's slots are filled.
        window_scans, labels = [None] * len(scans), [None] * len(scans)
        scan_offsets = []
        for scan_index, future in held.items():
            window_scans[scan_index], (labels[scan_index], offsets) = future.result()
            scan_offsets.append(offsets)
        result, timing, counters = _segment_window(
            config, window, window_scans, lidar_poses, labels, scan_offsets, provider, class_map.thing_mask
        )
        return result, {**timing, "inputs": inputs_s}, counters

    state = TrackState()
    previous: WindowSegmentation | None = None
    written = 0  # scans before this index have their prediction file
    window_rows: list[str] = []
    uncovered_total = 0
    # Results arrive lazily in window order; each window is stitched against
    # the previous one and its new scans written as it arrives. The pool runs
    # at most one window ahead of its threads, so few results wait.
    with ThreadPoolExecutor(max_workers=config.threads) if config.threads > 1 else nullcontext() as pool:
        tasks = map(hand_out, windows)
        results = _in_order(pool, job, tasks, config.threads + 1) if pool else map(job, tasks)
        for position, (window, (window_seg, timing, counters)) in enumerate(zip(windows, results)):
            state, previous = stitch(state, previous, window_seg, shared_rows(previous, window_seg))
            seg = previous.segmentation
            uncovered_total += seg.uncovered_thing_points
            row = (
                f"window start={window[0]} n={window[1]} "
                + "".join(f"{name}={count} " for name, count in counters.items())
                + f"uncovered={seg.uncovered_thing_points} demoted={seg.instances_demoted} "
                f"contested={seg.contested_points} "
                + " ".join(f"{name}={seconds * 1e3:.1f}ms" for name, seconds in timing.items())
            )
            window_rows.append(row)
            logger.info("%s: %s", sequence, row)

            # Window starts never pass the cursor, so the scans from it to this
            # window's end are held first by this window.
            for scan_index in range(written, window[0] + window[1]):
                rows = previous.rows_for_scan(scan_index)
                sk_formats.write_predictions(
                    pred_dir / f"{scan_index:06d}.label",
                    np.stack([raw_of[seg.semantic[rows]], seg.instance[rows]], axis=1),
                )
            written = window[0] + window[1]
            # Windows not yet stitched start at or after the next one, so
            # scans before it are never asked for again.
            next_start = windows[position + 1][0] if position + 1 < len(windows) else len(scans)
            for scan_index in [k for k in inputs if k < next_start]:
                del inputs[scan_index]

    ids_used = state.next_global_id - 1
    stats = SegmentStats(
        sequence=sequence,
        n_scans=len(scans),
        total_points=sum(len(scan) for scan in scans),
        window_rows=window_rows,
        wall_time_s=time.perf_counter() - wall_start,
        uncovered_thing_points=uncovered_total,
    )
    log_lines = window_rows + [
        f"end-to-end throughput: {stats.points_per_sec:,.0f} points/sec",
        f"uncovered thing points: {uncovered_total}",
        f"wall time: {stats.wall_time_s:.2f} s",
        # Global ids are never reused, so ids per scan times a sequence's
        # length projects its use against the 16-bit limit.
        f"global instance ids used: {ids_used} of {MAX_GLOBAL_ID}, "
        f"{ids_used / len(scans):.4g} per scan",
    ]
    with open(out_seq / "run_log.txt", "w") as log:
        log.writelines(f"{line}\n" for line in log_lines)
    logger.info("%s: %s", sequence, log_lines[-4])
    return stats


def evaluate_directories(
    pred_root,
    dataset_root,
    sequences,
    class_map: ClassMap,
    out_dir,
) -> tuple[dict[str, LSTQReport], LSTQReport]:
    """Score predictions per sequence, plus a report pooled over the sequences.

    Each scan's two label files are read once as packed words and counted
    once, into its sequence's evaluator; the overall report is pooled from
    the sequences' counts (``pool_reports``). Each file holding raw ids
    absent from the class map gets one ``UnknownRawIdWarning`` naming it.
    Writes ``report_<seq>.kv``/``.txt``/``.tubes`` and
    ``report_overall.kv``/``.txt`` under ``out_dir``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports: dict[str, LSTQReport] = {}
    for sequence in sequences:
        seq_dir = Path(dataset_root) / sequence
        evaluator = SequenceEvaluator(class_map)
        # Predictions live under <seq>/predictions; a root without that
        # directory is scored from <seq>/labels, so a dataset can be scored
        # against itself. The choice holds for every scan of the sequence.
        pred_dir = Path(pred_root) / sequence / "predictions"
        if not pred_dir.is_dir():
            pred_dir = Path(pred_root) / sequence / "labels"
        for scan in scan_files(seq_dir):
            stem = Path(scan.path).stem
            gt_path = seq_dir / "labels" / f"{stem}.label"
            pred_path = pred_dir / f"{stem}.label"
            try:
                pred = sk_formats.read_label_words(pred_path, len(scan))
            except FileNotFoundError:
                raise CountMismatch(f"missing prediction file {pred_path}") from None
            gt = sk_formats.read_label_words(gt_path, len(scan))
            pred_unknown, gt_unknown = evaluator.add_scan(pred, gt)
            for path, unknown in ((gt_path, gt_unknown), (pred_path, pred_unknown)):
                if unknown:
                    warnings.warn(
                        f"{path}: {unknown} label(s) with raw ids absent from the class map -> IGNORE",
                        UnknownRawIdWarning,
                        stacklevel=2,
                    )
        report = evaluator.report()
        reports[sequence] = report
        (out_dir / f"report_{sequence}.kv").write_text(report.as_keyvalues(class_map.names))
        (out_dir / f"report_{sequence}.txt").write_text(
            report.as_table(class_map.names, class_map.thing_mask)
        )
        (out_dir / f"report_{sequence}.tubes").write_text(report.as_tube_lines())
    overall_report = pool_reports(reports, class_map)
    (out_dir / "report_overall.kv").write_text(overall_report.as_keyvalues(class_map.names))
    (out_dir / "report_overall.txt").write_text(
        overall_report.as_table(class_map.names, class_map.thing_mask)
    )
    return reports, overall_report


def reemit_fixture_scores(fixture_path, out_path=None) -> list[tuple[str, float, float, float, float | None]]:
    """Recompute the combined score from (s_assoc, s_cls) percent pairs.

    Fixture lines: ``name s_assoc s_cls [expected_combined]``, comments with
    '#'. Returns (name, s_assoc, s_cls, computed, expected) rows.
    """
    rows = []
    for where, line in sk_formats.config_lines(fixture_path):
        name, *numbers = line.split()
        if len(numbers) not in (2, 3):
            raise ConfigError(f"{where}: expected 3 or 4 columns")
        try:
            assoc_pct, cls_pct, *published = map(float, numbers)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        expected = published[0] if published else None
        computed = 100.0 * lstq(cls_pct / 100.0, assoc_pct / 100.0)
        rows.append((name, assoc_pct, cls_pct, computed, expected))
    if out_path is not None:
        lines = [
            f"{name}: {computed:.2f}" + (f" (published {expected:.2f})" if expected is not None else "")
            for name, _, _, computed, expected in rows
        ]
        Path(out_path).write_text("\n".join(lines) + "\n")
    return rows


def run_ablation(config: PipelineConfig, flip_grid: list[float]) -> str:
    """Segment + evaluate over the label flip-probability grid."""
    class_map = ClassMap.semantic_kitti()
    header = (
        f"{'flip':>5s} {'LSTQ':>7s} {'S_assoc':>8s} {'S_cls':>7s} "
        f"{'IoU_Th':>7s} {'IoU_St':>7s}"
    )
    lines = [header, "-" * len(header)]
    for flip_prob in flip_grid:
        sub = replace(config, flip_prob=flip_prob, out_dir=Path(config.out_dir) / f"ablate_{flip_prob:g}")
        for sequence in config.sequences:
            segment_sequence(sub, sequence)
        _, overall = evaluate_directories(
            sub.out_dir, config.dataset_root, config.sequences, class_map, sub.out_dir
        )
        lines.append(
            f"{flip_prob:5.2f} {100 * overall.lstq:7.2f} "
            f"{100 * overall.s_assoc:8.2f} {100 * overall.s_cls:7.2f} "
            f"{100 * overall.iou_th:7.2f} {100 * overall.iou_st:7.2f}"
        )
    return "\n".join(lines) + "\n"


def inspect_path(path) -> str:
    """Human-readable summary of any supported file."""
    path = Path(path)
    if path.suffix == ".bin":
        scan = sk_formats.read_scan(path)
        if len(scan) == 0:
            return f"{path}: scan with 0 points"
        lo, hi = scan.points.min(axis=0), scan.points.max(axis=0)
        return (
            f"{path}: scan with {len(scan)} points\n"
            f"  x [{lo[0]:.2f}, {hi[0]:.2f}] y [{lo[1]:.2f}, {hi[1]:.2f}] "
            f"z [{lo[2]:.2f}, {hi[2]:.2f}]\n"
            f"  feature [{scan.feature.min():.3f}, {scan.feature.max():.3f}]"
        )
    if path.suffix in (".label", ".offset", ".conf"):
        size = path.stat().st_size
        if path.suffix == ".offset":
            # A partial record or a non-finite row raises, naming the file.
            return f"{path}: {len(sk_formats.read_offsets(path, size // 12))} offset rows"
        if path.suffix == ".conf":
            n_classes = ClassMap.semantic_kitti().n_classes
            rows = sk_formats.read_confidences(path, size // (4 * n_classes), n_classes)
            return f"{path}: {len(rows)} confidence rows of {n_classes} classes"
        labels = sk_formats.read_labels(path, size // sk_formats.LABEL_RECORD_BYTES)
        raw_values, raw_counts = np.unique(labels.semantic_raw, return_counts=True)
        top = sorted(zip(raw_counts, raw_values), reverse=True)[:8]
        instances = np.unique(labels.instance_id[labels.instance_id > 0])
        histogram = ", ".join(f"{value}:{count}" for count, value in top)
        return (
            f"{path}: {len(labels)} labels, {len(instances)} instances\n"
            f"  raw id histogram (top): {histogram}"
        )
    if path.name == "poses.txt":
        _, translations = sk_formats.read_poses(path)
        if not len(translations):
            return f"{path}: 0 poses"
        travel = float(np.linalg.norm(translations[-1] - translations[0]))
        return f"{path}: {len(translations)} camera-frame poses, net travel {travel:.2f} m"
    if path.name == "calib.txt":
        calib = sk_formats.read_calib(path)
        return f"{path}: Tr rotation\n{calib.rotation}\n  translation {calib.translation}"
    if path.suffix == ".cfg":
        scene = SceneConfig.load(path)
        return (
            f"{path}: scene with {scene.n_scans} scans x {scene.points_per_scan} points, "
            f"{scene.n_objects} objects, seed {scene.seed}"
        )
    if path.suffix == ".kv":
        return f"{path}:\n{path.read_text().rstrip()}"
    raise ConfigError(f"{path}: unsupported file kind")


def cmd_synth(args) -> int:
    scene_path = args.scene_config or bundled_path("reference_scene.cfg")
    scene = SceneConfig.load(scene_path)
    if args.seed is not None:
        scene.seed = args.seed
        scene.validate()
    class_map = ClassMap.semantic_kitti()
    scans, poses, gt = generate(scene)
    seq_dir = write_dataset(
        args.out, args.sequence, scans, poses, gt, class_map,
        scene_config=scene, emit_offsets=args.emit_offsets,
    )
    print(
        f"wrote {len(scans)} scans ({len(scans) * scene.points_per_scan} points, "
        f"{scene.n_objects} objects) to {seq_dir}"
    )
    return 0


def _config_from_args(args) -> PipelineConfig:
    overrides = {spec.name: getattr(args, spec.name) for spec in fields(PipelineConfig)}
    if args.config:
        return PipelineConfig.from_file(args.config, **overrides)
    config = PipelineConfig(**{k: v for k, v in overrides.items() if v is not None})
    config.validate()
    return config


def cmd_segment(args) -> int:
    config = _config_from_args(args)
    for sequence in config.sequences:
        stats = segment_sequence(config, sequence)
        print(
            f"{sequence}: {stats.n_scans} scans, {stats.total_points} points, "
            f"{stats.points_per_sec:,.0f} points/sec end to end, "
            f"{stats.wall_time_s:.2f} s wall"
        )
    return 0


def cmd_evaluate(args) -> int:
    out_dir = Path(args.out)
    if args.fixture:
        out_dir.mkdir(parents=True, exist_ok=True)
        rows = reemit_fixture_scores(args.fixture, out_dir / "fixture_scores.kv")
        for name, assoc, cls_value, computed, expected in rows:
            suffix = f" (published {expected:.2f})" if expected is not None else ""
            print(f"{name}: s_assoc={assoc:.2f} s_cls={cls_value:.2f} -> {computed:.2f}{suffix}")
        return 0
    if args.pred_root is None:
        raise ConfigError("evaluate requires --pred-root (or --fixture)")
    class_map = ClassMap.semantic_kitti()
    check_sequences(args.sequences)
    reports, overall = evaluate_directories(
        args.pred_root, args.dataset_root, args.sequences, class_map, out_dir
    )
    for sequence, report in reports.items():
        print(f"sequence {sequence}:")
        print(report.as_table(class_map.names, class_map.thing_mask))
    if len(reports) > 1:
        print("overall:")
        print(overall.as_table(class_map.names, class_map.thing_mask))
    return 0


def cmd_ablate(args) -> int:
    config = _config_from_args(args)
    try:
        flip_grid = [float(tok) for tok in sk_formats.split_items(args.flip_grid or "")]
    except ValueError as exc:
        raise ConfigError(f"--flip-grid: {exc}") from None
    table = run_ablation(config, flip_grid)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "ablation.txt").write_text(table)
    print(table, end="")
    return 0


def cmd_inspect(args) -> int:
    for path in args.paths:
        print(inspect_path(path))
    return 0


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    # Each flag's dest is the PipelineConfig field it overrides.
    parser.add_argument("--config", type=Path, help="key-value pipeline config file")
    parser.add_argument("--dataset-root", type=Path)
    parser.add_argument("--out", type=Path, dest="out_dir")
    parser.add_argument("--sequences", type=sk_formats.split_items, help="comma or space separated")
    parser.add_argument("--window-n", type=int)
    parser.add_argument("--stride", type=int)
    parser.add_argument("--source", choices=["oracle", "files"])
    parser.add_argument("--scene-config", type=Path)
    parser.add_argument("--semantic-dir")
    parser.add_argument("--confidence-dir")
    parser.add_argument("--offset-dir")
    # Read by nothing: goes once the benchmark contract (ROADMAP item 4) stops passing it.
    parser.add_argument("--offset-frame", choices=["sensor"])
    parser.add_argument("--flip-prob", type=float)
    parser.add_argument("--offset-sigma", type=float)
    parser.add_argument("--noise-seed", type=int)
    parser.add_argument("--k-proposals", type=int)
    parser.add_argument("--group-radius", type=float, dest="group_radius_m")
    parser.add_argument("--dbscan-eps", type=float, dest="dbscan_eps_m")
    parser.add_argument("--dbscan-min-pts", type=int)
    parser.add_argument("--threads", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panseg4d",
        description="4D panoptic LiDAR segmentation pipeline and evaluator",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic dataset")
    synth.add_argument("--scene-config", type=Path, default=None, dest="scene_config")
    synth.add_argument("--out", type=Path, required=True)
    synth.add_argument("--sequence", default="00")
    synth.add_argument("--seed", type=int, default=None)
    synth.add_argument("--emit-offsets", action="store_true", dest="emit_offsets",
                       help="also write sensor-frame oracle offset files")
    synth.set_defaults(handler=cmd_synth)

    segment = sub.add_parser("segment", help="run the instance pipeline")
    _add_pipeline_flags(segment)
    segment.set_defaults(handler=cmd_segment)

    evaluate = sub.add_parser("evaluate", help="score predictions against labels")
    evaluate.add_argument("--pred-root", type=Path, default=None, dest="pred_root")
    evaluate.add_argument("--dataset-root", type=Path, default=Path(os.environ.get(ENV_DATASET_ROOT, ".")))
    evaluate.add_argument("--sequences", type=sk_formats.split_items, default=("00",))
    evaluate.add_argument("--out", type=Path, required=True)
    evaluate.add_argument("--fixture", type=Path, default=None,
                          help="re-emit combined scores from (s_assoc, s_cls) pairs")
    evaluate.set_defaults(handler=cmd_evaluate)

    ablate = sub.add_parser("ablate", help="sweep label noise")
    _add_pipeline_flags(ablate)
    ablate.add_argument("--flip-grid", default=None, dest="flip_grid",
                        help="comma separated label flip probabilities")
    ablate.set_defaults(handler=cmd_ablate)

    inspect = sub.add_parser("inspect", help="summarize a supported file")
    inspect.add_argument("paths", nargs="+", type=Path)
    inspect.set_defaults(handler=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PipelineError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
