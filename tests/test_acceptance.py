"""Acceptance suite: one criterion per test, one pass/fail line each.

The lines are collected and echoed in the terminal summary (see the
``pytest_terminal_summary`` hook in conftest), so they appear in any run
mode. Tolerances are pinned here, not configurable.
"""

import time
import warnings
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import random_rigid
from panseg4d import sk_formats
from panseg4d.errors import PerformanceWarning
from panseg4d.lstq_eval import s_assoc
from panseg4d.pipeline_cli import (
    PipelineConfig,
    bundled_path,
    evaluate_directories,
    reemit_fixture_scores,
    segment_sequence,
)
from panseg4d.proposal_engine import (
    dbscan,
    farthest_point_sample,
    huber_center_loss,
)
from panseg4d.scan_aggregator import aggregate, transform_points
from panseg4d.semantic_prior import argmax_label, majority_label
from panseg4d.sk_formats import PointCloudScan
from panseg4d.synthlab import oracle_offsets

from test_lstq_eval import assoc_rational_oracle
from test_proposal_engine import dbscan_oracle, fps_oracle, partitions_equal


# One line per criterion, echoed by conftest's terminal-summary hook.
RESULT_LINES: list[str] = []


def _announce(line: str) -> None:
    RESULT_LINES.append(line)
    print(line)


@contextmanager
def criterion(label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        _announce(f"[FAIL] {label}")
        raise
    _announce(f"[PASS] {label}  ({time.perf_counter() - started:.1f}s)")


def test_criterion_1_combined_score_arithmetic():
    with criterion("1 combined-score arithmetic on published pairs (+-0.005)"):
        started = time.perf_counter()
        rows = reemit_fixture_scores(bundled_path("reference_scores.txt"))
        by_name = {name: (computed, expected) for name, _, _, computed, expected in rows}
        required = {
            "baseline_n2": (65.50, 51.38, 58.01),
            "one_hot_n2": (73.00, 66.17, 69.50),
            "one_hot_n4": (74.87, 66.36, 70.49),
        }
        for name, (assoc_pct, cls_pct, combined_pct) in required.items():
            computed, expected = by_name[name]
            assert expected == combined_pct
            assert abs(computed - combined_pct) <= 0.005, (name, computed)
        # Every bundled row carries a published combined value; all must hold.
        for name, _, _, computed, expected in rows:
            assert expected is not None
            assert abs(computed - expected) <= 0.005, (name, computed)
        assert time.perf_counter() - started < 1.0


def test_criterion_2_perfect_oracle_end_to_end(reference_dataset, class_map, tmp_path):
    with criterion("2 perfect-oracle end-to-end, N=2 and N=4 (>= 0.999)"):
        config = reference_dataset.config
        assert config.n_scans >= 4
        assert config.n_objects >= 5
        assert config.points_per_scan >= 20000
        started = time.perf_counter()
        for window_n in (2, 4):
            run = PipelineConfig(
                dataset_root=reference_dataset.root,
                out_dir=tmp_path / f"n{window_n}",
                sequences=("00",),
                window_n=window_n,
                source="oracle",
                scene_config=reference_dataset.scene_path,
                threads=1,
            )
            segment_sequence(run, "00")
            reports, _ = evaluate_directories(
                run.out_dir, reference_dataset.root, ("00",), class_map, run.out_dir
            )
            report = reports["00"]
            assert report.lstq >= 0.999, (window_n, report.lstq)
            assert report.s_assoc >= 0.999, (window_n, report.s_assoc)
            assert report.s_cls >= 0.999, (window_n, report.s_cls)
        assert time.perf_counter() - started < 30.0


def test_criterion_3_oracle_equivalence_suites(class_map):
    with criterion("3 oracle equivalence suites (1000 cases each)"):
        started = time.perf_counter()

        rng = np.random.default_rng(301)
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            count = int(rng.integers(1, n + 3))
            pts = rng.uniform(-10.0, 10.0, (n, 3))
            assert np.array_equal(farthest_point_sample(pts, count), fps_oracle(pts, count))

        rng = np.random.default_rng(302)
        for _ in range(1000):
            n = int(rng.integers(1, 201))
            items = rng.uniform(-3.0, 3.0, (n, 3))
            eps = float(rng.uniform(0.3, 1.2))
            min_pts = int(rng.integers(1, 6))
            got = dbscan(items, eps, min_pts)
            want = dbscan_oracle(items, eps, min_pts)
            assert partitions_equal(got, want)

        rng = np.random.default_rng(303)
        for _ in range(1000):
            scans = []
            pred_seq, gt_seq = [], []
            total_budget = 50
            for _ in range(int(rng.integers(1, 4))):
                n = int(rng.integers(1, max(2, total_budget // 2)))
                total_budget -= n
                pred_inst = rng.integers(0, 5, n)
                gt_inst = rng.integers(0, 5, n)
                gt_sem = rng.integers(-1, 19, n)
                scans.append((pred_inst, gt_inst, gt_sem))
                pred_seq.append((np.zeros(n, dtype=int), pred_inst))
                gt_seq.append((gt_sem, gt_inst))
                if total_budget <= 1:
                    break
            got = s_assoc(pred_seq, gt_seq, thing_mask=class_map.thing_mask)
            want = assoc_rational_oracle(scans, thing_mask=class_map.thing_mask)
            assert abs(got - float(want)) <= 1e-12

        rng = np.random.default_rng(304)
        for _ in range(1000):
            ids = rng.integers(0, 19, size=int(rng.integers(1, 60)))
            counts = {}
            for value in ids.tolist():
                counts[value] = counts.get(value, 0) + 1
            best = max(counts.items(), key=lambda item: (item[1], -item[0]))[0]
            assert majority_label(ids) == best
        rng = np.random.default_rng(305)
        for _ in range(1000):
            row = rng.random(int(rng.integers(1, 40)))
            best, best_value = 0, row[0]
            for index, value in enumerate(row):
                if value > best_value:
                    best, best_value = index, value
            assert argmax_label(row) == best

        assert time.perf_counter() - started < 60.0


def test_criterion_4_geometry():
    with criterion("4 geometry: round trip < 1e-6 m, coincidence < 1e-6 m, rigidity < 1e-9"):
        rng = np.random.default_rng(401)
        for _ in range(200):
            rigid = random_rigid(rng, translation_scale=50.0)
            pts = rng.uniform(-80.0, 80.0, (20, 3))
            back = transform_points(transform_points(pts, rigid), rigid.inverse())
            assert np.abs(back - pts).max() < 1e-6

        world = rng.uniform(-40.0, 40.0, (50, 3))
        poses = [random_rigid(rng, translation_scale=20.0) for _ in range(4)]
        scans = [
            PointCloudScan(points=pose.inverse().apply(world), feature=np.zeros(50), scan_index=k)
            for k, pose in enumerate(poses)
        ]
        labels = [np.zeros(50, dtype=np.int64) for _ in range(4)]
        cloud = aggregate(scans, poses, labels, (0, 4))
        stacked = cloud.positions.reshape(4, 50, 3)
        assert np.linalg.norm(stacked - stacked[0], axis=-1).max() < 1e-6

        moved = transform_points(cloud.positions, random_rigid(rng))
        sample = rng.integers(0, len(moved), 60)
        d_a = np.linalg.norm(cloud.positions[sample][:, None] - cloud.positions[sample][None], axis=-1)
        d_b = np.linalg.norm(moved[sample][:, None] - moved[sample][None], axis=-1)
        assert np.abs(d_a - d_b).max() < 1e-9


def test_criterion_5_io_round_trips(tmp_path):
    with criterion("5 byte-exact I/O round trips, 1000 fixtures per format"):
        rng = np.random.default_rng(501)

        scan_path = tmp_path / "scan.bin"
        for _ in range(1000):
            n = int(rng.integers(0, 65))
            payload = rng.normal(0.0, 30.0, (n, 4)).astype("<f4").tobytes()
            scan_path.write_bytes(payload)
            scan = sk_formats.read_scan(scan_path, 0)
            sk_formats.write_scan(scan_path, scan)
            assert scan_path.read_bytes() == payload

        label_path = tmp_path / "file.label"
        for _ in range(1000):
            n = int(rng.integers(0, 65))
            payload = rng.integers(0, 2**32, n, dtype=np.uint64).astype("<u4").tobytes()
            label_path.write_bytes(payload)
            labels = sk_formats.read_labels(label_path, n)
            sk_formats.write_predictions(label_path, np.stack([labels.semantic_raw, labels.instance_id], axis=1))
            assert label_path.read_bytes() == payload

        pred_path = tmp_path / "pred.label"
        for _ in range(1000):
            n = int(rng.integers(0, 65))
            pairs = np.stack(
                [rng.integers(0, 2**16, n), rng.integers(0, 2**16, n)], axis=1
            )
            sk_formats.write_predictions(pred_path, pairs)
            back = sk_formats.read_labels(pred_path, n)
            assert np.array_equal(back.semantic_raw, pairs[:, 0])
            assert np.array_equal(back.instance_id, pairs[:, 1])


def test_criterion_6_loss_masking_property(reference_dataset):
    with criterion("6 center-loss masking: appending stuff points changes nothing"):
        scans, poses, gt = reference_dataset.scans, reference_dataset.poses, reference_dataset.gt
        window = (0, 2)
        cloud = aggregate(scans, poses, [gt.semantic] * len(scans), window)
        offsets = oracle_offsets(scans, poses, gt, window)
        predicted = cloud.positions + offsets
        true_centers = predicted.copy()
        # Perturb predictions so the loss is nonzero and branch-diverse.
        rng = np.random.default_rng(601)
        predicted = predicted + rng.normal(0.0, 0.8, predicted.shape)
        thing = np.tile(gt.instance, window[1]) > 0
        base = huber_center_loss(predicted, true_centers, thing)
        assert base.value > 0.0

        extra = rng.integers(100, 5000)
        junk_pred = rng.normal(0.0, 100.0, (extra, 3))
        junk_true = rng.normal(0.0, 100.0, (extra, 3))
        appended = huber_center_loss(
            np.concatenate([predicted, junk_pred]),
            np.concatenate([true_centers, junk_true]),
            np.concatenate([thing, np.zeros(extra, dtype=bool)]),
        )
        assert appended.value == base.value
        assert appended.n_points == base.n_points


def test_criterion_7_priors_help_under_offset_noise(reference_dataset, class_map, tmp_path):
    with criterion("7 oracle priors beat 50%-corrupted priors, 5 seeds of 5"):
        started = time.perf_counter()
        wins = 0
        for seed in range(5):
            scores = {}
            for tag, flip in (("clean", 0.0), ("corrupt", 0.5)):
                run = PipelineConfig(
                    dataset_root=reference_dataset.root,
                    out_dir=tmp_path / f"s{seed}_{tag}",
                    sequences=("00",),
                    window_n=2,
                    source="oracle",
                    scene_config=reference_dataset.scene_path,
                    flip_prob=flip,
                    offset_sigma=0.2,
                    noise_seed=1000 + seed,
                )
                segment_sequence(run, "00")
                reports, _ = evaluate_directories(
                    run.out_dir, reference_dataset.root, ("00",), class_map, run.out_dir
                )
                scores[tag] = reports["00"].lstq
            if scores["clean"] > scores["corrupt"]:
                wins += 1
        assert wins == 5
        assert time.perf_counter() - started < 120.0


def test_criterion_8_determinism_and_throughput(reference_dataset, tmp_path):
    with criterion("8 thread determinism; throughput floor measured and logged"):
        runs = {}
        for threads in (1, 4):
            run = PipelineConfig(
                dataset_root=reference_dataset.root,
                out_dir=tmp_path / f"t{threads}",
                sequences=("00",),
                window_n=2,
                source="oracle",
                scene_config=reference_dataset.scene_path,
                threads=threads,
            )
            runs[threads] = segment_sequence(run, "00")
        for k in range(len(reference_dataset.scans)):
            name = f"{k:06d}.label"
            a = (tmp_path / "t1" / "00" / "predictions" / name).read_bytes()
            b = (tmp_path / "t4" / "00" / "predictions" / name).read_bytes()
            assert a == b

        rate = runs[1].points_per_sec
        assert rate > 0
        _announce(f"    end-to-end throughput: {rate:,.0f} points/sec")
        if rate < 1_000_000:
            warnings.warn(
                f"end-to-end throughput {rate:,.0f} points/sec below the 1M floor",
                PerformanceWarning,
                stacklevel=2,
            )
