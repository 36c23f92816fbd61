"""Scene generator determinism, ground-truth exactness, and noise dials."""

import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from panseg4d import sk_formats
from panseg4d.errors import ConfigError, InfeasibleLayout
from panseg4d.proposal_engine import huber_center_loss
from panseg4d.scan_aggregator import aggregate, window_relative_transform
from panseg4d.errors import LengthMismatch
from panseg4d.semantic_prior import IGNORE, ClassMap, argmax_labels
from panseg4d.synthlab import (
    _STREAM_OFFSET_NOISE,
    DEFAULT_CALIB,
    DatasetTruth,
    GroundTruth,
    OracleProvider,
    SceneConfig,
    flip_labels,
    generate,
    instance_centers,
    keyed_rng,
    oracle_offsets,
    write_dataset,
)


class TestRngContract:
    def test_documented_philox_vector(self):
        # Frozen stream identity for key words [42, 0].
        raw = np.random.Philox(key=np.array([42, 0], dtype=np.uint64)).random_raw(4)
        assert [int(v) for v in raw] == [
            15129985323320379406,
            3490965594592278910,
            16005516994917231875,
            7278743398533373529,
        ]

    def test_keyed_streams_are_independent_and_stable(self):
        a1 = keyed_rng(1, 2, 3).random(4)
        a2 = keyed_rng(1, 2, 3).random(4)
        b = keyed_rng(1, 2, 4).random(4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)


class TestGenerate:
    def test_same_seed_twice_is_byte_identical(self, small_scene):
        again_scans, again_poses, again_gt = generate(small_scene.config)
        for a, b in zip(small_scene.scans, again_scans):
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(a.feature, b.feature)
        for a, b in zip(small_scene.poses, again_poses):
            assert np.array_equal(a.rotation, b.rotation)
            assert np.array_equal(a.translation, b.translation)
        assert len(again_scans) == len(small_scene.scans) == small_scene.config.n_scans
        assert np.array_equal(small_scene.gt.semantic, again_gt.semantic)
        assert np.array_equal(small_scene.gt.instance, again_gt.instance)

    def test_no_objects_means_all_stuff(self):
        config = SceneConfig(n_scans=2, points_per_scan=500, n_objects=0, seed=1)
        scans, _, gt = generate(config)
        assert (gt.instance == 0).all()
        for k in range(2):
            assert len(scans[k]) == 500

    def test_point_budget_is_exact(self, small_scene):
        for scan in small_scene.scans:
            assert len(scan) == small_scene.config.points_per_scan

    def test_separability_by_exhaustive_pairwise_scan(self):
        config = SceneConfig(n_scans=3, points_per_scan=2000, n_objects=2, seed=3)
        scans, _, gt = generate(config)
        for k in range(config.n_scans):
            pts = scans[k].points
            inst = gt.instance
            a, b = pts[inst == 1], pts[inst == 2]
            d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
            assert np.sqrt(d2.min()) > config.min_gap

    def test_center_equals_instance_centroid(self, small_scene):
        for k in range(small_scene.config.n_scans):
            inst = small_scene.gt.instance
            for object_id in range(1, small_scene.config.n_objects + 1):
                members = inst == object_id
                centroid = small_scene.scans[k].points[members].mean(axis=0)
                stored = small_scene.gt.scan_truth(k, small_scene.scans[k].points)[1][members]
                assert np.abs(stored - centroid).max() < 1e-9

    def test_stuff_center_rows_are_the_points(self, small_scene):
        k = 0
        stuff = small_scene.gt.instance == 0
        points = small_scene.scans[k].points
        assert np.array_equal(small_scene.gt.scan_truth(k, points)[1][stuff], points[stuff])

    def test_instance_ids_stable_across_scans(self, small_scene):
        # One instance column labels the rows of every scan.
        ids = set(np.unique(small_scene.gt.instance).tolist()) - {0}
        assert ids == set(range(1, small_scene.config.n_objects + 1))

    def test_object_point_floor(self):
        config = SceneConfig(
            n_scans=1, points_per_scan=500, n_objects=1,
            radius_min=0.05, radius_max=0.06, min_gap=2.0, seed=4,
            enforce_separability=False,
        )
        _, _, gt = generate(config)
        assert int((gt.instance == 1).sum()) >= 30

    def test_infeasible_layout_raises(self):
        config = SceneConfig(
            n_scans=2, points_per_scan=3000, n_objects=8,
            plane_extent=0.6, min_gap=5.0, seed=5,
        )
        with pytest.raises(InfeasibleLayout):
            generate(config)

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            SceneConfig(n_scans=0).validate()
        with pytest.raises(ConfigError):
            SceneConfig(min_gap=1.0, radius_max=0.6).validate()
        with pytest.raises(ConfigError):
            SceneConfig(points_per_scan=10, n_objects=3).validate() or generate(
                SceneConfig(points_per_scan=10, n_objects=3)
            )

    def test_trajectory_is_linear(self, small_scene):
        trajectories = small_scene.gt.trajectories
        dt = small_scene.config.scan_period_s
        step = trajectories[:, 1, :] - trajectories[:, 0, :]
        for k in range(2, small_scene.config.n_scans):
            expected = trajectories[:, 0, :] + k * step
            assert np.abs(trajectories[:, k, :] - expected).max() < 1e-9
        speeds = np.linalg.norm(step / dt, axis=1)
        assert (speeds >= small_scene.config.speed_min - 1e-9).all()
        assert (speeds <= small_scene.config.speed_max + 1e-9).all()


class TestSceneConfigFile:
    def test_save_load_round_trip(self, tmp_path, small_scene):
        path = tmp_path / "scene.cfg"
        small_scene.config.save(path)
        loaded = SceneConfig.load(path)
        assert loaded == small_scene.config

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("n_scans: 2\nwarp_factor: 9\n")
        with pytest.raises(ConfigError):
            SceneConfig.load(path)

    def test_key_given_twice_names_both_lines(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("seed: 1\nn_scans: 2\nseed: 3\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:3: scene key 'seed' is already "
                                              f"set at {re.escape(str(path))}:1$"):
            SceneConfig.load(path)

    def test_invalid_value_exits_2_naming_the_scene_file(self, tmp_path, capsys):
        from panseg4d.pipeline_cli import main

        path = tmp_path / "s.cfg"
        path.write_text("n_scans: 0\n")
        assert main(["synth", "--scene-config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {path}: n_scans must be >= 1\n"
        assert not (tmp_path / "out").exists()

    def test_save_load_round_trips_every_field(self, tmp_path):
        config = SceneConfig(
            n_scans=3, points_per_scan=1234, n_objects=2, object_classes=(5, 1, 7),
            speed_min=0.25, speed_max=0.75, radius_min=0.2, radius_max=0.4, min_gap=3.5,
            object_z_min=1.5, object_z_max=2.5, plane_extent=9.0, n_boxes=1, box_height_max=0.5,
            box_fraction=0.3, points_per_m2=40.0,
            ego_waypoints=((0.1, -0.2, 0.3), (4.0, 1.0 / 3.0, 0.0), (7.5, 2.0, 1e-9)),
            scan_period_s=0.05, seed=99, enforce_separability=False,
        )
        default = SceneConfig()
        assert [spec.name for spec in fields(SceneConfig)
                if getattr(config, spec.name) == getattr(default, spec.name)] == []
        path = tmp_path / "scene.cfg"
        config.save(path)
        assert repr(SceneConfig.load(path)) == repr(config)

    def test_bundled_reference_scene_loads_pinned_values(self):
        loaded = SceneConfig.load(Path(sk_formats.__file__).parent / "data" / "reference_scene.cfg")
        expected = SceneConfig(
            n_scans=6, points_per_scan=20000, n_objects=6, object_classes=(0, 3, 4, 5, 6, 7),
            speed_min=0.5, speed_max=1.5, radius_min=0.3, radius_max=0.6, min_gap=2.0,
            object_z_min=4.0, object_z_max=5.0, plane_extent=12.0, n_boxes=4, box_height_max=1.0,
            box_fraction=0.2, points_per_m2=60.0, ego_waypoints=((0.0, 0.0, 0.0), (8.0, 0.0, 0.0)),
            scan_period_s=0.1, seed=20240831, enforce_separability=True,
        )
        assert repr(loaded) == repr(expected)  # types too: 2.0 is not 2

    def test_separability_reads_only_yes_and_no_words(self, tmp_path):
        path = tmp_path / "scene.cfg"
        for word, value in (("1", True), ("TRUE", True), ("yes", True), ("0", False), ("False", False),
                            ("no", False)):
            path.write_text(f"enforce_separability: {word}\n")
            assert SceneConfig.load(path).enforce_separability is value
        for word in ("ture", "on", "2", ""):
            path.write_text(f"n_scans: 2\nenforce_separability: {word}\n")
            with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:2: expected one of 1/0/true"):
                SceneConfig.load(path)

    def test_waypoint_without_three_coordinates_rejected(self, tmp_path):
        path = tmp_path / "scene.cfg"
        for text, got in (("0,0 ; 8,0 ; 1,1", 2), ("0,0,0 ; 8,0,0,1", 4), ("0,0,0 ; 5", 1)):
            path.write_text(f"ego_waypoints: {text}\n")
            with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:1: expected 3 coordinates per "
                                                  f"waypoint, got {got}$"):
                SceneConfig.load(path)
        # A scene built in code is held to the same rule.
        for waypoints in (((0.0, 0.0), (8.0, 0.0)), ((0.0, 0.0, 0.0), (8.0, 0.0, 0.0, 1.0))):
            with pytest.raises(ConfigError, match="exactly 3 coordinates"):
                SceneConfig(ego_waypoints=waypoints).validate()


class TestOracleOffsets:
    def test_static_object_points_coincide_after_shift(self):
        config = SceneConfig(
            n_scans=3, points_per_scan=1500, n_objects=2,
            speed_min=0.0, speed_max=0.0, seed=6,
        )
        scans, poses, gt = generate(config)
        cloud = aggregate(scans, poses, [gt.semantic] * len(scans), (0, 3))
        centers = cloud.positions + oracle_offsets(scans, poses, gt, (0, 3))
        inst = np.tile(gt.instance, 3)
        for object_id in (1, 2):
            spread = np.ptp(centers[inst == object_id], axis=0)
            assert spread.max() < 1e-5  # float32 scan quantization bound

    def test_stuff_offsets_are_zero(self, small_scene):
        offsets = oracle_offsets(small_scene.scans, small_scene.poses, small_scene.gt, (0, 2))
        inst = np.tile(small_scene.gt.instance, 2)
        assert np.abs(offsets[inst == 0]).max() == 0.0

    def test_moving_object_centers_follow_trajectory(self, small_scene):
        # Per-scan centers differ by speed * dt along the velocity.
        gt = small_scene.gt
        config = small_scene.config
        for object_id in range(1, config.n_objects + 1):
            world = gt.trajectories[object_id - 1]
            sensor_centers = []
            for k in range(config.n_scans):
                members = gt.instance == object_id
                sensor_centers.append(gt.scan_truth(k, small_scene.scans[k].points)[1][members][0])
            recovered = [
                small_scene.poses[k].apply(sensor_centers[k]) for k in range(config.n_scans)
            ]
            assert np.abs(np.asarray(recovered) - world).max() < 1e-4


def _noisy_priors(scans, poses, gt, flip_prob, seed):
    """Every scan's prior from an oracle provider corrupting labels at ``flip_prob``."""
    provider = OracleProvider(
        lidar_poses=poses, gt=gt, class_map=ClassMap.semantic_kitti(), flip_prob=flip_prob, noise_seed=seed,
    )
    return [provider.semantic_prior(k, scan.points) for k, scan in enumerate(scans)]


class TestNoisySemantics:
    def test_zero_rate_equals_ground_truth(self, small_scene):
        priors = _noisy_priors(small_scene.scans, small_scene.poses, small_scene.gt, 0.0, seed=9)
        for k, prior in enumerate(priors):
            assert np.array_equal(argmax_labels(prior.matrix), small_scene.gt.semantic)

    def test_rate_one_flips_everything(self, small_scene):
        priors = _noisy_priors(small_scene.scans, small_scene.poses, small_scene.gt, 1.0, seed=9)
        for k, prior in enumerate(priors):
            assert (argmax_labels(prior.matrix) != small_scene.gt.semantic).all()

    def test_empirical_flip_rate(self):
        config = SceneConfig(n_scans=5, points_per_scan=20000, n_objects=0, seed=10)
        scans, poses, gt = generate(config)
        priors = _noisy_priors(scans, poses, gt, 0.3, seed=11)
        flips = sum(
            int((argmax_labels(p.matrix) != gt.semantic).sum()) for p in priors
        )
        rate = flips / (5 * 20000)
        assert abs(rate - 0.3) < 0.01

    def test_deterministic_per_seed(self, small_scene):
        scene = (small_scene.scans, small_scene.poses, small_scene.gt)
        a = _noisy_priors(*scene, 0.5, seed=12)
        b = _noisy_priors(*scene, 0.5, seed=12)
        c = _noisy_priors(*scene, 0.5, seed=13)
        assert all(np.array_equal(x.matrix, y.matrix) for x, y in zip(a, b))
        assert any(not np.array_equal(x.matrix, y.matrix) for x, y in zip(a, c))


class TestFlipLabels:
    def test_unlabelled_points_stay_ignore(self):
        ids = np.array([IGNORE, 3, IGNORE, 8] * 50)
        flipped = flip_labels(ids, 1.0, keyed_rng(3, 4), 19)
        assert (flipped[ids == IGNORE] == IGNORE).all()
        assert (flipped[ids != IGNORE] != ids[ids != IGNORE]).all()
        # The draws do not depend on the labels, so labelled points flip the
        # same way with or without IGNORE beside them.
        relabelled = flip_labels(np.where(ids == IGNORE, 0, ids), 1.0, keyed_rng(3, 4), 19)
        assert np.array_equal(flipped[ids != IGNORE], relabelled[ids != IGNORE])


def provider_window_offsets(scans, poses, gt, window, sigma, seed):
    """The window's offsets as ``segment`` gets them from an oracle provider:
    each scan's inputs, then the window's rotation of their offsets."""
    provider = OracleProvider(poses, gt, ClassMap.semantic_kitti(), offset_sigma=sigma, noise_seed=seed)
    start, n = window
    scan_offsets = [provider.scan_inputs(k, scans[k].points).offsets for k in range(start, start + n)]
    return provider.window_offsets(window, scan_offsets)


class TestNoisyOffsets:
    def test_sigma_zero_equals_oracle(self, small_scene):
        window = (1, 3)
        clean = oracle_offsets(small_scene.scans, small_scene.poses, small_scene.gt, window)
        noisy = provider_window_offsets(small_scene.scans, small_scene.poses, small_scene.gt, window, 0.0, 5)
        assert np.array_equal(clean, noisy)

    def test_noise_standard_deviation(self):
        config = SceneConfig(n_scans=5, points_per_scan=20000, n_objects=0, seed=14)
        scans, poses, gt = generate(config)
        window = (0, 5)
        clean = oracle_offsets(scans, poses, gt, window)
        noisy = provider_window_offsets(scans, poses, gt, window, 0.1, seed=15)
        residual = noisy - clean
        for axis in range(3):
            assert abs(residual[:, axis].std() - 0.1) < 0.005

    def test_noisy_field_raises_center_loss(self, small_scene):
        window = (0, 3)
        labels = [small_scene.gt.semantic] * len(small_scene.scans)
        cloud = aggregate(small_scene.scans, small_scene.poses, labels, window)
        thing = np.tile(small_scene.gt.instance, 3) > 0
        true_centers = cloud.positions + oracle_offsets(
            small_scene.scans, small_scene.poses, small_scene.gt, window
        )
        noisy = cloud.positions + provider_window_offsets(
            small_scene.scans, small_scene.poses, small_scene.gt, window, 0.2, seed=16
        )
        clean_loss = huber_center_loss(true_centers, true_centers, thing)
        noisy_loss = huber_center_loss(noisy, true_centers, thing)
        assert clean_loss.value == 0.0
        assert noisy_loss.value > 0.0


class TestDatasetRoundTrip:
    def test_written_files_read_back_losslessly(self, small_dataset, class_map):
        seq_dir = small_dataset.root / "00"
        for k, scan in enumerate(small_dataset.scans):
            back = sk_formats.read_scan(seq_dir / "velodyne" / f"{k:06d}.bin")
            assert np.array_equal(back.points, scan.points)
            assert np.array_equal(back.feature, scan.feature)
            labels = sk_formats.read_labels(seq_dir / "labels" / f"{k:06d}.label", len(scan))
            assert np.array_equal(labels.instance_id, small_dataset.gt.instance)
            raw = class_map.train_to_raw[small_dataset.gt.semantic]
            assert np.array_equal(labels.semantic_raw, raw)

    def test_poses_chain_back_to_lidar_frame(self, small_dataset):
        from panseg4d.scan_aggregator import lidar_poses_from_camera_poses

        seq_dir = small_dataset.root / "00"
        calib = sk_formats.read_calib(seq_dir / "calib.txt")
        recovered = lidar_poses_from_camera_poses(*sk_formats.read_poses(seq_dir / "poses.txt"), calib)
        assert len(recovered) == len(small_dataset.poses)
        for got, lidar_pose in zip(recovered, small_dataset.poses):
            assert np.abs(got.rotation - lidar_pose.rotation).max() < 1e-9
            assert np.abs(got.translation - lidar_pose.translation).max() < 1e-9

    def test_default_calib_is_proper_rotation(self):
        rotation = DEFAULT_CALIB.rotation
        assert np.abs(rotation.T @ rotation - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(rotation) - 1.0) < 1e-12


class TestOracleProvider:
    def _provider(self, scene, **kwargs):
        return OracleProvider(
            lidar_poses=scene.poses,
            gt=scene.gt,
            class_map=ClassMap.semantic_kitti(),
            **kwargs,
        )

    def test_one_hot_prior_matches_ground_truth(self, small_scene):
        provider = self._provider(small_scene)
        prior = provider.semantic_prior(0, small_scene.scans[0].points)
        assert np.array_equal(argmax_labels(prior.matrix), small_scene.gt.semantic)

    def test_window_offsets_match_module_functions(self, small_scene):
        # Sensor-frame offsets read once and rotated per window are the bits
        # of the exact oracle at sigma 0, and of the oracle plus each scan's
        # keyed noise, rotated by the window's relative pose, at sigma 0.25.
        scans, poses, gt = small_scene.scans, small_scene.poses, small_scene.gt
        windows = [(0, 2), (1, 2), (1, 3), (2, 3)]
        provider = self._provider(small_scene, noise_seed=21)
        scan_offsets = [provider.scan_inputs(k, scan.points).offsets for k, scan in enumerate(scans)]
        for start, n in windows:
            got = provider.window_offsets((start, n), scan_offsets[start : start + n])
            assert got.tobytes() == oracle_offsets(scans, poses, gt, (start, n)).tobytes()

        sigma = 0.25
        provider = self._provider(small_scene, offset_sigma=sigma, noise_seed=21)
        scan_offsets = [provider.scan_inputs(k, scan.points).offsets for k, scan in enumerate(scans)]
        noisy = [
            instance_centers(scan.points, gt.instance) - scan.points
            + keyed_rng(21, _STREAM_OFFSET_NOISE, k).normal(0.0, sigma, scan.points.shape)
            for k, scan in enumerate(scans)
        ]
        for start, n in windows:
            got = provider.window_offsets((start, n), scan_offsets[start : start + n])
            want = np.concatenate([
                noisy[k] @ window_relative_transform(poses, start, k).rotation.T for k in range(start, start + n)
            ])
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("flip_prob", [0.0, 0.3])
    def test_scan_input_labels_are_the_prior_reduced(self, small_scene, flip_prob):
        provider = self._provider(small_scene, flip_prob=flip_prob, noise_seed=22)
        for k, scan in enumerate(small_scene.scans):
            labels = provider.scan_inputs(k, scan.points).labels
            assert labels.dtype == np.int64
            assert np.array_equal(labels, argmax_labels(provider.semantic_prior(k, scan.points).matrix))
            assert (labels != small_scene.gt.semantic).any() == (flip_prob > 0)

    def test_validation(self, small_scene):
        with pytest.raises(ConfigError):
            self._provider(small_scene, flip_prob=1.5)
        with pytest.raises(ConfigError):
            self._provider(small_scene, offset_sigma=-1.0)


def contiguous_centers(points, instance):
    """Reference: each object's rows are one slice, objects in id order
    before the stuff rows, as the generator lays them out; each slice's
    rows take the slice's mean."""
    centers = points.copy()
    cursor = 0
    for object_id in range(1, int(instance.max(initial=0)) + 1):
        size = int((instance == object_id).sum())
        assert (instance[cursor : cursor + size] == object_id).all()
        centers[cursor : cursor + size] = points[cursor : cursor + size].mean(axis=0)
        cursor += size
    assert (instance[cursor:] == 0).all()
    return centers


_CENTER_SCENES = [
    SceneConfig(n_scans=3, points_per_scan=3000, n_objects=3, object_classes=(0, 5, 3),
                plane_extent=8.0, n_boxes=2, seed=7),
    SceneConfig(n_scans=2, points_per_scan=6000, n_objects=6, seed=11),
    SceneConfig(n_scans=2, points_per_scan=1000, n_objects=0, seed=12),
    # Objects of 9,000-27,000 points each.
    SceneConfig(n_scans=2, points_per_scan=120000, n_objects=3, points_per_m2=6000.0, seed=13),
]


class TestInstanceCenters:
    @pytest.mark.parametrize("scene", _CENTER_SCENES, ids=["small", "six-objects", "stuff-only", "dense-objects"])
    def test_matches_contiguous_slice_loop_bit_for_bit(self, scene):
        scans, _, gt = generate(scene)
        for k, scan in enumerate(scans):
            want = contiguous_centers(scan.points, gt.instance)
            assert instance_centers(scan.points, gt.instance).tobytes() == want.tobytes()
            assert gt.scan_truth(k, scan.points)[1].tobytes() == want.tobytes()

    def test_row_shuffled_scan_gives_each_row_its_centroid(self, small_scene):
        rng = np.random.default_rng(31)
        for k, scan in enumerate(small_scene.scans):
            order = rng.permutation(len(scan))
            points, instance = scan.points[order], small_scene.gt.instance[order]
            got = instance_centers(points, instance)
            assert np.abs(got - contiguous_centers(scan.points, small_scene.gt.instance)[order]).max() < 1e-12
            stuff = instance == 0
            assert np.array_equal(got[stuff], points[stuff])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            instance_centers(np.zeros((3, 3)), np.zeros(2, dtype=int))


class TestDatasetTruth:
    def test_written_labels_give_the_generated_truth_bit_for_bit(self, small_dataset, class_map):
        truth = DatasetTruth(small_dataset.root / "00", class_map)
        for k, scan in enumerate(small_dataset.scans):
            semantic, centers = truth.scan_truth(k, scan.points)
            assert np.array_equal(semantic, small_dataset.gt.semantic)
            assert centers.tobytes() == small_dataset.gt.scan_truth(k, scan.points)[1].tobytes()
        window = (1, 3)
        assert np.array_equal(
            provider_window_offsets(small_dataset.scans, small_dataset.poses, truth, window, 0.2, seed=4),
            provider_window_offsets(small_dataset.scans, small_dataset.poses, small_dataset.gt, window, 0.2, seed=4),
        )
