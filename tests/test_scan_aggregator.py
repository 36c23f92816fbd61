"""Rigid geometry and window aggregation: oracles and invariants."""

import tracemalloc

import numpy as np
import pytest

from conftest import random_rigid, random_rotation
from panseg4d.errors import LengthMismatch, WindowOutOfRange
from panseg4d.scan_aggregator import (
    Aggregated4DCloud,
    PoseTable,
    RigidTransform,
    aggregate,
    lidar_poses_from_camera_poses,
    window_relative_transform,
)
from panseg4d.sk_formats import CalibRecord, PointCloudScan


def _labels(n, fill=0):
    return np.full(n, fill, dtype=np.int64)


class TestRigidTransform:
    def test_identity_leaves_points_unchanged(self):
        pts = np.array([[1.0, 2.0, 3.0], [-4.0, 0.0, 2.5]])
        assert np.array_equal(RigidTransform.identity().apply(pts), pts)

    def test_pure_translation(self):
        moved = RigidTransform(np.eye(3), np.array([1.0, 2.0, 3.0])).apply(np.zeros((1, 3)))
        assert moved.tolist() == [[1.0, 2.0, 3.0]]

    def test_compose_with_inverse_is_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            rigid = random_rigid(rng)
            round_trip = rigid.compose(rigid.inverse())
            assert np.abs(round_trip.rotation - np.eye(3)).max() < 1e-9
            assert np.abs(round_trip.translation).max() < 1e-9

    def test_pairwise_distances_preserved(self):
        # Rigid motions preserve the full distance matrix.
        rng = np.random.default_rng(1)
        pts = rng.uniform(-20, 20, (60, 3))
        moved = random_rigid(rng).apply(pts)
        before = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        after = np.linalg.norm(moved[:, None] - moved[None, :], axis=-1)
        assert np.abs(before - after).max() < 1e-9

    def test_round_trip_on_points(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-50, 50, (100, 3))
        for _ in range(20):
            rigid = random_rigid(rng, translation_scale=100.0)
            back = rigid.inverse().apply(rigid.apply(pts))
            assert np.abs(back - pts).max() < 1e-6


class TestPoseTable:
    def test_items_and_window_transforms_are_the_packed_poses_bit_for_bit(self):
        rng = np.random.default_rng(4)
        poses = [random_rigid(rng) for _ in range(7)]
        table = PoseTable(np.array([p.rotation for p in poses]), np.array([p.translation for p in poses]))
        assert len(table) == len(poses)
        for got, want in zip(table, poses):
            assert got.rotation.tobytes() == want.rotation.tobytes()
            assert got.translation.tobytes() == want.translation.tobytes()
        for reference, scan in [(0, 3), (2, 6), (5, 1)]:
            got = window_relative_transform(table, reference, scan)
            want = window_relative_transform(poses, reference, scan)
            assert got.rotation.tobytes() == want.rotation.tobytes()
            assert got.translation.tobytes() == want.translation.tobytes()


def _one_pose(rotation, translation):
    return np.asarray(rotation, dtype=np.float64)[None], np.asarray(translation, dtype=np.float64)[None]


class TestLidarPoseFromCameraPose:
    def test_identity_pose_identity_calib(self):
        calib = CalibRecord(np.eye(3), np.zeros(3))
        lidar = lidar_poses_from_camera_poses(*_one_pose(np.eye(3), np.zeros(3)), calib)
        assert isinstance(lidar, PoseTable) and len(lidar) == 1
        assert np.abs(lidar.rotations[0] - np.eye(3)).max() < 1e-12
        assert np.abs(lidar.translations[0]).max() < 1e-12

    def test_pure_camera_translation_identity_calib(self):
        calib = CalibRecord(np.eye(3), np.zeros(3))
        lidar = lidar_poses_from_camera_poses(*_one_pose(np.eye(3), [5.0, 0.0, 0.0]), calib)
        assert np.abs(lidar.translations[0] - [5.0, 0.0, 0.0]).max() < 1e-12

    def test_rotation_pose_with_nontrivial_calib_matches_matrix_oracle(self):
        # Homogeneous 4x4 product oracle: T = Tr^-1 @ T_cam @ Tr.
        rng = np.random.default_rng(4)
        yaw = np.pi / 2
        cam_rotation = np.array(
            [[np.cos(yaw), -np.sin(yaw), 0.0], [np.sin(yaw), np.cos(yaw), 0.0], [0.0, 0.0, 1.0]]
        )
        cam_translation = np.array([1.0, -2.0, 0.5])
        calib = CalibRecord(random_rotation(rng), rng.uniform(-0.5, 0.5, 3))

        tr = np.eye(4)
        tr[:3, :3] = calib.rotation
        tr[:3, 3] = calib.translation
        cam = np.eye(4)
        cam[:3, :3] = cam_rotation
        cam[:3, 3] = cam_translation
        expected = np.linalg.inv(tr) @ cam @ tr

        lidar = lidar_poses_from_camera_poses(*_one_pose(cam_rotation, cam_translation), calib)
        assert np.abs(lidar.rotations[0] - expected[:3, :3]).max() < 1e-9
        assert np.abs(lidar.translations[0] - expected[:3, 3]).max() < 1e-9

    def test_stack_matches_the_per_pose_chain_bit_for_bit(self):
        rng = np.random.default_rng(19)
        cameras = [random_rigid(rng) for _ in range(600)]
        tr = random_rigid(rng, translation_scale=0.5)
        # A 3x4 row-major block, as read_poses returns it: strided views.
        matrices = np.stack([np.hstack([c.rotation, c.translation[:, None]]) for c in cameras])
        table = lidar_poses_from_camera_poses(
            matrices[:, :, :3], matrices[:, :, 3], CalibRecord(tr.rotation, tr.translation)
        )
        # synth's chain back to the camera frame, Tr . T_lidar . Tr^-1.
        back = table.chained(tr, tr.inverse())
        assert len(table) == len(back) == len(cameras)
        for got, got_back, camera in zip(table, back, cameras):
            want = tr.inverse().compose(camera).compose(tr)
            assert got.rotation.tobytes() == want.rotation.tobytes()
            assert got.translation.tobytes() == want.translation.tobytes()
            want_back = tr.compose(want).compose(tr.inverse())
            assert got_back.rotation.tobytes() == want_back.rotation.tobytes()
            assert got_back.translation.tobytes() == want_back.translation.tobytes()


def _make_scan(points, index):
    return PointCloudScan(points=points, feature=np.zeros(len(points)), scan_index=index)


class TestAggregate:
    def test_single_scan_window_is_the_scan(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-5, 5, (30, 3))
        scan = _make_scan(pts, 0)
        cloud = aggregate([scan], [RigidTransform.identity()], [_labels(30)], (0, 1))
        assert np.array_equal(cloud.positions, pts)
        assert np.array_equal(cloud.time_index, np.zeros(30, dtype=np.int64))
        assert cloud.n_scans == 1

    def test_static_world_point_coincides(self):
        # Forward/inverse transform oracle: a world-fixed point seen from two
        # poses lands on itself in the aggregate.
        world_point = np.array([10.0, 3.0, 1.0])
        pose0 = RigidTransform.identity()
        pose1 = RigidTransform(np.eye(3), np.array([5.0, 0.0, 0.0]))
        scan0 = _make_scan(pose0.inverse().apply(world_point[None, :]), 0)
        scan1 = _make_scan(pose1.inverse().apply(world_point[None, :]), 1)
        cloud = aggregate(
            [scan0, scan1], [pose0, pose1], [_labels(1), _labels(1)], (0, 2)
        )
        assert np.linalg.norm(cloud.positions[0] - cloud.positions[1]) < 1e-6

    def test_static_coincidence_under_random_poses(self):
        rng = np.random.default_rng(6)
        world = rng.uniform(-30, 30, (25, 3))
        poses = [random_rigid(rng) for _ in range(4)]
        scans = [_make_scan(pose.inverse().apply(world), k) for k, pose in enumerate(poses)]
        priors = [_labels(25) for _ in range(4)]
        cloud = aggregate(scans, poses, priors, (0, 4))
        stacked = cloud.positions.reshape(4, 25, 3)
        spread = np.linalg.norm(stacked - stacked[0], axis=-1)
        assert spread.max() < 1e-6

    def test_each_scan_is_a_run_of_its_transformed_points_bit_for_bit(self):
        rng = np.random.default_rng(13)
        sizes = [7, 0, 1200, 5]
        poses = [random_rigid(rng) for _ in sizes]
        scans = [_make_scan(rng.uniform(-60, 60, (n, 3)), k) for k, n in enumerate(sizes)]
        labels = [rng.integers(0, 19, n) for n in sizes]
        cloud = aggregate(scans, poses, labels, (1, 3))
        assert cloud.scan_starts.tolist() == [0, 0, 1200, 1205]
        for offset, k in enumerate(range(1, 4)):
            rows = slice(cloud.scan_starts[offset], cloud.scan_starts[offset + 1])
            want = window_relative_transform(poses, 1, k).apply(scans[k].points)
            assert np.array_equal(cloud.positions[rows], want)
            assert np.array_equal(cloud.prior[rows], labels[k])

    def test_prior_row_count_mismatch(self):
        scan = _make_scan(np.zeros((3, 3)), 0)
        with pytest.raises(LengthMismatch):
            aggregate(
                [scan, scan], [RigidTransform.identity()] * 2,
                [_labels(3), _labels(2)], (0, 2),
            )

    def test_window_out_of_range(self):
        scan = _make_scan(np.zeros((2, 3)), 0)
        priors = [_labels(2)]
        with pytest.raises(WindowOutOfRange):
            aggregate([scan], [RigidTransform.identity()], priors, (0, 2))
        with pytest.raises(WindowOutOfRange):
            aggregate([scan], [RigidTransform.identity()], priors, (0, 0))

    def test_origin_is_bijection_onto_inputs(self):
        rng = np.random.default_rng(7)
        sizes = [4, 7, 3]
        poses = [random_rigid(rng) for _ in sizes]
        scans = [_make_scan(rng.normal(size=(n, 3)), k) for k, n in enumerate(sizes)]
        priors = [_labels(n) for n in sizes]
        cloud = aggregate(scans, poses, priors, (0, 3))
        seen = {tuple(row) for row in cloud.origin}
        expected = {(k, i) for k, n in enumerate(sizes) for i in range(n)}
        assert seen == expected
        assert len(cloud.origin) == len(expected)

    def test_reference_frame_choice_is_rigid_invariant(self):
        # Re-aggregate in the frame of the window's second scan (inline
        # oracle composition) and compare pairwise distances.
        rng = np.random.default_rng(8)
        sizes = [20, 20, 20]
        poses = [random_rigid(rng, translation_scale=5.0) for _ in sizes]
        scans = [_make_scan(rng.uniform(-10, 10, (n, 3)), k) for k, n in enumerate(sizes)]
        priors = [_labels(n) for n in sizes]
        cloud = aggregate(scans, poses, priors, (0, 3))

        other_frame = []
        for k, scan in enumerate(scans):
            to_frame1 = poses[1].inverse().compose(poses[k])
            other_frame.append(to_frame1.apply(scan.points))
        other = np.concatenate(other_frame)

        sample = rng.integers(0, len(other), 40)
        d_ref = np.linalg.norm(cloud.positions[sample][:, None] - cloud.positions[sample][None], axis=-1)
        d_other = np.linalg.norm(other[sample][:, None] - other[sample][None], axis=-1)
        assert np.abs(d_ref - d_other).max() < 1e-9

    def test_priors_and_features_copied_through(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(6, 3))
        feature = rng.random(6)
        labels = rng.integers(0, 19, 6)
        scan = PointCloudScan(points=pts, feature=feature, scan_index=0)
        cloud = aggregate([scan], [RigidTransform.identity()], [labels], (0, 1))
        assert cloud.prior.dtype == np.int64
        assert np.array_equal(cloud.prior, labels)
        assert np.array_equal(cloud.feature, feature)

    def test_time_index_below_window_size(self):
        rng = np.random.default_rng(10)
        scans = [_make_scan(rng.normal(size=(3, 3)), k) for k in range(4)]
        poses = [RigidTransform.identity()] * 4
        priors = [_labels(3)] * 4
        cloud = aggregate(scans, poses, priors, (1, 3))
        assert cloud.time_index.max() == 2
        assert set(cloud.origin[:, 0].tolist()) == {1, 2, 3}

    def test_window_relative_transform_matches_composition(self):
        rng = np.random.default_rng(11)
        poses = [random_rigid(rng) for _ in range(3)]
        rel = window_relative_transform(poses, 0, 2)
        expected = poses[0].inverse().compose(poses[2])
        assert np.array_equal(rel.rotation, expected.rotation)
        assert np.array_equal(rel.translation, expected.translation)


class TestCloudValidation:
    @staticmethod
    def _cloud(scan_starts, rows=5, prior_rows=None, window=(0, 2)):
        return Aggregated4DCloud(
            positions=np.zeros((rows, 3)),
            prior=np.zeros(rows if prior_rows is None else prior_rows, dtype=np.int64),
            scan_starts=np.asarray(scan_starts),
            window=window,
            scan_features=tuple(np.zeros(0) for _ in range(window[1])),
        )

    def test_misaligned_columns_rejected(self):
        with pytest.raises(LengthMismatch, match="prior has 4 rows, expected 5"):
            self._cloud([0, 2, 5], prior_rows=4)

    @pytest.mark.parametrize(
        "scan_starts, n_scans, message",
        [
            ([1, 2, 5], 2, "scan starts run from 1 to 5, expected 0 to 5"),
            ([0, 2, 4], 2, "scan starts run from 0 to 4, expected 0 to 5"),
            ([0, 2, 6], 2, "scan starts run from 0 to 6, expected 0 to 5"),
            ([0, 3, 2, 5], 3, "scan starts decrease after scan offset 1"),
            ([0, 5], 2, "2 scan starts for 2 scans, expected 3"),
        ],
    )
    def test_bad_scan_starts_rejected(self, scan_starts, n_scans, message):
        with pytest.raises(LengthMismatch, match=rf"aggregated window \[4, {4 + n_scans}\): {message}$"):
            self._cloud(scan_starts, window=(4, n_scans))

    def test_empty_scans_are_empty_runs(self):
        cloud = self._cloud([0, 0, 5], window=(3, 2))
        assert cloud.time_index.tolist() == [1] * 5
        assert cloud.origin.tolist() == [[4, i] for i in range(5)]


class TestCloudMemory:
    def test_cloud_stores_32_bytes_per_point(self):
        # positions (24 bytes) and prior (8 bytes) per point, plus one
        # offset per scan: no per-point column may come back.
        rng = np.random.default_rng(12)
        sizes = [3000, 5000, 4000]
        poses = [random_rigid(rng) for _ in sizes]
        scans = [_make_scan(rng.normal(size=(n, 3)), k) for k, n in enumerate(sizes)]
        labels = [_labels(n, 3) for n in sizes]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cloud = aggregate(scans, poses, labels, (0, 3))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        m = sum(sizes)
        stored = [value for value in vars(cloud).values() if isinstance(value, np.ndarray)]
        assert sum(array.nbytes for array in stored) == 32 * m + 8 * (len(sizes) + 1)
        # Everything aggregate leaves allocated: the arrays above plus
        # object headers, a few hundred bytes per scan at most.
        assert 32 * m <= held <= 32 * m + 1024 * len(sizes)
