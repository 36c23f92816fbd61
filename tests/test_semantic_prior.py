"""Class map, prior encodings, label voting, and the file-backed provider."""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panseg4d import sk_formats
from panseg4d.errors import (
    AllZeroRow,
    ConfigError,
    EmptyAfterFilter,
    IdOutOfRange,
    UnknownRawIdWarning,
)
from panseg4d.scan_aggregator import RigidTransform
from panseg4d.semantic_prior import (
    IGNORE,
    ClassMap,
    FileProvider,
    SemanticPrior,
    argmax_label,
    argmax_labels,
    encode_one_hot,
    majority_label,
    normalize_confidences,
    remap,
)


class TestClassMap:
    def test_bundled_map_shape(self, class_map):
        assert class_map.n_classes == 19
        assert int(class_map.thing_mask.sum()) == 8
        assert int((~class_map.thing_mask).sum()) == 11
        assert class_map.names[0] == "car"
        assert class_map.names[8] == "road"

    def test_canonical_round_trip(self, class_map):
        for train in range(class_map.n_classes):
            raw = class_map.train_to_raw[train]
            assert class_map.raw_to_train[raw] == train

    def test_known_raw_ids_mapped(self, class_map):
        assert class_map.raw_to_train[10] == 0  # car
        assert class_map.raw_to_train[0] == IGNORE  # unlabeled
        assert class_map.raw_to_train[40] == 8  # road

    def test_moving_classes_fold_onto_static(self, class_map):
        # Verified against the shipped mapping file: each moving id shares
        # the train id of its static counterpart.
        for moving, static in ((252, 10), (253, 31), (254, 30), (255, 32), (258, 18)):
            assert class_map.raw_to_train[moving] == class_map.raw_to_train[static]

    def test_things_are_the_first_eight(self, class_map):
        assert np.array_equal(np.flatnonzero(class_map.thing_mask), np.arange(8))

    def test_load_rejects_bad_canonical(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("classes: 2\nthings: 0\nremap 10: 0\nremap 11: 1\ncanonical 0: 11\ncanonical 1: 10\n")
        with pytest.raises(ConfigError):
            ClassMap.load(path)


class TestRemap:
    def test_table_lookup(self, class_map):
        out = remap(np.array([10, 0, 252]), class_map)
        assert out.tolist() == [0, IGNORE, 0]

    def test_unknown_ids_warn_with_count(self, class_map):
        with pytest.warns(UnknownRawIdWarning, match="2 label"):
            out = remap(np.array([10, 777, 888]), class_map)
        assert out.tolist() == [0, IGNORE, IGNORE]

    def test_remap_roundtrip_idempotent(self, class_map):
        rng = np.random.default_rng(0)
        train = rng.integers(0, 19, 500)
        once = remap(class_map.train_to_raw[train], class_map)
        twice = remap(class_map.train_to_raw[once], class_map)
        assert np.array_equal(once, train)
        assert np.array_equal(twice, train)

    def test_accepts_label_array(self, class_map):
        labels = sk_formats.LabelArray(semantic_raw=np.array([10, 30]), instance_id=np.array([1, 2]))
        assert remap(labels, class_map).tolist() == [0, 5]


class TestEncodeOneHot:
    def test_unit_vector(self):
        prior = encode_one_hot([3], 19)
        assert prior.matrix[0, 3] == 1.0
        assert prior.matrix[0].sum() == 1.0
        assert np.count_nonzero(prior.matrix[0]) == 1

    def test_ignore_becomes_uniform(self):
        prior = encode_one_hot([IGNORE], 19)
        assert np.allclose(prior.matrix[0], 1.0 / 19)

    def test_out_of_range(self):
        with pytest.raises(IdOutOfRange):
            encode_one_hot([19], 19)
        with pytest.raises(IdOutOfRange):
            encode_one_hot([-3], 19)


class TestNormalizeConfidences:
    def test_divides_by_row_sum(self):
        row = np.zeros((1, 19))
        row[0, 0] = 2.0
        row[0, 1] = 2.0
        prior = normalize_confidences(row)
        assert prior.matrix[0, 0] == 0.5
        assert prior.matrix[0, 1] == 0.5

    def test_idempotent_within_tolerance(self):
        rng = np.random.default_rng(1)
        scores = rng.random((40, 19)) + 1e-3
        once = normalize_confidences(scores).matrix
        twice = normalize_confidences(once).matrix
        assert np.abs(once - twice).max() < 1e-9

    def test_all_zero_row(self):
        scores = np.ones((3, 19))
        scores[1] = 0.0
        with pytest.raises(AllZeroRow, match="row 1"):
            normalize_confidences(scores)

    def test_negative_rejected(self):
        scores = np.ones((1, 19))
        scores[0, 4] = -0.5
        with pytest.raises(AllZeroRow):
            normalize_confidences(scores)

    def test_scaling_leaves_argmax_unchanged(self):
        rng = np.random.default_rng(2)
        scores = rng.random((100, 19)) + 1e-6
        base = argmax_labels(normalize_confidences(scores).matrix)
        scaled = argmax_labels(normalize_confidences(scores * 37.5).matrix)
        assert np.array_equal(base, scaled)


class TestMajorityLabel:
    def test_simple_mode(self):
        assert majority_label([0, 0, 5]) == 0

    def test_tie_breaks_low(self):
        assert majority_label([2, 5]) == 2
        assert majority_label([5, 2]) == 2

    def test_ignore_excluded(self):
        assert majority_label([IGNORE, IGNORE, 7]) == 7

    def test_empty_after_filter(self):
        with pytest.raises(EmptyAfterFilter):
            majority_label([IGNORE, IGNORE])

    def test_against_histogram_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            ids = rng.integers(0, 10, size=rng.integers(1, 1000))
            counter = collections.Counter(ids.tolist())
            best = max(counter.items(), key=lambda item: (item[1], -item[0]))[0]
            assert majority_label(ids) == best

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 18), min_size=1, max_size=40), st.randoms())
    def test_permutation_invariance(self, ids, shuffler):
        shuffled = list(ids)
        shuffler.shuffle(shuffled)
        assert majority_label(ids) == majority_label(shuffled)


class TestArgmaxLabel:
    def test_one_hot_inversion(self):
        assert argmax_label(encode_one_hot([7], 19).matrix[0]) == 7

    def test_uniform_breaks_to_zero(self):
        assert argmax_label(np.full(19, 1.0 / 19)) == 0

    def test_against_linear_scan_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            row = rng.random(19)
            best, best_value = 0, row[0]
            for index, value in enumerate(row):
                if value > best_value:
                    best, best_value = index, value
            assert argmax_label(row) == best

    def test_argmax_inverts_encode_one_hot(self):
        rng = np.random.default_rng(5)
        ids = rng.integers(0, 19, 300)
        prior = encode_one_hot(ids, 19)
        assert np.array_equal(argmax_labels(prior.matrix), ids)

    def test_uniform_rows_reduce_to_ignore(self):
        # IGNORE survives encode + reduce instead of becoming train id 0 (a
        # thing class); a row with any class above 1/C keeps its argmax.
        ids = np.array([3, IGNORE, 0, IGNORE, 18])
        assert np.array_equal(argmax_labels(encode_one_hot(ids, 19).matrix), ids)
        near_uniform = np.full(19, 1.0 / 19)
        near_uniform[4] += 1e-9
        near_uniform[5] -= 1e-9
        scores = np.stack([np.full(19, 2.5), near_uniform])
        assert argmax_labels(normalize_confidences(scores).matrix).tolist() == [IGNORE, 4]
        assert argmax_labels(np.zeros((0, 19))).shape == (0,)


class TestSemanticPriorValidation:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(Exception):
            SemanticPrior(matrix=np.ones((2, 19)))


class TestFileProvider:
    def _write_labels(self, path, raw, inst):
        sk_formats.write_labels(path, np.stack([raw, inst], axis=1))

    def test_label_files_become_one_hot(self, tmp_path, class_map):
        raw = np.array([10, 30, 40])
        self._write_labels(tmp_path / "000000.label", raw, np.zeros(3, dtype=int))
        provider = FileProvider(
            class_map=class_map,
            scan_sizes=[3],
            semantic_paths=[tmp_path / "000000.label"],
            offset_paths=[tmp_path / "000000.offset"],
        )
        prior = provider.semantic_prior(0)
        assert np.array_equal(prior.matrix, encode_one_hot([0, 5, 8], 19).matrix)

    def test_confidence_files_normalized(self, tmp_path, class_map):
        scores = np.random.default_rng(6).random((4, 19)).astype(np.float32) + 0.01
        sk_formats.write_confidences(tmp_path / "000000.conf", scores)
        provider = FileProvider(
            class_map=class_map,
            scan_sizes=[4],
            confidence_paths=[tmp_path / "000000.conf"],
            offset_paths=[tmp_path / "000000.offset"],
        )
        prior = provider.semantic_prior(0)
        assert np.abs(prior.matrix.sum(axis=1) - 1.0).max() < 1e-9
        assert np.array_equal(argmax_labels(prior.matrix), scores.argmax(axis=1))

    def test_window_offsets_concatenate(self, tmp_path, class_map):
        rng = np.random.default_rng(7)
        sizes = [3, 2]
        offsets = [rng.normal(size=(n, 3)).astype(np.float32).astype(np.float64) for n in sizes]
        for k, rows in enumerate(offsets):
            sk_formats.write_offsets(tmp_path / f"{k:06d}.offset", rows)
        provider = FileProvider(
            class_map=class_map,
            scan_sizes=sizes,
            semantic_paths=[tmp_path / "x.label"] * 2,
            offset_paths=[tmp_path / f"{k:06d}.offset" for k in range(2)],
        )
        got = provider.window_offsets((0, 2))
        assert np.array_equal(got, np.concatenate(offsets))

    def test_sensor_frame_offsets_rotated(self, tmp_path, class_map):
        yaw = np.pi / 2
        rotation = np.array(
            [[np.cos(yaw), -np.sin(yaw), 0.0], [np.sin(yaw), np.cos(yaw), 0.0], [0.0, 0.0, 1.0]]
        )
        poses = [RigidTransform.identity(), RigidTransform(rotation, np.array([1.0, 0.0, 0.0]))]
        offsets = np.array([[1.0, 0.0, 0.0]], dtype=np.float32).astype(np.float64)
        for k in range(2):
            sk_formats.write_offsets(tmp_path / f"{k:06d}.offset", offsets)
        provider = FileProvider(
            class_map=class_map,
            scan_sizes=[1, 1],
            semantic_paths=[tmp_path / "x.label"] * 2,
            offset_paths=[tmp_path / f"{k:06d}.offset" for k in range(2)],
            lidar_poses=poses,
            offset_frame="sensor",
        )
        got = provider.window_offsets((0, 2))
        assert np.abs(got[0] - [1.0, 0.0, 0.0]).max() < 1e-12  # reference scan unrotated
        assert np.abs(got[1] - [0.0, 1.0, 0.0]).max() < 1e-12  # rotated by the relative yaw

    def test_missing_offset_file_names_scan(self, tmp_path, class_map):
        provider = FileProvider(
            class_map=class_map,
            scan_sizes=[2, 2],
            semantic_paths=[tmp_path / "000000.label", tmp_path / "000001.label"],
            offset_paths=[tmp_path / "000000.offset", tmp_path / "000001.offset"],
        )
        sk_formats.write_offsets(tmp_path / "000000.offset", np.zeros((2, 3)))
        with pytest.raises(FileNotFoundError, match="scan 1"):
            provider.window_offsets((0, 2))

    def test_requires_exactly_one_semantic_source(self, class_map):
        with pytest.raises(ConfigError):
            FileProvider(class_map=class_map, scan_sizes=[1])
        with pytest.raises(ConfigError):
            FileProvider(
                class_map=class_map, scan_sizes=[1],
                semantic_paths=["a"], confidence_paths=["b"],
            )
