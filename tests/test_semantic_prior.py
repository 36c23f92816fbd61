"""Class map, prior encodings, label voting, and the file-backed provider."""

import collections
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panseg4d import sk_formats
from panseg4d.pipeline_cli import bundled_path
from panseg4d.errors import (
    AllZeroRow,
    ConfigError,
    EmptyAfterFilter,
    IdOutOfRange,
    LengthMismatch,
    NonFiniteValue,
    UnknownRawIdWarning,
)
from panseg4d.scan_aggregator import RigidTransform, window_relative_transform
from panseg4d.semantic_prior import (
    IGNORE,
    ClassMap,
    FileProvider,
    ScanInputs,
    SemanticPrior,
    argmax_label,
    argmax_labels,
    check_scan_inputs,
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

    @pytest.mark.parametrize(
        "old, new, line, message",
        [
            ("things: 0 1 2 3 4 5 6 7", "things: 0 1 2 3 4 5 6 -1", 7, "thing id -1 outside [0, 19)"),
            ("things: 0 1 2 3 4 5 6 7", "things: 0 1 2 3 4 5 6 7 19", 7, "thing id 19 outside [0, 19)"),
            ("name 18: traffic-sign", "name 25: x", 26, "name id 25 outside [0, 19)"),
            ("canonical 0: 10", "canonical 0: 70000", 61, "raw id 70000 outside 16 bits"),
            ("canonical 0: 10", "canonical 0: -1", 61, "raw id -1 outside 16 bits"),
            ("remap 10: 0", "remap 70000: 0", 29, "raw id 70000 outside 16 bits"),
            ("remap 10: 0", "remap 10: 19", 29, "remap of raw id 10 to train id 19 outside [0, 19)"),
        ],
    )
    def test_load_rejects_ids_outside_their_range_naming_the_line(self, tmp_path, old, new, line, message):
        lines = bundled_path("semantic_kitti_classes.txt").read_text().splitlines()
        assert lines[line - 1] == old
        lines[line - 1] = new
        path = tmp_path / "classes.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:{line}: {message}")):
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


def _parent_window_offsets(offset_paths, sizes, lidar_poses, window):
    """Reference: the per-window file read the provider used to make, each
    window reading and rotating every scan it holds."""
    start, n = window
    rows = []
    for scan_index in range(start, start + n):
        offsets = sk_formats.read_offsets(offset_paths[scan_index], sizes[scan_index])
        rotation = window_relative_transform(lidar_poses, start, scan_index).rotation
        rows.append(offsets @ rotation.T)
    return np.concatenate(rows)


def _points(n):
    """Coordinates for an n-point scan; a file provider only counts them."""
    return np.zeros((n, 3))


def _identity_poses(n):
    """Lidar poses for tests where rotating the offsets does not matter."""
    return [RigidTransform.identity()] * n


class TestFileProvider:
    def _write_labels(self, path, raw, inst):
        sk_formats.write_predictions(path, np.stack([raw, inst], axis=1))

    def _offset_provider(self, tmp_path, class_map, sizes, lidar_poses=None):
        """Label and offset files for ``sizes`` scans, offsets random."""
        rng = np.random.default_rng(7)
        for k, n in enumerate(sizes):
            self._write_labels(tmp_path / f"{k:06d}.label", np.full(n, 40), np.zeros(n, dtype=int))
            sk_formats.write_offsets(tmp_path / f"{k:06d}.offset", rng.normal(size=(n, 3)))
        return FileProvider(
            class_map=class_map,
            lidar_poses=lidar_poses or _identity_poses(len(sizes)),
            semantic_paths=[tmp_path / f"{k:06d}.label" for k in range(len(sizes))],
            offset_paths=[tmp_path / f"{k:06d}.offset" for k in range(len(sizes))],
        )

    def test_label_files_become_one_hot(self, tmp_path, class_map):
        raw = np.array([10, 30, 40])
        self._write_labels(tmp_path / "000000.label", raw, np.zeros(3, dtype=int))
        provider = FileProvider(
            class_map=class_map,
            lidar_poses=_identity_poses(1),
            semantic_paths=[tmp_path / "000000.label"],
            offset_paths=[tmp_path / "000000.offset"],
        )
        prior = provider.semantic_prior(0, _points(3))
        assert np.array_equal(prior.matrix, encode_one_hot([0, 5, 8], 19).matrix)

    def test_confidence_files_normalized(self, tmp_path, class_map):
        scores = np.random.default_rng(6).random((4, 19)).astype(np.float32) + 0.01
        sk_formats.write_confidences(tmp_path / "000000.conf", scores)
        provider = FileProvider(
            class_map=class_map,
            lidar_poses=_identity_poses(1),
            confidence_paths=[tmp_path / "000000.conf"],
            offset_paths=[tmp_path / "000000.offset"],
        )
        prior = provider.semantic_prior(0, _points(4))
        assert np.abs(prior.matrix.sum(axis=1) - 1.0).max() < 1e-9
        assert np.array_equal(argmax_labels(prior.matrix), scores.argmax(axis=1))

    @pytest.mark.parametrize("kind", ["label", "conf"])
    def test_scan_input_labels_are_the_prior_reduced(self, tmp_path, class_map, kind):
        # Label files give their remapped ids (raw 0 unlabelled -> IGNORE)
        # without a matrix; confidence rows, uniform ones included, reduce
        # as the prior matrix does.
        n = 500
        rng = np.random.default_rng(8)
        if kind == "label":
            raw = class_map.train_to_raw[rng.integers(0, 19, n)]
            raw[rng.random(n) < 0.2] = 0
            self._write_labels(tmp_path / "000000.label", raw, np.zeros(n, dtype=int))
            semantic = dict(semantic_paths=[tmp_path / "000000.label"])
        else:
            scores = rng.random((n, 19)).astype(np.float32)
            scores[rng.random(n) < 0.2] = 0.5
            sk_formats.write_confidences(tmp_path / "000000.conf", scores)
            semantic = dict(confidence_paths=[tmp_path / "000000.conf"])
        sk_formats.write_offsets(tmp_path / "000000.offset", rng.normal(size=(n, 3)))
        provider = FileProvider(
            class_map=class_map, lidar_poses=_identity_poses(1),
            offset_paths=[tmp_path / "000000.offset"], **semantic
        )
        labels = provider.scan_inputs(0, _points(n)).labels
        assert labels.dtype == np.int64
        assert np.array_equal(labels, argmax_labels(provider.semantic_prior(0, _points(n)).matrix))
        assert (labels == IGNORE).sum() > 50

    def test_sensor_frame_offsets_rotated(self, tmp_path, class_map):
        yaw = np.pi / 2
        rotation = np.array(
            [[np.cos(yaw), -np.sin(yaw), 0.0], [np.sin(yaw), np.cos(yaw), 0.0], [0.0, 0.0, 1.0]]
        )
        poses = [RigidTransform.identity(), RigidTransform(rotation, np.array([1.0, 0.0, 0.0]))]
        offsets = np.array([[1.0, 0.0, 0.0]])
        provider = FileProvider(
            class_map=class_map,
            semantic_paths=[tmp_path / "x.label"] * 2,
            offset_paths=[tmp_path / "x.offset"] * 2,
            lidar_poses=poses,
        )
        got = provider.window_offsets((0, 2), [offsets, offsets])
        assert np.abs(got[0] - [1.0, 0.0, 0.0]).max() < 1e-12  # reference scan unrotated
        assert np.abs(got[1] - [0.0, 1.0, 0.0]).max() < 1e-12  # rotated by the relative yaw

    def test_window_offsets_equal_the_per_window_file_read_bit_for_bit(self, tmp_path, class_map):
        from conftest import random_rigid

        rng = np.random.default_rng(9)
        poses = [random_rigid(rng) for _ in range(5)]
        sizes = [700, 500, 900, 600, 800]
        provider = self._offset_provider(tmp_path, class_map, sizes, lidar_poses=poses)
        scan_offsets = [provider.scan_inputs(k, _points(n)).offsets for k, n in enumerate(sizes)]
        for start, n in [(0, 2), (1, 3), (2, 3)]:
            got = provider.window_offsets((start, n), scan_offsets[start : start + n])
            want = _parent_window_offsets(provider.offset_paths, sizes, poses, (start, n))
            assert got.tobytes() == want.tobytes()

    def test_missing_offset_file_names_scan(self, tmp_path, class_map):
        provider = self._offset_provider(tmp_path, class_map, [2, 2])
        (tmp_path / "000001.offset").unlink()
        provider.scan_inputs(0, _points(2))
        with pytest.raises(FileNotFoundError, match="offset file for scan 1"):
            provider.scan_inputs(1, _points(2))

    def test_non_finite_offset_names_file_and_point(self, tmp_path, class_map):
        provider = self._offset_provider(tmp_path, class_map, [4])
        offsets = sk_formats.read_offsets(tmp_path / "000000.offset", 4)
        offsets[2, 1] = np.nan
        sk_formats.write_offsets(tmp_path / "000000.offset", offsets)
        with pytest.raises(NonFiniteValue, match=r"000000\.offset: non-finite offset at point 2"):
            provider.scan_inputs(0, _points(4))

    def test_requires_exactly_one_semantic_source(self, class_map):
        with pytest.raises(ConfigError):
            FileProvider(class_map=class_map, lidar_poses=_identity_poses(1))
        with pytest.raises(ConfigError):
            FileProvider(
                class_map=class_map, lidar_poses=_identity_poses(1),
                semantic_paths=["a"], confidence_paths=["b"],
            )


class TestCheckScanInputs:
    """Provider results are checked once, where the pipeline receives them."""

    def _inputs(self, n=5):
        return ScanInputs(np.array([0, IGNORE, 18, 8, 3])[:n], np.zeros((n, 3)))

    def test_valid_inputs_pass_as_int64(self):
        labels, offsets = self._inputs()
        checked = check_scan_inputs(ScanInputs(labels.astype(np.int16), offsets), 4, 5, 19)
        assert checked.labels.dtype == np.int64
        assert np.array_equal(checked.labels, labels) and checked.offsets is offsets

    @pytest.mark.parametrize(
        "labels, offsets, error, message",
        [
            ([0, IGNORE, -2, 8, 3], None, IdOutOfRange, "scan 4: label -2 at point 2 outside"),
            ([0, IGNORE, 19, 8, 3], None, IdOutOfRange, "scan 4: label 19 at point 2 outside"),
            ([0.0, 1.0, 2.0, 3.0, 4.0], None, IdOutOfRange, "scan 4: labels of dtype float64"),
            ([0, 1, 2, 3], None, LengthMismatch, r"scan 4: labels of shape \(4,\) for 5 points"),
            (None, np.zeros((5, 2)), LengthMismatch, r"scan 4: offsets of shape \(5, 2\) for 5 points"),
            (None, np.zeros((4, 3)), LengthMismatch, r"scan 4: offsets of shape \(4, 3\) for 5 points"),
            (None, np.array([[0.0] * 3] * 3 + [[0.0, np.inf, 0.0], [0.0] * 3]), NonFiniteValue,
             "scan 4: non-finite offset at point 3"),
        ],
    )
    def test_bad_inputs_raise_naming_the_scan(self, labels, offsets, error, message):
        base = self._inputs()
        inputs = ScanInputs(
            base.labels if labels is None else np.array(labels),
            base.offsets if offsets is None else offsets,
        )
        with pytest.raises(error, match=message):
            check_scan_inputs(inputs, 4, 5, 19)
