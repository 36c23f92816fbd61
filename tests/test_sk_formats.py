"""File-format readers and writers: decoding rules, errors, round trips."""

import re
import struct
from dataclasses import field, make_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panseg4d import sk_formats
from panseg4d.errors import (
    ConfigError,
    CountMismatch,
    FileTooShort,
    IdOverflow,
    MalformedLine,
    MissingTrLine,
    NonFiniteValue,
    NonOrthonormalRotationWarning,
)


class TestReadScan:
    def test_empty_file_gives_zero_points(self, tmp_path):
        path = tmp_path / "000000.bin"
        path.write_bytes(b"")
        scan = sk_formats.read_scan(path)
        assert len(scan) == 0

    def test_single_point_against_struct_oracle(self, tmp_path):
        # Independent little-endian float writer.
        path = tmp_path / "000001.bin"
        path.write_bytes(struct.pack("<4f", 1.0, 2.0, 3.0, 0.5))
        scan = sk_formats.read_scan(path)
        assert scan.points.tolist() == [[1.0, 2.0, 3.0]]
        assert scan.feature.tolist() == [0.5]
        assert scan.scan_index == 1

    def test_length_not_multiple_of_16_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 17)
        with pytest.raises(FileTooShort):
            sk_formats.read_scan(path)

    def test_nonfinite_coordinate_reports_point_index(self, tmp_path):
        path = tmp_path / "nan.bin"
        path.write_bytes(struct.pack("<4f", 0, 0, 0, 0) + struct.pack("<4f", 1, float("nan"), 2, 0))
        with pytest.raises(NonFiniteValue, match="point 1"):
            sk_formats.read_scan(path)

    def test_first_of_several_nonfinite_points_is_named(self, tmp_path):
        points = np.zeros((6, 4), dtype="<f4")
        points[4, 0] = np.inf
        points[2, 2] = -np.inf
        path = tmp_path / "inf.bin"
        path.write_bytes(points.tobytes())
        with pytest.raises(NonFiniteValue, match=r"inf\.bin: non-finite coordinate at point 2$"):
            sk_formats.read_scan(path)
        with pytest.raises(NonFiniteValue, match=r"^scan 3: non-finite coordinate at point 2$"):
            sk_formats.PointCloudScan(points[:, :3], points[:, 3], scan_index=3)

    def test_nonfinite_feature_is_not_a_coordinate_error(self, tmp_path):
        path = tmp_path / "feature.bin"
        path.write_bytes(struct.pack("<4f", 1, 2, 3, float("nan")))
        assert np.isnan(sk_formats.read_scan(path).feature[0])

    def test_decodes_exactly_length_over_16_points(self, tmp_path):
        rng = np.random.default_rng(3)
        for n in (0, 1, 7, 100):
            payload = rng.normal(size=(n, 4)).astype("<f4").tobytes()
            path = tmp_path / "scan.bin"
            path.write_bytes(payload)
            assert len(sk_formats.read_scan(path)) == n


class TestLabels:
    def test_bit_field_decode(self, tmp_path):
        path = tmp_path / "a.label"
        path.write_bytes(struct.pack("<I", 0x0001000A))
        labels = sk_formats.read_labels(path, 1)
        assert (labels.semantic_raw.tolist(), labels.instance_id.tolist()) == ([10], [1])

    def test_zero_word(self, tmp_path):
        path = tmp_path / "z.label"
        path.write_bytes(struct.pack("<I", 0))
        labels = sk_formats.read_labels(path, 1)
        assert (labels.semantic_raw.tolist(), labels.instance_id.tolist()) == ([0], [0])

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "c.label"
        path.write_bytes(b"\x00" * 8)
        with pytest.raises(CountMismatch):
            sk_formats.read_labels(path, 3)


class TestWritePredictions:
    def test_empty_sequence_gives_empty_file(self, tmp_path):
        path = tmp_path / "p.label"
        sk_formats.write_predictions(path, [])
        assert path.read_bytes() == b""

    def test_little_endian_pack_oracle(self, tmp_path):
        path = tmp_path / "p.label"
        sk_formats.write_predictions(path, [(10, 1)])
        assert path.read_bytes() == bytes([0x0A, 0x00, 0x01, 0x00])

    def test_id_overflow(self, tmp_path):
        with pytest.raises(IdOverflow):
            sk_formats.write_predictions(tmp_path / "p.label", [(10, 70000)])
        with pytest.raises(IdOverflow):
            sk_formats.write_predictions(tmp_path / "p.label", [(70000, 1)])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)),
            max_size=50,
        )
    )
    def test_round_trip_property(self, tmp_path_factory, pairs):
        path = tmp_path_factory.mktemp("rt") / "p.label"
        sk_formats.write_predictions(path, pairs)
        back = sk_formats.read_labels(path, len(pairs))
        assert list(zip(back.semantic_raw.tolist(), back.instance_id.tolist())) == pairs


class TestPoses:
    def test_identity_line(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n")
        rotations, translations = sk_formats.read_poses(path)
        assert rotations.shape == (1, 3, 3) and translations.shape == (1, 3)
        assert rotations.dtype == translations.dtype == np.float64
        assert np.array_equal(rotations[0], np.eye(3))
        assert np.array_equal(translations[0], np.zeros(3))

    def test_translation_column(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("1 0 0 5 0 1 0 0 0 0 1 0\n")
        assert sk_formats.read_poses(path)[1].tolist() == [[5.0, 0.0, 0.0]]

    def test_wrong_token_count_names_line(self, tmp_path):
        path = tmp_path / "poses.txt"
        identity = "1 0 0 0 0 1 0 0 0 0 1 0\n"
        path.write_text(identity * 2 + "1 0 0 0 0 1 0 0 0 0 1\n" + identity)
        with pytest.raises(MalformedLine, match=f"{path}:3: expected 12 numbers, got 11"):
            sk_formats.read_poses(path)

    def test_unparseable_number(self, tmp_path):
        path = tmp_path / "poses.txt"
        identity = "1 0 0 0 0 1 0 0 0 0 1 0\n"
        path.write_text(identity * 2 + "1 0 0 zero 0 1 0 0 0 0 1 0\n" + identity)
        with pytest.raises(MalformedLine, match=f"{path}:3: .*zero"):
            sk_formats.read_poses(path)

    def test_period_decimal_parsing(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("1 0 0 1.5 0 1 0 -2.25e-1 0 0 1 0\n")
        assert sk_formats.read_poses(path)[1][0].tolist() == [1.5, -0.225, 0.0]

    def test_non_orthonormal_rotation_warns(self, tmp_path):
        path = tmp_path / "poses.txt"
        identity = "1 0 0 0 0 1 0 0 0 0 1 0\n"
        path.write_text(identity + "2 0 0 0 0 1 0 0 0 0 1 0\n" + identity + "1 0 0 0 0 1 0 0 0 0 -1 0\n")
        with pytest.warns(NonOrthonormalRotationWarning) as caught:
            sk_formats.read_poses(path)
        assert [str(w.message).split(": ")[0] for w in caught] == [f"{path}:2", f"{path}:4"]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("\n1 0 0 0 0 1 0 0 0 0 1 0\n  \n1 0 0 0 0 1 0 0 0 0 1 0\n\n1 0 0 0 0 1 0\n")
        with pytest.raises(MalformedLine, match=f"{path}:6:"):
            sk_formats.read_poses(path)
        path.write_text("\n1 0 0 0 0 1 0 0 0 0 1 0\n\n")
        assert len(sk_formats.read_poses(path)[0]) == 1

    def test_empty_file_gives_zero_poses(self, tmp_path):
        path = tmp_path / "poses.txt"
        sk_formats.write_poses(path, np.zeros((0, 3, 3)), np.zeros((0, 3)))
        assert path.read_bytes() == b""
        rotations, translations = sk_formats.read_poses(path)
        assert rotations.shape == (0, 3, 3) and translations.shape == (0, 3)

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_value_names_line(self, tmp_path, token):
        path = tmp_path / "poses.txt"
        identity = "1 0 0 0 0 1 0 0 0 0 1 0\n"
        path.write_text(identity * 2 + f"1 0 0 0 0 1 0 {token} 0 0 1 0\n" + identity)
        with pytest.raises(NonFiniteValue, match=f"^{path}:3: non-finite value$"):
            sk_formats.read_poses(path)

    def test_values_are_the_float_of_each_token(self, tmp_path):
        rng = np.random.default_rng(12)
        values = np.concatenate([rng.normal(scale=10.0 ** rng.integers(-8, 8, 1200)), [0.1, -0.0, 1e-300]])
        values = np.resize(values, (len(values) // 12 + 1) * 12)
        # %.17g as write_poses gives them, Python's shortest repr, and spellings
        # float() accepts that neither writer emits.
        tokens = [f"{v:.17g}" for v in values] + [repr(v) for v in values[:24].tolist()]
        tokens[5:8] = ["1_0", "+.5", "7."]
        tokens = tokens[: len(tokens) // 12 * 12]
        path = tmp_path / "poses.txt"
        path.write_text("\n".join(" ".join(tokens[i: i + 12]) for i in range(0, len(tokens), 12)))
        with pytest.warns(NonOrthonormalRotationWarning):
            rotations, translations = sk_formats.read_poses(path)
        got = np.concatenate([rotations, translations[:, :, None]], axis=2).reshape(-1)
        assert got.tobytes() == np.array([float(t) for t in tokens]).tobytes()

    def test_write_read_round_trip(self, tmp_path):
        from conftest import random_rigid

        rng = np.random.default_rng(11)
        rigids = [random_rigid(rng) for _ in range(50)]
        rotations = np.stack([rigid.rotation for rigid in rigids])
        translations = np.stack([rigid.translation for rigid in rigids])
        path = tmp_path / "poses.txt"
        sk_formats.write_poses(path, rotations, translations)
        back_rotations, back_translations = sk_formats.read_poses(path)
        assert back_rotations.tobytes() == rotations.tobytes()
        assert back_translations.tobytes() == translations.tobytes()
        # Each line is the %.17g text of one pose's row-major 3x4.
        first = np.hstack([rotations[0], translations[0][:, None]]).reshape(-1)
        assert path.read_text().splitlines()[0] == " ".join(f"{v:.17g}" for v in first)


class TestCalib:
    def test_identity_transform(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("P0: 1 2 3\nTr: 1 0 0 0 0 1 0 0 0 0 1 0\n")
        calib = sk_formats.read_calib(path)
        assert np.array_equal(calib.rotation, np.eye(3))

    def test_missing_tr_line(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("P0: 1 2 3\n")
        with pytest.raises(MissingTrLine):
            sk_formats.read_calib(path)

    def test_wrong_number_count(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("Tr: 1 0 0 0 0 1 0 0 0 0\n")
        with pytest.raises(MalformedLine):
            sk_formats.read_calib(path)

    def test_non_finite_value_names_line(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("P0: 1 2 3\nTr: 1 0 0 0 0 1 0 nan 0 0 1 0\n")
        with pytest.raises(NonFiniteValue, match=f"^{path}:2: non-finite value$"):
            sk_formats.read_calib(path)

    def test_non_orthonormal_rotation_warns_naming_line(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("P0: 1 2 3\nTr: 1 0 0 0 0 2 0 0 0 0 1 0\n")
        with pytest.warns(NonOrthonormalRotationWarning, match=f"{path}:2: Tr rotation block"):
            sk_formats.read_calib(path)


class TestAuxiliaryFormats:
    def test_scan_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(40, 3)).astype(np.float32).astype(np.float64)
        feat = rng.random(40).astype(np.float32).astype(np.float64)
        scan = sk_formats.PointCloudScan(points=pts, feature=feat, scan_index=4)
        path = tmp_path / "000004.bin"
        sk_formats.write_scan(path, scan)
        back = sk_formats.read_scan(path)
        assert np.array_equal(back.points, pts)
        assert np.array_equal(back.feature, feat)

    def test_offsets_round_trip_and_count(self, tmp_path):
        rng = np.random.default_rng(6)
        offsets = rng.normal(size=(17, 3)).astype(np.float32).astype(np.float64)
        path = tmp_path / "000000.offset"
        sk_formats.write_offsets(path, offsets)
        assert np.array_equal(sk_formats.read_offsets(path, 17), offsets)
        with pytest.raises(CountMismatch):
            sk_formats.read_offsets(path, 16)

    def test_confidences_round_trip_and_count(self, tmp_path):
        rng = np.random.default_rng(7)
        scores = rng.random((9, 19)).astype(np.float32).astype(np.float64)
        path = tmp_path / "000000.conf"
        sk_formats.write_confidences(path, scores)
        assert np.array_equal(sk_formats.read_confidences(path, 9, 19), scores)
        with pytest.raises(CountMismatch):
            sk_formats.read_confidences(path, 9, 18)


class TestConfigFiles:
    def test_lines_name_path_and_line_without_comments_or_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# header\n\na: 1  # one\n   \n  b:2\n#c: 3\n")
        assert list(sk_formats.config_lines(path)) == [(f"{path}:3", "a: 1"), (f"{path}:5", "b:2")]

    def test_fields_parse_by_declared_type(self, tmp_path):
        spec = make_dataclass("Spec", [
            ("n", "int", field(default=0)),
            ("x", "float", field(default=0.0)),
            ("on", "bool", field(default=False)),
            ("name", "str | None", field(default=None)),
            ("root", "Path", field(default=None)),
            ("ids", "tuple[str, ...]", field(default=())),
            ("classes", "tuple[int, ...]", field(default=())),
            ("path", "tuple[tuple[float, float, float], ...]", field(default=())),
        ])
        path = tmp_path / "spec.cfg"
        path.write_text(
            "n: 3\nx: 2.5\non: yes\nname: a b\nroot: r/s\nids: 01, 02 03\nclasses: 4 5\n"
            "path: 1,2,3 ; 4, 5, 6\n"
        )
        assert sk_formats.read_fields(spec, path, "spec") == {
            "n": 3, "x": 2.5, "on": True, "name": "a b", "root": Path("r/s"),
            "ids": ("01", "02", "03"), "classes": (4, 5), "path": ((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)),
        }

    def test_unknown_key_and_bad_value_name_path_and_line(self, tmp_path):
        spec = make_dataclass("Spec", [("n", "int", field(default=0))])
        path = tmp_path / "spec.cfg"
        path.write_text("n: 1\nm: 2\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:2: unknown spec key 'm'$"):
            sk_formats.read_fields(spec, path, "spec")
        path.write_text("n: 1\nno colon\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:2: unknown spec key 'no colon'$"):
            sk_formats.read_fields(spec, path, "spec")
        path.write_text("\nn: 1.5\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:2: invalid literal for int"):
            sk_formats.read_fields(spec, path, "spec")

    def test_field_type_without_a_parser_fails_every_load(self, tmp_path):
        spec = make_dataclass("Spec", [("n", "int", field(default=0)), ("xs", "list[int]", field(default=None))])
        path = tmp_path / "spec.cfg"
        path.write_text("n: 1\n")
        with pytest.raises(KeyError, match="list"):
            sk_formats.read_fields(spec, path, "spec")
