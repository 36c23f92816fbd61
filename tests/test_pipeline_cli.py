"""CLI workflows: synth, segment, evaluate, ablate, inspect, determinism."""

import re
import shutil
import threading
import time
import weakref
from collections import Counter
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from panseg4d import pipeline_cli, sk_formats
from panseg4d.errors import (
    ConfigError,
    CountMismatch,
    FileTooShort,
    IdOutOfRange,
    LengthMismatch,
    NonFiniteValue,
    NoOverlapWarning,
)
from panseg4d.pipeline_cli import (
    PipelineConfig,
    bundled_path,
    evaluate_directories,
    inspect_path,
    main,
    plan_windows,
    reemit_fixture_scores,
    run_ablation,
    segment_sequence,
)
from panseg4d.scan_aggregator import RigidTransform
from panseg4d.semantic_prior import PredictionSource, ScanInputs
from panseg4d.synthlab import OracleProvider, SceneConfig, generate, instance_centers, write_dataset

# Every PipelineConfig field, a value other than its default as config
# file text, and the flag that sets it.
EVERY_FIELD = {
    "dataset_root": ("/data/skitti", "--dataset-root"),
    "out_dir": ("runs/x", "--out"),
    "sequences": ("03, 05 07", "--sequences"),
    "window_n": ("4", "--window-n"),
    "stride": ("3", "--stride"),
    "source": ("files", "--source"),
    "scene_config": ("scenes/a.cfg", "--scene-config"),
    "semantic_dir": ("sem/{seq}", "--semantic-dir"),
    "confidence_dir": ("conf/{seq}", "--confidence-dir"),
    "offset_dir": ("off/{seq}", "--offset-dir"),
    "flip_prob": ("0.25", "--flip-prob"),
    "offset_sigma": ("0.125", "--offset-sigma"),
    "noise_seed": ("11", "--noise-seed"),
    "k_proposals": ("50", "--k-proposals"),
    "group_radius_m": ("0.75", "--group-radius"),
    "dbscan_eps_m": ("1.25", "--dbscan-eps"),
    "dbscan_min_pts": ("3", "--dbscan-min-pts"),
    "threads": ("2", "--threads"),
}


class TestPlanWindows:
    def test_unit_stride_covers_every_scan(self):
        assert plan_windows(6, 2, 1) == [(0, 2), (1, 2), (2, 2), (3, 2), (4, 2)]

    def test_tail_window_clipped_to_range(self):
        assert plan_windows(6, 4, 3) == [(0, 4), (2, 4)]

    def test_exact_tiling(self):
        assert plan_windows(6, 2, 2) == [(0, 2), (2, 2), (4, 2)]

    def test_window_larger_than_sequence_rejected(self):
        with pytest.raises(ConfigError):
            plan_windows(3, 4, 1)


class TestConfigValidation:
    def test_stride_above_window_rejected_before_io(self):
        config = PipelineConfig(
            dataset_root="/definitely/not/a/path", window_n=2, stride=3,
            scene_config="also/missing.cfg",
        )
        with pytest.raises(ConfigError, match="stride"):
            config.validate()

    def test_oracle_source_requires_scene(self):
        with pytest.raises(ConfigError, match="scene_config"):
            PipelineConfig(source="oracle", scene_config=None).validate()

    def test_files_source_requires_dirs(self):
        with pytest.raises(ConfigError, match="offset_dir"):
            PipelineConfig(source="files", offset_dir=None).validate()
        # Exactly one semantic input kind, checked before any file is read.
        for semantic_dir, confidence_dir in ((None, None), ("/missing/sem", "/missing/conf")):
            config = PipelineConfig(
                dataset_root="/definitely/not/a/path", source="files", offset_dir="/missing/off",
                semantic_dir=semantic_dir, confidence_dir=confidence_dir,
            )
            with pytest.raises(ConfigError, match="exactly one of semantic_dir, confidence_dir"):
                config.validate()

    def test_from_file_with_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "window_n: 4\nstride: 2\nconfidence_dir: conf/{seq}\nthreads: 2\n"
            "sequences: 00 01\ngroup_radius_m: 0.5\n"
        )
        config = PipelineConfig.from_file(path, window_n=3, scene_config=tmp_path / "s.cfg")
        assert config.window_n == 3  # flag wins
        assert config.stride == 2
        assert config.confidence_dir == "conf/{seq}"
        assert config.sequences == ("00", "01")
        assert config.group_radius_m == 0.5

    def test_removed_group_space_key_names_file_and_line(self, tmp_path):
        path = tmp_path / "old.cfg"
        path.write_text("window_n: 2\ngroup_space: shifted\n")
        with pytest.raises(ConfigError, match=f"{re.escape(str(path))}:2: unknown config key 'group_space'"):
            PipelineConfig.from_file(path)

    def test_removed_offset_frame_key_names_file_and_line(self, tmp_path):
        path = tmp_path / "old.cfg"
        path.write_text("window_n: 2\noffset_frame: sensor\n")
        with pytest.raises(ConfigError, match=f"{re.escape(str(path))}:2: unknown config key 'offset_frame'"):
            PipelineConfig.from_file(path)

    def test_every_field_reads_the_same_from_a_file_and_from_its_flag(self, tmp_path, monkeypatch):
        assert set(EVERY_FIELD) == {spec.name for spec in fields(PipelineConfig)}
        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{name}: {text}\n" for name, (text, _) in EVERY_FIELD.items()))
        # Both semantic input kinds are set, which validate() refuses.
        monkeypatch.setattr(PipelineConfig, "validate", lambda self: None)
        from_file = PipelineConfig.from_file(path)
        argv = ["segment"] + [token for text, flag in EVERY_FIELD.values() for token in (flag, text)]
        from_flags = pipeline_cli._config_from_args(pipeline_cli.build_parser().parse_args(argv))
        assert repr(from_flags) == repr(from_file)
        default = PipelineConfig()
        assert [spec.name for spec in fields(PipelineConfig)
                if getattr(from_file, spec.name) == getattr(default, spec.name)] == []
        assert from_file.sequences == ("03", "05", "07")
        assert (from_file.out_dir, from_file.scene_config) == (Path("runs/x"), Path("scenes/a.cfg"))
        assert (from_file.group_radius_m, from_file.dbscan_eps_m) == (0.75, 1.25)

    def test_empty_path_or_string_value_names_file_and_line(self, tmp_path):
        for key in ("dataset_root", "out_dir", "scene_config", "source", "semantic_dir",
                    "confidence_dir", "offset_dir"):
            path = tmp_path / "run.cfg"
            path.write_text(f"window_n: 2\n{key}:   # nothing\n")
            with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:2: empty value$"):
                PipelineConfig.from_file(path)

    def test_empty_sequence_list_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="sequences"):
            PipelineConfig(sequences=(), scene_config=tmp_path / "s.cfg").validate()
        path = tmp_path / "run.cfg"
        path.write_text("sequences:\n")
        with pytest.raises(ConfigError, match="sequences"):
            PipelineConfig.from_file(path, scene_config=tmp_path / "s.cfg").validate()

    def test_repeated_sequence_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="sequence 00 is listed more than once"):
            PipelineConfig(sequences=("00", "01", "00"), scene_config=tmp_path / "s.cfg").validate()
        path = tmp_path / "run.cfg"
        path.write_text("sequences: 03, 04 03\n")
        with pytest.raises(ConfigError, match="sequence 03 is listed more than once"):
            PipelineConfig.from_file(path, scene_config=tmp_path / "s.cfg").validate()

    def test_readme_config_block_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Configuration\n", 1)[1]
        block = section.split("\n```\n", 2)[1]
        path = tmp_path / "readme.cfg"
        path.write_text(block)
        config = PipelineConfig.from_file(path)
        config.validate()
        assert config.dataset_root == Path("data") and config.out_dir == Path("runs/clean")
        assert config.sequences == ("00",)
        assert (config.window_n, config.stride, config.source) == (2, 1, "oracle")
        assert config.offset_dir == "offs/{seq}" and config.semantic_dir == "preds/{seq}"
        assert (config.group_radius_m, config.dbscan_eps_m, config.threads) == (0.6, 1.0, 1)
        expected = PipelineConfig(
            dataset_root=Path("data"), out_dir=Path("runs/clean"), sequences=("00",), window_n=2,
            stride=1, source="oracle", scene_config=Path("data/00/scene.cfg"), semantic_dir="preds/{seq}",
            confidence_dir=None, offset_dir="offs/{seq}", flip_prob=0.0, offset_sigma=0.0, noise_seed=0,
            k_proposals=0, group_radius_m=0.6, dbscan_eps_m=1.0, dbscan_min_pts=1, threads=1,
        )
        assert repr(config) == repr(expected)  # types too: 0.0 is not 0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("window_m: 4\n")
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(path)

    def test_key_given_twice_names_both_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("window_n: 2\n# the window\nwindow_n: 4\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:3: config key 'window_n' is already "
                                              f"set at {re.escape(str(path))}:1$"):
            PipelineConfig.from_file(path)

    def test_invalid_value_in_config_file_exits_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(f"window_n: 0\nscene_config: {tmp_path / 's.cfg'}\n")
        assert main(["segment", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: {path}: window_n must be >= 1\n"

    def test_env_var_supplies_default_dataset_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("PANSEG4D_DATA", str(tmp_path / "skitti"))
        config = PipelineConfig()
        assert str(config.dataset_root) == str(tmp_path / "skitti")


def _oracle_config(dataset, out_dir, **kwargs) -> PipelineConfig:
    defaults = dict(
        dataset_root=dataset.root,
        out_dir=out_dir,
        sequences=("00",),
        window_n=2,
        source="oracle",
        scene_config=dataset.scene_path,
    )
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


def _read_predictions(out_dir, scans):
    rows = []
    for k, scan in enumerate(scans):
        rows.append(
            sk_formats.read_labels(out_dir / "00" / "predictions" / f"{k:06d}.label", len(scan))
        )
    return rows


class TestSegment:
    def test_oracle_predictions_match_ground_truth_up_to_bijection(
        self, small_dataset, class_map, tmp_path
    ):
        config = _oracle_config(small_dataset, tmp_path / "out")
        stats = segment_sequence(config, "00")
        assert stats.uncovered_thing_points == 0
        predictions = _read_predictions(tmp_path / "out", small_dataset.scans)
        mapping = {}
        for k, pred in enumerate(predictions):
            raw_expected = class_map.train_to_raw[small_dataset.gt.semantic]
            assert np.array_equal(pred.semantic_raw, raw_expected)
            gt_ids = small_dataset.gt.instance
            assert (pred.instance_id[gt_ids == 0] == 0).all()
            for gt_id in np.unique(gt_ids[gt_ids > 0]):
                got = set(pred.instance_id[gt_ids == gt_id].tolist())
                assert len(got) == 1
                pred_id = got.pop()
                assert pred_id > 0
                assert mapping.setdefault(int(gt_id), pred_id) == pred_id
        assert len(set(mapping.values())) == len(mapping)

    def test_single_scan_windows_warn_and_still_cover(self, small_dataset, tmp_path):
        config = _oracle_config(small_dataset, tmp_path / "out", window_n=1, stride=1)
        with pytest.warns(NoOverlapWarning):
            stats = segment_sequence(config, "00")
        assert stats.n_scans == len(small_dataset.scans)
        predictions = _read_predictions(tmp_path / "out", small_dataset.scans)
        assert len(predictions) == len(small_dataset.scans)

    def test_thread_counts_give_identical_bytes(self, small_dataset, tmp_path):
        config_a = _oracle_config(small_dataset, tmp_path / "a", threads=1)
        config_b = _oracle_config(small_dataset, tmp_path / "b", threads=4)
        segment_sequence(config_a, "00")
        segment_sequence(config_b, "00")
        for k in range(len(small_dataset.scans)):
            name = f"{k:06d}.label"
            a = (tmp_path / "a" / "00" / "predictions" / name).read_bytes()
            b = (tmp_path / "b" / "00" / "predictions" / name).read_bytes()
            assert a == b

    def test_run_log_written(self, small_dataset, tmp_path):
        config = _oracle_config(small_dataset, tmp_path / "out")
        segment_sequence(config, "00")
        log = (tmp_path / "out" / "00" / "run_log.txt").read_text()
        assert "window start=0" in log
        assert "points/sec" in log

    def test_run_log_window_rows_carry_merge_counters_before_timings(self, small_dataset, tmp_path):
        config = _oracle_config(small_dataset, tmp_path / "out")
        stats = segment_sequence(config, "00")
        uncovered = 0
        for row in stats.window_rows:
            fields = row.split()
            names = [field.split("=")[0] for field in fields]
            at = names.index("uncovered")
            assert names[at : at + 4] == ["uncovered", "demoted", "contested", "aggregate"]
            uncovered += int(fields[at].split("=")[1])
            assert int(fields[at + 1].split("=")[1]) >= 0 and int(fields[at + 2].split("=")[1]) >= 0
            # DBSCAN counters follow the proposal count, before the timings.
            found = names.index("clusters")
            assert names[found - 1 : found + 2] == ["proposals", "clusters", "noise"]
            assert found < names.index("aggregate")
            proposals, clusters, noise = (int(fields[i].split("=")[1]) for i in range(found - 1, found + 2))
            assert clusters >= 0 and noise >= 0 and clusters + noise <= proposals
            assert clusters >= 1 or noise == proposals
            # Seeding ran on the window's thing points, reported after points=,
            # and asked FPS for picks= of them, of which the prefix is kept.
            at = names.index("things")
            assert names[at - 1 : at + 3] == ["points", "things", "picks", "proposals"]
            points, things, picks = (int(fields[i].split("=")[1]) for i in (at - 1, at, at + 1))
            assert 0 < things <= points and 0 < proposals <= picks <= things
            # Oracle offsets put all of an object's votes on its center, so
            # the covering prefix keeps one seed per object.
            assert proposals == int(fields[names.index("instances")].split("=")[1])
        assert uncovered == stats.uncovered_thing_points
        log = (tmp_path / "out" / "00" / "run_log.txt").read_text().splitlines()
        assert log[: len(stats.window_rows)] == stats.window_rows

    def test_run_log_closes_with_the_global_ids_used(self, small_dataset, tmp_path):
        # Global ids are handed out from 1 and never reused, so the count
        # used is the largest instance id written.
        stats = segment_sequence(_oracle_config(small_dataset, tmp_path / "out"), "00")
        predictions = _read_predictions(tmp_path / "out", small_dataset.scans)
        largest = max(int(labels.instance_id.max()) for labels in predictions)
        assert largest > 0
        log = (tmp_path / "out" / "00" / "run_log.txt").read_text().splitlines()
        assert log[-1] == f"global instance ids used: {largest} of 65535, {largest / stats.n_scans:.4g} per scan"

    def test_run_log_reports_the_end_to_end_rate_only(self, small_dataset, tmp_path):
        config = _oracle_config(small_dataset, tmp_path / "out")
        stats = segment_sequence(config, "00")
        assert stats.points_per_sec == stats.total_points / stats.wall_time_s
        log = (tmp_path / "out" / "00" / "run_log.txt").read_text().splitlines()
        rates = [line for line in log if "points/sec" in line]
        assert rates == [f"end-to-end throughput: {stats.points_per_sec:,.0f} points/sec"]

    def test_reference_lstq_floor_under_offset_noise(self, reference_dataset, class_map, tmp_path):
        # Seeds on thing points only, stopped at the grouping radius, keep
        # each object's noisy votes together: 1.000 at sigma 0.3, where
        # seeding on every point read 0.119.
        config = _oracle_config(reference_dataset, tmp_path / "out", offset_sigma=0.3, noise_seed=7)
        segment_sequence(config, "00")
        reports, _ = evaluate_directories(
            tmp_path / "out", reference_dataset.root, ("00",), class_map, tmp_path / "out"
        )
        assert reports["00"].lstq >= 0.99

    @pytest.mark.parametrize(
        "noise", [dict(), dict(offset_sigma=0.3, flip_prob=0.1, noise_seed=7, k_proposals=3000)],
        ids=["oracle", "noisy"],
    )
    def test_covering_bound_changes_no_prediction(self, reference_dataset, tmp_path, monkeypatch, noise):
        # FPS asked for at most covering_bound picks keeps the same seeds as
        # FPS asked for every pick up to the cap. Oracle votes end the
        # prefix at one seed per object; noisy votes and flipped labels give
        # prefixes of hundreds, under a cap raised above the bound.
        def run(out):
            config = _oracle_config(reference_dataset, out, **noise)
            stats = segment_sequence(config, "00")
            return [int(row.split("picks=")[1].split()[0]) for row in stats.window_rows]

        bounded = run(tmp_path / "bounded")
        monkeypatch.setattr(pipeline_cli, "covering_bound", lambda pts, r: len(pts))
        full = run(tmp_path / "full")
        assert all(b <= f for b, f in zip(bounded, full)) and sum(bounded) < sum(full)
        for k in range(len(reference_dataset.scans)):
            name = f"{k:06d}.label"
            a = (tmp_path / "bounded" / "00" / "predictions" / name).read_bytes()
            b = (tmp_path / "full" / "00" / "predictions" / name).read_bytes()
            assert a == b

    def test_file_source_with_sensor_frame_offsets(self, small_dataset, class_map, tmp_path):
        # Emit per-scan semantic labels and sensor-frame oracle offsets,
        # then run the pipeline purely from files.
        sem_dir = tmp_path / "sem"
        off_dir = tmp_path / "off"
        sem_dir.mkdir()
        off_dir.mkdir()
        for k, scan in enumerate(small_dataset.scans):
            raw = class_map.train_to_raw[small_dataset.gt.semantic]
            sk_formats.write_predictions(
                sem_dir / f"{k:06d}.label",
                np.stack([raw, small_dataset.gt.instance], axis=1),
            )
            delta = instance_centers(scan.points, small_dataset.gt.instance) - scan.points
            sk_formats.write_offsets(off_dir / f"{k:06d}.offset", delta)
        config = PipelineConfig(
            dataset_root=small_dataset.root,
            out_dir=tmp_path / "out",
            sequences=("00",),
            window_n=2,
            source="files",
            semantic_dir=str(sem_dir),
            offset_dir=str(off_dir),
        )
        stats = segment_sequence(config, "00")
        assert stats.uncovered_thing_points == 0
        reports, _ = evaluate_directories(
            tmp_path / "out", small_dataset.root, ("00",), class_map, tmp_path / "out"
        )
        assert reports["00"].lstq > 0.999

    def test_confidence_files_match_label_files(self, small_dataset, class_map, tmp_path):
        # .conf rows peaked at the ground-truth class must segment exactly
        # like the dataset's own labels/ directory.
        conf_dir = tmp_path / "conf"
        off_dir = tmp_path / "off"
        conf_dir.mkdir()
        off_dir.mkdir()
        n_classes = class_map.n_classes
        for k, scan in enumerate(small_dataset.scans):
            semantic = small_dataset.gt.semantic
            scores = np.full((len(scan), n_classes), 0.3 / (n_classes - 1), dtype=np.float32)
            scores[np.arange(len(scan)), semantic] = 0.7
            sk_formats.write_confidences(conf_dir / f"{k:06d}.conf", scores)
            delta = instance_centers(scan.points, small_dataset.gt.instance) - scan.points
            sk_formats.write_offsets(off_dir / f"{k:06d}.offset", delta)
        common = dict(
            dataset_root=small_dataset.root, sequences=("00",), window_n=2,
            source="files", offset_dir=str(off_dir),
        )
        labels_dir = str(small_dataset.root / "{seq}" / "labels")
        by_labels = PipelineConfig(out_dir=tmp_path / "sem", semantic_dir=labels_dir, **common)
        by_conf = PipelineConfig(out_dir=tmp_path / "conf_run", confidence_dir=str(conf_dir), **common)
        segment_sequence(by_labels, "00")
        segment_sequence(by_conf, "00")
        for k in range(len(small_dataset.scans)):
            name = f"{k:06d}.label"
            from_labels = (tmp_path / "sem" / "00" / "predictions" / name).read_bytes()
            from_conf = (tmp_path / "conf_run" / "00" / "predictions" / name).read_bytes()
            assert from_conf == from_labels

    @pytest.mark.parametrize("free_scans", [(2, 3), (0, 1)], ids=["between", "first"])
    def test_window_without_thing_points_seeds_nothing(self, small_dataset, class_map, tmp_path, free_scans):
        # Scans whose thing points are all relabelled stuff form one window
        # with no thing-labelled point: either between two windows with
        # objects, or the first window.
        sem_dir = tmp_path / "sem"
        off_dir = tmp_path / "off"
        sem_dir.mkdir()
        off_dir.mkdir()
        stuff_raw = class_map.train_to_raw[np.flatnonzero(~class_map.thing_mask)[0]]
        written = []
        for k, scan in enumerate(small_dataset.scans):
            semantic = small_dataset.gt.semantic
            raw = class_map.train_to_raw[semantic]
            if k in free_scans:
                raw = np.where(class_map.thing_mask[semantic], stuff_raw, raw)
            written.append(raw)
            sk_formats.write_predictions(sem_dir / f"{k:06d}.label", np.stack([raw, np.zeros_like(raw)], axis=1))
            delta = instance_centers(scan.points, small_dataset.gt.instance) - scan.points
            sk_formats.write_offsets(off_dir / f"{k:06d}.offset", delta)
        config = PipelineConfig(
            dataset_root=small_dataset.root, out_dir=tmp_path / "out", sequences=("00",), window_n=2,
            source="files", semantic_dir=str(sem_dir), offset_dir=str(off_dir),
        )
        stats = segment_sequence(config, "00")
        empty = free_scans[0]  # the window starting at the first free scan
        rows = [dict(field.split("=") for field in row.split()[1:]) for row in stats.window_rows]
        for w, (row, counts) in enumerate(zip(stats.window_rows, rows)):
            if w == empty:
                for name in ("things", "proposals", "clusters", "noise", "instances", "demoted", "contested"):
                    assert counts[name] == "0", (name, row)
            else:
                assert int(counts["things"]) > 0 and int(counts["proposals"]) > 0, row

        predictions = _read_predictions(tmp_path / "out", small_dataset.scans)
        # Scans first written from the empty window keep their labels and no ids.
        for k in range(empty, empty + 2) if empty == 0 else (empty + 1,):
            assert (predictions[k].instance_id == 0).all()
            assert np.array_equal(predictions[k].semantic_raw, written[k])
        # The next window matches nothing and takes fresh ids, ascending from
        # the first id not used by any earlier scan.
        after = empty + 2
        before = np.concatenate([predictions[k].instance_id for k in range(after)])
        ids = np.unique(predictions[after].instance_id[predictions[after].instance_id > 0])
        assert ids.size and np.array_equal(ids, np.arange(ids[0], ids[0] + len(ids)))
        assert len(ids) == int(rows[empty + 1]["instances"])
        assert ids[0] > before.max()
        if empty == 0:
            assert ids[0] == 1

    def test_missing_offset_file_names_scan(self, small_dataset, tmp_path):
        sem_dir = tmp_path / "sem"
        off_dir = tmp_path / "off"
        sem_dir.mkdir()
        off_dir.mkdir()
        for k, scan in enumerate(small_dataset.scans):
            sk_formats.write_predictions(
                sem_dir / f"{k:06d}.label",
                np.stack([np.full(len(scan), 40), np.zeros(len(scan), dtype=int)], axis=1),
            )
            if k != 2:
                sk_formats.write_offsets(off_dir / f"{k:06d}.offset", np.zeros((len(scan), 3)))
        config = PipelineConfig(
            dataset_root=small_dataset.root,
            out_dir=tmp_path / "out",
            sequences=("00",),
            window_n=2,
            source="files",
            semantic_dir=str(sem_dir),
            offset_dir=str(off_dir),
        )
        with pytest.raises(FileNotFoundError, match="scan 2"):
            segment_sequence(config, "00")


@pytest.fixture(scope="module")
def six_scan_dataset(tmp_path_factory, class_map):
    scene = SceneConfig(
        n_scans=6, points_per_scan=1500, n_objects=3, object_classes=(0, 5, 3),
        plane_extent=8.0, n_boxes=2, seed=7,
    )
    root = tmp_path_factory.mktemp("six_scan_dataset")
    scans, poses, gt = generate(scene)
    write_dataset(root, "00", scans, poses, gt, class_map)
    scene.save(root / "scene.cfg")
    return SimpleNamespace(root=root, scene_path=root / "scene.cfg", scans=scans)


class TestOnePass:
    """Each window is stitched and its scans written before the next one runs."""

    def test_first_scan_is_written_before_the_last_window_starts(self, small_dataset, tmp_path, monkeypatch):
        first = tmp_path / "out" / "00" / "predictions" / "000000.label"
        written_at_start = {}
        segment_window = pipeline_cli._segment_window

        def spy(config, window, *args):
            written_at_start[window] = first.exists()
            return segment_window(config, window, *args)

        monkeypatch.setattr(pipeline_cli, "_segment_window", spy)
        segment_sequence(_oracle_config(small_dataset, tmp_path / "out", threads=1), "00")
        windows = plan_windows(len(small_dataset.scans), 2, 1)
        assert list(written_at_start) == windows
        assert not written_at_start[windows[0]]
        assert written_at_start[windows[-1]]

    @pytest.mark.filterwarnings("ignore::panseg4d.errors.NoOverlapWarning")
    @pytest.mark.parametrize(
        "window_n, stride, windows",
        [(4, 3, [(0, 4), (2, 4)]), (3, 3, [(0, 3), (3, 3)])],
        ids=["clipped-tail", "stride-equals-window"],
    )
    def test_each_scan_is_written_once_by_the_first_window_holding_it(
        self, six_scan_dataset, tmp_path, monkeypatch, window_n, stride, windows
    ):
        assert plan_windows(6, window_n, stride) == windows
        started, writes = [], []
        segment_window = pipeline_cli._segment_window
        write_predictions = sk_formats.write_predictions

        def spy_window(config, window, *args):
            started.append(window)
            return segment_window(config, window, *args)

        def spy_write(path, labels):
            writes.append((int(Path(path).stem), started[-1]))
            write_predictions(path, labels)

        monkeypatch.setattr(pipeline_cli, "_segment_window", spy_window)
        monkeypatch.setattr(sk_formats, "write_predictions", spy_write)
        for threads in (1, 2):
            config = _oracle_config(
                six_scan_dataset, tmp_path / f"t{threads}", window_n=window_n, stride=stride, threads=threads
            )
            segment_sequence(config, "00")
        serial, pooled = writes[:6], writes[6:]
        # With one thread the window that writes a scan is the last one started.
        first_holder = [next(w for w in windows if w[0] <= k < w[0] + w[1]) for k in range(6)]
        assert serial == list(zip(range(6), first_holder))
        assert [k for k, _ in pooled] == list(range(6))
        for k in range(6):
            name = f"{k:06d}.label"
            a = (tmp_path / "t1" / "00" / "predictions" / name).read_bytes()
            b = (tmp_path / "t2" / "00" / "predictions" / name).read_bytes()
            assert a == b

    def test_pool_runs_at_most_one_window_ahead_of_its_threads(self, six_scan_dataset, tmp_path, monkeypatch):
        threads = 2
        lock = threading.Lock()
        started, stitched, ahead = [0], [0], []
        segment_window = pipeline_cli._segment_window
        stitch = pipeline_cli.stitch

        def spy_window(*args):
            with lock:
                started[0] += 1
                ahead.append(started[0] - stitched[0])
            return segment_window(*args)

        def slow_stitch(*args):
            time.sleep(0.05)
            result = stitch(*args)
            with lock:
                stitched[0] += 1
            return result

        monkeypatch.setattr(pipeline_cli, "_segment_window", spy_window)
        monkeypatch.setattr(pipeline_cli, "stitch", slow_stitch)
        segment_sequence(_oracle_config(six_scan_dataset, tmp_path / "out", threads=threads), "00")
        assert started[0] == stitched[0] == len(plan_windows(6, 2, 1))
        assert max(ahead) <= threads + 1


class TestPriorsInWindowJobs:
    """Each scan's provider inputs are read once, by the first window job
    holding the scan, and dropped once no window left to stitch holds it."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_prior_is_asked_for_once(self, six_scan_dataset, tmp_path, monkeypatch, threads):
        lock = threading.Lock()
        calls = Counter()
        scan_inputs = OracleProvider.scan_inputs

        def slow_inputs(self, scan_index, points):
            with lock:
                calls[scan_index] += 1
            time.sleep(0.02)  # lets windows sharing a scan run at once
            return scan_inputs(self, scan_index, points)

        monkeypatch.setattr(OracleProvider, "scan_inputs", slow_inputs)
        # Three-scan windows at stride 1: scans 2 and 3 sit in three windows.
        config = _oracle_config(six_scan_dataset, tmp_path / "out", window_n=3, stride=1, threads=threads)
        stats = segment_sequence(config, "00")
        assert calls == Counter(range(6))
        # Only the window that read a scan pays for it: the first window
        # reads three scans, each later one the one scan it adds.
        inputs_ms = [float(row.split("inputs=")[1].removesuffix("ms")) for row in stats.window_rows]
        assert inputs_ms[0] >= 3 * 20 and all(20 <= ms < 3 * 20 for ms in inputs_ms[1:])
        monkeypatch.undo()
        reference = _oracle_config(six_scan_dataset, tmp_path / "ref", window_n=3, stride=1)
        segment_sequence(reference, "00")
        for k in range(6):
            name = f"{k:06d}.label"
            assert (tmp_path / "out" / "00" / "predictions" / name).read_bytes() == (
                tmp_path / "ref" / "00" / "predictions" / name
            ).read_bytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_no_reduced_prior_is_held_below_the_stitched_window(
        self, six_scan_dataset, tmp_path, monkeypatch, threads
    ):
        lock = threading.Lock()
        alive, held_early = set(), []
        scan_inputs = OracleProvider.scan_inputs
        stitch = pipeline_cli.stitch

        def spy_inputs(self, scan_index, points):
            inputs = scan_inputs(self, scan_index, points)
            for array in inputs:
                with lock:
                    alive.add((scan_index, id(array)))
                weakref.finalize(array, alive.discard, (scan_index, id(array)))
            return inputs

        def spy_stitch(state, prev, new, overlap):
            with lock:
                held_early.extend((new.window, k) for k, _ in alive if k < new.window[0])
            return stitch(state, prev, new, overlap)

        monkeypatch.setattr(OracleProvider, "scan_inputs", spy_inputs)
        monkeypatch.setattr(pipeline_cli, "stitch", spy_stitch)
        segment_sequence(_oracle_config(six_scan_dataset, tmp_path / "out", threads=threads), "00")
        assert held_early == []
        assert not alive

    def test_failed_reduction_reaches_every_window_waiting_for_it(self, six_scan_dataset, tmp_path, monkeypatch):
        scan_inputs = OracleProvider.scan_inputs

        def failing_inputs(self, scan_index, points):
            if scan_index == 1:
                time.sleep(0.05)  # the second window is already waiting
                raise ValueError("scan 1 inputs failed")
            return scan_inputs(self, scan_index, points)

        monkeypatch.setattr(OracleProvider, "scan_inputs", failing_inputs)
        config = _oracle_config(six_scan_dataset, tmp_path / "out", window_n=3, stride=1, threads=2)
        raised = []

        def run():
            try:
                segment_sequence(config, "00")
            except ValueError as exc:
                raised.append(exc)

        # A window left waiting for a scan nobody reads would hang the run.
        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive(), "segment hung on scan inputs that failed"
        assert [str(exc) for exc in raised] == ["scan 1 inputs failed"]


class TestInputsReadOnce:
    """Every velodyne, label and offset file is read once per run, however
    many windows hold its scan (the first window job holding it reads it)."""

    def _spy_reads(self, monkeypatch) -> Counter:
        reads, lock = Counter(), threading.Lock()
        for name in ("read_scan", "read_labels", "read_offsets"):
            def spy(path, *args, _read=getattr(sk_formats, name)):
                with lock:
                    reads[Path(path)] += 1
                return _read(path, *args)

            monkeypatch.setattr(sk_formats, name, spy)
        return reads

    @pytest.mark.parametrize("threads", [1, 2])
    def test_oracle_reads_each_label_file_once(self, six_scan_dataset, tmp_path, monkeypatch, threads):
        reads = self._spy_reads(monkeypatch)
        # Three-scan windows at stride 1 hold scans 2 and 3 three times each.
        config = _oracle_config(six_scan_dataset, tmp_path / "out", window_n=3, stride=1, threads=threads)
        segment_sequence(config, "00")
        seq_dir = six_scan_dataset.root / "00"
        want = {seq_dir / "labels" / f"{k:06d}.label": 1 for k in range(6)}
        want.update({seq_dir / "velodyne" / f"{k:06d}.bin": 1 for k in range(6)})
        assert reads == Counter(want)

    def test_files_read_each_label_and_offset_file_once(self, six_scan_dataset, tmp_path, monkeypatch):
        labels_dir = six_scan_dataset.root / "00" / "labels"
        off_dir = tmp_path / "off"
        off_dir.mkdir()
        for k, scan in enumerate(six_scan_dataset.scans):
            labels = sk_formats.read_labels(labels_dir / f"{k:06d}.label", len(scan))
            delta = instance_centers(scan.points, labels.instance_id) - scan.points
            sk_formats.write_offsets(off_dir / f"{k:06d}.offset", delta)
        reads = self._spy_reads(monkeypatch)
        config = PipelineConfig(
            dataset_root=six_scan_dataset.root, out_dir=tmp_path / "out", sequences=("00",),
            window_n=3, stride=1, source="files", semantic_dir=str(labels_dir),
            offset_dir=str(off_dir), threads=2,
        )
        segment_sequence(config, "00")
        want = {labels_dir / f"{k:06d}.label": 1 for k in range(6)}
        want.update({off_dir / f"{k:06d}.offset": 1 for k in range(6)})
        want.update({six_scan_dataset.root / "00" / "velodyne" / f"{k:06d}.bin": 1 for k in range(6)})
        assert reads == Counter(want)

    def test_load_sequence_decodes_no_scan(self, small_dataset, monkeypatch):
        def no_read(*args):
            raise AssertionError("load_sequence decoded a scan")

        monkeypatch.setattr(sk_formats, "read_scan", no_read)
        scans, lidar_poses, _ = pipeline_cli.load_sequence(small_dataset.root, "00")
        assert [len(scan) for scan in scans] == [len(scan) for scan in small_dataset.scans]
        assert len(lidar_poses) == len(scans)

    def test_load_sequence_builds_no_transform_per_pose(self, small_dataset, twenty_and_forty_scans, monkeypatch):
        built = Counter()
        post_init = RigidTransform.__post_init__

        def counting(self):
            built["transforms"] += 1
            post_init(self)

        monkeypatch.setattr(RigidTransform, "__post_init__", counting)
        counts = []
        for root in (small_dataset.root, twenty_and_forty_scans[40].root):
            built.clear()
            scans, lidar_poses, _ = pipeline_cli.load_sequence(root, "00")
            counts.append(built["transforms"])
        assert len(scans) == len(lidar_poses) == 40
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("layout", ["missing", "empty"])
    def test_sequence_without_scans_exits_2(self, small_dataset, tmp_path, capsys, layout):
        data = tmp_path / "data"
        shutil.copytree(small_dataset.root / "00", data / "00")
        shutil.rmtree(data / "00" / "velodyne")
        if layout == "empty":
            (data / "00" / "velodyne").mkdir()
        argv = ["segment", "--dataset-root", str(data), "--out", str(tmp_path / "out"),
                "--scene-config", str(small_dataset.scene_path)]
        assert main(argv) == 2
        assert f"no scans under {data / '00' / 'velodyne'}" in capsys.readouterr().err
        argv = ["evaluate", "--dataset-root", str(data), "--pred-root", str(data),
                "--out", str(tmp_path / "rep")]
        assert main(argv) == 2
        assert f"no scans under {data / '00' / 'velodyne'}" in capsys.readouterr().err

    def test_non_finite_pose_exits_1_naming_file_and_line(self, small_dataset, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(small_dataset.root / "00", data / "00")
        poses = data / "00" / "poses.txt"
        lines = poses.read_text().splitlines()
        tokens = lines[2].split()
        tokens[7] = "nan"
        lines[2] = " ".join(tokens)
        poses.write_text("\n".join(lines) + "\n")
        argv = ["segment", "--dataset-root", str(data), "--out", str(tmp_path / "out"),
                "--scene-config", str(small_dataset.scene_path)]
        assert main(argv) == 1
        assert f"error: {poses}:3: non-finite value" in capsys.readouterr().err
        assert not list((tmp_path / "out").rglob("*.label"))
        assert main(["inspect", str(poses)]) == 1


@pytest.fixture(scope="module")
def twenty_and_forty_scans(tmp_path_factory, class_map):
    """One small scene written at 20 and at 40 scans."""
    datasets = {}
    for n_scans in (20, 40):
        scene = SceneConfig(
            n_scans=n_scans, points_per_scan=1000, n_objects=2, object_classes=(0, 5),
            plane_extent=8.0, n_boxes=2, seed=7,
        )
        root = tmp_path_factory.mktemp(f"scans_{n_scans}")
        scans, poses, gt = generate(scene)
        write_dataset(root, "00", scans, poses, gt, class_map)
        scene.save(root / "scene.cfg")
        datasets[n_scans] = SimpleNamespace(root=root, scene_path=root / "scene.cfg", scans=scans)
    return datasets


class TestLazyScans:
    """Scans are decoded by the first window job holding them and dropped
    with their inputs, so memory does not grow with the sequence."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("window_n", [2, 4])
    def test_decoded_scans_alive_do_not_grow_with_sequence_length(
        self, twenty_and_forty_scans, tmp_path, monkeypatch, window_n, threads
    ):
        lock = threading.Lock()
        alive, peak = [0], [0]
        read_scan = sk_formats.read_scan
        stitch = pipeline_cli.stitch

        def dropped():
            with lock:
                alive[0] -= 1

        def spy_read(*args):
            scan = read_scan(*args)
            with lock:
                alive[0] += 1
                peak[0] = max(peak[0], alive[0])
            weakref.finalize(scan, dropped)
            return scan

        def slow_stitch(*args):
            time.sleep(0.005)  # lets the pool run up to its limit of windows
            return stitch(*args)

        monkeypatch.setattr(sk_formats, "read_scan", spy_read)
        monkeypatch.setattr(pipeline_cli, "stitch", slow_stitch)
        peaks = {}
        for n_scans, dataset in twenty_and_forty_scans.items():
            alive[0] = peak[0] = 0
            config = _oracle_config(dataset, tmp_path / str(n_scans), window_n=window_n, threads=threads)
            segment_sequence(config, "00")
            assert alive[0] == 0
            peaks[n_scans] = peak[0]
        # One window's scans on one thread; on the pool, the scans of the
        # window being stitched and of the windows handed out after it.
        stride = window_n - 1
        assert peaks[20] == peaks[40] == (window_n if threads == 1 else window_n + threads * stride)

    def test_non_finite_coordinate_in_a_late_scan_exits_1_naming_file_and_point(
        self, small_dataset, tmp_path, capsys
    ):
        data = tmp_path / "data"
        shutil.copytree(small_dataset.root / "00", data / "00")
        bad = data / "00" / "velodyne" / "000004.bin"
        records = np.fromfile(bad, dtype="<f4").reshape(-1, 4)
        records[17, 1] = np.inf
        records.tofile(bad)
        code = main(
            [
                "segment", "--dataset-root", str(data), "--out", str(tmp_path / "out"),
                "--source", "oracle", "--scene-config", str(small_dataset.scene_path),
            ]
        )
        assert code == 1
        assert f"{bad}: non-finite coordinate at point 17" in capsys.readouterr().err
        # The windows before the first one holding scan 4 wrote their scans.
        written = sorted(path.name for path in (tmp_path / "out" / "00" / "predictions").iterdir())
        assert written == [f"{k:06d}.label" for k in range(4)]

    def test_truncated_scan_fails_segment_before_any_window_and_evaluate_alike(
        self, small_dataset, class_map, tmp_path
    ):
        data = tmp_path / "data"
        shutil.copytree(small_dataset.root / "00", data / "00")
        bad = data / "00" / "velodyne" / "000003.bin"
        bad.write_bytes(bad.read_bytes()[:-5])
        message = f"{bad}: {16 * len(small_dataset.scans[3]) - 5} bytes is not a multiple of 16"
        with pytest.raises(FileTooShort, match=message):
            segment_sequence(_oracle_config(small_dataset, tmp_path / "out", dataset_root=data), "00")
        assert not list((tmp_path / "out").rglob("*.label"))
        with pytest.raises(FileTooShort, match=message):
            evaluate_directories(data, data, ("00",), class_map, tmp_path / "rep")
        assert not list((tmp_path / "rep").iterdir())


class StubProvider(PredictionSource):
    """Road labels and zero offsets for every scan, except the inputs of
    one scan replaced by ``bad``."""

    def __init__(self, bad_scan, bad):
        self.bad_scan, self.bad = bad_scan, bad

    def scan_inputs(self, scan_index, points):
        n = len(points)
        inputs = ScanInputs(np.full(n, 8, dtype=np.int64), np.zeros((n, 3)))
        return self.bad(inputs) if scan_index == self.bad_scan else inputs

    def semantic_prior(self, scan_index, points):
        raise AssertionError("segment asks no prior matrix")

    def window_offsets(self, window, scan_offsets):
        return np.concatenate(scan_offsets)


def _with_label(index, value):
    def bad(inputs):
        labels = inputs.labels.copy()
        labels[index] = value
        return ScanInputs(labels, inputs.offsets)

    return bad


class TestProviderInputsChecked:
    """segment checks each scan's provider inputs once, naming the scan."""

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            (_with_label(7, -2), IdOutOfRange, "scan 2: label -2 at point 7 outside"),
            (_with_label(9, 19), IdOutOfRange, "scan 2: label 19 at point 9 outside"),
            (lambda i: ScanInputs(i.labels[:-1], i.offsets), LengthMismatch, "scan 2: labels of shape"),
            (lambda i: ScanInputs(i.labels.astype(float), i.offsets), IdOutOfRange, "scan 2: labels of dtype"),
            (lambda i: ScanInputs(i.labels, i.offsets[:, :2]), LengthMismatch, "scan 2: offsets of shape"),
        ],
        ids=["below-ignore", "above-classes", "short", "float", "two-columns"],
    )
    def test_bad_provider_inputs_raise_naming_the_scan(
        self, six_scan_dataset, tmp_path, monkeypatch, bad, error, message
    ):
        monkeypatch.setattr(pipeline_cli, "build_provider", lambda *args: StubProvider(2, bad))
        with pytest.raises(error, match=message):
            segment_sequence(_oracle_config(six_scan_dataset, tmp_path / "out"), "00")

    def test_stub_inputs_pass(self, six_scan_dataset, tmp_path, monkeypatch):
        monkeypatch.setattr(
            pipeline_cli, "build_provider", lambda *args: StubProvider(2, lambda inputs: inputs)
        )
        stats = segment_sequence(_oracle_config(six_scan_dataset, tmp_path / "out"), "00")
        assert all("things=0 " in row for row in stats.window_rows)

    def test_non_finite_oracle_offsets_name_the_scan(self, small_dataset, tmp_path):
        config = _oracle_config(small_dataset, tmp_path / "out", offset_sigma=float("inf"))
        with pytest.raises(NonFiniteValue, match="scan 0: non-finite offset at point 0"):
            segment_sequence(config, "00")

    def test_non_finite_offset_file_exits_1_naming_file_and_point(self, small_dataset, tmp_path, capsys):
        off_dir = tmp_path / "off"
        off_dir.mkdir()
        for k, scan in enumerate(small_dataset.scans):
            delta = instance_centers(scan.points, small_dataset.gt.instance) - scan.points
            if k == 3:
                delta[17, 2] = np.nan
            sk_formats.write_offsets(off_dir / f"{k:06d}.offset", delta)
        code = main(
            [
                "segment", "--dataset-root", str(small_dataset.root), "--out", str(tmp_path / "out"),
                "--source", "files", "--semantic-dir", str(small_dataset.root / "{seq}" / "labels"),
                "--offset-dir", str(off_dir),
            ]
        )
        assert code == 1
        assert f"{off_dir / '000003.offset'}: non-finite offset at point 17" in capsys.readouterr().err


class TestOracleTruth:
    """The oracle reads its truth from the dataset; the scene config is a shape check."""

    @pytest.mark.parametrize("field, value", [("n_scans", 4), ("points_per_scan", 3001)])
    def test_scene_config_of_another_shape_is_rejected(self, small_dataset, tmp_path, field, value):
        scene = SceneConfig.load(small_dataset.scene_path)
        setattr(scene, field, value)
        scene.save(tmp_path / "other.cfg")
        config = _oracle_config(small_dataset, tmp_path / "out", scene_config=tmp_path / "other.cfg")
        with pytest.raises(ConfigError, match="does not match dataset 00"):
            segment_sequence(config, "00")

    def test_scene_seed_does_not_reach_the_predictions(self, small_dataset, tmp_path):
        # Truth comes from labels/, not from regenerating the scene.
        scene = SceneConfig.load(small_dataset.scene_path)
        scene.seed += 1
        scene.save(tmp_path / "reseeded.cfg")
        segment_sequence(_oracle_config(small_dataset, tmp_path / "a"), "00")
        segment_sequence(_oracle_config(small_dataset, tmp_path / "b", scene_config=tmp_path / "reseeded.cfg"), "00")
        for k in range(len(small_dataset.scans)):
            name = f"{k:06d}.label"
            assert (tmp_path / "a" / "00" / "predictions" / name).read_bytes() == (
                tmp_path / "b" / "00" / "predictions" / name
            ).read_bytes()

    def test_missing_label_file_exits_1_naming_it(self, small_dataset, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(small_dataset.root / "00", data / "00")
        missing = data / "00" / "labels" / "000003.label"
        missing.unlink()
        code = main(
            [
                "segment", "--dataset-root", str(data), "--out", str(tmp_path / "out"),
                "--source", "oracle", "--scene-config", str(small_dataset.scene_path),
            ]
        )
        assert code == 1
        assert str(missing) in capsys.readouterr().err


class TestUnlabelledPoints:
    def test_unlabelled_points_stay_unlabelled(self, class_map, tmp_path):
        # Three scans, three objects, 10% of the stuff points unlabelled (raw 0).
        scene = SceneConfig(
            n_scans=3, points_per_scan=3000, n_objects=3, object_classes=(0, 5, 3),
            plane_extent=8.0, n_boxes=2, seed=7,
        )
        scans, poses, gt = generate(scene)
        write_dataset(tmp_path / "data", "00", scans, poses, gt, class_map)
        sem_dir, off_dir = tmp_path / "sem", tmp_path / "off"
        sem_dir.mkdir()
        off_dir.mkdir()
        rng = np.random.default_rng(8)
        unlabelled = []
        for k, scan in enumerate(scans):
            stuff = np.flatnonzero(gt.instance == 0)
            mask = np.zeros(len(scan), dtype=bool)
            mask[rng.choice(stuff, len(stuff) // 10, replace=False)] = True
            unlabelled.append(mask)
            raw = np.where(mask, 0, class_map.train_to_raw[gt.semantic])
            sk_formats.write_predictions(sem_dir / f"{k:06d}.label", np.stack([raw, gt.instance], axis=1))
            delta = instance_centers(scan.points, gt.instance) - scan.points
            sk_formats.write_offsets(off_dir / f"{k:06d}.offset", delta)
        config = PipelineConfig(
            dataset_root=tmp_path / "data", out_dir=tmp_path / "out", sequences=("00",), window_n=2,
            source="files", semantic_dir=str(sem_dir), offset_dir=str(off_dir),
        )
        stats = segment_sequence(config, "00")
        for row in stats.window_rows:
            counts = dict(field.split("=") for field in row.split()[1:])
            assert counts["proposals"] == counts["instances"] == "3", row
        assert stats.uncovered_thing_points == 0
        for k, labels in enumerate(_read_predictions(tmp_path / "out", scans)):
            assert (labels.semantic_raw[unlabelled[k]] == 0).all()
            assert (labels.instance_id[unlabelled[k]] == 0).all()
            assert np.array_equal(
                labels.semantic_raw[~unlabelled[k]], class_map.train_to_raw[gt.semantic][~unlabelled[k]]
            )


class TestEvaluate:
    def test_dataset_against_itself_scores_one(self, small_dataset, class_map, tmp_path):
        reports, overall = evaluate_directories(
            small_dataset.root, small_dataset.root, ("00",), class_map, tmp_path / "rep"
        )
        assert reports["00"].lstq == 1.0
        assert overall.lstq == 1.0
        kv = (tmp_path / "rep" / "report_00.kv").read_text()
        assert "lstq: 100.00" in kv
        assert "iou.car:" in kv

    def test_missing_prediction_file_raises_beside_complete_labels(self, small_dataset, class_map, tmp_path):
        # A root with predictions/ is scored from it alone: a scan missing
        # there is an error, not ground truth read from labels/.
        seq = tmp_path / "pred" / "00"
        shutil.copytree(small_dataset.root / "00" / "labels", seq / "labels")
        (seq / "predictions").mkdir()
        for k in range(len(small_dataset.scans)):
            if k != 2:
                shutil.copy(seq / "labels" / f"{k:06d}.label", seq / "predictions")
        with pytest.raises(CountMismatch, match="predictions/000002.label"):
            evaluate_directories(tmp_path / "pred", small_dataset.root, ("00",), class_map, tmp_path / "rep")

    @staticmethod
    def _evaluate_cli(pred_root, dataset_root, out):
        return main([
            "evaluate", "--pred-root", str(pred_root), "--dataset-root", str(dataset_root),
            "--sequences", "00", "--out", str(out),
        ])

    def test_missing_prediction_file_fails_the_cli_naming_it(self, small_dataset, tmp_path, capsys):
        pred = tmp_path / "pred" / "00" / "predictions"
        shutil.copytree(small_dataset.root / "00" / "labels", pred)
        (pred / "000003.label").unlink()
        assert self._evaluate_cli(tmp_path / "pred", small_dataset.root, tmp_path / "rep") == 1
        assert f"error: missing prediction file {pred / '000003.label'}" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["missing", "short"])
    def test_bad_ground_truth_file_fails_the_cli_naming_it(self, small_dataset, tmp_path, capsys, damage):
        data = tmp_path / "data"
        shutil.copytree(small_dataset.root / "00", data / "00")
        gt = data / "00" / "labels" / "000001.label"
        if damage == "missing":
            gt.unlink()
        else:
            gt.write_bytes(gt.read_bytes()[:-4])
        assert self._evaluate_cli(small_dataset.root, data, tmp_path / "rep") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(gt) in err
        if damage == "short":
            assert "(3000 records)" in err

    def test_tube_breakdown_lists_every_gt_tube(self, reference_dataset, class_map, tmp_path):
        config = _oracle_config(reference_dataset, tmp_path / "out", offset_sigma=0.3, flip_prob=0.1, noise_seed=7)
        segment_sequence(config, "00")
        reports, _ = evaluate_directories(
            config.out_dir, reference_dataset.root, ("00",), class_map, tmp_path / "rep"
        )
        report = reports["00"]
        lines = (tmp_path / "rep" / "report_00.tubes").read_text().splitlines()
        assert lines[0] == "# gt_tube points term"
        rows = [line.split() for line in lines[1:]]
        assert [int(gid) for gid, _, _ in rows] == list(report.tube_terms) == list(range(1, 7))
        for gid, points, term in rows:
            assert int(points) == report.counts.gt_tube_sizes[int(gid)]
            assert term == f"{report.tube_terms[int(gid)]:.6f}"
        assert sum(float(term) for _, _, term in rows) / len(rows) == pytest.approx(report.s_assoc, abs=1e-6)
        assert not (tmp_path / "rep" / "report_overall.tubes").exists()

    @staticmethod
    def _one_scan_sequence(dataset_root, pred_root, sequence, pred_car_id):
        # Two car points of GT instance 1 and two road points; the prediction
        # is right up to the car's instance id.
        seq = dataset_root / sequence
        (seq / "velodyne").mkdir(parents=True)
        (seq / "labels").mkdir()
        points = np.array([[1.0, 0, 0], [1.1, 0, 0], [5.0, 0, 0], [5.1, 0, 0]])
        sk_formats.write_scan(
            seq / "velodyne" / "000000.bin", sk_formats.PointCloudScan(points, np.zeros(4))
        )
        sk_formats.write_predictions(seq / "labels" / "000000.label", [(10, 1), (10, 1), (40, 0), (40, 0)])
        pred_dir = pred_root / sequence / "predictions"
        pred_dir.mkdir(parents=True)
        sk_formats.write_predictions(
            pred_dir / "000000.label", [(10, pred_car_id), (10, pred_car_id), (40, 0), (40, 0)]
        )

    def test_tubes_with_colliding_ids_stay_apart_across_sequences(self, class_map, tmp_path):
        # GT car id 1 in both sequences, predicted as id 1 in 00 and id 2 in
        # 01: each sequence is perfect, so the pool is too. Tubes keyed by
        # bare id would merge into one GT tube matched half by each
        # prediction (S_assoc 0.5, LSTQ 0.707).
        data, pred = tmp_path / "data", tmp_path / "pred"
        self._one_scan_sequence(data, pred, "00", pred_car_id=1)
        self._one_scan_sequence(data, pred, "01", pred_car_id=2)
        reports, overall = evaluate_directories(pred, data, ("00", "01"), class_map, tmp_path / "rep")
        assert reports["00"].lstq == reports["01"].lstq == 1.0
        assert overall.s_assoc == 1.0
        assert overall.lstq == 1.0
        assert overall.counts.n_gt_tubes == 2
        assert "lstq: 100.00" in (tmp_path / "rep" / "report_overall.kv").read_text()

    def test_each_scan_is_counted_once(self, small_dataset, class_map, tmp_path, monkeypatch):
        data = tmp_path / "data"
        shutil.copytree(small_dataset.root / "00", data / "00")
        shutil.copytree(small_dataset.root / "00", data / "01")
        calls = []
        add_scan = pipeline_cli.SequenceEvaluator.add_scan

        def spy(self, *args):
            calls.append(self)
            return add_scan(self, *args)

        monkeypatch.setattr(pipeline_cli.SequenceEvaluator, "add_scan", spy)
        reports, overall = evaluate_directories(data, data, ("00", "01"), class_map, tmp_path / "rep")
        assert len(calls) == 2 * len(small_dataset.scans)
        assert len(set(map(id, calls))) == 2  # one evaluator per sequence
        assert overall.lstq == 1.0
        assert overall.counts.n_gt_tubes == 2 * reports["00"].counts.n_gt_tubes > 0

    def test_single_sequence_overall_report_is_the_sequence_report(
        self, small_dataset, class_map, tmp_path
    ):
        config = _oracle_config(
            small_dataset, tmp_path / "out", offset_sigma=0.3, flip_prob=0.1, noise_seed=7
        )
        segment_sequence(config, "00")
        reports, overall = evaluate_directories(
            config.out_dir, small_dataset.root, ("00",), class_map, tmp_path / "rep"
        )
        assert overall.lstq < 1.0  # noisy input: a non-trivial report
        assert (overall.s_cls, overall.s_assoc, overall.lstq) == (
            reports["00"].s_cls, reports["00"].s_assoc, reports["00"].lstq
        )
        rep = tmp_path / "rep"
        for suffix in ("kv", "txt"):
            assert (rep / f"report_overall.{suffix}").read_bytes() == (rep / f"report_00.{suffix}").read_bytes()

    def test_fixture_scores_reproduce_published_values(self, tmp_path):
        rows = reemit_fixture_scores(bundled_path("reference_scores.txt"), tmp_path / "fx.kv")
        by_name = {name: (computed, expected) for name, _, _, computed, expected in rows}
        for name in ("baseline_n2", "one_hot_n2", "one_hot_n4"):
            computed, expected = by_name[name]
            assert expected is not None
            assert abs(computed - expected) <= 0.005
        assert (tmp_path / "fx.kv").exists()


class TestAblate:
    def test_label_noise_strictly_degrades_classification(self, small_dataset, tmp_path):
        config = _oracle_config(small_dataset, tmp_path / "ablate")
        table = run_ablation(config, [0.0, 0.1, 0.3])
        rows = [line.split() for line in table.splitlines()[2:] if line.strip()]
        assert [float(row[0]) for row in rows] == [0.0, 0.1, 0.3]
        s_cls_column = [float(row[3]) for row in rows]
        assert s_cls_column[0] > s_cls_column[1] > s_cls_column[2]

    def test_bad_grid_value_exits_2_naming_the_flag(self, small_dataset, tmp_path, capsys):
        argv = ["ablate", "--scene-config", str(small_dataset.scene_path), "--dataset-root",
                str(small_dataset.root), "--out", str(tmp_path / "ablate"), "--flip-grid", "0.1,x"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --flip-grid: ") and "'x'" in err

    def test_empty_grid_emits_header_only(self, small_dataset, tmp_path):
        config = _oracle_config(small_dataset, tmp_path / "ablate3")
        table = run_ablation(config, [])
        lines = [line for line in table.splitlines() if line.strip()]
        assert len(lines) == 2  # header + rule
        assert "LSTQ" in lines[0]


class TestInspect:
    def test_truncated_or_non_finite_offset_file_exits_1_naming_it(self, tmp_path, capsys):
        path = tmp_path / "000000.offset"
        path.write_bytes(np.zeros((7, 3), dtype="<f4").tobytes() + b"\x00" * 5)
        assert main(["inspect", str(path)]) == 1
        assert f"{path}: 89 bytes, expected 84" in capsys.readouterr().err
        offsets = np.zeros((7, 3))
        offsets[4, 0] = np.inf
        sk_formats.write_offsets(path, offsets)
        assert main(["inspect", str(path)]) == 1
        assert f"{path}: non-finite offset at point 4" in capsys.readouterr().err

    def test_scan_summary(self, small_dataset):
        out = inspect_path(small_dataset.root / "00" / "velodyne" / "000000.bin")
        assert "points" in out

    def test_label_summary(self, small_dataset):
        out = inspect_path(small_dataset.root / "00" / "labels" / "000000.label")
        assert "instances" in out

    def test_poses_and_calib_and_scene(self, small_dataset):
        assert "poses" in inspect_path(small_dataset.root / "00" / "poses.txt")
        assert "Tr rotation" in inspect_path(small_dataset.root / "00" / "calib.txt")
        assert "scans" in inspect_path(small_dataset.scene_path)

    def test_unsupported_kind(self, tmp_path):
        path = tmp_path / "mystery.xyz"
        path.write_text("?")
        with pytest.raises(ConfigError):
            inspect_path(path)

    def test_confidence_file_rows_and_partial_row(self, tmp_path, capsys):
        path = tmp_path / "000000.conf"
        sk_formats.write_confidences(path, np.full((7, 19), 0.5))
        assert inspect_path(path) == f"{path}: 7 confidence rows of 19 classes"
        path.write_bytes(b"\x00" * 5)
        assert main(["inspect", str(path)]) == 1
        assert f"{path}: 5 bytes, expected 0" in capsys.readouterr().err


class TestMainEntry:
    def test_synth_then_self_evaluate_round_trip(self, tmp_path, capsys):
        scene = bundled_path("reference_scene.cfg")
        data_dir = tmp_path / "data"
        # Use a light scene for CLI-level smoke: shrink via a derived config.
        from panseg4d.synthlab import SceneConfig

        config = SceneConfig.load(scene)
        config.n_scans, config.points_per_scan, config.n_objects = 3, 1500, 2
        small = tmp_path / "small.cfg"
        config.save(small)
        assert main(["synth", "--scene-config", str(small), "--out", str(data_dir)]) == 0
        assert main(
            [
                "evaluate",
                "--pred-root", str(data_dir),
                "--dataset-root", str(data_dir),
                "--sequences", "00",
                "--out", str(tmp_path / "rep"),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "LSTQ            100.00" in out

    def test_emitted_offsets_drive_the_files_lane(self, tmp_path, capsys):
        from panseg4d.synthlab import SceneConfig

        config = SceneConfig.load(bundled_path("reference_scene.cfg"))
        config.n_scans, config.points_per_scan, config.n_objects = 3, 1500, 2
        small = tmp_path / "small.cfg"
        config.save(small)
        data = tmp_path / "data"
        assert main(["synth", "--scene-config", str(small), "--out", str(data),
                     "--emit-offsets"]) == 0
        code = main(
            [
                "segment",
                "--dataset-root", str(data),
                "--out", str(tmp_path / "run"),
                "--source", "files",
                "--semantic-dir", str(data / "{seq}" / "labels"),
                "--offset-dir", str(data / "{seq}" / "oracle_offsets"),
                "--offset-frame", "sensor",
            ]
        )
        assert code == 0
        line = capsys.readouterr().out
        assert "points/sec end to end" in line and "core" not in line
        assert main(
            [
                "evaluate",
                "--pred-root", str(tmp_path / "run"),
                "--dataset-root", str(data),
                "--sequences", "00",
                "--out", str(tmp_path / "run"),
            ]
        ) == 0
        assert "LSTQ            100.00" in capsys.readouterr().out

    def test_synth_is_byte_stable_across_runs(self, tmp_path):
        from panseg4d.synthlab import SceneConfig

        config = SceneConfig.load(bundled_path("reference_scene.cfg"))
        config.n_scans, config.points_per_scan, config.n_objects = 2, 800, 1
        small = tmp_path / "small.cfg"
        config.save(small)
        main(["synth", "--scene-config", str(small), "--out", str(tmp_path / "a")])
        main(["synth", "--scene-config", str(small), "--out", str(tmp_path / "b")])
        for rel in ("velodyne/000000.bin", "labels/000000.label", "poses.txt", "calib.txt"):
            assert (tmp_path / "a" / "00" / rel).read_bytes() == (
                tmp_path / "b" / "00" / rel
            ).read_bytes()

    def test_invalid_config_exits_2_before_io(self, tmp_path):
        code = main(
            [
                "segment",
                "--dataset-root", str(tmp_path / "missing"),
                "--out", str(tmp_path / "out"),
                "--window-n", "2",
                "--stride", "3",
                "--scene-config", str(tmp_path / "none.cfg"),
            ]
        )
        assert code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["segment", "evaluate"])
    def test_empty_sequence_list_exits_2(self, small_dataset, tmp_path, capsys, command):
        source = ["--scene-config", str(small_dataset.scene_path)] if command == "segment" else [
            "--pred-root", str(small_dataset.root)]
        for sequences in (",", ""):
            argv = [command, "--dataset-root", str(small_dataset.root), "--out", str(tmp_path / "out"),
                    "--sequences", sequences, *source]
            assert main(argv) == 2
            assert "sequences" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_window_offset_frame_flag_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["segment", "--out", str(tmp_path / "out"), "--offset-frame", "window"])
        assert exit_info.value.code == 2
        assert "--offset-frame" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["segment", "evaluate"])
    def test_repeated_sequence_exits_2(self, small_dataset, tmp_path, capsys, command):
        source = ["--scene-config", str(small_dataset.scene_path)] if command == "segment" else [
            "--pred-root", str(small_dataset.root)]
        argv = [command, "--dataset-root", str(small_dataset.root), "--out", str(tmp_path / "out"),
                "--sequences", "00,00", *source]
        assert main(argv) == 2
        assert "sequence 00 is listed more than once" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_corrupted_prediction_file_exits_nonzero(self, small_dataset, tmp_path, capsys):
        pred_root = tmp_path / "pred"
        (pred_root / "00" / "predictions").mkdir(parents=True)
        for k, scan in enumerate(small_dataset.scans):
            (pred_root / "00" / "predictions" / f"{k:06d}.label").write_bytes(b"\x00\x00")
        code = main(
            [
                "evaluate",
                "--pred-root", str(pred_root),
                "--dataset-root", str(small_dataset.root),
                "--sequences", "00",
                "--out", str(tmp_path / "rep"),
            ]
        )
        assert code == 1

    def test_fixture_mode(self, tmp_path, capsys):
        code = main(
            [
                "evaluate",
                "--fixture", str(bundled_path("reference_scores.txt")),
                "--out", str(tmp_path / "rep"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline_n2" in out and "58.01" in out

    def test_fixture_with_a_bad_number_exits_2_naming_file_and_line(self, tmp_path, capsys):
        fixture = tmp_path / "scores.txt"
        fixture.write_text("# name s_assoc s_cls\na 60 50\nb x 60\n")
        assert main(["evaluate", "--fixture", str(fixture), "--out", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {fixture}:3: could not convert string to float: 'x'" in err

    @pytest.mark.parametrize(
        "command, key, text, message",
        [
            ("synth", "enforce_separability", "ture", "expected one of 1/0/true/false/yes/no, got 'ture'"),
            ("synth", "ego_waypoints", "0,0 ; 8,0 ; 1,1", "expected 3 coordinates per waypoint, got 2"),
            ("segment", "dataset_root", "", "empty value"),
            ("segment", "semantic_dir", "", "empty value"),
        ],
    )
    def test_malformed_config_value_exits_2_naming_file_and_line(
        self, tmp_path, capsys, command, key, text, message
    ):
        path = tmp_path / "bad.cfg"
        path.write_text(f"# {key} set wrong on the line below\n{key}: {text}\n")
        flag = "--scene-config" if command == "synth" else "--config"
        assert main([command, flag, str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {path}:2: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_inspect_entry(self, small_dataset, capsys):
        code = main(["inspect", str(small_dataset.root / "00" / "calib.txt")])
        assert code == 0
        assert "Tr rotation" in capsys.readouterr().out

    def test_inspect_offset_and_report_files(self, small_dataset, tmp_path, capsys):
        off = tmp_path / "000000.offset"
        sk_formats.write_offsets(off, np.zeros((7, 3)))
        kv = tmp_path / "report_00.kv"
        kv.write_text("lstq: 99.00\n")
        assert main(["inspect", str(off), str(kv)]) == 0
        out = capsys.readouterr().out
        assert "7 offset rows" in out
        assert "lstq: 99.00" in out

    def test_ablate_entry_with_empty_grid(self, small_dataset, tmp_path, capsys):
        code = main(
            [
                "ablate",
                "--dataset-root", str(small_dataset.root),
                "--out", str(tmp_path / "ab"),
                "--source", "oracle",
                "--scene-config", str(small_dataset.scene_path),
                "--flip-grid", "",
            ]
        )
        assert code == 0
        assert (tmp_path / "ab" / "ablation.txt").exists()
        assert "LSTQ" in capsys.readouterr().out
