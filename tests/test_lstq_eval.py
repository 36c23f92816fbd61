"""Metric arithmetic, the association score, and its exact-rational oracle."""

import struct
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from panseg4d.errors import IdOutOfRange, IdOverflow, LengthMismatch, UnknownRawIdWarning
from panseg4d.lstq_eval import (
    AssociationAccumulator,
    SequenceEvaluator,
    lstq,
    pool_reports,
    s_assoc,
)
from panseg4d.pipeline_cli import evaluate_directories
from panseg4d.semantic_prior import IGNORE


def assoc_rational_oracle(scans, thing_mask=None):
    """Exact-rational evaluation of the association formula.

    ``scans``: list of (pred_inst, gt_inst, gt_sem) triples. Tubes, sizes,
    and intersections are whole-sequence counts over non-ignored points.
    """
    gt_sizes: dict[int, int] = {}
    pred_sizes: dict[int, int] = {}
    inter: dict[tuple[int, int], int] = {}
    for pred_inst, gt_inst, gt_sem in scans:
        for p, g, s in zip(pred_inst, gt_inst, gt_sem):
            if s == IGNORE:
                continue
            is_tube = g > 0 and (thing_mask is None or (0 <= s < len(thing_mask) and thing_mask[s]))
            if is_tube:
                gt_sizes[g] = gt_sizes.get(g, 0) + 1
            if p > 0:
                pred_sizes[p] = pred_sizes.get(p, 0) + 1
            if is_tube and p > 0:
                inter[(g, p)] = inter.get((g, p), 0) + 1
    if not gt_sizes:
        return Fraction(1)
    total = Fraction(0)
    for g, g_size in gt_sizes.items():
        tube_sum = Fraction(0)
        for (gg, p), shared in inter.items():
            if gg != g:
                continue
            iou = Fraction(shared, g_size + pred_sizes[p] - shared)
            tube_sum += shared * iou
        total += tube_sum / g_size
    return total / len(gt_sizes)


def one_scan(pred_sem, pred_inst, gt_sem, gt_inst):
    return (
        [(np.asarray(pred_sem), np.asarray(pred_inst))],
        [(np.asarray(gt_sem), np.asarray(gt_inst))],
    )


def words(train_sem, inst, class_map):
    """Packed ``.label`` words of train ids (IGNORE as raw id 0) and instance ids."""
    sem = np.asarray(train_sem, dtype=np.int64)
    raw = np.where(sem == IGNORE, 0, class_map.train_to_raw[np.clip(sem, 0, None)])
    return (np.asarray(inst, dtype=np.uint32) << 16) | raw.astype(np.uint32)


def evaluate(pred, gt, class_map):
    """``SequenceEvaluator``'s report over aligned (semantic, instance) train-id scans."""
    evaluator = SequenceEvaluator(class_map)
    for (pred_sem, pred_inst), (gt_sem, gt_inst) in zip(pred, gt, strict=True):
        evaluator.add_scan(words(pred_sem, pred_inst, class_map), words(gt_sem, gt_inst, class_map))
    return evaluator.report()


def s_cls(pred, gt, class_map):
    report = evaluate(pred, gt, class_map)
    return report.s_cls, report.per_class_iou, report.iou_th, report.iou_st


class TestSCls:
    def test_perfect_prediction(self, class_map):
        sem = np.array([0, 0, 8, 8, 14])
        pred, gt = one_scan(sem, np.zeros(5), sem, np.zeros(5))
        value, iou, iou_th, iou_st = s_cls(pred, gt, class_map)
        assert value == 1.0
        assert iou[0] == 1.0 and iou[8] == 1.0 and iou[14] == 1.0
        assert iou_th == 1.0 and iou_st == 1.0

    def test_fully_disjoint_prediction(self, class_map):
        gt_sem = np.array([0, 0, 0, 0])
        pred_sem = np.array([5, 5, 5, 5])
        pred, gt = one_scan(pred_sem, np.zeros(4), gt_sem, np.zeros(4))
        value, _, _, _ = s_cls(pred, gt, class_map)
        assert value == 0.0

    def test_two_class_toy_confusion_oracle(self, class_map):
        # Class 0: TP=2 FP=1 FN=1 -> IoU 0.5; class 1: 4 points perfect.
        gt_sem = np.array([0, 0, 0, 1, 1, 1, 1, 1])
        pred_sem = np.array([0, 0, 1, 0, 1, 1, 1, 1])
        # gt_sem[3] = 1 predicted 0 -> FP for 0, FN for... recompute:
        # class0: TP = positions 0,1 -> 2; FN = position 2 (gt 0 pred 1) -> 1;
        # FP = position 3 (pred 0 gt 1) -> 1 -> IoU = 2/4 = 0.5
        # class1: TP = 4 (positions 4..7), FP = 1 (position 2), FN = 1
        # (position 3) -> IoU = 4/6.  Adjust to match the stated toy: make
        # class.1 perfect by giving it its own clean points.
        gt_sem = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        pred_sem = np.array([0, 0, 2, 0, 1, 1, 1, 1])
        gt_sem[3] = 2  # class-2 point predicted as 0: FP for class 0
        pred, gt = one_scan(pred_sem, np.zeros(8), gt_sem, np.zeros(8))
        value, iou, iou_th, iou_st = s_cls(pred, gt, class_map)
        assert iou[0] == pytest.approx(0.5)  # TP=2 FP=1 FN=1
        assert iou[1] == pytest.approx(1.0)
        # classes present: 0 (gt+pred), 1 (gt+pred), 2 (gt and pred)
        assert value == pytest.approx((0.5 + 1.0 + 0.0) / 3)

    def test_absent_classes_excluded_from_mean(self, class_map):
        sem = np.array([3, 3])
        pred, gt = one_scan(sem, np.zeros(2), sem, np.zeros(2))
        value, iou, iou_th, iou_st = s_cls(pred, gt, class_map)
        assert value == 1.0  # only class 3 enters the mean
        assert iou_st == 0.0  # no stuff class present

    def test_ignore_points_excluded(self, class_map):
        gt_sem = np.array([0, IGNORE, IGNORE])
        pred_sem = np.array([0, 5, 7])  # predictions on ignored points are free
        pred, gt = one_scan(pred_sem, np.zeros(3), gt_sem, np.zeros(3))
        value, _, _, _ = s_cls(pred, gt, class_map)
        assert value == 1.0

    def test_instance_ids_do_not_matter(self, class_map):
        sem = np.array([0, 0, 8])
        pred_a, gt = one_scan(sem, np.array([1, 1, 0]), sem, np.array([2, 2, 0]))
        pred_b, _ = one_scan(sem, np.array([9, 3, 0]), sem, np.array([2, 2, 0]))
        value_a, iou_a, th_a, st_a = s_cls(pred_a, gt, class_map)
        value_b, iou_b, th_b, st_b = s_cls(pred_b, gt, class_map)
        assert (value_a, th_a, st_a) == (value_b, th_b, st_b)
        assert np.array_equal(iou_a, iou_b)

    def test_length_mismatch(self, class_map):
        with pytest.raises(LengthMismatch):
            SequenceEvaluator(class_map).add_scan(np.zeros(3, np.uint32), np.zeros(2, np.uint32))


class TestSAssoc:
    def test_perfect_ids(self):
        sem = np.zeros(6, dtype=int)
        ids = np.array([1, 1, 2, 2, 0, 0])
        pred, gt = one_scan(sem, ids, sem, ids)
        assert s_assoc(pred, gt) == 1.0

    def test_split_instance_scores_half(self):
        # One GT instance of 2n points split into two predictions of n each.
        n = 5
        gt_ids = np.ones(2 * n, dtype=int)
        pred_ids = np.concatenate([np.full(n, 1), np.full(n, 2)])
        sem = np.zeros(2 * n, dtype=int)
        pred, gt = one_scan(sem, pred_ids, sem, gt_ids)
        assert s_assoc(pred, gt) == pytest.approx(0.5)

    def test_merged_instances_score_half(self):
        # Two equal GT instances predicted as one id.
        m = 7
        gt_ids = np.concatenate([np.full(m, 1), np.full(m, 2)])
        pred_ids = np.ones(2 * m, dtype=int)
        sem = np.zeros(2 * m, dtype=int)
        pred, gt = one_scan(sem, pred_ids, sem, gt_ids)
        assert s_assoc(pred, gt) == pytest.approx(0.5)

    def test_no_gt_instances_is_vacuous_one(self):
        sem = np.full(4, 8)
        pred, gt = one_scan(sem, np.array([1, 1, 0, 0]), sem, np.zeros(4))
        acc = AssociationAccumulator()
        acc.add_scan(pred[0][1], gt[0][1], gt[0][0])
        value, vacuous = acc.score()
        assert value == 1.0 and vacuous

    def test_rejects_ids_the_label_format_cannot_hold(self, class_map):
        # Tubes are keyed by two 16-bit ids, as in a .label word; a wider id
        # or a train id outside the class map is refused, not folded.
        acc = AssociationAccumulator(class_map.thing_mask)
        with pytest.raises(IdOverflow, match="70000"):
            acc.add_scan([70000], [1], [0])
        with pytest.raises(IdOutOfRange, match="gt train id 19"):
            acc.add_scan([1], [1], [19])
        assert acc.counts.n_gt_tubes == 0

    def test_invariant_under_pred_id_bijection(self):
        rng = np.random.default_rng(0)
        sem = np.zeros(60, dtype=int)
        gt_ids = rng.integers(0, 4, 60)
        pred_ids = rng.integers(0, 5, 60)
        relabel = np.array([0, 17, 3, 99, 42])
        pred_a, gt = one_scan(sem, pred_ids, sem, gt_ids)
        pred_b, _ = one_scan(sem, relabel[pred_ids], sem, gt_ids)
        assert s_assoc(pred_a, gt) == pytest.approx(s_assoc(pred_b, gt), abs=1e-15)

    def test_independent_of_predicted_semantics(self):
        rng = np.random.default_rng(1)
        gt_sem = np.zeros(40, dtype=int)
        gt_ids = rng.integers(0, 3, 40)
        pred_ids = rng.integers(0, 3, 40)
        pred_a, gt = one_scan(np.zeros(40), pred_ids, gt_sem, gt_ids)
        pred_b, _ = one_scan(rng.integers(0, 19, 40), pred_ids, gt_sem, gt_ids)
        assert s_assoc(pred_a, gt) == s_assoc(pred_b, gt)

    def test_random_small_cases_match_rational_oracle(self, class_map):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n_scans = int(rng.integers(1, 4))
            scans = []
            pred_seq, gt_seq = [], []
            for _ in range(n_scans):
                n = int(rng.integers(1, 18))  # <= 50 points per sequence
                pred_inst = rng.integers(0, 5, n)
                gt_inst = rng.integers(0, 5, n)
                gt_sem = rng.integers(-1, 19, n)  # includes IGNORE
                scans.append((pred_inst, gt_inst, gt_sem))
                pred_seq.append((np.zeros(n, dtype=int), pred_inst))
                gt_seq.append((gt_sem, gt_inst))
            got = s_assoc(pred_seq, gt_seq, thing_mask=class_map.thing_mask)
            want = assoc_rational_oracle(scans, thing_mask=class_map.thing_mask)
            assert abs(got - float(want)) <= 1e-12


class TestLstq:
    def test_published_score_pairs(self):
        # Published (s_assoc, s_cls, combined) rows, percent scale.
        rows = [
            (65.50, 51.38, 58.01),
            (73.00, 66.17, 69.50),
            (74.87, 66.36, 70.49),
        ]
        for assoc_pct, cls_pct, combined_pct in rows:
            value = lstq(cls_pct / 100.0, assoc_pct / 100.0)
            assert abs(value - combined_pct / 100.0) < 5e-4

    def test_unit_and_zero(self):
        assert lstq(1.0, 1.0) == 1.0
        assert lstq(0.0, 1.0) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            lstq(1.2, 0.5)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0, 1), st.floats(0, 1))
    def test_symmetry(self, a, b):
        assert lstq(a, b) == lstq(b, a)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0, 1))
    def test_identity_on_diagonal(self, a):
        assert lstq(a, a) == pytest.approx(a, abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_monotone_in_each_argument(self, a, b, c):
        lo, hi = sorted((b, c))
        assert lstq(a, lo) <= lstq(a, hi)


class TestEvaluateSequence:
    def test_perfect_sequence_scores_one(self, class_map):
        rng = np.random.default_rng(3)
        pred, gt = [], []
        for _ in range(3):
            sem = rng.integers(0, 19, 30)
            ids = np.where(class_map.thing_mask[sem], rng.integers(1, 4, 30), 0)
            pred.append((sem, ids))
            gt.append((sem, ids))
        report = evaluate(pred, gt, class_map)
        assert report.lstq == 1.0
        assert report.s_cls == 1.0 and report.s_assoc == 1.0

    def test_lstq_is_geometric_mean_exactly(self, class_map):
        rng = np.random.default_rng(4)
        pred, gt = [], []
        for _ in range(2):
            gt_sem = rng.integers(0, 19, 50)
            pred_sem = np.where(rng.random(50) < 0.7, gt_sem, rng.integers(0, 19, 50))
            gt_ids = np.where(class_map.thing_mask[gt_sem], rng.integers(1, 4, 50), 0)
            pred_ids = rng.integers(0, 4, 50)
            pred.append((pred_sem, pred_ids))
            gt.append((gt_sem, gt_ids))
        report = evaluate(pred, gt, class_map)
        assert abs(report.lstq - np.sqrt(report.s_cls * report.s_assoc)) < 1e-12
        assert 0.0 <= report.s_cls <= 1.0
        assert 0.0 <= report.s_assoc <= 1.0

    def test_report_keyvalue_format(self, class_map):
        sem = np.array([0, 8])
        pred, gt = one_scan(sem, np.array([1, 0]), sem, np.array([1, 0]))
        report = evaluate(pred, gt, class_map)
        text = report.as_keyvalues(class_map.names)
        assert "lstq: 100.00" in text
        assert "s_assoc: 100.00" in text
        assert "iou.car: 100.00" in text
        assert "iou.road: 100.00" in text

    def test_streaming_matches_batch(self, class_map):
        # Counts are associative: four scans added one at a time count the
        # same as their points added as one scan.
        rng = np.random.default_rng(5)
        scans = []
        for _ in range(4):
            gt_sem = rng.integers(0, 19, 25)
            scans.append(
                (
                    rng.integers(0, 19, 25),
                    rng.integers(0, 3, 25),
                    gt_sem,
                    np.where(class_map.thing_mask[gt_sem], rng.integers(0, 3, 25), 0),
                )
            )
        streaming = evaluate([(s[0], s[1]) for s in scans], [(s[2], s[3]) for s in scans], class_map)
        batch = evaluate(
            [(np.concatenate([s[0] for s in scans]), np.concatenate([s[1] for s in scans]))],
            [(np.concatenate([s[2] for s in scans]), np.concatenate([s[3] for s in scans]))],
            class_map,
        )
        assert streaming.lstq == pytest.approx(batch.lstq, abs=1e-15)
        assert np.array_equal(streaming.counts.confusion, batch.counts.confusion)
        for name in ("gt_tube_sizes", "pred_tube_sizes", "intersections"):
            assert getattr(streaming.counts, name) == getattr(batch.counts, name)


class TestPoolReports:
    @staticmethod
    def _random_sequence(rng, class_map, n_scans=3, n=40):
        pred, gt = [], []
        for _ in range(n_scans):
            gt_sem = rng.integers(0, 19, n)
            gt_sem[rng.random(n) < 0.1] = IGNORE
            thing = class_map.thing_mask[np.clip(gt_sem, 0, 18)] & (gt_sem != IGNORE)
            pred.append((np.where(rng.random(n) < 0.7, gt_sem, rng.integers(0, 19, n)), rng.integers(0, 4, n)))
            gt.append((gt_sem, np.where(thing, rng.integers(1, 4, n), 0)))
        return pred, gt

    def test_pool_keeps_tubes_per_sequence_and_sums_confusion(self, class_map):
        rng = np.random.default_rng(11)
        sequences = {name: self._random_sequence(rng, class_map) for name in ("00", "01", "02")}
        reports = {name: evaluate(pred, gt, class_map) for name, (pred, gt) in sequences.items()}
        pooled = pool_reports(reports, class_map)
        # Oracle: the sequences' ids shifted apart, so equal ids never meet.
        scans = [
            (np.where(p_inst > 0, p_inst + 100 * k, 0), np.where(g_inst > 0, g_inst + 100 * k, 0), g_sem)
            for k, (pred, gt) in enumerate(sequences.values())
            for (_, p_inst), (g_sem, g_inst) in zip(pred, gt)
        ]
        assert pooled.s_assoc == pytest.approx(float(assoc_rational_oracle(scans, class_map.thing_mask)), abs=1e-12)
        assert pooled.counts.n_gt_tubes == sum(r.counts.n_gt_tubes for r in reports.values())
        assert np.array_equal(pooled.counts.confusion, sum(r.counts.confusion for r in reports.values()))
        everything = evaluate(
            [scan for pred, _ in sequences.values() for scan in pred],
            [scan for _, gt in sequences.values() for scan in gt],
            class_map,
        )
        assert pooled.s_cls == everything.s_cls

    def test_no_sequences_is_vacuous(self, class_map):
        pooled = pool_reports({}, class_map)
        assert pooled.assoc_vacuous and pooled.s_assoc == 1.0
        assert not pooled.class_present.any()


# Raw ids the generated label files draw from: unlabelled (0) and another
# id the map folds to IGNORE (52), thing ids (10 car, 30 person, 252 moving
# car), stuff ids (40 road, 70 vegetation), and ids the map does not list.
RAW_IDS = (0, 52, 10, 30, 252, 40, 70, 2, 1000, 65535)
INSTANCE_IDS = (0, 1, 2, 65535)


def label_points(n):
    record = st.tuples(
        st.sampled_from(RAW_IDS), st.sampled_from(INSTANCE_IDS),
        st.sampled_from(RAW_IDS), st.sampled_from(INSTANCE_IDS),
    )
    return st.lists(record, min_size=n, max_size=n)


# Per sequence, per scan: (gt raw, gt instance, pred raw, pred instance) per point.
dataset_strategy = st.lists(
    st.lists(st.integers(1, 12).flatmap(label_points), min_size=1, max_size=3),
    min_size=2, max_size=2,
)


def write_label_file(path, pairs):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(struct.pack(f"<{len(pairs)}I", *((inst << 16) | raw for raw, inst in pairs)))


def brute_force_counts(gt_path, pred_path, class_map, totals):
    """Add one scan's two label files to ``totals`` point by point; returns
    each file's count of raw ids absent from the class map."""
    n_classes = class_map.n_classes
    gt_words = struct.unpack(f"<{gt_path.stat().st_size // 4}I", gt_path.read_bytes())
    pred_words = struct.unpack(f"<{pred_path.stat().st_size // 4}I", pred_path.read_bytes())
    gt_unknown = pred_unknown = 0
    scan_gt, scan_pred, scan_shared = {}, {}, {}
    for gt_word, pred_word in zip(gt_words, pred_words, strict=True):
        gt_raw, gt_inst = gt_word & 0xFFFF, gt_word >> 16
        pred_raw, pred_inst = pred_word & 0xFFFF, pred_word >> 16
        gt_unknown += not class_map.known_raw[gt_raw]
        pred_unknown += not class_map.known_raw[pred_raw]
        gt_class = int(class_map.raw_to_train[gt_raw]) if class_map.known_raw[gt_raw] else IGNORE
        pred_class = int(class_map.raw_to_train[pred_raw]) if class_map.known_raw[pred_raw] else IGNORE
        if gt_class == IGNORE:
            continue
        totals["confusion"][gt_class][pred_class if pred_class != IGNORE else n_classes] += 1
        in_tube = gt_inst > 0 and class_map.thing_mask[gt_class]
        if in_tube:
            scan_gt[gt_inst] = scan_gt.get(gt_inst, 0) + 1
        if pred_inst > 0:
            scan_pred[pred_inst] = scan_pred.get(pred_inst, 0) + 1
        if in_tube and pred_inst > 0:
            scan_shared[gt_inst, pred_inst] = scan_shared.get((gt_inst, pred_inst), 0) + 1
    # Within a scan keys enter in ascending order; across scans, first seen first.
    for name, scan in (("gt", scan_gt), ("pred", scan_pred), ("shared", scan_shared)):
        for key in sorted(scan):
            totals[name][key] = totals[name].get(key, 0) + scan[key]
    return gt_unknown, pred_unknown


def brute_force_terms(totals):
    per_tube = {gid: 0.0 for gid in totals["gt"]}
    for (gid, pid), shared in totals["shared"].items():
        per_tube[gid] += shared * (shared / (totals["gt"][gid] + totals["pred"][pid] - shared))
    return {gid: per_tube[gid] / size for gid, size in totals["gt"].items()}


class TestCountingCore:
    """evaluate's counts from written label files against a per-point loop."""

    @settings(max_examples=60, deadline=None)
    @given(dataset_strategy)
    @example([
        # Sequence 00: a car tube (id 1) split over two predicted ids, a
        # road point and an unlabelled point carrying instance ids, and an
        # unlisted raw id in each file.
        [[(10, 1, 10, 1), (10, 1, 10, 3), (40, 1, 40, 3), (0, 2, 10, 65535), (1000, 0, 2, 0)],
         [(252, 65535, 10, 1), (30, 1, 70, 65535)]],
        # Sequence 01: the same ids again; they must not merge with 00's.
        [[(10, 1, 10, 1), (52, 0, 30, 2), (65535, 1, 40, 1)]],
    ])
    def test_counts_match_a_per_point_loop_over_the_label_files(self, class_map, dataset):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for k, scans in enumerate(dataset):
                seq = root / "data" / f"{k:02d}"
                for index, points in enumerate(scans):
                    name = f"{index:06d}"
                    (seq / "velodyne").mkdir(parents=True, exist_ok=True)
                    (seq / "velodyne" / f"{name}.bin").write_bytes(bytes(16 * len(points)))
                    write_label_file(seq / "labels" / f"{name}.label", [(g, gi) for g, gi, _, _ in points])
                    write_label_file(
                        root / "pred" / seq.name / "predictions" / f"{name}.label",
                        [(p, pi) for _, _, p, pi in points],
                    )
            sequences = tuple(f"{k:02d}" for k in range(len(dataset)))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                reports, overall = evaluate_directories(
                    root / "pred", root / "data", sequences, class_map, root / "rep"
                )
            warned = {}
            for warning in caught:
                assert issubclass(warning.category, UnknownRawIdWarning)
                path, count = str(warning.message).split(": ")[:2]
                warned[path] = int(count.split()[0])

            expected_warnings = {}
            pooled_terms = []
            confusion = np.zeros((class_map.n_classes, class_map.n_classes + 1), dtype=np.int64)
            for sequence, scans in zip(sequences, dataset):
                totals = {"confusion": np.zeros_like(confusion), "gt": {}, "pred": {}, "shared": {}}
                for index in range(len(scans)):
                    gt_path = root / "data" / sequence / "labels" / f"{index:06d}.label"
                    pred_path = root / "pred" / sequence / "predictions" / f"{index:06d}.label"
                    unknown = brute_force_counts(gt_path, pred_path, class_map, totals)
                    for path, count in zip((gt_path, pred_path), unknown):
                        if count:
                            expected_warnings[str(path)] = count
                counts = reports[sequence].counts
                assert np.array_equal(counts.confusion, totals["confusion"])
                assert list(counts.gt_tube_sizes.items()) == list(totals["gt"].items())
                assert list(counts.pred_tube_sizes.items()) == list(totals["pred"].items())
                assert list(counts.intersections.items()) == list(totals["shared"].items())
                terms = brute_force_terms(totals)
                assert list(reports[sequence].tube_terms.items()) == list(terms.items())
                pooled_terms += [((sequence, gid), term) for gid, term in terms.items()]
                confusion += totals["confusion"]
            assert warned == expected_warnings
            assert list(overall.tube_terms.items()) == pooled_terms
            assert np.array_equal(overall.counts.confusion, confusion)
