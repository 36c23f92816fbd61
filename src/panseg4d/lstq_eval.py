"""Sequence-level segmentation and tracking quality scoring.

The combined score is the geometric mean of a classification score (mean
IoU over semantic classes across the whole sequence) and an association
score (class-agnostic agreement between predicted and ground-truth instance
tubes over the whole sequence):

    score = sqrt(s_cls * s_assoc)

    s_assoc = (1 / |T|) * sum_{t in T} (1 / |t|) *
              sum_{s : |s and t| > 0} |s and t| * IoU(s, t)

where T is the set of ground-truth thing tubes (one tube = all points of an
instance id across the sequence), s ranges over predicted tubes, and sizes,
intersections, and IoU are counted class-agnostically over every non-ignored
point of the sequence.

Counting streams scan by scan into 64-bit integer accumulators; divisions
happen only at report time, so accumulation is exact and scans may be
counted in any association-friendly order (per-scan counts are associative
and commutative).

A report over several sequences (``pool_reports``) is pooled from the
sequences' own reports, so each scan is counted once, into its sequence's
evaluator. The confusion matrices add up, and S_assoc is the sum of every
sequence's per-tube terms over the total number of GT tubes. Instance ids
are only unique within a sequence, so pooled tubes are keyed by
(sequence, id) and never merge across sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import LengthMismatch
from .semantic_prior import IGNORE, ClassMap


@dataclass
class EvalCounts:
    """Raw confusion and tube totals kept for audit.

    ``confusion[g, p]`` counts points with ground-truth class g and
    predicted class p; column C collects predictions that are IGNORE or out
    of range. Tube sizes and intersections are whole-sequence point counts,
    keyed by instance id, or by (sequence, instance id) in a pooled report.
    """

    confusion: np.ndarray  # (C, C+1) int64
    gt_tube_sizes: dict = field(default_factory=dict)
    pred_tube_sizes: dict = field(default_factory=dict)
    intersections: dict = field(default_factory=dict)  # (gt tube, pred tube) -> points

    @property
    def n_gt_tubes(self) -> int:
        return len(self.gt_tube_sizes)


@dataclass(frozen=True)
class LSTQReport:
    """Scores for one sequence, or for several pooled by ``pool_reports``."""

    s_cls: float
    s_assoc: float
    lstq: float
    per_class_iou: np.ndarray  # (C,) in [0, 1]; 0.0 for absent classes
    iou_th: float
    iou_st: float
    counts: EvalCounts
    class_present: np.ndarray  # (C,) bool, class seen in GT or prediction
    assoc_vacuous: bool = False  # no GT tubes: s_assoc defined as 1.0
    # Each GT tube's association term, keyed like counts.gt_tube_sizes.
    tube_terms: dict = field(default_factory=dict)

    def as_keyvalues(self, names: Sequence[str]) -> str:
        """Machine-readable report; percentages with 2 decimals."""
        lines = [
            f"lstq: {100.0 * self.lstq:.2f}",
            f"s_assoc: {100.0 * self.s_assoc:.2f}",
            f"s_cls: {100.0 * self.s_cls:.2f}",
            f"iou_th: {100.0 * self.iou_th:.2f}",
            f"iou_st: {100.0 * self.iou_st:.2f}",
        ]
        for index, name in enumerate(names):
            lines.append(f"iou.{name}: {100.0 * self.per_class_iou[index]:.2f}")
        return "\n".join(lines) + "\n"

    def as_table(self, names: Sequence[str], thing_mask: np.ndarray) -> str:
        rows = [
            "metric            value",
            "-----------------------",
            f"LSTQ        {100.0 * self.lstq:10.2f}",
            f"S_assoc     {100.0 * self.s_assoc:10.2f}",
            f"S_cls       {100.0 * self.s_cls:10.2f}",
            f"IoU_things  {100.0 * self.iou_th:10.2f}",
            f"IoU_stuff   {100.0 * self.iou_st:10.2f}",
            "",
            "class IoU (absent classes shown as --)",
        ]
        for index, name in enumerate(names):
            kind = "thing" if thing_mask[index] else "stuff"
            if self.class_present[index]:
                rows.append(f"  {name:<14s} {kind:<6s} {100.0 * self.per_class_iou[index]:6.2f}")
            else:
                rows.append(f"  {name:<14s} {kind:<6s}     --")
        return "\n".join(rows) + "\n"


def lstq(s_cls_value: float, s_assoc_value: float) -> float:
    """Geometric mean of the classification and association scores."""
    if not (0.0 <= s_cls_value <= 1.0 and 0.0 <= s_assoc_value <= 1.0):
        raise ValueError(f"scores must lie in [0, 1], got ({s_cls_value}, {s_assoc_value})")
    return math.sqrt(s_cls_value * s_assoc_value)


class AssociationAccumulator:
    """Streaming class-agnostic tube counts for the association score.

    ``thing_mask`` restricts ground-truth tubes to thing classes; with None
    every nonzero ground-truth id forms a tube (the dataset convention is
    that only thing points carry ids).
    """

    def __init__(self, thing_mask: np.ndarray | None = None):
        self.thing_mask = None if thing_mask is None else np.asarray(thing_mask, dtype=bool)
        self.gt_tube_sizes: dict[int, int] = {}
        self.pred_tube_sizes: dict[int, int] = {}
        self.intersections: dict[tuple[int, int], int] = {}

    def add_scan(self, pred_inst, gt_inst, gt_sem) -> None:
        pred_inst = np.asarray(pred_inst, dtype=np.int64).reshape(-1)
        gt_inst = np.asarray(gt_inst, dtype=np.int64).reshape(-1)
        gt_sem = np.asarray(gt_sem, dtype=np.int64).reshape(-1)
        if not (len(pred_inst) == len(gt_inst) == len(gt_sem)):
            raise LengthMismatch(
                f"{len(pred_inst)} pred vs {len(gt_inst)} gt instances vs {len(gt_sem)} gt labels"
            )
        valid = gt_sem != IGNORE
        pred_inst, gt_inst, gt_sem = pred_inst[valid], gt_inst[valid], gt_sem[valid]

        gt_tube = gt_inst > 0
        if self.thing_mask is not None:
            in_range = (gt_sem >= 0) & (gt_sem < len(self.thing_mask))
            gt_tube &= in_range & self.thing_mask[np.clip(gt_sem, 0, len(self.thing_mask) - 1)]

        for gid, count in zip(*np.unique(gt_inst[gt_tube], return_counts=True)):
            self.gt_tube_sizes[int(gid)] = self.gt_tube_sizes.get(int(gid), 0) + int(count)
        pred_tube = pred_inst > 0
        for pid, count in zip(*np.unique(pred_inst[pred_tube], return_counts=True)):
            self.pred_tube_sizes[int(pid)] = self.pred_tube_sizes.get(int(pid), 0) + int(count)
        both = gt_tube & pred_tube
        if both.any():
            keys = gt_inst[both] << np.int64(32) | pred_inst[both]
            for key, count in zip(*np.unique(keys, return_counts=True)):
                pair = (int(key >> 32), int(key & 0xFFFFFFFF))
                self.intersections[pair] = self.intersections.get(pair, 0) + int(count)

    def tube_terms(self) -> dict[int, float]:
        """Each GT tube's term (1/|t|) sum_s |s and t| IoU(s, t), in first-seen order."""
        per_tube_sum = {gid: 0.0 for gid in self.gt_tube_sizes}
        for (gid, pid), shared in self.intersections.items():
            union = self.gt_tube_sizes[gid] + self.pred_tube_sizes[pid] - shared
            per_tube_sum[gid] += shared * (shared / union)
        return {gid: per_tube_sum[gid] / size for gid, size in self.gt_tube_sizes.items()}

    def score(self) -> tuple[float, bool]:
        """(association score, vacuous flag); 1.0 when there are no GT tubes."""
        return _assoc_score(self.tube_terms())


def _assoc_score(tube_terms: dict) -> tuple[float, bool]:
    """Mean of the per-tube terms, summed in key order; (1.0, True) for none."""
    if not tube_terms:
        return 1.0, True
    return sum(tube_terms.values()) / len(tube_terms), False


class IoUAccumulator:
    """Streaming confusion counts for per-class IoU over a sequence."""

    def __init__(self, n_classes: int):
        self.n_classes = n_classes
        self.confusion = np.zeros((n_classes, n_classes + 1), dtype=np.int64)

    def add_scan(self, pred_sem, gt_sem) -> None:
        pred_sem = np.asarray(pred_sem, dtype=np.int64).reshape(-1)
        gt_sem = np.asarray(gt_sem, dtype=np.int64).reshape(-1)
        if len(pred_sem) != len(gt_sem):
            raise LengthMismatch(f"{len(pred_sem)} pred vs {len(gt_sem)} gt labels")
        valid = gt_sem != IGNORE
        gt = gt_sem[valid]
        pred = pred_sem[valid]
        pred_col = np.where((pred >= 0) & (pred < self.n_classes), pred, self.n_classes)
        flat = gt * (self.n_classes + 1) + pred_col
        counts = np.bincount(flat, minlength=self.n_classes * (self.n_classes + 1))
        self.confusion += counts.reshape(self.n_classes, self.n_classes + 1)

    def results(self, thing_mask: np.ndarray) -> tuple[float, np.ndarray, float, float, np.ndarray]:
        """(s_cls, per-class IoU, IoU over things, IoU over stuff, present mask).

        A class enters a mean iff it appears in the ground truth or the
        prediction (TP + FP + FN > 0); absent classes have undefined IoU and
        are excluded rather than scored 0 or 1.
        """
        tp = np.diag(self.confusion[:, : self.n_classes]).astype(np.float64)
        fp = self.confusion[:, : self.n_classes].sum(axis=0) - tp
        fn = self.confusion.sum(axis=1) - tp
        denom = tp + fp + fn
        present = denom > 0
        iou = np.zeros(self.n_classes, dtype=np.float64)
        iou[present] = tp[present] / denom[present]

        def mean_over(mask: np.ndarray) -> float:
            chosen = present & mask
            return float(iou[chosen].mean()) if chosen.any() else 0.0

        all_classes = np.ones(self.n_classes, dtype=bool)
        return (
            mean_over(all_classes),
            iou,
            mean_over(np.asarray(thing_mask, dtype=bool)),
            mean_over(~np.asarray(thing_mask, dtype=bool)),
            present,
        )


class SequenceEvaluator:
    """Joint streaming evaluator producing a full report."""

    def __init__(self, class_map: ClassMap):
        self.class_map = class_map
        self.iou = IoUAccumulator(class_map.n_classes)
        self.assoc = AssociationAccumulator(class_map.thing_mask)

    def add_scan(self, pred_sem, pred_inst, gt_sem, gt_inst) -> None:
        self.iou.add_scan(pred_sem, gt_sem)
        self.assoc.add_scan(pred_inst, gt_inst, gt_sem)

    def report(self) -> LSTQReport:
        counts = EvalCounts(
            confusion=self.iou.confusion,
            gt_tube_sizes=self.assoc.gt_tube_sizes,
            pred_tube_sizes=self.assoc.pred_tube_sizes,
            intersections=self.assoc.intersections,
        )
        return _build_report(self.iou, self.assoc.tube_terms(), counts, self.class_map)


def pool_reports(reports: Mapping[str, LSTQReport], class_map: ClassMap) -> LSTQReport:
    """One report over several sequences, pooled from their counts.

    The confusion matrices add up, and S_assoc is the sum of every
    sequence's per-tube terms over the total number of GT tubes. Instance
    ids are only unique within a sequence, so pooled tubes are keyed by
    (sequence, id) and never merge across sequences. For one sequence the
    scores are that sequence's own, bit for bit: the same sums in the same
    order.
    """
    iou = IoUAccumulator(class_map.n_classes)
    terms: dict[tuple[str, int], float] = {}
    counts = EvalCounts(confusion=iou.confusion)
    for sequence, report in reports.items():
        iou.confusion += report.counts.confusion
        terms.update(((sequence, gid), term) for gid, term in report.tube_terms.items())
        for key, size in report.counts.gt_tube_sizes.items():
            counts.gt_tube_sizes[sequence, key] = size
        for key, size in report.counts.pred_tube_sizes.items():
            counts.pred_tube_sizes[sequence, key] = size
        for (gid, pid), shared in report.counts.intersections.items():
            counts.intersections[(sequence, gid), (sequence, pid)] = shared
    return _build_report(iou, terms, counts, class_map)


def _build_report(
    iou: IoUAccumulator, tube_terms: dict, counts: EvalCounts, class_map: ClassMap
) -> LSTQReport:
    s_cls_value, per_class, iou_th, iou_st, present = iou.results(class_map.thing_mask)
    s_assoc_value, vacuous = _assoc_score(tube_terms)
    return LSTQReport(
        s_cls=s_cls_value,
        s_assoc=s_assoc_value,
        lstq=lstq(s_cls_value, s_assoc_value),
        per_class_iou=per_class,
        iou_th=iou_th,
        iou_st=iou_st,
        counts=counts,
        class_present=present,
        assoc_vacuous=vacuous,
        tube_terms=tube_terms,
    )


def _scan_pairs(labels) -> Iterable[tuple[np.ndarray, np.ndarray]]:
    for sem, inst in labels:
        yield np.asarray(sem), np.asarray(inst)


def s_cls(pred, gt, class_map: ClassMap) -> tuple[float, np.ndarray, float, float]:
    """Classification score of aligned label sequences.

    ``pred`` and ``gt`` are sequences of (semantic, instance) per-scan
    array pairs with train ids (IGNORE allowed in gt).
    """
    acc = IoUAccumulator(class_map.n_classes)
    for (pred_sem, _), (gt_sem, _) in zip(_scan_pairs(pred), _scan_pairs(gt), strict=True):
        acc.add_scan(pred_sem, gt_sem)
    value, iou, iou_th, iou_st, _ = acc.results(class_map.thing_mask)
    return value, iou, iou_th, iou_st


def s_assoc(pred, gt, thing_mask: np.ndarray | None = None) -> float:
    """Association score of aligned label sequences (class-agnostic)."""
    acc = AssociationAccumulator(thing_mask)
    for (_, pred_inst), (gt_sem, gt_inst) in zip(_scan_pairs(pred), _scan_pairs(gt), strict=True):
        acc.add_scan(pred_inst, gt_inst, gt_sem)
    value, _ = acc.score()
    return value


def evaluate_sequence(pred, gt, class_map: ClassMap) -> LSTQReport:
    """Full report for aligned prediction / ground-truth label sequences."""
    evaluator = SequenceEvaluator(class_map)
    for (pred_sem, pred_inst), (gt_sem, gt_inst) in zip(_scan_pairs(pred), _scan_pairs(gt), strict=True):
        evaluator.add_scan(pred_sem, pred_inst, gt_sem, gt_inst)
    return evaluator.report()
