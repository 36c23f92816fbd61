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

Every count goes through one core, :meth:`EvalCounts.count_scan`:

* Each point has a ground-truth and a predicted histogram row: its train
  id, row C for ids folded to IGNORE, row C+1 for raw ids absent from the
  class map. :class:`SequenceEvaluator` takes a scan's packed ``.label``
  words and finds the rows through one 65,536-entry table
  (:func:`class_rows`). One ``bincount`` of gt_row * (C+2) + pred_row gives
  the confusion counts, and its row and column C+1 give each file's count
  of unknown raw ids.
* The scored points that lie in a GT thing tube or carry a predicted id are
  sorted once by (GT tube id or 0, predicted id). Its runs are the
  intersections; summed per half, they give the GT and predicted tube
  sizes. New keys enter the dicts in ascending order within a scan and
  first-seen order across scans, so per-tube terms sum in a fixed order.

:class:`AssociationAccumulator` and :func:`s_assoc` take train ids and map
them onto the same rows.

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
from typing import Mapping, Sequence

import numpy as np

from .errors import IdOutOfRange, IdOverflow, LengthMismatch
from .semantic_prior import IGNORE, ClassMap
from .sk_formats import MAX_ID


@dataclass
class EvalCounts:
    """Raw confusion and tube totals kept for audit, and the one place they are counted.

    ``confusion[g, p]`` counts points with ground-truth class g and
    predicted class p; column C collects predictions that are IGNORE or out
    of range. Tube sizes and intersections are whole-sequence point counts,
    keyed by instance id, or by (sequence, instance id) in a pooled report.
    """

    confusion: np.ndarray  # (C, C+1) int64
    gt_tube_sizes: dict = field(default_factory=dict)
    pred_tube_sizes: dict = field(default_factory=dict)
    intersections: dict = field(default_factory=dict)  # (gt tube, pred tube) -> points

    @classmethod
    def empty(cls, n_classes: int) -> "EvalCounts":
        return cls(np.zeros((n_classes, n_classes + 1), dtype=np.int64))

    @property
    def n_gt_tubes(self) -> int:
        return len(self.gt_tube_sizes)

    def count_scan(self, tube_rows, gt_row, pred_row, gt_inst, pred_inst) -> np.ndarray:
        """Add one scan; returns its (K, K) histogram of (gt row, pred row).

        Rows 0..C-1 are train ids, row C holds ids the map folds to IGNORE
        and row C+1 raw ids absent from the map (K = C + 2 =
        ``len(tube_rows)``); ground-truth rows C and C+1 are not scored.
        ``tube_rows[r]`` says whether a nonzero ground-truth instance id on
        row r marks a tube point. Instance ids are unsigned 16-bit (0 = no
        instance). The confusion matrix is the histogram's scored rows; the
        tube sizes and intersections come from one sort of the scan's
        scored points that are in a GT tube or a predicted instance, keyed
        by (GT tube id or 0, predicted id). New keys enter the dicts in
        ascending order within the scan.
        """
        k = len(tube_rows)
        c = k - 2
        hist = np.bincount(gt_row * k + pred_row, minlength=k * k).reshape(k, k)
        self.confusion[:, :c] += hist[:c, :c]
        self.confusion[:, c] += hist[:c, c:].sum(axis=1)

        tube = np.take(tube_rows, gt_row) & (gt_inst > 0)
        keep = tube | ((pred_inst > 0) & (gt_row < c))
        keys = np.where(tube[keep], gt_inst[keep] << 16, 0) | pred_inst[keep]
        keys.sort()
        pairs, shared = _run_totals(keys)
        gids, pids = pairs >> 16, pairs & 0xFFFF
        in_tube, claimed = gids > 0, pids > 0
        tube_ids, tube_sizes = _run_totals(gids[in_tube], shared[in_tube])
        _add_counts(self.gt_tube_sizes, tube_ids.tolist(), tube_sizes)
        order = np.argsort(pids[claimed], kind="stable")
        pred_ids, pred_sizes = _run_totals(pids[claimed][order], shared[claimed][order])
        _add_counts(self.pred_tube_sizes, pred_ids.tolist(), pred_sizes)
        both = in_tube & claimed
        pair_keys = list(zip(gids[both].tolist(), pids[both].tolist()))
        _add_counts(self.intersections, pair_keys, shared[both])
        return hist

    def tube_terms(self) -> dict:
        """Each GT tube's term (1/|t|) sum_s |s and t| IoU(s, t), in first-seen order."""
        per_tube_sum = {gid: 0.0 for gid in self.gt_tube_sizes}
        for (gid, pid), shared in self.intersections.items():
            union = self.gt_tube_sizes[gid] + self.pred_tube_sizes[pid] - shared
            per_tube_sum[gid] += shared * (shared / union)
        return {gid: per_tube_sum[gid] / size for gid, size in self.gt_tube_sizes.items()}


def _run_totals(values: np.ndarray, weights: np.ndarray | None = None):
    """Each distinct value of sorted ``values`` and the summed ``weights`` of
    its run (the run's length without weights)."""
    if not len(values):
        return values, np.zeros(0, dtype=np.int64)
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    if weights is None:
        totals = np.diff(starts, append=len(values))
    else:
        totals = np.add.reduceat(weights, starts)
    return values[starts], totals


def _add_counts(into: dict, keys: list, counts: np.ndarray) -> None:
    for key, count in zip(keys, counts.tolist()):
        into[key] = into.get(key, 0) + count


def class_rows(class_map: ClassMap) -> np.ndarray:
    """Histogram row of every 16-bit raw semantic id: its train id, C where
    the map folds it to IGNORE, C + 1 where the map does not list it."""
    c = class_map.n_classes
    rows = np.where(class_map.raw_to_train == IGNORE, c, class_map.raw_to_train)
    return np.where(class_map.known_raw, rows, c + 1).astype(np.int16)


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

    def as_tube_lines(self) -> str:
        """One line per GT tube in ``tube_terms`` order: id, points, term."""
        lines = ["# gt_tube points term"]
        for gid, term in self.tube_terms.items():
            lines.append(f"{gid} {self.counts.gt_tube_sizes[gid]} {term:.6f}")
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
    """Streaming class-agnostic tube counts for the association score, from
    train ids; counted by :meth:`EvalCounts.count_scan`.

    ``thing_mask`` restricts ground-truth tubes to thing classes; with None
    every nonzero ground-truth id forms a tube (the dataset convention is
    that only thing points carry ids).
    """

    def __init__(self, thing_mask: np.ndarray | None = None):
        mask = np.ones(1, dtype=bool) if thing_mask is None else np.asarray(thing_mask, dtype=bool)
        self.every_class_is_thing = thing_mask is None
        self.tube_rows = np.concatenate([mask, [False, False]])
        self.counts = EvalCounts.empty(len(mask))

    def add_scan(self, pred_inst, gt_inst, gt_sem) -> None:
        pred_inst, gt_inst, gt_sem = _flat(pred_inst), _flat(gt_inst), _flat(gt_sem)
        if not (len(pred_inst) == len(gt_inst) == len(gt_sem)):
            raise LengthMismatch(
                f"{len(pred_inst)} pred vs {len(gt_inst)} gt instances vs {len(gt_sem)} gt labels"
            )
        if self.every_class_is_thing:
            gt_sem = np.where(gt_sem == IGNORE, IGNORE, 0)
        gt_row = _gt_rows(gt_sem, len(self.tube_rows) - 2)
        self.counts.count_scan(
            self.tube_rows, gt_row, np.zeros_like(gt_row),
            _instance_ids(gt_inst), _instance_ids(pred_inst),
        )

    def score(self) -> tuple[float, bool]:
        """(association score, vacuous flag); 1.0 when there are no GT tubes."""
        return _assoc_score(self.counts.tube_terms())


def _flat(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64).reshape(-1)


def _gt_rows(train_ids: np.ndarray, n_classes: int) -> np.ndarray:
    """Histogram rows of ground-truth train ids: IGNORE goes to row C, and
    any other id outside [0, C) raises ``IdOutOfRange``."""
    ignored = train_ids == IGNORE
    bad = ~ignored & ((train_ids < 0) | (train_ids >= n_classes))
    if bad.any():
        i = int(np.argmax(bad))
        raise IdOutOfRange(f"gt train id {int(train_ids[i])} at point {i} outside [0, {n_classes})")
    return np.where(ignored, n_classes, train_ids).astype(np.intp)


def _instance_ids(ids: np.ndarray) -> np.ndarray:
    """Instance ids as the label format's unsigned 16 bits; ids <= 0 mean none."""
    if ids.size and ids.max() > MAX_ID:
        raise IdOverflow(f"instance id {int(ids.max())} exceeds 16 bits")
    return np.maximum(ids, 0).astype(np.uint32)


def _assoc_score(tube_terms: dict) -> tuple[float, bool]:
    """Mean of the per-tube terms, summed in key order; (1.0, True) for none."""
    if not tube_terms:
        return 1.0, True
    return sum(tube_terms.values()) / len(tube_terms), False


def class_scores(
    confusion: np.ndarray, thing_mask: np.ndarray
) -> tuple[float, np.ndarray, float, float, np.ndarray]:
    """(s_cls, per-class IoU, IoU over things, IoU over stuff, present mask).

    A class enters a mean iff it appears in the ground truth or the
    prediction (TP + FP + FN > 0); absent classes have undefined IoU and
    are excluded rather than scored 0 or 1.
    """
    n_classes = len(confusion)
    tp = np.diag(confusion[:, :n_classes]).astype(np.float64)
    fp = confusion[:, :n_classes].sum(axis=0) - tp
    fn = confusion.sum(axis=1) - tp
    denom = tp + fp + fn
    present = denom > 0
    iou = np.zeros(n_classes, dtype=np.float64)
    iou[present] = tp[present] / denom[present]

    def mean_over(mask: np.ndarray) -> float:
        chosen = present & mask
        return float(iou[chosen].mean()) if chosen.any() else 0.0

    all_classes = np.ones(n_classes, dtype=bool)
    return (
        mean_over(all_classes),
        iou,
        mean_over(np.asarray(thing_mask, dtype=bool)),
        mean_over(~np.asarray(thing_mask, dtype=bool)),
        present,
    )


class SequenceEvaluator:
    """Streaming evaluator of one sequence from packed ``.label`` words.

    Each word's low 16 bits are mapped to a histogram row through one table
    (:func:`class_rows`), its high 16 bits are the instance id, and the scan
    is counted once by :meth:`EvalCounts.count_scan`.
    """

    def __init__(self, class_map: ClassMap):
        self.class_map = class_map
        self.rows = class_rows(class_map)
        self.tube_rows = np.concatenate([class_map.thing_mask, [False, False]])
        self.counts = EvalCounts.empty(class_map.n_classes)

    def add_scan(self, pred_words, gt_words) -> tuple[int, int]:
        """Count one scan of uint32 label words; returns how many (prediction,
        ground-truth) labels carry a raw id absent from the class map."""
        if len(pred_words) != len(gt_words):
            raise LengthMismatch(f"{len(pred_words)} pred vs {len(gt_words)} gt labels")
        hist = self.counts.count_scan(
            self.tube_rows,
            np.take(self.rows, gt_words & 0xFFFF),
            np.take(self.rows, pred_words & 0xFFFF),
            gt_words >> 16,
            pred_words >> 16,
        )
        unknown = self.class_map.n_classes + 1
        return int(hist[:, unknown].sum()), int(hist[unknown].sum())

    def report(self) -> LSTQReport:
        return _build_report(self.counts, self.counts.tube_terms(), self.class_map)


def pool_reports(reports: Mapping[str, LSTQReport], class_map: ClassMap) -> LSTQReport:
    """One report over several sequences, pooled from their counts.

    The confusion matrices add up, and S_assoc is the sum of every
    sequence's per-tube terms over the total number of GT tubes. Instance
    ids are only unique within a sequence, so pooled tubes are keyed by
    (sequence, id) and never merge across sequences. For one sequence the
    scores are that sequence's own, bit for bit: the same sums in the same
    order.
    """
    terms: dict[tuple[str, int], float] = {}
    counts = EvalCounts.empty(class_map.n_classes)
    for sequence, report in reports.items():
        counts.confusion += report.counts.confusion
        terms.update(((sequence, gid), term) for gid, term in report.tube_terms.items())
        for key, size in report.counts.gt_tube_sizes.items():
            counts.gt_tube_sizes[sequence, key] = size
        for key, size in report.counts.pred_tube_sizes.items():
            counts.pred_tube_sizes[sequence, key] = size
        for (gid, pid), shared in report.counts.intersections.items():
            counts.intersections[(sequence, gid), (sequence, pid)] = shared
    return _build_report(counts, terms, class_map)


def _build_report(counts: EvalCounts, tube_terms: dict, class_map: ClassMap) -> LSTQReport:
    s_cls_value, per_class, iou_th, iou_st, present = class_scores(
        counts.confusion, class_map.thing_mask
    )
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


def s_assoc(pred, gt, thing_mask: np.ndarray | None = None) -> float:
    """Association score of aligned label sequences (class-agnostic).

    ``pred`` and ``gt`` are sequences of (semantic, instance) per-scan
    array pairs with train ids (IGNORE allowed in gt).
    """
    acc = AssociationAccumulator(thing_mask)
    for (_, pred_inst), (gt_sem, gt_inst) in zip(pred, gt, strict=True):
        acc.add_scan(pred_inst, gt_inst, gt_sem)
    value, _ = acc.score()
    return value
