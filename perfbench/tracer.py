"""Spans recorded from outside the pipeline, around the calls it makes into each module.

:func:`install` replaces the public functions ``pipeline_cli`` calls (and the
provider / evaluator methods it calls through objects) with wrappers that
record a span per call: name, start, end, parent span and thread, plus a few
counts computed from the call's arguments and result. :meth:`Tracer.restore`
puts every original back. Spans stay in memory; :func:`span_records` turns
them into rows with self time for writing out, and :func:`layer_metrics`
sums them into the per-layer metrics of ``BENCHMARK.json``.

A span opened in a thread with no open span of its own (a thread-pool
worker) takes as parent the innermost span open in the installing thread,
so window stages run by the pool nest under the ``segment`` span.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

# Spans that make up the per-window work of ``segment``.
WINDOW_STAGES = (
    "scan_aggregator.aggregate",
    "semantic_prior.window_offsets",
    "proposal_engine.shift_to_centers",
    "proposal_engine.farthest_point_sample",
    "proposal_engine.radius_group",
    "proposal_engine.refine_proposal",
    "proposal_engine.dbscan",
    "proposal_engine.merge_and_assign",
)
SEGMENT = "pipeline_cli.segment_sequence"
EVALUATE = "pipeline_cli.evaluate_directories"
SETUP = "synthlab.setup"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Owns the recorded spans and the originals of every wrapped callable."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack = self._stack()
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _tally(self) -> dict:
        if not hasattr(self._local, "tally"):
            self._local.tally = defaultdict(int)
        return self._local.tally

    def take(self, key: str) -> int:
        """Calls counted under ``key`` in this thread since the last take."""
        return self._tally().pop(key, 0)

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording one span per call; ``attrs(result, *args)`` adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._home_stack[-1] if self._home_stack else None)
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            extra = attrs(result, *args, **kwargs) if attrs else {}
            self.spans.append(Span(span_id, name, start, end, parent, threading.get_ident(), extra))
            return result

        return traced

    def counter(self, key: str, fn):
        """``fn`` counting its calls per thread, read back with :meth:`take`."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._tally()[key] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner, attr: str, replacement) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


def _nbytes(*arrays) -> int:
    return int(sum(a.nbytes for a in arrays))


def install(tracer: Tracer) -> Tracer:
    """Wrap every module boundary ``pipeline_cli`` crosses; returns ``tracer``."""
    from panseg4d import lstq_eval, pipeline_cli, proposal_engine, sk_formats, synthlab
    from panseg4d.semantic_prior import FileProvider

    def fn(owner, attr, name, attrs=None):
        tracer.patch(owner, attr, tracer.wrap(name, owner.__dict__[attr], attrs))

    # pipeline_cli's own stages and the functions it imported by name.
    fn(pipeline_cli, "segment_sequence", SEGMENT)
    fn(pipeline_cli, "evaluate_directories", EVALUATE)
    fn(pipeline_cli, "load_sequence", "pipeline_cli.load_sequence",
       lambda r, *a: {"scans": len(r[0]), "points": sum(len(s) for s in r[0])})
    fn(pipeline_cli, "build_provider", "pipeline_cli.build_provider")
    fn(pipeline_cli, "generate", "synthlab.generate",
       lambda r, *a: {"points": sum(len(s) for s in r[0])})
    fn(pipeline_cli, "write_dataset", "synthlab.write_dataset")
    fn(pipeline_cli, "aggregate", "scan_aggregator.aggregate",
       lambda r, *a: {"points": len(r),
                      "bytes": _nbytes(r.positions, r.feature, r.prior, r.time_index, r.origin)})
    fn(pipeline_cli, "shift_to_centers", "proposal_engine.shift_to_centers")
    fn(pipeline_cli, "farthest_point_sample", "proposal_engine.farthest_point_sample",
       lambda r, points, count: {"dist_evals": len(r) * len(points)})
    fn(pipeline_cli, "radius_group", "proposal_engine.radius_group",
       lambda r, seeds, cands, radius: {"proposals": len(r), "points": len(cands),
                                        "members": sum(len(g) for g in r)})
    fn(pipeline_cli, "refine_proposal", "proposal_engine.refine_proposal")
    fn(pipeline_cli, "dbscan", "proposal_engine.dbscan",
       lambda r, *a: {"clusters": int(r.max()) + 1 if len(r) else 0,
                      "noise": int((r == proposal_engine.NOISE).sum())})
    # merge_and_assign votes a majority label once per instance that kept
    # points after claim resolution and demotes the stuff-majority ones; it
    # numbers the kept instances 1..M, so the max id is their count.
    tracer.patch(proposal_engine, "majority_label",
                 tracer.counter("majority_label", proposal_engine.majority_label))
    fn(pipeline_cli, "merge_and_assign", "proposal_engine.merge_and_assign",
       lambda r, *a: {"kept": int(r.instance.max()) if len(r) else 0,
                      "voted": tracer.take("majority_label"),
                      "uncovered": r.uncovered_thing_points})
    fn(pipeline_cli, "stitch", "window_tracker.stitch",
       lambda r, state, prev, new, overlap: {
           "local_ids": int(new.segmentation.instance.max()) if len(new.segmentation) else 0,
           "next_global_id": r[0].next_global_id,
           "overlap_points": len(overlap)})

    fn(sk_formats, "read_scan", "sk_formats.read_scan", lambda r, *a: {"bytes": 16 * len(r)})
    fn(sk_formats, "read_labels", "sk_formats.read_labels", lambda r, *a: {"bytes": 4 * len(r)})
    fn(sk_formats, "read_offsets", "sk_formats.read_offsets", lambda r, *a: {"bytes": 12 * len(r)})
    fn(sk_formats, "read_poses", "sk_formats.read_poses")
    fn(sk_formats, "read_calib", "sk_formats.read_calib")
    fn(sk_formats, "write_predictions", "sk_formats.write_predictions",
       lambda r, path, labels: {"bytes": 4 * len(labels)})

    for provider in (synthlab.OracleProvider, FileProvider):
        fn(provider, "semantic_prior", "semantic_prior.semantic_prior",
           lambda r, *a: {"bytes": int(r.matrix.nbytes)})
        fn(provider, "window_offsets", "semantic_prior.window_offsets")

    fn(lstq_eval.SequenceEvaluator, "add_scan", "lstq_eval.add_scan")
    fn(lstq_eval.SequenceEvaluator, "report", "lstq_eval.report")
    return tracer


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - _covered(children[span.id], span.start, span.end)
        for span in spans
    }


def _roots(spans: list[Span]) -> dict[int, str]:
    """Span id -> name of its outermost ancestor (segment, evaluate, set-up)."""
    by_id = {span.id: span for span in spans}
    root: dict[int, str] = {}
    for span in spans:
        chain, cursor = [], span
        while cursor.id not in root and cursor.parent is not None:
            chain.append(cursor.id)
            cursor = by_id[cursor.parent]
        name = root.get(cursor.id, cursor.name)
        for span_id in chain + [cursor.id]:
            root[span_id] = name
    return root


def span_records(spans: list[Span]) -> list[dict]:
    """Spans as JSON-ready rows, times in seconds from the first span's start."""
    if not spans:
        return []
    origin = min(span.start for span in spans)
    own = self_times(spans)
    return [
        {"id": s.id, "name": s.name, "parent": s.parent, "thread": s.thread,
         "start": s.start - origin, "end": s.end - origin, "self": own[s.id], **s.attrs}
        for s in sorted(spans, key=lambda s: s.start)
    ]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer busy times and counts of one traced ``segment`` + ``evaluate``."""
    root = _roots(spans)
    busy: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    named = defaultdict(list)
    for span in spans:
        named[span.name].append(span)
        side = {SEGMENT: "segment", EVALUATE: "evaluate"}.get(root[span.id], "other")
        busy[f"{side}:{span.name}"] += span.duration
        for key, value in span.attrs.items():
            count[f"{side}:{span.name}:{key}"] += value

    (segment,) = named[SEGMENT]
    (evaluate,) = named[EVALUATE]
    segment_self = self_times([segment] + [s for s in spans if s.parent == segment.id])[segment.id]
    stage_spans = [s for name in WINDOW_STAGES for s in named[name]]
    window_wall = max(s.end for s in stage_spans) - min(s.start for s in stage_spans)
    stitches = sorted(named["window_tracker.stitch"], key=lambda s: s.start)
    fresh, matched, previous_next = 0, 0, 1
    for span in stitches:
        new_ids = span.attrs["next_global_id"] - previous_next
        previous_next = span.attrs["next_global_id"]
        fresh += new_ids
        matched += span.attrs["local_ids"] - new_ids
    n_scans = count["segment:pipeline_cli.load_sequence:scans"]
    window_points = count["segment:proposal_engine.radius_group:points"]
    proposals = count["segment:proposal_engine.radius_group:proposals"]
    kept = count["segment:proposal_engine.merge_and_assign:kept"]

    def s(name, side="segment"):
        return busy[f"{side}:{name}"]

    def c(name, key, side="segment"):
        return count[f"{side}:{name}:{key}"]

    return {
        "pipeline_cli.segment_s": segment.duration,
        "pipeline_cli.evaluate_s": evaluate.duration,
        "pipeline_cli.load_sequence_s": s("pipeline_cli.load_sequence"),
        "pipeline_cli.build_provider_s": s("pipeline_cli.build_provider"),
        "pipeline_cli.windows": len(named["proposal_engine.merge_and_assign"]),
        "pipeline_cli.self_s": segment_self,
        "pipeline_cli.window_parallelism": sum(sp.duration for sp in stage_spans) / window_wall,
        "sk_formats.segment.read_s": sum(
            s(name) for name in ("sk_formats.read_scan", "sk_formats.read_labels",
                                 "sk_formats.read_offsets", "sk_formats.read_poses",
                                 "sk_formats.read_calib")),
        "sk_formats.segment.read_scan_s": s("sk_formats.read_scan"),
        "sk_formats.segment.read_scan_bytes": c("sk_formats.read_scan", "bytes"),
        "sk_formats.segment.read_labels_bytes": c("sk_formats.read_labels", "bytes"),
        "sk_formats.segment.read_offsets_bytes": c("sk_formats.read_offsets", "bytes"),
        "sk_formats.segment.write_predictions_s": s("sk_formats.write_predictions"),
        "sk_formats.segment.write_predictions_bytes": c("sk_formats.write_predictions", "bytes"),
        "sk_formats.evaluate.read_labels_s": s("sk_formats.read_labels", "evaluate"),
        "sk_formats.evaluate.read_labels_bytes": c("sk_formats.read_labels", "bytes", "evaluate"),
        "semantic_prior.provider_prior_s": s("semantic_prior.semantic_prior"),
        "semantic_prior.provider_offsets_s": s("semantic_prior.window_offsets"),
        "semantic_prior.prior_bytes": c("semantic_prior.semantic_prior", "bytes"),
        "scan_aggregator.aggregate_s": s("scan_aggregator.aggregate"),
        "scan_aggregator.points_out": c("scan_aggregator.aggregate", "points"),
        "scan_aggregator.bytes_out": c("scan_aggregator.aggregate", "bytes"),
        "proposal_engine.shift_s": s("proposal_engine.shift_to_centers"),
        "proposal_engine.fps_s": s("proposal_engine.farthest_point_sample"),
        "proposal_engine.group_s": s("proposal_engine.radius_group"),
        "proposal_engine.refine_s": s("proposal_engine.refine_proposal"),
        "proposal_engine.dbscan_s": s("proposal_engine.dbscan"),
        "proposal_engine.merge_s": s("proposal_engine.merge_and_assign"),
        "proposal_engine.proposals": proposals,
        "proposal_engine.fps_dist_evals": c("proposal_engine.farthest_point_sample", "dist_evals"),
        "proposal_engine.group_members": c("proposal_engine.radius_group", "members"),
        "proposal_engine.claims_per_point":
            c("proposal_engine.radius_group", "members") / window_points,
        "proposal_engine.dbscan_clusters": c("proposal_engine.dbscan", "clusters"),
        "proposal_engine.dbscan_noise": c("proposal_engine.dbscan", "noise"),
        "proposal_engine.instances_kept": kept,
        "proposal_engine.instances_demoted":
            c("proposal_engine.merge_and_assign", "voted") - kept,
        "proposal_engine.kept_per_proposal": kept / proposals,
        "proposal_engine.uncovered_thing_points":
            c("proposal_engine.merge_and_assign", "uncovered"),
        "window_tracker.stitch_s": s("window_tracker.stitch"),
        "window_tracker.matched_ids": matched,
        "window_tracker.fresh_ids": fresh,
        "window_tracker.overlap_points": c("window_tracker.stitch", "overlap_points"),
        "window_tracker.global_ids_per_scan": (previous_next - 1) / n_scans,
        "lstq_eval.add_scan_s": s("lstq_eval.add_scan", "evaluate"),
        "lstq_eval.report_s": s("lstq_eval.report", "evaluate"),
        "synthlab.segment.generate_points": c("synthlab.generate", "points"),
    }


def setup_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times of one traced set-up (scene synthesis and dataset writes)."""
    (setup,) = [s for s in spans if s.name == SETUP]
    own = self_times(spans)
    children = defaultdict(float)
    for span in spans:
        if span.parent == setup.id:
            children[span.name] += span.duration
    return {
        "synthlab.setup.generate_s": children["synthlab.generate"],
        "synthlab.setup.write_dataset_s": children["synthlab.write_dataset"],
        "synthlab.setup.self_s": own[setup.id],
    }
