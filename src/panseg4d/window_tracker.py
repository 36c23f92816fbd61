"""Stitch per-window instance ids into sequence-consistent global ids.

A window is a run of whole scans in scan order, so consecutive windows
share whole scans: the previous window's tail scans are the new window's
head scans, row for row. Instances are matched on those shared rows by
greatest overlap count, greedily in descending overlap. Greedy matching is
deterministic and near-optimal here because overlap counts are heavily
peaked: an instance overlaps itself on thousands of points and competitors
on a handful.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import IdOverflow, NoOverlapWarning, OverlapMismatch, WindowOutOfRange
from .proposal_engine import InstanceSegmentation
from .scan_aggregator import check_scan_starts

MAX_GLOBAL_ID = 0xFFFF  # prediction files pack instance ids into 16 bits


@dataclass
class WindowSegmentation:
    """A window's segmentation over its scans' rows, concatenated in scan order."""

    segmentation: InstanceSegmentation
    # (n_scans + 1,) int64: scan start + j holds rows [scan_starts[j], scan_starts[j + 1])
    scan_starts: np.ndarray
    window: tuple[int, int]  # (start, n_scans)

    def __post_init__(self):
        start, n = self.window
        self.scan_starts = check_scan_starts(
            self.scan_starts, len(self.segmentation), n, f"window [{start}, {start + n})"
        )

    def rows_for_scan(self, scan_index: int) -> slice:
        """The rows of scan ``scan_index``, which the window must hold."""
        start, n = self.window
        if not start <= scan_index < start + n:
            raise WindowOutOfRange(f"scan {scan_index} is not in window [{start}, {start + n})")
        offset = scan_index - start
        return slice(int(self.scan_starts[offset]), int(self.scan_starts[offset + 1]))


def shared_rows(prev_window: WindowSegmentation | None, new_window: WindowSegmentation) -> range:
    """The new window's rows on the scans it shares with ``prev_window``:
    its head scans, which must be the previous window's tail scans with the
    same row counts, else ``OverlapMismatch`` names both windows."""
    if prev_window is None:
        return range(0)
    (p_start, p_n), (n_start, n_n) = prev_window.window, new_window.window
    shared = min(p_start + p_n, n_start + n_n) - max(p_start, n_start)
    if shared <= 0:
        return range(0)
    if not (p_start <= n_start and p_start + p_n <= n_start + n_n):
        raise OverlapMismatch(
            f"window [{p_start}, {p_start + p_n}) and the next window [{n_start}, {n_start + n_n}) "
            "share scans that are not the previous window's tail and the next window's head"
        )
    prev_sizes = np.diff(prev_window.scan_starts)[p_n - shared:]
    new_sizes = np.diff(new_window.scan_starts)[:shared]
    if not np.array_equal(prev_sizes, new_sizes):
        raise OverlapMismatch(
            f"window [{p_start}, {p_start + p_n}) and the next window [{n_start}, {n_start + n_n}) "
            f"hold shared scans {n_start}..{n_start + shared - 1} with {prev_sizes.tolist()} "
            f"and {new_sizes.tolist()} rows"
        )
    return range(int(new_window.scan_starts[shared]))


@dataclass
class TrackState:
    """Fold state for id stitching; global ids are never reused."""

    next_global_id: int = 1

    def fresh_ids(self, count: int) -> np.ndarray:
        """The next ``count`` global ids, ascending."""
        ids = np.arange(self.next_global_id, self.next_global_id + count, dtype=np.int64)
        if count and ids[-1] > MAX_GLOBAL_ID:
            gid = max(self.next_global_id, MAX_GLOBAL_ID + 1)
            raise IdOverflow(f"global instance id {gid} exceeds 16 bits")
        self.next_global_id += count
        return ids


def _overlap_pairs(prev_ids: np.ndarray, new_ids: np.ndarray) -> list[tuple[int, int, int]]:
    """(count, prev_id, new_id) for each id pair sharing overlap points."""
    both = (prev_ids > 0) & (new_ids > 0)
    if not both.any():
        return []
    keys = np.sort(prev_ids[both] << np.int64(32) | new_ids[both])
    heads = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    counts = np.diff(np.append(heads, len(keys)))
    return [(int(c), int(k >> 32), int(k & 0xFFFFFFFF)) for k, c in zip(keys[heads], counts)]


def stitch(
    state: TrackState,
    prev_window: WindowSegmentation | None,
    new_window: WindowSegmentation,
    overlap: range,
) -> tuple[TrackState, WindowSegmentation]:
    """Relabel the new window's instance ids into the global id space.

    ``overlap`` is the new window's shared rows, ``shared_rows(prev_window,
    new_window)``: its first m rows, which hold the same points as the
    previous window's last m rows. Matching is bipartite on those row
    pairs: pairs are taken greedily in descending shared-point count (ties
    to the lower previous id, then the lower new id); matched new instances
    inherit the previous global id, unmatched ones get fresh ids in
    ascending local-id order. With no overlap every new instance gets a
    fresh id and a warning is emitted.
    """
    m = len(shared_rows(prev_window, new_window))
    if len(overlap) != m:
        raise OverlapMismatch(
            f"{len(overlap)} overlap rows given for window {new_window.window}, which shares {m} "
            f"with window {prev_window.window if prev_window is not None else None}"
        )
    matches: dict[int, int] = {}
    if prev_window is not None and m == 0:
        warnings.warn(
            "windows share no scan; all new instances get fresh ids",
            NoOverlapWarning,
            stacklevel=2,
        )
    elif prev_window is not None:
        # [len - m, len), not [-m:], which is every row when m = 0.
        prev_ids = prev_window.segmentation.instance[len(prev_window.segmentation) - m:]
        new_ids = new_window.segmentation.instance[:m]
        pairs = _overlap_pairs(prev_ids, new_ids)
        pairs.sort(key=lambda item: (-item[0], item[1], item[2]))
        used_prev: set[int] = set()
        for count, prev_id, new_id in pairs:
            if count < 1 or prev_id in used_prev or new_id in matches:
                continue
            matches[new_id] = prev_id
            used_prev.add(prev_id)

    local = new_window.segmentation.instance
    table = np.zeros(int(local.max(initial=0)) + 1, dtype=local.dtype)
    table[list(matches)] = list(matches.values())
    local_ids = np.flatnonzero(np.bincount(local, minlength=len(table))[1:]) + 1
    fresh = local_ids[table[local_ids] == 0]
    table[fresh] = state.fresh_ids(len(fresh))
    relabeled = table[local]

    return state, WindowSegmentation(
        segmentation=replace(new_window.segmentation, instance=relabeled),
        scan_starts=new_window.scan_starts,
        window=new_window.window,
    )
