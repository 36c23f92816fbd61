"""Stitch per-window instance ids into sequence-consistent global ids.

Consecutive windows share one or more scans; instances are matched on the
shared points by greatest overlap count, greedily in descending overlap.
Greedy matching is deterministic and near-optimal here because overlap
counts are heavily peaked: an instance overlaps itself on thousands of
points and competitors on a handful.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import IdOverflow, NoOverlapWarning
from .proposal_engine import InstanceSegmentation

MAX_GLOBAL_ID = 0xFFFF  # prediction files pack instance ids into 16 bits


@dataclass
class WindowSegmentation:
    """A window's segmentation plus origin back-references into the sequence."""

    segmentation: InstanceSegmentation
    origins: np.ndarray  # (n, 2) int64, (scan_index, point_index), lexicographically sorted
    window: tuple[int, int]  # (start, n_scans)

    def __post_init__(self):
        self.origins = np.asarray(self.origins, dtype=np.int64).reshape(-1, 2)
        self._keys = self.origins[:, 0] << np.int64(32) | self.origins[:, 1]

    def rows_for_origins(self, origins: np.ndarray) -> np.ndarray:
        """Row indices of the given (scan_index, point_index) pairs."""
        origins = np.asarray(origins, dtype=np.int64).reshape(-1, 2)
        keys = origins[:, 0] << np.int64(32) | origins[:, 1]
        rows = np.searchsorted(self._keys, keys)
        if rows.size and (rows >= len(self._keys)).any():
            raise KeyError("origin not present in window")
        if rows.size and not np.array_equal(self._keys[rows], keys):
            raise KeyError("origin not present in window")
        return rows

    def rows_for_scan(self, scan_index: int) -> np.ndarray:
        lo = np.searchsorted(self.origins[:, 0], scan_index, side="left")
        hi = np.searchsorted(self.origins[:, 0], scan_index, side="right")
        return np.arange(lo, hi)


@dataclass
class TrackState:
    """Fold state for id stitching; global ids are never reused."""

    next_global_id: int = 1

    def fresh_id(self) -> int:
        gid = self.next_global_id
        if gid > MAX_GLOBAL_ID:
            raise IdOverflow(f"global instance id {gid} exceeds 16 bits")
        self.next_global_id += 1
        return gid


def _overlap_pairs(prev_ids: np.ndarray, new_ids: np.ndarray) -> list[tuple[int, int, int]]:
    """(count, prev_id, new_id) for each id pair sharing overlap points."""
    both = (prev_ids > 0) & (new_ids > 0)
    if not both.any():
        return []
    keys = prev_ids[both] << np.int64(32) | new_ids[both]
    values, counts = np.unique(keys, return_counts=True)
    return [(int(c), int(k >> 32), int(k & 0xFFFFFFFF)) for k, c in zip(values, counts)]


def stitch(
    state: TrackState,
    prev_window: WindowSegmentation | None,
    new_window: WindowSegmentation,
    overlap_origins: np.ndarray,
) -> tuple[TrackState, WindowSegmentation]:
    """Relabel the new window's instance ids into the global id space.

    Matching is bipartite on the overlap points: pairs are taken greedily in
    descending shared-point count (ties to the lower previous id, then the
    lower new id); matched new instances inherit the previous global id,
    unmatched ones get fresh ids in ascending local-id order. With no
    overlap every new instance gets a fresh id and a warning is emitted.
    """
    overlap_origins = np.asarray(overlap_origins, dtype=np.int64).reshape(-1, 2)
    matches: dict[int, int] = {}
    if prev_window is not None and len(overlap_origins) == 0:
        warnings.warn(
            "windows share no scan; all new instances get fresh ids",
            NoOverlapWarning,
            stacklevel=2,
        )
    elif prev_window is not None:
        prev_ids = prev_window.segmentation.instance[prev_window.rows_for_origins(overlap_origins)]
        new_ids = new_window.segmentation.instance[new_window.rows_for_origins(overlap_origins)]
        pairs = _overlap_pairs(prev_ids, new_ids)
        pairs.sort(key=lambda item: (-item[0], item[1], item[2]))
        used_prev: set[int] = set()
        for count, prev_id, new_id in pairs:
            if count < 1 or prev_id in used_prev or new_id in matches:
                continue
            matches[new_id] = prev_id
            used_prev.add(prev_id)

    local = new_window.segmentation.instance
    relabeled = np.zeros_like(local)
    for local_id in np.unique(local[local > 0]):
        gid = matches.get(int(local_id))
        if gid is None:
            gid = state.fresh_id()
        relabeled[local == local_id] = gid

    return state, WindowSegmentation(
        segmentation=new_window.segmentation.with_instance(relabeled, scope="sequence"),
        origins=new_window.origins,
        window=new_window.window,
    )
