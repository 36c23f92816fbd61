"""Cross-window id stitching: matching rules, bijection, overflow."""

import itertools

import numpy as np
import pytest

from panseg4d.errors import IdOverflow, NoOverlapWarning
from panseg4d.proposal_engine import InstanceSegmentation
from panseg4d.window_tracker import TrackState, WindowSegmentation, stitch


def make_window(start, scan_sizes, instance_rows, semantic_value=0):
    """Window over scans [start, start+len(scan_sizes)) with given ids per scan."""
    origins = []
    instances = []
    for offset, (size, ids) in enumerate(zip(scan_sizes, instance_rows)):
        scan_index = start + offset
        origin = np.empty((size, 2), dtype=np.int64)
        origin[:, 0] = scan_index
        origin[:, 1] = np.arange(size)
        origins.append(origin)
        instances.append(np.asarray(ids, dtype=np.int64))
    instance = np.concatenate(instances)
    seg = InstanceSegmentation(
        semantic=np.full(len(instance), semantic_value, dtype=np.int64),
        instance=instance,
        scope="window",
    )
    return WindowSegmentation(seg, np.concatenate(origins), (start, len(scan_sizes)))


def overlap_for(scan_index, size):
    origin = np.empty((size, 2), dtype=np.int64)
    origin[:, 0] = scan_index
    origin[:, 1] = np.arange(size)
    return origin


class TestStitch:
    def test_first_window_gets_fresh_sequential_ids(self):
        state = TrackState()
        window = make_window(0, [4], [[0, 1, 2, 1]])
        state, out = stitch(state, None, window, np.zeros((0, 2), dtype=np.int64))
        assert out.segmentation.instance.tolist() == [0, 1, 2, 1]
        assert state.next_global_id == 3

    def test_identical_overlap_keeps_global_ids(self):
        state = TrackState()
        w0 = make_window(0, [4, 4], [[1, 1, 2, 0], [1, 2, 2, 0]])
        state, g0 = stitch(state, None, w0, np.zeros((0, 2), dtype=np.int64))
        # New window shares scan 1 with identical memberships (local ids renamed).
        w1 = make_window(1, [4, 4], [[5, 9, 9, 0], [5, 9, 0, 0]])
        state, g1 = stitch(state, g0, w1, overlap_for(1, 4))
        # local 5 overlaps global id of prev local 1; local 9 matches prev 2.
        prev_ids = g0.segmentation.instance[g0.rows_for_scan(1)]
        new_ids = g1.segmentation.instance[g1.rows_for_scan(1)]
        assert prev_ids.tolist() == new_ids.tolist()

    def test_disjoint_overlap_instances_get_fresh_ids(self):
        state = TrackState()
        w0 = make_window(0, [3, 3], [[1, 1, 1], [1, 1, 1]])
        state, g0 = stitch(state, None, w0, np.zeros((0, 2), dtype=np.int64))
        w1 = make_window(1, [3, 3], [[0, 0, 0], [7, 7, 7]])  # nothing shared on scan 1
        state, g1 = stitch(state, g0, w1, overlap_for(1, 3))
        ids = set(g1.segmentation.instance.tolist()) - {0}
        assert ids == {2}  # fresh id, not the previous 1

    def test_no_overlap_warns_and_assigns_fresh(self):
        state = TrackState()
        w0 = make_window(0, [2], [[1, 1]])
        state, g0 = stitch(state, None, w0, np.zeros((0, 2), dtype=np.int64))
        w1 = make_window(2, [2], [[1, 1]])
        with pytest.warns(NoOverlapWarning):
            state, g1 = stitch(state, g0, w1, np.zeros((0, 2), dtype=np.int64))
        assert set(g1.segmentation.instance.tolist()) == {2}

    def test_greedy_matching_prefers_largest_overlap(self):
        state = TrackState()
        w0 = make_window(0, [6], [[1, 1, 1, 2, 2, 0]])
        state, g0 = stitch(state, None, w0, np.zeros((0, 2), dtype=np.int64))
        # New local id 4 overlaps prev 1 on three points and prev 2 on two.
        w1 = make_window(0, [6, 6], [[4, 4, 4, 4, 4, 0], [9, 9, 0, 0, 0, 0]])
        state, g1 = stitch(state, g0, w1, overlap_for(0, 6))
        assert g1.segmentation.instance[0] == 1  # inherited the bigger-overlap id

    def test_tie_breaks_to_lower_previous_id(self):
        state = TrackState()
        w0 = make_window(0, [4], [[2, 2, 1, 1]])
        state, g0 = stitch(state, None, w0, np.zeros((0, 2), dtype=np.int64))
        # Local 3 overlaps both previous ids on exactly two points each.
        w1 = make_window(0, [4, 2], [[3, 3, 3, 3], [0, 0]])
        state, g1 = stitch(state, g0, w1, overlap_for(0, 4))
        prev_first = g0.segmentation.instance.tolist()   # globals: [1,1,2,2]
        assert g1.segmentation.instance[0] == min(prev_first)

    def test_relabeling_is_bijection(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            state = TrackState()
            size = 30
            prev_local = rng.integers(0, 5, size)
            w0 = make_window(0, [size], [prev_local])
            state, g0 = stitch(state, None, w0, np.zeros((0, 2), dtype=np.int64))
            new_local = rng.integers(0, 5, 2 * size)
            w1 = make_window(0, [size, size], [new_local[:size], new_local[size:]])
            state, g1 = stitch(state, g0, w1, overlap_for(0, size))
            local_nonzero = np.unique(new_local[new_local > 0])
            global_nonzero = np.unique(g1.segmentation.instance[g1.segmentation.instance > 0])
            assert len(local_nonzero) == len(global_nonzero)
            # zero stays zero
            assert np.array_equal(
                g1.segmentation.instance == 0,
                np.concatenate([new_local[:size], new_local[size:]]) == 0,
            )

    def test_greedy_total_is_at_least_half_of_optimal(self):
        # Exhaustive optimal assignment oracle on small bipartite overlaps.
        rng = np.random.default_rng(1)
        for _ in range(100):
            n_prev, n_new = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            counts = rng.integers(0, 6, (n_prev, n_new))
            pairs = [
                (int(counts[i, j]), i + 1, j + 1)
                for i in range(n_prev)
                for j in range(n_new)
                if counts[i, j] > 0
            ]
            pairs.sort(key=lambda item: (-item[0], item[1], item[2]))
            used_prev, used_new, greedy_total = set(), set(), 0
            for count, prev_id, new_id in pairs:
                if prev_id in used_prev or new_id in used_new:
                    continue
                used_prev.add(prev_id)
                used_new.add(new_id)
                greedy_total += count
            size = max(n_prev, n_new)
            padded = np.zeros((size, size), dtype=int)
            padded[:n_prev, :n_new] = counts
            best = max(
                sum(padded[i, p] for i, p in enumerate(perm))
                for perm in itertools.permutations(range(size))
            )
            assert greedy_total >= 0.5 * best

    def test_global_id_overflow_raises(self):
        state = TrackState(next_global_id=0xFFFF)
        w = make_window(0, [2], [[1, 2]])
        with pytest.raises(IdOverflow):
            stitch(state, None, w, np.zeros((0, 2), dtype=np.int64))


class TestStitchingDrivesAssociation:
    def test_persistent_object_keeps_one_global_id_and_scores_one(self):
        # Three overlapping windows over four scans, one object present in
        # every scan with a perfect per-window segmentation; after stitching,
        # the whole sequence carries a single global id and the association
        # score is exactly 1.0.
        from panseg4d.lstq_eval import s_assoc

        scan_size = 6
        object_rows = [1, 3, 4]  # same rows in every scan belong to the object

        def window(start):
            ids = np.zeros(scan_size, dtype=np.int64)
            ids[object_rows] = 7  # arbitrary local id
            return make_window(start, [scan_size, scan_size], [ids, ids.copy()])

        state = TrackState()
        stitched = []
        previous = None
        for start in range(3):
            w = window(start)
            overlap = (
                overlap_for(start, scan_size)
                if previous is not None
                else np.zeros((0, 2), dtype=np.int64)
            )
            state, out = stitch(state, previous, w, overlap)
            stitched.append(out)
            previous = out

        global_ids = set()
        per_scan_pred = {}
        for out in stitched:
            start, count = out.window
            for scan_index in range(start, start + count):
                if scan_index in per_scan_pred:
                    continue
                rows = out.rows_for_scan(scan_index)
                per_scan_pred[scan_index] = out.segmentation.instance[rows]
                global_ids.update(
                    out.segmentation.instance[rows][object_rows].tolist()
                )
        assert global_ids == {1}

        gt_ids = np.zeros(scan_size, dtype=np.int64)
        gt_ids[object_rows] = 3
        pred = [(np.zeros(scan_size, dtype=int), per_scan_pred[k]) for k in sorted(per_scan_pred)]
        gt = [(np.zeros(scan_size, dtype=int), gt_ids) for _ in per_scan_pred]
        assert s_assoc(pred, gt) == 1.0


class TestWindowSegmentation:
    def test_rows_for_scan_slices(self):
        w = make_window(2, [3, 2], [[0, 1, 1], [1, 0]])
        assert w.rows_for_scan(2).tolist() == [0, 1, 2]
        assert w.rows_for_scan(3).tolist() == [3, 4]

    def test_rows_for_origins_lookup(self):
        w = make_window(0, [3, 3], [[0, 0, 0], [0, 0, 0]])
        rows = w.rows_for_origins(np.array([[1, 0], [0, 2]]))
        assert rows.tolist() == [3, 2]

    def test_rows_for_missing_origin_raises(self):
        w = make_window(0, [2], [[0, 0]])
        with pytest.raises(KeyError):
            w.rows_for_origins(np.array([[5, 0]]))
