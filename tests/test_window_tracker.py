"""Cross-window id stitching: matching rules, bijection, overflow."""

import itertools
import warnings
from collections import Counter

import numpy as np
import pytest

from panseg4d.errors import IdOverflow, LengthMismatch, NoOverlapWarning, OverlapMismatch, WindowOutOfRange
from panseg4d.pipeline_cli import plan_windows
from panseg4d.proposal_engine import InstanceSegmentation
from panseg4d.window_tracker import TrackState, WindowSegmentation, shared_rows, stitch

from test_lstq_eval import evaluate


def make_window(start, scan_sizes, instance_rows, semantic_value=0):
    """Window over scans [start, start+len(scan_sizes)) with given ids per scan."""
    instance = np.concatenate([np.asarray(ids, dtype=np.int64) for ids in instance_rows])
    seg = InstanceSegmentation(
        semantic=np.full(len(instance), semantic_value, dtype=np.int64),
        instance=instance,
    )
    return WindowSegmentation(seg, np.cumsum([0, *scan_sizes]), (start, len(scan_sizes)))


def origins_of(window, sizes):
    """(scan_index, point_index) of each row of ``window`` over scans of ``sizes``."""
    start, n = window
    return [(k, i) for k in range(start, start + n) for i in range(sizes[k])]


def relabel_oracle(next_global_id, prev_window, new_window, sizes):
    """Greedy matching on the points both windows hold, found by their
    (scan, point) origins, then one pass over the window per local id;
    returns the relabeled ids and the next global id."""
    matches: dict[int, int] = {}
    if prev_window is not None:
        prev_row = {origin: row for row, origin in enumerate(origins_of(prev_window.window, sizes))}
        counts = Counter()
        for row, origin in enumerate(origins_of(new_window.window, sizes)):
            if origin in prev_row:
                prev_id = int(prev_window.segmentation.instance[prev_row[origin]])
                new_id = int(new_window.segmentation.instance[row])
                if prev_id > 0 and new_id > 0:
                    counts[prev_id, new_id] += 1
        used_prev = set()
        for (prev_id, new_id), _ in sorted(counts.items(), key=lambda t: (-t[1], t[0])):
            if prev_id not in used_prev and new_id not in matches:
                matches[new_id] = prev_id
                used_prev.add(prev_id)
    local = new_window.segmentation.instance
    relabeled = np.zeros_like(local)
    for local_id in np.unique(local[local > 0]):
        gid = matches.get(int(local_id))
        if gid is None:
            gid = next_global_id
            next_global_id += 1
        relabeled[local == local_id] = gid
    return relabeled, next_global_id


class TestStitch:
    def test_relabel_matches_per_id_loop_over_window_chains(self):
        # Random sequences planned as segment plans them: clipped tail
        # windows, stride == window_n (no shared scan) and empty scans.
        rng = np.random.default_rng(31)
        for _ in range(120):
            window_n = int(rng.integers(1, 5))
            stride = int(rng.integers(1, window_n + 1))
            n_scans = int(rng.integers(window_n, 9))
            sizes = rng.integers(0, 25, n_scans).tolist()
            state, prev, want_next = TrackState(), None, 1
            for window in plan_windows(n_scans, window_n, stride):
                pool = rng.choice(np.arange(1, 60), int(rng.integers(1, 8)), replace=False)
                rows = [rng.choice(np.append(pool, 0), sizes[k]) for k in range(window[0], sum(window))]
                new = make_window(window[0], sizes[window[0]: sum(window)], rows)
                overlap = shared_rows(prev, new)
                both = set(origins_of(window, sizes)) & set(origins_of(prev.window, sizes)) if prev else set()
                assert len(overlap) == len(both)
                want, want_next = relabel_oracle(want_next, prev, new, sizes)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    first = prev is None
                    state, prev = stitch(state, prev, new, overlap)
                warned = any(issubclass(w.category, NoOverlapWarning) for w in caught)
                assert warned == (not first and not both)
                assert np.array_equal(prev.segmentation.instance, want)
                assert state.next_global_id == want_next

    def test_first_window_gets_fresh_sequential_ids(self):
        state = TrackState()
        window = make_window(0, [4], [[0, 1, 2, 1]])
        state, out = stitch(state, None, window, range(0))
        assert out.segmentation.instance.tolist() == [0, 1, 2, 1]
        assert state.next_global_id == 3

    def test_identical_overlap_keeps_global_ids(self):
        state = TrackState()
        w0 = make_window(0, [4, 4], [[1, 1, 2, 0], [1, 2, 2, 0]])
        state, g0 = stitch(state, None, w0, range(0))
        # New window shares scan 1 with identical memberships (local ids renamed).
        w1 = make_window(1, [4, 4], [[5, 9, 9, 0], [5, 9, 0, 0]])
        state, g1 = stitch(state, g0, w1, shared_rows(g0, w1))
        # local 5 overlaps global id of prev local 1; local 9 matches prev 2.
        prev_ids = g0.segmentation.instance[g0.rows_for_scan(1)]
        new_ids = g1.segmentation.instance[g1.rows_for_scan(1)]
        assert prev_ids.tolist() == new_ids.tolist()

    def test_disjoint_overlap_instances_get_fresh_ids(self):
        state = TrackState()
        w0 = make_window(0, [3, 3], [[1, 1, 1], [1, 1, 1]])
        state, g0 = stitch(state, None, w0, range(0))
        w1 = make_window(1, [3, 3], [[0, 0, 0], [7, 7, 7]])  # nothing shared on scan 1
        state, g1 = stitch(state, g0, w1, shared_rows(g0, w1))
        ids = set(g1.segmentation.instance.tolist()) - {0}
        assert ids == {2}  # fresh id, not the previous 1

    def test_no_overlap_warns_and_assigns_fresh(self):
        state = TrackState()
        w0 = make_window(0, [2], [[1, 1]])
        state, g0 = stitch(state, None, w0, range(0))
        w1 = make_window(2, [2], [[1, 1]])
        with pytest.warns(NoOverlapWarning):
            state, g1 = stitch(state, g0, w1, range(0))
        assert set(g1.segmentation.instance.tolist()) == {2}

    def test_greedy_matching_prefers_largest_overlap(self):
        state = TrackState()
        w0 = make_window(0, [6], [[1, 1, 1, 2, 2, 0]])
        state, g0 = stitch(state, None, w0, range(0))
        # New local id 4 overlaps prev 1 on three points and prev 2 on two.
        w1 = make_window(0, [6, 6], [[4, 4, 4, 4, 4, 0], [9, 9, 0, 0, 0, 0]])
        state, g1 = stitch(state, g0, w1, shared_rows(g0, w1))
        assert g1.segmentation.instance[0] == 1  # inherited the bigger-overlap id

    def test_tie_breaks_to_lower_previous_id(self):
        state = TrackState()
        w0 = make_window(0, [4], [[2, 2, 1, 1]])
        state, g0 = stitch(state, None, w0, range(0))
        # Local 3 overlaps both previous ids on exactly two points each.
        w1 = make_window(0, [4, 2], [[3, 3, 3, 3], [0, 0]])
        state, g1 = stitch(state, g0, w1, shared_rows(g0, w1))
        prev_first = g0.segmentation.instance.tolist()   # globals: [1,1,2,2]
        assert g1.segmentation.instance[0] == min(prev_first)

    def test_relabeling_is_bijection(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            state = TrackState()
            size = 30
            prev_local = rng.integers(0, 5, size)
            w0 = make_window(0, [size], [prev_local])
            state, g0 = stitch(state, None, w0, range(0))
            new_local = rng.integers(0, 5, 2 * size)
            w1 = make_window(0, [size, size], [new_local[:size], new_local[size:]])
            state, g1 = stitch(state, g0, w1, shared_rows(g0, w1))
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
            stitch(state, None, w, range(0))


class TestStitchingDrivesAssociation:
    def test_persistent_object_keeps_one_global_id_and_scores_one(self, class_map):
        # Three overlapping windows over four scans, one object present in
        # every scan with a perfect per-window segmentation; after stitching,
        # the whole sequence carries a single global id and the association
        # score is exactly 1.0.
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
            state, out = stitch(state, previous, w, shared_rows(previous, w))
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
        assert evaluate(pred, gt, class_map).s_assoc == 1.0


class TestWindowSegmentation:
    def test_rows_for_scan_slices(self):
        w = make_window(2, [3, 2], [[0, 1, 1], [1, 0]])
        assert w.rows_for_scan(2) == slice(0, 3)
        assert w.rows_for_scan(3) == slice(3, 5)
        assert w.segmentation.instance[w.rows_for_scan(3)].tolist() == [1, 0]

    def test_rows_for_empty_scan_is_empty(self):
        w = make_window(0, [2, 0, 1], [[1, 1], [], [2]])
        assert w.rows_for_scan(1) == slice(2, 2)
        assert w.rows_for_scan(2) == slice(2, 3)

    def test_rows_for_scan_outside_window_raises(self):
        w = make_window(2, [3, 2], [[0, 1, 1], [1, 0]])
        for scan_index in (1, 4):
            with pytest.raises(WindowOutOfRange, match=rf"scan {scan_index} is not in window \[2, 4\)"):
                w.rows_for_scan(scan_index)

    @pytest.mark.parametrize(
        "scan_starts",
        [[1, 3, 5], [0, 3, 4], [0, 3, 6], [0, 4, 3, 5], [0, 5]],
        ids=["not-from-0", "short-of-rows", "past-rows", "decreasing", "wrong-scan-count"],
    )
    def test_bad_scan_starts_rejected(self, scan_starts):
        seg = InstanceSegmentation(np.zeros(5, dtype=np.int64), np.zeros(5, dtype=np.int64))
        n_scans = 3 if len(scan_starts) == 4 else 2
        with pytest.raises(LengthMismatch, match=r"window \[0, "):
            WindowSegmentation(seg, scan_starts, (0, n_scans))


class TestSharedRows:
    def test_head_scans_of_the_new_window(self):
        prev = make_window(0, [3, 2, 4], [[0] * 3, [0] * 2, [0] * 4])
        new = make_window(1, [2, 4, 1], [[0] * 2, [0] * 4, [0]])
        assert shared_rows(prev, new) == range(6)
        assert shared_rows(None, new) == range(0)

    def test_disjoint_windows_share_nothing(self):
        prev = make_window(0, [3], [[0] * 3])
        assert shared_rows(prev, make_window(1, [2], [[0] * 2])) == range(0)

    def test_new_window_before_previous_raises_naming_both(self):
        prev = make_window(2, [1, 1], [[0], [0]])
        new = make_window(1, [1, 1], [[0], [0]])
        with pytest.raises(OverlapMismatch, match=r"window \[2, 4\) and the next window \[1, 3\)"):
            shared_rows(prev, new)

    def test_new_window_inside_previous_raises(self):
        # Scans 1-2 are shared, but scan 3 of the previous window follows them.
        prev = make_window(0, [1, 1, 1, 1], [[0]] * 4)
        new = make_window(1, [1, 1], [[0], [0]])
        with pytest.raises(OverlapMismatch, match=r"window \[0, 4\) and the next window \[1, 3\)"):
            shared_rows(prev, new)

    def test_row_count_mismatch_raises_naming_both(self):
        prev = make_window(0, [2, 3], [[0] * 2, [0] * 3])
        new = make_window(1, [4, 1], [[0] * 4, [0]])
        named = r"window \[0, 2\) and the next window \[1, 3\).*\[3\] and \[4\] rows"
        with pytest.raises(OverlapMismatch, match=named):
            shared_rows(prev, new)
        with pytest.raises(OverlapMismatch):
            stitch(TrackState(), prev, new, range(3))

    def test_stitch_rejects_an_overlap_of_the_wrong_length(self):
        prev = make_window(0, [2, 3], [[1] * 2, [1] * 3])
        new = make_window(1, [3, 1], [[1] * 3, [1]])
        with pytest.raises(OverlapMismatch, match="2 overlap rows given"):
            stitch(TrackState(), prev, new, range(2))
