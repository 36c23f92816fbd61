"""Proposal stage oracles: FPS, grouping, DBSCAN, merging, losses."""

from dataclasses import replace

import numpy as np
import pytest

from panseg4d.errors import EmptyAfterFilter, EmptyInput, LengthMismatch, NonFiniteValue
from panseg4d.proposal_engine import (
    _FPS_GRID_MIN_POINTS,
    _GROUP_CELL_HAIR,
    NOISE,
    Proposal,
    aggregation_diagnostics,
    dbscan,
    farthest_point_sample,
    huber_center_loss,
    merge_and_assign,
    radius_group,
    refine_proposal,
    shift_to_centers,
    _fps_all_points,
    _fps_grid,
)
from panseg4d.semantic_prior import IGNORE, majority_label


def fps_oracle(points: np.ndarray, count: int) -> np.ndarray:
    """Exhaustive greedy max-min selection over the full distance matrix."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    matrix = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
    m = min(count, n)
    centroid_d2 = ((pts - pts.mean(axis=0)) ** 2).sum(axis=-1)
    selected = [int(np.argmax(centroid_d2))]
    for _ in range(1, m):
        min_d2 = matrix[:, selected].min(axis=1)
        min_d2[selected] = -np.inf
        selected.append(int(np.argmax(min_d2)))
    return np.array(selected, dtype=np.int64)


def fps_oracle_light(points: np.ndarray, count: int) -> np.ndarray:
    """Greedy max-min selection holding one distance row per pick."""
    pts = np.asarray(points, dtype=np.float64)
    selected = [int(np.argmax(((pts - pts.mean(axis=0)) ** 2).sum(axis=-1)))]
    min_d2 = ((pts - pts[selected[0]]) ** 2).sum(axis=-1)
    min_d2[selected[0]] = -np.inf
    for _ in range(1, min(count, len(pts))):
        selected.append(int(np.argmax(min_d2)))
        np.minimum(min_d2, ((pts - pts[selected[-1]]) ** 2).sum(axis=-1), out=min_d2)
        min_d2[selected] = -np.inf
    return np.array(selected, dtype=np.int64)


def dbscan_oracle(items: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Brute-force neighbor graph + BFS over core components; borders join
    the earliest-discovered cluster among their core neighbors."""
    n = len(items)
    d2 = ((items[:, None, :] - items[None, :, :]) ** 2).sum(axis=-1)
    neighbors = [np.flatnonzero(d2[i] <= eps * eps) for i in range(n)]
    core = np.array([len(nb) >= min_pts for nb in neighbors])
    labels = np.full(n, NOISE, dtype=np.int64)
    cluster = 0
    for i in range(n):
        if not core[i] or labels[i] != NOISE:
            continue
        frontier = [i]
        labels[i] = cluster
        while frontier:
            j = frontier.pop(0)
            for k in neighbors[j]:
                if core[k] and labels[k] == NOISE:
                    labels[k] = cluster
                    frontier.append(int(k))
        cluster += 1
    for i in range(n):
        if labels[i] != NOISE or core[i]:
            continue
        owning = [labels[k] for k in neighbors[i] if core[k] and labels[k] != NOISE]
        if owning:
            labels[i] = min(owning)  # earliest-discovered cluster has lowest id
    return labels


def merge_oracle(predicted_centers, proposals, cluster_ids, point_labels, thing_mask):
    """One pass over the window per instance: claims resolved instance by
    instance, then one majority vote per instance that kept points.

    Returns (semantic, instance, uncovered thing points, instances demoted,
    contested points).
    """
    centers = np.asarray(predicted_centers, dtype=np.float64).reshape(-1, 3)
    point_semantic = np.asarray(point_labels, dtype=np.int64).reshape(-1)
    n = len(centers)
    groups: dict[int, list[int]] = {}
    for idx, cid in enumerate(cluster_ids):
        if cid != NOISE:
            groups.setdefault(int(cid), []).append(idx)
    instances = [groups[cid] for cid in sorted(groups)]
    instances.extend([idx] for idx, cid in enumerate(cluster_ids) if cid == NOISE)

    assigned = np.zeros(n, dtype=np.int64)
    best_d2 = np.full(n, np.inf)
    claims = np.zeros(n, dtype=np.int64)
    for instance_id, proposal_idxs in enumerate(instances, start=1):
        rows = np.unique(np.concatenate([proposals[p].member_indices for p in proposal_idxs]))
        claims[rows] += 1
        center = np.mean([proposals[p].refined_center for p in proposal_idxs], axis=0)
        d2 = ((centers[rows] - center) ** 2).sum(axis=-1)
        better = d2 < best_d2[rows]
        assigned[rows[better]] = instance_id
        best_d2[rows[better]] = d2[better]

    semantic = point_semantic.copy()
    final_instance = np.zeros(n, dtype=np.int64)
    next_id = 1
    demoted = 0
    for instance_id in range(1, len(instances) + 1):
        members = np.flatnonzero(assigned == instance_id)
        if members.size == 0:
            continue
        label = majority_label(point_semantic[members])
        if not thing_mask[label]:
            demoted += 1
            continue
        final_instance[members] = next_id
        semantic[members] = label
        next_id += 1
    uncovered = int((thing_mask[semantic] & (final_instance == 0)).sum()) if n else 0
    return semantic, final_instance, uncovered, demoted, int((claims > 1).sum())


def partitions_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Same partition up to cluster-id relabeling; NOISE must match exactly."""
    if not np.array_equal(a == NOISE, b == NOISE):
        return False
    mapping: dict[int, int] = {}
    reverse: dict[int, int] = {}
    for x, y in zip(a, b):
        if x == NOISE:
            continue
        if mapping.setdefault(int(x), int(y)) != y:
            return False
        if reverse.setdefault(int(y), int(x)) != x:
            return False
    return True


class TestShiftToCenters:
    def test_zero_offsets_identity(self):
        pts = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(shift_to_centers(pts, np.zeros((4, 3))), pts)

    def test_oracle_offsets_collapse_to_center(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(50, 3))
        center = np.array([5.0, -2.0, 1.0])
        shifted = shift_to_centers(pts, center - pts)
        assert np.abs(shifted - center).max() < 1e-12

    def test_elementwise_sum_oracle(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(30, 3))
        offsets = rng.normal(size=(30, 3))
        expected = np.array([[p[i] + o[i] for i in range(3)] for p, o in zip(pts, offsets)])
        assert np.array_equal(shift_to_centers(pts, offsets), expected)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            shift_to_centers(np.zeros((3, 3)), np.zeros((2, 3)))

    def test_nonfinite_offsets_rejected(self):
        offsets = np.zeros((3, 3))
        offsets[1, 2] = np.nan
        with pytest.raises(NonFiniteValue, match="row 1"):
            shift_to_centers(np.zeros((3, 3)), offsets)


class TestFarthestPointSample:
    def test_single_pick_is_farthest_from_centroid(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [10.0, 0, 0]])
        assert farthest_point_sample(pts, 1).tolist() == [2]

    def test_k_equals_n_is_permutation(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(9, 3))
        picks = farthest_point_sample(pts, 9)
        assert sorted(picks.tolist()) == list(range(9))

    def test_k_above_n_returns_all(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(5, 3))
        assert len(farthest_point_sample(pts, 50)) == 5

    def test_eight_points_match_oracle(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-1, 1, (8, 3))
        assert np.array_equal(farthest_point_sample(pts, 4), fps_oracle(pts, 4))

    def test_many_random_cases_match_oracle_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 11))
            count = int(rng.integers(1, n + 3))
            pts = rng.uniform(-10, 10, (n, 3))
            assert np.array_equal(farthest_point_sample(pts, count), fps_oracle(pts, count))

    def test_greedy_optimality_property_exhaustive(self):
        # Every pick's min-distance to the previous picks is >= that of any
        # point not yet selected, recomputed from the full matrix.
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(2, 11))
            pts = rng.uniform(-5, 5, (n, 3))
            picks = farthest_point_sample(pts, n)
            matrix = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
            for k in range(1, n):
                chosen = picks[:k]
                min_d2 = matrix[:, chosen].min(axis=1)
                others = np.setdiff1d(np.arange(n), chosen)
                assert min_d2[picks[k]] >= min_d2[others].max() - 1e-15

    def test_large_clouds_match_pick_by_pick_oracle(self):
        # Exact picks on both sides of the grid cut, on clouds built to tie:
        # lattice coordinates with a non-representable spacing, duplicates,
        # and a dense clump that ties at distance zero once it is reached.
        rng = np.random.default_rng(7)
        cut = _FPS_GRID_MIN_POINTS
        for n, count in ((2000, 40), (cut - 1, 60), (cut, 60), (cut + 4000, 90)):
            lattice = rng.integers(-40, 41, (n, 3)) * 0.1
            lattice[rng.choice(n, n // 10, replace=False)] = lattice[: n // 10]
            lattice[-50:] = lattice[-1]
            assert np.array_equal(farthest_point_sample(lattice, count), fps_oracle_light(lattice, count))
            cloud = rng.uniform(-100, 100, (n, 3))
            assert np.array_equal(farthest_point_sample(cloud, count), fps_oracle_light(cloud, count))

    def test_grid_path_matches_all_points_path(self):
        # Both selection paths run on small, tie-heavy inputs, including
        # flat, collinear and all-identical clouds and picks past the point
        # count where only zero-distance duplicates remain.
        rng = np.random.default_rng(11)
        for case in range(400):
            n = int(rng.integers(1, 60))
            pts = rng.integers(-3, 4, (n, 3)) * [0.3, 0.7, 0.1][case % 3]
            if case % 5 == 1:
                pts[:, 2] = 0.0
            if case % 5 == 2:
                pts[:, 1:] = 1.5
            if case % 5 == 3:
                pts[:] = pts[0]
            pts = pts.astype(np.float64)
            m = int(rng.integers(1, n + 1))
            first = int(np.argmax(((pts - pts.mean(axis=0)) ** 2).sum(axis=-1)))
            want = fps_oracle(pts, m)
            assert np.array_equal(_fps_grid(pts, first, m), want)
            assert np.array_equal(_fps_all_points(pts, first, m), want)

    def test_duplicate_points_handled(self):
        pts = np.array([[0.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0]])
        picks = farthest_point_sample(pts, 3)
        assert sorted(picks.tolist()) == [0, 1, 2]

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            farthest_point_sample(np.zeros((0, 3)), 1)

    def test_bad_count(self):
        with pytest.raises(ValueError):
            farthest_point_sample(np.zeros((2, 3)), 0)


class TestRadiusGroup:
    def test_radius_larger_than_diameter_takes_all(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-1, 1, (20, 3))
        groups = radius_group(pts[:3], pts, 100.0)
        for group in groups:
            assert len(group) == 20

    def test_radius_below_min_gap_keeps_seed_only(self):
        pts = np.array([[0.0, 0, 0], [5.0, 0, 0], [0, 7.0, 0]])
        groups = radius_group(pts, pts, 0.5)
        for k, group in enumerate(groups):
            assert group.tolist() == [k]

    def test_blob_memberships_match_bruteforce(self):
        rng = np.random.default_rng(9)
        blobs = np.concatenate(
            [rng.normal(loc, 0.3, (60, 3)) for loc in ([0, 0, 0], [5, 0, 0], [0, 6, 0])]
        )
        seeds = blobs[[0, 60, 120]]
        radius = 1.2
        groups = radius_group(seeds, blobs, radius)
        for seed, group in zip(seeds, groups):
            expected = np.flatnonzero(((blobs - seed) ** 2).sum(axis=-1) <= radius * radius)
            assert np.array_equal(group, expected)

    def test_large_inputs_match_bruteforce_without_margin(self):
        # n > 1024 with no margin around the radius: points exactly r from a
        # seed along each axis, points on cell faces, negative coordinates
        # and seeds outside the candidates' bounding box.
        rng = np.random.default_rng(10)
        radius = 0.6
        inside = rng.uniform(-12.0, -2.0, (40, 3))
        axes = np.concatenate([np.eye(3), -np.eye(3)]) * radius
        on_radius = (inside[:, None, :] + axes[None, :, :]).reshape(-1, 3)
        cloud = rng.uniform(-12.0, -2.0, (3000, 3))
        lo = np.concatenate([cloud, on_radius]).min(axis=0)
        faces = lo + rng.integers(0, 16, (400, 3)) * (radius * _GROUP_CELL_HAIR)
        cands = np.concatenate([cloud, on_radius, faces, inside[:10]])
        cands = cands[rng.permutation(len(cands))]
        # Far outside the box, and just beyond its lowest x face.
        lowest = cands[np.argmin(cands[:, 0])]
        seeds = np.concatenate([inside, [[-40.0, -7.0, 9.0], lowest - [0.5 * radius, 0.0, 0.0]]])
        groups = radius_group(seeds, cands, radius)
        assert len(groups) == len(seeds)
        for seed, group in zip(seeds, groups):
            want = np.flatnonzero(((cands - seed) ** 2).sum(axis=-1) <= radius * radius)
            assert group.dtype == np.int64
            assert np.array_equal(group, want)
        assert groups[-2].size == 0
        assert groups[-1].size > 0

    def test_rounding_in_cell_coordinates_drops_no_member(self):
        # |c - s| computes to at most the radius, yet with cells exactly one
        # radius wide, rounding in (coordinate - origin) / edge puts c two
        # cells past s.
        radius, origin = 0.9051011416438499, -45.16262406867135
        s, c = 22.719961554617388, 23.625062696261235
        assert (c - s) ** 2 <= radius * radius
        assert np.floor((c - origin) / radius) - np.floor((s - origin) / radius) == 2
        cands = np.array([[origin, 0.0, 0.0], [c, 0.0, 0.0]])
        assert radius_group([[s, 0.0, 0.0]], cands, radius)[0].tolist() == [1]

    def test_members_ascend_across_cells(self):
        rng = np.random.default_rng(12)
        pts = rng.uniform(-3.0, 3.0, (5000, 3))
        for group in radius_group(pts[:50], pts, 1.3):
            assert group.size > 1
            assert np.all(np.diff(group) > 0)

    def test_no_candidates_gives_one_empty_group_per_seed(self):
        groups = radius_group(np.zeros((3, 3)), np.zeros((0, 3)), 1.0)
        assert len(groups) == 3
        for group in groups:
            assert group.dtype == np.int64 and group.size == 0

    def test_no_seeds_gives_no_groups(self):
        assert radius_group(np.zeros((0, 3)), np.ones((4, 3)), 1.0) == []

    def test_nonfinite_points_rejected(self):
        pts = np.zeros((4, 3))
        pts[2, 1] = np.nan
        with pytest.raises(NonFiniteValue, match="candidate row 2"):
            radius_group(np.zeros((1, 3)), pts, 1.0)
        with pytest.raises(NonFiniteValue, match="seed row 2"):
            radius_group(pts, np.zeros((1, 3)), 1.0)
        with pytest.raises(NonFiniteValue, match="point row 2"):
            farthest_point_sample(pts, 2)

    def test_membership_is_inclusive(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        groups = radius_group(pts[:1], pts, 1.0)
        assert groups[0].tolist() == [0, 1]

    def test_bad_radius(self):
        for radius in (0.0, -1.0):
            with pytest.raises(ValueError):
                radius_group(np.zeros((1, 3)), np.zeros((1, 3)), radius)


class TestRefineProposal:
    def test_single_member(self):
        position = np.array([[1.0, 2.0, 3.0]])
        proposal = refine_proposal(position, position, [0], 0)
        assert np.array_equal(proposal.refined_center, position[0])
        assert proposal.refined_radius == 0.0
        assert proposal.bbox.tolist() == [0.0, 0.0, 0.0]

    def test_two_member_arithmetic(self):
        pts = np.array([[0.0, 0, 0], [2.0, 0, 0]])
        proposal = refine_proposal(pts, pts, [0, 1], 0)
        assert proposal.refined_center.tolist() == [1.0, 0.0, 0.0]
        assert proposal.refined_radius == 1.0
        assert proposal.bbox.tolist() == [2.0, 0.0, 0.0]
        assert np.array_equal(proposal.embedding, proposal.refined_center)

    def test_random_members_match_mean_max_extent_oracle(self):
        rng = np.random.default_rng(11)
        positions = rng.normal(size=(40, 3))
        shifted = rng.normal(size=(40, 3))
        members = rng.choice(40, size=15, replace=False)
        proposal = refine_proposal(positions, shifted, members, int(members[0]))
        center = np.array([shifted[members][:, c].mean() for c in range(3)])
        assert np.abs(proposal.refined_center - center).max() < 1e-12
        radius = max(np.linalg.norm(positions[m] - proposal.refined_center) for m in members)
        assert abs(proposal.refined_radius - radius) < 1e-12
        extent = positions[members].max(axis=0) - positions[members].min(axis=0)
        assert np.abs(proposal.bbox - extent).max() < 1e-12

    def test_empty_members_rejected(self):
        with pytest.raises(EmptyInput):
            refine_proposal(np.zeros((2, 3)), np.zeros((2, 3)), [], 0)


class TestDbscan:
    def test_everything_close_single_cluster(self):
        rng = np.random.default_rng(12)
        items = rng.normal(0, 0.01, (15, 3))
        labels = dbscan(items, eps=1.0, min_pts=1)
        assert set(labels.tolist()) == {0}

    def test_single_item_below_density_is_noise(self):
        assert dbscan(np.zeros((1, 3)), eps=1.0, min_pts=2).tolist() == [NOISE]

    def test_random_cases_match_reference(self):
        rng = np.random.default_rng(13)
        for _ in range(150):
            n = int(rng.integers(1, 101))
            items = rng.uniform(-2, 2, (n, 3))
            got = dbscan(items, eps=0.5, min_pts=3)
            want = dbscan_oracle(items, eps=0.5, min_pts=3)
            assert partitions_equal(got, want)

    def test_shared_border_joins_first_discovered_cluster(self):
        # b at 0 is within eps of the cores at -0.5 and +0.5 but has only 3
        # neighbors itself (min_pts=4): a genuine shared border point.
        xs = np.array([-1.0, -0.9, -0.5, 0.0, 0.5, 0.9, 1.0]).reshape(-1, 1)
        labels = dbscan(xs, eps=0.5, min_pts=4)
        assert labels[2] == 0 and labels[4] == 1
        assert labels[3] == 0  # joins the cluster discovered first

    def test_cluster_ids_count_in_discovery_order(self):
        items = np.array([[0.0, 0, 0], [10.0, 0, 0], [20.0, 0, 0]])
        labels = dbscan(items, eps=1.0, min_pts=1)
        assert labels.tolist() == [0, 1, 2]

    def test_input_order_invariance_without_borders(self):
        # With min_pts=1 every item is core, so there are no border items
        # and any permutation must yield the same partition up to ids.
        rng = np.random.default_rng(21)
        items = rng.uniform(-2, 2, (60, 3))
        base = dbscan(items, eps=0.4, min_pts=1)
        for _ in range(10):
            perm = rng.permutation(60)
            permuted = dbscan(items[perm], eps=0.4, min_pts=1)
            assert partitions_equal(base[perm], permuted)

    def test_validation(self):
        with pytest.raises(ValueError):
            dbscan(np.zeros((1, 3)), eps=0.0, min_pts=1)
        with pytest.raises(ValueError):
            dbscan(np.zeros((1, 3)), eps=1.0, min_pts=0)


def _proposals_from_groups(positions, shifted, groups, seeds):
    return [
        refine_proposal(positions, shifted, members, int(seed))
        for seed, members in zip(seeds, groups)
    ]


def _merge_case(rng, case):
    """A random merge input: lattice coordinates in even cases (exact
    distance ties), windows over 1 024 points in every eighth case,
    non-contiguous and negative cluster ids mixed with NOISE, overlapping
    and repeated members, small label pools with IGNORE (majority ties),
    in every fifth case a far instance claiming a subset of another's
    points, which it loses, and in some cases infinite or NaN distances."""
    n = int(rng.integers(1025, 2500)) if case % 8 == 0 else int(rng.integers(1, 60))
    lattice = case % 2 == 0

    def coords(size):
        return rng.integers(-3, 4, (size, 3)).astype(float) if lattice else rng.normal(0, 2, (size, 3))

    centers = coords(n)
    proposals = []
    for _ in range(int(rng.integers(0, 25))):
        members = rng.integers(0, n, int(rng.integers(1, max(2, n // 3) + 1)))
        if rng.random() < 0.7:
            members = np.unique(members)  # else repeats stay, as raw claims
        center = coords(1)[0]
        proposals.append(Proposal(int(members[0]), members, center, 0.0, np.zeros(3), center.copy()))
    pool = np.array([NOISE, -7, -3, 0, 2, 5, 40])
    cluster_ids = rng.choice(pool[: int(rng.integers(1, len(pool) + 1))], len(proposals))
    if case % 5 == 0 and proposals:
        near = proposals[0]
        far = near.refined_center + 100.0
        proposals.append(Proposal(near.seed_index, near.member_indices[::2], far, 0.0, np.zeros(3), far))
        cluster_ids = np.append(cluster_ids, 77)
    if case % 7 == 3:
        # Squared distances overflow to inf; such claims never win.
        centers *= 1e160
        centers[rng.random(n) < 0.2] = np.inf
        proposals = [replace(p, refined_center=p.refined_center * 1e160) for p in proposals]
    if case % 7 == 5 and proposals:
        # An instance whose center averages +inf and -inf is NaN: its claims
        # never win, even against finite ones.
        for sign in (1.0, -1.0):
            proposals.append(replace(proposals[0], refined_center=np.array([sign * np.inf, 0.0, 0.0])))
            cluster_ids = np.append(cluster_ids, 88)
    labels = rng.choice(rng.choice(np.arange(IGNORE, 19), int(rng.integers(1, 5)), replace=False), n)
    thing_mask = np.zeros(19, dtype=bool)
    thing_mask[:8] = True
    return centers, proposals, cluster_ids, labels, thing_mask


class TestMergeAndAssign:
    def _run_two_object_scene(self):
        rng = np.random.default_rng(14)
        a = rng.normal([0, 0, 0], 0.2, (40, 3))
        b = rng.normal([6, 0, 0], 0.2, (40, 3))
        stuff = rng.uniform(-10, 10, (80, 3))
        stuff[:, 2] = -5.0 + 0.05 * stuff[:, 2]  # thin ground layer far below
        positions = np.concatenate([a, b, stuff])
        gt_instance = np.concatenate([np.full(40, 1), np.full(40, 2), np.zeros(80, dtype=int)])
        semantic = np.concatenate([np.full(40, 0), np.full(40, 5), np.full(80, 8)])
        centers_true = np.concatenate(
            [np.tile(a.mean(axis=0), (40, 1)), np.tile(b.mean(axis=0), (40, 1)), stuff]
        )
        shifted = shift_to_centers(positions, centers_true - positions)
        seeds = farthest_point_sample(shifted, 30)
        groups = radius_group(shifted[seeds], shifted, 0.6)
        proposals = _proposals_from_groups(positions, shifted, groups, seeds)
        cluster_ids = dbscan(np.stack([p.embedding for p in proposals]), 1.0, 1)
        thing_mask = np.zeros(19, dtype=bool)
        thing_mask[:8] = True
        seg = merge_and_assign(shifted, proposals, cluster_ids, semantic, thing_mask)
        return seg, gt_instance, semantic

    def test_oracle_scene_recovers_instances_exactly(self):
        seg, gt_instance, semantic = self._run_two_object_scene()
        thing_ids = set(seg.instance[gt_instance > 0].tolist())
        assert len(thing_ids) == 2 and 0 not in thing_ids
        for gid in (1, 2):
            members = gt_instance == gid
            got = set(np.flatnonzero(seg.instance == seg.instance[np.flatnonzero(members)[0]]))
            assert got == set(np.flatnonzero(members))
        assert np.array_equal(seg.semantic, semantic)
        assert seg.uncovered_thing_points == 0

    def test_zero_proposals_means_no_instances(self):
        labels = np.full(5, 8)
        thing_mask = np.zeros(19, dtype=bool)
        thing_mask[:8] = True
        seg = merge_and_assign(np.zeros((5, 3)), [], np.zeros(0, dtype=int), labels, thing_mask)
        assert seg.instance.tolist() == [0] * 5

    def test_equidistant_claim_goes_to_lower_instance_id(self):
        positions = np.array([[0.0, 0, 0], [2.0, 0, 0], [1.0, 0, 0]])
        shifted = positions.copy()
        labels = np.zeros(3, dtype=int)  # all "car"
        thing_mask = np.zeros(19, dtype=bool)
        thing_mask[:8] = True
        proposals = [
            refine_proposal(positions, shifted, [0, 2], 0),
            refine_proposal(positions, shifted, [1, 2], 1),
        ]
        cluster_ids = np.array([0, 1])  # two separate instances
        seg = merge_and_assign(shifted, proposals, cluster_ids, labels, thing_mask)
        assert seg.instance[2] == seg.instance[0] == 1
        assert seg.instance[1] == 2
        assert seg.contested_points == 1

    def test_matches_loop_oracle_on_seeded_suite(self):
        rng = np.random.default_rng(2209)
        raised = contested = demoted = large = 0
        for case in range(400):
            args = _merge_case(rng, case)
            large += len(args[0]) > 1024
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    want = merge_oracle(*args)
                except EmptyAfterFilter:
                    raised += 1
                    with pytest.raises(EmptyAfterFilter):
                        merge_and_assign(*args)
                    continue
                seg = merge_and_assign(*args)
            assert np.array_equal(seg.semantic, want[0]), case
            assert np.array_equal(seg.instance, want[1]), case
            assert seg.uncovered_thing_points == want[2], case
            assert (seg.instances_demoted, seg.contested_points) == want[3:], case
            contested += want[4] > 0
            demoted += want[3] > 0
        assert large == 50
        assert raised < 40 and contested > 200 and demoted > 100

    def test_all_ignore_instance_raises_in_both(self):
        positions = np.array([[0.0, 0, 0], [0.1, 0, 0], [5.0, 0, 0]])
        labels = np.array([0, 0, IGNORE])
        thing_mask = np.zeros(19, dtype=bool)
        thing_mask[:8] = True
        proposals = [
            refine_proposal(positions, positions, [0, 1], 0),
            refine_proposal(positions, positions, [2], 2),
        ]
        args = (positions, proposals, np.array([0, 1]), labels, thing_mask)
        with pytest.raises(EmptyAfterFilter):
            merge_oracle(*args)
        with pytest.raises(EmptyAfterFilter):
            merge_and_assign(*args)

    def test_partition_and_contiguous_ids(self):
        rng = np.random.default_rng(15)
        positions = rng.uniform(-5, 5, (120, 3))
        shifted = positions + rng.normal(0, 0.2, (120, 3))
        labels = rng.integers(0, 19, 120)
        thing_mask = np.zeros(19, dtype=bool)
        thing_mask[:8] = True
        seeds = farthest_point_sample(shifted, 10)
        groups = radius_group(shifted[seeds], shifted, 2.0)
        proposals = _proposals_from_groups(positions, shifted, groups, seeds)
        cluster_ids = dbscan(np.stack([p.embedding for p in proposals]), 1.5, 1)
        seg = merge_and_assign(shifted, proposals, cluster_ids, labels, thing_mask)
        used = np.unique(seg.instance[seg.instance > 0])
        assert np.array_equal(used, np.arange(1, len(used) + 1))
        assert len(seg.instance) == 120

    def test_stuff_majority_cluster_demoted(self):
        positions = np.array([[0.0, 0, 0], [0.1, 0, 0], [0.2, 0, 0]])
        labels = np.array([8, 8, 0])  # road, road, car
        thing_mask = np.zeros(19, dtype=bool)
        thing_mask[:8] = True
        proposals = [refine_proposal(positions, positions, [0, 1, 2], 0)]
        seg = merge_and_assign(positions, proposals, np.array([0]), labels, thing_mask)
        assert seg.instance.tolist() == [0, 0, 0]
        assert seg.semantic.tolist() == [8, 8, 0]  # points keep their own argmax
        assert seg.uncovered_thing_points == 1
        assert seg.instances_demoted == 1

    def test_noise_proposals_become_singleton_clusters(self):
        positions = np.array([[0.0, 0, 0], [5.0, 0, 0]])
        labels = np.zeros(2, dtype=int)
        thing_mask = np.zeros(19, dtype=bool)
        thing_mask[:8] = True
        proposals = [
            refine_proposal(positions, positions, [0], 0),
            refine_proposal(positions, positions, [1], 1),
        ]
        seg = merge_and_assign(positions, proposals, np.array([NOISE, NOISE]), labels, thing_mask)
        assert seg.instance.tolist() == [1, 2]

    def test_shared_instance_semantics(self):
        # Points absorbed into a thing instance take the majority label.
        positions = np.array([[0.0, 0, 0], [0.1, 0, 0], [0.2, 0, 0]])
        labels = np.array([0, 0, 8])  # car, car, road
        thing_mask = np.zeros(19, dtype=bool)
        thing_mask[:8] = True
        proposals = [refine_proposal(positions, positions, [0, 1, 2], 0)]
        seg = merge_and_assign(positions, proposals, np.array([0]), labels, thing_mask)
        assert seg.semantic.tolist() == [0, 0, 0]
        assert len(set(seg.instance.tolist())) == 1


class TestHuberCenterLoss:
    def test_perfect_offsets_zero_loss(self):
        pts = np.random.default_rng(16).normal(size=(10, 3))
        loss = huber_center_loss(pts, pts, np.ones(10, dtype=bool))
        assert loss.value == 0.0
        assert loss.defined

    def test_quadratic_branch(self):
        pred = np.array([[0.5, 0.0, 0.0]])
        true = np.zeros((1, 3))
        loss = huber_center_loss(pred, true, np.array([True]), delta=1.0)
        assert abs(loss.value - 0.125) < 1e-15

    def test_linear_branch(self):
        pred = np.array([[2.0, 0.0, 0.0]])
        true = np.zeros((1, 3))
        loss = huber_center_loss(pred, true, np.array([True]), delta=1.0)
        assert abs(loss.value - 1.5) < 1e-15

    def test_masking_property_bitwise(self):
        rng = np.random.default_rng(17)
        pred = rng.normal(size=(30, 3))
        true = rng.normal(size=(30, 3))
        mask = rng.random(30) < 0.6
        base = huber_center_loss(pred, true, mask)
        extra_pred = np.concatenate([pred, rng.normal(size=(20, 3)) * 100])
        extra_true = np.concatenate([true, rng.normal(size=(20, 3))])
        extra_mask = np.concatenate([mask, np.zeros(20, dtype=bool)])
        appended = huber_center_loss(extra_pred, extra_true, extra_mask)
        assert appended.value == base.value  # exact, not approximate
        assert appended.n_points == base.n_points

    def test_no_thing_points_flagged(self):
        loss = huber_center_loss(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros(3, dtype=bool))
        assert loss.value == 0.0
        assert not loss.defined

    def test_against_python_oracle(self):
        rng = np.random.default_rng(18)
        pred = rng.normal(size=(200, 3)) * 2
        true = rng.normal(size=(200, 3))
        mask = rng.random(200) < 0.5
        delta = 0.8
        values = []
        for p, t, m in zip(pred, true, mask):
            if not m:
                continue
            a = float(np.sqrt(((p - t) ** 2).sum()))
            values.append(0.5 * a * a if a <= delta else delta * (a - 0.5 * delta))
        expected = sum(values) / len(values)
        got = huber_center_loss(pred, true, mask, delta=delta)
        assert abs(got.value - expected) < 1e-12


class TestAggregationDiagnostics:
    def test_exact_cover_has_tiny_errors(self):
        rng = np.random.default_rng(19)
        member_positions = rng.normal([3, 1, 0], 0.5, (50, 3))
        positions = np.concatenate([member_positions, rng.normal([20, 0, 0], 0.5, (30, 3))])
        gt = np.concatenate([np.full(50, 4), np.zeros(30, dtype=int)])
        centroid = member_positions.mean(axis=0)
        shifted = positions.copy()
        shifted[:50] = centroid
        proposal = refine_proposal(positions, shifted, np.arange(50), 0)
        diags, unmatched = aggregation_diagnostics(positions, [proposal], gt)
        assert unmatched == []
        assert diags[0].gt_instance_id == 4
        assert diags[0].center_error < 1e-6
        assert diags[0].radius_error < 1e-6
        assert diags[0].bbox_error < 1e-6

    def test_no_instance_overlap_reported_unmatched(self):
        positions = np.zeros((4, 3))
        gt = np.zeros(4, dtype=int)
        proposal = refine_proposal(positions, positions, [0, 1], 0)
        diags, unmatched = aggregation_diagnostics(positions, [proposal], gt)
        assert diags == []
        assert unmatched == [0]

    def test_shifted_center_error_is_one(self):
        positions = np.random.default_rng(20).normal(size=(20, 3))
        gt = np.ones(20, dtype=int)
        centroid = positions.mean(axis=0)
        proposal = Proposal(
            seed_index=0,
            member_indices=np.arange(20),
            refined_center=centroid + np.array([1.0, 0.0, 0.0]),
            refined_radius=0.0,
            bbox=np.zeros(3),
            embedding=centroid,
        )
        diags, _ = aggregation_diagnostics(positions, [proposal], gt)
        assert abs(diags[0].center_error - 1.0) < 1e-12

    def test_plurality_owner_ties_break_low(self):
        positions = np.zeros((4, 3))
        gt = np.array([1, 1, 2, 2])
        proposal = refine_proposal(positions, positions, [0, 1, 2, 3], 0)
        diags, _ = aggregation_diagnostics(positions, [proposal], gt)
        assert diags[0].gt_instance_id == 1
