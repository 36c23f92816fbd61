"""Proposal stage oracles: FPS, grouping, refinement, DBSCAN, merging, losses."""

import re
from collections import deque

import numpy as np
import pytest

from panseg4d import proposal_engine
from panseg4d.errors import EmptyInput, LengthMismatch, NonFiniteValue
from panseg4d.proposal_engine import (
    _GROUP_CELL_HAIR,
    _GROUP_CHUNK_SHARE,
    NOISE,
    covering_bound,
    covering_prefix,
    dbscan,
    farthest_point_sample,
    huber_center_loss,
    merge_and_assign,
    radius_group,
    refine_proposal,
    shift_to_centers,
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


def fps_stop_oracle(points: np.ndarray, count: int, radius: float) -> np.ndarray:
    """Greedy max-min selection of at most ``count`` points that stops
    before the first pick whose distance to the selected set is at most
    ``radius``."""
    pts = np.asarray(points, dtype=np.float64)
    selected = [int(np.argmax(((pts - pts.mean(axis=0)) ** 2).sum(axis=-1)))]
    min_d2 = ((pts - pts[selected[0]]) ** 2).sum(axis=-1)
    min_d2[selected] = -np.inf
    while len(selected) < min(count, len(pts)):
        nxt = int(np.argmax(min_d2))
        if min_d2[nxt] <= radius * radius:
            break
        selected.append(nxt)
        np.minimum(min_d2, ((pts - pts[nxt]) ** 2).sum(axis=-1), out=min_d2)
        min_d2[selected] = -np.inf
    return np.array(selected, dtype=np.int64)


def prefix_cloud(rng: np.random.Generator, case: int, radius: float) -> np.ndarray:
    """Seeded clouds for the covering prefix: uniform, lattice points exactly
    ``radius`` apart, tight vote clumps, duplicated rows and single points."""
    n = 1 if case % 11 == 0 else int(rng.integers(2, 300))
    kind = case % 4
    if kind == 0:
        return rng.uniform(-5, 5, (n, 3))
    if kind == 1:
        return rng.integers(-4, 5, (n, 3)) * radius
    if kind == 2:
        centers = rng.uniform(-8, 8, (int(rng.integers(1, 8)), 3))
        return centers[rng.integers(0, len(centers), n)] + rng.normal(0, radius / 4, (n, 3))
    pts = rng.uniform(-3, 3, (n, 3))
    pts[rng.choice(n, n // 2, replace=False)] = pts[0]
    return pts


def on_x_axis(xs) -> np.ndarray:
    """1- or 2-column items as the (n, 3) items dbscan takes: zero columns
    added at the right leave every squared distance the same bits."""
    items = np.asarray(xs, dtype=np.float64).reshape(len(xs), -1)
    return np.pad(items, ((0, 0), (0, 3 - items.shape[1])))


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


def dbscan_loop_oracle(embeddings, eps: float, min_pts: int) -> np.ndarray:
    """Ascending-index breadth-first DBSCAN, one distance row per visited
    item: cluster ids in discovery order, borders to the first cluster that
    reaches them, NOISE items adopted when a later cluster reaches them."""
    items = np.asarray(embeddings, dtype=np.float64)
    if items.ndim == 1:
        items = items.reshape(-1, 1)
    n = len(items)
    eps2 = eps * eps
    labels = np.full(n, -2, dtype=np.int64)  # -2 = unvisited
    next_cluster = 0
    for i in range(n):
        if labels[i] != -2:
            continue
        neighbors = np.flatnonzero(((items - items[i]) ** 2).sum(axis=1) <= eps2)
        if neighbors.size < min_pts:
            labels[i] = NOISE
            continue
        cluster = next_cluster
        next_cluster += 1
        labels[i] = cluster
        queue = deque(int(j) for j in neighbors)
        while queue:
            j = queue.popleft()
            if labels[j] == NOISE:
                labels[j] = cluster  # border adoption; never expands
                continue
            if labels[j] != -2:
                continue
            labels[j] = cluster
            j_neighbors = np.flatnonzero(((items - items[j]) ** 2).sum(axis=1) <= eps2)
            if j_neighbors.size >= min_pts:
                queue.extend(int(k) for k in j_neighbors)
    return labels


def refine_oracle(predicted_centers, member_indices) -> np.ndarray:
    """One proposal at a time: the mean of its members' predicted centers."""
    members = np.asarray(member_indices, dtype=np.int64).reshape(-1)
    if members.size == 0:
        raise EmptyInput("proposal must have at least one member")
    return np.asarray(predicted_centers, dtype=np.float64)[members].mean(axis=0)


def assert_centers_identical(got, predicted_centers, groups):
    want = np.array([refine_oracle(predicted_centers, g) for g in groups]).reshape(-1, 3)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def merge_oracle(predicted_centers, groups, proposal_centers, cluster_ids, point_labels, thing_mask):
    """One pass over the window per instance: claims resolved instance by
    instance, then one majority vote per instance that kept points; an
    instance whose kept points are all IGNORE is demoted without a vote.

    Returns (semantic, instance, uncovered thing points, instances demoted,
    contested points, all-IGNORE instances demoted).
    """
    centers = np.asarray(predicted_centers, dtype=np.float64).reshape(-1, 3)
    point_semantic = np.asarray(point_labels, dtype=np.int64).reshape(-1)
    n = len(centers)
    clusters: dict[int, list[int]] = {}
    for idx, cid in enumerate(cluster_ids):
        if cid != NOISE:
            clusters.setdefault(int(cid), []).append(idx)
    instances = [clusters[cid] for cid in sorted(clusters)]
    instances.extend([idx] for idx, cid in enumerate(cluster_ids) if cid == NOISE)

    assigned = np.zeros(n, dtype=np.int64)
    best_d2 = np.full(n, np.inf)
    claims = np.zeros(n, dtype=np.int64)
    for instance_id, proposal_idxs in enumerate(instances, start=1):
        rows = np.unique(np.concatenate([groups[p] for p in proposal_idxs]))
        claims[rows] += 1
        center = np.mean([proposal_centers[p] for p in proposal_idxs], axis=0)
        d2 = ((centers[rows] - center) ** 2).sum(axis=-1)
        better = d2 < best_d2[rows]
        assigned[rows[better]] = instance_id
        best_d2[rows[better]] = d2[better]

    semantic = point_semantic.copy()
    final_instance = np.zeros(n, dtype=np.int64)
    next_id = 1
    demoted = unlabelled = 0
    for instance_id in range(1, len(instances) + 1):
        members = np.flatnonzero(assigned == instance_id)
        if members.size == 0:
            continue
        if (point_semantic[members] == IGNORE).all():
            demoted += 1
            unlabelled += 1
            continue
        label = majority_label(point_semantic[members])
        if not thing_mask[label]:
            demoted += 1
            continue
        final_instance[members] = next_id
        semantic[members] = label
        next_id += 1
    uncovered = sum(
        1 for label, instance in zip(semantic, final_instance)
        if label != IGNORE and thing_mask[label] and instance == 0
    )
    return semantic, final_instance, uncovered, demoted, int((claims > 1).sum()), unlabelled


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
        # Tie-heavy clouds: lattices, flat, collinear and all-identical ones,
        # with picks up to the point count where only duplicates remain.
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
            count = int(rng.integers(1, n + 1))
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
        # Exact picks on large clouds built to tie: lattice coordinates with
        # a non-representable spacing, duplicates, and a dense clump that
        # ties at distance zero once it is reached.
        rng = np.random.default_rng(7)
        for n, count in ((2000, 40), (40_000, 60), (44_000, 90)):
            lattice = rng.integers(-40, 41, (n, 3)) * 0.1
            lattice[rng.choice(n, n // 10, replace=False)] = lattice[: n // 10]
            lattice[-50:] = lattice[-1]
            assert np.array_equal(farthest_point_sample(lattice, count), fps_oracle_light(lattice, count))
            cloud = rng.uniform(-100, 100, (n, 3))
            assert np.array_equal(farthest_point_sample(cloud, count), fps_oracle_light(cloud, count))

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


class TestCoveringPrefix:
    RADII = (0.5, 0.6, 1.0)

    def test_matches_sampling_that_stops_at_the_radius(self):
        rng = np.random.default_rng(31)
        for case in range(400):
            radius = self.RADII[case % 3]
            pts = prefix_cloud(rng, case, radius)
            count = int(rng.integers(1, len(pts) + 3))
            picks = farthest_point_sample(pts, count)
            got = picks[: covering_prefix(pts[picks], radius)]
            assert np.array_equal(got, fps_stop_oracle(pts, count, radius))

    def test_row_blocks_do_not_change_the_prefix(self, monkeypatch):
        rng = np.random.default_rng(32)
        cases = []
        for case in range(60):
            radius = self.RADII[case % 3]
            pts = prefix_cloud(rng, case, radius)
            picked = pts[farthest_point_sample(pts, len(pts))]
            cases.append((picked, radius, covering_prefix(picked, radius)))
        for block in (1, 7, 300):
            monkeypatch.setattr(proposal_engine, "_PAIR_BLOCK", block)
            for picked, radius, want in cases:
                assert covering_prefix(picked, radius) == want

    def test_boundary_is_inclusive(self):
        assert covering_prefix(np.array([[0.0, 0, 0], [0.5, 0, 0]]), 0.5) == 1
        assert covering_prefix(np.array([[0.0, 0, 0], [np.nextafter(0.5, 1), 0, 0]]), 0.5) == 2
        assert covering_prefix(np.array([[1.0, 2, 3], [1.0, 2, 3]]), 0.6) == 1
        assert covering_prefix(np.array([[1.0, 2, 3]]), 0.6) == 1

    def test_groups_of_the_prefix_cover_every_sampled_point(self):
        # Seeds sampled from a subset (the thing points) and grouped over the
        # whole cloud in the same space: every sampled point joins a group.
        rng = np.random.default_rng(33)
        for case in range(200):
            radius = self.RADII[case % 3]
            things = prefix_cloud(rng, case, radius)
            stuff = rng.uniform(-10, 10, (int(rng.integers(0, 400)), 3))
            cloud = np.concatenate([things, stuff])
            order = rng.permutation(len(cloud))
            cloud = cloud[order]
            thing = np.flatnonzero(order < len(things))
            picks = thing[farthest_point_sample(cloud[thing], len(thing))]
            seeds = picks[: covering_prefix(cloud[picks], radius)]
            groups = radius_group(cloud[seeds], cloud, radius)
            covered = np.zeros(len(cloud), dtype=bool)
            covered[np.concatenate(groups)] = True
            assert covered[thing].all()


class TestCoveringBound:
    RADII = (0.5, 0.6, 1.0)

    @staticmethod
    def cloud(rng: np.random.Generator, case: int, radius: float) -> np.ndarray:
        """Uniform, lattice at the cell edge radius/sqrt(3), lattice at the
        radius far from the origin, vote clumps, one repeated point, and a
        checkerboard lattice whose points all lie farther than the radius
        apart but closer than it along every axis."""
        n = int(rng.integers(1, 300))
        kind = case % 6
        if kind == 0:
            return prefix_cloud(rng, 0, radius)
        if kind == 1:
            return rng.integers(-4, 5, (n, 3)) * (radius / np.sqrt(3.0))
        if kind == 2:
            return rng.integers(-4, 5, (n, 3)) * radius + 1e4
        if kind == 3:
            return prefix_cloud(rng, 2, radius)
        if kind == 4:
            return np.repeat(rng.uniform(-3, 3, (1, 3)), n, axis=0)
        cells = rng.integers(-4, 5, (n, 3))
        cells = cells[cells.sum(axis=1) % 2 == 0]
        return (cells if len(cells) else np.zeros((1, 3))) * (0.75 * radius) + rng.uniform(-5, 5, 3)

    def test_bounds_the_prefix_and_asking_for_the_bound_keeps_the_prefix(self):
        rng = np.random.default_rng(34)
        for case in range(300):
            radius = self.RADII[case % 3]
            pts = self.cloud(rng, case, radius)
            bound = covering_bound(pts, radius)
            assert covering_prefix(pts[farthest_point_sample(pts, len(pts))], radius) <= bound <= len(pts)
            count = int(rng.integers(1, len(pts) + 3))
            picks = farthest_point_sample(pts, min(count, bound))
            got = picks[: covering_prefix(pts[picks], radius)]
            assert np.array_equal(got, fps_stop_oracle(pts, count, radius))

    def test_points_just_over_the_radius_apart_never_share_a_cell(self):
        for radius in self.RADII:
            step = radius / np.sqrt(3.0) * (1 + 2.0**-16)
            pts = np.array([[0.0, 0, 0], [step, step, step]])
            assert covering_prefix(pts[farthest_point_sample(pts, 2)], radius) == 2
            assert covering_bound(pts, radius) == 2

    def test_widened_grid_falls_back_to_the_point_count(self):
        assert covering_bound(np.array([[0.0, 0, 0], [1e6, 0, 0]]), 0.6) == 2
        # The widened cells would hold the first two points together although
        # both start the covering prefix.
        pts = np.array([[0.0, 0, 0], [0.7, 0, 0], [1e6, 0, 0]])
        assert covering_prefix(pts[farthest_point_sample(pts, 3)], 0.6) == 3
        assert covering_bound(pts, 0.6) == 3

    def test_empty_and_bad_input(self):
        assert covering_bound(np.zeros((0, 3)), 0.6) == 0
        with pytest.raises(ValueError):
            covering_bound(np.zeros((2, 3)), 0.0)
        with pytest.raises(NonFiniteValue):
            covering_bound(np.array([[0.0, 0, 0], [np.nan, 0, 0]]), 0.6)


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
        # The second seed keeps the candidate at ``origin`` inside the seeds'
        # box, so it still sets the grid's origin.
        cands = np.array([[origin, 0.0, 0.0], [c, 0.0, 0.0]])
        groups = radius_group([[s, 0.0, 0.0], [origin, 0.0, 0.0]], cands, radius)
        assert groups[0].tolist() == [1]
        assert groups[1].tolist() == [0]

    def test_members_a_few_ulps_past_the_seed_box_are_kept(self):
        # A candidate 1-6 ulps past fl(s +- r) on one axis can still compute
        # to within the radius; a box grown by the bare radius would drop it.
        rng = np.random.default_rng(13)
        hair_members = 0
        for radius in (0.3, 0.6, 1.0, 1.7):
            seeds = 10.0 ** rng.uniform(-2, 4, (150, 3)) * rng.choice([-1.0, 1.0], (150, 3))
            cands = []
            for seed in seeds:
                for axis in range(3):
                    for sign in (1.0, -1.0):
                        c = seed[axis] + sign * radius
                        for _ in range(6):
                            c = np.nextafter(c, sign * np.inf)
                            cand = seed.copy()
                            cand[axis] = c
                            cands.append(cand)
            cands = np.array(cands)
            for seed in seeds:
                want = np.flatnonzero(((cands - seed) ** 2).sum(axis=-1) <= radius * radius)
                assert np.array_equal(radius_group(seed[None], cands, radius)[0], want)
                hair_members += len(want)
        assert hair_members > 0

    def test_no_candidate_in_the_seed_box_gives_empty_groups(self):
        rng = np.random.default_rng(14)
        cands = rng.uniform(-5.0, 5.0, (500, 3))
        groups = radius_group([[20.0, 0.0, 0.0], [21.0, 3.0, -1.0], [0.0, 0.0, 5.7]], cands, 0.6)
        assert len(groups) == 3
        for group in groups:
            assert group.dtype == np.int64 and group.size == 0

    def test_all_in_box_and_partly_culled_candidates_match_bruteforce(self):
        rng = np.random.default_rng(15)
        radius = 0.8
        cands = rng.uniform(-6.0, 6.0, (4000, 3))
        # Seeds at the corners keep every candidate, a few clustered seeds a
        # small share, and seeds left of x = 2 most but not all of them.
        for seeds in (
            np.array([[-6.0, -6.0, -6.0], [6.0, 6.0, 6.0], [0.0, 0.0, 0.0]]),
            rng.uniform(1.0, 2.5, (5, 3)),
            cands[cands[:, 0] < 2.0][:40],
        ):
            groups = radius_group(seeds, cands, radius)
            for seed, group in zip(seeds, groups):
                want = np.flatnonzero(((cands - seed) ** 2).sum(axis=-1) <= radius * radius)
                assert group.dtype == np.int64
                assert np.array_equal(group, want)

    def test_grid_in_a_box_holds_only_the_points_inside_when_it_leaves_out_half(self):
        rng = np.random.default_rng(16)
        pts = rng.uniform(-4.0, 4.0, (3000, 3))
        # Every side crossed; one side crossed, keeping under and over half
        # of the points; no side crossed; none inside. A box keeping more
        # than half leaves the grid holding every point.
        for lo, hi in (
            ([-1.0, -2.0, 0.5], [1.5, 0.0, 3.0]),
            ([-9.0, -9.0, -9.0], [9.0, 9.0, -1.0]),
            ([-9.0, -9.0, -9.0], [9.0, 9.0, 2.0]),
            ([-9.0, -9.0, -9.0], [9.0, 9.0, 9.0]),
            ([5.0, 5.0, 5.0], [6.0, 6.0, 6.0]),
        ):
            lo, hi = np.array(lo), np.array(hi)
            grid = proposal_engine._VoxelGrid(pts, 0.7, within=(lo, hi))
            inside = np.flatnonzero(((pts >= lo) & (pts <= hi)).all(axis=1))
            held = inside if 2 * len(inside) <= len(pts) else np.arange(len(pts))
            assert len(grid.keys) == len(held)
            assert np.array_equal(np.sort(grid.order), held)
            assert np.all(np.diff(grid.keys) >= 0)
            same_cell = np.diff(grid.keys) == 0
            assert np.all(np.diff(grid.order)[same_cell] > 0)
            assert np.array_equal(grid.x, pts[grid.order, 0])
            assert np.array_equal(grid.z, pts[grid.order, 2])

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
        centers = refine_proposal(position, [[0]])
        assert np.array_equal(centers, position)

    def test_two_member_arithmetic(self):
        pts = np.array([[0.0, 0, 0], [2.0, 0, 0]])
        centers = refine_proposal(pts, [[0, 1]])
        assert centers.tolist() == [[1.0, 0.0, 0.0]]

    def test_random_members_match_mean_max_extent_oracle(self):
        rng = np.random.default_rng(11)
        shifted = rng.normal(size=(40, 3))
        members = rng.choice(40, size=15, replace=False)
        (center,) = refine_proposal(shifted, [members])
        want = np.array([shifted[members][:, c].mean() for c in range(3)])
        assert np.abs(center - want).max() < 1e-12

    def test_empty_members_rejected(self):
        with pytest.raises(EmptyInput):
            refine_proposal(np.zeros((2, 3)), [[]])

    def test_empty_group_among_nonempty_rejected(self):
        with pytest.raises(EmptyInput, match="proposal 1"):
            refine_proposal(np.zeros((3, 3)), [[0, 1], [], [2]])

    def test_no_groups_gives_no_proposals(self):
        centers = refine_proposal(np.zeros((3, 3)), [])
        assert centers.shape == (0, 3)

    def test_matches_per_proposal_oracle(self):
        # Windows with duplicate coordinates (lattice values), single-member
        # and repeated-member groups, groups found by grouping in shifted
        # space at small and large radii, as the pipeline does, and enough
        # members that the chunked gather splits groups across chunks.
        rng = np.random.default_rng(31)
        chunked = 0
        for case in range(300):
            n = int(rng.integers(1, 400))
            if case % 2:
                positions = rng.integers(-2, 3, (n, 3)).astype(float)
                shifted = positions + rng.integers(-1, 2, (n, 3)) * 0.5
            else:
                positions = rng.normal(0, 3, (n, 3)) * 10.0 ** rng.integers(-3, 4)
                shifted = positions + rng.normal(0, 0.3, (n, 3))
            seeds = rng.integers(0, n, int(rng.integers(1, 40)))
            if case % 3 == 0:
                groups = radius_group(shifted[seeds], shifted, float(rng.uniform(0.3, 3.0)))
            elif case % 3 == 1:
                groups = radius_group(shifted[seeds], shifted, float(rng.uniform(3.0, 30.0)))
            else:
                groups = [rng.integers(0, n, int(rng.integers(1, 2 * n + 2))) for _ in seeds]
            sizes = np.array([len(g) for g in groups])
            chunked += int(sizes.sum() > max(n // _GROUP_CHUNK_SHARE, 1) and len(groups) > 1)
            assert_centers_identical(refine_proposal(shifted, groups), shifted, groups)
        assert chunked > 100

    def test_large_group_center_sums_like_mean(self):
        rng = np.random.default_rng(32)
        positions = rng.normal(0, 50, (20_000, 3))
        shifted = positions + rng.normal(0, 1, (20_000, 3))
        groups = [np.arange(20_000), rng.integers(0, 20_000, 7_000), np.array([5, 5, 5])]
        assert_centers_identical(refine_proposal(shifted, groups), shifted, groups)


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
        xs = on_x_axis([-1.0, -0.9, -0.5, 0.0, 0.5, 0.9, 1.0])
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

    def test_nonfinite_eps_rejected(self):
        for eps in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                dbscan(np.zeros((2, 3)), eps=eps, min_pts=1)

    def test_nonfinite_embeddings_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            items = np.zeros((4, 3))
            items[2, 1] = bad
            with pytest.raises(NonFiniteValue, match="row 2"):
                dbscan(items, eps=1.0, min_pts=1)
        with pytest.raises(NonFiniteValue, match="row 0"):
            dbscan(on_x_axis([np.nan, 0.0]), eps=1.0, min_pts=1)

    def test_empty_input(self):
        labels = dbscan(np.zeros((0, 3)), eps=1.0, min_pts=2)
        assert labels.dtype == np.int64 and labels.shape == (0,)

    def test_items_other_than_3_columns_rejected(self):
        # A flat array whose length divides by 3 is not read as rows of 3.
        for items in (np.zeros(6), np.zeros(0), np.zeros((4, 2)), np.zeros((2, 4)), np.zeros((2, 3, 1))):
            with pytest.raises(LengthMismatch, match=re.escape(f"got shape {items.shape}")):
                dbscan(items, eps=1.0, min_pts=1)

    def test_matches_loop_oracle_ids(self):
        # Exact ids, not just partitions: items on a line, in a plane and in
        # space, lattice items exactly eps apart, and densities from
        # all-core to sparse.
        rng = np.random.default_rng(33)
        for case in range(600):
            n = int(rng.integers(1, 120))
            dims = 1 + case % 3
            if case % 2:
                items = on_x_axis(rng.integers(-4, 5, (n, dims)).astype(float))
                eps = float(rng.choice([1.0, 2.0, np.sqrt(2.0)]))
            else:
                items = on_x_axis(rng.uniform(-3, 3, (n, dims)))
                eps = float(rng.uniform(0.2, 1.5))
            min_pts = int(rng.integers(1, 7))
            got = dbscan(items, eps, min_pts)
            want = dbscan_loop_oracle(items, eps, min_pts)
            assert np.array_equal(got, want), (case, got, want)
            assert partitions_equal(got, dbscan_oracle(items, eps, min_pts))

    def test_shared_border_takes_the_lower_cluster(self):
        # At min_pts=4 the item at 2.0 has three neighbours, the cores at 1.0
        # and 3.0 of two dense runs: it is a border of both. Whether it is
        # visited before the runs (and first marked NOISE) or between them,
        # it joins the run holding the lowest core index.
        run_a, border, run_b = [0.0, 0.3, 0.6, 1.0], [2.0], [3.0, 3.4, 3.7, 4.0]
        for xs, expected in (
            (run_a + border + run_b, [0, 0, 0, 0, 0, 1, 1, 1, 1]),
            (run_b + border + run_a, [0, 0, 0, 0, 0, 1, 1, 1, 1]),
            (border + run_b + run_a, [0, 0, 0, 0, 0, 1, 1, 1, 1]),
            (run_a + run_b + border, [0, 0, 0, 0, 1, 1, 1, 1, 0]),
        ):
            labels = dbscan(on_x_axis(xs), eps=1.0, min_pts=4)
            assert labels.tolist() == expected
            assert np.array_equal(labels, dbscan_loop_oracle(on_x_axis(xs), 1.0, 4))

    def test_noise_item_adopted_by_later_cluster(self):
        # Item 0 has too few neighbours when first visited and is marked
        # NOISE; the cluster found from item 1 reaches it later.
        xs = on_x_axis([0.0, 1.9, 1.0, 1.5, 1.2, 9.0])
        labels = dbscan(xs, eps=1.0, min_pts=4)
        assert np.array_equal(labels, dbscan_loop_oracle(xs, 1.0, 4))
        assert labels.tolist() == [0, 0, 0, 0, 0, NOISE]

    def test_long_shuffled_chain_is_one_cluster(self):
        # 2000 items spaced just under eps along a line, in random index
        # order: the longest path labels have to travel through the core
        # graph.
        rng = np.random.default_rng(34)
        order = rng.permutation(2000)
        items = np.zeros((2000, 3))
        items[order, 0] = np.arange(2000) * 0.999
        labels = dbscan(items, eps=1.0, min_pts=2)
        assert np.array_equal(labels, np.zeros(2000, dtype=np.int64))
        assert np.array_equal(labels, dbscan_loop_oracle(items, 1.0, 2))


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
    groups, proposal_centers = [], []
    for _ in range(int(rng.integers(0, 25))):
        members = rng.integers(0, n, int(rng.integers(1, max(2, n // 3) + 1)))
        if rng.random() < 0.7:
            members = np.unique(members)  # else repeats stay, as raw claims
        groups.append(members)
        proposal_centers.append(coords(1)[0])
    pool = np.array([NOISE, -7, -3, 0, 2, 5, 40])
    cluster_ids = rng.choice(pool[: int(rng.integers(1, len(pool) + 1))], len(groups))
    if case % 5 == 0 and groups:
        groups.append(groups[0][::2])
        proposal_centers.append(proposal_centers[0] + 100.0)
        cluster_ids = np.append(cluster_ids, 77)
    proposal_centers = np.array(proposal_centers).reshape(-1, 3)
    if case % 7 == 3:
        # Squared distances overflow to inf; such claims never win.
        centers *= 1e160
        centers[rng.random(n) < 0.2] = np.inf
        proposal_centers *= 1e160
    if case % 7 == 5 and groups:
        # An instance whose center averages +inf and -inf is NaN: its claims
        # never win, even against finite ones.
        for sign in (1.0, -1.0):
            groups.append(groups[0])
            proposal_centers = np.vstack([proposal_centers, [sign * np.inf, 0.0, 0.0]])
            cluster_ids = np.append(cluster_ids, 88)
    labels = rng.choice(rng.choice(np.arange(IGNORE, 19), int(rng.integers(1, 5)), replace=False), n)
    thing_mask = np.zeros(19, dtype=bool)
    thing_mask[:8] = True
    return centers, groups, proposal_centers, cluster_ids, labels, thing_mask


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
        proposal_centers = refine_proposal(shifted, groups)
        cluster_ids = dbscan(proposal_centers, 1.0, 1)
        thing_mask = np.zeros(19, dtype=bool)
        thing_mask[:8] = True
        seg = merge_and_assign(shifted, groups, proposal_centers, cluster_ids, semantic, thing_mask)
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
        no_centers, no_ids = np.zeros((0, 3)), np.zeros(0, dtype=int)
        seg = merge_and_assign(np.zeros((5, 3)), [], no_centers, no_ids, labels, thing_mask)
        assert seg.instance.tolist() == [0] * 5

    def test_per_proposal_lengths_must_match(self):
        thing_mask = np.zeros(19, dtype=bool)
        thing_mask[:8] = True
        groups = [np.array([0, 1]), np.array([2])]
        labels = np.zeros(3, dtype=int)
        for proposal_centers, cluster_ids in (
            (np.zeros((2, 3)), np.zeros(1, dtype=int)),
            (np.zeros((1, 3)), np.zeros(2, dtype=int)),
            (np.zeros((3, 3)), np.zeros(3, dtype=int)),
        ):
            with pytest.raises(LengthMismatch, match="2 member groups"):
                merge_and_assign(np.zeros((3, 3)), groups, proposal_centers, cluster_ids, labels, thing_mask)

    def test_equidistant_claim_goes_to_lower_instance_id(self):
        positions = np.array([[0.0, 0, 0], [2.0, 0, 0], [1.0, 0, 0]])
        shifted = positions.copy()
        labels = np.zeros(3, dtype=int)  # all "car"
        thing_mask = np.zeros(19, dtype=bool)
        thing_mask[:8] = True
        groups = [[0, 2], [1, 2]]
        cluster_ids = np.array([0, 1])  # two separate instances
        proposal_centers = refine_proposal(shifted, groups)
        seg = merge_and_assign(shifted, groups, proposal_centers, cluster_ids, labels, thing_mask)
        assert seg.instance[2] == seg.instance[0] == 1
        assert seg.instance[1] == 2
        assert seg.contested_points == 1

    def test_matches_loop_oracle_on_seeded_suite(self):
        rng = np.random.default_rng(2209)
        unlabelled = contested = demoted = large = 0
        for case in range(400):
            args = _merge_case(rng, case)
            large += len(args[0]) > 1024
            with np.errstate(over="ignore", invalid="ignore"):
                want = merge_oracle(*args)
                seg = merge_and_assign(*args)
            assert np.array_equal(seg.semantic, want[0]), case
            assert np.array_equal(seg.instance, want[1]), case
            assert seg.uncovered_thing_points == want[2], case
            assert (seg.instances_demoted, seg.contested_points) == want[3:5], case
            contested += want[4] > 0
            demoted += want[3] > 0
            unlabelled += want[5] > 0
        assert large == 50
        assert 0 < unlabelled < 40 and contested > 200 and demoted > 100

    def test_all_ignore_instance_is_demoted_in_both(self):
        positions = np.array([[0.0, 0, 0], [0.1, 0, 0], [5.0, 0, 0], [5.1, 0, 0]])
        labels = np.array([0, 0, IGNORE, IGNORE])
        thing_mask = np.zeros(19, dtype=bool)
        thing_mask[:8] = True
        groups = [[0, 1], [2, 3]]
        args = (positions, groups, refine_proposal(positions, groups), np.array([0, 1]), labels, thing_mask)
        want = merge_oracle(*args)
        seg = merge_and_assign(*args)
        # The unlabelled pair stays IGNORE, carries no instance id and is not
        # counted as an uncovered thing point.
        assert seg.semantic.tolist() == want[0].tolist() == [0, 0, IGNORE, IGNORE]
        assert seg.instance.tolist() == want[1].tolist() == [1, 1, 0, 0]
        assert seg.uncovered_thing_points == want[2] == 0
        assert seg.instances_demoted == want[3] == want[5] == 1

    def test_partition_and_contiguous_ids(self):
        rng = np.random.default_rng(15)
        positions = rng.uniform(-5, 5, (120, 3))
        shifted = positions + rng.normal(0, 0.2, (120, 3))
        labels = rng.integers(0, 19, 120)
        thing_mask = np.zeros(19, dtype=bool)
        thing_mask[:8] = True
        seeds = farthest_point_sample(shifted, 10)
        groups = radius_group(shifted[seeds], shifted, 2.0)
        proposal_centers = refine_proposal(shifted, groups)
        cluster_ids = dbscan(proposal_centers, 1.5, 1)
        seg = merge_and_assign(shifted, groups, proposal_centers, cluster_ids, labels, thing_mask)
        used = np.unique(seg.instance[seg.instance > 0])
        assert np.array_equal(used, np.arange(1, len(used) + 1))
        assert len(seg.instance) == 120

    def test_stuff_majority_cluster_demoted(self):
        positions = np.array([[0.0, 0, 0], [0.1, 0, 0], [0.2, 0, 0]])
        labels = np.array([8, 8, 0])  # road, road, car
        thing_mask = np.zeros(19, dtype=bool)
        thing_mask[:8] = True
        groups = [[0, 1, 2]]
        proposal_centers = refine_proposal(positions, groups)
        seg = merge_and_assign(positions, groups, proposal_centers, np.array([0]), labels, thing_mask)
        assert seg.instance.tolist() == [0, 0, 0]
        assert seg.semantic.tolist() == [8, 8, 0]  # points keep their own argmax
        assert seg.uncovered_thing_points == 1
        assert seg.instances_demoted == 1

    def test_noise_proposals_become_singleton_clusters(self):
        positions = np.array([[0.0, 0, 0], [5.0, 0, 0]])
        labels = np.zeros(2, dtype=int)
        thing_mask = np.zeros(19, dtype=bool)
        thing_mask[:8] = True
        groups = [[0], [1]]
        proposal_centers = refine_proposal(positions, groups)
        seg = merge_and_assign(positions, groups, proposal_centers, np.array([NOISE, NOISE]), labels, thing_mask)
        assert seg.instance.tolist() == [1, 2]

    def test_shared_instance_semantics(self):
        # Points absorbed into a thing instance take the majority label.
        positions = np.array([[0.0, 0, 0], [0.1, 0, 0], [0.2, 0, 0]])
        labels = np.array([0, 0, 8])  # car, car, road
        thing_mask = np.zeros(19, dtype=bool)
        thing_mask[:8] = True
        groups = [[0, 1, 2]]
        proposal_centers = refine_proposal(positions, groups)
        seg = merge_and_assign(positions, groups, proposal_centers, np.array([0]), labels, thing_mask)
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
