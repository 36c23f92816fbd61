"""Offset-vote instance proposals: shift, sample, group, refine, merge.

Points are shifted by their predicted offset toward an instance center;
farthest point sampling seeds proposals in the shifted space; points join a
proposal within a fixed grouping radius; proposals are refined to a center,
radius, and box extent by deterministic geometric estimators; DBSCAN over
the proposal embeddings merges proposals that vote for the same object, and
the merged clusters become per-point instance masks with a majority
semantic label.

Distance comparisons use squared Euclidean distances from one exact kernel
at every input size, ((dx*dx + dy*dy) + dz*dz) on contiguous coordinate
columns, so greedy selections and memberships are reproducible bit-for-bit
against reference implementations using ``((a - b) ** 2).sum(axis=-1)``.
Radius grouping and farthest point sampling on large windows find their
candidates through a sorted voxel grid, which narrows the points each query
evaluates and changes no result.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import EmptyInput, LengthMismatch, NonFiniteValue
from .semantic_prior import majority_label

NOISE = -1

DEFAULT_GROUP_RADIUS_M = 0.6
DEFAULT_DBSCAN_EPS_M = 1.0
DEFAULT_DBSCAN_MIN_PTS = 1
DEFAULT_HUBER_DELTA_M = 1.0


def default_proposal_count(n_points: int) -> int:
    """Seeds per window: 100 at desk scale, growing with cloud size."""
    return max(100, n_points // 500)


# Windows at or above this size run farthest point sampling on the voxel
# grid; below it, scanning every point per pick is faster (measured
# crossover in BENCH_grid_index.json).
_FPS_GRID_MIN_POINTS = 40_000
# Target mean occupancy of an FPS grid cell.
_FPS_POINTS_PER_CELL = 64
# Grouping cells are this much wider than the radius, so that rounding in
# the cell coordinates cannot push a point at distance exactly r two cells
# away from its seed.
_GROUP_CELL_HAIR = 1.0 + 2.0**-20
# Grouping gathers seeds' candidates in chunks of at most this share of the
# candidate count (a single seed may exceed it), bounding peak memory.
_GROUP_CHUNK_SHARE = 4
# Neighbour (x, y) columns of a cell; z neighbours are consecutive keys.
_COLUMN_DX = np.repeat(np.arange(-1, 2), 3)
_COLUMN_DY = np.tile(np.arange(-1, 2), 3)


def _sq_dist(
    x: np.ndarray, y: np.ndarray, z: np.ndarray, tx, ty, tz, rows=slice(None)
) -> np.ndarray:
    """Squared distances ((dx*dx + dy*dy) + dz*dz) from the points at ``rows``
    of the coordinate columns x, y, z to targets (scalars or per-row columns)."""
    d = np.subtract(x[rows], tx)
    d *= d
    t = np.subtract(y[rows], ty)
    t *= t
    d += t
    np.subtract(z[rows], tz, out=t)
    t *= t
    d += t
    return d


def _sq_dist_to(points: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Squared distances from every row of (n, 3) ``points`` to ``target``."""
    return _sq_dist(points[:, 0], points[:, 1], points[:, 2], target[0], target[1], target[2])


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + c) over paired starts and counts."""
    ends = np.cumsum(counts)
    return np.repeat(starts - (ends - counts), counts) + np.arange(ends[-1] if len(ends) else 0)


class _VoxelGrid:
    """Points bucketed into cubic cells: integer cell keys, one sort and
    ``searchsorted`` ranges.

    ``order`` lists point indices by (cell key, index), so each occupied
    cell is one contiguous run of positions in which point indices ascend;
    ``keys`` holds the cell key at each position and ``x``, ``y``, ``z`` the
    coordinate columns in that order.
    """

    def __init__(self, points: np.ndarray, edge: float):
        n = len(points)
        columns = list(_columns(points))
        self.origin = np.array([c.min() for c in columns])
        extent = np.array([c.max() for c in columns]) - self.origin
        # Cap the cells per axis so that key * n + index stays inside int64.
        per_axis = int(np.cbrt(2.0**62 / n)) - 2
        self.edge = max(edge, float(extent.max()) / per_axis)
        self.dims = np.floor(extent / self.edge).astype(np.int64) + 1
        keys = np.zeros(n, dtype=np.int64)
        for c, o, d in zip(columns, self.origin, self.dims):
            cell = c - o
            cell /= self.edge
            keys *= d
            keys += np.floor(cell, out=cell).astype(np.int64)
        keys *= n
        keys += np.arange(n)
        keys.sort()
        self.order = keys % n
        keys //= n
        self.keys = keys
        for a in range(3):
            columns[a] = columns[a][self.order]
        self.x, self.y, self.z = columns

    def cells_of(self, points: np.ndarray) -> np.ndarray:
        """Integer cell coordinates of arbitrary (m, 3) points; those beyond
        the grid are clipped to two cells outside it, where no neighbour of
        theirs is occupied."""
        cells = np.floor((points - self.origin) / self.edge)
        np.clip(cells, -2, self.dims + 1, out=cells)
        return cells.astype(np.int64)

    def bounds(self) -> np.ndarray:
        """Start positions of the occupied cells, then the point count."""
        change = np.flatnonzero(self.keys[1:] != self.keys[:-1]) + 1
        return np.concatenate(([0], change, [len(self.keys)]))


def _require_finite(points: np.ndarray, what: str) -> None:
    """Grid cell keys are undefined for NaN or infinite coordinates."""
    if not np.isfinite(points).all():
        bad = int(np.argmax(~np.isfinite(points).all(axis=1)))
        raise NonFiniteValue(f"{what} row {bad} is not finite")


def _columns(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return tuple(np.ascontiguousarray(points[:, a]) for a in range(3))


@dataclass(frozen=True)
class Proposal:
    """A seeded candidate instance with geometric refinements."""

    seed_index: int
    member_indices: np.ndarray  # (k,) int64 point indices
    refined_center: np.ndarray  # (3,)
    refined_radius: float
    bbox: np.ndarray  # (3,) axis-aligned extents
    embedding: np.ndarray  # vector used for merging


@dataclass
class InstanceSegmentation:
    """Per-point semantic train id and instance id (0 = none/stuff)."""

    semantic: np.ndarray  # (n,) int64
    instance: np.ndarray  # (n,) int64
    scope: str = "window"  # "window" | "sequence"
    uncovered_thing_points: int = 0

    def __len__(self) -> int:
        return len(self.semantic)

    def with_instance(self, instance: np.ndarray, scope: str | None = None) -> "InstanceSegmentation":
        return replace(self, instance=instance, scope=scope or self.scope)


class CenterLoss(NamedTuple):
    """Huber center loss value and the number of points it averaged over."""

    value: float
    n_points: int

    @property
    def defined(self) -> bool:
        return self.n_points > 0


def shift_to_centers(positions, offsets) -> np.ndarray:
    """Predicted centers: each point plus its predicted offset.

    ``positions`` may be a plain (n, 3) array or anything exposing a
    ``positions`` attribute (an aggregated cloud).
    """
    pos = np.asarray(getattr(positions, "positions", positions), dtype=np.float64)
    off = np.asarray(offsets, dtype=np.float64)
    if pos.shape != off.shape:
        raise LengthMismatch(f"positions {pos.shape} vs offsets {off.shape}")
    if off.size and not np.isfinite(off).all():
        bad = int(np.argmax(~np.isfinite(off).all(axis=1)))
        raise NonFiniteValue(f"offset row {bad} is not finite")
    return pos + off


def farthest_point_sample(points, count: int) -> np.ndarray:
    """Greedy max-min subset selection.

    The first pick is the point farthest from the centroid; every following
    pick maximizes its distance to the already-selected set. All ties break
    to the lowest index. Returns min(count, n) indices in selection order.
    """
    pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64).reshape(-1, 3))
    n = len(pts)
    if n == 0:
        raise EmptyInput("farthest_point_sample needs at least one point")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    _require_finite(pts, "point")
    m = min(count, n)
    first = int(np.argmax(_sq_dist_to(pts, pts.mean(axis=0))))
    if n < _FPS_GRID_MIN_POINTS:
        return _fps_all_points(pts, first, m)
    return _fps_grid(pts, first, m)


def _fps_all_points(pts: np.ndarray, first: int, m: int) -> np.ndarray:
    """Max-min picks after ``first``, updating every point's distance."""
    x, y, z = _columns(pts)
    selected = np.empty(m, dtype=np.int64)
    selected[0] = first
    min_d2 = _sq_dist(x, y, z, *pts[first])
    min_d2[first] = -np.inf  # selected points never win the argmax again
    for i in range(1, m):
        nxt = int(np.argmax(min_d2))
        selected[i] = nxt
        np.minimum(min_d2, _sq_dist(x, y, z, *pts[nxt]), out=min_d2)
        min_d2[nxt] = -np.inf
    return selected


def _fps_cell_edge(extent: np.ndarray, n: int) -> float:
    """Edge of cells that would hold ``_FPS_POINTS_PER_CELL`` points each if
    the points filled their bounding box, counting an axis thinner than a
    cell as one cell thick."""
    ext = np.sort(extent)[::-1]
    for dim in (3, 2, 1):
        edge = float(np.prod(ext[:dim]) * _FPS_POINTS_PER_CELL / n) ** (1.0 / dim)
        if edge <= ext[dim - 1]:
            break
    return edge or 1.0


def _fps_grid(pts: np.ndarray, first: int, m: int) -> np.ndarray:
    """The picks of ``_fps_all_points``, updating only cells a pick can reach.

    Each cell keeps the max of its points' distance to the selected set and
    the bounding box of its points' real coordinates. A pick rescans a cell
    only if the box's squared distance to it is strictly below that max.
    The box bound goes through the same kernel, and no point's coordinate
    difference to the pick is smaller than the box's, so every skipped
    point's distance to the pick is at least its current one.
    """
    extent = np.array([pts[:, a].max() - pts[:, a].min() for a in range(3)])
    grid = _VoxelGrid(pts, _fps_cell_edge(extent, len(pts)))
    x, y, z = grid.x, grid.y, grid.z
    bounds = grid.bounds()
    starts = bounds[:-1]
    box = [(np.minimum.reduceat(c, starts), np.maximum.reduceat(c, starts)) for c in (x, y, z)]

    selected = np.empty(m, dtype=np.int64)
    selected[0] = first
    min_d2 = _sq_dist(x, y, z, *pts[first])
    pos = int(np.flatnonzero(grid.order == first)[0])
    min_d2[pos] = -np.inf
    cell_max = np.maximum.reduceat(min_d2, starts)
    for i in range(1, m):
        # Lowest index among the points at the global max.
        best = cell_max.max()
        tied = np.flatnonzero(cell_max == best)
        rows = _ranges(starts[tied], bounds[tied + 1] - starts[tied])
        rows = rows[min_d2[rows] == best]
        pos = int(rows[np.argmin(grid.order[rows])])
        selected[i] = grid.order[pos]
        min_d2[pos] = -np.inf
        q = (x[pos], y[pos], z[pos])
        gaps = []
        for (lo, hi), qa in zip(box, q):
            gap = np.maximum(lo - qa, qa - hi)
            gaps.append(np.maximum(gap, 0.0, out=gap))
        lower = _sq_dist(*gaps, 0.0, 0.0, 0.0)
        # Rescan the pick's own cell even at a zero max, so its max drops the pick.
        lower[np.searchsorted(bounds, pos, side="right") - 1] = -np.inf
        hit = np.flatnonzero(lower < cell_max)
        counts = bounds[hit + 1] - starts[hit]
        rows = _ranges(starts[hit], counts)
        d2 = _sq_dist(x, y, z, *q, rows)
        np.minimum(d2, min_d2[rows], out=d2)
        min_d2[rows] = d2
        cell_max[hit] = np.maximum.reduceat(d2, np.cumsum(counts) - counts)
    return selected


def radius_group(seed_points, candidate_points, radius: float) -> list[np.ndarray]:
    """Membership by distance: candidate i joins seed k iff |c_i - s_k| <= radius.

    Returns one ascending int64 index array per seed. A candidate may join
    several groups at this stage; the merge step resolves multiple claims.
    """
    if radius <= 0:
        raise ValueError(f"grouping radius must be positive, got {radius}")
    seeds = np.asarray(seed_points, dtype=np.float64).reshape(-1, 3)
    cands = np.ascontiguousarray(np.asarray(candidate_points, dtype=np.float64).reshape(-1, 3))
    _require_finite(seeds, "seed")
    _require_finite(cands, "candidate")
    n = len(cands)
    if n == 0:
        return [np.empty(0, dtype=np.int64) for _ in seeds]
    grid = _VoxelGrid(cands, radius * _GROUP_CELL_HAIR)
    # Every candidate within the radius lies in the 3x3x3 cells around its
    # seed's cell: nine (x, y) columns, each a run of consecutive z keys.
    cell = grid.cells_of(seeds)
    col_x = cell[:, :1] + _COLUMN_DX
    col_y = cell[:, 1:2] + _COLUMN_DY
    z_lo = np.maximum(cell[:, 2:] - 1, 0)
    z_hi = np.minimum(cell[:, 2:] + 1, grid.dims[2] - 1)
    valid = (col_x >= 0) & (col_x < grid.dims[0]) & (col_y >= 0) & (col_y < grid.dims[1]) & (z_lo <= z_hi)
    column = (col_x * grid.dims[1] + col_y) * grid.dims[2]
    run_lo = np.searchsorted(grid.keys, column + z_lo, side="left")
    run_len = np.where(valid, np.searchsorted(grid.keys, column + z_hi, side="right") - run_lo, 0)
    per_seed = run_len.sum(axis=1)
    reach = np.cumsum(per_seed)

    sx, sy, sz = _columns(seeds)
    budget = max(n // _GROUP_CHUNK_SHARE, 1)
    r2 = radius * radius
    groups: list[np.ndarray] = []
    start = 0
    while start < len(seeds):
        done = reach[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(reach, done + budget, side="right")))
        rows = _ranges(run_lo[start:stop].ravel(), run_len[start:stop].ravel())
        owner = np.repeat(np.arange(start, stop), per_seed[start:stop])
        d2 = _sq_dist(grid.x, grid.y, grid.z, sx[owner], sy[owner], sz[owner], rows)
        keep = d2 <= r2
        owner = owner[keep] - start
        # Seed-major, then ascending candidate index within each seed.
        members = np.sort(owner * n + grid.order[rows[keep]])
        members -= owner * n
        sizes = np.bincount(owner, minlength=stop - start)
        groups.extend(np.split(members, np.cumsum(sizes)[:-1]))
        start = stop
    return groups


def refine_proposal(positions, predicted_centers, member_indices, seed_index: int) -> Proposal:
    """Geometric refinement of one raw proposal.

    Center = mean of the members' predicted centers; radius = max distance
    from that center to the members' positions; bbox = axis-aligned extents
    of the members' positions. The merging embedding is the refined center,
    the smallest stand-in a learned embedding provider could replace.
    """
    members = np.asarray(member_indices, dtype=np.int64).reshape(-1)
    if members.size == 0:
        raise EmptyInput("proposal must have at least one member")
    pos = np.asarray(positions, dtype=np.float64)[members]
    center = np.asarray(predicted_centers, dtype=np.float64)[members].mean(axis=0)
    radius = float(np.sqrt(np.max(_sq_dist_to(pos, center))))
    bbox = pos.max(axis=0) - pos.min(axis=0)
    return Proposal(
        seed_index=int(seed_index),
        member_indices=members,
        refined_center=center,
        refined_radius=radius,
        bbox=bbox,
        embedding=center.copy(),
    )


def dbscan(embeddings, eps: float, min_pts: int) -> np.ndarray:
    """Density-based clustering; returns per-item cluster id or NOISE (-1).

    Core items have at least ``min_pts`` neighbors within ``eps``
    (inclusive, self counted). Clusters are connected components of core
    items plus density-reachable border items; a border item reachable from
    several clusters joins the cluster discovered first under
    ascending-index iteration. Cluster ids count up from 0 in discovery
    order.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")
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


def merge_and_assign(
    predicted_centers,
    proposals: Sequence[Proposal],
    cluster_ids,
    point_labels,
    thing_mask,
) -> InstanceSegmentation:
    """Union clustered proposals into instances and emit per-point masks.

    NOISE proposals each become singleton clusters after the real ones. A
    point claimed by several instances goes to the instance whose center
    (mean of its proposals' refined centers) is nearest to the point's
    predicted center, ties to the lowest instance id. Instances whose
    majority label is a stuff class are demoted to background: their points
    keep instance id 0 and their own prior labels, matching the dataset
    convention that stuff points never carry instance ids. Surviving
    instances are renumbered 1..M in discovery order and all their points
    take the instance's majority label.
    """
    centers = np.asarray(predicted_centers, dtype=np.float64).reshape(-1, 3)
    point_semantic = np.asarray(point_labels, dtype=np.int64).reshape(-1)
    thing_mask = np.asarray(thing_mask, dtype=bool)
    n = len(centers)
    if len(point_semantic) != n:
        raise LengthMismatch(f"{len(point_semantic)} prior labels for {n} points")
    cluster_ids = np.asarray(cluster_ids, dtype=np.int64).reshape(-1)
    if len(cluster_ids) != len(proposals):
        raise LengthMismatch(f"{len(cluster_ids)} cluster ids for {len(proposals)} proposals")

    # Cluster -> proposals, real clusters first (ascending id = discovery
    # order), then NOISE singletons in ascending proposal order.
    groups: dict[int, list[int]] = {}
    for idx, cid in enumerate(cluster_ids):
        if cid != NOISE:
            groups.setdefault(int(cid), []).append(idx)
    instances: list[list[int]] = [groups[cid] for cid in sorted(groups)]
    instances.extend([idx] for idx, cid in enumerate(cluster_ids) if cid == NOISE)

    assigned = np.zeros(n, dtype=np.int64)
    best_d2 = np.full(n, np.inf)
    for instance_id, proposal_idxs in enumerate(instances, start=1):
        member_lists = [proposals[p].member_indices for p in proposal_idxs]
        rows = np.unique(np.concatenate(member_lists))
        center = np.mean([proposals[p].refined_center for p in proposal_idxs], axis=0)
        d2 = _sq_dist_to(centers[rows], center)
        better = d2 < best_d2[rows]
        take = rows[better]
        assigned[take] = instance_id
        best_d2[take] = d2[better]

    # Majority label per resolved instance; stuff-majority clusters demote.
    semantic = point_semantic.copy()
    final_instance = np.zeros(n, dtype=np.int64)
    next_id = 1
    for instance_id in range(1, len(instances) + 1):
        members = np.flatnonzero(assigned == instance_id)
        if members.size == 0:
            continue
        label = majority_label(point_semantic[members])
        if not thing_mask[label]:
            continue
        final_instance[members] = next_id
        semantic[members] = label
        next_id += 1

    uncovered = int((thing_mask[semantic] & (final_instance == 0)).sum()) if n else 0
    return InstanceSegmentation(
        semantic=semantic,
        instance=final_instance,
        scope="window",
        uncovered_thing_points=uncovered,
    )


def huber_center_loss(
    predicted_centers,
    true_centers,
    thing_point_mask,
    delta: float = DEFAULT_HUBER_DELTA_M,
) -> CenterLoss:
    """Mean Huber loss of center residuals over thing points only.

    H(a) = a^2 / 2 for a <= delta, else delta * (a - delta / 2). Background
    points are excluded from the mean but never removed from the inputs, so
    appending stuff points with arbitrary offsets leaves the value unchanged
    bit-for-bit.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    pred = np.asarray(predicted_centers, dtype=np.float64).reshape(-1, 3)
    true = np.asarray(true_centers, dtype=np.float64).reshape(-1, 3)
    mask = np.asarray(thing_point_mask, dtype=bool).reshape(-1)
    if not (len(pred) == len(true) == len(mask)):
        raise LengthMismatch(f"{len(pred)} predictions vs {len(true)} targets vs {len(mask)} mask entries")
    diff = pred - true
    a = np.sqrt((diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1]) + diff[:, 2] * diff[:, 2])
    h = np.where(a <= delta, 0.5 * a * a, delta * (a - 0.5 * delta))
    masked = h[mask]
    if masked.size == 0:
        return CenterLoss(0.0, 0)
    return CenterLoss(float(masked.mean()), int(masked.size))


@dataclass(frozen=True)
class ProposalDiagnostics:
    """Per-proposal aggregation errors against the owning ground-truth instance."""

    proposal_index: int
    gt_instance_id: int
    center_error: float
    radius_error: float
    bbox_error: float


def aggregation_diagnostics(
    positions,
    proposals: Sequence[Proposal],
    gt_instance_ids,
) -> tuple[list[ProposalDiagnostics], list[int]]:
    """Center/radius/bbox errors of each proposal vs its plurality GT owner.

    A proposal is matched to the ground-truth instance owning the plurality
    of its members (ties to the lowest id); proposals overlapping no
    instance points are returned separately as unmatched indices.
    """
    pos = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    gt = np.asarray(gt_instance_ids, dtype=np.int64).reshape(-1)
    if len(pos) != len(gt):
        raise LengthMismatch(f"{len(pos)} positions vs {len(gt)} instance ids")

    stats: dict[int, tuple[np.ndarray, float, np.ndarray]] = {}
    for gid in np.unique(gt[gt > 0]):
        members = pos[gt == gid]
        centroid = members.mean(axis=0)
        max_radius = float(np.sqrt(np.max(_sq_dist_to(members, centroid))))
        extents = members.max(axis=0) - members.min(axis=0)
        stats[int(gid)] = (centroid, max_radius, extents)

    diagnostics: list[ProposalDiagnostics] = []
    unmatched: list[int] = []
    for idx, proposal in enumerate(proposals):
        member_gt = gt[proposal.member_indices]
        member_gt = member_gt[member_gt > 0]
        if member_gt.size == 0:
            unmatched.append(idx)
            continue
        values, counts = np.unique(member_gt, return_counts=True)
        owner = int(values[int(np.argmax(counts))])
        centroid, max_radius, extents = stats[owner]
        diagnostics.append(
            ProposalDiagnostics(
                proposal_index=idx,
                gt_instance_id=owner,
                center_error=float(np.linalg.norm(proposal.refined_center - centroid)),
                radius_error=abs(proposal.refined_radius - max_radius),
                bbox_error=float(np.abs(proposal.bbox - extents).sum()),
            )
        )
    return diagnostics, unmatched
