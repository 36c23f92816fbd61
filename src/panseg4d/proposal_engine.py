"""Offset-vote instance proposals: shift, sample, group, refine, merge.

Points are shifted by their predicted offset toward an instance center;
farthest point sampling seeds proposals in the shifted space, on the points
the semantic prior labels as things, and keeps its picks only until one
falls within the grouping radius of an earlier pick (the covering prefix);
points of every class join a proposal within that fixed grouping radius
of its seed's shifted center; a proposal is its member group and its
center, the mean of its members' shifted centers; DBSCAN over the proposal
centers merges proposals that vote for the same object, and the merged
clusters become per-point instance masks with a majority semantic label.

Distance comparisons use squared Euclidean distances from one exact kernel
at every input size, ((dx*dx + dy*dy) + dz*dz) on contiguous coordinate
columns, so greedy selections and memberships are reproducible bit-for-bit
against reference implementations using ``((a - b) ** 2).sum(axis=-1)``.
Radius grouping finds its candidates through a sorted voxel grid, which
narrows the points each query evaluates and changes no result; when the
seeds' bounding box grown by the radius leaves out at least half of the
candidates, the grid indexes only those inside it, so a window's few thing
seeds do not sort all its points. Farthest
point sampling scans every sampled point per pick: it runs on a window's
thing-labelled points only, a few thousand at most, and is asked for no
more picks than a covering prefix can use. That bound counts the occupied
cells of a grid whose cell diagonal is shorter than the grouping radius;
picks do not depend on the count asked for, so the prefix is unchanged.
Refinement takes all of a window's groups in one call and reduces their
concatenated members with bincount passes. DBSCAN builds its
neighbour lists once, in row blocks, and labels the core components by
label propagation with pointer jumping. Merging handles the window's claims
as one flat list: a fixed number of sort, reduceat and bincount passes
resolve multiple claims, vote the majority labels and demote stuff-majority
instances, with no pass over the window per instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import EmptyInput, LengthMismatch, NonFiniteValue
from .semantic_prior import IGNORE
from .semantic_prior import majority_label  # noqa: F401  unused here; perfbench/tracer.py patches it

NOISE = -1

DEFAULT_GROUP_RADIUS_M = 0.6
DEFAULT_DBSCAN_EPS_M = 1.0
DEFAULT_DBSCAN_MIN_PTS = 1
DEFAULT_HUBER_DELTA_M = 1.0


def default_proposal_count(n_points: int) -> int:
    """Cap on the seeds sampled per window of ``n_points`` points: 100 at
    desk scale, growing with cloud size. Sampling runs on the window's
    thing-labelled points and keeps only the covering prefix; it is asked
    for fewer picks than this cap whenever ``covering_bound`` shows that
    the prefix must end sooner."""
    return max(100, n_points // 500)


# Grouping cells are this much wider than the radius, so that rounding in
# the cell coordinates cannot push a point at distance exactly r two cells
# away from its seed.
_GROUP_CELL_HAIR = 1.0 + 2.0**-20
# Covering-bound cells are this much narrower than radius / sqrt(3), so that
# rounding cannot put two points farther apart than the radius in one cell.
_BOUND_CELL_HAIR = 1.0 - 2.0**-20
# Grouping gathers seeds' candidates in chunks of at most this share of the
# candidate count (a single seed may exceed it), bounding peak memory.
_GROUP_CHUNK_SHARE = 4
# DBSCAN's neighbour lists and the covering prefix are built in row blocks
# of at most this many item pairs.
_PAIR_BLOCK = 1 << 16
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


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + c) over paired starts and counts."""
    ends = np.cumsum(counts)
    return np.repeat(starts - (ends - counts), counts) + np.arange(ends[-1] if len(ends) else 0)


def _chunks(sizes: np.ndarray, budget: int):
    """Consecutive (start, stop) runs of items whose sizes sum to at most
    ``budget``; a single item may exceed it."""
    reach = np.cumsum(sizes)
    start = 0
    while start < len(sizes):
        done = reach[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(reach, done + budget, side="right")))
        yield start, stop
        start = stop


class _VoxelGrid:
    """Points bucketed into cubic cells: integer cell keys, one sort and
    ``searchsorted`` ranges.

    ``order`` lists point indices by (cell key, index), so each occupied
    cell is one contiguous run of positions in which point indices ascend;
    ``keys`` holds the cell key at each position and ``x``, ``y``, ``z`` the
    coordinate columns in that order.

    With ``within=(lo, hi)``, when at most half of the points lie inside
    that closed box, the grid holds only those: their keys are sorted alone
    and ``order`` still lists indices into ``points``. The box is tested
    only when some point lies outside it, and only on the sides crossed.
    """

    def __init__(self, points: np.ndarray, edge: float, within=None):
        n = len(points)
        columns = list(_columns(points))
        lo = np.array([c.min() for c in columns])
        hi = np.array([c.max() for c in columns])
        rows = None
        if within is not None and ((lo < within[0]).any() or (hi > within[1]).any()):
            inside = np.ones(n, dtype=bool)
            for c, c_lo, c_hi, box_lo, box_hi in zip(columns, lo, hi, *within):
                if c_lo < box_lo:
                    inside &= c >= box_lo
                if c_hi > box_hi:
                    inside &= c <= box_hi
            # Gathering the kept rows pays only when the box leaves out many
            # points; keeping nearly all, it measured slower than no box.
            if 2 * np.count_nonzero(inside) <= n:
                rows = np.flatnonzero(inside)
                # Every kept point lies inside both boxes.
                lo = np.maximum(lo, within[0])
                hi = np.minimum(hi, within[1])
        self.origin = lo
        extent = np.maximum(hi - lo, 0.0)
        # Cap the cells per axis so that key * n + index stays inside int64.
        per_axis = int(np.cbrt(2.0**62 / n)) - 2
        self.edge = max(edge, float(extent.max()) / per_axis)
        self.dims = np.floor(extent / self.edge).astype(np.int64) + 1
        keys = np.zeros(n if rows is None else len(rows), dtype=np.int64)
        for c, o, d in zip(columns, self.origin, self.dims):
            cell = (c if rows is None else c[rows]) - o
            cell /= self.edge
            keys *= d
            keys += np.floor(cell, out=cell).astype(np.int64)
        keys *= n
        keys += np.arange(n) if rows is None else rows
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


def _require_finite(points: np.ndarray, what: str) -> None:
    """Reject NaN or infinite rows, naming the first: grid cell keys and
    neighbourhoods are undefined for them."""
    if not np.isfinite(points).all():
        bad = int(np.argmax(~np.isfinite(points).all(axis=1)))
        raise NonFiniteValue(f"{what} row {bad} is not finite")


def _columns(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return tuple(np.ascontiguousarray(points[:, a]) for a in range(3))


@dataclass
class InstanceSegmentation:
    """Per-point semantic train id and instance id (0 = none/stuff)."""

    semantic: np.ndarray  # (n,) int64
    instance: np.ndarray  # (n,) int64
    uncovered_thing_points: int = 0
    instances_demoted: int = 0  # instances voted a stuff majority
    contested_points: int = 0  # points claimed by more than one instance

    def __len__(self) -> int:
        return len(self.semantic)


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
    x, y, z = _columns(pts)
    selected = np.empty(m, dtype=np.int64)
    selected[0] = int(np.argmax(_sq_dist(x, y, z, *pts.mean(axis=0))))
    min_d2 = _sq_dist(x, y, z, *pts[selected[0]])
    min_d2[selected[0]] = -np.inf  # selected points never win the argmax again
    for i in range(1, m):
        nxt = int(np.argmax(min_d2))
        selected[i] = nxt
        np.minimum(min_d2, _sq_dist(x, y, z, *pts[nxt]), out=min_d2)
        min_d2[nxt] = -np.inf
    return selected


def covering_prefix(picked_points, radius: float) -> int:
    """Number of leading picks of a max-min selection that lie farther than
    ``radius`` from every earlier pick.

    A pick's squared distance to the earlier picks is the value farthest
    point sampling selected it by, and those values never increase; so the
    prefix ends exactly where sampling that stopped at a value <= radius**2
    would end. At that point every point of the sampled cloud lies within
    ``radius`` of a kept pick, by the kernel and inclusive test of
    ``radius_group``.
    """
    picked = np.asarray(picked_points, dtype=np.float64).reshape(-1, 3)
    row, col = _neighbor_pairs(picked, radius * radius)
    later = row[col < row]
    return int(later[0]) if len(later) else len(picked)


def covering_bound(points, radius: float) -> int:
    """Upper bound on the covering prefix of any max-min selection from
    ``points`` at ``radius``: the number of occupied cubic cells of edge
    just under ``radius / sqrt(3)``.

    A cell's diagonal is shorter than the radius, so no two picks of a
    covering prefix share a cell; the hair below 1 outweighs the rounding
    of cell coordinates at any grid that fits. A grid that had to widen its
    cells to fit gives no such bound, and the point count is returned.
    """
    if radius <= 0:
        raise ValueError(f"covering radius must be positive, got {radius}")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if not len(pts):
        return 0
    _require_finite(pts, "point")
    edge = radius / np.sqrt(3.0) * _BOUND_CELL_HAIR
    grid = _VoxelGrid(pts, edge)
    return int(np.count_nonzero(_run_heads(grid.keys))) if grid.edge == edge else len(pts)


def radius_group(seed_points, candidate_points, radius: float) -> list[np.ndarray]:
    """Membership by distance: candidate i joins seed k iff |c_i - s_k| <= radius.

    Returns one ascending int64 index array per seed. A candidate may join
    several groups at this stage; the merge step resolves multiple claims.
    The voxel grid indexes only the candidates inside the seeds' bounding
    box grown by the radius (and a hair, as rounding can put a member a few
    ulps past the exact box) when that box leaves out at least half of
    them, so a few seeds in a large window sort only what they can reach.
    """
    if radius <= 0:
        raise ValueError(f"grouping radius must be positive, got {radius}")
    seeds = np.asarray(seed_points, dtype=np.float64).reshape(-1, 3)
    cands = np.ascontiguousarray(np.asarray(candidate_points, dtype=np.float64).reshape(-1, 3))
    _require_finite(seeds, "seed")
    _require_finite(cands, "candidate")
    n = len(cands)
    if n == 0 or not len(seeds):
        return [np.empty(0, dtype=np.int64) for _ in seeds]
    # Only candidates inside the seeds' bounding box grown by the radius can
    # join a group; the hair keeps those that round to within the radius.
    reach = radius * _GROUP_CELL_HAIR
    grid = _VoxelGrid(cands, reach, within=(seeds.min(axis=0) - reach, seeds.max(axis=0) + reach))
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

    sx, sy, sz = _columns(seeds)
    r2 = radius * radius
    groups: list[np.ndarray] = []
    for start, stop in _chunks(per_seed, max(n // _GROUP_CHUNK_SHARE, 1)):
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
    return groups


def refine_proposal(predicted_centers, groups) -> np.ndarray:
    """Centers of the proposals, one per member group, as a (k, 3) array.

    A center is the mean of its members' predicted centers. All groups are
    refined together over their concatenated members, gathered in chunks of
    bounded size; a center is summed from zero in member order and divided
    by the count, exactly as ``np.mean`` computes it.
    """
    pred = np.asarray(predicted_centers, dtype=np.float64).reshape(-1, 3)
    members = [np.asarray(g, dtype=np.int64).reshape(-1) for g in groups]
    sizes = np.array([len(m) for m in members], dtype=np.int64)
    if (sizes == 0).any():
        raise EmptyInput(f"proposal {int(np.argmin(sizes))} has no members")
    center = np.empty((len(members), 3))
    for start, stop in _chunks(sizes, max(len(pred) // _GROUP_CHUNK_SHARE, 1)):
        rows = np.concatenate(members[start:stop])
        counts = sizes[start:stop]
        owner = np.repeat(np.arange(stop - start), counts)
        c = center[start:stop]
        for a in range(3):
            c[:, a] = np.bincount(owner, weights=pred[rows, a], minlength=stop - start)
        c /= counts[:, None]
    return center


def dbscan(items, eps: float, min_pts: int) -> np.ndarray:
    """Density-based clustering of (n, 3) items; returns per-item cluster id
    or NOISE (-1).

    Core items have at least ``min_pts`` neighbors within ``eps``
    (inclusive, self counted). Clusters are connected components of core
    items, numbered from 0 by their lowest core index; a border item joins
    the lowest-numbered cluster among its core neighbors, and an item with
    no core neighbor is NOISE. These are the ids a breadth-first expansion
    under ascending-index iteration discovers. Items of any other shape
    raise ``LengthMismatch``, NaN or infinite items ``NonFiniteValue``; a
    non-finite or non-positive eps raises ``ValueError``.
    """
    if not np.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")
    items = np.asarray(items, dtype=np.float64)
    if items.ndim != 2 or items.shape[1] != 3:
        raise LengthMismatch(f"dbscan items must be (n, 3), got shape {items.shape}")
    _require_finite(items, "item")
    n = len(items)
    row, col = _neighbor_pairs(items, eps * eps)
    core = np.bincount(row, minlength=n) >= min_pts
    labels = np.full(n, NOISE, dtype=np.int64)
    # A core component's root is its lowest core index; roots number the
    # clusters in ascending order.
    link = core[row] & core[col]
    root = _components(row[link], col[link], n)
    is_root = core & (root == np.arange(n))
    labels[core] = (np.cumsum(is_root) - 1)[root[core]]
    border = ~core[row] & core[col]
    row, col = row[border], col[border]
    heads = np.flatnonzero(_run_heads(row))
    if heads.size:
        labels[row[heads]] = np.minimum.reduceat(labels[col], heads)
    return labels


def _neighbor_pairs(items: np.ndarray, eps2: float) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, j) of (n, 3) ``items`` whose squared distance by the
    module's one kernel is at most ``eps2``, sorted by i then j; rows go in
    blocks of at most ``_PAIR_BLOCK`` pairs."""
    n = len(items)
    x, y, z = _columns(items)
    step = max(1, _PAIR_BLOCK // max(n, 1))
    rows, cols = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for start in range(0, n, step):
        block = slice(start, start + step)
        d2 = _sq_dist(x, y, z, x[block, None], y[block, None], z[block, None])
        r, c = np.nonzero(d2 <= eps2)
        rows.append(r + start)
        cols.append(c)
    return np.concatenate(rows), np.concatenate(cols)


def _components(row: np.ndarray, col: np.ndarray, n: int) -> np.ndarray:
    """Lowest node of each node's connected component.

    The edges (row, col) are symmetric, sorted by row and hold a self-loop
    for every linked node; a node without edges is its own root. Each round
    lowers every linked node's root to the lowest root among its neighbors,
    hooks its previous root onto that too, and then jumps pointers to a
    fixed point; roots only fall and stay component members no higher than
    their node, so the rounds end at each component's lowest node.
    """
    root = np.arange(n)
    heads = np.flatnonzero(_run_heads(row))
    if not heads.size:
        return root
    nodes = row[heads]
    while True:
        low = np.minimum.reduceat(root[col], heads)
        new = root.copy()
        new[nodes] = low
        np.minimum.at(new, root[nodes], low)
        while not np.array_equal(jumped := new[new], new):
            new = jumped
        if np.array_equal(new, root):
            return root
        root = new


def _run_heads(values: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values."""
    heads = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=heads[1:])
    return heads


def _claims(
    groups: Sequence[np.ndarray], instance_of: np.ndarray, n_instances: int
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (point, instance) claims of the groups' members, grouped by
    point with claimants in ascending instance order: keys point * I +
    instance, sorted in place, repeats dropped."""
    sizes = np.array([len(g) for g in groups], dtype=np.int64)
    keys = np.repeat(instance_of, sizes)
    if keys.size:
        keys += np.concatenate(groups) * n_instances
    keys.sort()
    return np.divmod(keys[_run_heads(keys)], max(n_instances, 1))


def merge_and_assign(
    predicted_centers,
    groups: Sequence,
    proposal_centers,
    cluster_ids,
    point_labels,
    thing_mask,
) -> InstanceSegmentation:
    """Union clustered proposals into instances and emit per-point masks.

    Proposal i is its member group ``groups[i]`` and its center
    ``proposal_centers[i]``. NOISE proposals each become singleton clusters
    after the real ones. A point claimed by several instances goes to the
    instance whose center (mean of its proposals' centers) is nearest to
    the point's predicted center, ties to the lowest instance id. Instances
    whose majority label is a stuff class, or whose points are all IGNORE,
    are demoted to background: their points keep instance id 0 and their
    own prior labels, matching the dataset convention that stuff points
    never carry instance ids. Surviving
    instances are renumbered 1..M in discovery order and all their points
    take the instance's majority label.
    """
    centers = np.asarray(predicted_centers, dtype=np.float64).reshape(-1, 3)
    point_semantic = np.asarray(point_labels, dtype=np.int64).reshape(-1)
    thing_mask = np.asarray(thing_mask, dtype=bool)
    n = len(centers)
    if len(point_semantic) != n:
        raise LengthMismatch(f"{len(point_semantic)} prior labels for {n} points")
    groups = [np.asarray(g, dtype=np.int64).reshape(-1) for g in groups]
    proposal_centers = np.asarray(proposal_centers, dtype=np.float64).reshape(-1, 3)
    cluster_ids = np.asarray(cluster_ids, dtype=np.int64).reshape(-1)
    if not len(groups) == len(proposal_centers) == len(cluster_ids):
        raise LengthMismatch(
            f"{len(groups)} member groups, {len(proposal_centers)} centers "
            f"and {len(cluster_ids)} cluster ids"
        )

    # Instance of each proposal: real clusters first in ascending id
    # (discovery order), then NOISE singletons in proposal order.
    noise = cluster_ids == NOISE
    real_ids, real_instance = np.unique(cluster_ids[~noise], return_inverse=True)
    instance_of = np.empty(len(groups), dtype=np.int64)
    instance_of[~noise] = real_instance
    instance_of[noise] = len(real_ids) + np.arange(int(noise.sum()))
    n_instances = len(real_ids) + int(noise.sum())

    # Instance centers: proposals' centers summed in proposal order from
    # zero, then divided, exactly as np.mean sums them.
    center_sum = np.zeros((n_instances, 3))
    np.add.at(center_sum, instance_of, proposal_centers)
    instance_center = center_sum / np.bincount(instance_of, minlength=n_instances)[:, None]

    point, instance = _claims(groups, instance_of, n_instances)

    # A point goes to its nearest claimant, ties to the lowest instance; a
    # claim at an infinite or NaN distance never wins.
    d2 = _sq_dist(*centers.T, *instance_center[instance].T, rows=point)
    heads = _run_heads(point)
    contested = int(np.count_nonzero(heads[:-1] & ~heads[1:]))
    nearest = np.fmin.reduceat(d2, np.flatnonzero(heads))
    win = np.flatnonzero(d2 == nearest[np.cumsum(heads) - 1])
    win = win[_run_heads(point[win])]
    win = win[d2[win] < np.inf]
    point, instance = point[win], instance[win]

    # Majority label per instance that kept points: one (instance, label)
    # histogram, IGNORE excluded, ties to the lowest label.
    voted = np.bincount(instance, minlength=n_instances) > 0
    counted = point_semantic[point] != IGNORE
    labels = point_semantic[point[counted]]
    low = int(labels.min()) if labels.size else 0
    span = int(labels.max()) - low + 1 if labels.size else 1
    votes = np.bincount(instance[counted] * span + (labels - low), minlength=n_instances * span)
    votes = votes.reshape(n_instances, span)
    majority = votes.argmax(axis=1) + low
    # An instance whose kept members are all IGNORE has no label to vote and
    # is demoted with them.
    kept = voted & (votes.max(axis=1) > 0)
    kept[kept] = thing_mask[majority[kept]]

    # Stuff-majority instances demote to background; kept ones renumber
    # 1..M in instance order.
    new_id = np.zeros(n_instances, dtype=np.int64)
    new_id[kept] = np.arange(1, int(kept.sum()) + 1)
    keep = kept[instance]
    point, instance = point[keep], instance[keep]
    semantic = point_semantic.copy()
    semantic[point] = majority[instance]
    final_instance = np.zeros(n, dtype=np.int64)
    final_instance[point] = new_id[instance]

    uncovered = int((thing_mask[semantic] & (semantic != IGNORE) & (final_instance == 0)).sum()) if n else 0
    return InstanceSegmentation(
        semantic=semantic,
        instance=final_instance,
        uncovered_thing_points=uncovered,
        instances_demoted=int((voted & ~kept).sum()),
        contested_points=contested,
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
    a = np.sqrt(_sq_dist(*pred.T, *true.T))
    h = np.where(a <= delta, 0.5 * a * a, delta * (a - 0.5 * delta))
    masked = h[mask]
    if masked.size == 0:
        return CenterLoss(0.0, 0)
    return CenterLoss(float(masked.mean()), int(masked.size))
