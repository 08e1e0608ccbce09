"""DBSCAN and incremental DBSCAN (Ester et al., VLDB 1998).

DEMON cites incremental DBSCAN (§3.2.4) as the canonical example of a
model class whose maintenance under *deletion* is more expensive than
under *insertion* — one of the situations where GEMM beats the direct
add+delete route.  This module provides both the batch algorithm and an
incremental variant that maintains the clustering under point
insertions and deletions:

* **insertion** is local: only the new point's neighborhood can gain
  core points, so the update is a bounded expansion (possibly merging
  clusters);
* **deletion** may *split* a cluster, which cannot be decided locally —
  the affected clusters are re-clustered, which is why deletions cost
  more (and what our ablation benchmark measures).

Neighborhoods use a uniform grid with cell side ``eps``, so an
eps-query inspects at most ``3^d`` cells.
"""

from __future__ import annotations

import copy
import itertools
import math
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.contracts import maintainer_contract, pure_unless_cloned
from repro.core.maintainer import DeletableModelMaintainer

#: Label of unclustered points.
NOISE = -1

Point = tuple[float, ...]


class GridIndex:
    """Uniform grid over d-dimensional points with eps-neighbor queries."""

    def __init__(self, eps: float, dim: int):
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.eps = eps
        self.dim = dim
        # Cells are insertion-ordered dicts used as sets.  A set's
        # iteration order follows its insert/delete history, which an
        # unpickled copy does not share, so neighbor order (and with it
        # border tie-breaking and the model's bytes) would differ
        # between a model and its checkpointed or worker-built copy.
        self._cells: dict[tuple[int, ...], dict[int, None]] = {}
        self._points: dict[int, Point] = {}
        self._offsets = list(itertools.product((-1, 0, 1), repeat=dim))

    def _cell_of(self, point: Point) -> tuple[int, ...]:
        return tuple(int(math.floor(coordinate / self.eps)) for coordinate in point)

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, point_id: int) -> bool:
        return point_id in self._points

    def point(self, point_id: int) -> Point:
        return self._points[point_id]

    def point_ids(self) -> list[int]:
        return list(self._points)

    def add(self, point_id: int, point: Point) -> None:
        if point_id in self._points:
            raise ValueError(f"point id {point_id} already indexed")
        if len(point) != self.dim:
            raise ValueError(f"expected {self.dim}-d point, got {len(point)}-d")
        self._points[point_id] = point
        self._cells.setdefault(self._cell_of(point), {})[point_id] = None

    def remove(self, point_id: int) -> Point:
        point = self._points.pop(point_id)
        cell = self._cell_of(point)
        members = self._cells[cell]
        members.pop(point_id, None)
        if not members:
            del self._cells[cell]
        return point

    def neighbors(self, point: Point) -> list[int]:
        """Ids of indexed points within ``eps`` of ``point`` (inclusive)."""
        center = self._cell_of(point)
        eps_squared = self.eps * self.eps
        result = []
        for offset in self._offsets:
            cell = tuple(c + o for c, o in zip(center, offset))
            for candidate_id in self._cells.get(cell, ()):
                candidate = self._points[candidate_id]
                distance = sum(
                    (a - b) ** 2 for a, b in zip(point, candidate)
                )
                if distance <= eps_squared:
                    result.append(candidate_id)
        return result


def dbscan(
    points: Sequence[Point], eps: float, min_pts: int
) -> list[int]:
    """Batch DBSCAN; returns one label per input point (NOISE = -1).

    A point is *core* when its eps-neighborhood (itself included) holds
    at least ``min_pts`` points; clusters are the connectivity classes
    of core points, with non-core neighbors attached as borders.
    """
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")
    if not points:
        return []
    index = GridIndex(eps, dim=len(points[0]))
    for point_id, point in enumerate(points):
        index.add(point_id, point)
    neighborhoods = [index.neighbors(p) for p in points]
    is_core = [len(n) >= min_pts for n in neighborhoods]

    labels = [NOISE] * len(points)
    next_label = 0
    for seed in range(len(points)):
        if not is_core[seed] or labels[seed] != NOISE:
            continue
        labels[seed] = next_label
        queue = deque([seed])
        while queue:
            current = queue.popleft()
            for neighbor in neighborhoods[current]:
                if labels[neighbor] == NOISE:
                    labels[neighbor] = next_label
                    if is_core[neighbor]:
                        queue.append(neighbor)
        next_label += 1
    return labels


@dataclass
class UpdateCost:
    """Work accounting for one incremental update.

    Attributes:
        neighbor_queries: eps-queries issued.
        relabelled: Points whose cluster label changed.
        reclustered: Points re-examined by a deletion's re-clustering.
    """

    neighbor_queries: int = 0
    relabelled: int = 0
    reclustered: int = 0


class IncrementalDBSCAN:
    """Density clustering maintained under insertions and deletions.

    The clustering after any update sequence matches batch DBSCAN on
    the surviving points, up to label renaming and the inherent
    border-point tie-breaking.

    Args:
        eps: Neighborhood radius.
        min_pts: Density threshold (neighborhood includes the point).
        dim: Point dimensionality.
    """

    def __init__(self, eps: float, min_pts: int, dim: int):
        if min_pts < 1:
            raise ValueError(f"min_pts must be >= 1, got {min_pts}")
        self.eps = eps
        self.min_pts = min_pts
        self.dim = dim
        self._grid = GridIndex(eps, dim)
        self._labels: dict[int, int] = {}
        self._neighbor_counts: dict[int, int] = {}
        self._next_point_id = 0
        self._next_label = 0
        self.last_cost = UpdateCost()

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._grid)

    def label(self, point_id: int) -> int:
        """Cluster label of a point (NOISE for unclustered)."""
        return self._labels[point_id]

    def point(self, point_id: int) -> Point:
        return self._grid.point(point_id)

    def is_core(self, point_id: int) -> bool:
        """Whether the point currently satisfies the core condition."""
        return self._neighbor_counts[point_id] >= self.min_pts

    def clusters(self) -> dict[int, set[int]]:
        """Current clusters as label → member point ids."""
        result: dict[int, set[int]] = {}
        for point_id, label in self._labels.items():
            if label != NOISE:
                result.setdefault(label, set()).add(point_id)
        return result

    def noise_ids(self) -> set[int]:
        """Ids of current noise points."""
        return {pid for pid, label in self._labels.items() if label == NOISE}

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def insert(self, point: Sequence[float]) -> int:
        """Insert one point; returns its id."""
        cost = UpdateCost()
        point = tuple(float(c) for c in point)
        point_id = self._next_point_id
        self._next_point_id += 1
        self._grid.add(point_id, point)

        neighbors = self._grid.neighbors(point)
        cost.neighbor_queries += 1
        self._neighbor_counts[point_id] = len(neighbors)
        newly_core: list[int] = []
        for neighbor in neighbors:
            if neighbor == point_id:
                continue
            self._neighbor_counts[neighbor] += 1
            if self._neighbor_counts[neighbor] == self.min_pts:
                newly_core.append(neighbor)

        # Seeds: core points in the new point's neighborhood (including
        # itself).  No seeds -> the point is noise.
        seeds = [n for n in neighbors if self.is_core(n)]
        if not seeds:
            self._labels[point_id] = NOISE
            self.last_cost = cost
            return point_id

        seed_labels = {
            self._labels[s] for s in seeds if self._labels.get(s, NOISE) != NOISE
        }
        if not seed_labels:
            target = self._next_label
            self._next_label += 1
        else:
            target = min(seed_labels)
            if len(seed_labels) > 1:
                # The new point bridges clusters: merge them.
                for point_key, label in list(self._labels.items()):
                    if label in seed_labels and label != target:
                        self._labels[point_key] = target
                        cost.relabelled += 1
        self._labels[point_id] = target

        # Expand from the cores whose reach may have changed: the newly
        # core neighbors plus the new point itself if core.
        frontier = deque(newly_core)
        if self.is_core(point_id):
            frontier.append(point_id)
        visited: set[int] = set()
        while frontier:
            core_id = frontier.popleft()
            if core_id in visited:
                continue
            visited.add(core_id)
            self._labels[core_id] = target
            for neighbor in self._grid.neighbors(self._grid.point(core_id)):
                cost.neighbor_queries += 1
                current = self._labels.get(neighbor, NOISE)
                if current == target:
                    continue
                if current == NOISE:
                    self._labels[neighbor] = target
                    cost.relabelled += 1
                    if self.is_core(neighbor):
                        frontier.append(neighbor)
                elif self.is_core(neighbor):
                    # A *core* point of another cluster within reach of
                    # one of ours: the clusters are density-connected —
                    # merge.  (A mere border point of another cluster is
                    # a contested tie-break, not a connection.)
                    for point_key, label in list(self._labels.items()):
                        if label == current:
                            self._labels[point_key] = target
                            cost.relabelled += 1
        self.last_cost = cost
        return point_id

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------

    def delete(self, point_id: int) -> None:
        """Remove one point, re-clustering the affected clusters.

        A deletion may demote cores and thereby *split* a cluster — a
        non-local effect, so every cluster that owned a point in the
        deleted point's neighborhood is re-clustered from scratch
        (noise attachment included).  This is the §3.2.4 cost asymmetry.
        """
        cost = UpdateCost()
        point = self._grid.point(point_id)
        neighbors = self._grid.neighbors(point)
        cost.neighbor_queries += 1
        affected_labels = {
            self._labels[n] for n in neighbors if self._labels[n] != NOISE
        }
        self._grid.remove(point_id)
        del self._labels[point_id]
        del self._neighbor_counts[point_id]
        for neighbor in neighbors:
            if neighbor != point_id:
                self._neighbor_counts[neighbor] -= 1

        if not affected_labels:
            self.last_cost = cost
            return

        # Gather the members of every affected cluster and re-cluster
        # them (deletions cannot join clusters, and unaffected clusters
        # keep their cores, so the subset is self-contained).
        subset = [
            pid
            for pid, label in self._labels.items()
            if label in affected_labels
        ]
        cost.reclustered = len(subset)
        for pid in subset:
            self._labels[pid] = NOISE

        subset_set = set(subset)
        for seed in subset:
            if self._labels[seed] != NOISE or not self.is_core(seed):
                continue
            target = self._next_label
            self._next_label += 1
            self._labels[seed] = target
            queue = deque([seed])
            while queue:
                current = queue.popleft()
                for neighbor in self._grid.neighbors(self._grid.point(current)):
                    cost.neighbor_queries += 1
                    if self._labels[neighbor] == NOISE:
                        self._labels[neighbor] = target
                        cost.relabelled += 1
                        if self.is_core(neighbor) and neighbor in subset_set:
                            queue.append(neighbor)
                        elif self.is_core(neighbor):
                            queue.append(neighbor)
        self.last_cost = cost

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def check_against_batch(self) -> list[str]:
        """Compare with batch DBSCAN on the surviving points.

        Returns violations; the comparison requires identical core
        partitions and consistent border attachment (border points may
        legitimately attach to any adjacent cluster).
        """
        ids = sorted(self._grid.point_ids())
        points = [self._grid.point(pid) for pid in ids]
        batch = dbscan(points, self.eps, self.min_pts)
        batch_labels = dict(zip(ids, batch))
        problems: list[str] = []

        def partition(labels: dict[int, int], core_only: bool) -> set[frozenset]:
            groups: dict[int, set[int]] = {}
            for pid, label in labels.items():
                if label == NOISE:
                    continue
                if core_only and not self.is_core(pid):
                    continue
                groups.setdefault(label, set()).add(pid)
            return {frozenset(g) for g in groups.values() if g}

        ours = partition(self._labels, core_only=True)
        theirs = partition(batch_labels, core_only=True)
        if ours != theirs:
            problems.append(
                f"core partitions differ: {len(ours)} vs {len(theirs)} clusters"
            )
        # Border/noise checks: a clustered non-core point must have a
        # same-cluster core neighbor; a noise point must have none.
        for pid in ids:
            label = self._labels[pid]
            core_neighbor_labels = {
                self._labels[n]
                for n in self._grid.neighbors(self._grid.point(pid))
                if n != pid and self.is_core(n)
            }
            if label == NOISE and core_neighbor_labels:
                problems.append(f"point {pid} is noise but has core neighbors")
            if label != NOISE and not self.is_core(pid):
                if label not in core_neighbor_labels:
                    problems.append(
                        f"border point {pid} not adjacent to its cluster"
                    )
        return problems


@dataclass
class DBSCANModel:
    """Maintainable clustering state plus block membership.

    Attributes:
        clustering: The live incremental DBSCAN instance.
        block_points: Point ids contributed by each block.
        selected_block_ids: Blocks currently in the model.
    """

    clustering: IncrementalDBSCAN
    block_points: dict[int, list[int]] = field(default_factory=dict)
    selected_block_ids: list[int] = field(default_factory=list)

    def to_cluster_model(self):
        """Summarize the clustering as a CF-based ClusterModel.

        Bridges density clustering into everything built on cluster
        features — the FOCUS cluster deviation, centroid matching, the
        weighted-radius criterion.  Noise points are omitted (they are
        not part of the model, matching DBSCAN semantics).
        """
        from repro.clustering.cf import ClusterFeature
        from repro.clustering.model import Cluster, ClusterModel

        clusters = []
        for index, (label, member_ids) in enumerate(
            sorted(self.clustering.clusters().items())
        ):
            cf = ClusterFeature.from_points(
                self.clustering.point(point_id) for point_id in member_ids
            )
            clusters.append(Cluster(cf, cluster_id=index))
        return ClusterModel(
            clusters=clusters,
            n_points=sum(c.size for c in clusters),
            selected_block_ids=list(self.selected_block_ids),
        )


@maintainer_contract
class IncrementalDBSCANMaintainer(DeletableModelMaintainer[DBSCANModel, Point]):
    """Block-level ``A_M`` over incremental DBSCAN (supports deletion).

    Deletion removes every point the block contributed — the expensive
    direction, per §3.2.4.
    """

    def __init__(self, eps: float, min_pts: int, dim: int):
        self.eps = eps
        self.min_pts = min_pts
        self.dim = dim

    def empty_model(self) -> DBSCANModel:
        return DBSCANModel(
            clustering=IncrementalDBSCAN(self.eps, self.min_pts, self.dim)
        )

    def build(self, blocks) -> DBSCANModel:
        model = self.empty_model()
        for block in blocks:
            model = self.add_block(model, block)
        return model

    @pure_unless_cloned
    def add_block(self, model: DBSCANModel, block) -> DBSCANModel:
        ids = [model.clustering.insert(point) for point in block.iter_records()]
        model.block_points[block.block_id] = ids
        model.selected_block_ids.append(block.block_id)
        model.selected_block_ids.sort()
        return model

    @pure_unless_cloned
    def delete_block(self, model: DBSCANModel, block) -> DBSCANModel:
        if block.block_id not in model.block_points:
            raise ValueError(
                f"block {block.block_id} is not part of this model's selection"
            )
        for point_id in model.block_points.pop(block.block_id):
            model.clustering.delete(point_id)
        model.selected_block_ids.remove(block.block_id)
        return model

    def clone(self, model: DBSCANModel) -> DBSCANModel:
        return copy.deepcopy(model)
