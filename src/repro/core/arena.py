"""Flat structure-of-arrays KD-tree arena.

The object-graph tree (:mod:`repro.core.node`) is the *authoritative*
structure — refinement policies mutate it and the invariant suite walks
it — but answering a converged query through it means chasing Python
object pointers and copying per-node bound vectors on every descent.
This module keeps a mirrored *flat arena*: preorder-appended parallel
arrays ``(dim, key, split, left_child, piece_lo, piece_hi, zone_min,
zone_max)`` plus the per-node path bounds the residual-check flags are
derived from.

Layout
------
Node ``i`` of the arena is one slot across all parallel columns:

* ``dims[i]``     discriminator dimension, or ``-1`` for a leaf;
* ``keys[i]``     split key (0.0 for leaves);
* ``splits[i]``   row offset separating the children (0 for leaves);
* ``lefts[i]``    node id of the left child; the right child is always
  ``lefts[i] + 1`` (children are appended together), ``-1`` for leaves;
* ``los[i]`` / ``his[i]``  the node's row range ``[lo, hi)``;
* ``zone_lo[i]`` / ``zone_hi[i]``  the leaf's zone-map box (``None``
  when the tree carries no synopsis);
* ``path_lo[i]`` / ``path_hi[i]``  the exclusive-low / inclusive-high
  value bounds the root-to-node path implies (immutable float tuples,
  shared with the parent on the untightened side — tuple comparisons
  beat small-ndarray ones on the scalar descent's hot path);
* ``pieces[i]``   the live :class:`~repro.core.node.Piece` for leaves
  (``None`` for internal nodes) — scans still flow through the piece
  object, so zone shortcuts and job windows keep one source of truth.

In-place split
--------------
:meth:`apply_split` never rebuilds: the split leaf's slot is patched
into an internal node (``dim``/``key``/``split`` overwritten, ``lefts``
pointed at the end of the arrays) and the two children are appended.
Node ids are therefore stable for the life of the tree, and the arena
grows strictly append-only — exactly the property that lets the
vectorized batch descent snapshot the arrays once per generation.

Descent
-------
:meth:`search` is the scalar twin of :meth:`KDTree.search
<repro.core.kdtree.KDTree.search>`: identical traversal order (right
subtree first off the stack), identical ``lookup_nodes`` accounting
(every popped node counts, empty leaves included), and identical
residual-check flags (the stored path bounds are built with the same
tighten-on-copy rule the object descent applies).  :meth:`search_batch`
answers B queries in one frontier-vectorized pass over the snapshot
arrays.
"""

from __future__ import annotations

import os
from operator import gt, lt
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import IndexStateError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .kdtree import KDTree, PieceMatch
    from .node import Piece
    from .query import RangeQuery

__all__ = ["Arena", "arena_default", "set_arena_default"]

#: Sentinel dim marking a leaf slot.
LEAF = -1


def _env_default() -> bool:
    value = os.environ.get("REPRO_ARENA", "1").strip().lower()
    return value not in ("0", "off", "false", "no", "")


_DEFAULT_ENABLED = _env_default()


def arena_default() -> bool:
    """Whether newly built KD-Trees mirror into a flat arena.

    Defaults to on; ``REPRO_ARENA=0`` (or :func:`set_arena_default`)
    restores the pure object-graph path, which stays behaviourally
    bit-identical — that equivalence is what the arena property suite
    and ``python -m repro.fuzz --arena`` enforce.
    """
    return _DEFAULT_ENABLED


def set_arena_default(enabled: bool) -> bool:
    """Set the process-global arena default; returns the new value."""
    global _DEFAULT_ENABLED
    _DEFAULT_ENABLED = bool(enabled)
    return _DEFAULT_ENABLED


class Arena:
    """Flat SoA mirror of one :class:`~repro.core.kdtree.KDTree`."""

    __slots__ = (
        "n_dims",
        "dims",
        "keys",
        "splits",
        "lefts",
        "los",
        "his",
        "zone_lo",
        "zone_hi",
        "path_lo",
        "path_hi",
        "pieces",
        "generation",
        "_snapshot",
        "_snapshot_generation",
    )

    def __init__(self, n_dims: int) -> None:
        self.n_dims = n_dims
        self.dims: List[int] = []
        self.keys: List[float] = []
        self.splits: List[int] = []
        self.lefts: List[int] = []
        self.los: List[int] = []
        self.his: List[int] = []
        self.zone_lo: List[Optional[Tuple[float, ...]]] = []
        self.zone_hi: List[Optional[Tuple[float, ...]]] = []
        self.path_lo: List[Tuple[float, ...]] = []
        self.path_hi: List[Tuple[float, ...]] = []
        self.pieces: List[Optional["Piece"]] = []
        #: Bumped on every structural mutation; the batch-descent array
        #: snapshot is cached against it.
        self.generation = 0
        self._snapshot: Optional[dict] = None
        self._snapshot_generation = -1

    def __len__(self) -> int:
        return len(self.dims)

    # ------------------------------------------------------------- building

    def register_root(self, piece: "Piece") -> int:
        """Install ``piece`` as node 0 of an empty arena."""
        if self.dims:
            raise IndexStateError("arena already has a root")
        return self._append_leaf(
            piece,
            (-np.inf,) * self.n_dims,
            (np.inf,) * self.n_dims,
        )

    def _append_leaf(
        self,
        piece: "Piece",
        path_lo: Tuple[float, ...],
        path_hi: Tuple[float, ...],
    ) -> int:
        node = len(self.dims)
        self.dims.append(LEAF)
        self.keys.append(0.0)
        self.splits.append(0)
        self.lefts.append(-1)
        self.los.append(piece.start)
        self.his.append(piece.end)
        self.zone_lo.append(piece.zone_lo)
        self.zone_hi.append(piece.zone_hi)
        self.path_lo.append(path_lo)
        self.path_hi.append(path_hi)
        self.pieces.append(piece)
        piece.arena_id = node
        self.generation += 1
        return node

    def apply_split(
        self,
        piece: "Piece",
        dim: int,
        key: float,
        split: int,
        left: "Piece",
        right: "Piece",
    ) -> None:
        """Patch the split leaf into an internal node and append children.

        Called by :meth:`KDTree.split_leaf` after the object-graph side
        succeeded; ``left``/``right`` already carry their (tightened)
        zone maps.  The children's path bounds follow the exact
        copy-then-tighten rule of the object descent, so the residual
        check flags stay bit-identical.
        """
        node = piece.arena_id
        if node is None or self.pieces[node] is not piece:
            raise IndexStateError("split of a piece not registered in the arena")
        key = float(key)
        parent_lo = self.path_lo[node]
        parent_hi = self.path_hi[node]
        if key < parent_hi[dim]:
            child_hi = parent_hi[:dim] + (key,) + parent_hi[dim + 1 :]
        else:
            child_hi = parent_hi
        if key > parent_lo[dim]:
            child_lo = parent_lo[:dim] + (key,) + parent_lo[dim + 1 :]
        else:
            child_lo = parent_lo
        # Patch the slot in place: same id, now an internal node.
        self.dims[node] = dim
        self.keys[node] = key
        self.splits[node] = split
        self.lefts[node] = len(self.dims)
        self.zone_lo[node] = None
        self.zone_hi[node] = None
        self.pieces[node] = None
        piece.arena_id = None
        self._append_leaf(left, parent_lo, child_hi)
        self._append_leaf(right, child_lo, parent_hi)

    def sync_zone(self, piece: "Piece") -> None:
        """Refresh a leaf's zone-map columns from its piece object
        (refinement tightens zones outside :meth:`apply_split`)."""
        node = piece.arena_id
        if node is None or self.pieces[node] is not piece:
            raise IndexStateError("zone sync for a piece not in the arena")
        self.zone_lo[node] = piece.zone_lo
        self.zone_hi[node] = piece.zone_hi
        # The batch snapshot caches zone columns too; a zone refresh must
        # invalidate it like any structural mutation.
        self.generation += 1

    def _append_stub(
        self,
        node,
        path_lo: Tuple[float, ...],
        path_hi: Tuple[float, ...],
    ) -> int:
        """Reserve a slot for an internal node to be patched when visited."""
        slot = len(self.dims)
        self.dims.append(LEAF)  # patched by the from_tree replay
        self.keys.append(0.0)
        self.splits.append(0)
        self.lefts.append(-1)
        self.los.append(node.start)
        self.his.append(node.end)
        self.zone_lo.append(None)
        self.zone_hi.append(None)
        self.path_lo.append(path_lo)
        self.path_hi.append(path_hi)
        self.pieces.append(None)
        return slot

    @classmethod
    def from_tree(cls, tree: "KDTree") -> "Arena":
        """Mirror an existing object-graph tree (e.g. a decoded snapshot).

        Replays the splits: every internal node's slot is patched and its
        two children appended *together*, so the right child is always
        ``left + 1`` — the same adjacency incremental construction via
        :meth:`apply_split` produces.  Every live leaf piece gets its
        ``arena_id`` stamped.
        """
        from .node import Piece

        arena = cls(tree.n_dims)
        root = tree.root
        neg_inf = (-np.inf,) * tree.n_dims
        pos_inf = (np.inf,) * tree.n_dims
        if isinstance(root, Piece):
            arena.register_root(root)
            return arena
        stack = [(root, arena._append_stub(root, neg_inf, pos_inf))]
        while stack:
            node, slot = stack.pop()
            dim = node.dim
            key = float(node.key)
            parent_lo = arena.path_lo[slot]
            parent_hi = arena.path_hi[slot]
            if key < parent_hi[dim]:
                child_hi = parent_hi[:dim] + (key,) + parent_hi[dim + 1 :]
            else:
                child_hi = parent_hi
            if key > parent_lo[dim]:
                child_lo = parent_lo[:dim] + (key,) + parent_lo[dim + 1 :]
            else:
                child_lo = parent_lo
            arena.dims[slot] = dim
            arena.keys[slot] = key
            arena.splits[slot] = node.split
            arena.lefts[slot] = len(arena.dims)
            left, right = node.left, node.right
            if isinstance(left, Piece):
                arena._append_leaf(left, parent_lo, child_hi)
            else:
                stack.append(
                    (left, arena._append_stub(left, parent_lo, child_hi))
                )
            if isinstance(right, Piece):
                arena._append_leaf(right, child_lo, parent_hi)
            else:
                stack.append(
                    (right, arena._append_stub(right, child_lo, parent_hi))
                )
        arena.generation += 1
        return arena

    # ------------------------------------------------------------- descent

    def search(self, query: "RangeQuery", stats) -> List["PieceMatch"]:
        """Scalar descent — the bit-identical twin of the object search."""
        from .kdtree import PieceMatch

        dims = self.dims
        keys = self.keys
        lefts = self.lefts
        los = self.los
        his = self.his
        path_lo = self.path_lo
        path_hi = self.path_hi
        pieces = self.pieces
        lows_f = query.lows_f
        highs_f = query.highs_f
        matches: List[PieceMatch] = []
        append = matches.append
        stack = [0]
        push = stack.append
        pop = stack.pop
        visited = 0
        while stack:
            node = pop()
            visited += 1
            dim = dims[node]
            if dim < 0:
                if his[node] > los[node]:
                    append(
                        PieceMatch(
                            pieces[node],
                            tuple(map(gt, lows_f, path_lo[node])),
                            tuple(map(lt, highs_f, path_hi[node])),
                        )
                    )
                continue
            key = keys[node]
            child = lefts[node]
            if lows_f[dim] < key:  # interval (low, key] non-empty
                push(child)
            if highs_f[dim] > key:  # interval (key, high] non-empty
                push(child + 1)
        stats.lookup_nodes += visited
        return matches

    def probe(self, query: "RangeQuery", stats) -> int:
        """Descent that only totals matched rows — no match objects.

        Identical traversal and ``lookup_nodes`` accounting to
        :meth:`search`, but returns ``sum(piece.size)`` over the reached
        non-empty leaves instead of building :class:`PieceMatch` entries.
        GPKD's refinement budget estimator descends once purely to price
        a query and discards everything but this sum, so skipping the
        match/flag construction halves that descent's cost.
        """
        dims = self.dims
        keys = self.keys
        lefts = self.lefts
        los = self.los
        his = self.his
        lows_f = query.lows_f
        highs_f = query.highs_f
        touched = 0
        stack = [0]
        push = stack.append
        pop = stack.pop
        visited = 0
        while stack:
            node = pop()
            visited += 1
            dim = dims[node]
            if dim < 0:
                touched += his[node] - los[node]
                continue
            key = keys[node]
            child = lefts[node]
            if lows_f[dim] < key:
                push(child)
            if highs_f[dim] > key:
                push(child + 1)
        stats.lookup_nodes += visited
        return touched

    def as_arrays(self) -> dict:
        """Generation-cached NumPy snapshot of the structural columns.

        Besides the descent arrays, the snapshot carries 2D copies of the
        per-slot path bounds and zone boxes (``path_lo2``/``path_hi2``,
        ``zone_lo2``/``zone_hi2`` with ``has_zone`` flagging real
        entries — absent zones hold zero filler), so the batch pipeline
        can compute residual check flags and zone shortcuts with one
        fancy-indexing gather instead of per-leaf Python.
        """
        if self._snapshot_generation != self.generation:
            no_zone = (0.0,) * self.n_dims
            self._snapshot = {
                "dims": np.asarray(self.dims, dtype=np.int32),
                "keys": np.asarray(self.keys, dtype=np.float64),
                "lefts": np.asarray(self.lefts, dtype=np.int32),
                "los": np.asarray(self.los, dtype=np.int64),
                "his": np.asarray(self.his, dtype=np.int64),
                "path_lo2": np.array(self.path_lo, dtype=np.float64),
                "path_hi2": np.array(self.path_hi, dtype=np.float64),
                "has_zone": np.fromiter(
                    (zone is not None for zone in self.zone_lo),
                    np.bool_,
                    len(self.zone_lo),
                ),
                "zone_lo2": np.array(
                    [
                        zone if zone is not None else no_zone
                        for zone in self.zone_lo
                    ],
                    dtype=np.float64,
                ),
                "zone_hi2": np.array(
                    [
                        zone if zone is not None else no_zone
                        for zone in self.zone_hi
                    ],
                    dtype=np.float64,
                ),
            }
            self._snapshot_generation = self.generation
        return self._snapshot

    def search_batch_raw(self, queries: Sequence["RangeQuery"]) -> tuple:
        """One shared vectorized descent for B queries, as flat arrays.

        Returns ``(leaf_query, leaf_node, visited, boundaries, lows2d,
        highs2d, snapshot)``: reached non-empty leaves sorted by
        ``(query, descending piece start)`` — the scalar search's DFS
        emission order per query, the right subtree popped first — with
        ``boundaries[q]:boundaries[q+1]`` slicing query ``q``'s leaves
        and ``visited[q]`` counting every node its pruned descent would
        pop, empty leaves included.  This is the array-native input of
        the converged batch pipeline; :meth:`search_batch` wraps it into
        per-query :class:`PieceMatch` lists for the object-graph paths.
        """
        n_queries = len(queries)
        n_dims = self.n_dims
        empty = np.empty(0, dtype=np.int64)
        if n_queries == 0:
            return (
                empty, empty, empty, np.zeros(1, dtype=np.int64),
                np.empty((0, n_dims)), np.empty((0, n_dims)),
                self.as_arrays(),
            )
        # concatenate+reshape beats np.stack ~3x for many tiny arrays.
        lows2d = np.concatenate(
            [query.lows for query in queries]
        ).reshape(n_queries, n_dims)
        highs2d = np.concatenate(
            [query.highs for query in queries]
        ).reshape(n_queries, n_dims)
        snapshot = self.as_arrays()
        leaf_query, leaf_node, visited = _numpy_descend(
            snapshot, lows2d, highs2d
        )
        los = snapshot["los"]
        # Scalar search emits leaves in strictly descending piece-start
        # order; lexsort by (query, -lo) reproduces it per query.
        order = np.lexsort((-los[leaf_node], leaf_query))
        leaf_query = leaf_query[order]
        leaf_node = leaf_node[order]
        boundaries = np.searchsorted(
            leaf_query, np.arange(n_queries + 1), side="left"
        )
        return (
            leaf_query, leaf_node, visited, boundaries, lows2d, highs2d,
            snapshot,
        )

    def search_batch(
        self, queries: Sequence["RangeQuery"]
    ) -> List[Tuple[List["PieceMatch"], int]]:
        """One shared vectorized descent for B queries.

        Returns ``[(matches, visited_nodes)]`` per query, where both
        values are exactly what :meth:`search` would have produced for
        that query alone: matched leaves come back sorted by descending
        piece start (the DFS emission order — the right subtree is
        popped first), residual-check flags come from the same stored
        path bounds, and ``visited_nodes`` counts every node the pruned
        descent would pop, empty leaves included.
        """
        from .kdtree import PieceMatch

        n_queries = len(queries)
        if n_queries == 0:
            return []
        (
            leaf_query, leaf_node, visited, boundaries, _lows2d, _highs2d,
            _snapshot,
        ) = self.search_batch_raw(queries)
        pieces = self.pieces
        path_lo = self.path_lo
        path_hi = self.path_hi
        out: List[Tuple[List[PieceMatch], int]] = []
        for position, query in enumerate(queries):
            lows_f = query.lows_f
            highs_f = query.highs_f
            matches = [
                PieceMatch(
                    pieces[node],
                    tuple(map(gt, lows_f, path_lo[node])),
                    tuple(map(lt, highs_f, path_hi[node])),
                )
                for node in leaf_node[boundaries[position] : boundaries[position + 1]]
            ]
            out.append((matches, int(visited[position])))
        return out

    # ----------------------------------------------------------- validation

    def consistency_errors(self, tree: "KDTree") -> List[str]:
        """Invariant I11: the arena mirrors the object graph exactly.

        Walks the object tree and checks, node by node, that the arena
        slot recorded for it agrees on structure (dim/key/split/range/
        children adjacency), leaf identity (the live piece object),
        zone-map columns, and path bounds.  Every divergence is
        reported; an empty list is a clean bill of health.
        """
        from .node import Piece

        problems: List[str] = []
        neg_inf = np.full(tree.n_dims, -np.inf)
        pos_inf = np.full(tree.n_dims, np.inf)
        seen = 0
        stack: List[Tuple[object, int, np.ndarray, np.ndarray]] = [
            (tree.root, 0, neg_inf, pos_inf)
        ]
        while stack:
            node, slot, lob, hib = stack.pop()
            seen += 1
            if slot < 0 or slot >= len(self.dims):
                problems.append(f"arena id {slot} out of range")
                continue
            if self.los[slot] != node.start or self.his[slot] != node.end:
                problems.append(
                    f"arena node {slot} range [{self.los[slot]},{self.his[slot]}) "
                    f"!= tree range [{node.start},{node.end})"
                )
            if not (
                np.array_equal(self.path_lo[slot], lob)
                and np.array_equal(self.path_hi[slot], hib)
            ):
                problems.append(f"arena node {slot} path bounds diverge")
            if isinstance(node, Piece):
                if self.dims[slot] != LEAF:
                    problems.append(
                        f"arena node {slot} is internal, tree has a leaf"
                    )
                    continue
                if self.pieces[slot] is not node:
                    problems.append(
                        f"arena leaf {slot} holds a stale piece object"
                    )
                if node.arena_id != slot:
                    problems.append(
                        f"piece [{node.start},{node.end}) arena_id "
                        f"{node.arena_id} != slot {slot}"
                    )
                if (
                    self.zone_lo[slot] != node.zone_lo
                    or self.zone_hi[slot] != node.zone_hi
                ):
                    problems.append(f"arena leaf {slot} zone map diverges")
                continue
            if self.dims[slot] == LEAF:
                problems.append(f"arena node {slot} is a leaf, tree is internal")
                continue
            if (
                self.dims[slot] != node.dim
                or self.keys[slot] != float(node.key)
                or self.splits[slot] != node.split
            ):
                problems.append(
                    f"arena node {slot} (dim,key,split)=({self.dims[slot]},"
                    f"{self.keys[slot]},{self.splits[slot]}) != tree "
                    f"({node.dim},{node.key},{node.split})"
                )
            child = self.lefts[slot]
            if child < 0 or child + 1 >= len(self.dims):
                problems.append(f"arena node {slot} has bad children {child}")
                continue
            key = float(node.key)
            child_hib = hib.copy()
            if key < child_hib[node.dim]:
                child_hib[node.dim] = key
            child_lob = lob.copy()
            if key > child_lob[node.dim]:
                child_lob[node.dim] = key
            stack.append((node.right, child + 1, child_lob, hib))
            stack.append((node.left, child, lob, child_hib))
        live = sum(1 for dim in self.dims if dim == LEAF)
        reachable_leaves = tree.leaf_count
        if live != reachable_leaves:
            problems.append(
                f"arena holds {live} leaf slots, tree has {reachable_leaves} leaves"
            )
        if seen != len(self.dims):
            problems.append(
                f"arena holds {len(self.dims)} slots, tree walk reached {seen}"
            )
        return problems


def _numpy_descend(
    snapshot: dict, lows2d: np.ndarray, highs2d: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frontier-vectorized descent over the snapshot arrays.

    Processes all (query, node) pairs of one tree level per iteration;
    returns ``(leaf_query_idx, leaf_node_id, visited_per_query)`` with
    leaves in arbitrary order (the caller sorts).  Empty leaves are
    counted in ``visited`` but never emitted — matching the scalar
    descent's accounting exactly.
    """
    dims = snapshot["dims"]
    keys = snapshot["keys"]
    lefts = snapshot["lefts"]
    los = snapshot["los"]
    his = snapshot["his"]
    n_queries, n_dims = lows2d.shape
    lows_flat = np.ascontiguousarray(lows2d).ravel()
    highs_flat = np.ascontiguousarray(highs2d).ravel()
    frontier_query = np.arange(n_queries, dtype=np.int64)
    frontier_node = np.zeros(n_queries, dtype=np.int64)
    popped: List[np.ndarray] = []
    leaf_queries: List[np.ndarray] = []
    leaf_nodes: List[np.ndarray] = []
    while frontier_node.size:
        popped.append(frontier_query)
        node_dims = dims[frontier_node]
        is_leaf = node_dims < 0
        if is_leaf.any():
            ln = frontier_node[is_leaf]
            filled = his[ln] > los[ln]
            if filled.any():
                leaf_queries.append(frontier_query[is_leaf][filled])
                leaf_nodes.append(ln[filled])
            keep = ~is_leaf
            frontier_query = frontier_query[keep]
            frontier_node = frontier_node[keep]
            node_dims = node_dims[keep]
            if not frontier_node.size:
                break
        node_keys = keys[frontier_node]
        children = lefts[frontier_node]
        # Flat 1D takes of the (query, dim) bound — cheaper than 2D
        # fancy indexing on these small frontiers.
        flat = frontier_query * n_dims + node_dims
        go_left = lows_flat.take(flat) < node_keys
        go_right = highs_flat.take(flat) > node_keys
        frontier_query = np.concatenate(
            [frontier_query[go_left], frontier_query[go_right]]
        )
        frontier_node = np.concatenate(
            [children[go_left], children[go_right] + 1]
        )
    if popped:
        visited = np.bincount(np.concatenate(popped), minlength=n_queries)
    else:
        visited = np.zeros(n_queries, dtype=np.int64)
    if leaf_queries:
        leaf_query = np.concatenate(leaf_queries)
        leaf_node = np.concatenate(leaf_nodes)
    else:
        leaf_query = np.empty(0, dtype=np.int64)
        leaf_node = np.empty(0, dtype=np.int64)
    return leaf_query, leaf_node, visited
