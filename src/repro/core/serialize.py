"""Snapshot, persist, and reload KD-Tree index state.

An exploratory session ends, but the refinement the workload paid for
should not be lost.  This module captures the physical state of any
KD-based index in this package — the reorganised index table plus the
tree structure — into a single ``.npz`` file, and reloads it as a
:class:`FrozenKDIndex`: a query-only index that answers exactly like the
original did at snapshot time (no further adaptation).

The tree is stored as three parallel arrays in preorder (dim, key, split),
which reconstruct uniquely because every internal node's ranges are
determined by its parent's range and split.  Two optional preorder-by-d
float arrays carry the leaf zone maps (NaN rows for internal nodes and
for leaves without a synopsis), so a reloaded index prunes and
short-circuits scans exactly like the original — and its flat arena
mirror (:mod:`repro.core.arena`) reconstructs byte-for-byte.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..errors import IndexStateError
from .arena import arena_default
from .index_base import BaseIndex, IndexDebugState, IndexTable
from .kdtree import KDTree
from .metrics import PhaseTimer, QueryStats
from .node import KDNode, Piece
from .query import RangeQuery
from .table import Table

__all__ = ["snapshot_index", "save_index", "load_index", "FrozenKDIndex"]

#: Sentinel dim marking a leaf in the preorder encoding.
LEAF = -1


def _encode_tree(
    tree: KDTree,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    dims: List[int] = []
    keys: List[float] = []
    splits: List[int] = []
    zone_lo: List[Tuple[float, ...]] = []
    zone_hi: List[Tuple[float, ...]] = []
    nan_row = tuple([float("nan")] * tree.n_dims)

    def visit(node) -> None:
        if isinstance(node, Piece):
            dims.append(LEAF)
            keys.append(0.0)
            splits.append(int(node.converged))
            if node.zone_lo is not None and node.zone_hi is not None:
                zone_lo.append(tuple(node.zone_lo))
                zone_hi.append(tuple(node.zone_hi))
            else:
                zone_lo.append(nan_row)
                zone_hi.append(nan_row)
        else:
            dims.append(node.dim)
            keys.append(node.key)
            splits.append(node.split)
            zone_lo.append(nan_row)
            zone_hi.append(nan_row)
            visit(node.left)
            visit(node.right)

    visit(tree.root)
    return (
        np.asarray(dims, dtype=np.int64),
        np.asarray(keys, dtype=np.float64),
        np.asarray(splits, dtype=np.int64),
        np.asarray(zone_lo, dtype=np.float64).reshape(len(dims), tree.n_dims),
        np.asarray(zone_hi, dtype=np.float64).reshape(len(dims), tree.n_dims),
    )


def _decode_tree(
    dims: np.ndarray,
    keys: np.ndarray,
    splits: np.ndarray,
    n_rows: int,
    n_cols: int,
    zone_lo: Optional[np.ndarray] = None,
    zone_hi: Optional[np.ndarray] = None,
) -> KDTree:
    # The object graph is assembled bottom-up here, bypassing split_leaf,
    # so the incremental arena mirror cannot track it; rebuild it from the
    # finished tree below instead.
    tree = KDTree(n_rows, n_cols, use_arena=False)
    cursor = [0]

    def build(start: int, end: int, level: int):
        position = cursor[0]
        cursor[0] += 1
        if position >= dims.shape[0]:
            raise IndexStateError("truncated tree encoding")
        if dims[position] == LEAF:
            piece = Piece(start, end, level=level)
            tree.leaf_count += 1
            piece.converged = bool(splits[position])
            if zone_lo is not None and zone_hi is not None:
                lo_row = zone_lo[position]
                hi_row = zone_hi[position]
                if not (np.isnan(lo_row).any() or np.isnan(hi_row).any()):
                    piece.zone_lo = tuple(float(b) for b in lo_row)
                    piece.zone_hi = tuple(float(b) for b in hi_row)
            return piece
        split = int(splits[position])
        if not (start < split < end):
            raise IndexStateError(
                f"corrupt tree encoding: split {split} outside ({start},{end})"
            )
        left = build(start, split, level + 1)
        right = build(split, end, level + 1)
        node = KDNode(
            int(dims[position]), float(keys[position]), start, split, end,
            left, right,
        )
        tree.node_count += 1
        return node

    tree.leaf_count = 0
    tree.root = build(0, n_rows, 0)
    if cursor[0] != dims.shape[0]:
        raise IndexStateError("trailing data in tree encoding")
    tree.finite_keys = bool(np.isfinite(keys[dims != LEAF]).all())
    if arena_default():
        tree.attach_arena()
    return tree


def snapshot_index(index: BaseIndex) -> dict:
    """Capture the physical state of a KD-based index as plain arrays."""
    index_table = getattr(index, "index_table", None)
    tree = getattr(index, "tree", None)
    if index_table is None or tree is None:
        raise IndexStateError(
            f"{type(index).__name__} has no materialised KD-Tree state to "
            "snapshot (run at least one query first)"
        )
    dims, keys, splits, zone_lo, zone_hi = _encode_tree(tree)
    payload = {
        "n_rows": np.asarray([index_table.n_rows], dtype=np.int64),
        "n_cols": np.asarray([len(index_table.columns)], dtype=np.int64),
        "rowids": index_table.rowids,
        "tree_dims": dims,
        "tree_keys": keys,
        "tree_splits": splits,
        "tree_zone_lo": zone_lo,
        "tree_zone_hi": zone_hi,
    }
    for position, column in enumerate(index_table.columns):
        payload[f"column_{position}"] = column
    return payload


def save_index(index: BaseIndex, path: str) -> None:
    """Persist a snapshot to ``path`` (``.npz``)."""
    np.savez_compressed(path, **snapshot_index(index))


def load_index(path: str) -> "FrozenKDIndex":
    """Reload a snapshot as a query-only index."""
    with np.load(path) as archive:
        payload = {name: archive[name] for name in archive.files}
    return FrozenKDIndex.from_snapshot(payload)


class FrozenKDIndex(BaseIndex):
    """A read-only KD index reconstructed from a snapshot.

    Answers queries with the snapshot's tree and data; performs no
    adaptation (it is "converged" by definition — at whatever refinement
    level the snapshot captured).
    """

    name = "Frozen"

    def __init__(self, index_table: IndexTable, tree: KDTree) -> None:
        columns = index_table.columns
        super().__init__(Table(columns))
        self._index = index_table
        self._tree = tree

    @classmethod
    def from_snapshot(cls, payload: dict) -> "FrozenKDIndex":
        n_rows = int(payload["n_rows"][0])
        n_cols = int(payload["n_cols"][0])
        columns = [
            np.ascontiguousarray(payload[f"column_{position}"])
            for position in range(n_cols)
        ]
        for column in columns:
            if column.shape[0] != n_rows:
                raise IndexStateError("snapshot column length mismatch")
        rowids = np.ascontiguousarray(payload["rowids"], dtype=np.int64)
        if rowids.shape[0] != n_rows:
            raise IndexStateError("snapshot rowid length mismatch")
        tree = _decode_tree(
            payload["tree_dims"],
            payload["tree_keys"],
            payload["tree_splits"],
            n_rows,
            n_cols,
            # Older snapshots carry no zone arrays; load them without.
            payload.get("tree_zone_lo"),
            payload.get("tree_zone_hi"),
        )
        index_table = IndexTable(columns, rowids)
        frozen = cls(index_table, tree)
        tree.validate(columns)
        return frozen

    def _execute(self, query: RangeQuery, stats: QueryStats) -> np.ndarray:
        with PhaseTimer(stats, "index_search"):
            matches = self._tree.search(query, stats)
        with PhaseTimer(stats, "scan"):
            parts = [self._index.scan_piece(m, query, stats) for m in matches]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def _supports_batch(self) -> bool:
        return True

    @property
    def converged(self) -> bool:
        return True

    @property
    def node_count(self) -> int:
        return self._tree.node_count

    @property
    def tree(self) -> KDTree:
        return self._tree

    @property
    def index_table(self) -> IndexTable:
        return self._index

    def debug_state(self) -> IndexDebugState:
        state = super().debug_state()
        # The frozen "base table" is the already-reorganised snapshot data,
        # so the rowid->base alignment invariant does not apply here.
        state.extras["skip_alignment"] = True
        return state
