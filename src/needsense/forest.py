"""Random forest classifier with fully deterministic training.

Built from scratch so every contract is pinned: per-tree generators are
seeded from (seed, tree index), candidate thresholds are midpoints between
consecutive distinct sorted feature values, splits maximize Gini impurity
decrease with ties broken by lowest feature index then lowest threshold,
and the text serialization round-trips models bit for bit.

The split search counts instead of sorting.  `fit_forest` stores each
column's distinct values once, sorted, and each cell's rank among them.  For
a node, the class counts of every (feature, rank) give the values present,
and running sums over them give the left-side counts at every boundary
between consecutive present values.  This is exact, not an approximation by
bins: the ranks are the column's own values, so the boundaries, midpoints,
counts and Gini expressions (same integer dtypes, same float operations) are
those a sort of the node's column would give.  Values that compare equal
share a rank, as -0.0 and 0.0 share a run of a sorted column; which one the
table keeps cannot move a midpoint, because x + 0.0 == x + -0.0 for every
nonzero x.

The trees grow in lockstep, one node of each per step, and a step's nodes
are searched together: one `bincount` over (node, feature, rank, label)
counts a whole block of them.  The numpy call overhead is then paid per
block, not per node, which matters because most nodes are small.

When the sampled feature subset offers no usable split the search widens
to the remaining features, so a node only becomes a leaf when it is pure,
hits a stopping rule, or has no distinguishing feature at all.  That
guarantees an unlimited-depth forest memorizes any consistently labeled
training set.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int | None = None
    min_samples_leaf: int = 1
    features_per_split: int | None = None  # None: ceil(sqrt(n_features))
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def resolve_features(self, n_features: int) -> int:
        m = self.features_per_split
        if m is None:
            m = math.ceil(math.sqrt(n_features))
        return max(1, min(m, n_features))


# cells one `_best_splits` block may gather and count: bounds its working set
_SEARCH_CELLS = 1 << 16


def _rank_table(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, ranks): each column's sorted distinct values as a row of a
    (d, U) table padded with +inf, and each cell's index into its row."""
    columns = [np.unique(column, return_inverse=True) for column in X.T]
    width = max((len(distinct) for distinct, _ in columns), default=1)
    values = np.full((X.shape[1], width), np.inf)
    ranks = np.empty(X.shape, dtype=np.min_scalar_type(width - 1))
    for j, (distinct, inverse) in enumerate(columns):
        values[j, : len(distinct)] = distinct
        ranks[:, j] = inverse
    return values, ranks


def _blocks(cost: np.ndarray):
    """(start, stop) runs of consecutive nodes whose cost stays within
    _SEARCH_CELLS; a node that alone exceeds it makes a run of its own."""
    start = 0
    while start < len(cost):
        fit = np.searchsorted(np.cumsum(cost[start:]), _SEARCH_CELLS, side="right")
        stop = start + max(1, int(fit))
        yield start, stop
        start = stop


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Whether each element of a starts a run of equal values."""
    starts = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=starts[1:])
    return starts


def _best_splits(values, ranks, labels, rows, n, pos, features, min_leaf):
    """(feature, threshold, left positives) of each node's best split over its
    candidate features; feature is -1 where none of them splits the node.

    Node i holds rows[i] (n[i] rows, pos[i] of them positive) and the sorted
    candidate features features[i] of a (k, m) array.  Each (node, feature)
    pair is a slot with its own `width` bins per class, one per rank, so one
    bincount counts every (value, label) of every node of a block.  The
    occupied bins in slot order are the values present at each node,
    consecutive ones within a slot are the candidate boundaries, and
    candidates ascend by node, then feature, then threshold; the first
    maximum of each node realizes the tie-breaking.
    """
    (k, m), width = features.shape, values.shape[1]
    feature, threshold = np.full(k, -1), np.zeros(k)
    pos_left = np.zeros(k, dtype=np.int64)
    for start, stop in _blocks((n + width) * m):
        node_n, node_pos = n[start:stop], pos[start:stop]
        block_rows = np.concatenate(rows[start:stop], dtype=np.intp)
        block_features = features[start:stop]
        table = block_features.size * width
        node_of_row = np.repeat(np.arange(stop - start), node_n)
        # the cell of row r and the f-th feature of its node i counts into bin
        # (i * m + f) * width + rank, one table further on when r is positive
        cell = np.repeat(block_features, node_n, axis=0)
        cell += (block_rows * ranks.shape[1])[:, None]
        key = ranks.ravel().take(cell)
        key = key + (node_of_row * (m * width) + labels[block_rows] * table)[:, None]
        key += np.arange(0, m * width, width)
        counts = np.bincount(key.ravel(), minlength=2 * table)
        positive = counts[table:]
        total = counts[:table] + positive
        present = np.flatnonzero(total)
        slot_at, rank_at = np.divmod(present, width)
        # every slot holds all its node's rows, so the running totals restart
        # at each slot once the totals of the slots before it are taken off
        slot_n, slot_pos = np.repeat(node_n, m), np.repeat(node_pos, m)
        slot = slot_at[:-1]
        nl = np.cumsum(total[present])[:-1] - (np.cumsum(slot_n) - slot_n)[slot]
        pl = np.cumsum(positive[present])[:-1] - (np.cumsum(slot_pos) - slot_pos)[slot]
        nr = slot_n[slot] - nl
        value = values.ravel()[block_features.ravel()[slot_at] * width + rank_at]
        lo, hi = value[:-1], value[1:]
        thr = (lo + hi) / 2.0
        # a pair spanning two slots starts at a slot's last value, where
        # nr == 0, so it is never valid; a midpoint that rounds onto the upper
        # value would misclassify it
        valid = np.flatnonzero((nl >= min_leaf) & (nr >= min_leaf) & (thr < hi))
        if valid.size == 0:
            continue
        slot, nl, nr, pl = slot[valid], nl[valid], nr[valid], pl[valid]
        n_at, pos_at = slot_n[slot], slot_pos[slot]
        p = pos_at / n_at
        parent_gini = 1.0 - p * p - (1.0 - p) * (1.0 - p)
        pr = pos_at - pl
        gini_l = 1.0 - (pl / nl) ** 2 - ((nl - pl) / nl) ** 2
        gini_r = 1.0 - (pr / nr) ** 2 - ((nr - pr) / nr) ** 2
        decrease = parent_gini - (nl * gini_l + nr * gini_r) / n_at
        # the first maximum in each node's run of candidates
        node = slot // m
        starts = _run_starts(node)
        top = np.maximum.reduceat(decrease, np.flatnonzero(starts))
        top = top[np.cumsum(starts) - 1]
        hit = np.flatnonzero(decrease == top)
        hit = hit[_run_starts(node[hit])]
        found = start + node[hit]
        feature[found] = block_features.ravel()[slot[hit]]
        threshold[found] = thr[valid[hit]]
        pos_left[found] = pl[hit]
    return feature, threshold, pos_left


def _balance(split: np.ndarray) -> np.ndarray:
    # open subtrees not yet started before each node; tree t starts at -t
    return np.concatenate(([0], np.cumsum(np.where(split, 1, -1))))


def _line_error(line_no: int, message: str) -> ValueError:
    return ValueError(f"line {line_no}: {message}")


class RFModel:
    """The forest as flat node arrays, each tree in preorder from roots[t]. Node i
    is a leaf voting value[i] when feature[i] == -1; otherwise X[row, feature[i]]
    <= threshold[i] sends a row to node i + 1, the left child, else to right[i]."""

    _BLOCK = 1 << 13  # (tree, row) pairs walked at once: their arrays stay cached

    def __init__(self, feature, threshold, value, roots, config, n_features):
        indices = (np.asarray(a, dtype=np.intp) for a in (feature, value, roots))
        self.feature, self.value, self.roots = indices
        self.threshold = np.array(threshold, dtype=np.float64)
        self.config, self.n_features = config, n_features
        # a split's right child is the next node whose balance equals its own
        split = self.feature >= 0
        before = _balance(split)[:-1]
        order = np.argsort(before, kind="stable")
        follows = (before[order[1:]] == before[order[:-1]]) & split[order[:-1]]
        self.right = np.full(len(split), -1, dtype=np.intp)
        self.right[order[:-1][follows]] = order[1:][follows]

    def tree_votes(self, X: np.ndarray) -> np.ndarray:
        """Per-tree votes, shape (n_trees, n_rows): all (tree, row) pairs
        descend from their roots a level per step until they reach a leaf."""
        X = np.asarray(X, dtype=np.float64)
        (n, d), flat, block = X.shape, X.ravel(), self._BLOCK
        votes = np.empty(len(self.roots) * n, dtype=np.int64)
        for start in range(0, votes.size, block):
            pair = np.arange(start, min(start + block, votes.size))
            # pair p is tree p // n with row p % n, which starts at flat[cell]
            node, cell = self.roots[pair // n], pair % n * d
            while node.size:
                leaf = self.feature[node] < 0
                votes[pair[leaf]] = self.value[node[leaf]]
                node, pair, cell = node[~leaf], pair[~leaf], cell[~leaf]
                go_left = flat[cell + self.feature[node]] <= self.threshold[node]
                node = np.where(go_left, node + 1, self.right[node])
        return votes.reshape(len(self.roots), n)

    def predict_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(labels, scores) for a batch; score is the fraction of trees
        voting for the help class, label 1 when score >= 0.5."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"expected feature dimension {self.n_features}, "
                f"got {X.shape[1] if X.ndim == 2 else X.shape}"
            )
        scores = self.tree_votes(X).mean(axis=0)
        return (scores >= 0.5).astype(np.int64), scores

    def to_lines(self) -> list[str]:
        cfg = self.config
        depth = "none" if cfg.max_depth is None else str(cfg.max_depth)
        lines = [
            "format=needsense-rf version=1",
            f"n_trees={cfg.n_trees} max_depth={depth} "
            f"min_samples_leaf={cfg.min_samples_leaf} "
            f"features_per_split={cfg.resolve_features(self.n_features)} "
            f"bootstrap={int(cfg.bootstrap)} seed={cfg.seed} "
            f"n_features={self.n_features}",
        ]
        tree_at = {root: ti for ti, root in enumerate(self.roots.tolist())}
        columns = self.feature.tolist(), self.threshold.tolist(), self.value.tolist()
        for i, (feature, thr, leaf_class) in enumerate(zip(*columns)):
            if i in tree_at:
                root = i
                lines.append(f"tree {tree_at[i]}")
            if feature < 0:
                lines.append(f"leaf {i - root} class={leaf_class}")
            else:
                lines.append(f"node {i - root} feat={feature} thr={thr!r}")
        return lines

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "RFModel":
        """Parse the text into node arrays, then run one vectorized test per rule."""
        lines = iter(lines)
        if next(lines, "").strip() != "format=needsense-rf version=1":
            raise _line_error(1, "not a random forest model file")
        try:
            h = dict(p.split("=") for p in next(lines, "").split())
            config = ForestConfig(
                n_trees=int(h["n_trees"]),
                max_depth=None if h["max_depth"] == "none" else int(h["max_depth"]),
                min_samples_leaf=int(h["min_samples_leaf"]),
                features_per_split=int(h["features_per_split"]),
                bootstrap=bool(int(h["bootstrap"])),
                seed=int(h["seed"]),
            )
            n_features = int(h["n_features"])
        except (KeyError, ValueError) as exc:
            raise _line_error(2, f"bad model header: {exc!r}") from None
        # a row per node: feature, threshold, value (-1 at a split), id, line
        nodes, roots, tree_lines = array("d"), [], []
        for line_no, raw in enumerate(lines, start=3):
            try:
                match raw.split():
                    case []:
                        continue
                    case ["tree", ti] if ti == str(len(roots)):
                        roots.append(len(nodes) // 5)
                        tree_lines.append(line_no)
                        continue
                    case ["node", i, f, t] if f[:5] == "feat=" and t[:4] == "thr=":
                        nodes.extend((int(f[5:]), float(t[4:]), -1, int(i), line_no))
                    case ["leaf", i, c] if c in ("class=0", "class=1"):
                        nodes.extend((-1, 0.0, int(c[6:]), int(i), line_no))
                    case _:
                        raise ValueError
            except (OverflowError, ValueError):
                raise _line_error(line_no, f"unrecognized model line: {raw.strip()}")
        if len(roots) != config.n_trees:
            raise _line_error(2, f"n_trees={config.n_trees} but {len(roots)} trees")
        rows = np.frombuffer(nodes).reshape(-1, 5)
        feature, threshold, value, ids, line_of = rows.T
        split = value < 0
        bounds = np.array([0, *roots[1:], len(line_of)])
        balance = _balance(split)
        # a tree ending too high is truncated; one too low has a dangling node
        unfinished = np.flatnonzero(balance[bounds[1:]] > -1 - np.arange(len(roots)))
        if unfinished.size:
            raise _line_error(tree_lines[unfinished[0]], "truncated tree")
        tree_of = np.repeat(np.arange(len(roots)), np.diff(bounds))
        for bad, what in (
            (np.arange(len(line_of)) < roots[0], "node before the first tree"),
            (ids != np.arange(len(ids)) - bounds[tree_of], "node id out of preorder"),
            (balance[:-1] < -tree_of, "dangling node after a complete tree"),
            (split & ((feature < 0) | (feature >= n_features)), "feat out of range"),
            (split & ~np.isfinite(threshold), "thr is not finite"),
        ):
            if bad.any():
                raise _line_error(int(line_of[np.argmax(bad)]), what)
        return cls(feature, threshold, value, roots, config, n_features)

    def save(self, path: str | Path) -> None:
        Path(path).write_text("\n".join(self.to_lines()) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "RFModel":
        with open(path, encoding="utf-8") as lines:
            try:
                return cls.from_lines(lines)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None


def _leaf(n: int, pos: int) -> tuple[int, float, int]:
    return -1, 0.0, 1 if 2 * pos >= n else 0  # a tie goes to the positive class


def fit_forest(X: np.ndarray, y: np.ndarray, config: ForestConfig) -> RFModel:
    """Train on raw arrays; rows are taken in the given (canonical) order.

    The trees grow in lockstep.  Each keeps its own generator, stack and
    preorder, so its draws are those of growing it alone: its bootstrap
    first, then one feature subset per node it searches, in preorder.  A step
    takes from every unfinished tree its next node that needs a search (the
    stopping rules make leaves of the nodes popped before it), searches them
    all in one `_best_splits` call, widens those whose sampled features gave
    no split in one more, then splits each node and pushes its children.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or y.ndim != 1 or len(X) != len(y):
        raise ValueError("X must be 2-D and aligned with y")
    if len(X) == 0:
        raise ValueError("cannot train on an empty matrix")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite")
    # checked before the cast, which would truncate a label such as 0.7
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    labels = y.astype(np.intp)
    if labels.min() == labels.max():
        raise ValueError("training matrix must contain both classes")
    (n, d), m = X.shape, config.resolve_features(X.shape[1])
    values, ranks = _rank_table(X)
    max_depth = math.inf if config.max_depth is None else config.max_depth
    min_leaf = config.min_samples_leaf
    rngs = [np.random.default_rng([config.seed, ti]) for ti in range(config.n_trees)]
    stacks = []  # per tree: (rows, depth, positives) of the nodes still to grow
    for rng in rngs:
        rows = rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
        rows = rows.astype(np.min_scalar_type(n - 1))
        stacks.append([(rows, 0, np.count_nonzero(labels[rows]))])
    trees = [[] for _ in rngs]  # per tree: (feature, threshold, value) in preorder
    while True:
        step = []  # (tree, rows, depth, positives) of the nodes to search
        for ti, stack in enumerate(stacks):
            while stack:
                rows, depth, pos = stack.pop()
                size = len(rows)
                if 0 < pos < size and size >= 2 * min_leaf and depth < max_depth:
                    step.append((ti, rows, depth, pos))
                    break
                trees[ti].append(_leaf(size, pos))
        if not step:
            break
        node_rows = [rows for _, rows, _, _ in step]
        node_n = np.array([len(rows) for rows in node_rows])
        node_pos = np.array([pos for _, _, _, pos in step])
        if m < d:
            draws = [rngs[ti].choice(d, size=m, replace=False) for ti, *_ in step]
            sampled = np.sort(draws, axis=1)
        else:
            sampled = np.broadcast_to(np.arange(d), (len(step), d))
        best = _best_splits(
            values, ranks, labels, node_rows, node_n, node_pos, sampled, min_leaf
        )
        widen = np.flatnonzero(best[0] < 0)
        if m < d and widen.size:
            rest = np.ones((widen.size, d), dtype=bool)
            rest[np.arange(widen.size)[:, None], sampled[widen]] = False
            rest = np.nonzero(rest)[1].reshape(widen.size, d - m)
            widened = _best_splits(
                values, ranks, labels, [node_rows[i] for i in widen],
                node_n[widen], node_pos[widen], rest, min_leaf,
            )
            for column, found in zip(best, widened):
                column[widen] = found
        for (ti, rows, depth, pos), feature, threshold, pos_left in zip(
            step, *(column.tolist() for column in best)
        ):
            if feature < 0:
                trees[ti].append(_leaf(len(rows), pos))
                continue
            trees[ti].append((feature, threshold, -1))
            mask = X[rows, feature] <= threshold
            # push right first so the left subtree is processed next (preorder)
            stacks[ti].append((rows[~mask], depth + 1, pos - pos_left))
            stacks[ti].append((rows[mask], depth + 1, pos_left))
    roots = np.cumsum([0] + [len(tree) for tree in trees[:-1]]).tolist()
    resolved = replace(config, features_per_split=m)
    nodes = [node for tree in trees for node in tree]
    return RFModel(*zip(*nodes), roots, resolved, d)
