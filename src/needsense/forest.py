"""Random forest classifier with fully deterministic training.

Built from scratch so every contract is pinned: per-tree generators are
seeded from (seed, tree index), candidate thresholds are midpoints between
consecutive distinct sorted feature values, splits maximize Gini impurity
decrease with ties broken by lowest feature index then lowest threshold,
and the text serialization round-trips models bit for bit.

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


def _majority(y: np.ndarray) -> int:
    pos = int(y.sum())
    neg = len(y) - pos
    return 1 if pos >= neg else 0  # tie goes to the positive class


def _best_split(X, y, rows, features, min_leaf):
    """Best (decrease, feature, threshold) over the given features, or None.

    Features are scanned in ascending index; within a feature candidates
    ascend by threshold, and only strictly greater decreases replace the
    incumbent, which realizes the documented tie-breaking.
    """
    n = rows.size
    ys = y[rows]
    pos_total = int(ys.sum())
    p = pos_total / n
    parent_gini = 1.0 - p * p - (1.0 - p) * (1.0 - p)
    best = None
    for f in features:
        col = X[rows, f]
        order = np.argsort(col, kind="stable")
        cs = col[order]
        boundary = np.nonzero(cs[1:] != cs[:-1])[0]
        if boundary.size == 0:
            continue
        nl = boundary + 1
        nr = n - nl
        thr = (cs[boundary] + cs[boundary + 1]) / 2.0
        # a midpoint that rounds onto the upper value would misclassify it
        valid = (nl >= min_leaf) & (nr >= min_leaf) & (thr < cs[boundary + 1])
        if not valid.any():
            continue
        pos = np.cumsum(ys[order])
        pl = pos[boundary]
        pr = pos_total - pl
        gini_l = 1.0 - (pl / nl) ** 2 - ((nl - pl) / nl) ** 2
        gini_r = 1.0 - (pr / nr) ** 2 - ((nr - pr) / nr) ** 2
        decrease = parent_gini - (nl * gini_l + nr * gini_r) / n
        decrease = np.where(valid, decrease, -np.inf)
        i = int(np.argmax(decrease))
        if best is None or decrease[i] > best[0]:
            best = (float(decrease[i]), int(f), float(thr[i]))
    return best


def _grow_tree(X, y, rows, config: ForestConfig, rng, nodes) -> None:
    """Append one tree's (feature, threshold, value) nodes in preorder."""
    n_features = X.shape[1]
    m = config.resolve_features(n_features)
    stack = [(rows, 0)]  # preorder traversal; the RNG is consumed in the same order
    while stack:
        node_rows, depth = stack.pop()
        ys = y[node_rows]
        pos = int(ys.sum())
        best = None
        if not (
            pos == 0
            or pos == len(ys)
            or (config.max_depth is not None and depth >= config.max_depth)
            or len(ys) < 2 * config.min_samples_leaf
        ):
            if m < n_features:
                subset = np.sort(rng.choice(n_features, size=m, replace=False))
            else:
                subset = np.arange(n_features)
            best = _best_split(X, y, node_rows, subset, config.min_samples_leaf)
            if best is None and m < n_features:
                rest = np.setdiff1d(np.arange(n_features), subset)
                best = _best_split(X, y, node_rows, rest, config.min_samples_leaf)
        if best is None:
            nodes.append((-1, 0.0, _majority(ys)))
            continue
        _, feature, threshold = best
        nodes.append((feature, threshold, -1))
        mask = X[node_rows, feature] <= threshold
        # push right first so the left subtree is processed next (preorder)
        stack.append((node_rows[~mask], depth + 1))
        stack.append((node_rows[mask], depth + 1))


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


def fit_forest(X: np.ndarray, y: np.ndarray, config: ForestConfig) -> RFModel:
    """Train on raw arrays; rows are taken in the given (canonical) order."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be 2-D and aligned with y")
    if len(X) == 0:
        raise ValueError("cannot train on an empty matrix")
    classes = set(np.unique(y))
    if not classes <= {0, 1}:
        raise ValueError("labels must be 0 or 1")
    if len(classes) < 2:
        raise ValueError("training matrix must contain both classes")
    n, nodes, roots = len(X), [], []
    for ti in range(config.n_trees):
        rng = np.random.default_rng([config.seed, ti])
        rows = rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
        roots.append(len(nodes))
        _grow_tree(X, y, rows, config, rng, nodes)
    resolved = replace(config, features_per_split=config.resolve_features(X.shape[1]))
    return RFModel(*zip(*nodes), roots, resolved, X.shape[1])
