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

The trees grow in lockstep and a step's nodes are searched together: one
`bincount` over (node, feature, rank, label) counts a block of up to
_SEARCH_CELLS cells, so numpy's call overhead is paid per block, not per
node, and most nodes are small.  A cell's bin takes one gather from a table
of 2 * rank + label (a byte per cell here) and one add of a 32-bit key;
with keys this narrow, 1 << 18-cell blocks beat 1 << 17.

When the sampled feature subset offers no usable split the search widens
to the other features that vary at the node, so a node only becomes a leaf
when it is pure, hits a stopping rule, or has no distinguishing feature at
all: an unlimited-depth forest memorizes any consistently labeled training
set.  A constant feature offers no split, so leaving it out changes no tree,
and a node with none left that varies (as where bootstrap repeats one row
with both labels) is a leaf at once.  Widening draws nothing from the
tree's generator.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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
_SEARCH_CELLS = 1 << 18


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


def _index_type(size: int) -> type:
    """The narrower of int32 and int64 that holds every index below size."""
    return np.int32 if size <= 2**31 else np.int64


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


def _best_splits(values, codes, rows, n, pos, features, min_leaf):
    """(feature, threshold, left positives) of each node's best split over its
    candidate features; feature is -1 where none of them splits the node.

    codes[j, r] is 2 * rank + label of row r in feature j.  Node i holds rows[i]
    (n[i] rows, pos[i] of them positive) and the features features[i] of a
    (k, m) array, ascending among those that vary at the node.  Each (node,
    feature) pair is a slot with `width` bins per class, one per rank, so one
    bincount counts every (value, label) of every node of a block.  The
    occupied bins in slot order are the values present at each node,
    consecutive ones within a slot are the candidate boundaries, and
    candidates ascend by node, then feature, then threshold; the first
    maximum of each node realizes the tie-breaking.
    """
    (k, m), width = features.shape, values.shape[1]
    feature, threshold, pos_left = np.full(k, -1), np.zeros(k), np.zeros(k, np.int64)
    for start, stop in _blocks((n + width) * m):
        node_n, node_pos = n[start:stop], pos[start:stop]
        block_features = features[start:stop]
        table = block_features.size * width
        index = _index_type(max(codes.size, 2 * table))
        # the cell of row r and the f-th feature of its node i counts into bin
        # ((i * m + f) * width + rank) * 2 + label
        cell = np.repeat(block_features.astype(index) * codes.shape[1], node_n, axis=0)
        cell += np.concatenate(rows[start:stop], dtype=index)[:, None]
        slot_bins = np.arange(0, 2 * table, 2 * width, dtype=index)
        key = np.repeat(slot_bins.reshape(-1, m), node_n, axis=0)
        key += codes.ravel().take(cell)
        counts = np.bincount(key.ravel(), minlength=2 * table)
        positive = counts[1::2]
        total = counts[::2] + positive
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


# The body grammar's widest fields: a count or an index takes 1 to _INT_WIDTH
# digits, a threshold 1 to _THR_WIDTH bytes (the longest float repr, as in
# -1.2345678901234567e-308).  The parser's buffer ends with _PAD zero bytes, so
# the widest window fits at every position of the text.
_INT_WIDTH = 9
_THR_WIDTH = 24
_PAD = _THR_WIDTH + 1
# body lines one _scan_lines call reads: bounds the parser's working set
_SCAN_LINES = 1 << 13
_DIGITS = np.zeros(256, dtype=bool)
_DIGITS[np.frombuffer(b"0123456789", dtype=np.uint8)] = True
_THR_BYTES = _DIGITS.copy()
_THR_BYTES[np.frombuffer(b"+-.einfa", dtype=np.uint8)] = True


def _read(path: str | Path) -> np.ndarray:
    """The bytes of a file, read once into an array that ends with _PAD zeros."""
    with open(path, "rb") as f:
        buf = np.zeros(os.fstat(f.fileno()).st_size + _PAD, dtype=np.uint8)
        size = f.readinto(buf[:-_PAD])
    return buf[: size + _PAD]


def _windows(buf: np.ndarray, at: np.ndarray, width: int) -> np.ndarray:
    """The `width` bytes of buf from each position in `at`, as rows.  A position
    past the text reads from its end, the zero padding."""
    return sliding_window_view(buf, width)[np.minimum(at, buf.size - _PAD)]


def _spells(buf: np.ndarray, at: np.ndarray, literal: bytes) -> np.ndarray:
    """Whether the bytes of buf from each position in `at` spell `literal`."""
    return _windows(buf, at, len(literal)).view(f"S{len(literal)}")[:, 0] == literal


def _runs(buf: np.ndarray, at: np.ndarray, width: int, alphabet: np.ndarray):
    """(window, size): the `width` + 1 bytes from each position in `at`, zeroed
    from the first byte not in `alphabet` on, and that byte's index, the length
    of the run before it.  A run longer than `width` has size 0."""
    window = _windows(buf, at, width + 1)
    size = np.argmin(alphabet[window], axis=1)
    window *= np.arange(width + 1) < size[:, None]
    return window, size


def _integers(buf: np.ndarray, at: np.ndarray):
    """(value, stop, ok) of the run of digits at each position in `at`: its
    value, the position after it, and whether it is a count in canonical form,
    1 to _INT_WIDTH digits with no leading zero.  A run that is not ok reads 0."""
    window, size = _runs(buf, at, _INT_WIDTH, _DIGITS)
    ok = (size == 1) | ((size > 1) & (window[:, 0] != ord("0")))
    text = window.view(f"S{_INT_WIDTH + 1}")[:, 0]
    text[~ok] = b"0"
    return text.astype(np.int64), at + size, ok


def _is_float(text: bytes) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _floats(buf: np.ndarray, at: np.ndarray, stop: np.ndarray):
    """(value, ok) of each field buf[at:stop]: ok where it is 1 to _THR_WIDTH
    threshold bytes that float() reads.  The cast is float() itself, so a repr
    reads back bit for bit.  A field that is not ok reads 0.0."""
    window, size = _runs(buf, at, _THR_WIDTH, _THR_BYTES)
    ok = (size > 0) & (at + size == stop)
    text = window.view(f"S{_THR_WIDTH + 1}")[:, 0]
    text[~ok] = b"0"
    try:
        return text.astype(np.float64), ok
    except ValueError:  # such as "1e" or "--1": find which, on this error path only
        reads = np.array([_is_float(field) for field in text.tolist()], dtype=bool)
        text[~reads] = b"0"
        return text.astype(np.float64), ok & reads


def _scan_lines(buf: np.ndarray, start: np.ndarray, stop: np.ndarray):
    """(ok, kind, number, feature, threshold, value) of the body lines
    buf[start:stop]: kind is 1 for "tree T", 2 for "node I feat=F thr=X" and
    "leaf I class=C", 0 for any other line, of which only a blank one is ok;
    number is T or I, and value is C, or -1 at a split."""
    ok = start == stop
    tree = _spells(buf, start, b"tree ")
    node = _spells(buf, start, b"node ")
    leaf = _spells(buf, start, b"leaf ")
    kind = np.where(tree, 1, 2 * (node | leaf))
    number, at, number_ok = _integers(buf, start + 5)
    ok |= tree & number_ok & (at == stop)
    feature = np.full(len(start), -1, dtype=np.intp)
    threshold = np.zeros(len(start))
    value = np.full(len(start), -1, dtype=np.intp)
    i = np.flatnonzero(node)
    feature[i], feat_stop, feat_ok = _integers(buf, at[i] + 6)
    threshold[i], thr_ok = _floats(buf, feat_stop + 5, stop[i])
    ok[i] = (
        number_ok[i] & _spells(buf, at[i], b" feat=") & feat_ok
        & _spells(buf, feat_stop, b" thr=") & thr_ok
    )
    i = np.flatnonzero(leaf)
    value[i] = one = _spells(buf, at[i], b" class=1")
    ok[i] = (
        number_ok[i] & (one | _spells(buf, at[i], b" class=0")) & (stop[i] == at[i] + 8)
    )
    return ok, kind, number, feature, threshold, value


def _scan(buf: np.ndarray):
    """(config, n_features, nodes, roots, tree_lines) of the model text in
    buf[:-_PAD], read in one pass over the whole buffer.

    nodes holds the feature, threshold, value (-1 at a split), id and line
    number of each node line, in file order; roots[t] is the node at which
    tree t starts and tree_lines[t] the line of its `tree t`.  A line ends with
    LF or CRLF, and the body grammar is exact (README); the first line that
    breaks it fails.  The body is read _SCAN_LINES lines at a time into one
    slot per line, so the working set beyond the buffer and the node arrays
    stays bounded.
    """
    text = buf[:-_PAD]
    index = _index_type(buf.size)
    ends = np.flatnonzero(text == ord("\n")).astype(index)
    if text.size and text[-1] != ord("\n"):
        ends = np.append(ends, index(text.size))  # a last line with no line end
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    ends -= (ends > starts) & (buf[ends - 1] == ord("\r"))

    def line(i: int) -> bytes:
        return buf[starts[i] : ends[i]].tobytes() if i < len(ends) else b""

    if line(0) != b"format=needsense-rf version=1":
        raise _line_error(1, "not a random forest model file")
    try:
        header = line(1).decode("utf-8")
        if "\r" in header:  # a line break to a reader with universal newlines
            raise ValueError("carriage return inside the line")
        h = dict(p.split("=") for p in header.split())
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

    start, stop = starts[2:], ends[2:]
    dtypes = bool, np.int8, np.int64, np.intp, np.float64, np.intp
    columns = [np.empty(len(start), dtype=dtype) for dtype in dtypes]
    for lo in range(0, len(start), _SCAN_LINES):
        block = slice(lo, lo + _SCAN_LINES)
        for column, part in zip(columns, _scan_lines(buf, start[block], stop[block])):
            column[block] = part
    ok, kind, number, feature, threshold, value = columns
    trees = np.flatnonzero(kind == 1)
    ok[trees] &= number[trees] == np.arange(len(trees))
    if not ok.all():
        bad = int(np.argmin(ok))
        raw = line(bad + 2).decode("utf-8", errors="replace")
        raise _line_error(bad + 3, f"unrecognized model line: {raw.strip()}")
    # keep the node lines' slots, moved to the front of each column in place
    rows = np.flatnonzero(kind == 2)
    n = len(rows)
    for column in (feature, threshold, value, number):
        column[:n] = column[rows]
    nodes = feature[:n], threshold[:n], value[:n], number[:n], rows + 3
    return config, n_features, nodes, np.searchsorted(rows, trees), trees + 3


def _checked(config, n_features, nodes, roots, tree_lines):
    """The RFModel arguments of the scanned node arrays, after one vectorized
    test per rule."""
    feature, threshold, value, ids, line_of = nodes
    if len(roots) != config.n_trees:
        raise _line_error(2, f"n_trees={config.n_trees} but {len(roots)} trees")
    split = value < 0
    bounds = np.array([0, *roots[1:], len(line_of)])
    balance = _balance(split)
    # a tree ending too high is truncated; one too low has a dangling node
    unfinished = np.flatnonzero(balance[bounds[1:]] > -1 - np.arange(len(roots)))
    if unfinished.size:
        raise _line_error(int(tree_lines[unfinished[0]]), "truncated tree")
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
    return feature, threshold, value, roots, config, n_features


class RFModel:
    """The forest as flat node arrays, each tree in preorder from roots[t]. Node i
    is a leaf voting value[i] when feature[i] == -1; otherwise X[row, feature[i]]
    <= threshold[i] sends a row to node i + 1, the left child, else to right[i]."""

    _BLOCK = 1 << 13  # (tree, row) pairs walked at once: their arrays stay cached

    def __init__(self, feature, threshold, value, roots, config, n_features):
        indices = (np.asarray(a, dtype=np.intp) for a in (feature, value, roots))
        self.feature, self.value, self.roots = indices
        self.threshold = np.asarray(threshold, dtype=np.float64)
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
        """Parse the lines of a model file, given with or without line ends."""
        text = "".join(line.rstrip("\r\n") + "\n" for line in lines).encode("utf-8")
        return cls(*_checked(*_scan(np.frombuffer(text + bytes(_PAD), dtype=np.uint8))))

    def save(self, path: str | Path) -> None:
        Path(path).write_text("\n".join(self.to_lines()) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "RFModel":
        try:
            return cls(*_checked(*_scan(_read(path))))
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
    no split in one more, over their features that vary and were not sampled,
    then splits each node and pushes its children.
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
    dtype = np.min_scalar_type(2 * values.shape[1] - 1)
    codes = 2 * np.ascontiguousarray(ranks.T, dtype=dtype) + labels.astype(dtype)
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
            values, codes, node_rows, node_n, node_pos, sampled, min_leaf
        )
        widen = np.flatnonzero(best[0] < 0)
        if m < d and widen.size:
            # a feature varies at a node where two consecutive rows differ in it
            node_ranks = ranks[np.concatenate([node_rows[i] for i in widen])]
            first = np.cumsum(node_n[widen]) - node_n[widen]
            differ = node_ranks[1:] != node_ranks[:-1]
            differ[first[1:] - 1] = False  # the pairs that span two nodes
            # 0: a varying feature not sampled, 1: a constant one, 2: a sampled one
            kind = (~np.logical_or.reduceat(differ, first)).astype(np.int8)
            kind[np.arange(widen.size)[:, None], sampled[widen]] = 2
            varying = np.count_nonzero(kind == 0, axis=1)
            widen, kind = widen[varying > 0], kind[varying > 0]
        if m < d and widen.size:
            # each node's varying features ascending, then constant ones, which
            # offer no candidate, up to the longest list of the step
            rest = np.argsort(kind, axis=1, kind="stable")[:, : varying.max()]
            widened = _best_splits(
                values, codes, [node_rows[i] for i in widen],
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
