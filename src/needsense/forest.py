"""Random forest classifier with fully deterministic training.

Built from scratch so every contract is pinned: per-tree generators are
seeded from (seed, tree index), candidate thresholds are midpoints between
consecutive distinct sorted feature values, splits maximize Gini impurity
decrease with ties broken by lowest feature index then lowest threshold,
and the text serialization round-trips models bit for bit.

The split search counts instead of sorting.  `fit_forest` stores each
column's distinct values once, sorted, and each cell's rank among them.  For
a node, the class counts of every (feature, rank) give the values present,
and running sums over them the left-side counts at every boundary between
consecutive present values.  This is exact, not an approximation by bins:
the ranks are the column's own values, so the boundaries, midpoints, counts
and Gini expressions (same integer dtypes, same float operations) are those
a sort of the node's column would give.  Values that compare equal share a
rank, as -0.0 and 0.0 share a run of a sorted column; which one the table
keeps cannot move a midpoint, as x + 0.0 == x + -0.0 for every nonzero x.

The counts read only a row's ranks and label, so the rows are grouped by
them (`_groups`): the windows hold cues that seldom change, and the default
suite's 7,339 rows make 3,768 groups.  Each tree counts how often its
bootstrap drew each group, and a node holds its groups once each, weighted
by those counts, as scikit-learn's trees take a bootstrap as sample weights
(Louppe, arXiv:1407.7502).  The weights are integers well below 2**53, so
their float sums are exact, and the counts are cast back to int64 before
the running sums.

The trees grow in lockstep and a step's nodes are searched together: one
weighted `bincount` over (node, feature, rank, label) counts a block of up
to _SEARCH_CELLS (group, feature) cells, so numpy's call overhead is paid
per block, not per node, and most nodes are small.  A cell's bin takes one
gather from a table of 2 * rank + label (a byte per cell here) and one add
of a 32-bit key, into buffers that last the whole fit (`_Buffers`).  Each
searched node's feature subset is the one `Generator.choice` would draw
from its tree's generator, found for a whole step at once (`_FeatureDraws`).

When the sampled feature subset offers no usable split the search widens,
drawing nothing, to the other features that vary at the node: a node is a
leaf only when it is pure, hits a stopping rule, or has no distinguishing
feature, so an unlimited-depth forest memorizes any consistently labeled
training set.  A constant feature offers no split, and a node where none
varies (one row drawn with both labels) is a leaf at once.

A node is a [start, stop) range of its tree's row of the group and weight
arrays, which last the whole fit (scikit-learn's splitter keeps its samples
so).  A split sends left the groups whose code in its feature is below 2 *
rank + 2 of its lower value: exactly the rows with X <= threshold, as a
valid threshold lies at or above that value and below the next one present
at the node.  A step's nodes are arrays, not Python objects: a block of
them is gathered from its flat offsets by one `take`, and `_partition`
writes it back by one scatter, lefts first and each side in its old order.
Each tree's stack is a row of one array, a node that needs no search is a
leaf when made, and the nodes are laid out in preorder at the end.
"""

from __future__ import annotations

import math
import os
import re
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
_SEARCH_CELLS = 1 << 17
# stack slots per tree at the start of a fit, doubled whenever a tree needs more
_STACK_SLOTS = 8


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


class _Buffers:
    """Arrays that every search of one fit writes into, each grown to the
    largest size asked of it, so that a block reuses pages already mapped
    rather than allocating its row-sized arrays afresh."""

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A C-contiguous array of this shape and dtype, reusing `name`'s."""
        size = math.prod(shape)
        array = self._arrays.get(name)
        if array is None or array.size < size or array.dtype != dtype:
            array = self._arrays[name] = np.empty(size, dtype)
        return array[:size].reshape(shape)


# 32-bit halves of its generator's output that each tree's draw buffer holds
_HALVES = 1 << 9


class _FeatureDraws:
    """Each tree's next feature subset, sorted: the m of d features that
    `rng.choice(d, size=m, replace=False)` would draw from its generator,
    found for all the trees of a step at once rather than by a call per node.

    numpy draws with Floyd's algorithm (Bentley and Floyd, CACM 1987) unless
    d > 10000 and m > d // 50, where it shuffles a tail; there `sample` calls
    `choice`.  Floyd draws v in [0, j] for j = d - m .. d - 1 and picks j in
    place of a v picked before.  numpy then shuffles the picks, drawing in
    [0, i] for i = m - 1 .. 1; the subset is sorted, so those draws are only
    consumed.  Each bounded draw is Lemire's (ACM TOMACS 2019): a 32-bit half
    of the generator's output times bound + 1, whose high word is the value,
    drawn again while the low word is below (2**32 - bound - 1) % (bound + 1).
    A 64-bit output gives its low half first and keeps the other, as the
    generator's state (`has_uint32`, `uinteger`) does after the bootstrap.

    Tree t reads its halves in order from row t of `halves`, at `cursor[t]`
    and below `stop[t]`, refilled from `bit_generator.random_raw`.  A step
    multiplies the 2m - 1 halves of every tree by their bounds and resolves
    Floyd's repeats in m vectorized passes.  A tree with a low word below
    bound + 1, which a rejection needs, goes through `_scalar` over the same
    halves.
    """

    def __init__(self, rngs, d: int, m: int) -> None:
        self.rngs, self.d, self.m = rngs, d, m
        self.floyd = not (d > 10000 and m > d // 50)
        # bound + 1 of each of a subset's 2m - 1 draws: Floyd's, then the shuffle's
        bounds = np.concatenate((np.arange(d - m, d), np.arange(m - 1, 0, -1)))
        self.excl = bounds.astype(np.uint64) + 1
        # a refill leaves fewer than 2m - 1 halves unread, so one step fits
        width = max(_HALVES, 2 * bounds.size) if self.floyd else 0
        self.halves = np.empty((len(rngs), width), np.uint32)
        self.cursor = np.zeros(len(rngs), np.intp)
        self.stop = np.zeros(len(rngs), np.intp)
        for t, rng in enumerate(rngs if self.floyd else ()):
            state = rng.bit_generator.state
            if state["has_uint32"]:
                self.halves[t, 0], self.stop[t] = state["uinteger"], 1
            self._fill(t)

    def _fill(self, t: int) -> None:
        """Move tree t's unread halves to the front of its row and fill the
        rest from its generator."""
        row, start, stop = self.halves[t], self.cursor[t], self.stop[t]
        unread = stop - start
        row[:unread] = row[start:stop]
        raws = (row.size - unread) // 2
        raw = self.rngs[t].bit_generator.random_raw(raws)
        row[unread : unread + 2 * raws] = raw.astype("<u8").view("<u4")
        self.cursor[t], self.stop[t] = 0, unread + 2 * raws

    def _bounded(self, t: int, bound: int) -> int:
        """Tree t's next draw in [0, bound], a half at a time."""
        excl = bound + 1
        threshold = (0xFFFFFFFF - bound) % excl
        while True:
            if self.cursor[t] == self.stop[t]:
                self._fill(t)
            product = int(self.halves[t, self.cursor[t]]) * excl
            self.cursor[t] += 1
            if product & 0xFFFFFFFF >= threshold:
                return product >> 32

    def _scalar(self, t: int) -> list[int]:
        """Tree t's next subset, sorted, drawn one bounded draw at a time."""
        d, m = self.d, self.m
        picks: set[int] = set()
        for j in range(d - m, d):
            v = self._bounded(t, j)
            picks.add(j if v in picks else v)
        for i in range(m - 1, 0, -1):
            self._bounded(t, i)
        return sorted(picks)

    def sample(self, trees: np.ndarray) -> np.ndarray:
        """The next subset of each tree in `trees` (no tree twice), sorted, as
        a (len(trees), m) array."""
        d, m = self.d, self.m
        if not self.floyd:
            draws = [self.rngs[t].choice(d, size=m, replace=False) for t in trees]
            return np.sort(draws, axis=1)
        need = 2 * m - 1
        for t in trees[self.stop[trees] - self.cursor[trees] < need].tolist():
            self._fill(t)
        at = self.cursor[trees]
        product = self.halves[trees[:, None], at[:, None] + np.arange(need)] * self.excl
        self.cursor[trees] = at + need
        picks = (product[:, :m] >> 32).astype(np.intp)
        for i in range(1, m):
            repeat = (picks[:, :i] == picks[:, i, None]).any(axis=1)
            picks[repeat, i] = d - m + i
        rejecting = ((product & 0xFFFFFFFF) < self.excl).any(axis=1)
        for i in np.flatnonzero(rejecting).tolist():
            self.cursor[trees[i]] = at[i]
            picks[i] = self._scalar(trees[i])
        picks.sort(axis=1)
        return picks


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Whether each element of a starts a run of equal values."""
    starts = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=starts[1:])
    return starts


def _gathered(order, drawn, offset, size, buffers):
    """(owner, at, group, count) of each place of the nodes' ranges, none
    empty, in turn: its node, its flat position (offset[i] up to offset[i] +
    size[i]), and the group and draws there, read by one `take` each."""
    at = buffers.get("at", (int(size.sum()),), _index_type(order.size))
    at.fill(1)  # steps of 1, and a jump to its offset where each range starts
    at[np.cumsum(size) - size] = offset - np.append(0, offset[:-1] + size[:-1] - 1)
    np.cumsum(at, dtype=at.dtype, out=at)
    group = order.take(at, out=buffers.get("group", at.shape, order.dtype), mode="clip")
    count = drawn.take(at, out=buffers.get("count", at.shape, drawn.dtype), mode="clip")
    return np.repeat(np.arange(len(size), dtype=at.dtype), size), at, group, count


def _best_splits(
    values, codes, order, drawn, offset, size, n, pos, features, min_leaf, buffers
):
    """(feature, threshold, left positives, bound, left count), weighted, of
    each node's best split over its candidate features; feature is -1 where
    none of them splits the node.  bound is 2 * rank + 2 of the split's lower
    value: a group of the node goes left where its code is below it.

    codes[j, g] is 2 * rank + label of group g in feature j.  Node i holds the
    size[i] groups from flat position offset[i] of `order`, each drawn as
    often as `drawn` there says (n[i] rows, pos[i] positive), and searches
    features[i], ascending among those that vary at it.  Each (node, feature)
    pair is a slot with `width` bins per class, one per rank, so one
    bincount, weighted by the draws, counts every (value, label) of every
    node of a block.  The occupied bins in slot order are the values present
    at each node, consecutive ones within a slot are the candidate
    boundaries, and candidates ascend by node, then feature, then threshold;
    the first maximum of each node realizes the tie-breaking.
    """
    (k, m), width = features.shape, values.shape[1]
    feature, threshold = np.full(k, -1), np.zeros(k)
    pos_left, bound, n_left = (np.zeros(k, np.int64) for _ in range(3))
    for start, stop in _blocks((size + width) * m):
        node_n, node_pos = n[start:stop], pos[start:stop]
        block_features = features[start:stop]
        table = block_features.size * width
        index = _index_type(max(codes.size, 2 * table))
        owner, _, group, count = _gathered(
            order, drawn, offset[start:stop], size[start:stop], buffers
        )
        # the cell of group g and the f-th feature of its node i counts into
        # bin ((i * m + f) * width + rank) * 2 + label; `key` holds each
        # cell's flat index into codes until the codes are gathered.  Every
        # index is in range, and mode="clip" writes into `out` unbuffered.
        key = buffers.get("key", (group.size, m), index)
        offsets = block_features.astype(index) * codes.shape[1]
        np.take(offsets, owner, axis=0, out=key, mode="clip")
        key += group[:, None]
        code = buffers.get("code", key.shape, codes.dtype)
        codes.ravel().take(key, out=code, mode="clip")
        slot_bins = np.arange(0, 2 * table, 2 * width, dtype=index)
        np.take(slot_bins.reshape(-1, m), owner, axis=0, out=key, mode="clip")
        key += code
        # each cell weighs as many rows as its tree drew of its group
        weight = buffers.get("weight", key.shape, np.float64)
        weight[...] = count[:, None]
        counts = np.bincount(key.ravel(), weights=weight.ravel(), minlength=2 * table)
        positive = counts[1::2]
        total = counts[::2] + positive
        present = np.flatnonzero(total > 0)
        total = total[present].astype(np.int64)
        positive = positive[present].astype(np.int64)
        slot_at, rank_at = np.divmod(present, width)
        # every slot holds all its node's rows, so the running totals restart
        # at each slot once the totals of the slots before it are taken off
        slot_n, slot_pos = np.repeat(node_n, m), np.repeat(node_pos, m)
        slot = slot_at[:-1]
        nl = np.cumsum(total)[:-1] - (np.cumsum(slot_n) - slot_n)[slot]
        pl = np.cumsum(positive)[:-1] - (np.cumsum(slot_pos) - slot_pos)[slot]
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
        n_left[found] = nl[hit]
        # a valid threshold has lo <= thr < hi, and no row of the node holds a
        # value between them, so thr splits the node's rows where rank lo does
        bound[found] = 2 * rank_at[valid[hit]] + 2
    return feature, threshold, pos_left, bound, n_left


def _balance(split: np.ndarray) -> np.ndarray:
    # open subtrees not yet started before each node; tree t starts at -t
    return np.concatenate(([0], np.cumsum(np.where(split, 1, -1))))


def _line_error(line_no: int, message: str) -> ValueError:
    return ValueError(f"line {line_no}: {message}")


# The body grammar's widest fields: a count or an index takes 1 to _INT_WIDTH
# digits, a threshold 1 to _THR_WIDTH bytes (the longest float repr, as in
# -1.2345678901234567e-308).  The parser reads the text a word (8 bytes) at a
# time, and its buffer ends with _PAD zero bytes, so a word read from any
# position of the text, or from its end, lies inside the buffer.
_INT_WIDTH = 9
_THR_WIDTH = 24
_PAD = 8
# body lines one _scan_lines call reads: bounds the parser's working set
_SCAN_LINES = 1 << 13
_THR_BYTES = np.zeros(256, dtype=bool)
_THR_BYTES[np.frombuffer(b"0123456789+-.einfa", dtype=np.uint8)] = True
# _LOW[k] keeps the first k bytes of a little-endian word
_LOW = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _word(text: bytes) -> int:
    """Up to 8 bytes of text as the little-endian word that spells them."""
    return int.from_bytes(text, "little")


_TREE, _NODE, _LEAF = _word(b"tree "), _word(b"node "), _word(b"leaf ")
_FEAT, _THR = _word(b" feat="), _word(b" thr=")
_CLASS0, _CLASS1 = _word(b" class=0"), _word(b" class=1")


def _read(path: str | Path, digest=None) -> np.ndarray:
    """The bytes of a file, read once into an array that ends with _PAD zeros;
    a hashlib `digest`, if given, is updated with them."""
    with open(path, "rb") as f:
        buf = np.zeros(os.fstat(f.fileno()).st_size + _PAD, dtype=np.uint8)
        size = f.readinto(buf[:-_PAD])
    if digest is not None:
        digest.update(buf[:size])
    return buf[: size + _PAD]


def _word_view(buf: np.ndarray) -> np.ndarray:
    """The 8 bytes of buf from each position as one little-endian word: an
    unaligned view, so one gather reads a whole literal or number."""
    return np.ndarray((buf.size - 7,), "<u8", buf, strides=(1,))


def _at(words: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The word from each position in `at`.  A position past the text reads
    the last word, which is the zero padding."""
    return words[np.minimum(at, words.size - 1)]


def _integers(words: np.ndarray, at: np.ndarray):
    """(value, stop, ok) of the run of digits at each position in `at`: its
    value, the position after it, and whether it is a count in canonical form,
    with no leading zero.  The bytes from each position are taken a column at
    a time while every byte so far is a digit (Horner's rule), up to
    _INT_WIDTH of them; each 8 columns are one word, read only while some run
    goes on.  A longer run stops there, and its next digit then breaks the
    literal or the line end that every field is followed by."""
    size = np.zeros(len(at), dtype=np.intp)
    value = np.zeros(len(at), dtype=np.int64)
    run = np.ones(len(at), dtype=bool)
    for j in range(_INT_WIDTH):
        if j % 8 == 0:
            digit = _at(words, at + j)[:, None].view(np.uint8) - np.uint8(ord("0"))
        column = digit[:, j % 8]  # a byte below "0" wraps past 9
        if j == 0:
            leading_zero = column == 0
        run &= column < 10
        if not run.any():  # most runs are short: stop at the longest
            break
        size += run
        value = np.where(run, value * 10 + column, value)
    ok = (size == 1) | ((size > 1) & ~leading_zero)
    return value, at + size, ok


def _is_float(text: bytes) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _cast(text: np.ndarray, size: np.ndarray):
    """(value, ok) of texts given as rows of three words, zero past `size`
    bytes: ok where they are 1 to _THR_WIDTH threshold bytes that float()
    reads.  The cast is float() itself, so a repr reads back bit for bit."""
    ok = (size > 0) & (size <= _THR_WIDTH)
    past = np.arange(_THR_WIDTH) >= size[:, None]
    ok &= (_THR_BYTES[text.view(np.uint8).reshape(-1, _THR_WIDTH)] | past).all(axis=1)
    strings = text.view(f"S{_THR_WIDTH}")[:, 0]
    strings[~ok] = b"0"
    try:
        return strings.astype(np.float64), ok
    except ValueError:  # such as "1e" or "--1": find which, on this error path only
        reads = np.array([_is_float(field) for field in strings.tolist()], dtype=bool)
        strings[~reads] = b"0"
        return strings.astype(np.float64), ok & reads


def _floats(words: np.ndarray, at: np.ndarray, stop: np.ndarray):
    """(value, ok) of each field buf[at:stop], as `_cast` reads it.  A model
    repeats few thresholds, so each distinct field is cast once: the fields,
    as their three words and their length, are sorted by `lexsort`, and a
    distinct one starts wherever a field differs from the one before it."""
    size = stop - at
    text = [
        _at(words, at + 8 * j) & _LOW[np.clip(size - 8 * j, 0, 8)] for j in range(3)
    ]
    order = np.lexsort((*text, size))
    columns = [column[order] for column in (*text, size)]
    first = np.zeros(len(order), dtype=bool)
    first[:1] = True
    for column in columns:
        first[1:] |= column[1:] != column[:-1]
    distinct = np.stack([column[first] for column in columns[:3]], axis=1)
    value, ok = _cast(distinct, columns[3][first])
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.cumsum(first) - 1
    return value[group], ok[group]


def _scan_lines(words: np.ndarray, start: np.ndarray, stop: np.ndarray):
    """(ok, kind, number, feature, threshold, value) of the body lines
    buf[start:stop]: kind is 1 for "tree T", 2 for "node I feat=F thr=X" and
    "leaf I class=C", 0 for any other line, of which only a blank one is ok;
    number is T or I, and value is C, or -1 at a split.  Every line takes one
    gather for its keyword and one for its number; the literals and fields
    after them are gathered only on the lines of the kind that has them."""
    keyword = _at(words, start) & _LOW[5]
    number, at, number_ok = _integers(words, start + 5)
    tree = keyword == _TREE
    ok = (start == stop) | (tree & number_ok & (at == stop))
    kind = tree.astype(np.int8)
    feature = np.full(len(start), -1, dtype=np.int32)
    threshold = np.zeros(len(start))
    value = np.full(len(start), -1, dtype=np.int8)
    i = np.flatnonzero(keyword == _NODE)
    kind[i], at_i = 2, at[i]
    feature[i], feat_stop, feat_ok = _integers(words, at_i + 6)
    threshold[i], thr_ok = _floats(words, feat_stop + 5, stop[i])
    ok[i] = (
        number_ok[i] & ((_at(words, at_i) & _LOW[6]) == _FEAT) & feat_ok
        & ((_at(words, feat_stop) & _LOW[5]) == _THR) & thr_ok
    )
    i = np.flatnonzero(keyword == _LEAF)
    kind[i], at_i = 2, at[i]
    word = _at(words, at_i)
    value[i] = one = word == _CLASS1
    ok[i] = number_ok[i] & (one | (word == _CLASS0)) & (stop[i] == at_i + 8)
    return ok, kind, number, feature, threshold, value


_HEADER_KEYS = (
    "n_trees", "max_depth", "min_samples_leaf", "features_per_split",
    "bootstrap", "seed", "n_features",
)
# an integer as `save` writes one: ASCII digits, no sign, no leading zero.
# Unlike a body field it has no width limit: a seed may take 10 digits or more
_CANONICAL = re.compile("0|[1-9][0-9]*")


def _header(line: bytes) -> tuple[ForestConfig, int]:
    """(config, n_features) of the header line: each of its seven keys once,
    in any order, split by any whitespace but a carriage return, and no other
    key.  Every value is an integer in canonical form, of any length;
    max_depth may also be none, bootstrap is 0 or 1, and features_per_split lies in
    [1, n_features], so that the header round-trips."""
    header = line.decode("utf-8")
    if "\r" in header:  # a line break to a reader with universal newlines
        raise ValueError("carriage return inside the line")
    h: dict[str, int | None] = {}
    for item in header.split():
        key, eq, text = item.partition("=")
        if key not in _HEADER_KEYS:
            raise ValueError(f"unknown key {key!r}")
        if key in h:
            raise ValueError(f"duplicate key {key!r}")
        if key == "max_depth" and text == "none":
            h[key] = None
        elif eq and _CANONICAL.fullmatch(text):
            h[key] = int(text)
        else:
            raise ValueError(f"{key}={text!r} is not an integer in canonical form")
    missing = [key for key in _HEADER_KEYS if key not in h]
    if missing:
        raise ValueError(f"missing key {missing[0]!r}")
    if h["bootstrap"] not in (0, 1):
        raise ValueError("bootstrap must be 0 or 1")
    if h["n_features"] < 1:
        raise ValueError("n_features must be >= 1")
    if not 1 <= h["features_per_split"] <= h["n_features"]:
        raise ValueError("features_per_split must be in [1, n_features]")
    config = ForestConfig(
        n_trees=h["n_trees"],
        max_depth=h["max_depth"],
        min_samples_leaf=h["min_samples_leaf"],
        features_per_split=h["features_per_split"],
        bootstrap=bool(h["bootstrap"]),
        seed=h["seed"],
    )
    return config, h["n_features"]


def _scan(buf: np.ndarray):
    """(config, n_features, nodes, roots, tree_lines) of the model text in
    buf[:-_PAD], read in one pass over the whole buffer.

    nodes holds the feature, threshold, value (-1 at a split), id and line
    number of each node line, in file order; roots[t] is the node at which
    tree t starts and tree_lines[t] the line of its `tree t`.  A line ends with
    LF or CRLF, and the grammar is exact (README); the first line that breaks
    it fails.  The body is read by `_scan_lines`, _SCAN_LINES lines at a time
    into one slot per line, so the working set beyond the buffer and the node
    arrays stays bounded.
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
        config, n_features = _header(line(1))
    except ValueError as exc:
        raise _line_error(2, f"bad model header: {exc}") from None

    start, stop = starts[2:], ends[2:]
    words = _word_view(buf)
    # every count and index fits 32 bits: _INT_WIDTH digits
    dtypes = bool, np.int8, np.int32, np.int32, np.float64, np.int8
    columns = [np.empty(len(start), dtype=dtype) for dtype in dtypes]
    for lo in range(0, len(start), _SCAN_LINES):
        block = slice(lo, lo + _SCAN_LINES)
        for column, part in zip(columns, _scan_lines(words, start[block], stop[block])):
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


# rows one forest call votes on at once: bounds its votes to n_trees times this
SCORE_ROWS = 1 << 12


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
        # a split's right child is the next node whose balance equals its own;
        # on the narrowest signed type that holds the balances, numpy's stable
        # sort is a radix sort wherever that is 8 or 16 bits wide
        split = self.feature >= 0
        before = _balance(split)[:-1]
        if before.size:
            low, high = (np.min_scalar_type(b) for b in (before.min(), before.max()))
            before = before.astype(np.result_type(low, high))
        order = np.argsort(before, kind="stable")
        follows = (before[order[1:]] == before[order[:-1]]) & split[order[:-1]]
        self.right = np.full(len(split), -1, dtype=np.intp)
        self.right[order[:-1][follows]] = order[1:][follows]

    def tree_votes(self, X: np.ndarray) -> np.ndarray:
        """Per-tree votes, shape (n_trees, n_rows): all (tree, row) pairs
        descend from their roots a level per step until they reach a leaf.
        Each cell is read from X where it lies, so a strided view, such as
        `frame_windows` gives, is never copied."""
        X = np.asarray(X, dtype=np.float64)
        n, block = len(X), self._BLOCK
        votes = np.empty(len(self.roots) * n, dtype=np.int64)
        for start in range(0, votes.size, block):
            pair = np.arange(start, min(start + block, votes.size))
            # pair p is tree p // n with row p % n
            node, row = self.roots[pair // n], pair % n
            while node.size:
                leaf = self.feature[node] < 0
                votes[pair[leaf]] = self.value[node[leaf]]
                node, pair, row = node[~leaf], pair[~leaf], row[~leaf]
                go_left = X[row, self.feature[node]] <= self.threshold[node]
                node = np.where(go_left, node + 1, self.right[node])
        return votes.reshape(len(self.roots), n)

    def predict_batch(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(labels, scores) for a batch; score is the fraction of trees
        voting for the help class, label 1 when score >= 0.5.  The rows are
        voted on SCORE_ROWS at a time, so the votes held at once stay
        n_trees x SCORE_ROWS however long the batch."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"expected feature dimension {self.n_features}, "
                f"got {X.shape[1] if X.ndim == 2 else X.shape}"
            )
        scores = np.empty(len(X))
        for start in range(0, len(X), SCORE_ROWS):
            block = slice(start, start + SCORE_ROWS)
            scores[block] = self.tree_votes(X[block]).mean(axis=0)
        return (scores >= 0.5).astype(np.int64), scores

    def _line_blocks(self):
        """The model's lines a block at a time: the header, then each tree's
        lines, `tree t` first."""
        cfg = self.config
        depth = "none" if cfg.max_depth is None else str(cfg.max_depth)
        yield [
            "format=needsense-rf version=1",
            f"n_trees={cfg.n_trees} max_depth={depth} "
            f"min_samples_leaf={cfg.min_samples_leaf} "
            f"features_per_split={cfg.resolve_features(self.n_features)} "
            f"bootstrap={int(cfg.bootstrap)} seed={cfg.seed} "
            f"n_features={self.n_features}",
        ]
        bounds = [*self.roots.tolist(), len(self.feature)]
        arrays = self.feature, self.threshold, self.value
        for t, (start, stop) in enumerate(zip(bounds, bounds[1:])):
            lines = [f"tree {t}"]
            columns = (a[start:stop].tolist() for a in arrays)
            for i, (feature, thr, leaf_class) in enumerate(zip(*columns)):
                if feature < 0:
                    lines.append(f"leaf {i} class={leaf_class}")
                else:
                    lines.append(f"node {i} feat={feature} thr={thr!r}")
            yield lines

    def to_lines(self) -> list[str]:
        return [line for lines in self._line_blocks() for line in lines]

    def save(self, path: str | Path) -> None:
        """Write the lines of `to_lines` a tree at a time, so only one tree's
        text is held at once."""
        with open(path, "w", encoding="utf-8") as f:
            for lines in self._line_blocks():
                f.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str | Path, digest=None) -> "RFModel":
        """Parse a model file read once; a hashlib `digest`, if given, is
        updated with the bytes parsed."""
        try:
            # no name holds the buffer, so it is freed once `_scan` returns
            return cls(*_checked(*_scan(_read(path, digest))))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _groups(ranks: np.ndarray, labels: np.ndarray):
    """(group, ranks, labels): the group of each row, and the rank row and
    label of each group, one group per distinct (rank row, label).  Each row
    is one void scalar for `np.unique`, far faster than its axis=0 form."""
    keyed = np.column_stack((ranks, labels.astype(ranks.dtype)))
    rows = keyed.view(np.dtype((np.void, keyed[0].nbytes))).ravel()
    _, first, group = np.unique(rows, return_index=True, return_inverse=True)
    return group, np.ascontiguousarray(keyed[first, :-1]), keyed[first, -1]


def _partition(codes, order, drawn, offset, size, feature, bound, buffers):
    """Rewrite the range of `order` and `drawn` of each node, split on
    feature[i] at bound[i] (see `_best_splits`), lefts first and each side in
    its old order; returns how many groups go left at each node.  A block of
    nodes takes one go-left test and one scatter back per array."""
    index = _index_type(max(codes.size, order.size))
    # a split's lower value is below the node's highest, so its bound fits
    bound = bound.astype(codes.dtype)
    n_left = np.empty(len(size), np.intp)
    # a group weighs as 8 search cells: a block's arrays take about 20 bytes a
    # group, and stay within those of a search block, about 13 bytes a cell
    for start, stop in _blocks(8 * size):
        sizes, offsets = size[start:stop], offset[start:stop]
        owner, at, group, count = _gathered(order, drawn, offsets, sizes, buffers)
        key, shift = (buffers.get(name, at.shape, index) for name in ("key", "shift"))
        spans = (feature[start:stop] * codes.shape[1]).astype(index)
        np.take(spans, owner, out=key, mode="clip")
        key += group
        code, low = (buffers.get(k, at.shape, codes.dtype) for k in ("code", "low"))
        codes.take(key, out=code, mode="clip")
        np.take(bound[start:stop], owner, out=low, mode="clip")
        left = np.less(code, low, out=buffers.get("left", at.shape, bool))
        # a split node holds at least 2 groups, so no two of these starts are equal
        nl = n_left[start:stop] = np.add.reduceat(left, np.cumsum(sizes) - sizes)
        # a left group moves to its node's offset plus the lefts before it
        # there, a right one past the node's lefts plus the rights before it
        lefts = np.cumsum(left, dtype=index, out=key)  # the lefts up to each group
        ends = np.cumsum(nl)  # the lefts up to each node's last group
        at -= lefts
        at += np.take(ends.astype(index), owner, out=shift, mode="clip")
        shifted = (offsets - ends + nl - 1).astype(index)
        lefts += np.take(shifted, owner, out=shift, mode="clip")
        np.copyto(at, lefts, where=left)
        order.ravel()[at] = group
        drawn.ravel()[at] = count
    return n_left


def _grow(values, ranks, codes, labels, group, config: ForestConfig, m: int):
    """Grow the trees in lockstep: a step pops each unfinished tree's next
    node to search, searches them in one `_best_splits` call, widens those
    with no split in one more, partitions the split nodes and pushes the
    children that need a search.  Returns (value, depth, split, feature,
    threshold): each node's leaf value and depth by id, roots first, then
    each split's id, feature and threshold; the k-th split's children are
    n_trees + 2k and the next id.  ranks, codes and labels are the groups'."""
    n, (g, d), n_trees = len(group), ranks.shape, config.n_trees
    max_depth = math.inf if config.max_depth is None else config.max_depth
    min_leaf = config.min_samples_leaf
    rngs = [np.random.default_rng([config.seed, ti]) for ti in range(n_trees)]
    # each tree's groups and how often its bootstrap drew each, for the whole
    # fit: a node is a range of its tree's row of both, partitioned in place
    order = np.empty((n_trees, g), dtype=np.min_scalar_type(g - 1))
    drawn = np.empty((n_trees, g), dtype=np.min_scalar_type(n))
    # (id, tree, start, stop, rows, depth, positives) of the nodes made, by id
    made = np.zeros((n_trees, 7), np.int64)
    for ti, rng in enumerate(rngs):
        rows = group[rng.integers(0, n, size=n)] if config.bootstrap else group
        counts = np.bincount(rows, minlength=g)
        present = np.flatnonzero(counts)
        order[ti, : present.size] = present
        drawn[ti, : present.size] = counts[present]
        made[ti] = ti, ti, 0, present.size, n, 0, np.count_nonzero(labels[rows])
    # each tree's nodes to search, as records of `made` in its row, below its top
    stack, top = np.empty((n_trees, _STACK_SLOTS, 7), np.int64), np.zeros(n_trees, int)
    sides, count, value, depth = (made,), n_trees, [], []
    splits = [(np.zeros(0, np.int64),) * 3]  # each step's (ids, features, thresholds)
    draws = _FeatureDraws(rngs, d, m) if m < d else None
    buffers = _Buffers()  # freed on return, before the preorder is laid out
    while True:
        # a node is a leaf once made unless it needs a search; a right child
        # is pushed before its sibling, so each tree searches in preorder
        value.append((2 * made[:, 6] >= made[:, 4]).astype(np.int8))  # a tie: class 1
        depth.append(made[:, 5].astype(_index_type(n)))
        for side in sides:
            _, _, _, _, rows, at_depth, pos = side.T
            side = side[(0 < pos) & (pos < rows) & (rows >= 2 * min_leaf)
                        & (at_depth < max_depth)]
            tree = side[:, 1]
            if tree.size and top[tree].max() == stack.shape[1]:
                stack = np.concatenate((stack, np.empty_like(stack)), axis=1)
            stack[tree, top[tree]] = side
            top[tree] += 1
        live = np.flatnonzero(top)
        if not live.size:
            break
        top[live] -= 1
        step = stack[live, top[live]]
        _, tree, start, stop, rows, _, pos = step.T
        offset, size = tree * g + start, stop - start
        sampled = draws.sample(live) if m < d else np.tile(np.arange(d), (live.size, 1))
        best = _best_splits(
            values, codes, order, drawn, offset, size, rows, pos, sampled, min_leaf,
            buffers,
        )
        widen = np.flatnonzero(best[0] < 0)
        if m < d and widen.size:
            # a feature varies at a node where two consecutive groups differ in it
            *_, groups, _ = _gathered(order, drawn, offset[widen], size[widen], buffers)
            node_ranks = ranks[groups]
            first = np.cumsum(size[widen]) - size[widen]
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
                values, codes, order, drawn, offset[widen], size[widen], rows[widen],
                pos[widen], rest, min_leaf, buffers,
            )
            for column, found in zip(best, widened):
                column[widen] = found
        cut = np.flatnonzero(best[0] >= 0)
        ids, tree, start, stop, rows, at_depth, pos = step[cut].T
        found, thr, pl, bound, nl = (column[cut] for column in best)
        splits.append((ids.copy(), found, thr))  # a row of `step` keeps all of it
        # X[rows, feature] <= threshold, read from the codes
        mid = start + _partition(
            codes, order, drawn, offset[cut], size[cut], found, bound, buffers
        )
        left = count + 2 * np.arange(cut.size)
        count += 2 * cut.size
        made = np.transpose(
            [(left, tree, start, mid, nl, at_depth + 1, pl),
             (left + 1, tree, mid, stop, rows - nl, at_depth + 1, pos - pl)],
            (2, 0, 1),
        ).reshape(-1, 7)
        sides = made[1::2], made[::2]
    return (*map(np.concatenate, (value, depth, *zip(*splits))),)


def _preorder(n_trees: int, value, depth, split, feature, threshold):
    """(feature, threshold, value, roots) of the nodes `_grow` made, in
    preorder: subtree sizes bottom-up by depth, then positions top-down."""
    index = _index_type(len(value))
    by_depth = np.argsort(depth[split], kind="stable")
    split, left = split[by_depth], (n_trees + 2 * by_depth).astype(index)
    bounds = np.cumsum(np.bincount(depth[split]))[:-1]
    levels = list(zip(np.split(split, bounds), np.split(left, bounds)))
    size = np.ones(len(value), index)
    for parent, child in reversed(levels):
        size[parent] += size[child] + size[child + 1]
    position = np.empty(len(value), index)
    position[:n_trees] = np.cumsum(size[:n_trees]) - size[:n_trees]
    for parent, child in levels:
        position[child] = position[parent] + 1
        position[child + 1] = position[child] + size[child]
    columns = np.full(len(value), -1), np.zeros(len(value)), np.empty_like(value)
    columns[2][position] = value
    for column, at_split in zip(columns, (feature[by_depth], threshold[by_depth], -1)):
        column[position[split]] = at_split
    return (*columns, position[:n_trees])


def fit_forest(X: np.ndarray, y: np.ndarray, config: ForestConfig) -> RFModel:
    """Train on raw arrays; rows are taken in the given (canonical) order.

    The trees grow in lockstep, each with its own generator, stack and
    preorder, so its draws are those of growing it alone: its bootstrap
    first, then one feature subset per node it searches, in preorder (see
    `_grow`).  X is read only to build the rank and code tables, and no name
    here holds it after that, so a caller that hands over its only reference
    (as `fusion.train_rf` does) frees the rows before the trees grow.  No
    copy is made when X is already a float64 array.
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
    d = X.shape[1]
    m = config.resolve_features(d)
    values, ranks = _rank_table(X)
    del X
    group, ranks, labels = _groups(ranks, labels)
    dtype = np.min_scalar_type(2 * values.shape[1] - 1)
    codes = 2 * np.ascontiguousarray(ranks.T, dtype=dtype) + labels.astype(dtype)
    nodes = _grow(values, ranks, codes, labels, group, config, m)
    resolved = replace(config, features_per_split=m)
    return RFModel(*_preorder(config.n_trees, *nodes), resolved, d)
