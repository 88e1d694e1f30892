"""Random forest: split selection, determinism, serialization, memorization."""

from __future__ import annotations

import functools
import io
import re
import tempfile
import tracemalloc
from array import array
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from needsense import forest
from needsense.forest import ForestConfig, RFModel, fit_forest
from needsense.sessions import frame_windows

SINGLE_TREE = ForestConfig(n_trees=1, bootstrap=False, seed=0)


def load_lines(lines) -> RFModel:
    """`RFModel.load` of a file of `lines`, each ended by an LF unless it
    has one, with the file's name taken off an error's message.  The file
    is under a directory of its own, since Hypothesis tests take no
    `tmp_path`."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "rf.model"
        path.write_text(
            "".join(line if line.endswith("\n") else line + "\n" for line in lines),
            encoding="utf-8",
        )
        try:
            return RFModel.load(path)
        except ValueError as exc:
            raise ValueError(str(exc).removeprefix(f"{path}: ")) from None


def fit_single(X, y, **overrides):
    config = ForestConfig(n_trees=1, bootstrap=False, seed=0, **overrides)
    return fit_forest(np.asarray(X, float), np.asarray(y), config)


class TestConfig:
    def test_defaults(self):
        cfg = ForestConfig()
        assert cfg.n_trees == 100
        assert cfg.max_depth is None
        assert cfg.min_samples_leaf == 1
        assert cfg.bootstrap is True

    def test_feature_subset_defaults_to_ceil_sqrt(self):
        assert ForestConfig().resolve_features(60) == 8
        assert ForestConfig().resolve_features(4) == 2
        assert ForestConfig().resolve_features(5) == 3
        assert ForestConfig(features_per_split=10).resolve_features(6) == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            ForestConfig(n_trees=0)
        with pytest.raises(ValueError):
            ForestConfig(min_samples_leaf=0)
        with pytest.raises(ValueError):
            ForestConfig(max_depth=0)


class TestSplitSelection:
    def test_separable_stump(self):
        model = fit_single([[-2.0], [-1.0], [1.0], [3.0]], [0, 0, 1, 1])
        assert model.to_lines() == [
            "format=needsense-rf version=1",
            "n_trees=1 max_depth=none min_samples_leaf=1 "
            "features_per_split=1 bootstrap=0 seed=0 n_features=1",
            "tree 0",
            "node 0 feat=0 thr=0.0",
            "leaf 1 class=0",
            "leaf 2 class=1",
        ]
        labels, scores = model.predict_batch([[-5.0], [-0.1], [0.1], [9.0]])
        assert labels.tolist() == [0, 0, 1, 1]
        assert scores.tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_boundary_goes_left(self):
        model = fit_single([[-1.0], [1.0]], [0, 1])
        labels, _ = model.predict_batch([[0.0]])  # threshold is exactly 0.0
        assert labels.tolist() == [0]

    def test_equal_decrease_prefers_lower_threshold(self):
        # thresholds 0.5 and 1.5 both yield the same impurity decrease
        model = fit_single([[0.0], [1.0], [2.0]], [0, 1, 0])
        assert model.feature[0] == 0
        assert model.threshold[0] == 0.5

    def test_equal_decrease_prefers_lower_feature(self):
        # identical columns: both features would split perfectly
        model = fit_single([[0.0, 0.0], [1.0, 1.0]], [0, 1])
        assert model.feature[0] == 0

    def test_constant_features_make_a_leaf(self):
        model = fit_single([[1.0], [1.0], [1.0]], [1, 0, 1])
        assert model.feature[0] == -1 and model.value[0] == 1

    def test_leaf_tie_prefers_help_class(self):
        model = fit_single([[5.0], [5.0]], [0, 1])
        assert model.feature[0] == -1 and model.value[0] == 1

    def test_min_samples_leaf_excludes_edge_splits(self):
        model = fit_single(
            [[0.0], [1.0], [2.0], [3.0]], [0, 0, 0, 1], min_samples_leaf=2
        )
        assert model.threshold[0] == 1.5
        # in preorder the left child is node 1
        assert model.feature[1] == -1 and model.value[1] == 0
        right = model.right[0]
        assert model.feature[right] == -1 and model.value[right] == 1

    def test_max_depth_stops_growth(self):
        X = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
        y = [0, 1, 1, 0]  # needs depth 2 to separate
        model = fit_single(X, y, max_depth=1, features_per_split=2)
        assert model.feature[0] != -1
        assert model.feature[1] == -1 and model.feature[model.right[0]] == -1

    @given(
        X=arrays(
            np.int64,
            st.tuples(
                st.integers(min_value=2, max_value=30),
                st.integers(min_value=1, max_value=4),
            ),
            elements=st.integers(min_value=0, max_value=5),
        ),
        y_seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_root_split_matches_brute_force_oracle(self, X, y_seed):
        y = np.random.default_rng(y_seed).integers(0, 2, size=len(X))
        assume(len(set(y.tolist())) == 2)
        Xf = X.astype(np.float64)
        model = fit_single(
            Xf, y, max_depth=1, features_per_split=X.shape[1]
        )
        expected = brute_force_best_split(Xf, y)
        if expected is None:
            assert model.feature[0] == -1
        else:
            assert (model.feature[0], model.threshold[0]) == expected[1:]


def brute_force_best_split(X, y, min_leaf=1):
    """Independent split search mirroring the documented tie rules."""
    n, d = X.shape
    p = y.sum() / n
    parent = 1.0 - p * p - (1.0 - p) * (1.0 - p)
    best = None
    for f in range(d):
        vals = sorted(set(X[:, f].tolist()))
        for a, b in zip(vals, vals[1:]):
            thr = (a + b) / 2.0
            if not thr < b:
                continue
            left = y[X[:, f] <= thr]
            right = y[X[:, f] > thr]
            nl, nr = len(left), len(right)
            if nl < min_leaf or nr < min_leaf:
                continue
            pl, pr = left.sum(), right.sum()
            gini_l = 1.0 - (pl / nl) ** 2 - ((nl - pl) / nl) ** 2
            gini_r = 1.0 - (pr / nr) ** 2 - ((nr - pr) / nr) ** 2
            decrease = parent - (nl * gini_l + nr * gini_r) / n
            if best is None or decrease > best[0]:
                best = (decrease, f, thr)
    return best


class TestDeterminism:
    def data(self, seed=7, n=60, d=4):
        rng = np.random.default_rng(seed)
        X = rng.random((n, d))
        y = (X[:, 0] + X[:, 1] > 1.0).astype(int)
        return X, y

    def test_same_seed_same_model(self):
        X, y = self.data()
        cfg = ForestConfig(n_trees=10, seed=3)
        a = fit_forest(X, y, cfg).to_lines()
        b = fit_forest(X, y, cfg).to_lines()
        assert a == b

    def test_different_seed_different_model(self):
        X, y = self.data()
        a = fit_forest(X, y, ForestConfig(n_trees=10, seed=3)).to_lines()
        b = fit_forest(X, y, ForestConfig(n_trees=10, seed=4)).to_lines()
        assert a != b

    def test_trees_differ_within_a_forest(self):
        X, y = self.data()
        model = fit_forest(X, y, ForestConfig(n_trees=5, seed=0))
        lines = "\n".join(model.to_lines())
        blocks = lines.split("tree ")[1:]
        assert len(set(blocks)) > 1


class TestMemorization:
    @given(
        X=arrays(
            np.int64,
            st.tuples(
                st.integers(min_value=2, max_value=80),
                st.integers(min_value=1, max_value=5),
            ),
            elements=st.integers(min_value=0, max_value=3),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_unlimited_depth_memorizes_consistent_labels(self, X):
        # identical rows share a label by construction, so labels are consistent
        y = (X.sum(axis=1) % 2).astype(np.int64)
        assume(len(set(y.tolist())) == 2)
        model = fit_forest(
            X.astype(np.float64),
            y,
            ForestConfig(n_trees=5, bootstrap=False, seed=1),
        )
        labels, _ = model.predict_batch(X.astype(np.float64))
        assert labels.tolist() == y.tolist()

    def test_duplicate_rows_fall_back_to_majority(self):
        X = np.array([[1.0], [1.0], [1.0], [2.0]])
        y = np.array([1, 1, 0, 0])
        model = fit_forest(X, y, SINGLE_TREE)
        labels, _ = model.predict_batch(X)
        assert labels.tolist() == [1, 1, 1, 0]


class TestPredict:
    def manual_model(self, leaf_classes, n_features=2):
        lines = [
            "format=needsense-rf version=1",
            f"n_trees={len(leaf_classes)} max_depth=none min_samples_leaf=1 "
            f"features_per_split=1 bootstrap=1 seed=0 n_features={n_features}",
        ]
        for ti, c in enumerate(leaf_classes):
            lines += [f"tree {ti}", f"leaf 0 class={c}"]
        return load_lines(lines)

    def test_unanimous_vote(self):
        labels, scores = self.manual_model([1]).predict_batch([[0.0, 0.0]])
        assert labels.tolist() == [1] and scores.tolist() == [1.0]

    def test_minority_vote(self):
        model = self.manual_model([1, 1, 0, 0, 0])
        labels, scores = model.predict_batch([[0.0, 0.0]])
        assert labels.tolist() == [0] and scores.tolist() == [0.4]

    def test_split_vote_goes_to_help_class(self):
        model = self.manual_model([1, 1, 0, 0])
        labels, scores = model.predict_batch([[0.0, 0.0]])
        assert labels.tolist() == [1] and scores.tolist() == [0.5]

    def test_a_long_batch_is_voted_on_in_bounded_blocks(self):
        rng = np.random.default_rng(6)
        X = rng.random((200, 3))
        y = (X[:, 0] + X[:, 1] > 1.0).astype(int)
        model = fit_forest(X, y, ForestConfig(n_trees=5, max_depth=4, seed=1))
        probe = rng.random((100_000, 3))
        tracemalloc.start()
        try:
            labels, scores = model.predict_batch(probe)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # beyond the two results, about one block's votes: all the votes of
        # one batch take 4 MB
        assert peak - labels.nbytes - scores.nbytes < 1 << 20
        votes = model.tree_votes(probe).mean(axis=0)
        assert scores.tolist() == votes.tolist()
        assert labels.tolist() == (votes >= 0.5).astype(int).tolist()

    def test_a_window_view_is_voted_on_without_a_copy(self):
        # `run` scores `frame_windows` views: at W = 1,000 a block of rows
        # copied out of the frames would take 3,000 times their bytes
        rng = np.random.default_rng(8)
        window = 1_000
        fit_rows = np.array(frame_windows(rng.random((window + 59, 3)), window))
        y = (fit_rows[:, ::7].sum(axis=1) > fit_rows[:, ::7].sum(axis=1).mean())
        model = fit_forest(
            fit_rows, y.astype(int), ForestConfig(n_trees=5, max_depth=6, seed=3)
        )
        frames = rng.random((2 * window, 3))
        view = frame_windows(frames, window)
        tracemalloc.start()
        try:
            votes = model.tree_votes(view)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < frames.nbytes + (1 << 20)  # the copy: 24 MB
        assert votes.tolist() == model.tree_votes(np.array(view)).tolist()

    def test_batch_equals_per_row(self):
        rng = np.random.default_rng(5)
        X = rng.random((40, 3))
        y = (X[:, 0] > 0.5).astype(int)
        model = fit_forest(X, y, ForestConfig(n_trees=7, seed=2))
        probe = rng.random((15, 3))
        batch_labels, batch_scores = model.predict_batch(probe)
        for i, row in enumerate(probe):
            labels, scores = model.predict_batch(row[None, :])
            assert labels[0] == batch_labels[i]
            assert scores[0] == batch_scores[i]


def reference_votes(lines, X):
    """Independent per-row walk over the text format: each tree's preorder
    nodes, with a split's right child found from its left subtree's size."""
    trees = []
    for line in lines[2:]:
        kind, _, *fields = line.split()
        if kind == "tree":
            trees.append([])
            continue
        fields = dict(f.split("=") for f in fields)
        if kind == "leaf":
            trees[-1].append((None, int(fields["class"])))
        else:
            trees[-1].append((int(fields["feat"]), float(fields["thr"])))
    votes = []
    for tree in trees:
        size = [0] * len(tree)
        for i in reversed(range(len(tree))):
            size[i] = 1 if tree[i][0] is None else (
                1 + size[i + 1] + size[i + 1 + size[i + 1]]
            )
        row_votes = []
        for x in X:
            i = 0
            while tree[i][0] is not None:
                feature, threshold = tree[i]
                i = i + 1 if x[feature] <= threshold else i + 1 + size[i + 1]
            row_votes.append(tree[i][1])
        votes.append(row_votes)
    return np.array(votes, dtype=np.int64).reshape(len(trees), len(X))


# integers repeat often; half-integers sit exactly on the fitted midpoints
ON_AND_OFF_THRESHOLDS = st.sampled_from(
    [-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0]
)


class TestWalk:
    @given(
        X=arrays(
            np.int64,
            st.tuples(
                st.integers(min_value=2, max_value=40),
                st.integers(min_value=1, max_value=4),
            ),
            elements=st.integers(min_value=0, max_value=3),
        ),
        seed=st.integers(min_value=0, max_value=2**16),
        n_trees=st.integers(min_value=1, max_value=6),
        probe_rows=st.integers(min_value=1, max_value=12),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_walk_matches_per_row_reference(self, X, seed, n_trees, probe_rows, data):
        y = np.random.default_rng(seed).integers(0, 2, size=len(X))
        assume(len(set(y.tolist())) == 2)
        model = fit_forest(
            X.astype(np.float64), y, ForestConfig(n_trees=n_trees, seed=seed)
        )
        shape = (probe_rows, X.shape[1])
        probe = data.draw(arrays(np.float64, shape, elements=ON_AND_OFF_THRESHOLDS))
        probe = np.vstack([probe, X.astype(np.float64)])
        lines = model.to_lines()
        expected = reference_votes(lines, probe)
        votes = model.tree_votes(probe)
        assert votes.tolist() == expected.tolist()
        assert load_lines(lines).tree_votes(probe).tolist() == votes.tolist()
        for i, row in enumerate(probe):
            alone = model.tree_votes(row[None, :])[:, 0]
            assert alone.tolist() == votes[:, i].tolist()


class TestSerialization:
    def trained(self):
        rng = np.random.default_rng(9)
        X = rng.random((50, 4))
        y = (X[:, 2] > 0.4).astype(int)
        return fit_forest(X, y, ForestConfig(n_trees=6, seed=5)), rng.random((10, 4))

    def test_round_trip_is_bit_identical(self):
        model, _ = self.trained()
        back = load_lines(model.to_lines())
        assert back.to_lines() == model.to_lines()

    def test_round_trip_predicts_identically(self):
        model, probe = self.trained()
        back = load_lines(model.to_lines())
        labels_a, scores_a = model.predict_batch(probe)
        labels_b, scores_b = back.predict_batch(probe)
        assert labels_a.tolist() == labels_b.tolist()
        assert scores_a.tolist() == scores_b.tolist()

    def test_file_round_trip_byte_stable(self, tmp_path):
        model, _ = self.trained()
        one = tmp_path / "rf.model"
        two = tmp_path / "rf2.model"
        model.save(one)
        RFModel.load(one).save(two)
        assert one.read_bytes() == two.read_bytes()

    def test_header_preserves_config(self):
        model, _ = self.trained()
        back = load_lines(model.to_lines())
        assert back.config == model.config
        assert back.n_features == 4

    def test_thresholds_survive_repr_round_trip(self):
        model = fit_single([[0.1], [0.2], [0.30000000000000004]], [0, 0, 1])
        back = load_lines(model.to_lines())
        assert back.threshold[0] == model.threshold[0]

    def test_reject_bad_header(self):
        with pytest.raises(ValueError, match="not a random forest"):
            load_lines(["format=elsewhere version=1"])

    def test_reject_truncated_tree(self):
        model, _ = self.trained()
        lines = model.to_lines()
        with pytest.raises(ValueError, match="truncated"):
            load_lines(lines[:-1])

    def test_reject_tree_count_mismatch(self):
        model, _ = self.trained()
        lines = model.to_lines()
        first_tree_1 = lines.index("tree 1")
        with pytest.raises(ValueError, match="trees"):
            load_lines(lines[:first_tree_1])

    def test_reject_dangling_leaf(self):
        lines = [
            "format=needsense-rf version=1",
            "n_trees=1 max_depth=none min_samples_leaf=1 "
            "features_per_split=1 bootstrap=0 seed=0 n_features=1",
            "tree 0",
            "leaf 0 class=1",
            "leaf 1 class=0",
        ]
        with pytest.raises(ValueError, match="dangling"):
            load_lines(lines)

    def test_reject_garbage_line(self):
        lines = [
            "format=needsense-rf version=1",
            "n_trees=1 max_depth=none min_samples_leaf=1 "
            "features_per_split=1 bootstrap=0 seed=0 n_features=1",
            "tree 0",
            "florp 0",
        ]
        with pytest.raises(ValueError, match="unrecognized"):
            load_lines(lines)


HEADER = (
    "n_trees=1 max_depth=none min_samples_leaf=1 "
    "features_per_split=1 bootstrap=0 seed=0 n_features=1"
)


def one_split_model(header: str) -> list[str]:
    return [
        "format=needsense-rf version=1",
        header,
        "tree 0",
        "node 0 feat=0 thr=0.5",
        "leaf 1 class=0",
        "leaf 2 class=1",
    ]


class TestHeader:
    @pytest.mark.parametrize(
        "header, why",
        [
            # each was read, and saved back as another header or not at all
            (HEADER.replace("bootstrap=0", "bootstrap=7"), "bootstrap must be 0 or 1"),
            (HEADER + " seed=0", "duplicate key 'seed'"),
            (HEADER + " color=red", "unknown key 'color'"),
            (HEADER.replace("n_features=1", "n_features=6_0"), "n_features='6_0'"),
            (HEADER.replace("seed=0", "seed=+0"), r"seed='\+0'"),
            # blamed on the first split's line (feat out of range) before
            (HEADER.replace("n_features=1", "n_features=-5"), "n_features='-5'"),
            (HEADER.replace("n_features=1", "n_features=0"), "n_features must be >= 1"),
            (HEADER.replace("n_features=1", "n_features=01"), "n_features='01'"),
            (HEADER.replace(" seed=0", ""), "missing key 'seed'"),
            (HEADER.replace("seed=0", "seed"), "seed=''"),
            (HEADER.replace("seed=0", "seed=0=0"), "seed='0=0'"),
            (HEADER.replace("max_depth=none", "max_depth=None"), "max_depth='None'"),
            (HEADER.replace("max_depth=none", "max_depth=0"), "max_depth must be >= 1"),
            (
                HEADER.replace("features_per_split=1", "features_per_split=2"),
                r"features_per_split must be in \[1, n_features\]",
            ),
            (
                HEADER.replace("features_per_split=1", "features_per_split=0"),
                r"features_per_split must be in \[1, n_features\]",
            ),
            ("", "missing key 'n_trees'"),
        ],
    )
    def test_header_that_would_not_round_trip_is_rejected(self, header, why):
        with pytest.raises(ValueError, match=f"^line 2: bad model header: .*{why}"):
            load_lines(one_split_model(header))

    def test_any_order_and_whitespace_read_alike(self):
        expected = load_lines(one_split_model(HEADER))
        shuffled = "\t seed=0  n_features=1\tbootstrap=0 features_per_split=1 " + (
            "min_samples_leaf=1\x0bmax_depth=none   n_trees=1 "
        )
        model = load_lines(one_split_model(shuffled))
        assert model.config == expected.config
        assert model.to_lines() == one_split_model(HEADER)

    @given(
        n_trees=st.integers(1, 3),
        # beyond the body's 9-digit fields: a seed such as 2**32 - 1 takes 10
        max_depth=st.one_of(st.none(), st.integers(1, 10**30)),
        min_samples_leaf=st.integers(1, 10**30),
        n_features=st.integers(1, 10**30),
        split=st.floats(0, 1),
        bootstrap=st.booleans(),
        seed=st.integers(0, 10**30),
        order=st.permutations(range(7)),
    )
    @settings(max_examples=100, deadline=None)
    # above 2**53, split * n_features in floating point may round past n_features
    @example(
        n_trees=1, max_depth=None, min_samples_leaf=1,
        n_features=16_155_014_862_186_351, split=1.0, bootstrap=False, seed=0,
        order=list(range(7)),
    )
    def test_a_header_that_parses_is_saved_back_unchanged(
        self, n_trees, max_depth, min_samples_leaf, n_features, split, bootstrap,
        seed, order,
    ):
        features_per_split = min(n_features, max(1, round(split * n_features)))
        items = [
            f"n_trees={n_trees}",
            f"max_depth={'none' if max_depth is None else max_depth}",
            f"min_samples_leaf={min_samples_leaf}",
            f"features_per_split={features_per_split}",
            f"bootstrap={int(bootstrap)}",
            f"seed={seed}",
            f"n_features={n_features}",
        ]
        header = " ".join(items[i] for i in order)
        body = one_split_model(header)[2:]
        trees = [
            line.replace("tree 0", f"tree {t}") for t in range(n_trees) for line in body
        ]
        model = load_lines(["format=needsense-rf version=1", header, *trees])
        assert model.to_lines()[1] == " ".join(items)
        assert model.config == ForestConfig(
            n_trees, max_depth, min_samples_leaf, features_per_split, bootstrap, seed
        )

    @pytest.mark.parametrize("seed", [2**31 - 1, 2**32 - 1, 2**64 - 1])
    def test_a_wide_seed_is_loaded_back(self, tmp_path, seed):
        model = load_lines(one_split_model(HEADER))
        model.config = replace(model.config, seed=seed)
        path = tmp_path / "rf.model"
        model.save(path)
        loaded = RFModel.load(path)
        assert loaded.config.seed == seed
        assert loaded.to_lines() == model.to_lines()


def right_children_reference(feature) -> list[int]:
    """Each split's right child by a walk of the preorder: a node that follows
    a leaf starts the right subtree of the latest split still waiting for one."""
    right, waiting = [-1] * len(feature), []
    for i, f in enumerate(feature):
        if i and feature[i - 1] < 0 and waiting:
            right[waiting.pop()] = i
        if f >= 0:
            waiting.append(i)
    return right


def model_of_preorder(split: np.ndarray, roots) -> RFModel:
    feature = np.where(split, 0, -1)
    return RFModel(feature, np.zeros(len(split)), np.where(split, -1, 1), roots,
                   ForestConfig(n_trees=max(1, len(roots))), 1)


def random_preorder(rng, n_trees: int, p_split: float, max_nodes: int):
    """Split flags and roots of n_trees complete trees in preorder, each node
    a split with probability p_split until a tree holds max_nodes nodes."""
    split, roots = [], []
    for _ in range(n_trees):
        roots.append(len(split))
        open_nodes, size = 1, 0
        while open_nodes:
            is_split = size < max_nodes and rng.random() < p_split
            split.append(is_split)
            open_nodes += 1 if is_split else -1
            size += 1
    return np.array(split, dtype=bool), roots


class TestRightChildren:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_trees=st.integers(1, 8),
        p_split=st.floats(0, 0.95),
        max_nodes=st.integers(0, 300),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_a_walk_of_random_preorders(
        self, seed, n_trees, p_split, max_nodes
    ):
        rng = np.random.default_rng(seed)
        split, roots = random_preorder(rng, n_trees, p_split, max_nodes)
        model = model_of_preorder(split, roots)
        assert model.right.tolist() == right_children_reference(model.feature.tolist())

    def test_balances_beyond_16_bits(self):
        # 40,000 single-leaf trees reach a balance of -40,000 and a left chain
        # 70,000 splits deep one of +70,000: neither fits 16 bits
        n_leaves, depth = 40_000, 70_000
        leaves = np.zeros(n_leaves, dtype=bool)
        chain = np.zeros(2 * depth + 1, dtype=bool)
        chain[:depth] = True
        for split, roots in (
            (leaves, list(range(n_leaves))),
            (chain, [0]),
            (np.concatenate([leaves, chain]), [*range(n_leaves), n_leaves]),
        ):
            model = model_of_preorder(split, roots)
            expected = right_children_reference(model.feature.tolist())
            assert model.right.tolist() == expected
        # the chain's splits take the leaves after its deepest one, last first
        last = n_leaves + 2 * depth
        assert model.right[n_leaves : n_leaves + depth].tolist() == list(
            range(last, last - depth, -1)
        )


class TestFitValidation:
    def test_empty_matrix(self):
        with pytest.raises(ValueError, match="empty"):
            fit_forest(np.empty((0, 3)), np.empty((0,), int), SINGLE_TREE)

    def test_single_class(self):
        with pytest.raises(ValueError, match="both classes"):
            fit_forest(np.ones((4, 2)), np.ones(4, int), SINGLE_TREE)


def argsort_best_split(X, y, rows, features, min_leaf):
    """The argsort split search that rank counting replaced, kept as the
    reference: per feature, sort the node's column and scan its boundaries."""
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


def argsort_fit_forest(X, y, config):
    """Reference fit: the same RNG draws and preorder as `fit_forest`, with
    every split found by `argsort_best_split`."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    (n, d), nodes, roots = X.shape, [], []
    m = config.resolve_features(d)
    for ti in range(config.n_trees):
        rng = np.random.default_rng([config.seed, ti])
        rows = rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
        roots.append(len(nodes))
        stack = [(rows, 0)]
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
                if m < d:
                    subset = np.sort(rng.choice(d, size=m, replace=False))
                else:
                    subset = np.arange(d)
                best = argsort_best_split(
                    X, y, node_rows, subset, config.min_samples_leaf
                )
                if best is None and m < d:
                    rest = np.setdiff1d(np.arange(d), subset)
                    best = argsort_best_split(
                        X, y, node_rows, rest, config.min_samples_leaf
                    )
            if best is None:
                nodes.append((-1, 0.0, 1 if 2 * pos >= len(ys) else 0))
                continue
            _, feature, threshold = best
            nodes.append((feature, threshold, -1))
            mask = X[node_rows, feature] <= threshold
            stack.append((node_rows[~mask], depth + 1))
            stack.append((node_rows[mask], depth + 1))
    resolved = replace(config, features_per_split=m)
    return RFModel(*zip(*nodes), roots, resolved, d)


# adjacent floats: the midpoint of the first two rounds onto the lower one,
# that of the last two onto the upper one
ODD_ULP = float(np.nextafter(1.0, 2.0))
EVEN_ULP = float(np.nextafter(ODD_ULP, 2.0))
# with signed zeros and subnormals, and small values that repeat often
TIGHT_VALUES = [
    1.0,
    ODD_ULP,
    EVEN_ULP,
    -0.0,
    0.0,
    5e-324,
    -5e-324,
    2.0,
    3.0,
    -7.5,
]


class TestRankCountExactness:
    @given(
        distinct_rows=arrays(
            np.int64,
            st.tuples(
                st.integers(min_value=1, max_value=12),
                st.integers(min_value=1, max_value=5),
            ),
            elements=st.integers(min_value=0, max_value=len(TIGHT_VALUES) - 1),
        ),
        data=st.data(),
        constant_columns=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
        n_trees=st.integers(min_value=1, max_value=4),
        min_samples_leaf=st.sampled_from([1, 2, 3]),
        max_depth=st.sampled_from([None, 1, 2, 4]),
        per_split=st.sampled_from(["auto", "one", "all"]),
        bootstrap=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_fit_matches_argsort_reference(
        self, distinct_rows, data, constant_columns, seed, n_trees,
        min_samples_leaf, max_depth, per_split, bootstrap,
    ):
        d = distinct_rows.shape[1]
        # repeat the distinct rows so the matrix has duplicates
        pick = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(distinct_rows) - 1),
                min_size=2,
                max_size=40,
            )
        )
        # and one of them twice more, once per label, so that some nodes hold
        # rows equal in every feature with both labels
        twin = data.draw(st.sampled_from(pick))
        X = np.array(TIGHT_VALUES)[distinct_rows[[*pick, twin, twin]]]
        # constant columns make every sampled feature constant at some nodes
        X[:, : min(constant_columns, d - 1)] = -0.0
        y = np.random.default_rng(seed).integers(0, 2, size=len(X))
        y[-2:] = [0, 1]
        config = ForestConfig(
            n_trees=n_trees,
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            features_per_split={"auto": None, "one": 1, "all": d}[per_split],
            bootstrap=bootstrap,
            seed=seed,
        )
        expected = argsort_fit_forest(X, y, config).to_lines()
        assert fit_forest(X, y, config).to_lines() == expected

    def test_search_widens_past_constant_sampled_features(self):
        # three constant columns and one informative; one feature per split
        X = np.zeros((6, 4))
        X[:, 3] = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        y = np.array([0, 0, 0, 1, 1, 1])
        for seed in range(8):
            config = ForestConfig(
                n_trees=3, features_per_split=1, bootstrap=False, seed=seed
            )
            model = fit_forest(X, y, config)
            assert model.to_lines() == argsort_fit_forest(X, y, config).to_lines()
            assert model.feature[model.roots].tolist() == [3, 3, 3]
            assert model.threshold[model.roots].tolist() == [2.5, 2.5, 2.5]

    def test_feature_identical_nodes_are_never_widened(self):
        # a widened search is the one call of a step that searches nodes of
        # the call before it again
        def searched(X, y, config):
            calls, previous = [], []
            search = forest._best_splits
            rows_of = group_rows(X, y)

            def counted(
                values, codes, order, drawn, offset, size, n, pos, features,
                min_leaf, buffers,
            ):
                nodes, groups, _ = searched_nodes(order, drawn, offset, size)
                widen = all(node in previous for node in nodes)
                previous[:] = nodes
                calls.append((widen, [X[rows_of[g]] for g in groups]))
                return search(
                    values, codes, order, drawn, offset, size, n, pos, features,
                    min_leaf, buffers,
                )

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(forest, "_best_splits", counted)
                model = fit_forest(X, y, config)
            assert model.to_lines() == argsort_fit_forest(X, y, config).to_lines()
            return model, calls

        def identical(node_X):
            return bool((node_X == node_X[0]).all())

        # every bootstrap node is all one row, with both labels
        X = np.tile([0.5, -1.0, 2.0], (6, 1))
        y = np.array([0, 1, 0, 1, 0, 1])
        config = ForestConfig(n_trees=8, features_per_split=1, seed=3)
        model, calls = searched(X, y, config)
        assert calls and not any(widen for widen, _ in calls)
        assert (model.feature == -1).all()
        # rows 4 and 5 are equal in every feature and differ in label; column
        # 0 is constant, so other nodes that sample it still widen
        X = np.array(
            [[0.0, 1.0, 4.0], [0.0, 2.0, 3.0], [0.0, 3.0, 2.0],
             [0.0, 4.0, 1.0], [0.0, 5.0, 5.0], [0.0, 5.0, 5.0]]
        )
        y = np.array([0, 1, 0, 1, 0, 1])
        widened, identical_searched = 0, 0
        for seed in range(6):
            config = ForestConfig(n_trees=4, features_per_split=1, seed=seed)
            _, calls = searched(X, y, config)
            for widen, node_Xs in calls:
                same = [identical(node_X) for node_X in node_Xs]
                if widen:
                    assert not any(same)
                    widened += len(same)
                else:
                    identical_searched += sum(same)
        # the sampled search did meet identical nodes, and other nodes widened
        assert widened and identical_searched

    def test_widened_search_takes_the_features_that_vary_at_the_node(self):
        def searches(X, y, config):
            """((tree, start, stop) of each node, groups of each node, features,
            feature found) of each `_best_splits` call."""
            calls = []
            search = forest._best_splits

            def recorded(
                values, codes, order, drawn, offset, size, n, pos, features,
                min_leaf, buffers,
            ):
                nodes, groups, _ = searched_nodes(order, drawn, offset, size)
                found = search(
                    values, codes, order, drawn, offset, size, n, pos, features,
                    min_leaf, buffers,
                )
                calls.append((nodes, groups, features, found[0].copy()))
                return found

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(forest, "_best_splits", recorded)
                model = fit_forest(X, y, config)
            assert model.to_lines() == argsort_fit_forest(X, y, config).to_lines()
            return calls

        rng = np.random.default_rng(5)
        X = rng.integers(0, 3, size=(40, 9)).astype(float)
        X[:, [1, 4]] = 7.0  # constant columns
        X[-8:] = X[-9]  # the last 9 rows are equal in every feature
        y = rng.integers(0, 2, size=40)
        y[-2:] = [0, 1]
        rows_of = group_rows(X, y)
        widened = padded = identical = 0
        for seed in range(6):
            calls = searches(X, y, ForestConfig(n_trees=4, seed=seed))
            first_pass = [
                i for i, (nodes, *_) in enumerate(calls)
                if i == 0 or not all(node in calls[i - 1][0] for node in nodes)
            ]
            for i in first_pass:
                nodes, groups, sampled, found = calls[i]
                # each node left without a split, with its varying features
                # that were not sampled, ascending
                expected = []
                for node, node_groups, node_sampled, feature in zip(
                    nodes, groups, sampled, found
                ):
                    if feature >= 0:
                        continue
                    node_X = X[rows_of[node_groups]]
                    varies = [
                        f for f in range(X.shape[1])
                        if f not in node_sampled and len(set(node_X[:, f])) > 1
                    ]
                    identical += bool((node_X == node_X[0]).all())
                    if varies:
                        expected.append((node, node_groups, varies))
                if not expected:
                    assert i + 1 == len(calls) or i + 1 in first_pass
                    continue
                widen_nodes, _, features, _ = calls[i + 1]
                assert widen_nodes == [node for node, *_ in expected]
                # padded to the longest list of the step
                assert features.shape[1] == max(len(varies) for *_, varies in expected)
                for (_, node_groups, varies), node_features in zip(expected, features):
                    node_X = X[rows_of[node_groups]]
                    assert node_features[: len(varies)].tolist() == varies
                    # the padding: features constant at the node
                    for f in node_features[len(varies):]:
                        assert (node_X[:, f] == node_X[0, f]).all()
                        padded += 1
                widened += len(expected)
        assert widened and padded and identical

    def test_each_search_sees_a_node_s_distinct_rows_and_labels_once(self):
        # three distinct rows, each repeated 20 times with both labels
        X = np.repeat([[0.0, 1.0], [0.0, 2.0], [1.0, 2.0]], 20, axis=0)
        y = np.tile([0, 1, 1, 0], 15)
        rows_of = group_rows(X, y)
        assert len(rows_of) == 6
        nodes = []
        search = forest._best_splits

        def recorded(
            values, codes, order, drawn, offset, size, n, pos, features, min_leaf,
            buffers,
        ):
            _, groups, weights = searched_nodes(order, drawn, offset, size)
            for node in zip(groups, weights, n.tolist(), pos.tolist()):
                pairs = [(tuple(X[r]), int(y[r])) for r in rows_of[node[0]]]
                nodes.append((pairs, *node[1:]))
            return search(
                values, codes, order, drawn, offset, size, n, pos, features,
                min_leaf, buffers,
            )

        config = ForestConfig(n_trees=5, features_per_split=1, seed=9)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(forest, "_best_splits", recorded)
            model = fit_forest(X, y, config)
        assert model.to_lines() == argsort_fit_forest(X, y, config).to_lines()
        # each (row, label) of a node once, weighted by how often it is there
        for pairs, weights, n, pos in nodes:
            assert len(set(pairs)) == len(pairs)
            assert weights.min() >= 1 and weights.sum() == n
            assert sum(w for (_, label), w in zip(pairs, weights) if label) == pos
        # the first search takes every tree's root: the pairs its bootstrap
        # drew, each as often as it drew it
        for t, (pairs, weights, _, _) in enumerate(nodes[: config.n_trees]):
            rows = np.random.default_rng([9, t]).integers(0, len(X), size=len(X))
            drawn = Counter((tuple(X[r]), int(y[r])) for r in rows)
            assert dict(zip(pairs, weights.tolist())) == drawn

    def test_column_of_200_values_matches_argsort_reference(self):
        # 2 * rank + label of a 200-value column does not fit in uint8
        assert np.min_scalar_type(2 * 200 - 1) == np.uint16
        rng = np.random.default_rng(2)
        X = np.column_stack(
            [rng.permutation(np.repeat(np.arange(200.0), 2)),
             rng.integers(0, 4, size=400).astype(float)]
        )
        y = (X[:, 0] % 7 < 3).astype(int) ^ (X[:, 1] == 2)
        for bootstrap in (False, True):
            config = ForestConfig(
                n_trees=3, features_per_split=1, bootstrap=bootstrap, seed=4
            )
            model = fit_forest(X, y, config)
            assert model.to_lines() == argsort_fit_forest(X, y, config).to_lines()

    def test_midpoint_rounding_onto_upper_value_is_no_split(self):
        assert (1.0 + ODD_ULP) / 2.0 == 1.0
        assert (ODD_ULP + EVEN_ULP) / 2.0 == EVEN_ULP
        model = fit_single([[1.0], [ODD_ULP]], [0, 1])
        assert (model.feature[0], model.threshold[0]) == (0, 1.0)
        model = fit_single([[ODD_ULP], [EVEN_ULP]], [0, 1])
        assert model.feature[0] == -1


def group_rows(X, y):
    """The first row of X in each of the (rank row, label) groups that
    `fit_forest` searches, indexed by group."""
    group, _, _ = forest._groups(forest._rank_table(X)[1], np.asarray(y))
    return np.unique(group, return_index=True)[1]


def searched_nodes(order, drawn, offset, size):
    """((tree, start, stop), groups, weights) of the nodes that a
    `_best_splits` call is given: each node's range of its tree's row of
    `order` and `drawn`, and copies of what they hold there."""
    tree, start = np.divmod(offset, order.shape[1])
    ranges = list(zip(tree.tolist(), start.tolist(), (start + size).tolist()))
    groups = [order[t, lo:hi].copy() for t, lo, hi in ranges]
    weights = [drawn[t, lo:hi].copy() for t, lo, hi in ranges]
    return ranges, groups, weights


def code_splits(X, y, nodes, min_leaf):
    """Search the nodes (row arrays of X) over every feature with
    `_best_splits`, on the groups and codes `fit_forest` builds, and check
    that each split's bound sends left exactly the rows that X <= threshold
    does.  Returns the (feature, threshold) of each split."""
    values, ranks = forest._rank_table(X)
    group, ranks, labels = forest._groups(ranks, y)
    dtype = np.min_scalar_type(2 * values.shape[1] - 1)
    codes = 2 * np.ascontiguousarray(ranks.T, dtype=dtype) + labels.astype(dtype)
    # each node's groups, and how often its rows hold each, at the start of a
    # row of its own in `order` and `drawn`, as a tree's root is
    counts = [np.bincount(group[rows], minlength=len(labels)) for rows in nodes]
    order = np.zeros((len(nodes), len(labels)), np.min_scalar_type(len(labels) - 1))
    drawn = np.zeros((len(nodes), len(labels)), np.min_scalar_type(len(X)))
    size = np.array([np.count_nonzero(c) for c in counts])
    for i, c in enumerate(counts):
        order[i, : size[i]] = np.flatnonzero(c)
        drawn[i, : size[i]] = c[c > 0]
    offset = np.arange(len(nodes)) * len(labels)
    n = np.array([len(rows) for rows in nodes])
    pos = np.array([np.count_nonzero(y[rows]) for rows in nodes])
    features = np.broadcast_to(np.arange(X.shape[1]), (len(nodes), X.shape[1]))
    found = forest._best_splits(
        values, codes, order, drawn, offset, size, n, pos, features, min_leaf,
        forest._Buffers(),
    )
    splits = []
    for rows, feature, threshold, pos_left, bound, n_left in zip(
        nodes, *(column.tolist() for column in found)
    ):
        if feature < 0:
            continue
        left = X[rows, feature] <= threshold
        assert (codes[feature].take(group[rows]) < bound).tolist() == left.tolist()
        assert pos_left == np.count_nonzero(y[rows][left])
        assert n_left == np.count_nonzero(left)
        splits.append((feature, threshold))
    return splits


class TestCodeSplit:
    """`fit_forest` partitions a node by `codes[feature] < bound`, which must
    send left the rows that X[:, feature] <= threshold does."""

    @given(
        cells=arrays(
            np.int64,
            st.tuples(
                st.integers(min_value=2, max_value=30),
                st.integers(min_value=1, max_value=4),
            ),
            elements=st.integers(min_value=0, max_value=len(TIGHT_VALUES) - 1),
        ),
        seed=st.integers(min_value=0, max_value=2**16),
        min_leaf=st.sampled_from([1, 2]),
    )
    @settings(max_examples=150, deadline=None)
    def test_bound_sends_left_the_rows_the_threshold_does(self, cells, seed, min_leaf):
        # ties, -0.0 with 0.0, and adjacent floats whose midpoint rounds onto
        # the lower one
        X = np.array(TIGHT_VALUES)[cells]
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, size=len(X))
        # the whole matrix, where every value is present, and bootstrap draws
        nodes = [np.arange(len(X))]
        nodes += [rng.integers(0, len(X), size=len(X)) for _ in range(3)]
        code_splits(X, y, nodes, min_leaf)

    def test_threshold_on_the_lower_value(self):
        # the midpoint of 1.0 and the next float is 1.0 itself; each side holds
        # both labels, so a bound one off either way moves a row
        X = np.array([[1.0], [1.0], [1.0], [ODD_ULP], [ODD_ULP]])
        y = np.array([0, 0, 1, 1, 0])
        assert code_splits(X, y, [np.arange(5)], 1) == [(0, 1.0)]

    def test_signed_zeros_share_a_side(self):
        X = np.array([[-0.0], [0.0], [-0.0], [1.0], [1.0]])
        y = np.array([0, 1, 0, 1, 0])
        assert code_splits(X, y, [np.arange(5)], 1) == [(0, 0.5)]


@given(
    distinct_rows=arrays(
        np.int64,
        st.tuples(
            st.integers(min_value=1, max_value=12),
            st.integers(min_value=2, max_value=5),
        ),
        elements=st.integers(min_value=0, max_value=len(TIGHT_VALUES) - 1),
    ),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=2**16),
    n_trees=st.integers(min_value=1, max_value=12),
    min_samples_leaf=st.sampled_from([1, 2]),
    per_split=st.sampled_from(["auto", "one", "all"]),
    bootstrap=st.booleans(),
    budget=st.sampled_from([1, 7, 64, 512]),
)
@settings(max_examples=80, deadline=None)
def search_blocks_match_argsort_reference(
    distinct_rows, data, seed, n_trees, min_samples_leaf, per_split,
    bootstrap, budget,
):
    """Run by two tests below, with each index type; a property at module
    level, since hypothesis refuses one run from two test instances."""
    # tiny cell budgets split a step into many blocks, and search any
    # node larger than the budget alone
    pick = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(distinct_rows) - 1),
            min_size=2,
            max_size=40,
        )
    )
    X = np.array(TIGHT_VALUES)[distinct_rows[pick]]
    X[:, 0] = 0.0  # a constant column, so that some searches widen
    y = np.random.default_rng(seed).integers(0, 2, size=len(X))
    assume(len(set(y.tolist())) == 2)
    config = ForestConfig(
        n_trees=n_trees,
        min_samples_leaf=min_samples_leaf,
        features_per_split={"auto": None, "one": 1, "all": X.shape[1]}[per_split],
        bootstrap=bootstrap,
        seed=seed,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forest, "_SEARCH_CELLS", budget)
        model = fit_forest(X, y, config)
    assert model.to_lines() == argsort_fit_forest(X, y, config).to_lines()


class TestLockstepExactness:
    def test_search_blocks_match_argsort_reference(self):
        search_blocks_match_argsort_reference()

    def test_64_bit_indices_match_argsort_reference(self):
        # the same examples with the wider index type that large tables take
        chosen = []

        def wide(size):
            chosen.append(size)
            return np.int64

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(forest, "_index_type", wide)
            search_blocks_match_argsort_reference()
        assert chosen

    def test_one_step_widens_one_tree_and_not_another(self):
        # seed 21: tree 0 samples the constant column 0 at its root and
        # widens to columns 1 and 2, tree 1 samples column 2 and splits on it
        draws = [
            np.random.default_rng([21, ti]).choice(3, size=1, replace=False)
            for ti in range(2)
        ]
        assert [int(draw[0]) for draw in draws] == [0, 2]
        X = np.zeros((8, 3))
        X[:, 1] = [0, 1, 2, 3, 4, 5, 6, 7]  # separates the classes
        X[:, 2] = [0, 1, 5, 2, 3, 4, 6, 7]  # best cut 2.5, one row off
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        config = ForestConfig(
            n_trees=2, features_per_split=1, bootstrap=False, seed=21
        )
        model = fit_forest(X, y, config)
        assert model.feature[model.roots].tolist() == [1, 2]
        assert model.threshold[model.roots].tolist() == [3.5, 2.5]
        assert model.to_lines() == argsort_fit_forest(X, y, config).to_lines()

    def test_stack_grows_past_its_first_slots(self):
        # parity of 10 bits: no feature alone tells the labels apart, so every
        # node short of a single row splits, and the tree is complete; its
        # left-most path leaves a right child waiting at each level
        bits = 10
        X = (np.arange(2**bits)[:, None] >> np.arange(bits) & 1).astype(float)
        y = X.sum(axis=1).astype(int) % 2
        config = ForestConfig(n_trees=2, bootstrap=False, seed=6)
        model = fit_forest(X, y, config)
        assert model.to_lines() == argsort_fit_forest(X, y, config).to_lines()
        assert (model.feature >= 0).sum() == 2 * (2**bits - 1)
        assert [most_waiting(model, root) for root in model.roots] == [bits] * 2
        assert bits > forest._STACK_SLOTS


def most_waiting(model: RFModel, root: int) -> int:
    """The most nodes that growing the tree at root holds on its stack at
    once, if each of its split nodes, and none of its leaves, was searched:
    right child pushed first, so that the left one is grown next."""
    stack, most = [root], 1
    while stack:
        node = stack.pop()
        stack += [c for c in (model.right[node], node + 1) if model.feature[c] >= 0]
        most = max(most, len(stack))
    return most


class CountingGenerator:
    """A generator that counts its `choice` calls and delegates the rest."""

    def __init__(self, rng):
        self.rng, self.choices = rng, 0

    def choice(self, *args, **kwargs):
        self.choices += 1
        return self.rng.choice(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def bootstrapped(seed, n_trees, n):
    """Each tree's generator after a bootstrap of n rows, as `fit_forest`
    draws it; an odd n leaves a 32-bit half pending."""
    rngs = [np.random.default_rng([seed, t]) for t in range(n_trees)]
    for rng in rngs:
        rng.integers(0, n, size=n)
    return rngs


def returned_state(draws, t):
    """Tree t's generator state once its unread halves are given back: the
    64-bit outputs they came from are undrawn, and an odd one out is the
    pending half."""
    unread = int(draws.stop[t] - draws.cursor[t])
    bit_generator = draws.rngs[t].bit_generator
    bit_generator.advance(-(unread // 2))
    state = bit_generator.state
    pending = int(draws.halves[t, draws.cursor[t]]) if unread % 2 else None
    return state["state"], pending


def choice_state(rng):
    state = rng.bit_generator.state
    return state["state"], state["uinteger"] if state["has_uint32"] else None


class TestFeatureDraws:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        d=st.integers(min_value=2, max_value=200),
        n_trees=st.integers(min_value=1, max_value=4),
        bootstrap_rows=st.integers(min_value=1, max_value=500),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_generator_choice(self, seed, d, n_trees, bootstrap_rows, data):
        m = data.draw(st.integers(min_value=1, max_value=d - 1))
        # each step draws for some of the trees, as a lockstep step does
        steps = data.draw(
            st.lists(
                st.sets(st.integers(min_value=0, max_value=n_trees - 1), min_size=1),
                min_size=1,
                max_size=30,
            )
        )
        expected = bootstrapped(seed, n_trees, bootstrap_rows)
        draws = forest._FeatureDraws(bootstrapped(seed, n_trees, bootstrap_rows), d, m)
        for trees in steps:
            trees = np.array(sorted(trees))
            subsets = [expected[t].choice(d, size=m, replace=False) for t in trees]
            assert draws.sample(trees).tolist() == np.sort(subsets, axis=1).tolist()
        for t in range(n_trees):
            assert returned_state(draws, t) == choice_state(expected[t])

    def test_possible_rejection_takes_the_scalar_path(self):
        d, m = 60, 8
        # a zero half gives a low word of 0; for the first Floyd draw, in
        # [0, d - m], that is below Lemire's threshold, so it is drawn again
        bound = d - m
        assert (2**32 - bound - 1) % (bound + 1) > 0
        draws, twin = (
            forest._FeatureDraws(bootstrapped(11, 3, 7339), d, m) for _ in range(2)
        )
        for each in (draws, twin):
            each.halves[1, each.cursor[1]] = 0
        start = draws.cursor.copy()
        subsets = draws.sample(np.arange(3))
        assert subsets[1].tolist() == twin._scalar(1)
        # the rejected half and the 2m - 1 draws
        assert draws.cursor[1] - start[1] == 2 * m
        assert (draws.cursor[[0, 2]] - start[[0, 2]]).tolist() == [2 * m - 1] * 2
        # the other trees are unaffected: they still match numpy
        expected = bootstrapped(11, 3, 7339)
        for t in (0, 2):
            subset = np.sort(expected[t].choice(d, size=m, replace=False))
            assert subsets[t].tolist() == subset.tolist()

    @pytest.mark.parametrize(
        "d, m, calls",
        [(10001, 201, 1), (20000, 1000, 1), (10001, 200, 0), (20000, 10, 0)],
    )
    def test_tail_shuffle_shapes_go_through_choice(self, d, m, calls):
        # numpy shuffles a tail, not Floyd's algorithm, where d > 10000 and
        # m > d // 50
        rngs = [CountingGenerator(rng) for rng in bootstrapped(5, 2, 100)]
        subsets = forest._FeatureDraws(rngs, d, m).sample(np.arange(2))
        expected = bootstrapped(5, 2, 100)
        for t in range(2):
            subset = np.sort(expected[t].choice(d, size=m, replace=False))
            assert subsets[t].tolist() == subset.tolist()
            assert rngs[t].choices == calls

    def test_default_shaped_fit_makes_no_choice_call(self):
        # 60 features, 8 per split, as the default window gives
        rng = np.random.default_rng(4)
        X = rng.integers(0, 5, size=(300, 60)).astype(float)
        y = rng.integers(0, 2, size=300)
        config = ForestConfig(n_trees=3, seed=9)
        made = []
        default_rng = np.random.default_rng

        def counted(seed):
            made.append(CountingGenerator(default_rng(seed)))
            return made[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.random, "default_rng", counted)
            model = fit_forest(X, y, config)
        assert len(made) == 3
        assert [rng.choices for rng in made] == [0, 0, 0]
        assert model.config.features_per_split == 8
        assert model.to_lines() == argsort_fit_forest(X, y, config).to_lines()


def line_parser_reference(lines) -> RFModel:
    """The line-by-line parser that the whole-buffer one replaced, kept as the
    reference: one `match` per line, then one vectorized test per rule."""
    lines = iter(lines)
    if next(lines, "").strip() != "format=needsense-rf version=1":
        raise ValueError("line 1: not a random forest model file")
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
        raise ValueError(f"line 2: bad model header: {exc!r}") from None
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
            raise ValueError(f"line {line_no}: unrecognized model line") from None
    if len(roots) != config.n_trees:
        raise ValueError(f"line 2: n_trees={config.n_trees} but {len(roots)} trees")
    rows = np.frombuffer(nodes).reshape(-1, 5)
    feature, threshold, value, ids, line_of = rows.T
    split = value < 0
    bounds = np.array([0, *roots[1:], len(line_of)])
    balance = forest._balance(split)
    unfinished = np.flatnonzero(balance[bounds[1:]] > -1 - np.arange(len(roots)))
    if unfinished.size:
        raise ValueError(f"line {tree_lines[unfinished[0]]}: truncated tree")
    tree_of = np.repeat(np.arange(len(roots)), np.diff(bounds))
    for bad in (
        np.arange(len(line_of)) < roots[0],
        ids != np.arange(len(ids)) - bounds[tree_of],
        balance[:-1] < -tree_of,
        split & ((feature < 0) | (feature >= n_features)),
        split & ~np.isfinite(threshold),
    ):
        if bad.any():
            raise ValueError(f"line {int(line_of[np.argmax(bad)])}: broken rule")
    return RFModel(feature, threshold, value, roots, config, n_features)


def reference_load(data: bytes) -> RFModel:
    """What `RFModel.load` read from these bytes before the whole-buffer
    parser: UTF-8 text lines split by universal newlines."""
    return line_parser_reference(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))


@functools.cache
def small_forest_text(seed: int) -> bytes:
    """The model file of a small fitted forest: a few shallow trees."""
    rng = np.random.default_rng(seed)
    X = rng.random((30, 3))
    X[:, 0] = np.round(X[:, 0], 1)
    y = (X[:, 1] + 0.4 * rng.random(30) > 0.7).astype(int)
    model = fit_forest(X, y, ForestConfig(n_trees=3, max_depth=3, seed=seed))
    return ("\n".join(model.to_lines()) + "\n").encode("utf-8")


def _some_line(data, lines, first=0):
    return data.draw(st.integers(min_value=first, max_value=len(lines) - 1))


def _delete(data, text):
    lines = text.split(b"\n")
    del lines[_some_line(data, lines)]
    return b"\n".join(lines)


def _duplicate(data, text):
    lines = text.split(b"\n")
    lines.insert(_some_line(data, lines), lines[_some_line(data, lines)])
    return b"\n".join(lines)


def _swap(data, text):
    lines = text.split(b"\n")
    i, j = _some_line(data, lines), _some_line(data, lines)
    lines[i], lines[j] = lines[j], lines[i]
    return b"\n".join(lines)


def _truncate_line(data, text):
    lines = text.split(b"\n")
    i = _some_line(data, lines)
    lines[i] = lines[i][: data.draw(st.integers(min_value=0, max_value=len(lines[i])))]
    return b"\n".join(lines)


def _truncate_file(data, text):
    return text[: data.draw(st.integers(min_value=0, max_value=len(text)))]


# bytes that end, split or extend a field, as well as any byte at all
SOME_BYTES = st.one_of(st.sampled_from(list(b"\r\n\t 019.-+e=")), st.integers(0, 255))


def _edit_byte(data, text):
    if not text:
        return text
    i = data.draw(st.integers(min_value=0, max_value=len(text) - 1))
    return text[:i] + bytes([data.draw(SOME_BYTES)]) + text[i + 1 :]


def _append_bytes(data, text):
    lines = text.split(b"\n")
    i = _some_line(data, lines)
    lines[i] += bytes(data.draw(st.lists(SOME_BYTES, min_size=1, max_size=3)))
    return b"\n".join(lines)


def _widen_number(data, text):
    """A run of digits, such as an id, a feat or part of a thr, made 10 to 30
    digits long: wider than any field the parser gathers."""
    runs = list(re.finditer(rb"\d+", text))
    if not runs:
        return text
    run = runs[data.draw(st.integers(min_value=0, max_value=len(runs) - 1))]
    digits = data.draw(st.text("0123456789", min_size=10, max_size=30)).encode()
    return text[: run.start()] + digits + text[run.end() :]


def _non_finite_threshold(data, text):
    runs = list(re.finditer(rb"thr=\S*", text))
    if not runs:
        return text
    run = runs[data.draw(st.integers(min_value=0, max_value=len(runs) - 1))]
    value = data.draw(st.sampled_from([b"inf", b"-inf", b"nan", b"1e999", b"-1e400"]))
    return text[: run.start()] + b"thr=" + value + text[run.end() :]


def _crlf(data, text):
    return text.replace(b"\n", b"\r\n")


def _drop_final_newline(data, text):
    return text[:-1] if text.endswith(b"\n") else text


def _empty_body(data, text):
    return b"\n".join(text.split(b"\n")[:2]) + b"\n"


MODEL_MUTATIONS = {
    "delete": _delete,
    "duplicate": _duplicate,
    "swap": _swap,
    "truncate_line": _truncate_line,
    "truncate_file": _truncate_file,
    "edit_byte": _edit_byte,
    "append_bytes": _append_bytes,
    "widen_number": _widen_number,
    "non_finite_threshold": _non_finite_threshold,
    "crlf": _crlf,
    "drop_final_newline": _drop_final_newline,
    "empty_body": _empty_body,
}


def assert_same_model(model: RFModel, expected: RFModel) -> None:
    assert model.config == expected.config
    assert model.n_features == expected.n_features
    for name in ("feature", "value", "roots", "right"):
        assert getattr(model, name).tolist() == getattr(expected, name).tolist()
    assert model.threshold.view(np.int64).tolist() == (
        expected.threshold.view(np.int64).tolist()
    )


class TestWholeBufferParser:
    @given(
        seed=st.integers(min_value=0, max_value=3),
        mutations=st.lists(st.sampled_from(sorted(MODEL_MUTATIONS)), max_size=3),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_line_parser_reference(
        self, tmp_path_factory, seed, mutations, data
    ):
        text = small_forest_text(seed)
        for name in mutations:
            text = MODEL_MUTATIONS[name](data, text)
        path = tmp_path_factory.getbasetemp() / "fuzz.model"
        path.write_bytes(text)
        try:
            model = RFModel.load(path)
        except ValueError as exc:
            # the load prefixes the path; the parser names a line, never
            # passing on an error of its own such as UnicodeDecodeError
            assert type(exc) is ValueError
            assert re.match(rf"{re.escape(str(path))}: line [1-9][0-9]*: ", str(exc))
            assert mutations, "an unmutated model file was rejected"
            return
        assert_same_model(model, reference_load(text))

    def test_crlf_and_missing_final_newline_read_alike(self, tmp_path):
        text = small_forest_text(0)
        path = tmp_path / "rf.model"
        path.write_bytes(text.replace(b"\n", b"\r\n")[:-2])
        assert_same_model(RFModel.load(path), reference_load(text))

    @pytest.mark.parametrize(
        "end, error",
        [
            ("", None),
            ("\r", None),
            ("\n", None),
            ("\r\n", None),
            ("\r\r", "line 3: unrecognized model line: tree 0"),
            ("\r\r\n", "line 3: unrecognized model line: tree 0"),
        ],
    )
    def test_load_takes_off_one_line_end(self, tmp_path, end, error):
        lines = small_forest_text(0).decode("utf-8").splitlines()
        lines[2] += end  # `tree 0`
        path = tmp_path / "rf.model"
        path.write_bytes("".join(
            line if line.endswith("\n") else line + "\n" for line in lines
        ).encode("utf-8"))
        if error is None:
            expected = reference_load(small_forest_text(0))
            assert_same_model(RFModel.load(path), expected)
            return
        with pytest.raises(ValueError) as load:
            RFModel.load(path)
        assert str(load.value) == f"{path}: {error}"

    @pytest.mark.parametrize(
        "old, new",
        [
            ("node 0 feat=", "node 0  feat="),  # two spaces
            ("node 0 feat=", "node 0\tfeat="),
            ("tree 0", "tree 00"),
            ("node 0 feat=", "node 00 feat="),  # a leading zero
            ("node 0 feat=", "node +0 feat="),
            ("tree 0", "tree 0 "),  # trailing space
            ("tree 0", "  "),  # a line of spaces is not blank
            ("node 0 feat=", "node 0 feat=" + "1" * 20),  # wider than a field
            (" seed=", "\rseed="),  # a line break to a universal-newline reader
        ],
    )
    def test_non_canonical_spacing_and_numbers_rejected(self, old, new):
        # each breaks the exact grammar; the line parser's split() and int()
        # tolerated most of them
        lines = small_forest_text(0).decode("utf-8").splitlines()
        i = next(i for i, line in enumerate(lines) if old in line)
        lines[i] = lines[i].replace(old, new, 1)
        with pytest.raises(ValueError, match=f"line {i + 1}: "):
            load_lines(lines)


WIDE_HEADER = HEADER.replace("n_features=1", "n_features=999999999")


class TestFieldDecoding:
    """The digit arithmetic reads every width the grammar allows, and a
    threshold is cast once per distinct text without changing its value."""

    @pytest.mark.parametrize(
        "feat",
        [0, 7, 10, 99, 1234567, 12345678, 99999999, 100000000, 123456789, 999999998],
    )
    def test_feat_of_every_canonical_width(self, feat):
        lines = one_split_model(WIDE_HEADER)
        lines[3] = f"node 0 feat={feat} thr=0.5"
        assert load_lines(lines).feature.tolist() == [feat, -1, -1]
        assert reference_load(("\n".join(lines) + "\n").encode()).feature.tolist() == [
            feat, -1, -1,
        ]

    @pytest.mark.parametrize(
        "field",
        [b"1234567890", b"12345678901", b"01", b"", b"5:", b"5/", b"5\xb0", b"5\xb9"],
    )
    def test_feat_too_wide_non_canonical_or_ending_in_a_near_digit(
        self, tmp_path, field
    ):
        # ":" and "/" border the digits in ASCII; 0xb0 and 0xb9 are "0" and
        # "9" with the high bit set
        lines = [line.encode() for line in one_split_model(WIDE_HEADER)]
        lines[3] = b"node 0 feat=" + field + b" thr=0.5"
        path = tmp_path / "rf.model"
        path.write_bytes(b"\n".join(lines) + b"\n")
        message = f"{re.escape(str(path))}: line 4: unrecognized"
        with pytest.raises(ValueError, match=message):
            RFModel.load(path)

    @pytest.mark.parametrize(
        "thr, error",
        [
            ("1e-05", None),
            ("+.5", None),
            ("5.", None),
            ("1" * 24, None),
            ("inf", "line 4: thr is not finite"),
            ("-nan", "line 4: thr is not finite"),
            ("1e999", "line 4: thr is not finite"),
            ("1_0", "line 4: unrecognized"),  # float() reads it; the grammar does not
            ("\u0661", "line 4: unrecognized"),  # an Arabic-Indic digit one
            (" 1", "line 4: unrecognized"),
            ("1" * 25, "line 4: unrecognized"),
            ("1e", "line 4: unrecognized"),
            ("--1", "line 4: unrecognized"),
            ("infinity", "line 4: unrecognized"),
            ("", "line 4: unrecognized"),
        ],
    )
    def test_threshold_text(self, thr, error):
        lines = one_split_model(HEADER)
        lines[3] = f"node 0 feat=0 thr={thr}"
        if error is None:
            assert load_lines(lines).threshold[0] == float(thr)
        else:
            with pytest.raises(ValueError, match=f"^{error}"):
                load_lines(lines)

    @pytest.mark.parametrize("first, second", [(24, 25), (25, 24)])
    def test_texts_alike_but_for_length_are_cast_apart(self, first, second):
        # 24 and 25 ones agree in the 24 bytes a threshold may take
        lines = one_split_model(HEADER)
        lines[2:] = [
            "tree 0",
            f"node 0 feat=0 thr={'1' * first}",
            f"node 1 feat=0 thr={'1' * second}",
            "leaf 2 class=0",
            "leaf 3 class=1",
            "leaf 4 class=1",
        ]
        with pytest.raises(ValueError, match=f"^line {4 if first == 25 else 5}: unrec"):
            load_lines(lines)

    @pytest.mark.parametrize("node_id", ["12345678", "123456789"])
    def test_wide_node_id_is_read_then_fails_the_preorder(self, node_id):
        lines = one_split_model(WIDE_HEADER)
        lines[4] = f"leaf {node_id} class=0"
        with pytest.raises(ValueError, match="^line 5: node id out of preorder$"):
            load_lines(lines)

    def test_each_threshold_reads_as_float_of_its_text(self):
        # a few texts repeated over many lines, as a fitted model repeats them
        rng = np.random.default_rng(1)
        texts = [
            "0.5", "-1.25", "0.30000000000000004", "1e-05", "7.0", "-0.0", "2.5e+300"
        ]
        text = re.sub(
            "thr=\\S+",
            lambda _: f"thr={texts[rng.integers(len(texts))]}",
            synthetic_model_text(n_trees=20, depth=6),
        )
        model = load_lines(text.splitlines())
        expected = [float(t) for t in re.findall("thr=(\\S+)", text)]
        got = model.threshold[model.feature >= 0]
        assert got.view(np.int64).tolist() == np.array(expected).view(np.int64).tolist()


def synthetic_model_text(n_trees: int, depth: int, n_features: int = 60) -> str:
    """A model file of complete trees of the given depth, with random features,
    thresholds and classes, written directly rather than fitted."""
    rng = np.random.default_rng(0)
    leaf, stack = [], [0]  # one tree's preorder: whether each node is a leaf
    while stack:
        level = stack.pop()
        leaf.append(level == depth)
        if level < depth:
            stack += [level + 1, level + 1]
    lines = [
        "format=needsense-rf version=1",
        f"n_trees={n_trees} max_depth={depth} min_samples_leaf=1 "
        f"features_per_split=8 bootstrap=1 seed=0 n_features={n_features}",
    ]
    for t in range(n_trees):
        lines.append(f"tree {t}")
        features = rng.integers(0, n_features, len(leaf)).tolist()
        thresholds = rng.standard_normal(len(leaf)).tolist()
        for i, (is_leaf, f, thr) in enumerate(zip(leaf, features, thresholds)):
            if is_leaf:
                lines.append(f"leaf {i} class={f % 2}")
            else:
                lines.append(f"node {i} feat={f} thr={thr!r}")
    return "\n".join(lines) + "\n"


# tracemalloc peak of RFModel.load over the file's size.  The line parser
# peaked at 4.16x on the synthetic model below (5.02x on the default 100-tree
# rf.model); index matrices or copies of the buffer would break the bound.
LOAD_PEAK_MULTIPLE = 4.2


def test_load_peak_memory_is_a_bounded_multiple_of_the_file(tmp_path):
    path = tmp_path / "rf.model"
    path.write_text(synthetic_model_text(n_trees=100, depth=7), encoding="utf-8")
    RFModel.load(path)  # first use: imports and caches are not the parser's
    tracemalloc.start()
    try:
        model = RFModel.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(model.feature) == 100 * 255
    assert peak <= LOAD_PEAK_MULTIPLE * path.stat().st_size
