"""Random forest: split selection, determinism, serialization, memorization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from needsense.forest import ForestConfig, RFModel, fit_forest

SINGLE_TREE = ForestConfig(n_trees=1, bootstrap=False, seed=0)


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
        with pytest.raises(ValueError):
            ForestConfig(seed=-1)


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
        return RFModel.from_lines(lines)

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

    def test_dimension_mismatch_rejected(self):
        model = self.manual_model([1], n_features=3)
        with pytest.raises(ValueError, match="dimension"):
            model.predict_batch([[0.0, 0.0]])

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
        assert RFModel.from_lines(lines).tree_votes(probe).tolist() == votes.tolist()
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
        back = RFModel.from_lines(model.to_lines())
        assert back.to_lines() == model.to_lines()

    def test_round_trip_predicts_identically(self):
        model, probe = self.trained()
        back = RFModel.from_lines(model.to_lines())
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
        back = RFModel.from_lines(model.to_lines())
        assert back.config == model.config
        assert back.n_features == 4

    def test_thresholds_survive_repr_round_trip(self):
        model = fit_single([[0.1], [0.2], [0.30000000000000004]], [0, 0, 1])
        back = RFModel.from_lines(model.to_lines())
        assert back.threshold[0] == model.threshold[0]

    def test_reject_bad_header(self):
        with pytest.raises(ValueError, match="not a random forest"):
            RFModel.from_lines(["format=elsewhere version=1"])

    def test_reject_truncated_tree(self):
        model, _ = self.trained()
        lines = model.to_lines()
        with pytest.raises(ValueError, match="truncated"):
            RFModel.from_lines(lines[:-1])

    def test_reject_tree_count_mismatch(self):
        model, _ = self.trained()
        lines = model.to_lines()
        first_tree_1 = lines.index("tree 1")
        with pytest.raises(ValueError, match="trees"):
            RFModel.from_lines(lines[:first_tree_1])

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
            RFModel.from_lines(lines)

    def test_reject_garbage_line(self):
        lines = [
            "format=needsense-rf version=1",
            "n_trees=1 max_depth=none min_samples_leaf=1 "
            "features_per_split=1 bootstrap=0 seed=0 n_features=1",
            "tree 0",
            "florp 0",
        ]
        with pytest.raises(ValueError, match="unrecognized"):
            RFModel.from_lines(lines)


class TestFitValidation:
    def test_empty_matrix(self):
        with pytest.raises(ValueError, match="empty"):
            fit_forest(np.empty((0, 3)), np.empty((0,), int), SINGLE_TREE)

    def test_single_class(self):
        with pytest.raises(ValueError, match="both classes"):
            fit_forest(np.ones((4, 2)), np.ones(4, int), SINGLE_TREE)

    def test_bad_labels(self):
        with pytest.raises(ValueError, match="0 or 1"):
            fit_forest(np.ones((2, 2)), np.array([0, 2]), SINGLE_TREE)

    def test_misaligned(self):
        with pytest.raises(ValueError, match="aligned"):
            fit_forest(np.ones((3, 2)), np.array([0, 1]), SINGLE_TREE)

    def test_one_dim_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            fit_forest(np.ones(3), np.array([0, 1, 1]), SINGLE_TREE)
