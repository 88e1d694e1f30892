"""Utterance tokenization, features, and the naive Bayes need classifier."""

from __future__ import annotations

import math
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needsense.language import (
    NEG,
    NEGATION_WORDS,
    QUESTION_WORDS,
    QWORD,
    CorpusError,
    NBModel,
    extract_features,
    tokenize,
    train_from_utterances,
)


SMALL = [
    ("help me", 1),
    ("looks good", 0),
    ("what goes here", 1),
    ("this is fun", 0),
]


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("Does THIS Fit?") == ["does", "this", "fit"]

    def test_contractions_survive(self):
        assert tokenize("I don't know, can't tell") == [
            "i", "don't", "know", "can't", "tell",
        ]

    def test_unicode_apostrophe_normalized(self):
        assert tokenize("don’t") == ["don't"]

    def test_numbers_kept(self):
        assert tokenize("piece 2 goes here") == ["piece", "2", "goes", "here"]

    def test_underscore_splits(self):
        assert tokenize("a_b") == ["a", "b"]

    def test_empty_and_punctuation_only(self):
        assert tokenize("") == []
        assert tokenize("!? ... --") == []

    def test_leading_trailing_apostrophes_dropped(self):
        assert tokenize("'tis 'quoted'") == ["tis", "quoted"]


class TestExtractFeatures:
    def test_plain_counts(self):
        feats = extract_features(["go", "go", "stop"], use_aggregates=False)
        assert feats == Counter({"go": 2, "stop": 1})

    def test_aggregates_count_matches(self):
        feats = extract_features(["what", "what", "how", "fine"])
        assert feats[QWORD] == 3
        assert feats[NEG] == 0
        assert feats["what"] == 2  # matched words stay in the bag

    def test_negation_aggregate(self):
        feats = extract_features(["don't", "know", "no"])
        assert feats[NEG] == 2

    def test_aggregates_present_even_when_zero(self):
        feats = extract_features(["hello"])
        assert feats[QWORD] == 0 and feats[NEG] == 0


class TestWordLists:
    def test_question_words(self):
        assert QUESTION_WORDS == {
            "what", "who", "which", "where", "when", "how", "why",
        }

    def test_negation_words(self):
        assert NEGATION_WORDS == {
            "no", "not", "none", "nothing",
            "isn't", "aren't", "don't", "won't",
            "wasn't", "weren't", "wouldn't", "shouldn't", "couldn't", "can't",
        }

    def test_aggregate_keys_cannot_collide_with_tokens(self):
        assert tokenize(QWORD) != [QWORD]
        assert tokenize(NEG) != [NEG]


class TestTrain:
    def test_vocabulary_includes_aggregates(self):
        model = train_from_utterances(SMALL)
        assert len(set(model.token_counts)) == 12
        assert {QWORD, NEG} <= set(model.token_counts)

    def test_vocabulary_without_aggregates(self):
        model = train_from_utterances(SMALL, use_aggregates=False)
        assert len(set(model.token_counts)) == 10
        assert QWORD not in set(model.token_counts)

    def test_priors_are_document_frequencies(self):
        model = train_from_utterances(SMALL)
        assert model.prior(0) == 0.5
        assert model.prior(1) == 0.5
        lopsided = train_from_utterances(
            [("help", 1), ("fine", 0), ("good", 0), ("nice", 0)]
        )
        assert lopsided.prior(1) == 0.25

    def test_token_counts_accumulate_multiplicity(self):
        model = train_from_utterances([("go go go", 0), ("go help", 1)])
        assert model.token_counts["go"] == (3, 1)

    def test_missing_help_class_rejected(self):
        with pytest.raises(CorpusError, match="no help-class"):
            train_from_utterances([("fine", 0), ("good", 0)])

    def test_missing_no_help_class_rejected(self):
        with pytest.raises(CorpusError, match="no no-help-class"):
            train_from_utterances([("help", 1)])

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError, match="no usable"):
            train_from_utterances([])

    def test_unusable_utterances_dropped_before_fit(self):
        with pytest.raises(CorpusError, match="no help-class"):
            train_from_utterances([("??", 1), ("fine", 0)])

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            train_from_utterances(SMALL, alpha=0.0)

    @pytest.mark.parametrize("alpha", [math.inf, 1e308, math.nan, 5e-324])
    def test_alpha_whose_smoothing_leaves_no_likelihood_rejected(self, alpha):
        # alpha * vocabulary overflows, or alpha / total underflows, so a
        # smoothed likelihood is 0 or not a number and its log would fail
        with pytest.raises(CorpusError, match="smoothed likelihood of 0"):
            train_from_utterances(SMALL, alpha=alpha)

    def test_large_finite_alpha_trains(self):
        model = train_from_utterances(SMALL, alpha=1e300)
        assert 0.0 < model.predict_text("help me please") < 1.0


class TestLikelihoodsAndPosterior:
    def test_hand_computed_likelihoods(self):
        model = train_from_utterances(SMALL)
        assert model.likelihood("help", 1) == pytest.approx(2 / 18, abs=1e-12)
        assert model.likelihood("help", 0) == pytest.approx(1 / 17, abs=1e-12)
        assert model.likelihood("looks", 0) == pytest.approx(2 / 17, abs=1e-12)

    def test_hand_computed_posterior(self):
        model = train_from_utterances(SMALL)
        assert model.predict_text("help") == pytest.approx(17 / 26, abs=1e-12)

    def test_question_word_pushes_toward_help(self):
        model = train_from_utterances(SMALL)
        assert model.predict_text("what") > 0.5

    def test_out_of_vocabulary_ignored(self):
        model = train_from_utterances(SMALL)
        assert model.predict_text("zzz qqq") == pytest.approx(0.5, abs=1e-12)
        assert model.predict_text("help zzz") == model.predict_text("help")

    def test_empty_text_returns_none(self):
        model = train_from_utterances(SMALL)
        assert model.predict_text("...") is None
        assert model.predict_text("") is None

    def test_long_input_stays_in_unit_interval(self):
        model = train_from_utterances(SMALL)
        v = model.predict_text(" ".join(["help"] * 500))
        assert 0.0 < v <= 1.0
        v = model.predict_text(" ".join(["looks", "good"] * 400))
        assert 0.0 <= v < 1.0

    def test_exact_fraction_oracle(self):
        # independent reimplementation in exact arithmetic
        model = train_from_utterances(SMALL)
        v = len(model.token_counts)
        totals = [
            sum(c[label] for c in model.token_counts.values())
            for label in (0, 1)
        ]

        def oracle(tokens):
            feats = extract_features(tokens)
            num = {}
            for label in (0, 1):
                p = Fraction(model.doc_counts[label], sum(model.doc_counts))
                for token, count in feats.items():
                    if count and token in model.token_counts:
                        lk = Fraction(
                            model.token_counts[token][label] + 1, totals[label] + v
                        )
                        p *= lk ** count
                num[label] = p
            return num[1] / (num[0] + num[1])

        for text in ["help", "what goes here", "looks fun", "help help good"]:
            expected = oracle(tokenize(text))
            assert model.predict_text(text) == pytest.approx(
                float(expected), abs=1e-12
            )


def _set_line(i, text):
    def mutate(lines):
        lines[i] = text
        return lines, i + 1

    return mutate


def _append_line(text):
    def mutate(lines):
        return [*lines, text], len(lines) + 1

    return mutate


def _drop_line(prefix):
    # a required line that is missing is named as the line after the last
    def mutate(lines):
        kept = [line for line in lines if not line.startswith(prefix)]
        return kept, len(kept) + 1

    return mutate


# each mutation of the lines of NB_MODEL_LINES returns the lines and the
# 1-based line number that the parser must name
NB_MODEL_LINES = [
    "format=needsense-nb version=1",
    "alpha=0.5",
    "use_aggregates=1",
    "docs c0=2 c1=2",
    "token=NEG c0=0 c1=1",
    "token=help c0=0 c1=1",
]
MALFORMED_NB_MODELS = {
    "not_a_model": _set_line(0, "hello world"),
    "alpha_negative": _set_line(1, "alpha=-1"),
    "alpha_zero": _set_line(1, "alpha=0"),
    "alpha_nan": _set_line(1, "alpha=nan"),
    "alpha_inf": _set_line(1, "alpha=inf"),
    "alpha_repeated": _append_line("alpha=0.5"),
    "alpha_missing": _drop_line("alpha="),
    "aggregates_two": _set_line(2, "use_aggregates=2"),
    "docs_zero": _set_line(3, "docs c0=0 c1=2"),
    "docs_missing_c1": _set_line(3, "docs c0=2"),
    "docs_missing": _drop_line("docs "),
    "token_missing_c0": _set_line(4, "token=NEG c1=1"),
    "count_negative": _set_line(5, "token=help c0=-1 c1=1"),
    "count_fractional": _set_line(5, "token=help c0=0.5 c1=1"),
    "count_repeated": _set_line(5, "token=help c0=0 c0=1"),
    "unknown_field": _set_line(5, "token=help c0=0 c1=1 c2=3"),
    "token_repeated": _append_line("token=help c0=1 c1=1"),
    "token_empty": _append_line("token= c0=1 c1=1"),
    "unknown_line": _append_line("wat"),
}


class TestSerialization:
    def test_round_trip_counts_and_likelihoods(self):
        model = train_from_utterances(SMALL, alpha=0.5)
        back = NBModel.from_lines(model.to_lines())
        assert back.alpha == model.alpha
        assert back.use_aggregates == model.use_aggregates
        assert back.doc_counts == model.doc_counts
        assert back.token_counts == model.token_counts
        for token in set(model.token_counts):
            for label in (0, 1):
                assert back.likelihood(token, label) == model.likelihood(
                    token, label
                )

    def test_file_round_trip_is_byte_stable(self, tmp_path):
        model = train_from_utterances(SMALL)
        path = tmp_path / "nb.model"
        model.save(path)
        again = tmp_path / "nb2.model"
        NBModel.load(path).save(again)
        assert path.read_bytes() == again.read_bytes()

    def test_reload_predicts_identically(self, tmp_path):
        model = train_from_utterances(SMALL)
        path = tmp_path / "nb.model"
        model.save(path)
        back = NBModel.load(path)
        for text in ["help me out", "looks good to me", "what now"]:
            assert back.predict_text(text) == model.predict_text(text)

    def test_valid_table_model_loads(self):
        model = NBModel.from_lines(NB_MODEL_LINES)
        assert model.to_lines() == NB_MODEL_LINES

    @pytest.mark.parametrize("case", sorted(MALFORMED_NB_MODELS))
    def test_reject_malformed(self, case):
        lines, line_no = MALFORMED_NB_MODELS[case](list(NB_MODEL_LINES))
        with pytest.raises(ValueError, match=f"^line {line_no}: "):
            NBModel.from_lines(lines)

    def test_load_names_path_and_line(self, tmp_path):
        path = tmp_path / "nb.model"
        path.write_bytes(b"format=needsense-nb version=1\nalpha=1.0\ntoken=\xff c0=1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: "):
            NBModel.load(path)

    def test_reject_garbage(self):
        with pytest.raises(ValueError):
            NBModel.from_lines(["hello world"])
        with pytest.raises(ValueError):
            NBModel.from_lines(["format=needsense-nb version=1", "wat"])
        with pytest.raises(ValueError):
            NBModel.from_lines(["format=needsense-nb version=1"])


WORDS = st.sampled_from(
    ["help", "fine", "stuck", "good", "what", "don't", "piece", "ok"]
)


class TestProperties:
    @given(
        docs=st.lists(
            st.tuples(
                st.lists(WORDS, min_size=1, max_size=6), st.integers(0, 1)
            ),
            max_size=8,
        ),
        probe=st.lists(WORDS, min_size=1, max_size=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_posterior_in_unit_interval(self, docs, probe):
        rows = [
            (" ".join(words), label) for words, label in docs
        ]
        # ensure both classes exist
        rows.append(("seed positive", 1))
        rows.append(("seed negative", 0))
        model = train_from_utterances(rows)
        v = model.predict_text(" ".join(probe))
        assert 0.0 <= v <= 1.0

    @given(
        docs=st.lists(
            st.tuples(
                st.lists(WORDS, min_size=1, max_size=6), st.integers(0, 1)
            ),
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_serialization_round_trip(self, docs):
        rows = [
            (" ".join(words), label) for words, label in docs
        ]
        rows.append(("seed positive", 1))
        rows.append(("seed negative", 0))
        model = train_from_utterances(rows)
        back = NBModel.from_lines(model.to_lines())
        assert back.to_lines() == model.to_lines()
        assert back.predict_text("help what piece") == model.predict_text(
            "help what piece"
        )
