"""Classifying utterances: does what the user just said signal a need
for help?

Features are bag-of-words counts plus two aggregate counts, one over
question words and one over negations; the matched words stay in the bag
as ordinary tokens as well.  The classifier is a multinomial naive Bayes
with add-alpha smoothing, chosen for data efficiency at small corpus
sizes.  Models serialize as raw counts so a reload recomputes the exact
same likelihoods.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .streams import SessionFormatError, read_lines

QUESTION_WORDS = frozenset(
    {"what", "who", "which", "where", "when", "how", "why"}
)
NEGATION_WORDS = frozenset(
    {
        "no", "not", "none", "nothing",
        "isn't", "aren't", "don't", "won't",
        "wasn't", "weren't", "wouldn't", "shouldn't", "couldn't", "can't",
    }
)

# Aggregate feature keys.  Natural tokens are lowercased by tokenize, so
# uppercase names can never collide with them.
QWORD = "QWORD"
NEG = "NEG"

_TOKEN_RE = re.compile(r"[^\W_]+(?:'[^\W_]+)*")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumerics, keeping internal
    apostrophes so contractions like "don't" survive as one token."""
    return _TOKEN_RE.findall(text.lower().replace("’", "'"))


def extract_features(tokens: list[str], use_aggregates: bool = True) -> Counter:
    """Token counts, plus QWORD/NEG aggregate counts when enabled."""
    counts = Counter(tokens)
    if use_aggregates:
        counts[QWORD] = sum(c for w, c in counts.items() if w in QUESTION_WORDS)
        counts[NEG] = sum(c for w, c in counts.items() if w in NEGATION_WORDS)
    return counts


class CorpusError(ValueError):
    """Training corpus cannot support the model (e.g. one class missing)."""


@dataclass
class NBModel:
    """Multinomial naive Bayes over utterance features.

    Stores per-class document and token counts; priors and smoothed
    likelihoods are derived, so serialization of the counts reproduces the
    model exactly.
    """

    alpha: float
    use_aggregates: bool
    doc_counts: tuple[int, int]
    token_counts: dict[str, tuple[int, int]]
    _totals: tuple[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._totals = (
            sum(c[0] for c in self.token_counts.values()),
            sum(c[1] for c in self.token_counts.values()),
        )

    def prior(self, label: int) -> float:
        return self.doc_counts[label] / sum(self.doc_counts)

    def likelihood(self, token: str, label: int) -> float:
        """Add-alpha smoothed P(token | class); token must be in-vocabulary."""
        v = len(self.token_counts)
        return (self.token_counts[token][label] + self.alpha) / (
            self._totals[label] + self.alpha * v
        )

    def predict(self, features: Counter) -> float:
        """Posterior probability of the help class, computed in log space.

        Tokens outside the training vocabulary are ignored; with no
        in-vocabulary evidence the posterior is the class prior.
        """
        logs = []
        for label in (0, 1):
            score = math.log(self.prior(label))
            for token, count in features.items():
                if count and token in self.token_counts:
                    score += count * math.log(self.likelihood(token, label))
            logs.append(score)
        m = max(logs)
        z = sum(math.exp(s - m) for s in logs)
        return math.exp(logs[1] - m) / z

    def predict_text(self, text: str) -> float | None:
        """Classify raw text; None if it tokenizes to nothing."""
        tokens = tokenize(text)
        if not tokens:
            return None
        return self.predict(extract_features(tokens, self.use_aggregates))

    def to_lines(self) -> list[str]:
        lines = [
            "format=needsense-nb version=1",
            f"alpha={self.alpha!r}",
            f"use_aggregates={int(self.use_aggregates)}",
            f"docs c0={self.doc_counts[0]} c1={self.doc_counts[1]}",
        ]
        for token in sorted(self.token_counts):
            c0, c1 = self.token_counts[token]
            lines.append(f"token={token} c0={c0} c1={c1}")
        return lines

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "NBModel":
        """Parse the lines of a model file; every error names its line."""
        lines = iter(lines)
        if next(lines, "").strip() != "format=needsense-nb version=1":
            raise SessionFormatError("not a naive Bayes model file", 1)
        alpha = use_aggregates = doc_counts = None
        token_counts: dict[str, tuple[int, int]] = {}
        line_no = 1
        for line_no, line in enumerate(lines, start=2):
            fields = line.split()
            if not fields:
                continue
            key, _, value = fields[0].partition("=")
            try:
                if key == "alpha" and len(fields) == 1 and alpha is None:
                    alpha = float(value)
                    if not (math.isfinite(alpha) and alpha > 0):
                        raise ValueError(f"alpha must be finite and > 0, got {value}")
                elif key == "use_aggregates" and len(fields) == 1:
                    if use_aggregates is not None:
                        raise ValueError("repeated model line")
                    if value not in ("0", "1"):
                        raise ValueError("use_aggregates must be 0 or 1")
                    use_aggregates = value == "1"
                elif fields[0] == "docs" and doc_counts is None:
                    doc_counts = _count_pair(fields[1:])
                    if min(doc_counts) == 0:
                        raise ValueError("both document counts must be > 0")
                elif key == "token" and value and value not in token_counts:
                    token_counts[value] = _count_pair(fields[1:])
                else:
                    raise ValueError("unrecognized or repeated model line")
            except ValueError as exc:
                raise SessionFormatError(f"{exc}: {line.strip()}", line_no) from None
        if alpha is None or doc_counts is None:
            raise SessionFormatError(
                "model file ends without alpha or docs", line_no + 1
            )
        return cls(alpha, use_aggregates is not False, doc_counts, token_counts)

    def save(self, path: str | Path) -> None:
        Path(path).write_text("\n".join(self.to_lines()) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path, digest=None) -> "NBModel":
        """Parse a model file read once; a hashlib `digest`, if given, is
        updated with the bytes parsed."""
        return read_lines(path, cls.from_lines, digest)


def _count_pair(fields: list[str]) -> tuple[int, int]:
    """(c0, c1) of the fields c0=<count> c1=<count>, counts being
    non-negative integers."""
    pairs = dict(item.partition("=")[::2] for item in fields)
    if len(fields) != 2 or sorted(pairs) != ["c0", "c1"]:
        raise ValueError("expected c0=<count> c1=<count>")
    counts = int(pairs["c0"]), int(pairs["c1"])
    if min(counts) < 0:
        raise ValueError("counts must be non-negative")
    return counts


def train_nb(
    corpus: list[tuple[Counter, int]],
    alpha: float = 1.0,
    use_aggregates: bool = True,
) -> NBModel:
    """Fit the model from (features, binary label) pairs.

    Priors are class document frequencies; the vocabulary is every token
    with a positive count in some document, plus the aggregate keys when
    enabled.  Both classes must be present.
    """
    doc_counts = [0, 0]
    token_counts: dict[str, list[int]] = {}
    for features, label in corpus:
        doc_counts[label] += 1
        for token, count in features.items():
            if count:
                token_counts.setdefault(token, [0, 0])[label] += count
    if doc_counts[0] == 0 and doc_counts[1] == 0:
        raise CorpusError("training corpus has no usable utterances")
    if doc_counts[1] == 0:
        raise CorpusError("training corpus has no help-class utterances")
    if doc_counts[0] == 0:
        raise CorpusError("training corpus has no no-help-class utterances")
    if use_aggregates:
        token_counts.setdefault(QWORD, [0, 0])
        token_counts.setdefault(NEG, [0, 0])
    # the smallest smoothed likelihood of a class is alpha / (total + alpha * v);
    # where it is 0 or not a number, as when alpha * v overflows, predict
    # would take its log
    v = len(token_counts)
    for label in (0, 1):
        total = sum(c[label] for c in token_counts.values())
        if not alpha / (total + alpha * v) > 0:
            raise CorpusError(
                f"alpha={alpha!r} over a vocabulary of {v} gives a smoothed "
                "likelihood of 0"
            )
    return NBModel(
        alpha=alpha,
        use_aggregates=use_aggregates,
        doc_counts=(doc_counts[0], doc_counts[1]),
        token_counts={t: (c[0], c[1]) for t, c in token_counts.items()},
    )


def train_from_utterances(
    rows: list[tuple[str, int]],
    alpha: float = 1.0,
    use_aggregates: bool = True,
) -> NBModel:
    """Tokenize and featurize (text, binary label) rows, dropping any
    text that tokenizes to nothing, then fit."""
    corpus = []
    for text, label in rows:
        tokens = tokenize(text)
        if tokens:
            corpus.append((extract_features(tokens, use_aggregates), label))
    return train_nb(corpus, alpha=alpha, use_aggregates=use_aggregates)
