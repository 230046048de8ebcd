"""Engineered lexical features for relevance scoring and claim classification.

A candidate is a (title, body) record: the page's display title
(disambiguation suffix stripped) and the sentence text, passed as two
arguments everywhere in the pipeline. The title travels with each
candidate so pronoun-heavy evidence keeps its subject.

The claim side of every feature is computed once per claim
(`FeatureExtractor.prepare_claim`); `candidate_features` and
`pair_features` do only the candidate side. Idf values come from the
sentence index, and every TF-IDF norm is `corpus.tfidf_norm`.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from .corpus import InvertedIndex, tfidf_norm, token_spans, tokenize

SELECTION_FEATURE_NAMES = (
    "unigram_overlap",
    "bigram_overlap",
    "tfidf_cosine",
    "idf_weighted_overlap",
    "entity_spans_in_title",
    "entity_spans_in_body",
    "log_body_length",
    "title_in_claim",
    "sentence_position",
    "claim_tokens_missing",
)

PAIR_FEATURE_NAMES = SELECTION_FEATURE_NAMES + (
    "negation_cue_mismatch",
    "numeral_mismatch",
    "evidence_tokens_missing",
)

# Cue words whose presence on one side but not the other often flips polarity.
_NEGATION_CUES = ("not", "only", "never", "no")


def _bigrams(tokens: list[str]) -> set[tuple[str, str]]:
    return set(zip(tokens, tokens[1:]))


def _capitalized_spans(text: str) -> list[tuple[str, ...]]:
    """Maximal runs of >=2 consecutive capitalized tokens (entity proxy)."""
    spans = []
    run: list[str] = []
    last_index = None
    for i, (_, _, tok) in enumerate(token_spans(text)):
        if tok[0].isupper():
            if last_index is not None and i == last_index + 1:
                run.append(tok.lower())
            else:
                if len(run) >= 2:
                    spans.append(tuple(run))
                run = [tok.lower()]
            last_index = i
        else:
            if len(run) >= 2:
                spans.append(tuple(run))
            run = []
            last_index = None
    if len(run) >= 2:
        spans.append(tuple(run))
    return spans


def contains_subsequence(haystack: list[str], needle: list[str]) -> bool:
    if not needle or len(needle) > len(haystack) or needle[0] not in haystack:
        return False
    return any(haystack[i : i + len(needle)] == needle for i in range(len(haystack) - len(needle) + 1))


def _negation_cues(tokens: set[str], *texts: str) -> set[str]:
    cues = {c for c in _NEGATION_CUES if c in tokens}
    if any("n't" in text.lower() for text in texts):
        cues.add("n't")
    return cues


class PreparedClaim(NamedTuple):
    """The claim side of every feature. tf lists (token, count, idf, idf
    squared) in first-occurrence order, the order every float sum over
    claim tokens follows; idf_mass is the idf sum in that order and norm
    the TF-IDF vector length."""

    text: str
    tokens: list[str]
    token_set: set[str]
    bigrams: set[tuple[str, str]]
    span_sets: list[set[str]]
    idf_mass: float
    tf: list[tuple[str, int, float, float]]
    norm: float


class FeatureExtractor:
    """Deterministic feature vectors backed by a sentence index's idf table."""

    def __init__(self, index: InvertedIndex):
        self.idf = index.idf

    @classmethod
    def from_index(cls, index: InvertedIndex) -> "FeatureExtractor":
        return cls(index)

    def prepare_claim(self, claim_text: str) -> PreparedClaim:
        tokens = tokenize(claim_text)
        tf = []
        idf_mass = 0.0
        for token, count in Counter(tokens).items():
            idf = self.idf(token)
            tf.append((token, count, idf, idf * idf))
            idf_mass += idf
        return PreparedClaim(
            text=claim_text,
            tokens=tokens,
            token_set=set(tokens),
            bigrams=_bigrams(tokens),
            span_sets=[set(span) for span in _capitalized_spans(claim_text)],
            idf_mass=idf_mass,
            tf=tf,
            norm=tfidf_norm(count * idf for _, count, idf, _ in tf),
        )

    def _shared_sums(self, claim: PreparedClaim, candidate_tokens: list[str]) -> tuple[float, float]:
        """(TF-IDF cosine, idf mass of the shared tokens). Both sums run in
        the claim's token order, so their bits never follow a set's hash order."""
        candidate_tf = Counter(candidate_tokens)
        dot = overlap = 0.0
        for token, count, idf, idf_squared in claim.tf:
            if token in candidate_tf:
                dot += count * candidate_tf[token] * idf_squared
                overlap += idf
        if dot == 0.0:
            return 0.0, overlap
        candidate_norm = tfidf_norm(count * self.idf(token) for token, count in candidate_tf.items())
        return dot / (claim.norm * candidate_norm), overlap

    def candidate_features(
        self, claim: PreparedClaim, title: str, body: str, position: float = 0.0
    ) -> list[float]:
        """Selection features of one candidate against a prepared claim."""
        title_tokens = tokenize(title)
        body_tokens = tokenize(body)
        candidate_tokens = title_tokens + body_tokens
        candidate_set = set(candidate_tokens)

        claim_size = max(1, len(claim.token_set))
        shared = claim.token_set & candidate_set
        unigram = len(shared) / claim_size
        bigram = len(claim.bigrams & _bigrams(candidate_tokens)) / max(1, len(claim.bigrams))
        # With no shared token both sums are zero.
        cosine, overlap = self._shared_sums(claim, candidate_tokens) if shared else (0.0, 0.0)
        idf_overlap = overlap / claim.idf_mass if claim.idf_mass > 0 else 0.0

        spans = claim.span_sets
        title_set, body_set = set(title_tokens), set(body_tokens)
        spans_in_title = sum(1 for s in spans if s <= title_set) / len(spans) if spans else 0.0
        spans_in_body = sum(1 for s in spans if s <= body_set) / len(spans) if spans else 0.0

        log_body_len = math.log(1 + len(body_tokens))
        title_in_claim = 1.0 if contains_subsequence(claim.tokens, title_tokens) else 0.0
        missing = (len(claim.token_set) - len(shared)) / claim_size

        return [
            unigram,
            bigram,
            cosine,
            idf_overlap,
            spans_in_title,
            spans_in_body,
            log_body_len,
            title_in_claim,
            float(position),
            missing,
        ]

    def pair_features(self, claim: PreparedClaim, title: str, body: str) -> list[float]:
        """Selection features (at position 0) plus polarity cues for claim classification."""
        base = self.candidate_features(claim, title, body)

        claim_tokens = claim.token_set
        candidate_tokens = set(tokenize(title)) | set(tokenize(body))
        claim_cues = _negation_cues(claim_tokens, claim.text)
        candidate_cues = _negation_cues(candidate_tokens, title, body)
        negation = 1.0 if claim_cues != candidate_cues else 0.0

        claim_numerals = {t for t in claim_tokens if t.isdigit()}
        candidate_numerals = {t for t in candidate_tokens if t.isdigit()}
        numeral = 1.0 if claim_numerals != candidate_numerals else 0.0

        extra = len(candidate_tokens - claim_tokens) / max(1, len(candidate_tokens))

        return base + [negation, numeral, extra]
