"""Engineered lexical features for relevance scoring and claim classification.

A candidate is a sentence of a `corpus.Document`: the page's display
title (disambiguation suffix stripped) and the sentence, each read as
the tokens the document split once. The title travels with each
candidate so pronoun-heavy evidence keeps its subject.

Each side of a feature is computed once. The claim side once per claim
(`FeatureExtractor.prepare_claim`, around the claim's `corpus.Query`,
the one claim vector retrieval and negative sampling also read); the
title side (`page_title`, from the document's title tokens) once per
page. `page_features` is the one kernel for the body, a page at a time:
the per-claim and per-page quantities are computed once per call, then
each sentence, named by its SentenceId, reads its counts from the
query's postings and its norm from `index.norms`; a sentence the index
does not hold (an empty one) counts its own tokens. Both give equal
bits: the index counted the same title and body tokens with the same
idf table and `corpus.tfidf_norm`. Selection featurizes each candidate
page once per claim, selector training each (claim, sentence) once, and
the verdict stage classifies each distinct (claim, sentence) pair once
(`nli.claim_verdicts`), whatever the number of regimes.
Contract: the extractor's index is the sentence index of the corpus
being featurized.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, NamedTuple

from .corpus import Document, InvertedIndex, Query, SentenceId, parse_query, tfidf_norm, token_spans

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

_POSITION = SELECTION_FEATURE_NAMES.index("sentence_position")

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


def _span_share(spans: list[set[str]], tokens: set[str]) -> float:
    """Share of the claim's entity spans whose tokens all occur in tokens."""
    return sum(1 for s in spans if s <= tokens) / len(spans) if spans else 0.0


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
    """The claim side of every feature: the claim's Query against the
    extractor's index, plus its token set, bigrams and entity spans.
    idf_mass is the idf sum in the query's term order."""

    text: str
    query: Query
    token_set: set[str]
    bigrams: set[tuple[str, str]]
    span_sets: list[set[str]]
    idf_mass: float


class PageTitle(NamedTuple):
    """The title side of every feature, for one page title against one claim."""

    tokens: list[str]
    spans_in_title: float
    title_in_claim: float


class FeatureExtractor:
    """Deterministic feature vectors backed by the sentence index of the
    corpus being featurized."""

    def __init__(self, index: InvertedIndex):
        self.index = index

    @classmethod
    def from_index(cls, index: InvertedIndex) -> "FeatureExtractor":
        """Kept because bench/ calls it (ROADMAP item 12)."""
        return cls(index)

    def prepare_claim(self, claim_text: str) -> PreparedClaim:
        query = parse_query(self.index, claim_text)
        idf_mass = 0.0
        for _, _, idf, _ in query.terms:
            idf_mass += idf
        return PreparedClaim(
            text=claim_text,
            query=query,
            token_set=set(query.tokens),
            bigrams=_bigrams(query.tokens),
            span_sets=[set(span) for span in _capitalized_spans(claim_text)],
            idf_mass=idf_mass,
        )

    def page_title(self, claim: PreparedClaim, title_tokens: list[str]) -> PageTitle:
        in_claim = 1.0 if contains_subsequence(claim.query.tokens, title_tokens) else 0.0
        return PageTitle(title_tokens, _span_share(claim.span_sets, set(title_tokens)), in_claim)

    def page_features(
        self, claim: PreparedClaim, page: PageTitle, document: Document, positions: Iterable[int]
    ) -> list[tuple[SentenceId, list[float]]]:
        """Selection features of the sentences at the given positions of the
        document's sentences, each with its SentenceId, against a prepared
        claim and the page's title side. An indexed sentence reads its
        counts from the query's postings and its norm from the index."""
        query = claim.query
        terms = query.terms
        # A span is in a body only if the sentence holds each of the span's
        # query tokens (indices into terms), so only then is the body's token
        # set built. Span tokens are lowered one by one, which can differ from
        # tokenize (final sigma): a span token that is no query token has no
        # postings to read, and only the set check sees it.
        spans = [
            (span, [i for i, (token, _, _, _) in enumerate(terms) if token in span]) for span in claim.span_sets
        ]
        bigrams, n_bigrams = claim.bigrams, max(1, len(claim.bigrams))
        n_claim = len(claim.token_set)
        claim_size = max(1, n_claim)
        query_norm, idf_mass = query.norm, claim.idf_mass
        title_tokens, spans_in_title, title_in_claim = page
        page_id, sentences, document_tokens = document.page_id, document.sentences, document.tokens
        denom = max(1, len(sentences) - 1)
        norms = self.index.norms
        vectors = []
        for position in positions:
            body_tokens = document_tokens[position]
            sid = SentenceId(page_id, sentences[position][0])
            key, sentence_terms = sid, terms
            candidate_norm = norms.get(sid)
            if candidate_norm is None:
                # A sentence the index does not hold counts its own tokens: each
                # term's postings become {None: its count of it, or None if absent}.
                candidate_tf = Counter(title_tokens + body_tokens)
                candidate_norm = tfidf_norm(count * self.index.idf(token) for token, count in candidate_tf.items())
                key = None
                sentence_terms = [(token, count, idf, {None: candidate_tf.get(token)}) for token, count, idf, _ in terms]
            # Both float sums run in the claim's token order, never a set's hash order.
            dot = overlap = 0.0
            shared = 0
            for _, count, idf, postings in sentence_terms:
                candidate_count = postings.get(key)
                if candidate_count is not None:
                    dot += count * candidate_count * (idf * idf)
                    overlap += idf
                    shared += 1
            # A claim bigram can occur in the candidate only if its tokens do.
            shared_bigrams = 0
            if shared and bigrams:
                tokens = title_tokens + body_tokens
                shared_bigrams = len(bigrams.intersection(zip(tokens, tokens[1:])))
            spans_in_body = 0.0
            if spans:
                body_set = None
                in_body = 0
                for span, span_terms in spans:
                    # for-else, not all(): a generator costs more than the set it saves.
                    for i in span_terms:
                        if sentence_terms[i][3].get(key) is None:
                            break
                    else:
                        if body_set is None:
                            body_set = set(body_tokens)
                        if span <= body_set:
                            in_body += 1
                spans_in_body = in_body / len(spans)
            vector = [
                shared / claim_size,
                shared_bigrams / n_bigrams,
                dot / (query_norm * candidate_norm) if dot != 0.0 else 0.0,
                overlap / idf_mass if idf_mass > 0 else 0.0,
                spans_in_title,
                spans_in_body,
                math.log(1 + len(body_tokens)),
                title_in_claim,
                position / denom,
                (n_claim - shared) / claim_size,
            ]
            vectors.append((sid, vector))
        return vectors

    def pair_features(self, claim: PreparedClaim, document: Document, position: int) -> list[float]:
        """Selection features (at sentence_position 0) plus polarity cues
        for claim classification, of the sentence at position in the
        document's sentences."""
        body = document.sentences[position][1]
        page = self.page_title(claim, document.title_tokens)
        body_tokens = document.tokens[position]
        [(_, base)] = self.page_features(claim, page, document, [position])
        base[_POSITION] = 0.0

        claim_tokens = claim.token_set
        candidate_tokens = set(page.tokens) | set(body_tokens)
        claim_cues = _negation_cues(claim_tokens, claim.text)
        candidate_cues = _negation_cues(candidate_tokens, document.title, body)
        negation = 1.0 if claim_cues != candidate_cues else 0.0

        claim_numerals = {t for t in claim_tokens if t.isdigit()}
        candidate_numerals = {t for t in candidate_tokens if t.isdigit()}
        numeral = 1.0 if claim_numerals != candidate_numerals else 0.0

        extra = len(candidate_tokens - claim_tokens) / max(1, len(candidate_tokens))

        return base + [negation, numeral, extra]
