"""Engineered lexical features for relevance scoring and claim classification.

A candidate is a sentence of a `corpus.Document`: the page's display
title (disambiguation suffix stripped) and the sentence, each read as
the tokens the document split once; the title keeps pronoun-heavy
evidence's subject. A sentence the extractor featurizes is a candidate,
a unit of its index: any other (an empty one, or one at a line the
index does not hold) raises a ValueError that names it. Pages are given
as (document, positions), as `Corpus.pages_of` returns them, and each
sentence is named by its document's own SentenceId (`Document.sids`).

Each side of a feature is computed once. The claim side once per claim
(`FeatureExtractor.prepare_claim`: the claim's `corpus.Query`, the one
claim vector retrieval and negative sampling also read, the mask of
query terms each entity span holds, and the negation cues and numerals
pair features compare); the title side once per page of a `held` call;
the sentence side once per page, as the page's columns, derived from the
index's units the first time the extractor holds the page and kept
(bounded by the corpus, not by the claims served): per token the bitmask
of the candidate positions holding it (a title token is held by every
candidate), and per position its norm (`index.norms`), log_body_length
and sentence_position.

A selection vector is made in two steps. The held pass
(`FeatureExtractor.held`), cheap and run for every sentence, looks up
each posted claim term's column once per page and reads a sentence's
count from the term's postings only where its bit is set. That yields
the TF-IDF dot, added in the claim's term order, and the mask of the
claim terms the sentence holds. Each distinct mask is worked out once
per call: the shared-term count and idf overlap, the features built
from them, and upper counts of the claim bigrams and entity spans the
sentence can contain, since one can occur only where the sentence holds
all of its query tokens. So the held pass gives each sentence its
ceiling: its vector with bigram_overlap and entity_spans_in_body at
those upper counts, every other feature exact. `finish` counts the
bigrams and spans where a ceiling is above 0 and gives the vector.
`page_features` is the held pass then `finish` for every sentence;
`selection.rank_candidates` finishes only the candidates whose ceiling
can reach a model's top k. `pair_features` adds the polarity cues to
copies of the selection vectors, a page's positions per call.

Selection vectors live on the claim: each `PreparedClaim` holds the
memo `{SentenceId: vector}` of the sentences finished against it, which
`finish` fills and never reads; `selection_vectors` (for `pair_features`
and selector training) and `selection.rank_candidates` read it, and
finish only the sentences it lacks. The extractor keeps the last claim
it prepared, which `prepare_claim` of that text returns: a claim served
alone (select, then verdict) is prepared once and each of its sentences
finished at most once. A memo lives as long as its claim, never a whole
run. Ranking finishes each candidate at most once per claim, training
each sentence once per prepared claim, and the verdict stage classifies
each distinct (claim, sentence) pair once (`nli.claim_verdicts`).

Contract: the extractor's index is the sentence index of the corpus
being featurized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .corpus import Document, InvertedIndex, Query, SentenceId, parse_query, token_spans

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
_BIGRAMS = SELECTION_FEATURE_NAMES.index("bigram_overlap")
_SPANS_IN_BODY = SELECTION_FEATURE_NAMES.index("entity_spans_in_body")
# The features a held sentence's ceiling holds as upper counts, which
# finish counts (see FeatureExtractor.held).
BOUNDED_FEATURES = (_BIGRAMS, _SPANS_IN_BODY)

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


def _span_share(spans: list[tuple[set[str], int]], tokens: set[str]) -> float:
    """Share of the claim's entity spans whose tokens all occur in tokens."""
    return sum(1 for span, _ in spans if span <= tokens) / len(spans) if spans else 0.0


def contains_subsequence(haystack: list[str], needle: list[str]) -> bool:
    if not needle or len(needle) > len(haystack) or needle[0] not in haystack:
        return False
    return any(haystack[i : i + len(needle)] == needle for i in range(len(haystack) - len(needle) + 1))


def _negation_cues(tokens: set[str], *texts: str) -> set[str]:
    cues = {c for c in _NEGATION_CUES if c in tokens}
    if any("n't" in text.lower() for text in texts):
        cues.add("n't")
    return cues


@dataclass(frozen=True)
class PreparedClaim:
    """The claim side of every feature: the claim's Query against the
    extractor's index, plus its token set, bigrams and entity spans, and,
    for pair features, its negation cues and numerals. spans pairs each
    entity span's tokens with the mask of their indices in query.terms
    (bit i for terms[i]). idf_mass is the idf sum in the query's term
    order. vectors is the claim's memo (see the module docstring), no part
    of the claim's equality or repr."""

    text: str
    query: Query
    token_set: set[str]
    bigrams: set[tuple[str, str]]
    spans: list[tuple[set[str], int]]
    idf_mass: float
    negation_cues: set[str]
    numerals: set[str]
    vectors: dict[SentenceId, list[float]] = field(default_factory=dict, init=False, compare=False, repr=False)


# A held sentence, always an index unit: (sid, document, position,
# ceiling), see FeatureExtractor.held.
HeldSentence = tuple[SentenceId, Document, int, list[float]]


class FeatureExtractor:
    """Deterministic feature vectors backed by the sentence index of the
    corpus being featurized; it keeps its last claim and held pages' columns."""

    def __init__(self, index: InvertedIndex):
        self.index = index
        self._last_claim: Optional[PreparedClaim] = None
        self._pages: dict[str, tuple[Document, dict[str, int], list]] = {}  # page id -> _page's columns
        self._floats: dict[float, float] = {}  # one object per distinct row float, to keep rows small

    @classmethod
    def from_index(cls, index: InvertedIndex) -> "FeatureExtractor":
        """Kept because bench/ calls it (ROADMAP item 12)."""
        return cls(index)

    def prepare_claim(self, claim_text: str) -> PreparedClaim:
        """The claim side of claim_text: the last claim prepared if it has
        this text, else a new one, which becomes the last."""
        last = self._last_claim
        if last is not None and last.text == claim_text:
            return last
        query = parse_query(self.index, claim_text)
        idf_mass = 0.0
        for _, _, idf, _ in query.terms:
            idf_mass += idf
        token_set = set(query.tokens)
        # A span token is lowered alone, which can differ from tokenize (final
        # sigma); one that is no query token gets no bit, only a set check.
        claim = PreparedClaim(
            text=claim_text,
            query=query,
            token_set=token_set,
            bigrams=_bigrams(query.tokens),
            spans=[
                (span, sum(1 << i for i, (token, _, _, _) in enumerate(query.terms) if token in span))
                for span in map(set, _capitalized_spans(claim_text))
            ],
            idf_mass=idf_mass,
            negation_cues=_negation_cues(token_set, claim_text),
            numerals={t for t in token_set if t.isdigit()},
        )
        self._last_claim = claim
        return claim

    def held(self, claim: PreparedClaim, pages: Iterable[tuple[Document, Iterable[int]]]) -> list[HeldSentence]:
        """The held pass over the sentences at the given positions of each
        page's document, in page then position order: per sentence its
        (sid, document, position, ceiling), against a prepared claim (see
        the module docstring). Each page's title side and term columns, and
        each distinct mask of held claim terms, is worked out once per call."""
        query = claim.query
        terms = query.terms
        bits = {token: 1 << i for i, (token, _, _, _) in enumerate(terms)}
        term_bits = [(idf, bits[token]) for token, _, idf, _ in terms]
        bigram_masks = [bits[first] | bits[second] for first, second in claim.bigrams]
        spans = claim.spans
        span_masks = [needed for _, needed in spans]
        n_bigrams = max(1, len(claim.bigrams))
        n_claim = len(claim.token_set)
        claim_size = max(1, n_claim)
        query_norm, idf_mass = query.norm, claim.idf_mass
        # An out-of-vocabulary term has no postings, so no sentence holds it.
        posted = [(token, (count, idf * idf, postings, bits[token])) for token, count, idf, postings in terms if postings]
        per_mask: dict[int, tuple[float, float, float, float, float]] = {}
        held = []
        for document, positions in pages:
            columns, rows = self._page(document)
            # One lookup per (page, posted term); a count is read only where a bit is set.
            on_page = [(column, term) for token, term in posted if (column := columns.get(token))]
            spans_in_title = _span_share(spans, set(document.title_tokens))
            title_in_claim = 1.0 if contains_subsequence(query.tokens, document.title_tokens) else 0.0
            for position in positions:
                row = rows[position]
                if row is None:
                    raise ValueError(f"sentence {document.sids[position]} is no unit of the extractor's index")
                sid, candidate_norm, log_body_length, sentence_position, at = row
                # Every float sum runs in the claim's token order, never a set's hash order.
                dot, mask = 0.0, 0
                for column, (count, idf_squared, postings, bit) in on_page:
                    if column & at:
                        dot += count * postings[sid] * idf_squared
                        mask |= bit
                values = per_mask.get(mask)
                if values is None:
                    overlap = 0.0
                    shared = 0
                    for idf, bit in term_bits:
                        if mask & bit:
                            overlap += idf
                            shared += 1
                    # A claim bigram or span can occur in the sentence only if
                    # the sentence holds each of its query tokens. Loops, not
                    # sum() over generators: most masks are new in a training call.
                    bigrams_in = spans_in = 0
                    for needed in bigram_masks:
                        if needed & mask == needed:
                            bigrams_in += 1
                    for needed in span_masks:
                        if needed & mask == needed:
                            spans_in += 1
                    values = per_mask[mask] = (
                        shared / claim_size,
                        bigrams_in / n_bigrams,
                        overlap / idf_mass if idf_mass > 0 else 0.0,
                        spans_in / len(spans) if spans else 0.0,
                        (n_claim - shared) / claim_size,
                    )
                unigram, bigram_ceiling, idf_overlap, spans_ceiling, missing = values
                ceiling = [
                    unigram,
                    bigram_ceiling,
                    dot / (query_norm * candidate_norm) if dot != 0.0 else 0.0,
                    idf_overlap,
                    spans_in_title,
                    spans_ceiling,
                    log_body_length,
                    title_in_claim,
                    sentence_position,
                    missing,
                ]
                held.append((sid, document, position, ceiling))
        return held

    def _page(self, document: Document) -> tuple[dict[str, int], list]:
        """The document's columns, built when first held and kept for this very
        document: token -> bitmask (bit p for position p), and per position the
        unit's (sid, norm, log_body_length, sentence_position, bit) or None."""
        page = self._pages.get(document.page_id)
        if page is None or page[0] is not document:
            columns: dict[str, int] = {}
            rows: list = [None] * len(document.sids)
            every, share = 0, self._floats.setdefault
            for position in document.candidate_positions:
                sid, body_tokens = document.sids[position], document.tokens[position]
                norm = self.index.norms.get(sid)
                if norm is not None:
                    every |= (bit := 1 << position)
                    for token in body_tokens:
                        columns[token] = columns.get(token, 0) | bit
                    log_length, relative = math.log(1 + len(body_tokens)), position / max(1, len(rows) - 1)
                    rows[position] = (sid, norm, share(log_length, log_length), share(relative, relative), bit)
            if every:
                columns.update(dict.fromkeys(document.title_tokens, every))
            page = self._pages[document.page_id] = (document, columns, rows)
        return page[1], page[2]

    def finish(self, claim: PreparedClaim, sentence: HeldSentence) -> list[float]:
        """The selection vector of a held sentence: its ceiling, with
        bigram_overlap and entity_spans_in_body counted where their
        ceiling is above 0 (at 0 the ceiling is the value), also stored in
        the claim's memo, which this never reads."""
        sid, document, position, vector = sentence
        if vector[_BIGRAMS] or vector[_SPANS_IN_BODY]:
            body_tokens = document.tokens[position]
            vector = list(vector)
            if vector[_BIGRAMS]:
                tokens = document.title_tokens + body_tokens
                vector[_BIGRAMS] = len(claim.bigrams.intersection(zip(tokens, tokens[1:]))) / max(1, len(claim.bigrams))
            if vector[_SPANS_IN_BODY]:
                vector[_SPANS_IN_BODY] = _span_share(claim.spans, set(body_tokens))
        claim.vectors[sid] = vector
        return vector

    def page_features(
        self, claim: PreparedClaim, pages: Iterable[tuple[Document, Iterable[int]]]
    ) -> list[tuple[SentenceId, list[float]]]:
        """Selection features of the sentences at the given positions of each
        page's document, each with its SentenceId, in page then position
        order, against a prepared claim: the held pass, then each sentence
        finished (and so stored in the claim's memo, which this never reads)."""
        return [(sentence[0], self.finish(claim, sentence)) for sentence in self.held(claim, pages)]

    def selection_vectors(
        self, claim: PreparedClaim, pages: Sequence[tuple[Document, Sequence[int]]]
    ) -> list[tuple[SentenceId, list[float]]]:
        """page_features' output for the pages, read from the claim's memo
        where it holds a sentence: only the sentences it lacks are
        featurized, in one page_features call, and none if it lacks none."""
        memo = claim.vectors
        missing = [
            (document, lacking)
            for document, positions in pages
            if (lacking := [p for p in positions if document.sids[p] not in memo])
        ]
        if missing:
            self.page_features(claim, missing)
        return [(sid, memo[sid]) for document, positions in pages for sid in (document.sids[p] for p in positions)]

    def pair_features(
        self, claim: PreparedClaim, document: Document, positions: Sequence[int]
    ) -> list[tuple[SentenceId, list[float]]]:
        """Selection features (at sentence_position 0) plus polarity cues
        for claim classification, of the sentences at the given positions
        of the document's sentences, each with its SentenceId. Each starts
        from a copy of its selection vector (selection_vectors')."""
        claim_tokens = claim.token_set
        title_tokens = set(document.title_tokens)
        featurized = []
        for position, (sid, selection) in zip(positions, self.selection_vectors(claim, [(document, positions)])):
            vector = list(selection)
            candidate_tokens = title_tokens.union(document.tokens[position])
            candidate_cues = _negation_cues(candidate_tokens, document.title, document.sentences[position][1])
            candidate_numerals = {t for t in candidate_tokens if t.isdigit()}
            vector[_POSITION] = 0.0
            vector += [
                1.0 if claim.negation_cues != candidate_cues else 0.0,
                1.0 if claim.numerals != candidate_numerals else 0.0,
                len(candidate_tokens - claim_tokens) / max(1, len(candidate_tokens)),
            ]
            featurized.append((sid, vector))
        return featurized
