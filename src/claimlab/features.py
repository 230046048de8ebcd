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
pair features compare); the title side once per page of a `held` call,
and only where the title shares a token with the claim (a title that
holds no claim span token has entity_spans_in_title 0.0, and one whose
first token is no claim token title_in_claim 0.0, with no set built and
no subsequence sought); the sentence side once per page, in the page's
record, built from the index's units the first time the extractor
reads the page and kept for that very document (bounded by the corpus,
not by the claims served): per token, the flat (position, tf) pairs of
the units holding it, packed in bytes (a title token is held by every
unit, with the count its postings give); per position the unit's row:
its sid, position, norm (`index.norms`), log_body_length and
sentence_position; and per position the unit's pair side, its negation
cues and numerals, computed when `pair_features` first pairs the unit
(every empty one the one shared empty frozenset, and no token set kept).

A selection vector is made in two steps. The held pass
(`FeatureExtractor.held`), cheap and run for every sentence, goes term
by term, in the claim's order: for each posted claim term it reads the
term's pairs on the page once and adds weight * tf * idf (weight =
count * idf) into the dot of each position holding it, and ORs the
term's bit into that position's mask. So each sentence's dot adds its
terms in the claim's order, and the mask holds the claim terms the
sentence holds. The package has two claim-unit TF-IDF dot sites, this
pass and util.tfidf_dots (behind corpus.IndexScorer, which retrieval and
negative sampling read), and both take that one chain, so a held cosine
equals IndexScorer.scores' for the sentence bit for bit. Each distinct
mask is worked out once per call: the shared-term count and idf overlap,
the features built from them, and upper counts of the claim bigrams and
entity spans the sentence can contain, since one can occur only where
the sentence holds all of its query tokens. The pass gives one flat list
of held candidates, in page then position order, and no vector: each is
(row, cosine, mask record, page record), where the mask record (the
mask's five features) and the page record (the document and its two
title values) are each one tuple shared by the candidates that have
them. A candidate's ceiling (`ceiling`) is its vector with
bigram_overlap and entity_spans_in_body at those upper counts, every
other feature exact; `logistic_bounds` gives the logits of ceilings,
each the one chain util.logistic_scores takes, without building them.
`finish` builds a candidate's ceiling, counts the bigrams and spans
where it is above 0, and gives the vector. Only this module reads a mask
or page record. `selection_vectors`, the one method that gives the
vectors of listed pages, is the held pass then `finish`;
`selection.rank_candidates` holds every candidate and finishes only
those whose bound can reach a model's top k. `pair_features` adds the
polarity cues, from the claim's and each unit's stored pair side, to
copies of the selection vectors, a page's positions per call.

Selection vectors live on the claim: each `PreparedClaim` holds the
memo `{SentenceId: vector}` of the sentences finished against it, and
only this module reads or writes it. `finish` gives the memo's vector
of a sentence the memo holds, and computes and stores any other;
`selection_vectors` (for `pair_features` and selector training) holds
and finishes only the sentences the memo lacks. A memo lives as long as
its claim. An extractor built with a run's dict of claims
(`experiment.run_experiment` builds one per run) keeps every claim it
prepares there, one per text, so each text is prepared once per run and
each of its sentences' vectors computed at most once in the run,
whichever stage asked first; `prepared_counts` reads how many claims
and vectors the dict holds. Any other extractor (the served path, a
CLI subcommand, a stage function called on its own) keeps only the
last claim it prepared, which `prepare_claim` of that text returns: a
claim served alone (select, then verdict) is prepared once and each of
its sentences' vectors computed at most once, and serving another claim
frees it. The verdict stage classifies each distinct (claim, sentence)
pair once (`nli.claim_verdicts`).

Contract: the extractor's index is the sentence index of the corpus
being featurized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Mapping, Optional, Sequence

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
# The one object every empty set of a unit's negation cues or numerals is.
_EMPTY: frozenset = frozenset()


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
    """Whether needle occurs in haystack as a contiguous run; an empty
    needle never does. Only the offsets holding needle's first token are
    compared, each found by list.index."""
    n = len(needle)
    if not n or n > len(haystack):
        return False
    first, end = needle[0], len(haystack) - n + 1
    at = 0
    try:
        while True:
            at = haystack.index(first, at, end)
            if haystack[at : at + n] == needle:
                return True
            at += 1
    except ValueError:
        return False


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


def prepared_counts(claims: Mapping[str, PreparedClaim]) -> tuple[int, int]:
    """The claims a run's dict holds and the selection vectors in their memos."""
    return len(claims), sum(len(claim.vectors) for claim in claims.values())


# A held candidate, always an index unit: (row, cosine, mask record, page
# record), row the page store's (sid, position, norm, log_body_length,
# sentence_position), cosine the unit's IndexScorer.scores cosine (the dot
# in util.tfidf_dots' chain), the mask record (unigram_overlap,
# bigram_overlap's upper count, idf_weighted_overlap, entity_spans_in_body's
# upper count, claim_tokens_missing) and the page record (document,
# entity_spans_in_title, title_in_claim). See FeatureExtractor.held.
HeldCandidate = tuple[tuple, float, tuple, tuple]


def ceiling(candidate: HeldCandidate) -> list[float]:
    """A held candidate's ceiling: its selection vector with bigram_overlap
    and entity_spans_in_body at their upper counts, every other feature exact."""
    row, cosine, mask, page = candidate
    unigram, bigram_ceiling, idf_overlap, spans_ceiling, missing = mask
    _, spans_in_title, title_in_claim = page
    return [
        unigram,
        bigram_ceiling,
        cosine,
        idf_overlap,
        spans_in_title,
        spans_ceiling,
        row[3],
        title_in_claim,
        row[4],
        missing,
    ]


def logistic_bounds(w: Sequence[float], bias: float, candidates: Iterable[HeldCandidate]) -> list[float]:
    """The logit z under (w, bias) of each held candidate's ceiling, in
    order, with the bits of the z util.logistic_scores takes for the
    ceiling, though no ceiling is built: util.sigmoid(z) has the bits of
    the ceiling's score.

    w has one weight per selection feature, and z = bias + (0.0 + w0 * f0
    + ... + w9 * f9) over the ceiling's features, left to right, as
    logistic_scores takes it. No exp is taken: a ranking takes the sigmoid
    only of the logits it reaches.
    """
    w0, w1, w2, w3, w4, w5, w6, w7, w8, w9 = w
    out: list[float] = []
    append = out.append
    for row, cosine, (unigram, bigrams, overlap, spans, missing), (_, in_title, title_in_claim) in candidates:
        z = 0.0 + w0 * unigram + w1 * bigrams + w2 * cosine + w3 * overlap + w4 * in_title + w5 * spans
        append(bias + (z + w6 * row[3] + w7 * title_in_claim + w8 * row[4] + w9 * missing))
    return out


def _packed(pairs: list[int]) -> Sequence[int]:
    """The flat (position, tf) pairs as bytes, or as a tuple when a value
    does not fit in a byte."""
    try:
        return bytes(pairs)
    except ValueError:
        return tuple(pairs)


class FeatureExtractor:
    """Deterministic feature vectors backed by the sentence index of the
    corpus being featurized; it keeps each page's record (its store, rows
    and units' pair sides) and either a run's dict of claims, when given
    one, or its last claim."""

    def __init__(self, index: InvertedIndex, claims: Optional[dict[str, PreparedClaim]] = None):
        self.index = index
        # The claims prepared, by text: a run's dict keeps every one, a dict
        # of the extractor's own only the last.
        self._claims: dict[str, PreparedClaim] = {} if claims is None else claims
        self._keeps_every_claim = claims is not None
        self._pages: dict[str, tuple[Document, dict[str, Sequence[int]], list, list]] = {}  # page id -> _page's record
        self._shared: dict = {}  # one object per distinct row float or packed pairs, to keep stores small

    @classmethod
    def from_index(cls, index: InvertedIndex) -> "FeatureExtractor":
        """Kept because bench/ calls it (ROADMAP item 12)."""
        return cls(index)

    def prepare_claim(self, claim_text: str) -> PreparedClaim:
        """The claim side of claim_text: the extractor's claim of this text
        if it holds one, else a new one, which joins a run's dict or, with
        none, replaces the last claim."""
        claim = self._claims.get(claim_text)
        if claim is not None:
            return claim
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
        if not self._keeps_every_claim:
            self._claims.clear()
        self._claims[claim_text] = claim
        return claim

    def held(self, claim: PreparedClaim, pages: Iterable[tuple[Document, Iterable[int]]]) -> list[HeldCandidate]:
        """The held pass over the sentences at the given positions of each
        page's document, against a prepared claim (see the module
        docstring): each sentence's HeldCandidate, in page then position
        order. Each page's record and each distinct mask's record are worked
        out once per call and shared by their candidates: entity_spans_in_title
        is 0.0 with no set built when no claim span token is a title token,
        and title_in_claim 0.0 with no subsequence sought when the title's
        first token is no claim token."""
        query = claim.query
        terms = query.terms
        bits = {token: 1 << i for i, (token, _, _, _) in enumerate(terms)}
        term_bits = [(idf, bits[token]) for token, _, idf, _ in terms]
        bigram_masks = [bits[first] | bits[second] for first, second in claim.bigrams]
        spans = claim.spans
        span_masks = [needed for _, needed in spans]
        span_tokens = set().union(*(span for span, _ in spans))
        claim_tokens = claim.token_set
        n_bigrams = max(1, len(claim.bigrams))
        n_claim = len(claim_tokens)
        claim_size = max(1, n_claim)
        query_norm, idf_mass = query.norm, claim.idf_mass
        # An out-of-vocabulary term has no postings, so no sentence holds it.
        posted = [(token, count * idf, idf, bits[token]) for token, count, idf, postings in terms if postings]
        records: dict[int, tuple] = {}
        held: list[HeldCandidate] = []
        for document, positions in pages:
            _, store, rows, _ = self._page(document)
            # Term-major, in the claim's term order, so each sentence's dot
            # adds its terms in that order, never in a set's hash order, each
            # as weight * tf * idf: util.tfidf_dots' chain.
            dots, held_masks = [0.0] * len(rows), [0] * len(rows)
            for token, weight, idf, bit in posted:
                pairs = store.get(token)
                if pairs is not None:
                    at = iter(pairs)
                    for position, tf in zip(at, at):
                        dots[position] += weight * tf * idf
                        held_masks[position] |= bit
            # Most pages share no title token with the claim: no set is built,
            # and no subsequence sought, for them.
            title_tokens = document.title_tokens
            spans_in_title = 0.0 if span_tokens.isdisjoint(title_tokens) else _span_share(spans, set(title_tokens))
            title_in_claim = 0.0
            if title_tokens and title_tokens[0] in claim_tokens and contains_subsequence(query.tokens, title_tokens):
                title_in_claim = 1.0
            page = (document, spans_in_title, title_in_claim)
            for position in positions:
                row = rows[position]
                if row is None:
                    raise ValueError(f"sentence {document.sids[position]} is no unit of the extractor's index")
                mask = held_masks[position]
                record = records.get(mask)
                if record is None:
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
                    record = records[mask] = (
                        shared / claim_size,
                        bigrams_in / n_bigrams,
                        overlap / idf_mass if idf_mass > 0 else 0.0,
                        spans_in / len(spans) if spans else 0.0,
                        (n_claim - shared) / claim_size,
                    )
                dot = dots[position]
                held.append((row, dot / (query_norm * row[2]) if dot != 0.0 else 0.0, record, page))
        return held

    def _page(self, document: Document) -> tuple[Document, dict[str, Sequence[int]], list, list]:
        """The document's record, (document, store, rows, sides), built when
        the page is first read and kept for this very document: store maps
        each token to the flat (position, tf) pairs of the units holding it,
        positions ascending (a title token is held by every unit), tf as the
        unit's postings count it; rows holds per position the unit's row,
        (sid, position, norm, log_body_length, sentence_position), or None;
        and sides per position the unit's pair side once pair_features has
        paired it, else None."""
        page = self._pages.get(document.page_id)
        if page is None or page[0] is not document:
            pairs: dict[str, list[int]] = {}
            rows: list = [None] * len(document.sids)
            postings, share = self.index.postings, self._shared.setdefault
            for position in document.candidate_positions:
                sid, body_tokens = document.sids[position], document.tokens[position]
                norm = self.index.norms.get(sid)
                if norm is not None:
                    for token in dict.fromkeys(chain(document.title_tokens, body_tokens)):
                        if token in pairs:
                            pairs[token] += (position, postings[token][sid])
                        else:
                            pairs[token] = [position, postings[token][sid]]
                    log_length, relative = math.log(1 + len(body_tokens)), position / max(1, len(rows) - 1)
                    rows[position] = (sid, position, norm, share(log_length, log_length), share(relative, relative))
            store = {token: share(packed := _packed(flat), packed) for token, flat in pairs.items()}
            page = self._pages[document.page_id] = (document, store, rows, [None] * len(rows))
        return page

    def finish(self, claim: PreparedClaim, candidate: HeldCandidate) -> list[float]:
        """The selection vector of a held candidate: the claim's memo's if it
        holds the sentence, else the candidate's ceiling with bigram_overlap
        and entity_spans_in_body counted where their ceiling is above 0 (at
        0 the ceiling is the value), which is stored in the memo."""
        row = candidate[0]
        sid = row[0]
        if sid in claim.vectors:
            return claim.vectors[sid]
        vector = ceiling(candidate)
        if vector[_BIGRAMS] or vector[_SPANS_IN_BODY]:
            document = candidate[3][0]
            body_tokens = document.tokens[row[1]]
            if vector[_BIGRAMS]:
                tokens = document.title_tokens + body_tokens
                vector[_BIGRAMS] = len(claim.bigrams.intersection(zip(tokens, tokens[1:]))) / max(1, len(claim.bigrams))
            if vector[_SPANS_IN_BODY]:
                vector[_SPANS_IN_BODY] = _span_share(claim.spans, set(body_tokens))
        claim.vectors[sid] = vector
        return vector

    def selection_vectors(
        self, claim: PreparedClaim, pages: Sequence[tuple[Document, Sequence[int]]]
    ) -> list[tuple[SentenceId, list[float]]]:
        """Selection features of the sentences at the given positions of each
        page's document, each with its SentenceId, in page then position
        order, against a prepared claim: read from the claim's memo where it
        holds a sentence, and only the sentences it lacks held and finished."""
        memo = claim.vectors
        missing = [
            (document, lacking)
            for document, positions in pages
            if (lacking := [p for p in positions if document.sids[p] not in memo])
        ]
        if missing:
            for candidate in self.held(claim, missing):
                self.finish(claim, candidate)
        return [(sid, memo[sid]) for document, positions in pages for sid in (document.sids[p] for p in positions)]

    def pair_features(
        self, claim: PreparedClaim, document: Document, positions: Sequence[int]
    ) -> list[tuple[SentenceId, list[float]]]:
        """Selection features (at sentence_position 0) plus polarity cues
        for claim classification, of the sentences at the given positions
        of the document's sentences, each with its SentenceId. Each starts
        from a copy of its selection vector (selection_vectors'). A unit's
        pair side, its negation cues and numerals, is computed the first
        time the unit is paired and kept in the page's record, an empty
        one as the one shared empty frozenset."""
        claim_tokens = claim.token_set
        title_tokens = set(document.title_tokens)
        sides = self._page(document)[3]
        featurized = []
        for position, (sid, selection) in zip(positions, self.selection_vectors(claim, [(document, positions)])):
            vector = list(selection)
            candidate_tokens = title_tokens.union(document.tokens[position])
            side = sides[position]
            if side is None:
                cues = frozenset(_negation_cues(candidate_tokens, document.title, document.sentences[position][1]))
                numerals = frozenset([t for t in candidate_tokens if t.isdigit()])
                side = sides[position] = (cues or _EMPTY, numerals or _EMPTY)
            cues, numerals = side
            vector[_POSITION] = 0.0
            vector += [
                1.0 if claim.negation_cues != cues else 0.0,
                1.0 if claim.numerals != numerals else 0.0,
                len(candidate_tokens - claim_tokens) / max(1, len(candidate_tokens)),
            ]
            featurized.append((sid, vector))
        return featurized
