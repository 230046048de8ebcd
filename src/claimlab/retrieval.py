"""Document retrieval: title-mention bonus plus TF-IDF cosine.

A local, deterministic stand-in for search-API document retrieval. A
page whose (suffix-stripped) title occurs as a contiguous token
subsequence of the claim gets a fixed bonus on top of its cosine
score; with the default weight a title match strictly dominates any
cosine score. The cosines come from `corpus.IndexScorer`'s exact
MaxScore-pruned top-k, so no claim scores every page it shares a
common token with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .claims import Claim
from .corpus import Corpus, IndexScorer, InvertedIndex, parse_query, top_k_scored
from .features import contains_subsequence
from .util import check_fields


@dataclass(frozen=True)
class DocRetrievalConfig:
    k: int = 20
    title_match_weight: float = 2.0

    def __post_init__(self):
        check_fields(DocRetrievalConfig, vars(self))
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not (math.isfinite(self.title_match_weight) and self.title_match_weight >= 0):
            raise ValueError(f"title_match_weight must be finite and non-negative, got {self.title_match_weight}")


class DocumentRetriever:
    """Ranks candidate pages for a claim over a document-granularity index."""

    def __init__(self, corpus: Corpus, index: InvertedIndex, config: DocRetrievalConfig = DocRetrievalConfig()):
        if index.granularity != "document":
            raise ValueError("document retrieval needs a document-granularity index")
        self.corpus = corpus
        self.index = index
        self.config = config
        self._scorer = IndexScorer(index)
        # first title token -> [(page_id, title tokens)]: a title can only
        # match a claim that contains its first token.
        self._titles_by_first_token: dict[str, list[tuple[str, list[str]]]] = {}
        for page_id, doc in corpus.documents.items():
            if doc.title_tokens:
                self._titles_by_first_token.setdefault(doc.title_tokens[0], []).append((page_id, doc.title_tokens))

    def retrieve(self, claim_text: str) -> list[str]:
        """Top-k page ids for the claim, best first; empty when nothing matches.

        A page scores its TF-IDF cosine, plus the bonus when its title
        occurs in the claim. Every page whose title matches gets the
        bonus, even when titles match overlapping claim spans;
        longest-match resolution belongs to entity linking, not retrieval.
        """
        query = parse_query(self.index, claim_text)
        # Each distinct token once, so no page gets the bonus twice.
        matched = [
            page_id
            for first, _, _, _ in query.terms
            for page_id, title_tokens in self._titles_by_first_token.get(first, ())
            if contains_subsequence(query.tokens, title_tokens)
        ]
        # A matched page scores at least its cosine (the weight is >= 0 and
        # rounding is monotone) and unmatched pages keep theirs, so every
        # page ahead of an unmatched one by cosine stays ahead of it: each
        # unmatched page in the final top k is among the k best cosines.
        scores = dict(self._scorer.top_k(query, self.config.k))
        # A matched page in the top k keeps the cosine top_k gave it.
        cosines = self._scorer.scores(query, [page_id for page_id in matched if page_id not in scores])
        cosines.update(scores)
        for page_id in matched:
            # A matched page that shares no token with the claim has no cosine.
            scores[page_id] = cosines.get(page_id, 0.0) + self.config.title_match_weight
        return [page_id for page_id, _ in top_k_scored(scores, self.config.k)]


def with_gold_pages(pages: Sequence[str], claim: Claim) -> list[str]:
    """The retrieved pages, then the claim's gold pages that are not among
    them, deduplicated: gold pages already present keep their ranked
    position. A new list; pages is left as it was."""
    present = set(pages)
    return [*pages, *(page_id for page_id in claim.gold_pages() if page_id not in present)]
