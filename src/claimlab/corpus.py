"""Corpus ingestion, sentence lookup, and TF-IDF inverted indexing.

The dump format is wiki-pages compatible JSON lines, read by
`util.read_jsonl` keyed by page id: each line is an object with "id"
(page title) and "lines" (newline-joined sentences, tab-separated
fields: sentence index, sentence text, ignored anchors). A page id may
not repeat, within a dump file or across a directory's files.

Each `Document` splits its title and sentences into tokens once, when
it is built; the indexes, document retrieval's title table, the feature
pass, selector training and NLI pairs all read those tokens, so no
corpus text is tokenized anywhere else. Postings map each token to
{identifier: term frequency}, so one unit's score is at most a dict
lookup per query token. A claim's `Query` is the one vector retrieval,
negative sampling and the feature pass all read. `IndexScorer` is the
one exact TF-IDF scorer and top-k ranker, over pages (document
retrieval) or sentences (negative sampling), and `util.tfidf_dots` its
one dot kernel: with MaxScore pruning it scores only the units that
could still reach the top k, and it takes a unit's dot only over the
tokens it can still hold (those ranked at or below the token that first
reached it). Those dots depend on the token taken and that held list
only, not on the claim, so the scorer keeps, per token, the held list
it was last taken under and, once that recurs, the token's units with
their dots under it, best first (the token's slot). A slot read stops
at the first unit that cannot reach the k-th best cosine so far. The
tests check it against a brute-force reference that scores every unit
sharing a token with the query.
"""

from __future__ import annotations

import json
import logging
import math
import re
import sys
from array import array
from collections import Counter
from heapq import heapreplace
from dataclasses import dataclass, field
from itertools import chain, compress
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .util import read_jsonl, tfidf_dots

logger = logging.getLogger(__name__)

# Unicode alphanumerics; underscores split (page ids use them as spaces).
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

_DISAMBIGUATION_RE = re.compile(r"\s*\([^()]*\)\s*$")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on any non-alphanumeric character."""
    return _TOKEN_RE.findall(text.lower())


def token_spans(text: str) -> list[tuple[int, int, str]]:
    """Case-preserving tokens with (start, end) character offsets."""
    return [(m.start(), m.end(), m.group()) for m in _TOKEN_RE.finditer(text)]


def strip_disambiguation(title: str) -> str:
    """Drop a trailing parenthetical like "Blind Faith (miniseries)"."""
    return _DISAMBIGUATION_RE.sub("", title)


def display_title(page_id: str) -> str:
    """Human-readable page title: underscores to spaces, suffix stripped."""
    return strip_disambiguation(page_id.replace("_", " ")).strip()


class SentenceId(NamedTuple):
    page_id: str
    line_index: int


def _interned_tokens(text: str) -> list[str]:
    return [sys.intern(token) for token in tokenize(text)]


@dataclass(frozen=True)
class Document:
    """A titled page with index-addressed sentences, tokenized once.

    Built from page_id and sentences, a document derives title (the
    display title), title_tokens, tokens (one token list per entry of
    sentences, in the same order), sids (one SentenceId per entry of
    sentences, the very objects the sentence index keys its units by)
    positions (line index -> position in sentences, tokens and sids)
    and candidate_positions (the positions of the non-empty sentences,
    ascending). These are the only tokens of corpus text the package
    computes. Each token is interned, so a word that recurs across the
    corpus is one string. Empty-text sentences are retained (they exist
    in dumps) but are never offered as retrieval candidates: a candidate
    sentence is one at a candidate position, the sentence index's units
    and selection's candidates alike.
    """

    page_id: str
    sentences: tuple[tuple[int, str], ...]
    title: str = field(init=False, repr=False, compare=False)
    title_tokens: list[str] = field(init=False, repr=False, compare=False)
    tokens: tuple[list[str], ...] = field(init=False, repr=False, compare=False)
    sids: tuple[SentenceId, ...] = field(init=False, repr=False, compare=False)
    positions: dict[int, int] = field(init=False, repr=False, compare=False)
    candidate_positions: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        title = display_title(self.page_id)
        object.__setattr__(self, "title", title)
        object.__setattr__(self, "title_tokens", _interned_tokens(title))
        object.__setattr__(self, "tokens", tuple(_interned_tokens(text) for _, text in self.sentences))
        # tuple.__new__ is what SentenceId(page_id, idx) calls, minus its
        # Python frame: ingest builds an id for every sentence of the corpus.
        page_id, new = self.page_id, tuple.__new__
        object.__setattr__(self, "sids", tuple([new(SentenceId, (page_id, idx)) for idx, _ in self.sentences]))
        object.__setattr__(self, "positions", {idx: position for position, (idx, _) in enumerate(self.sentences)})
        candidates = tuple([position for position, (_, text) in enumerate(self.sentences) if text])
        object.__setattr__(self, "candidate_positions", candidates)

    def line_texts(self) -> dict[int, str]:
        return {idx: text for idx, text in self.sentences}


@dataclass
class Corpus:
    documents: dict[str, Document] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.documents)

    def locate(self, sid: SentenceId) -> Optional[tuple[Document, int]]:
        """The sentence's document and its position in the document's
        sentences (and tokens), or None if absent."""
        doc = self.documents.get(sid.page_id)
        position = None if doc is None else doc.positions.get(sid.line_index)
        if position is None:
            return None
        return doc, position

    def pages_of(self, sids: Iterable[SentenceId]) -> list[tuple[Document, list[int]]]:
        """The distinct candidate (non-empty) sentences the corpus holds, as
        (document, positions) per page, in first-appearance order."""
        pages: dict[str, tuple[Document, dict[int, None]]] = {}
        for sid in sids:
            located = self.locate(sid)
            if located is not None and located[0].sentences[located[1]][1]:
                doc, position = located
                pages.setdefault(doc.page_id, (doc, {}))[1][position] = None
        return [(doc, list(positions)) for doc, positions in pages.values()]

    def get_sentence(self, sid: SentenceId) -> Optional[str]:
        """Sentence text for (page_id, line_index), or None if absent."""
        located = self.locate(sid)
        if located is None:
            return None
        doc, position = located
        return doc.sentences[position][1]

    def sentence_count(self) -> int:
        return sum(len(d.sentences) for d in self.documents.values())


def document_from_json(obj: dict) -> Document:
    """One dump row as a Document.

    A row whose "id" is not a non-empty string, or whose "lines" is not
    a string, raises a ValueError. Malformed sentence entries (missing
    or non-integer index, or an index that does not increase) are
    skipped with a warning. Fields after the sentence text are anchor
    annotations and are discarded.
    """
    page_id = obj.get("id")
    if not isinstance(page_id, str) or not page_id:
        raise ValueError(f"page id must be a non-empty string, got {page_id!r}")
    lines = obj.get("lines", "")
    if not isinstance(lines, str):
        raise ValueError(f"page {page_id!r}: lines must be a string, got {lines!r}")
    sentences: list[tuple[int, str]] = []
    last_index = -1
    for entry in lines.split("\n"):
        if entry == "":
            continue
        fields = entry.split("\t")
        try:
            idx = int(fields[0])
        except ValueError:
            logger.warning("page %r: skipping malformed sentence line %r", page_id, entry[:80])
            continue
        if idx <= last_index:
            logger.warning("page %r: skipping non-increasing sentence index %d", page_id, idx)
            continue
        text = fields[1] if len(fields) > 1 else ""
        sentences.append((idx, text))
        last_index = idx
    return Document(page_id=page_id, sentences=tuple(sentences))


def parse_dump_line(raw: str) -> Document:
    """document_from_json of one dump line. Kept because bench/ calls it."""
    return document_from_json(json.loads(raw))


def corpus_files(path: Union[str, Path]) -> list[Path]:
    """The dump files a corpus path names: the path itself, or a
    directory's *.jsonl and *.json files in name order."""
    path = Path(path)
    if not path.is_dir():
        return [path]
    files = sorted(p for p in path.iterdir() if p.suffix in (".jsonl", ".json"))
    if not files:
        raise FileNotFoundError(f"no .jsonl dump files under {path}")
    return files


def ingest_corpus(path: Union[str, Path]) -> Corpus:
    """Load a corpus from a dump file or a directory of *.jsonl files.

    Raises on unreadable paths, on malformed rows and on repeated page
    ids (naming the file and the line); malformed sentence lines inside
    a page are skipped, not fatal.
    """
    documents: dict[str, Document] = {}
    first_file: dict[str, Path] = {}

    def keyed(obj: dict) -> tuple[str, Document]:
        doc = document_from_json(obj)
        if doc.page_id in first_file:
            raise ValueError(f"repeated key {doc.page_id!r}, first in {first_file[doc.page_id]}")
        return doc.page_id, doc

    for file in corpus_files(path):
        pages = read_jsonl(file, keyed)
        documents.update(pages)
        first_file.update(dict.fromkeys(pages, file))
    return Corpus(documents)


@dataclass
class InvertedIndex:
    """Postings over documents or title-prefixed sentences.

    postings maps token -> {identifier: term frequency}, in identifier
    order, so a token's df is len(postings[token]). idfs holds each posted
    token's idf, unseen_idf every other token's; norms are tfidf_norm's.
    """

    granularity: str
    doc_count: int
    postings: dict[str, dict]
    idfs: dict[str, float]
    unseen_idf: float
    norms: dict

    def idf(self, token: str) -> float:
        return self.idfs.get(token, self.unseen_idf)


def _idf(doc_count: int, df: int) -> float:
    return math.log((doc_count + 1) / (df + 1)) + 1.0


def tfidf_norm(weights: Iterable[float]) -> float:
    """Length of a TF-IDF vector of weights (count * idf), squared as w * w
    and added with += in order. Every TF-IDF norm in the package is this
    expression, so two norms of one token stream are equal bit for bit."""
    norm_sq = 0.0
    for weight in weights:
        norm_sq += weight * weight
    return math.sqrt(norm_sq)


def build_index(corpus: Corpus, granularity: str = "document") -> InvertedIndex:
    """Build a TF-IDF index from the documents' tokens. A page's token
    stream is its sentences' tokens in line order; at sentence
    granularity each candidate sentence (Document.candidate_positions)
    is a unit whose stream is its page's title tokens followed by its
    own."""
    if not corpus.documents:
        raise ValueError("cannot index an empty corpus")
    if granularity not in ("document", "sentence"):
        raise ValueError(f"unknown granularity {granularity!r}")
    postings: dict[str, dict] = {}
    counts = []
    # Units come in identifier order, so each postings dict is in it too.
    for page_id in sorted(corpus.documents):
        doc = corpus.documents[page_id]
        if granularity == "document":
            units = [(page_id, Counter(chain.from_iterable(doc.tokens)))]
        else:
            units = [
                (doc.sids[position], Counter(chain(doc.title_tokens, doc.tokens[position])))
                for position in doc.candidate_positions
            ]
        for ident, tf in units:
            counts.append((ident, tf))
            for token, count in tf.items():
                postings.setdefault(token, {})[ident] = count
    doc_count = len(counts)
    idfs = {token: _idf(doc_count, len(posted)) for token, posted in postings.items()}
    norms = {ident: tfidf_norm(count * idfs[token] for token, count in tf.items()) for ident, tf in counts}
    return InvertedIndex(granularity, doc_count, postings, idfs, _idf(doc_count, 0), norms)


class Query(NamedTuple):
    """A text's TF-IDF vector against one index.

    tokens is the text's token stream. terms holds (token, count, idf,
    postings) per distinct token in first-occurrence order, the order
    of every float sum over the query; postings is the index's own dict,
    empty for an out-of-vocabulary token (which still counts in norm).
    """

    tokens: list[str]
    terms: list[tuple[str, int, float, dict]]
    norm: float


def parse_query(index: InvertedIndex, text: str) -> Query:
    """The text's Query against the index: the only place a claim is
    tokenized and its idfs and postings are looked up."""
    tokens = tokenize(text)
    terms = [(token, n, index.idf(token), index.postings.get(token, {})) for token, n in Counter(tokens).items()]
    return Query(tokens, terms, tfidf_norm(n * idf for _, n, idf, _ in terms))


def rank_key(item: tuple) -> tuple:
    """Order of scored (identifier, score) pairs: score descending, ties by
    identifier ascending."""
    return (-item[1], item[0])


def top_k_scored(scores: dict, k: int) -> list[tuple]:
    """The k best (identifier, score) pairs in rank_key order.

    Exactly sorted(scores.items(), key=rank_key)[:k], but only the pairs
    scoring at least the k-th best score are sorted.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    items = scores.items()
    if len(scores) > k:
        cut = sorted(scores.values())[-k]
        items = [item for item in items if item[1] >= cut]
    return sorted(items, key=rank_key)[:k]


# b"0" -> 0 and b"1" -> 1, so a bin() string can select with compress().
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")

# Relative slack on a sum of token bounds, far above the rounding error of
# the few float operations that separate it from a score.
_BOUND_SLACK = 1e-9


class IndexScorer:
    """Exact TF-IDF cosines of chosen units of an index, of either granularity.

    tf is the raw count and idf = ln((N+1)/(df+1)) + 1. A unit's cosine
    is dot / (query.norm * norm), its dot adding count * idf * tf * idf
    over the query's terms in order that the unit holds; top_k leaves
    out of a unit's terms only tokens it already knows the unit lacks
    (the rank rule), so each unit it returns scores equal bit for bit
    however it was reached. Each token's largest tf / norm (for top_k's
    bounds) and, on a sentence index, its page bitmask (for pages) are
    computed the first time a query uses the token and kept for later
    queries: one scorer should serve a whole training pass or retriever.

    top_k also keeps one slot per token. A slot holds the held list the
    token was last taken under (the (token, count) pairs of rank <= r, in
    query order) and, once the token has been taken under that held list
    twice in a row, the units of the token's postings with a non-zero dot
    and norm under it, by falling dot / norm, and their dots in an
    array('d'). dot / norm is the unit's cosine times query.norm, so the
    order is the same for every claim taking the token under that held
    list. Later takes under it read the slot best first, look nothing up,
    and stop at the first unit that cannot reach the k-th best cosine so
    far. A take under a held list new to the slot scores only the units
    not yet scored, as a scorer without slots would, and keeps only the
    held list: on a small corpus most held lists do not recur, and a fill
    would cost more than it saves. The key is index tokens and counts,
    never claim text: the idfs and postings are the index's own, so it
    fixes every float of each dot, and a query over other postings or
    idfs reads and fills no slot. A slot holds at most two 8-byte words
    (a list pointer and a double) per posting of its token, so all slots
    together hold at most two per posting of the index (1.8 MB for the
    two indexes of an 8x corpus). One slot per token, not one per held
    list, bounds the memory by the index rather than by the claims
    served; it suffices because a claim's last top-k places are filled
    from near-tied pages reached only by common tokens, which a stream of
    claims takes again and again under the same few held lists.
    """

    def __init__(self, index: InvertedIndex):
        self.index = index
        self._max_impact: dict[str, float] = {}
        # token -> (held list, ordered units or None, their dots or None), top_k's slots.
        self._slots: dict[str, tuple[tuple, Optional[list], Optional[array]]] = {}
        self._page_mask: dict[str, int] = {}
        self._pages: Optional[list[str]] = None  # bit -> page id, in page order
        self._page_bit: dict[str, int] = {}

    def scores(self, query: Query, units: Sequence) -> dict:
        """{unit: cosine} of the given units that share a token with the
        query (and have a non-zero norm), without scoring any other unit."""
        weighted = [(count * idf, idf, postings) for _, count, idf, postings in query.terms if postings]
        scores: dict = {}
        self._cosines(scores, query.norm, units, tfidf_dots(len(weighted))(weighted, units))
        return scores

    def top_k(self, query: Query, k: int) -> list[tuple]:
        """Exactly top_k_scored of the cosines of every unit sharing a token
        with the query, MaxScore-pruned and rank-restricted.

        A token adds at most count * idf * idf * max(tf / norm) / query.norm
        to a unit's cosine; rank the query's posted tokens by that bound,
        ascending, ties in query order. Tokens are taken from the highest
        rank down, each scoring the units of its postings not yet scored,
        until there are k of them; the k-th best score is the threshold
        theta. The longest prefix of lowest-bound tokens whose bounds sum
        (times 1 + slack) to strictly less than theta is skipped: a unit
        reached only by those tokens scores below theta, so it cannot be
        in the top k, while one tying theta is kept. The other tokens are
        then taken, still from the highest rank down.

        A unit first reached by the token of rank r lacks every token taken
        before it, all of higher rank, so it is scored over the held list
        of rank r, the tokens of rank <= r only (skipped ones included), in
        query order: the tokens left out would only have missed, and add
        nothing to its dot, so its cosine keeps its bits. Taking the token
        of rank r reads its slot when the slot holds the same held list,
        filling it first with one kernel call over the token's whole
        postings if it holds no units yet; otherwise one kernel call scores
        the token's units not scored yet, and the slot keeps the new held
        list. A read walks the slot best first and stops at the first unit
        whose dot / norm * (1 + slack) is below query.norm times the k-th
        best cosine so far, which each cosine scored updates. That unit
        and every later one score below that k-th best, which never
        exceeds the final one, while a unit tying it is scored, so ties
        are broken over every tied unit. Such a unit may still be reached
        by a lower-ranked token and scored over fewer tokens than it holds,
        which only lowers its score.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        index = self.index
        terms = [term for term in query.terms if term[3]]
        weighted = [(count * idf, idf, postings) for _, count, idf, postings in terms]
        # Posted units have norm >= 1 (every idf is >= 1), so each scores.
        bounds = [count * idf * idf * self._impact(token, postings) / query.norm for token, count, idf, postings in terms]
        # A query over other postings or idfs than the index's own (one
        # built by hand) neither reads nor fills a slot.
        own = all(index.postings.get(token) is postings and index.idfs[token] == idf for token, _, idf, postings in terms)
        slots = self._slots if own else {}
        # order[rank] is the position in terms of the token of that rank.
        order = sorted(range(len(terms)), key=bounds.__getitem__)
        scores: dict = {}
        # A min-heap of the k best cosines so far; cosines are positive, so
        # a zero stands for each place not filled yet.
        best = [0.0] * k
        rank, skipped, theta = len(order), 0, None
        while rank > skipped:
            rank -= 1
            held = sorted(order[: rank + 1])
            key = tuple([terms[position][:2] for position in held])
            token, _, _, postings = terms[order[rank]]
            slot = slots.get(token)
            if slot is None or slot[0] != key:
                units = [unit for unit in postings if unit not in scores]
                dots = tfidf_dots(len(held))([weighted[position] for position in held], units)
                self._cosines(scores, query.norm, units, dots, best)
                slots[token] = (key, None, None)
            else:
                if slot[1] is None:
                    dots = tfidf_dots(len(held))([weighted[position] for position in held], postings)
                    slot = slots[token] = (key, *self._ordered(postings, dots))
                self._cosines(scores, query.norm, slot[1], slot[2], best, ordered=True)
            if theta is None and len(scores) >= k:
                theta = best[0]
                total = 0.0
                for position in order:
                    total += bounds[position]
                    if total * (1.0 + _BOUND_SLACK) >= theta:
                        break
                    skipped += 1
        return top_k_scored(scores, k)

    def pages(self, query: Query) -> list[str]:
        """Sorted ids of the pages with a unit sharing a token with the
        query. Sentence index only."""
        if self.index.granularity != "sentence":
            raise ValueError("pages needs a sentence-granularity index")
        if self._pages is None:
            self._pages = sorted({sid.page_id for sid in self.index.norms})
            self._page_bit = {page: bit for bit, page in enumerate(self._pages)}
        mask = 0
        for token, _, _, postings in query.terms:
            if postings:
                mask |= self._mask(token, postings)
        # bin() is most significant bit first; reversed, position i is bit i.
        return list(compress(self._pages, bin(mask)[:1:-1].encode().translate(_BIT_BYTES)))

    def _cosines(
        self,
        scores: dict,
        query_norm: float,
        units: Iterable,
        dots: Sequence[float],
        best: Optional[list[float]] = None,
        ordered: bool = False,
    ) -> None:
        """Add to scores each unit of units not in it yet, with the cosine
        dot / (query_norm * norm) of its dot in dots (in units' order) and
        norm = norms.get(unit, 0.0), if both are non-zero: the one place
        scores and top_k turn a dot into a cosine.

        top_k passes best, its heap of the k best cosines so far, and each
        new cosine updates it. Units it passes ordered are a slot's, by
        falling dot / norm: the walk stops at the first unit whose
        dot / norm * (1 + slack) is below query_norm * best[0], as neither
        it nor any unit after it can reach the k-th best cosine.
        """
        norm_of = self.index.norms.get
        limit = query_norm * best[0] if ordered else 0.0
        for unit, dot in zip(units, dots):
            if ordered and dot / norm_of(unit) * (1.0 + _BOUND_SLACK) < limit:
                break
            if dot != 0.0 and unit not in scores:
                norm = norm_of(unit, 0.0)
                if norm != 0.0:
                    score = scores[unit] = dot / (query_norm * norm)
                    if best is not None and score > best[0]:
                        heapreplace(best, score)
                        limit = query_norm * best[0]

    def _ordered(self, postings: dict, dots: Sequence[float]) -> tuple[list, array]:
        """A slot's units and their array of dots, given the dots of a
        token's postings in postings order: the units with a non-zero dot
        and norm, by falling dot / norm, ties in postings order."""
        norm_of = self.index.norms.get
        units = list(postings)
        ratios = [
            dot / norm if dot != 0.0 and (norm := norm_of(unit, 0.0)) != 0.0 else None
            for unit, dot in zip(units, dots)
        ]
        kept = [position for position, ratio in enumerate(ratios) if ratio is not None]
        # A reverse sort is stable: tied positions keep postings order.
        kept.sort(key=ratios.__getitem__, reverse=True)
        return [units[position] for position in kept], array("d", [dots[position] for position in kept])

    def _impact(self, token: str, postings: dict) -> float:
        impact = self._max_impact.get(token)
        if impact is None:
            norms = self.index.norms
            impact = self._max_impact[token] = max(tf / norms[ident] for ident, tf in postings.items())
        return impact

    def _mask(self, token: str, postings: dict) -> int:
        mask = self._page_mask.get(token)
        if mask is None:
            mask = 0
            for bit in {self._page_bit[sid.page_id] for sid in postings}:
                mask |= 1 << bit
            self._page_mask[token] = mask
        return mask
