import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimlab import corpus as corpus_module
from claimlab.claims import Label, load_claims
from claimlab.corpus import (
    Document,
    IndexScorer,
    build_index,
    display_title,
    ingest_corpus,
    parse_query,
    tokenize,
)
from claimlab.features import contains_subsequence
from claimlab.retrieval import DocRetrievalConfig, DocumentRetriever, with_gold_pages

from conftest import count_tokenized, make_claim, make_corpus, tfidf_scores


@pytest.fixture
def beeman_world():
    corpus = make_corpus(
        {
            "Stan_Beeman": ["Stan Beeman acts in a US TV series.", "He lives in Virginia."],
            "BBC": ["The BBC is a broadcaster.", "It airs many shows."],
            "The_Americans": ["The Americans is a period drama series.", "Critics praised it."],
            "Unrelated": ["Nothing to see here at all."],
        }
    )
    index = build_index(corpus, "document")
    return corpus, index


def test_title_mentions_outrank_lexical_matches(beeman_world):
    corpus, index = beeman_world
    retriever = DocumentRetriever(corpus, index)
    pages = retriever.retrieve("Stan Beeman is only in shows on BBC.")
    assert set(pages[:2]) == {"Stan_Beeman", "BBC"}
    assert "Unrelated" not in pages[:3]


def test_all_overlapping_title_matches_get_bonus(beeman_world):
    """"The Americans" and "Americans" both occur in the claim as contiguous
    token subsequences, and both pages get the bonus: The_Americans on top
    of its cosine, and Americans, which shares no token with the claim,
    on top of 0.0. Americans would win a tie on its id, so The_Americans
    ranking first shows that its score exceeds the weight."""
    corpus, _ = beeman_world
    corpus.documents["Americans"] = Document("Americans", ((0, "Nothing to see here."),))
    retriever = DocumentRetriever(corpus, build_index(corpus, "document"))
    assert retriever.retrieve("The Americans series is good")[:2] == ["The_Americans", "Americans"]


def test_zero_overlap_claim_empty(beeman_world):
    corpus, index = beeman_world
    retriever = DocumentRetriever(corpus, index)
    assert retriever.retrieve("zzz qqq xyzzy") == []


def test_k_one_truncates(beeman_world):
    corpus, index = beeman_world
    retriever = DocumentRetriever(corpus, index, DocRetrievalConfig(k=1))
    assert len(retriever.retrieve("Stan Beeman acts in a series")) == 1


def test_disambiguation_suffix_stripped_for_matching():
    corpus = make_corpus(
        {
            "Blind_Faith_(miniseries)": ["Blind Faith is a miniseries drama."],
            "Filler": ["Plain filler sentence."],
        }
    )
    index = build_index(corpus, "document")
    retriever = DocumentRetriever(corpus, index)
    pages = retriever.retrieve("Blind Faith aired long ago")
    assert pages[0] == "Blind_Faith_(miniseries)"


def test_deterministic(beeman_world):
    corpus, index = beeman_world
    retriever = DocumentRetriever(corpus, index)
    claim = "Stan Beeman acts on the BBC."
    assert retriever.retrieve(claim) == retriever.retrieve(claim)


def test_output_never_exceeds_k(beeman_world):
    corpus, index = beeman_world
    retriever = DocumentRetriever(corpus, index, DocRetrievalConfig(k=2))
    assert len(retriever.retrieve("Stan Beeman BBC Americans broadcaster series")) <= 2


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        DocRetrievalConfig(k=0)


@pytest.mark.parametrize("weight", [math.nan, math.inf, -1.0])
def test_title_match_weight_must_be_finite_and_non_negative(weight):
    with pytest.raises(ValueError, match="title_match_weight must be finite and non-negative"):
        DocRetrievalConfig(title_match_weight=weight)


def test_retrieve_tokenizes_the_claim_once(beeman_world, monkeypatch):
    """One Query per claim serves both the TF-IDF scores and the title
    matches."""
    corpus, index = beeman_world
    retriever = DocumentRetriever(corpus, index)
    claim = "Stan Beeman is only in shows on BBC."
    texts = count_tokenized(monkeypatch)
    assert set(retriever.retrieve(claim)[:2]) == {"BBC", "Stan_Beeman"}
    assert texts == Counter({claim: 1})


def test_document_index_required(beeman_world):
    corpus, _ = beeman_world
    sentence_index = build_index(corpus, "sentence")
    with pytest.raises(ValueError):
        DocumentRetriever(corpus, sentence_index)


class TestOracle:
    def test_gold_already_present_is_idempotent(self, beeman_world):
        corpus, index = beeman_world
        retriever = DocumentRetriever(corpus, index)
        claim = make_claim(
            1, Label.REFUTED, "Stan Beeman is only in shows on BBC.", [[("Stan_Beeman", 0)]]
        )
        assert with_gold_pages(retriever.retrieve(claim.text), claim) == retriever.retrieve(claim.text)

    def test_missing_gold_page_appended_last(self, beeman_world):
        corpus, index = beeman_world
        retriever = DocumentRetriever(corpus, index)
        claim = make_claim(2, Label.SUPPORTED, "The BBC airs shows.", [[("Unrelated", 0)]])
        pages = with_gold_pages(retriever.retrieve(claim.text), claim)
        assert pages[-1] == "Unrelated"
        assert pages[:-1] == retriever.retrieve(claim.text)

    def test_nei_claim_unchanged(self, beeman_world):
        corpus, index = beeman_world
        retriever = DocumentRetriever(corpus, index)
        claim = make_claim(3, Label.NOT_ENOUGH_INFO, "The BBC airs shows.")
        assert with_gold_pages(retriever.retrieve(claim.text), claim) == retriever.retrieve(claim.text)


def test_refuted_doc_mistakes_exceed_supported_directionally():
    """Refuting evidence often lives on pages the claim never names, so
    document retrieval misses refuted claims more, checked directionally."""
    from claimlab.evaluation import build_report

    corpus = make_corpus(
        {
            "Topic": ["Topic is a subject to discuss at length."],
            "Hidden": ["A quiet correction lives here unseen."],
            "Alpha": ["Alpha covers its own topic in detail."],
            "Beta": ["Beta covers another topic entirely."],
        }
    )
    index = build_index(corpus, "document")
    retriever = DocumentRetriever(corpus, index, DocRetrievalConfig(k=2))
    claims = [
        make_claim(1, Label.SUPPORTED, "Alpha covers its own topic.", [[("Alpha", 0)]]),
        make_claim(2, Label.SUPPORTED, "Beta covers another topic.", [[("Beta", 0)]]),
        make_claim(3, Label.REFUTED, "Topic is settled for good.", [[("Hidden", 0)]]),
        make_claim(4, Label.REFUTED, "Alpha ignores the topic.", [[("Hidden", 0)]]),
    ]
    pages = {c.claim_id: retriever.retrieve(c.text) for c in claims}
    report = build_report(claims, pages, k=2, level="document")
    assert report.refuted_mistakes > report.supported_mistakes


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_bonus_dominates_when_weight_exceeds_cosine(data):
    """A gold page whose title appears in the claim lands in the top-k
    whenever fewer than k pages carry the bonus and the weight exceeds
    the maximum cosine of 1."""
    n_pages = data.draw(st.integers(min_value=2, max_value=8))
    vocab = "ruby topaz opal quartz jade onyx".split()
    pages = {}
    for i in range(n_pages):
        words = data.draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=4))
        pages[f"Fill{i}"] = [" ".join(words) + "."]
    pages["Goldpage"] = ["completely unrelated content."]
    corpus = make_corpus(pages)
    index = build_index(corpus, "document")
    retriever = DocumentRetriever(corpus, index, DocRetrievalConfig(k=3, title_match_weight=2.0))
    claim_words = data.draw(st.lists(st.sampled_from(vocab), min_size=0, max_size=5))
    claim = "Goldpage " + " ".join(claim_words)
    assert "Goldpage" in retriever.retrieve(claim)[:3]


def reference_retrieve(corpus, index, config, claim_text):
    """Retrieval by brute force: every title scanned, every page sorted."""
    claim_tokens = tokenize(claim_text)
    scores = tfidf_scores(index, parse_query(index, claim_text))
    for page_id in corpus.documents:
        title_tokens = tokenize(display_title(page_id))
        if title_tokens and contains_subsequence(claim_tokens, title_tokens):
            scores[page_id] = scores.get(page_id, 0.0) + config.title_match_weight
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return [page_id for page_id, _ in ranked[: config.k]]


TITLE_WORDS = ["Red", "Red", "Stone", "River", "Lamp"]
TEXT_WORDS = ["red", "stone", "lamp", "quartz", "maple", "the"]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_retrieve_matches_brute_force(data):
    """Titles share first tokens ("Red", "Red Stone", "Red Stone River")
    and overlap in the claim; some pages' text lacks their title tokens
    ("quartz maple"), some have no text at all, one title has no token;
    identical texts tie at the k-th score; k may exceed the page count."""
    titles = data.draw(
        st.lists(st.lists(st.sampled_from(TITLE_WORDS), min_size=1, max_size=3), min_size=1, max_size=8, unique_by=tuple)
    )
    pages = {}
    for i, words in enumerate(titles):
        suffix = data.draw(st.sampled_from(["", f"_(v{i})"]))
        text = data.draw(st.lists(st.sampled_from(TEXT_WORDS), min_size=0, max_size=3))
        pages["_".join(words) + suffix] = [" ".join(text) + "." if text else ""]
    if data.draw(st.booleans()):
        pages["(untitled)"] = ["red lamp."]
    corpus = make_corpus(pages)
    index = build_index(corpus, "document")
    config = DocRetrievalConfig(
        k=data.draw(st.integers(min_value=1, max_value=len(pages) + 2)),
        title_match_weight=data.draw(st.sampled_from([0.0, 0.5, 2.0])),
    )
    claim = " ".join(data.draw(st.lists(st.sampled_from(TITLE_WORDS + TEXT_WORDS + ["zz"]), max_size=8)))
    retriever = DocumentRetriever(corpus, index, config)
    assert retriever.retrieve(claim) == reference_retrieve(corpus, index, config, claim)


def test_retrieve_matches_brute_force_on_fixture_world(fixture_world, monkeypatch):
    """Every train and dev claim of the default world retrieves what the
    brute-force reference does, no page is scored twice for one claim but
    by a slot fill (which scores a token's whole postings), and the
    scorer's pruning skips pages on most of them. A token's dots are
    computed only when its slot does not hold them: the stream reads some
    slots filled for earlier claims, and a claim retrieved a third time in
    a row computes no dot in top_k."""
    reached: set = set()  # the units top_k has passed _cosines for one claim
    takes: list = []  # one entry per _cosines call inside top_k
    computed: list = []  # the units of each kernel call inside top_k
    in_top_k: list = []

    def counting_top_k(self, query, k):
        in_top_k.append(True)
        try:
            return original_top_k(self, query, k)
        finally:
            in_top_k.pop()

    def counting_cosines(self, scores, query_norm, units, dots):
        if in_top_k:
            reached.update(units)
            takes.append(units)
        return original_cosines(self, scores, query_norm, units, dots)

    def counting_dots(width):
        kernel = original_dots(width)

        def dots(terms, units):
            if in_top_k:
                # A list holds the units not yet scored; a fill gets the postings.
                assert isinstance(units, dict) or reached.isdisjoint(units), "a page was scored twice"
                computed.append(units)
            return kernel(terms, units)

        return dots

    original_top_k, original_cosines = IndexScorer.top_k, IndexScorer._cosines
    original_dots = corpus_module.tfidf_dots
    monkeypatch.setattr(IndexScorer, "top_k", counting_top_k)
    monkeypatch.setattr(IndexScorer, "_cosines", counting_cosines)
    monkeypatch.setattr(corpus_module, "tfidf_dots", counting_dots)
    corpus = ingest_corpus(fixture_world / "corpus")
    index = build_index(corpus, "document")
    retriever = DocumentRetriever(corpus, index)
    claims = load_claims(fixture_world / "train.jsonl") + load_claims(fixture_world / "dev.jsonl")
    pruned = reads = 0
    for claim in claims:
        for serving in range(3):
            reached.clear()
            takes.clear()
            computed.clear()
            retrieved = retriever.retrieve(claim.text)
            if serving == 0:
                assert retrieved == reference_retrieve(corpus, index, retriever.config, claim.text)
                pruned += len(reached) < len(tfidf_scores(index, parse_query(index, claim.text)))
                # Each take makes at most one kernel call; a read makes none.
                reads += len(takes) - len(computed)
                first = retrieved
            assert retrieved == first
        assert computed == [], "a slot holding a held list's dots was computed again"
    assert pruned > len(claims) / 2, f"pruning skipped pages on {pruned} of {len(claims)} claims"
    assert reads > len(claims) / 2, f"{reads} reads of slots filled for earlier claims"
