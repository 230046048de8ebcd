import math
import re
from collections import Counter
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from claimlab import corpus as corpus_module
from claimlab import features as features_module
from claimlab.claims import Label, load_claims
from claimlab.corpus import (
    Document,
    IndexScorer,
    SentenceId,
    build_index,
    display_title,
    ingest_corpus,
    parse_query,
    tokenize,
)
from claimlab.features import (
    PAIR_FEATURE_NAMES,
    SELECTION_FEATURE_NAMES,
    FeatureExtractor,
    PreparedClaim,
    _bigrams,
    _capitalized_spans,
    _negation_cues,
    contains_subsequence,
)
from claimlab.nli import NliModel, _training_pairs, verdict_for_claim
from claimlab.retrieval import DocRetrievalConfig, DocumentRetriever, with_gold_pages
from claimlab.selection import (
    NegativePool,
    Regime,
    RelevanceModel,
    TrainingConfig,
    rank_candidates,
    select_sentences,
    train_selector,
)

from conftest import make_claim, make_corpus, record_computed


PAGES = {
    "Halcyon": ["Halcyon is a hit sitcom.", "It airs nightly on GBC."],
    "Alice Fenwick": ["Alice Fenwick is an actor.", "She starred in Halcyon."],
}


@pytest.fixture
def extractor():
    return FeatureExtractor(build_index(make_corpus(PAGES), "sentence"))


def idx(name):
    return SELECTION_FEATURE_NAMES.index(name)


def candidate(title, bodies):
    """A page with the given display title and sentences (lines 0, 1, ...),
    added to PAGES, and an extractor over the sentence index of them all,
    so each non-empty sentence of the page is an index unit."""
    doc = Document(title.replace(" ", "_") + "_(candidate)", tuple(enumerate(bodies)))
    assert doc.title == title
    corpus = make_corpus(PAGES)
    corpus.documents[doc.page_id] = doc
    return FeatureExtractor(build_index(corpus, "sentence")), doc


def candidate_page(title, body, position=0.0):
    """candidate() with the body at the given relative position (a multiple
    of 1/4) of five sentences, the others empty: its extractor, document
    and the body's position."""
    at = round(position * 4)
    extractor, doc = candidate(title, [body if line == at else "" for line in range(5)])
    return extractor, doc, at


def candidate_features(claim_text, title, body, position=0.0):
    """Selection features of a (title, body) candidate (candidate_page)
    against the claim, prepared by the candidate's extractor."""
    extractor, doc, at = candidate_page(title, body, position)
    [(sid, features)] = extractor.selection_vectors(extractor.prepare_claim(claim_text), [(doc, [at])])
    assert sid is doc.sids[at]
    return features


def pair_features(claim_text, title, body):
    """Pair features of a one-sentence (title, body) candidate (candidate())
    against the claim, prepared by the candidate's extractor."""
    extractor, doc = candidate(title, [body])
    [(sid, features)] = extractor.pair_features(extractor.prepare_claim(claim_text), doc, [0])
    assert sid is doc.sids[0]
    return features


def rejected(sid):
    """pytest.raises for a ValueError that names the sentence."""
    return pytest.raises(ValueError, match=re.escape(f"sentence {sid} is no unit of the extractor's index"))


class TestSelectionFeatures:
    def test_identical_candidate_full_overlap(self):
        claim = "Alice Fenwick starred in Halcyon."
        features = candidate_features(claim, "", claim)
        assert features[idx("unigram_overlap")] == 1.0
        assert features[idx("claim_tokens_missing")] == 0.0
        assert features[idx("tfidf_cosine")] == pytest.approx(1.0)

    def test_disjoint_tokens_zero_overlap(self):
        features = candidate_features("alpha beta", "Gamma", "delta epsilon.")
        for name in ("unigram_overlap", "bigram_overlap", "tfidf_cosine", "idf_weighted_overlap"):
            assert features[idx(name)] == 0.0
        assert features[idx("claim_tokens_missing")] == 1.0

    def test_hand_computed_vector(self):
        claim = "Alice Fenwick starred in the hit sitcom Halcyon."
        features = candidate_features(claim, "Halcyon", "Halcyon is a hit sitcom.", position=0.0)
        extractor, _, _ = candidate_page("Halcyon", "Halcyon is a hit sitcom.", position=0.0)
        claim_tokens = {"alice", "fenwick", "starred", "in", "the", "hit", "sitcom", "halcyon"}
        matched = {"halcyon", "hit", "sitcom"}
        assert features[idx("unigram_overlap")] == pytest.approx(len(matched) / len(claim_tokens))
        # bigrams: claim has (hit, sitcom); candidate has (hit, sitcom) too.
        assert features[idx("bigram_overlap")] == pytest.approx(1 / 7)
        expected_idf = sum(extractor.index.idf(t) for t in matched) / sum(
            extractor.index.idf(t) for t in claim_tokens
        )
        assert features[idx("idf_weighted_overlap")] == pytest.approx(expected_idf)
        assert features[idx("entity_spans_in_title")] == 0.0  # span "Alice Fenwick" not in title
        assert features[idx("entity_spans_in_body")] == 0.0
        assert features[idx("log_body_length")] == pytest.approx(math.log(1 + 5))
        assert features[idx("title_in_claim")] == 1.0
        assert features[idx("sentence_position")] == 0.0
        assert features[idx("claim_tokens_missing")] == pytest.approx(5 / 8)

    def test_entity_span_features(self):
        claim = "Alice Fenwick starred in Halcyon."
        features = candidate_features(claim, "Alice Fenwick", "Alice Fenwick acts on stage.", position=0.5)
        assert features[idx("entity_spans_in_title")] == 1.0
        assert features[idx("entity_spans_in_body")] == 1.0
        assert features[idx("sentence_position")] == 0.5

    def test_span_tokens_differ_from_tokens(self):
        """"ΟΔΟΣ.Α Bb" has the span token "οδος" but the token "οδοσ" (final
        sigma), so span features follow the spans, not the shared tokens."""
        features = candidate_features("ΟΔΟΣ.Α Bb", "ΟΔΟΣ.Α Bb", "ΟΔΟΣ Α Bb")
        assert features[idx("unigram_overlap")] == 1.0
        assert features[idx("entity_spans_in_title")] == 0.0
        assert features[idx("entity_spans_in_body")] == 1.0

    def test_no_spans_gives_zero(self):
        features = candidate_features("lowercase claim only", "Title", "body words.")
        assert features[idx("entity_spans_in_title")] == 0.0
        assert features[idx("entity_spans_in_body")] == 0.0

    def test_all_finite(self):
        """A claim and a candidate without a token (the candidate a unit of
        norm 0); an empty sentence is no unit, so featurizing it raises."""
        features = candidate_features("", "", "...", position=0.0)
        assert len(features) == len(SELECTION_FEATURE_NAMES)
        assert all(math.isfinite(x) for x in features)
        with rejected(candidate_page("", "")[1].sids[0]):
            candidate_features("", "", "", position=0.0)


def pidx(name):
    return PAIR_FEATURE_NAMES.index(name)


class TestPairFeatures:
    def test_negation_cue_mismatch(self):
        features = pair_features(
            "Stan Beeman is only in shows on BBC.", "Stan Beeman", "Stan Beeman acts in a US TV series."
        )
        assert features[pidx("negation_cue_mismatch")] == 1.0

    def test_identical_texts_no_mismatch(self):
        text = "Alice Fenwick starred in Halcyon in 1999."
        features = pair_features(text, "", text)
        assert features[pidx("negation_cue_mismatch")] == 0.0
        assert features[pidx("numeral_mismatch")] == 0.0

    def test_numeral_mismatch(self):
        features = pair_features("Alice Fenwick was born in 2001.", "Alice Fenwick", "She was born in 1953.")
        assert features[pidx("numeral_mismatch")] == 1.0

    def test_contraction_cue_detected(self):
        features = pair_features("She isn't on stage.", "She", "She is on stage.")
        assert features[pidx("negation_cue_mismatch")] == 1.0

    def test_evidence_subset_of_claim(self):
        features = pair_features("alpha beta gamma delta", "alpha", "beta gamma")
        assert features[pidx("evidence_tokens_missing")] == 0.0

    def test_pair_length(self):
        features = pair_features("a claim", "A Title", "the evidence")
        assert len(features) == len(PAIR_FEATURE_NAMES)


def reference_norm(idf, tf):
    """A TF-IDF vector length by the package's float rule (weight * weight,
    added with += in first-occurrence order)."""
    norm_sq = 0.0
    for token, count in tf.items():
        weight = count * idf(token)
        norm_sq += weight * weight
    return math.sqrt(norm_sq)


def reference_selection_features(extractor, claim_text, title, body, position=0.0, candidate_norm=None):
    """Selection features computed from scratch for one candidate: every
    claim-side quantity is rebuilt, every float sum accumulates with += in
    first-occurrence order and every square is x * x, as in the package,
    so the result is the same on every Python version. With candidate_norm, the cosine
    divides by it instead of the candidate's recomputed norm."""
    claim_tokens = tokenize(claim_text)
    claim_set = set(claim_tokens)
    title_tokens = tokenize(title)
    body_tokens = tokenize(body)
    candidate_tokens = title_tokens + body_tokens
    candidate_set = set(candidate_tokens)

    unigram = len(claim_set & candidate_set) / max(1, len(claim_set))
    claim_bigrams = _bigrams(claim_tokens)
    bigram = len(claim_bigrams & _bigrams(candidate_tokens)) / max(1, len(claim_bigrams))

    left_tf, right_tf = Counter(claim_tokens), Counter(candidate_tokens)
    dot = claim_idf_mass = shared_idf_mass = 0.0
    for token, count in left_tf.items():
        idf = extractor.index.idf(token)
        claim_idf_mass += idf
        if token in right_tf:
            dot += count * idf * right_tf[token] * idf
            shared_idf_mass += idf
    if dot == 0.0:
        cosine = 0.0
    else:
        right_norm = reference_norm(extractor.index.idf, right_tf) if candidate_norm is None else candidate_norm
        cosine = dot / (reference_norm(extractor.index.idf, left_tf) * right_norm)
    idf_overlap = shared_idf_mass / claim_idf_mass if claim_idf_mass > 0 else 0.0

    spans = _capitalized_spans(claim_text)
    title_set, body_set = set(title_tokens), set(body_tokens)
    spans_in_title = sum(1 for s in spans if set(s) <= title_set) / len(spans) if spans else 0.0
    spans_in_body = sum(1 for s in spans if set(s) <= body_set) / len(spans) if spans else 0.0
    return [
        unigram,
        bigram,
        cosine,
        idf_overlap,
        spans_in_title,
        spans_in_body,
        math.log(1 + len(body_tokens)),
        1.0 if contains_subsequence(claim_tokens, title_tokens) else 0.0,
        float(position),
        len(claim_set - candidate_set) / max(1, len(claim_set)),
    ]


def reference_polarity_features(claim_text, title, body):
    """The three polarity features of a pair, computed from scratch."""
    claim_tokens = set(tokenize(claim_text))
    candidate_tokens = set(tokenize(title)) | set(tokenize(body))
    negation = _negation_cues(claim_tokens, claim_text) != _negation_cues(candidate_tokens, title, body)
    numerals = {t for t in claim_tokens if t.isdigit()} != {t for t in candidate_tokens if t.isdigit()}
    extra = len(candidate_tokens - claim_tokens) / max(1, len(candidate_tokens))
    return [1.0 if negation else 0.0, 1.0 if numerals else 0.0, extra]


def sentences_of(corpus, pages):
    """Every non-empty sentence of the given pages, each page once."""
    sids = []
    for page_id in dict.fromkeys(pages):
        doc = corpus.documents.get(page_id)
        if doc is not None:
            sids += [SentenceId(page_id, line) for line, text in doc.sentences if text]
    return sids


def assert_shipped_paths(corpus, index, claim, candidate_pages, pool_sids, evidence_sids):
    """Every feature path the pipeline runs equals reference_selection_features
    (plus the polarity features for pairs): the vector rank_candidates
    finishes for each candidate of the candidate pages (k above their
    number, so every one is finished), selector training's vector of each
    candidate among the pool sentences, and the pairs verdict_for_claim and
    NLI training classify for the evidence. A sentence the corpus lacks or
    that is no candidate (empty text) is dropped by each path, never
    featurized. Returns the number of vectors checked."""
    extractor = FeatureExtractor(index)

    def expected(sid, position):
        doc = corpus.documents[sid.page_id]
        body = corpus.get_sentence(sid)
        if position is None:
            position = [line for line, _ in doc.sentences].index(sid.line_index) / max(1, len(doc.sentences) - 1)
        title = display_title(sid.page_id)
        return reference_selection_features(extractor, claim.text, title, body, position, index.norms[sid])

    candidates = sentences_of(corpus, candidate_pages)
    model = RelevanceModel([0.0] * len(SELECTION_FEATURE_NAMES), 0.0)
    [ranked] = rank_candidates([model], extractor, claim, candidate_pages, corpus, len(candidates) + 1)
    memo = extractor.prepare_claim(claim.text).vectors
    assert sorted(memo) == sorted(sid for sid, _ in ranked) == sorted(candidates)
    featurized = [(sid, memo[sid]) for sid in candidates]
    for sid, features in featurized:
        assert features == expected(sid, None)

    pool_candidates = [sid for sid in dict.fromkeys(pool_sids) if corpus.get_sentence(sid)]
    training = extractor.selection_vectors(extractor.prepare_claim(claim.text), corpus.pages_of(pool_sids))
    assert sorted(sid for sid, _ in training) == sorted(pool_candidates)
    training = dict(training)
    assert [training[sid] for sid in pool_candidates] == [expected(sid, None) for sid in pool_candidates]

    resolvable = [sid for sid in evidence_sids if corpus.get_sentence(sid)]
    pair_expected = [
        expected(sid, 0.0)
        + reference_polarity_features(claim.text, display_title(sid.page_id), corpus.get_sentence(sid))
        for sid in resolvable
    ]
    classified = []

    class Recording(NliModel):
        def probabilities(self, features):
            classified.append(features)
            return super().probabilities(features)

    n = len(PAIR_FEATURE_NAMES)
    model = Recording(weights=[[0.0] * n for _ in range(3)], biases=[0.0] * 3)
    _, predicted = verdict_for_claim(model, extractor, corpus, claim, [(sid, 1.0) for sid in evidence_sids])
    assert predicted == resolvable
    # A sentence listed twice is voted twice but classified once, a page at
    # a time: pages, and sentences within a page, in first-appearance order.
    pages = list(dict.fromkeys(sid.page_id for sid in resolvable))
    by_page = sorted(dict.fromkeys(resolvable), key=lambda sid: pages.index(sid.page_id))
    assert classified == [pair_expected[resolvable.index(sid)] for sid in by_page]
    gold_claim = make_claim(claim.claim_id, Label.SUPPORTED, claim.text, [evidence_sids])
    training_pairs = _training_pairs([gold_claim], {}, corpus, extractor)
    assert [features for features, _ in training_pairs] == [
        pair_expected[resolvable.index(sid)] for sid in sorted(set(resolvable))
    ]
    return len(featurized) + len(pool_candidates) + len(classified) + len(training_pairs)


WORDS = ("alpha", "beta", "Gamma", "Delta", "the", "1999", "ΟΔΟΣ.Α", "ΟΔΟΣ", "Α", "Bb", "isn't", "Foo")
# Foo and its suffixed pages share the display title "Foo"; "..." has no token.
PAGE_IDS = ("Foo", "Foo_(film)", "Foo_(band)", "Gamma_Delta", "ΟΔΟΣ.Α_Bb", "ΟΔΟΣ_Α", "St._Louis", "...")
SENTENCE_TEXTS = st.one_of(
    st.sampled_from(("", "...")), st.lists(st.sampled_from(WORDS), min_size=1, max_size=6).map(" ".join)
)


class TestPreparedClaim:
    """A prepared claim gives the same vectors as computing both sides from scratch."""

    EDGE_CLAIMS = ("", "St. Louis is a town.", "Mary Jane Watson isn't in 1999's Spider Man.", "Town town.")
    EDGE_CANDIDATES = (
        ("St. Louis", "St. Louis is a town in the hills.", 0.0),
        ("St. Louis", "", 1.0),
        ("", "Mary Jane Watson. Spider Man", 0.5),
        ("Spider Man", "Spider Man aired in 1999 and 1999.", 0.25),
        ("", "town town", 0.0),
    )

    def test_claim_side_is_the_query(self, extractor):
        """A prepared claim holds parse_query's Query, whose postings are
        the index's own dicts, and no second copy of its tokens, counts,
        postings or norm."""
        index = extractor.index
        assert tuple(field.name for field in fields(PreparedClaim)) == (
            "text", "query", "token_set", "bigrams", "spans", "idf_mass", "negation_cues", "numerals", "vectors"
        )
        for claim_text in self.EDGE_CLAIMS + ("Alice Fenwick starred in Halcyon.", "halcyon HALCYON zzz"):
            query = extractor.prepare_claim(claim_text).query
            assert query == parse_query(index, claim_text)
            for token, _, _, postings in query.terms:
                assert postings is index.postings.get(token, postings)

    def test_memo_holds_indexed_sentences_only(self, fixture_world, monkeypatch):
        """A served claim's memo holds the very vectors its ranking
        computed, with the bits of a fresh extractor's, every ranked
        sentence among them, all of indexed sentences and fewer than the
        candidates, and pair_features reads them without a held pass or a
        vector computed again; a sentence the index does not hold is
        rejected on every call, naming it, and never stored."""
        corpus = ingest_corpus(fixture_world / "corpus")
        index = build_index(corpus, "sentence")
        extractor = FeatureExtractor(index)
        claim = load_claims(fixture_world / "dev.jsonl")[0]
        pages = DocumentRetriever(corpus, build_index(corpus, "document")).retrieve(claim.text)
        computed = record_computed(monkeypatch)
        model = RelevanceModel([0.5 - i / 10 for i in range(len(SELECTION_FEATURE_NAMES))], 0.1)
        ranked = select_sentences(model, extractor, claim, pages, corpus, 5)
        monkeypatch.undo()
        finished = [(sid, vector) for _, sid, vector in computed]
        prepared = extractor.prepare_claim(claim.text)
        fresh = FeatureExtractor(index)
        pages_of = corpus.pages_of(sentences_of(corpus, pages))
        candidates = dict(fresh.selection_vectors(fresh.prepare_claim(claim.text), pages_of))
        assert len(ranked) == 5 and all(sid in index.norms for sid, _ in finished)
        assert list(prepared.vectors) == [sid for sid, _ in finished]
        assert all(prepared.vectors[sid] is vector for sid, vector in finished)
        assert all(vector == candidates[sid] for sid, vector in finished)
        assert {sid for sid, _ in ranked} <= set(prepared.vectors)
        assert len(finished) < len(candidates)

        calls = []
        original = FeatureExtractor.held

        def counting(self, claim, pages):
            pages = list(pages)
            calls.append([document.sids[position] for document, positions in pages for position in positions])
            return original(self, claim, pages)

        computed = record_computed(monkeypatch)
        monkeypatch.setattr(FeatureExtractor, "held", counting)
        for document, positions in corpus.pages_of([sid for sid, _ in finished]):
            extractor.pair_features(prepared, document, positions)
        assert calls == computed == []
        outside = Document("Elsewhere", ((0, "Alice Fenwick acts on stage."), (1, "")))
        for _ in range(2):
            with rejected(outside.sids[0]):
                extractor.pair_features(prepared, outside, [0, 1])
        assert calls == [list(outside.sids)] * 2
        assert computed == []
        assert list(prepared.vectors) == [sid for sid, _ in finished]

    def test_edge_inputs_match_reference(self):
        """Each edge candidate with text matches the reference; the empty
        one is no index unit and is rejected, naming it."""
        for claim_text in self.EDGE_CLAIMS:
            for title, body, position in self.EDGE_CANDIDATES:
                extractor, doc, at = candidate_page(title, body, position)
                if not body:
                    with rejected(doc.sids[at]):
                        candidate_features(claim_text, title, body, position)
                    continue
                expected = reference_selection_features(extractor, claim_text, title, body, position)
                assert candidate_features(claim_text, title, body, position) == expected

    def test_pair_features_accept_prepared_claim(self):
        """Pair features start with the candidate's selection features at
        position 0, even for titles such as "St. Louis" that contain ". ";
        the empty candidate is rejected by both, naming it."""
        for claim_text in self.EDGE_CLAIMS:
            for title, body, _ in self.EDGE_CANDIDATES:
                if not body:
                    sid = candidate(title, [body])[1].sids[0]
                    with rejected(sid):
                        pair_features(claim_text, title, body)
                    with rejected(sid):
                        candidate_features(claim_text, title, body, 0.0)
                    continue
                features = pair_features(claim_text, title, body)
                assert features[:10] == candidate_features(claim_text, title, body, 0.0)
                assert len(features) == len(PAIR_FEATURE_NAMES)

    def test_every_scored_pair_of_fixture_world(self, fixture_world):
        """The shipped paths on the default world: every (dev claim,
        sentence) pair the select stage featurizes, the pair features of
        each dev claim's gold and top candidate sentences, and, per training
        claim, every sentence of its negative pool and its NLI training
        pairs. The cosine of an indexed sentence is the one with the
        index's own norm."""
        corpus = ingest_corpus(fixture_world / "corpus")
        index = build_index(corpus, "sentence")
        scorer = IndexScorer(index)
        retriever = DocumentRetriever(corpus, build_index(corpus, "document"), DocRetrievalConfig(k=20))
        pairs = 0
        for claim in load_claims(fixture_world / "dev.jsonl"):
            pages = with_gold_pages(retriever.retrieve(claim.text), claim)
            evidence = sorted(claim.gold_sentences()) + sentences_of(corpus, pages)[:5]
            pairs += assert_shipped_paths(corpus, index, claim, pages, [], evidence)
        assert pairs > 10_000
        for claim in load_claims(fixture_world / "train.jsonl"):
            gold = [sid for sid in claim.gold_sentences() if corpus.get_sentence(sid) is not None]
            if not gold:
                continue
            pool = NegativePool(scorer, corpus, parse_query(index, claim.text), gold, 5)
            sids = pool.positives + pool._same_page + pool._other_page
            sids += [pool._ranked([page])[0] for page in pool._population]
            pairs += assert_shipped_paths(corpus, index, claim, [], sids, [])
        assert pairs > 20_000

    @settings(max_examples=150, deadline=None)
    @given(
        pages=st.dictionaries(
            st.sampled_from(PAGE_IDS), st.lists(SENTENCE_TEXTS, min_size=1, max_size=4), min_size=1
        ),
        claim_text=st.one_of(
            st.sampled_from(("", "...", "ΟΔΟΣ.Α Bb", "Foo ΟΔΟΣ Α Bb isn't Gamma Delta")),
            st.lists(st.sampled_from(WORDS), min_size=1, max_size=8).map(" ".join),
        ),
        candidate_pages=st.lists(st.sampled_from(PAGE_IDS + ("Unknown",)), max_size=8),
    )
    # An empty sentence, which no path featurizes; the span "ΟΔΟΣ Α Bb",
    # whose token "οδος" is no query token (the claim's is "οδοσ"), in a
    # body; and a span whose query tokens the title alone holds.
    @example(
        pages={"ΟΔΟΣ.Α_Bb": ["", "ΟΔΟΣ Α Bb", "Bb"], "Gamma_Delta": ["alpha Gamma", ""]},
        claim_text="ΟΔΟΣ.Α Bb",
        candidate_pages=["ΟΔΟΣ.Α_Bb", "Gamma_Delta"],
    )
    @example(
        pages={"Gamma_Delta": ["", "alpha beta", "Gamma Delta"]},
        claim_text="Gamma Delta isn't alpha",
        candidate_pages=["Gamma_Delta"],
    )
    def test_shipped_paths_on_random_corpora(self, pages, claim_text, candidate_pages):
        """Small corpora with empty and token-less sentences, titles that
        collide once their suffix is stripped, duplicate and unknown
        candidate pages, claims with repeated tokens or none, and Unicode
        text whose span tokens differ from its tokens (final sigma)."""
        corpus = make_corpus(pages)
        index = build_index(corpus, "sentence")
        every = [SentenceId(page, line) for page, texts in pages.items() for line in range(len(texts))]
        claim = make_claim(1, Label.SUPPORTED, claim_text, [every])
        assert_shipped_paths(corpus, index, claim, candidate_pages, every, every + [SentenceId("Unknown", 0)])

    def test_training_with_empty_gold_sentence(self, monkeypatch):
        """A gold sentence with empty text is no index unit, so selector and
        NLI training skip it where they skip one the corpus lacks, and never
        featurize it: a claim whose only gold sentence is empty has no
        trainable positive."""
        corpus = make_corpus({"Ada Hartley": ["", "Ada Hartley acts in Fernbank."], "Fernbank": ["A sitcom."]})
        index = build_index(corpus, "sentence")
        text = "Ada Hartley starred in Fernbank."
        empty = SentenceId("Ada Hartley", 0)
        claim = make_claim(1, Label.SUPPORTED, text, [[("Ada Hartley", 0)]])
        assert empty not in index.norms
        sids = [empty, SentenceId("Ada Hartley", 1), SentenceId("Fernbank", 0)]
        assert_shipped_paths(corpus, index, claim, [], sids, sids)
        assert _training_pairs([claim], {}, corpus, FeatureExtractor(index)) == []
        computed = record_computed(monkeypatch)
        extractor = FeatureExtractor(index)
        with pytest.raises(ValueError, match="no trainable positives"):
            train_selector([claim], [], corpus, index, extractor, Regime.BASELINE, TrainingConfig(seed=1))
        both = make_claim(1, Label.SUPPORTED, text, [[("Ada Hartley", 0)], [("Ada Hartley", 1)]])
        model = train_selector([both], [], corpus, index, extractor, Regime.BASELINE, TrainingConfig(seed=1))
        assert model.metadata["n_positives"] == 1
        assert model.metadata["n_negatives"] == 1
        assert sorted(sid for _, sid, _ in computed) == sids[1:]

    def test_indexed_sentences_read_the_index(self, monkeypatch):
        """Featurizing and classifying indexed sentences counts no token
        stream and computes no norm beyond prepare_claim's one each, and
        tokenizes only the claim: titles and bodies are the documents' own tokens,
        split once when the corpus was built (the duplicate "Foo" page is
        featurized once). A verdict that follows selection reads the claim
        and the vectors from the extractor's slot and computes none; one on
        a fresh extractor prepares the claim again, and nothing more."""
        corpus = make_corpus(
            {"Foo": ["Foo is alpha.", "It is beta.", ""], "Foo_(film)": ["A film."], "Bar": ["Bar alpha."]}
        )
        extractor = FeatureExtractor(build_index(corpus, "sentence"))
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in ("_token_counts", "tfidf_norm", "tokenize"):
            monkeypatch.setattr(corpus_module, name, counting(name, getattr(corpus_module, name)))
        # The feature layer reads every count and norm from the index.
        assert not hasattr(features_module, "Counter") and not hasattr(features_module, "tfidf_norm")
        claim = make_claim(1, Label.SUPPORTED, "Foo is alpha.")
        selector = RelevanceModel([0.0] * len(SELECTION_FEATURE_NAMES), 0.0)
        featurized = select_sentences(selector, extractor, claim, ["Foo", "Foo_(film)", "Bar", "Foo"], corpus, 5)
        assert len(featurized) == 4
        assert calls == {"_token_counts": 1, "tfidf_norm": 1, "tokenize": 1}
        calls.clear()
        n = len(PAIR_FEATURE_NAMES)
        model = NliModel(weights=[[0.0] * n for _ in range(3)], biases=[0.0] * 3)
        evidence = [(sid, 1.0) for sid, _ in featurized]
        verdict = verdict_for_claim(model, extractor, corpus, claim, evidence)
        assert calls == {}
        assert verdict_for_claim(model, FeatureExtractor(extractor.index), corpus, claim, evidence) == verdict
        assert calls == {"_token_counts": 1, "tfidf_norm": 1, "tokenize": 1}


def test_documents_share_their_sentence_ids_with_the_index(fixture_world):
    """Each Document.sids entry is the very object the sentence index keys
    the sentence's postings and norm by, and selection_vectors returns it."""
    corpus = ingest_corpus(fixture_world / "corpus")
    index = build_index(corpus, "sentence")
    keys = {sid: sid for sid in index.norms}
    for doc in corpus.documents.values():
        assert doc.sids == tuple(SentenceId(doc.page_id, idx) for idx, _ in doc.sentences)
        for sid, (_, text) in zip(doc.sids, doc.sentences):
            if text:
                assert keys[sid] is sid
            else:
                assert sid not in keys
    posted = 0
    for postings in index.postings.values():
        for sid in postings:
            doc, position = corpus.locate(sid)
            assert doc.sids[position] is sid
            posted += 1
    assert posted > 8000

    extractor = FeatureExtractor(index)
    claim = extractor.prepare_claim(load_claims(fixture_world / "dev.jsonl")[0].text)
    for doc in corpus.documents.values():
        featurized = extractor.selection_vectors(claim, [(doc, range(len(doc.sentences)))])
        assert [sid for sid, _ in featurized] == list(doc.sids)
        assert all(sid is own for (sid, _), own in zip(featurized, doc.sids))


class TestOneNorm:
    """Every TF-IDF norm is corpus.tfidf_norm, so a query and the index
    agree bit for bit on one token stream."""

    def test_five_page_corpus(self):
        corpus = make_corpus(
            {"P0": ["zeta zeta zeta."], "P1": ["alpha."], "P2": ["beta."], "P3": ["gamma."], "P4": ["delta."]}
        )
        index = build_index(corpus, "sentence")
        text = "P0 zeta zeta zeta"
        norm = index.norms[SentenceId("P0", 0)]
        assert parse_query(index, text).norm == norm
        assert norm == reference_norm(index.idf, Counter(tokenize(text)))

    def test_every_sentence_of_fixture_world(self, fixture_world):
        """A sentence's own text, title first, as a query has exactly the
        sentence's index norm."""
        corpus = ingest_corpus(fixture_world / "corpus")
        index = build_index(corpus, "sentence")
        for sid, norm in index.norms.items():
            text = f"{display_title(sid.page_id)} {corpus.get_sentence(sid)}"
            assert parse_query(index, text).norm == norm
        assert len(index.norms) > 1000

    def test_full_overlap_is_exactly_one(self, fixture_world):
        """Each dev claim's text, as an untitled sentence of a page added to
        the corpus before indexing, holds every claim term."""
        corpus = ingest_corpus(fixture_world / "corpus")
        claims = load_claims(fixture_world / "dev.jsonl")
        page = Document("_(claims)", tuple(enumerate(claim.text for claim in claims)))
        assert page.title == ""
        corpus.documents[page.page_id] = page
        extractor = FeatureExtractor(build_index(corpus, "sentence"))
        for position, claim in enumerate(claims):
            [(_, features)] = extractor.selection_vectors(extractor.prepare_claim(claim.text), [(page, [position])])
            assert features[idx("idf_weighted_overlap")] == 1.0


# Few words, so a unit or claim repeats one up to about 6 times; the
# count * tf * idf² chain differs from count * idf * tf * idf in the last
# bit on many such pairs.
REPEATED_TEXTS = st.lists(st.sampled_from(("alpha", "beta", "gamma", "Foo")), max_size=14).map(" ".join)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    pages=st.dictionaries(st.sampled_from(PAGE_IDS), st.lists(REPEATED_TEXTS, min_size=1, max_size=4), min_size=1),
    claim_text=REPEATED_TEXTS,
)
def test_held_cosines_are_the_scorer_cosines(pages, claim_text):
    """The package's two claim-unit TF-IDF dot sites take one chain: every
    held candidate's cosine (FeatureExtractor.held, over the page store) is
    IndexScorer.scores' cosine of its sentence (util.tfidf_dots) bit for
    bit, and 0.0 where scores has no entry, on every unit of random
    corpora whose units and claims repeat tokens."""
    corpus = make_corpus(pages)
    index = build_index(corpus, "sentence")
    extractor = FeatureExtractor(index)
    claim = extractor.prepare_claim(claim_text)
    held = extractor.held(claim, [(doc, doc.candidate_positions) for doc in corpus.documents.values()])
    sids = [row[0] for row, *_ in held]
    assert sorted(sids) == sorted(index.norms)
    scores = IndexScorer(index).scores(claim.query, sids)
    assert [cosine.hex() for _, cosine, *_ in held] == [scores.get(sid, 0.0).hex() for sid in sids]


def test_page_store_is_the_index_units(fixture_world):
    """On a generated world plus a page with empty lines and one with only
    an empty line, each page's store is its index units: per token, the
    (position, tf) pairs of the positions whose sentence the token's
    postings hold, with the postings' count, positions ascending, so a
    title token is held by every unit; and per position the unit's sid,
    position, own norm (bit for bit), log_body_length and
    sentence_position, or None where the index holds no unit. It is built
    once per document. A page whose positions or counts pass 255 keeps
    them whole, and its vectors are the reference's."""
    corpus = ingest_corpus(fixture_world / "corpus")
    hollow = Document("Hollow", ((0, ""), (1, "Hollow is a quiet town."), (3, ""), (4, "It rains.")))
    corpus.documents["Hollow"] = hollow
    corpus.documents["Quiet"] = Document("Quiet", ((0, ""),))
    long = Document("Long", tuple((line, "It rains.") for line in range(299)) + ((299, "Rain " * 300),))
    corpus.documents["Long"] = long
    index = build_index(corpus, "sentence")
    expected = {page_id: {} for page_id in corpus.documents}
    for token, postings in index.postings.items():
        for sid, tf in postings.items():
            doc, position = corpus.locate(sid)
            expected[sid.page_id].setdefault(token, []).append((position, tf))
    extractor = FeatureExtractor(index)
    units = titled = 0
    for doc in corpus.documents.values():
        _, store, rows, _ = extractor._page(doc)
        pairs = {token: list(zip(flat[::2], flat[1::2])) for token, flat in store.items()}
        assert pairs == {token: sorted(held) for token, held in expected[doc.page_id].items()}
        unit_positions = [position for position, sid in enumerate(doc.sids) if sid in index.norms]
        for token in doc.title_tokens:
            assert [position for position, _ in pairs.get(token, [])] == unit_positions
            titled += bool(unit_positions)
        assert len(rows) == len(doc.sids)
        denom = max(1, len(doc.sids) - 1)
        for position, sid in enumerate(doc.sids):
            if sid not in index.norms:
                assert rows[position] is None
                continue
            own, at, norm, log_body_length, sentence_position = rows[position]
            assert own is sid and at == position
            assert norm.hex() == index.norms[sid].hex()
            assert log_body_length == math.log(1 + len(doc.tokens[position]))
            assert sentence_position == position / denom
            units += 1
        assert extractor._page(doc)[1] is store
    assert units == len(index.norms) and titled > 0
    assert [row is None for row in extractor._page(hollow)[2]] == [True, False, True, False]
    assert max(extractor._page(long)[1]["rain"]) == 300
    claim_text = "Long rain rains."
    vectors = extractor.selection_vectors(extractor.prepare_claim(claim_text), [(long, [299, 0])])
    assert vectors == [
        (long.sids[position], reference_selection_features(extractor, claim_text, "Long", body, position / 299))
        for position, body in ((299, "Rain " * 300), (0, "It rains."))
    ]


def brute_contains(haystack, needle):
    """contains_subsequence's definition: a non-empty needle equal to the
    slice at some offset of the haystack."""
    n = len(needle)
    return n > 0 and any(haystack[i : i + n] == needle for i in range(len(haystack) - n + 1))


@settings(max_examples=500, deadline=None)
@given(
    haystack=st.lists(st.sampled_from("aab"), max_size=8),
    needle=st.lists(st.sampled_from("abc"), max_size=4),
)
@example(haystack=list("aaab"), needle=list("ab"))  # a repeated first token
@example(haystack=list("baab"), needle=list("ab"))  # the needle at the end
@example(haystack=list("ba"), needle=list("aba"))  # longer than the haystack, its first token at the end
@example(haystack=list("a"), needle=list("ab"))
@example(haystack=[], needle=[])
@example(haystack=list("ab"), needle=[])
@example(haystack=[], needle=list("a"))
def test_contains_subsequence_is_its_definition(haystack, needle):
    assert contains_subsequence(haystack, needle) is brute_contains(haystack, needle)


def assert_title_values(extractor, claim_text, documents):
    """Each held page record, one object shared by the page's candidates,
    holds an entity_spans_in_title and title_in_claim equal to the
    set-based span share and the unshortened subsequence test; the number
    of pages whose values are not both 0.0."""
    claim = extractor.prepare_claim(claim_text)
    held = extractor.held(claim, [(doc, doc.candidate_positions) for doc in documents])
    pages = [page for at, (*_, page) in enumerate(held) if at == 0 or held[at - 1][3] is not page]
    assert len({id(page) for page in pages}) == len(pages)
    assert [page[0] for page in pages] == documents
    for document, spans_in_title, title_in_claim in pages:
        assert spans_in_title == features_module._span_share(claim.spans, set(document.title_tokens))
        assert title_in_claim == (1.0 if brute_contains(claim.query.tokens, document.title_tokens) else 0.0)
    return sum(1 for page in pages if page[1] or page[2])


def test_held_title_values_are_their_definition(fixture_world):
    """On every page of the fixture world, for each dev claim, and on pages
    with odd titles: no title tokens, one token, a title holding a claim
    span after a token of no span, and a title whose span token lowers
    differently from tokenize (final sigma)."""
    corpus = ingest_corpus(fixture_world / "corpus")
    extractor = FeatureExtractor(build_index(corpus, "sentence"))
    documents = [doc for doc in corpus.documents.values() if doc.candidate_positions]
    claims = load_claims(fixture_world / "dev.jsonl")
    matched = sum(assert_title_values(extractor, claim.text, documents) for claim in claims)
    assert len(claims) > 100 and matched > len(claims)

    odd = {
        "..._(a)": ["Nothing here."],
        "Halcyon_(b)": ["Halcyon airs."],
        "Old_Alice_Fenwick": ["Old Alice Fenwick retired."],
        "ΟΔΟΣ.Α_Bb": ["ΟΔΟΣ Α Bb is a road."],
    }
    corpus = make_corpus({**PAGES, **odd})
    extractor = FeatureExtractor(build_index(corpus, "sentence"))
    titles = [corpus.documents[page].title_tokens for page in odd]
    assert titles == [[], ["halcyon"], ["old", "alice", "fenwick"], ["οδοσ", "α", "bb"]]
    documents = list(corpus.documents.values())
    texts = ("", "...", "Halcyon", "Alice Fenwick starred in Halcyon.", "ΟΔΟΣ.Α Bb", "ΟΔΟΣ Α Bb is in Halcyon")
    assert sum(assert_title_values(extractor, text, documents) for text in texts) > 0


def fresh_pair_side(document, position):
    """A unit's negation cues and numerals, computed from scratch."""
    tokens = set(document.title_tokens) | set(document.tokens[position])
    cues = _negation_cues(tokens, document.title, document.sentences[position][1])
    return cues, {t for t in tokens if t.isdigit()}


def test_pair_sides_are_kept_per_unit_and_document(fixture_world, monkeypatch):
    """Each unit's stored pair side equals a fresh computation and every
    pair's polarity features the reference's; every empty side set is the
    one shared frozenset; a unit is computed once, and again for another
    document under the same page id."""
    corpus = ingest_corpus(fixture_world / "corpus")
    extractor = FeatureExtractor(build_index(corpus, "sentence"))
    retriever = DocumentRetriever(corpus, build_index(corpus, "document"), DocRetrievalConfig(k=20))
    pairs = 0
    for claim in load_claims(fixture_world / "dev.jsonl"):
        prepared = extractor.prepare_claim(claim.text)
        evidence = sorted(claim.gold_sentences()) + sentences_of(corpus, retriever.retrieve(claim.text))[:5]
        for document, positions in corpus.pages_of(evidence):
            for position, (sid, vector) in zip(positions, extractor.pair_features(prepared, document, positions)):
                body = document.sentences[position][1]
                assert vector[10:] == reference_polarity_features(claim.text, document.title, body)
                pairs += 1
    assert pairs > 500
    sides = [
        (document, position, side)
        for document, _, _, stored in extractor._pages.values()
        for position, side in enumerate(stored)
        if side is not None
    ]
    assert all(corpus.documents[document.page_id] is document for document, _, _ in sides)
    assert all(list(side) == list(fresh_pair_side(document, position)) for document, position, side in sides)
    assert all(isinstance(part, frozenset) for _, _, side in sides for part in side)
    empty = {id(part) for _, _, side in sides for part in side if not part}
    assert empty == {id(features_module._EMPTY)}
    assert any(part for _, _, side in sides for part in side)

    corpus = make_corpus({"Stan": ["Stan isn't 5.", "Stan is here."]})
    first = corpus.documents["Stan"]
    extractor = FeatureExtractor(build_index(corpus, "sentence"))
    # The same tokens at each line, but no "n't" in the text.
    second = Document("Stan", ((0, "Stan isn t 5."), (1, "Stan is here.")))
    claim = extractor.prepare_claim("Stan isn't 5.")
    computed = []

    def counting(tokens, *texts):
        computed.append(texts)
        return _negation_cues(tokens, *texts)

    monkeypatch.setattr(features_module, "_negation_cues", counting)
    for document, expected in ((first, 0.0), (first, 0.0), (second, 1.0), (second, 1.0), (first, 0.0)):
        [(_, vector)] = extractor.pair_features(claim, document, [0])
        assert vector[PAIR_FEATURE_NAMES.index("negation_cue_mismatch")] == expected
    assert computed == [("Stan", "Stan isn't 5."), ("Stan", "Stan isn t 5."), ("Stan", "Stan isn't 5.")]
    assert extractor._pages["Stan"][0] is first
