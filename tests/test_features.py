import math
from collections import Counter

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
from claimlab.retrieval import DocRetrievalConfig, DocumentRetriever
from claimlab.selection import (
    NegativePool,
    Regime,
    TrainingConfig,
    _TrainingClaim,
    featurize_candidates,
    train_selector,
)

from conftest import make_claim, make_corpus


@pytest.fixture
def extractor():
    corpus = make_corpus(
        {
            "Halcyon": ["Halcyon is a hit sitcom.", "It airs nightly on GBC."],
            "Alice Fenwick": ["Alice Fenwick is an actor.", "She starred in Halcyon."],
        }
    )
    return FeatureExtractor(build_index(corpus, "sentence"))


def idx(name):
    return SELECTION_FEATURE_NAMES.index(name)


def candidate(title, body):
    """A one-sentence document with the given display title, at line -1,
    which no index holds, so its features count its own tokens."""
    doc = Document(title, ((-1, body),))
    assert doc.title == title
    return doc


def candidate_features(extractor, claim, title, body, position=0.0):
    """Selection features of a (title, body) candidate against a prepared
    claim. The body sits at the given relative position (a multiple of
    1/4) of five sentences, the others empty, at lines no index holds."""
    at = round(position * 4)
    doc = Document(title, tuple((line - 5, body if line == at else "") for line in range(5)))
    assert doc.title == title
    page = extractor.page_title(claim, doc.title_tokens)
    [(sid, features)] = extractor.page_features(claim, page, doc, [at])
    assert sid == SentenceId(title, at - 5)
    return features


def pair_features(extractor, claim, title, body):
    """Pair features of a (title, body) candidate against a prepared claim."""
    doc = candidate(title, body)
    [(sid, features)] = extractor.pair_features(claim, doc, [0])
    assert sid is doc.sids[0]
    return features


class TestSelectionFeatures:
    def test_identical_candidate_full_overlap(self, extractor):
        claim = "Alice Fenwick starred in Halcyon."
        features = candidate_features(extractor, extractor.prepare_claim(claim), "", claim)
        assert features[idx("unigram_overlap")] == 1.0
        assert features[idx("claim_tokens_missing")] == 0.0
        assert features[idx("tfidf_cosine")] == pytest.approx(1.0)

    def test_disjoint_tokens_zero_overlap(self, extractor):
        features = candidate_features(extractor, extractor.prepare_claim("alpha beta"), "Gamma", "delta epsilon.")
        for name in ("unigram_overlap", "bigram_overlap", "tfidf_cosine", "idf_weighted_overlap"):
            assert features[idx(name)] == 0.0
        assert features[idx("claim_tokens_missing")] == 1.0

    def test_hand_computed_vector(self, extractor):
        claim = "Alice Fenwick starred in the hit sitcom Halcyon."
        features = candidate_features(
            extractor, extractor.prepare_claim(claim), "Halcyon", "Halcyon is a hit sitcom.", position=0.0
        )
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

    def test_entity_span_features(self, extractor):
        claim = "Alice Fenwick starred in Halcyon."
        features = candidate_features(
            extractor, extractor.prepare_claim(claim), "Alice Fenwick", "Alice Fenwick acts on stage.", position=0.5
        )
        assert features[idx("entity_spans_in_title")] == 1.0
        assert features[idx("entity_spans_in_body")] == 1.0
        assert features[idx("sentence_position")] == 0.5

    def test_span_tokens_differ_from_tokens(self, extractor):
        """"ΟΔΟΣ.Α Bb" has the span token "οδος" but the token "οδοσ" (final
        sigma), so span features follow the spans, not the shared tokens."""
        claim = extractor.prepare_claim("ΟΔΟΣ.Α Bb")
        features = candidate_features(extractor, claim, "ΟΔΟΣ.Α Bb", "ΟΔΟΣ Α Bb")
        assert features[idx("unigram_overlap")] == 1.0
        assert features[idx("entity_spans_in_title")] == 0.0
        assert features[idx("entity_spans_in_body")] == 1.0

    def test_no_spans_gives_zero(self, extractor):
        claim = extractor.prepare_claim("lowercase claim only")
        features = candidate_features(extractor, claim, "Title", "body words.")
        assert features[idx("entity_spans_in_title")] == 0.0
        assert features[idx("entity_spans_in_body")] == 0.0

    def test_all_finite(self, extractor):
        features = candidate_features(extractor, extractor.prepare_claim(""), "", "", position=0.0)
        assert len(features) == len(SELECTION_FEATURE_NAMES)
        assert all(math.isfinite(x) for x in features)


def pidx(name):
    return PAIR_FEATURE_NAMES.index(name)


class TestPairFeatures:
    def test_negation_cue_mismatch(self, extractor):
        features = pair_features(
            extractor,
            extractor.prepare_claim("Stan Beeman is only in shows on BBC."),
            "Stan Beeman",
            "Stan Beeman acts in a US TV series.",
        )
        assert features[pidx("negation_cue_mismatch")] == 1.0

    def test_identical_texts_no_mismatch(self, extractor):
        text = "Alice Fenwick starred in Halcyon in 1999."
        features = pair_features(extractor, extractor.prepare_claim(text), "", text)
        assert features[pidx("negation_cue_mismatch")] == 0.0
        assert features[pidx("numeral_mismatch")] == 0.0

    def test_numeral_mismatch(self, extractor):
        claim = extractor.prepare_claim("Alice Fenwick was born in 2001.")
        features = pair_features(extractor, claim, "Alice Fenwick", "She was born in 1953.")
        assert features[pidx("numeral_mismatch")] == 1.0

    def test_contraction_cue_detected(self, extractor):
        claim = extractor.prepare_claim("She isn't on stage.")
        features = pair_features(extractor, claim, "She", "She is on stage.")
        assert features[pidx("negation_cue_mismatch")] == 1.0

    def test_evidence_subset_of_claim(self, extractor):
        claim = extractor.prepare_claim("alpha beta gamma delta")
        features = pair_features(extractor, claim, "alpha", "beta gamma")
        assert features[pidx("evidence_tokens_missing")] == 0.0

    def test_pair_length(self, extractor):
        features = pair_features(extractor, extractor.prepare_claim("a claim"), "A Title", "the evidence")
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
            dot += count * right_tf[token] * (idf * idf)
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
    (plus the polarity features for pairs): featurize_candidates over the
    candidate pages, selector training's vector of each pool sentence, and
    the pairs verdict_for_claim and NLI training classify for the evidence.
    Returns the number of vectors checked."""
    extractor = FeatureExtractor(index)

    def expected(sid, position):
        doc = corpus.documents[sid.page_id]
        body = corpus.get_sentence(sid)
        if position is None:
            position = [line for line, _ in doc.sentences].index(sid.line_index) / max(1, len(doc.sentences) - 1)
        title = display_title(sid.page_id)
        return reference_selection_features(extractor, claim.text, title, body, position, index.norms.get(sid))

    featurized = featurize_candidates(extractor, claim, candidate_pages, corpus)
    candidates = sentences_of(corpus, candidate_pages)
    assert [sid for sid, _ in featurized] == candidates
    for sid, features in featurized:
        assert features == expected(sid, None)

    training = _TrainingClaim(pool=None, prepared=extractor.prepare_claim(claim.text))
    assert training.features(extractor, corpus, pool_sids) == [expected(sid, None) for sid in pool_sids]

    resolvable = [sid for sid in evidence_sids if corpus.get_sentence(sid) is not None]
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
    return len(featurized) + len(pool_sids) + len(classified) + len(training_pairs)


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
        assert PreparedClaim._fields == (
            "text", "query", "token_set", "bigrams", "spans", "idf_mass", "negation_cues", "numerals"
        )
        for claim_text in self.EDGE_CLAIMS + ("Alice Fenwick starred in Halcyon.", "halcyon HALCYON zzz"):
            query = extractor.prepare_claim(claim_text).query
            assert query == parse_query(index, claim_text)
            for token, _, _, postings in query.terms:
                assert postings is index.postings.get(token, postings)

    def test_edge_inputs_match_reference(self, extractor):
        for claim_text in self.EDGE_CLAIMS:
            prepared = extractor.prepare_claim(claim_text)
            for title, body, position in self.EDGE_CANDIDATES:
                expected = reference_selection_features(extractor, claim_text, title, body, position)
                assert candidate_features(extractor, prepared, title, body, position) == expected

    def test_pair_features_accept_prepared_claim(self, extractor):
        """Pair features start with the candidate's selection features at
        position 0, even for titles such as "St. Louis" that contain ". "."""
        for claim_text in self.EDGE_CLAIMS:
            prepared = extractor.prepare_claim(claim_text)
            for title, body, _ in self.EDGE_CANDIDATES:
                features = pair_features(extractor, prepared, title, body)
                assert features[:10] == candidate_features(extractor, prepared, title, body, 0.0)
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
            pages = retriever.retrieve_oracle(claim)
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
    # An empty sentence, which the index does not hold; the span "ΟΔΟΣ Α Bb",
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

    def test_training_with_empty_gold_sentence(self):
        """A gold sentence with empty text is a training positive that is
        not in the index, so its counts and norm come from its own tokens."""
        corpus = make_corpus({"Ada Hartley": ["", "Ada Hartley acts in Fernbank."], "Fernbank": ["A sitcom."]})
        index = build_index(corpus, "sentence")
        claim = make_claim(1, Label.SUPPORTED, "Ada Hartley starred in Fernbank.", [[("Ada Hartley", 0)]])
        assert SentenceId("Ada Hartley", 0) not in index.norms
        sids = [SentenceId("Ada Hartley", 0), SentenceId("Ada Hartley", 1), SentenceId("Fernbank", 0)]
        assert_shipped_paths(corpus, index, claim, [], sids, sids)
        extractor = FeatureExtractor(index)
        model = train_selector([claim], [], corpus, index, extractor, Regime.BASELINE, TrainingConfig(seed=1))
        assert model.metadata["n_positives"] == 1
        assert model.metadata["n_negatives"] == 2

    def test_indexed_sentences_read_the_index(self, monkeypatch):
        """Featurizing and classifying indexed sentences builds no Counter
        and computes no norm beyond prepare_claim's one each, and tokenizes
        only the claim: titles and bodies are the documents' own tokens,
        split once when the corpus was built (the duplicate "Foo" page is
        featurized once)."""
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

        for name in ("Counter", "tfidf_norm", "tokenize"):
            monkeypatch.setattr(corpus_module, name, counting(name, getattr(corpus_module, name)))
        for name in ("Counter", "tfidf_norm"):
            monkeypatch.setattr(features_module, name, counting(name, getattr(features_module, name)))
        claim = make_claim(1, Label.SUPPORTED, "Foo is alpha.")
        featurized = featurize_candidates(extractor, claim, ["Foo", "Foo_(film)", "Bar", "Foo"], corpus)
        assert len(featurized) == 4
        assert calls == {"Counter": 1, "tfidf_norm": 1, "tokenize": 1}
        calls.clear()
        n = len(PAIR_FEATURE_NAMES)
        model = NliModel(weights=[[0.0] * n for _ in range(3)], biases=[0.0] * 3)
        verdict_for_claim(model, extractor, corpus, claim, [(sid, 1.0) for sid, _ in featurized])
        assert calls == {"Counter": 1, "tfidf_norm": 1, "tokenize": 1}


def test_documents_share_their_sentence_ids_with_the_index(fixture_world):
    """Each Document.sids entry is the very object the sentence index keys
    the sentence's postings and norm by, and page_features returns it."""
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
        page = extractor.page_title(claim, doc.title_tokens)
        featurized = extractor.page_features(claim, page, doc, range(len(doc.sentences)))
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
        corpus = ingest_corpus(fixture_world / "corpus")
        extractor = FeatureExtractor(build_index(corpus, "sentence"))
        for claim in load_claims(fixture_world / "dev.jsonl"):
            features = candidate_features(extractor, extractor.prepare_claim(claim.text), "", claim.text)
            assert features[idx("idf_weighted_overlap")] == 1.0
