import math
from collections import Counter

import pytest

from claimlab.claims import load_claims
from claimlab.corpus import SentenceId, build_index, display_title, ingest_corpus, parse_query, tokenize
from claimlab.features import (
    PAIR_FEATURE_NAMES,
    SELECTION_FEATURE_NAMES,
    FeatureExtractor,
    _bigrams,
    _capitalized_spans,
    contains_subsequence,
)
from claimlab.retrieval import DocRetrievalConfig, DocumentRetriever

from conftest import make_corpus


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


class TestSelectionFeatures:
    def test_identical_candidate_full_overlap(self, extractor):
        claim = "Alice Fenwick starred in Halcyon."
        features = extractor.candidate_features(extractor.prepare_claim(claim), "", claim)
        assert features[idx("unigram_overlap")] == 1.0
        assert features[idx("claim_tokens_missing")] == 0.0
        assert features[idx("tfidf_cosine")] == pytest.approx(1.0)

    def test_disjoint_tokens_zero_overlap(self, extractor):
        features = extractor.candidate_features(extractor.prepare_claim("alpha beta"), "Gamma", "delta epsilon.")
        for name in ("unigram_overlap", "bigram_overlap", "tfidf_cosine", "idf_weighted_overlap"):
            assert features[idx(name)] == 0.0
        assert features[idx("claim_tokens_missing")] == 1.0

    def test_hand_computed_vector(self, extractor):
        claim = "Alice Fenwick starred in the hit sitcom Halcyon."
        features = extractor.candidate_features(
            extractor.prepare_claim(claim), "Halcyon", "Halcyon is a hit sitcom.", position=0.0
        )
        claim_tokens = {"alice", "fenwick", "starred", "in", "the", "hit", "sitcom", "halcyon"}
        matched = {"halcyon", "hit", "sitcom"}
        assert features[idx("unigram_overlap")] == pytest.approx(len(matched) / len(claim_tokens))
        # bigrams: claim has (hit, sitcom); candidate has (hit, sitcom) too.
        assert features[idx("bigram_overlap")] == pytest.approx(1 / 7)
        expected_idf = sum(extractor.idf(t) for t in matched) / sum(
            extractor.idf(t) for t in claim_tokens
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
        features = extractor.candidate_features(
            extractor.prepare_claim(claim), "Alice Fenwick", "Alice Fenwick acts on stage.", position=0.5
        )
        assert features[idx("entity_spans_in_title")] == 1.0
        assert features[idx("entity_spans_in_body")] == 1.0
        assert features[idx("sentence_position")] == 0.5

    def test_no_spans_gives_zero(self, extractor):
        claim = extractor.prepare_claim("lowercase claim only")
        features = extractor.candidate_features(claim, "Title", "body words.")
        assert features[idx("entity_spans_in_title")] == 0.0
        assert features[idx("entity_spans_in_body")] == 0.0

    def test_all_finite(self, extractor):
        features = extractor.candidate_features(extractor.prepare_claim(""), "", "", position=0.0)
        assert len(features) == len(SELECTION_FEATURE_NAMES)
        assert all(math.isfinite(x) for x in features)


def pidx(name):
    return PAIR_FEATURE_NAMES.index(name)


class TestPairFeatures:
    def test_negation_cue_mismatch(self, extractor):
        features = extractor.pair_features(
            extractor.prepare_claim("Stan Beeman is only in shows on BBC."),
            "Stan Beeman",
            "Stan Beeman acts in a US TV series.",
        )
        assert features[pidx("negation_cue_mismatch")] == 1.0

    def test_identical_texts_no_mismatch(self, extractor):
        text = "Alice Fenwick starred in Halcyon in 1999."
        features = extractor.pair_features(extractor.prepare_claim(text), "", text)
        assert features[pidx("negation_cue_mismatch")] == 0.0
        assert features[pidx("numeral_mismatch")] == 0.0

    def test_numeral_mismatch(self, extractor):
        features = extractor.pair_features(
            extractor.prepare_claim("Alice Fenwick was born in 2001."), "Alice Fenwick", "She was born in 1953."
        )
        assert features[pidx("numeral_mismatch")] == 1.0

    def test_contraction_cue_detected(self, extractor):
        claim = extractor.prepare_claim("She isn't on stage.")
        features = extractor.pair_features(claim, "She", "She is on stage.")
        assert features[pidx("negation_cue_mismatch")] == 1.0

    def test_evidence_subset_of_claim(self, extractor):
        claim = extractor.prepare_claim("alpha beta gamma delta")
        features = extractor.pair_features(claim, "alpha", "beta gamma")
        assert features[pidx("evidence_tokens_missing")] == 0.0

    def test_pair_length(self, extractor):
        features = extractor.pair_features(extractor.prepare_claim("a claim"), "A Title", "the evidence")
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
        idf = extractor.idf(token)
        claim_idf_mass += idf
        if token in right_tf:
            dot += count * right_tf[token] * (idf * idf)
            shared_idf_mass += idf
    if dot == 0.0:
        cosine = 0.0
    else:
        right_norm = reference_norm(extractor.idf, right_tf) if candidate_norm is None else candidate_norm
        cosine = dot / (reference_norm(extractor.idf, left_tf) * right_norm)
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


class TestPreparedClaim:
    """A prepared claim gives the same vectors as computing both sides from scratch."""

    EDGE_CLAIMS = ("", "St. Louis is a town.", "Mary Jane Watson isn't in 1999's Spider Man.")
    EDGE_CANDIDATES = (
        ("St. Louis", "St. Louis is a town in the hills.", 0.0),
        ("St. Louis", "", 1.0),
        ("", "Mary Jane Watson. Spider Man", 0.5),
        ("Spider Man", "Spider Man aired in 1999 and 1999.", 0.25),
    )

    def test_edge_inputs_match_reference(self, extractor):
        for claim_text in self.EDGE_CLAIMS:
            prepared = extractor.prepare_claim(claim_text)
            for title, body, position in self.EDGE_CANDIDATES:
                expected = reference_selection_features(extractor, claim_text, title, body, position)
                assert extractor.candidate_features(prepared, title, body, position) == expected

    def test_pair_features_accept_prepared_claim(self, extractor):
        """Pair features start with the candidate's selection features at
        position 0, even for titles such as "St. Louis" that contain ". "."""
        for claim_text in self.EDGE_CLAIMS:
            prepared = extractor.prepare_claim(claim_text)
            for title, body, _ in self.EDGE_CANDIDATES:
                features = extractor.pair_features(prepared, title, body)
                assert features[:10] == extractor.candidate_features(prepared, title, body, 0.0)
                assert len(features) == len(PAIR_FEATURE_NAMES)

    def test_every_scored_pair_of_fixture_world(self, fixture_world):
        """Every (dev claim, sentence) pair the select stage scores on the
        default world: each claim against every sentence of its oracle
        candidate pages. The cosine of an indexed sentence is the one with
        the index's own norm."""
        corpus = ingest_corpus(fixture_world / "corpus")
        index = build_index(corpus, "sentence")
        extractor = FeatureExtractor(index)
        retriever = DocumentRetriever(corpus, build_index(corpus, "document"), DocRetrievalConfig(k=20))
        pairs = 0
        for claim in load_claims(fixture_world / "dev.jsonl"):
            prepared = extractor.prepare_claim(claim.text)
            for page_id in retriever.retrieve_oracle(claim):
                doc = corpus.documents[page_id]
                title = display_title(page_id)
                for position, (line_index, body) in enumerate(doc.sentences):
                    norm = index.norms.get(SentenceId(page_id, line_index))
                    expected = reference_selection_features(extractor, claim.text, title, body, position, norm)
                    assert extractor.candidate_features(prepared, title, body, position) == expected
                    pairs += 1
        assert pairs > 10_000


class TestOneNorm:
    """Every TF-IDF norm is corpus.tfidf_norm, so the claim side, the query
    side and the index agree bit for bit on one token stream."""

    def test_five_page_corpus(self):
        corpus = make_corpus(
            {"P0": ["zeta zeta zeta."], "P1": ["alpha."], "P2": ["beta."], "P3": ["gamma."], "P4": ["delta."]}
        )
        index = build_index(corpus, "sentence")
        text = "P0 zeta zeta zeta"
        norm = index.norms[SentenceId("P0", 0)]
        assert FeatureExtractor(index).prepare_claim(text).norm == parse_query(index, text).norm == norm
        assert norm == reference_norm(index.idf, Counter(tokenize(text)))

    def test_every_sentence_of_fixture_world(self, fixture_world):
        """A sentence's own text, title first, as a claim or a query has
        exactly the sentence's index norm."""
        corpus = ingest_corpus(fixture_world / "corpus")
        index = build_index(corpus, "sentence")
        extractor = FeatureExtractor(index)
        for sid, norm in index.norms.items():
            text = f"{display_title(sid.page_id)} {corpus.get_sentence(sid)}"
            assert extractor.prepare_claim(text).norm == norm
            assert parse_query(index, text).norm == norm
        assert len(index.norms) > 1000

    def test_full_overlap_is_exactly_one(self, fixture_world):
        corpus = ingest_corpus(fixture_world / "corpus")
        extractor = FeatureExtractor(build_index(corpus, "sentence"))
        for claim in load_claims(fixture_world / "dev.jsonl"):
            features = extractor.candidate_features(extractor.prepare_claim(claim.text), "", claim.text)
            assert features[idx("idf_weighted_overlap")] == 1.0
