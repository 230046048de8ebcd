import heapq
import json
import math
import string
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimlab.corpus import (
    _BOUND_SLACK,
    Corpus,
    Document,
    IndexScorer,
    InvertedIndex,
    Query,
    SentenceId,
    build_index,
    display_title,
    ingest_corpus,
    parse_dump_line,
    parse_query,
    rank_key,
    tokenize,
    top_k_scored,
)

from claimlab.util import tfidf_dots

from conftest import make_corpus, reference_index, reference_tokens, tfidf_scores, write_jsonl


class TestParsing:
    def test_single_line_with_anchor_annotations(self):
        doc = parse_dump_line('{"id":"BBC","lines":"0\\tThe BBC is a broadcaster.\\tBBC broadcaster"}')
        assert doc.page_id == "BBC"
        assert doc.sentences == ((0, "The BBC is a broadcaster."),)

    def test_empty_lines_field(self):
        doc = parse_dump_line('{"id":"X","lines":""}')
        assert doc.page_id == "X"
        assert doc.sentences == ()

    def test_malformed_index_skipped(self, caplog):
        raw = json.dumps({"id": "Y", "lines": "0\tfirst.\nnot-an-int\tbad.\n2\tthird."})
        with caplog.at_level("WARNING"):
            doc = parse_dump_line(raw)
        assert [idx for idx, _ in doc.sentences] == [0, 2]
        assert "malformed" in caplog.text

    def test_non_increasing_index_skipped(self):
        raw = json.dumps({"id": "Z", "lines": "0\ta.\n0\tdup.\n1\tb."})
        doc = parse_dump_line(raw)
        assert [idx for idx, _ in doc.sentences] == [0, 1]

    def test_missing_text_field_defaults_empty(self):
        doc = parse_dump_line('{"id":"W","lines":"0"}')
        assert doc.sentences == ((0, ""),)

    def test_union_of_two_files(self, tmp_path):
        write_jsonl(tmp_path / "a.jsonl", [{"id": "A", "lines": "0\talpha."}])
        write_jsonl(tmp_path / "b.jsonl", [{"id": "B", "lines": "0\tbeta."}])
        corpus = ingest_corpus(tmp_path)
        assert set(corpus.documents) == {"A", "B"}

    def test_duplicate_page_id_fatal(self, tmp_path):
        write_jsonl(
            tmp_path / "dump.jsonl",
            [{"id": "A", "lines": "0\tone."}, {"id": "A", "lines": "0\ttwo."}],
        )
        with pytest.raises(ValueError, match="A"):
            ingest_corpus(tmp_path / "dump.jsonl")

    @pytest.mark.parametrize(
        "row, message",
        [
            ({"id": 5, "lines": ""}, "page id must be a non-empty string"),
            ([1, 2], "row is not a JSON object"),
            ({"id": "A", "lines": 7}, "page 'A': lines must be a string"),
        ],
    )
    def test_malformed_row_names_file_and_line(self, tmp_path, row, message):
        path = write_jsonl(tmp_path / "dump.jsonl", [{"id": "B", "lines": "0\tbeta."}, row])
        with pytest.raises(ValueError, match=f"dump.jsonl:2: {message}"):
            ingest_corpus(path)

    def test_unreadable_path_fatal(self, tmp_path):
        with pytest.raises(OSError):
            ingest_corpus(tmp_path / "missing.jsonl")

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=50), st.text(alphabet=" abcZ.", max_size=12)),
            max_size=8,
        )
    )
    def test_round_trip_keeps_triples(self, pairs):
        indexes = sorted({idx for idx, _ in pairs})
        sentences = tuple((idx, text) for idx, (_, text) in zip(indexes, pairs))
        raw = json.dumps(
            {"id": "Page", "lines": "\n".join(f"{i}\t{t}\tanchor" for i, t in sentences)}
        )
        doc = parse_dump_line(raw)
        lines = "\n".join(f"{idx}\t{text}" for idx, text in doc.sentences)
        again = parse_dump_line(json.dumps({"id": doc.page_id, "lines": lines}, ensure_ascii=False))
        assert again.page_id == doc.page_id
        assert again.sentences == doc.sentences


class TestLookup:
    def test_existing_sentence(self):
        corpus = make_corpus({"A": ["first.", "second."]})
        assert corpus.get_sentence(SentenceId("A", 1)) == "second."

    def test_unknown_page(self):
        corpus = make_corpus({"A": ["first."]})
        assert corpus.get_sentence(SentenceId("Nope", 0)) is None

    def test_unknown_index(self):
        corpus = make_corpus({"A": ["first."]})
        assert corpus.get_sentence(SentenceId("A", 9)) is None

    def test_lookup_after_several_adds(self):
        corpus = Corpus()
        corpus.documents["A"] = Document("A", ((0, "a zero."), (2, "a two.")))
        assert corpus.get_sentence(SentenceId("B", 0)) is None
        corpus.documents["B"] = Document("B", ((0, "b zero."), (1, "")))
        corpus.documents["C"] = Document("C", ())
        assert corpus.get_sentence(SentenceId("A", 2)) == "a two."
        assert corpus.get_sentence(SentenceId("B", 0)) == "b zero."
        assert corpus.get_sentence(SentenceId("B", 1)) == ""
        assert corpus.get_sentence(SentenceId("A", 1)) is None
        assert corpus.get_sentence(SentenceId("C", 0)) is None
        assert corpus.get_sentence(SentenceId("D", 0)) is None

    def test_lookup_in_constructed_corpus(self):
        corpus = Corpus(documents={"A": Document("A", ((3, "a three."),))})
        assert corpus.get_sentence(SentenceId("A", 3)) == "a three."
        assert corpus.get_sentence(SentenceId("A", 0)) is None

    def test_locate_gives_document_and_position(self):
        """Positions count entries of sentences, not line indices."""
        doc = Document("A", ((0, "a zero."), (2, "a two.")))
        corpus = Corpus(documents={"A": doc})
        assert corpus.locate(SentenceId("A", 2)) == (doc, 1)
        assert corpus.locate(SentenceId("A", 2))[0] is doc
        assert doc.tokens[1] == ["a", "two"]
        assert corpus.locate(SentenceId("A", 1)) is None
        assert corpus.locate(SentenceId("B", 0)) is None


class TestDocument:
    def test_title_and_sentences_split_once(self):
        doc = Document("Blind_Faith_(miniseries)", ((0, "A 1990 miniseries."), (3, ""), (4, "...")))
        assert doc.title == "Blind Faith"
        assert doc.title_tokens == ["blind", "faith"]
        assert doc.tokens == (["a", "1990", "miniseries"], [], [])

    def test_positions_map_line_indices(self):
        """A document owns its line index -> position map, so a corpus finds
        a sentence of any document it holds, however the document got in."""
        doc = Document("A", ((0, "a zero."), (3, ""), (7, "a seven.")))
        assert doc.positions == {0: 0, 3: 1, 7: 2}
        corpus = Corpus()
        corpus.documents["A"] = doc
        assert corpus.locate(SentenceId("A", 7)) == (doc, 2)

    def test_derived_fields_stay_out_of_equality(self):
        doc = Document("A", ((0, "a zero."),))
        assert doc == Document("A", ((0, "a zero."),))
        assert hash(doc) == hash(Document("A", ((0, "a zero."),)))
        assert repr(doc) == "Document(page_id='A', sentences=((0, 'a zero.'),))"

    def test_tokens_are_interned(self):
        """A word that recurs across documents is one string."""
        first = Document("Zeta_Page", ((0, "the ZETA path."),))
        second = Document("Other", ((0, "".join(["ze", "ta"])),))
        assert second.tokens[0][0] is first.tokens[0][1]
        assert first.title_tokens[0] is first.tokens[0][1]


class TestTokenize:
    def test_lowercase_split_non_alnum(self):
        assert tokenize("BBC, bbc!") == ["bbc", "bbc"]

    def test_underscores_split(self):
        assert tokenize("Stan_Beeman") == ["stan", "beeman"]

    def test_display_title_strips_suffix(self):
        assert display_title("Blind_Faith_(miniseries)") == "Blind Faith"

    @pytest.mark.parametrize(
        "text, tokens",
        [
            ("İstanbul", ["i", "stanbul"]),  # lowers to "i" + U+0307, a combining mark
            ("ΟΔΟΣ σοφίας", ["οδος", "σοφίας"]),  # a word-final Σ lowers to ς
            ("x² + 10_000", ["x²", "10", "000"]),
            ("tab\there\x00nul\x1fus\x7fdel", ["tab", "here", "nul", "us", "del"]),
        ],
    )
    def test_non_ascii_neighbours(self, text, tokens):
        assert tokenize(text) == reference_tokens(text) == tokens

    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(
            st.text(),
            st.text(alphabet=st.characters(max_codepoint=127)),
            st.text(alphabet=string.printable + "_\x00\x01\x1c\x1f\x7fİΣς²"),
        )
    )
    def test_equals_its_definition(self, text):
        """ASCII text is split by a translation table, other text by the
        regex: both give reference_tokens(text)."""
        assert tokenize(text) == reference_tokens(text)


class TestIndex:
    def test_document_frequency(self):
        corpus = make_corpus({"A": ["the BBC reports."], "B": ["BBC drama airs."]})
        index = build_index(corpus, "document")
        assert len(index.postings["bbc"]) == 2
        assert index.doc_count == 2

    def test_absent_token_no_posting(self):
        corpus = make_corpus({"A": ["alpha beta."]})
        index = build_index(corpus, "document")
        assert "gamma" not in index.postings
        assert "gamma" not in index.idfs

    def test_term_frequency_within_sentence(self):
        corpus = make_corpus({"Page": ["BBC, bbc!"]})
        index = build_index(corpus, "sentence")
        postings = dict(index.postings["bbc"])
        assert postings[SentenceId("Page", 0)] == 2

    def test_sentence_granularity_prepends_title(self):
        corpus = make_corpus({"Kestrel": ["It airs nightly."]})
        index = build_index(corpus, "sentence")
        assert "kestrel" in index.postings

    def test_empty_sentences_not_candidates(self):
        corpus = make_corpus({"A": ["", "real text."]})
        index = build_index(corpus, "sentence")
        assert index.doc_count == 1

    def test_empty_corpus_fatal(self):
        with pytest.raises(ValueError):
            build_index(Corpus(), "document")

    def test_idf_formula(self):
        corpus = make_corpus({"A": ["x y."], "B": ["x z."]})
        index = build_index(corpus, "document")
        assert index.idf("x") == pytest.approx(math.log(3 / 3) + 1)
        assert index.idf("y") == pytest.approx(math.log(3 / 2) + 1)
        assert index.idf("unseen") == pytest.approx(math.log(3 / 1) + 1)

    def test_postings_sorted_no_duplicates(self):
        corpus = make_corpus({"B": ["tok tok."], "A": ["tok."], "C": ["tok!"]})
        index = build_index(corpus, "document")
        idents = [ident for ident, _ in index.postings["tok"].items()]
        assert idents == sorted(idents)
        assert len(idents) == len(set(idents))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equals_counter_reference(self, data):
        """Postings (each dict's key order too), idfs, unseen_idf, norms and
        doc_count equal reference_index's bit for bit, at both
        granularities, on corpora with non-ASCII titles and sentences;
        parse_query's terms keep Counter's first-occurrence order."""
        words = ["the", "The", "BBC", "x²", "İstanbul", "ΣΟΦΙΑ", "σοφίας", "naïve", "Straße", "10_000", "a-b"]
        word_lists = st.lists(st.sampled_from(words), max_size=8)
        pages = {}
        for i in range(data.draw(st.integers(min_value=1, max_value=6))):
            title = "_".join(data.draw(st.lists(st.sampled_from(words), min_size=1, max_size=3)))
            texts = data.draw(st.lists(word_lists.map(" ".join), min_size=1, max_size=4))
            pages[f"{title}_{i}"] = texts
        corpus = make_corpus(pages)
        for granularity in ("document", "sentence"):
            index, reference = build_index(corpus, granularity), reference_index(corpus, granularity)
            assert index.doc_count == reference.doc_count
            assert [(token, list(posted.items())) for token, posted in index.postings.items()] == [
                (token, list(posted.items())) for token, posted in reference.postings.items()
            ]
            assert [(token, idf.hex()) for token, idf in index.idfs.items()] == [
                (token, idf.hex()) for token, idf in reference.idfs.items()
            ]
            assert index.unseen_idf.hex() == reference.unseen_idf.hex()
            assert [(ident, norm.hex()) for ident, norm in index.norms.items()] == [
                (ident, norm.hex()) for ident, norm in reference.norms.items()
            ]
            text = " ".join(data.draw(word_lists))
            assert parse_query(index, text).terms == [
                (token, count, index.idf(token), index.postings.get(token, {}))
                for token, count in Counter(reference_tokens(text)).items()
            ]

    def test_canonical_serialization_deterministic(self, tmp_path):
        rows = [{"id": "A", "lines": "0\talpha beta."}, {"id": "B", "lines": "0\tbeta gamma."}]
        write_jsonl(tmp_path / "one.jsonl", rows)
        write_jsonl(tmp_path / "two.jsonl", rows)
        first = build_index(ingest_corpus(tmp_path / "one.jsonl"), "sentence")
        second = build_index(ingest_corpus(tmp_path / "two.jsonl"), "sentence")
        assert first.granularity == second.granularity
        assert first.doc_count == second.doc_count
        assert list(first.idfs.items()) == list(second.idfs.items())
        assert list(first.postings.items()) == list(second.postings.items())
        assert list(first.norms.items()) == list(second.norms.items())


def brute_force_cosine(corpus: Corpus, query: str, k: int):
    """Exhaustive reference scorer, independent of the postings path."""
    docs = {}
    for page_id in corpus.documents:
        tokens = []
        for _, text in corpus.documents[page_id].sentences:
            tokens.extend(tokenize(text))
        docs[page_id] = tokens
    n = len(docs)
    df = {}
    for tokens in docs.values():
        for token in set(tokens):
            df[token] = df.get(token, 0) + 1
    idf = lambda t: math.log((n + 1) / (df.get(t, 0) + 1)) + 1

    def vec(tokens):
        out = {}
        for t in tokens:
            out[t] = out.get(t, 0) + 1
        return {t: c * idf(t) for t, c in out.items()}

    qv = vec(tokenize(query))
    qn = math.sqrt(sum(w * w for w in qv.values()))
    scored = []
    for page_id, tokens in docs.items():
        dv = vec(tokens)
        dn = math.sqrt(sum(w * w for w in dv.values()))
        dot = sum(w * dv.get(t, 0.0) for t, w in qv.items())
        if dot > 0 and qn > 0 and dn > 0:
            scored.append((page_id, dot / (qn * dn)))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


class TestTfidfRank:
    def test_exact_document_ranks_first(self):
        corpus = make_corpus(
            {
                "Target": ["quartz lantern festival."],
                "Other": ["lantern in town."],
                "Noise": ["completely different words."],
            }
        )
        index = build_index(corpus, "document")
        ranked = top_k_scored(tfidf_scores(index, parse_query(index, "quartz lantern festival.")), k=3)
        assert ranked[0][0] == "Target"

    def test_out_of_vocabulary_query_empty(self):
        corpus = make_corpus({"A": ["alpha beta."]})
        index = build_index(corpus, "document")
        assert top_k_scored(tfidf_scores(index, parse_query(index, "zzz qqq")), k=5) == []

    def test_tie_broken_by_identifier(self):
        corpus = make_corpus({"B": ["same text."], "A": ["same text."]})
        index = build_index(corpus, "document")
        ranked = top_k_scored(tfidf_scores(index, parse_query(index, "same text")), k=2)
        assert [ident for ident, _ in ranked] == ["A", "B"]
        assert ranked[0][1] == pytest.approx(ranked[1][1])

    def test_scores_non_increasing_and_unique_ids(self):
        corpus = make_corpus(
            {f"P{i}": [f"shared word plus unique{i} token."] for i in range(6)}
        )
        index = build_index(corpus, "document")
        ranked = top_k_scored(tfidf_scores(index, parse_query(index, "shared word unique3")), k=10)
        scores = [score for _, score in ranked]
        assert scores == sorted(scores, reverse=True)
        ids = [ident for ident, _ in ranked]
        assert len(ids) == len(set(ids))

    @settings(max_examples=60, deadline=None)
    @given(
        docs=st.lists(
            st.lists(st.sampled_from("red blue green lamp river stone".split()), min_size=1, max_size=6),
            min_size=1,
            max_size=8,
        ),
        query=st.lists(st.sampled_from("red blue green lamp river stone zz".split()), min_size=1, max_size=4),
        k=st.integers(min_value=1, max_value=10),
    )
    def test_matches_brute_force_oracle(self, docs, query, k):
        corpus = make_corpus({f"D{i:02d}": [" ".join(tokens) + "."] for i, tokens in enumerate(docs)})
        index = build_index(corpus, "document")
        fast = top_k_scored(tfidf_scores(index, parse_query(index, " ".join(query))), k=k)
        slow = brute_force_cosine(corpus, " ".join(query), k=k)
        assert [ident for ident, _ in fast] == [ident for ident, _ in slow]
        for (_, a), (_, b) in zip(fast, slow):
            assert a == pytest.approx(b, abs=1e-12)

    def test_matches_oracle_on_fifty_documents(self):
        import random

        rng = random.Random(404)
        vocab = "red blue green lamp river stone quartz maple onyx drift".split()
        corpus = make_corpus(
            {
                f"D{i:02d}": [" ".join(rng.choices(vocab, k=rng.randint(2, 9))) + "."]
                for i in range(50)
            }
        )
        index = build_index(corpus, "document")
        for query in ("red lamp quartz", "stone stone maple", "drift onyx river green"):
            fast = top_k_scored(tfidf_scores(index, parse_query(index, query)), k=50)
            slow = brute_force_cosine(corpus, query, k=50)
            assert [ident for ident, _ in fast] == [ident for ident, _ in slow]
            for (_, a), (_, b) in zip(fast, slow):
                assert a == pytest.approx(b, abs=1e-12)


class TestTopKScored:
    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.sampled_from([0.25, 0.5, 0.5, 0.75, 1.0]), min_size=0, max_size=30),
        k=st.integers(min_value=1, max_value=35),
    )
    def test_equals_full_sort_with_ties_at_the_cut(self, values, k):
        # Five distinct values over up to 30 ids: the k-th score is almost
        # always shared by ids on both sides of the cut.
        scores = {f"id{i:02d}": value for i, value in enumerate(values)}
        assert top_k_scored(scores, k) == sorted(scores.items(), key=rank_key)[:k]

    def test_ties_at_the_cut_break_by_identifier(self):
        scores = {"e": 0.5, "a": 0.5, "c": 0.9, "d": 0.5, "b": 0.1}
        assert top_k_scored(scores, 3) == [("c", 0.9), ("a", 0.5), ("d", 0.5)]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            top_k_scored({"a": 1.0}, 0)

    def test_rank_is_top_k_of_scores(self):
        corpus = make_corpus({f"P{i}": [f"shared word plus unique{i} token."] for i in range(6)})
        index = build_index(corpus, "document")
        scores = tfidf_scores(index, parse_query(index, "shared word unique3"))
        assert len(scores) == 6
        ranked = top_k_scored(tfidf_scores(index, parse_query(index, "shared word unique3")), k=4)
        assert ranked == sorted(scores.items(), key=rank_key)[:4]


COMMON_WORDS = ["the", "of", "is", "show"]
RARE_WORDS = ["zeta", "quartz", "onyx", "maple", "drift", "lantern", "fjord", "ember"]


def draw_scorer_case(data):
    """(corpus, query text, k): common words in most sentences, rare ones
    in few; sentences reused across pages and reordered."""
    sentence = st.tuples(
        st.lists(st.sampled_from(COMMON_WORDS), max_size=4),
        st.lists(st.sampled_from(RARE_WORDS), max_size=2),
    ).map(lambda parts: parts[0] + parts[1]).filter(bool)
    shared = data.draw(st.lists(sentence, min_size=1, max_size=6))
    pages = {}
    for i in range(data.draw(st.integers(min_value=1, max_value=12))):
        texts = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            tokens = data.draw(st.one_of(st.sampled_from(shared), sentence))
            texts.append(" ".join(data.draw(st.permutations(tokens))) + ".")
        title = data.draw(st.sampled_from([f"({i})", f"Show_{i}", f"Zeta_{i}"]))
        pages[title] = texts
    corpus = make_corpus(pages)
    query = " ".join(draw_query_words(data))
    k = data.draw(st.integers(min_value=1, max_value=8))
    return corpus, query, k


def draw_query_words(data):
    """Up to 3 common words and 1 to 3 rare or unseen ones, shuffled."""
    query_words = (
        data.draw(st.lists(st.sampled_from(COMMON_WORDS), max_size=3))
        + data.draw(st.lists(st.sampled_from(RARE_WORDS + ["unseen"]), min_size=1, max_size=3))
    )
    return data.draw(st.permutations(query_words))


def draw_query_stream(data):
    """(corpus, [(query text, k)]): a scorer case's corpus and query, then
    1 to 9 more queries, each fresh, a repeat of an earlier one, an earlier
    one's words reordered, or an earlier one with one of its words added
    again (so some token's count grows by one)."""
    corpus, query, k = draw_scorer_case(data)
    stream = [(query, k)]
    for _ in range(data.draw(st.integers(min_value=1, max_value=9))):
        words = data.draw(st.sampled_from(stream))[0].split()
        kind = data.draw(st.sampled_from(["fresh", "repeat", "reorder", "recount"]))
        if kind == "fresh":
            words = draw_query_words(data)
        elif kind == "reorder":
            words = data.draw(st.permutations(words))
        elif kind == "recount":
            words = words + [data.draw(st.sampled_from(words))]
        stream.append((" ".join(words), data.draw(st.integers(min_value=1, max_value=8))))
    return corpus, stream


class RecordingPostings(dict):
    """A token's postings that record every get(unit) as (token, unit)."""

    def __init__(self, token, postings, lookups):
        super().__init__(postings)
        self.token = token
        self.lookups = lookups

    def get(self, unit, default=None):
        self.lookups.append((self.token, unit))
        return super().get(unit, default)


def top_k_lookups(index, text, k):
    """top_k of the text with recording postings: (ranking, lookups, the
    rank of each posted token, and each unit's highest-ranked token's
    rank). Ranks are by top_k's documented bound, ascending, ties in
    query order."""
    parsed = parse_query(index, text)
    lookups = []
    terms = [
        (token, count, idf, RecordingPostings(token, postings, lookups) if postings else postings)
        for token, count, idf, postings in parsed.terms
    ]
    query = Query(parsed.tokens, terms, parsed.norm)
    ranked = IndexScorer(index).top_k(query, k)
    return (ranked, lookups, *token_ranks(index, query))


def token_ranks(index, query):
    """The rank of each posted token of the query, by top_k's documented
    bound, ascending, ties in query order, and each unit's highest-ranked
    token's rank."""
    bounds = {
        token: count * idf * idf * max(tf / index.norms[ident] for ident, tf in postings.items()) / query.norm
        for token, count, idf, postings in query.terms
        if postings
    }
    rank_of = {token: rank for rank, token in enumerate(sorted(bounds, key=bounds.__getitem__))}
    top_rank = {}
    for token, _, _, postings in query.terms:
        for ident in postings:
            top_rank[ident] = max(top_rank.get(ident, -1), rank_of[token])
    return rank_of, top_rank


class CountingScorer(IndexScorer):
    """Records every unit it reaches: scores() and top_k turn dots into
    cosines through _cosines, passing it the given units or a taken
    token's postings."""

    def __init__(self, index):
        super().__init__(index)
        self.scored = set()

    def _cosines(self, scores, query_norm, units, dots, *args, **kwargs):
        self.scored.update(units)
        return super()._cosines(scores, query_norm, units, dots, *args, **kwargs)


class TestSentenceScorer:
    """corpus.IndexScorer against tfidf_scores, at either granularity."""

    def test_pruned_top_k_equals_full_sort(self):
        """Common words in most sentences, rare ones in few; sentences reused
        across pages (exact ties: untitled pages add no title token) and
        reordered (near-equal scores: a unit's norm sums its tokens in
        first-occurrence order, so a permutation can move its last bits).
        Each corpus is ranked at both granularities."""
        pruned = {"sentence": [], "document": []}
        ties_at_cut, near_equal = [], []

        # Pinned examples: at random ones the coverage floors below failed
        # about once in 15 runs.
        @settings(derandomize=True, max_examples=200, deadline=None)
        @given(st.data())
        def check(data):
            corpus, query, k = draw_scorer_case(data)
            for granularity, pruned_on in pruned.items():
                index = build_index(corpus, granularity)
                scorer = CountingScorer(index)
                parsed = parse_query(index, query)
                scores = tfidf_scores(index, parsed)
                assert scorer.top_k(parsed, k) == sorted(scores.items(), key=rank_key)[:k]
                pruned_on.append(len(scorer.scored) < len(scores))
                values = [score for _, score in sorted(scores.items(), key=rank_key)]
                ties_at_cut.append(len(values) > k and values[k - 1] == values[k])
                near_equal.append(any(a != b and a - b <= 1e-12 * a for a, b in zip(values, values[1:])))
                for ident in index.norms:
                    assert scorer.scores(parsed, [ident]).get(ident) == scores.get(ident)
                assert scorer.scores(parsed, list(index.norms)) == scores
                if granularity == "sentence":
                    assert scorer.pages(parsed) == sorted({sid.page_id for sid in scores})

        check()
        # The generator must reach the cases the test is for. Pages hold
        # more common words than sentences, so fewer document rankings prune
        # (8 to 24 of 200 in six runs).
        for granularity, least in (("sentence", 10), ("document", 3)):
            assert sum(pruned[granularity]) >= least, (granularity, sum(pruned[granularity]))
        assert sum(ties_at_cut) >= 5 and sum(near_equal) >= 2, (sum(ties_at_cut), sum(near_equal))

    def test_a_token_already_taken_is_never_looked_up(self):
        """top_k takes tokens from the highest bound down, so a unit first
        reached by a token lacks every token taken before it: it is looked
        up only in the postings of tokens ranked at or below its
        highest-ranked token (the one that first reached it), and the
        ranking is still the full sort."""
        restricted = []

        @settings(derandomize=True, max_examples=200, deadline=None)
        @given(st.data())
        def check(data):
            corpus, query, k = draw_scorer_case(data)
            for granularity in ("sentence", "document"):
                index = build_index(corpus, granularity)
                ranked, lookups, rank_of, top_rank = top_k_lookups(index, query, k)
                scores = tfidf_scores(index, parse_query(index, query))
                assert ranked == sorted(scores.items(), key=rank_key)[:k]
                assert {ident for _, ident in lookups} <= set(scores)
                for token, ident in lookups:
                    assert rank_of[token] <= top_rank[ident], (token, ident)
                # Units the full lookup would have sought in a higher token.
                restricted.append(any(top_rank[ident] < max(rank_of.values()) for _, ident in lookups))

        check()
        assert sum(restricted) >= 50, sum(restricted)

    def test_rare_token_units_are_not_looked_up_again(self):
        """"zeta" (rare) has the highest bound and reaches "A" first; "the"
        then reaches "B" and "C", which are never looked up in zeta's
        postings."""
        pages = {"A": ["zeta the."], "B": ["the show."], "C": ["the of."]}
        for granularity in ("sentence", "document"):
            index = build_index(make_corpus(pages), granularity)
            ranked, lookups, rank_of, _ = top_k_lookups(index, "the zeta", 3)
            assert ranked == sorted(tfidf_scores(index, parse_query(index, "the zeta")).items(), key=rank_key)
            assert rank_of["zeta"] > rank_of["the"]
            looked_up = {(token, ident if granularity == "document" else ident.page_id) for token, ident in lookups}
            assert looked_up == {("zeta", "A"), ("the", "A"), ("the", "B"), ("the", "C")}

    def test_ties_at_the_threshold_are_kept(self):
        """A unit reached only by skippable tokens but tying the threshold
        stays: "(1)" and "(2)" tie, "zeta" (the later of two equal bounds)
        sets theta from "(2)", and "the" alone bounds "(1)" by exactly
        theta, so only the kept tie puts "(1)" first."""
        pages = {"(1)": ["the."], "(2)": ["zeta."], "(3)": ["quest."]}
        index = build_index(make_corpus(pages), "sentence")
        scorer = IndexScorer(index)
        for k in (1, 2):
            ranked = scorer.top_k(parse_query(index, "the zeta"), k)
            assert ranked == sorted(tfidf_scores(index, parse_query(index, "the zeta")).items(), key=rank_key)[:k]
        assert scorer.top_k(parse_query(index, "the zeta"), 1)[0][0] == SentenceId("(1)", 0)

    def test_repeated_query_token_keeps_the_float_order(self):
        """With "zeta" counted 5 times, count * idf * tf * idf and
        count * (idf * tf * idf) round apart here, at both granularities:
        a score equals tfidf_scores' only in its expression order."""
        corpus = make_corpus({"A": ["zeta beta."], "P0": ["other."]})
        for granularity in ("sentence", "document"):
            index = build_index(corpus, granularity)
            query = parse_query(index, "zeta zeta zeta zeta zeta beta")
            scores = tfidf_scores(index, query)
            assert IndexScorer(index).top_k(query, 2) == sorted(scores.items(), key=rank_key)

    def test_empty_and_out_of_vocabulary_queries(self):
        index = build_index(make_corpus({"A": ["alpha beta."]}), "sentence")
        scorer = IndexScorer(index)
        for text in ("", "?!", "zzz qqq"):
            query = parse_query(index, text)
            assert scorer.top_k(query, 3) == []
            assert scorer.pages(query) == []
            assert scorer.scores(query, [SentenceId("A", 0)]) == {}

    def test_needs_sentence_index(self):
        """Only pages() is sentence-only: a page's units are its sentences."""
        index = build_index(make_corpus({"A": ["alpha."]}), "document")
        scorer = IndexScorer(index)
        assert [ident for ident, _ in scorer.top_k(parse_query(index, "alpha"), 1)] == ["A"]
        with pytest.raises(ValueError, match="sentence-granularity"):
            scorer.pages(parse_query(index, "alpha"))


class TakingScorer(IndexScorer):
    """Records the units of every _cosines call: top_k passes it the
    ordered units of a token's slot when it reads or fills the slot."""

    def __init__(self, index):
        super().__init__(index)
        self.taken = []

    def _cosines(self, scores, query_norm, units, dots, *args, **kwargs):
        self.taken.append(units)
        return super()._cosines(scores, query_norm, units, dots, *args, **kwargs)


def check_slots(scorer):
    """At most one slot per token of the index, keyed by the index's tokens
    and counts; once filled, its units are every unit of the token's
    postings (none has a zero dot or norm), by falling dot / norm, ties in
    postings order, and its dots exactly the generic loop's under the held
    list of its key; together the slots hold at most two 8-byte words per
    posting of the index."""
    index = scorer.index
    for token, (key, units, dots) in scorer._slots.items():
        postings = index.postings[token]
        assert token in dict(key) and all(held in index.postings and type(count) is int for held, count in key)
        if units is None:
            assert dots is None
            continue
        assert dots.typecode == "d" and len(dots) == len(units) and sorted(units) == list(postings)
        weighted = [(count * index.idfs[held], index.idfs[held], index.postings[held]) for held, count in key]
        assert [dot.hex() for dot in dots] == [reference_dot(weighted, ident).hex() for ident in units]
        ratios = [(-dot / index.norms[ident], list(postings).index(ident)) for ident, dot in zip(units, dots)]
        assert ratios == sorted(ratios)
    # A kept unit costs one list pointer and one double.
    filled = [units for _, units, _ in scorer._slots.values() if units is not None]
    assert sum(map(len, filled)) <= sum(map(len, index.postings.values()))


class TestScorerSlots:
    """top_k's per-token slots: a token's postings are scored once per run
    of takes under one held list, and a ranking never depends on what a
    scorer served before."""

    def test_streams_rank_as_brute_force(self):
        """Random query streams at both granularities, served twice: each
        ranking equals the full sort and a fresh scorer's, through slots
        met, filled (the second take in a row under one held list), read
        (later takes) and replaced, including by held lists that differ
        only in a count or in query order (which must not be read). A
        hand-built query over other postings, or other idfs, than the
        index's neither reads nor fills a slot."""
        events = Counter()

        @settings(derandomize=True, max_examples=150, deadline=None)
        @given(st.data())
        def check(data):
            corpus, stream = draw_query_stream(data)
            for granularity in ("sentence", "document"):
                index = build_index(corpus, granularity)
                scorer = TakingScorer(index)
                for text, k in stream + stream:
                    parsed = parse_query(index, text)
                    before = dict(scorer._slots)
                    scorer.taken.clear()
                    ranked = scorer.top_k(parsed, k)
                    assert ranked == sorted(tfidf_scores(index, parsed).items(), key=rank_key)[:k]
                    assert ranked == IndexScorer(index).top_k(parsed, k)
                    check_slots(scorer)
                    for token, _, _, _ in parsed.terms:
                        old, new = before.get(token), scorer._slots.get(token)
                        # A read passes _cosines the slot's units; a slot met
                        # or replaced passes a fresh list and stores a new entry.
                        if new is None or (old is new and not any(new[1] is units for units in scorer.taken)):
                            continue
                        if old is None:
                            assert new[1:] == (None, None)
                            events["met"] += 1
                        elif old is new:
                            assert new[1] is not None
                            events["read"] += 1
                        elif old[0] == new[0]:
                            assert old[1] is None and new[1] is not None
                            events["filled"] += 1
                        else:
                            assert new[1:] == (None, None)
                            events["replaced"] += 1
                            if sorted(old[0]) == sorted(new[0]):
                                events["reordered"] += 1
                            elif [held for held, _ in old[0]] == [held for held, _ in new[0]]:
                                events["recounted"] += 1

                parsed = parse_query(index, stream[-1][0])
                before = dict(scorer._slots)
                other_postings = Query(
                    parsed.tokens,
                    [(token, count, idf, {ident: tf + 1 for ident, tf in postings.items()}) for token, count, idf, postings in parsed.terms],
                    parsed.norm,
                )
                # With k past the unit count nothing is pruned, so the bounds
                # the scorer keeps from the index's postings cannot matter.
                everything = len(index.norms) + 1
                assert scorer.top_k(other_postings, everything) == sorted(
                    tfidf_scores(index, other_postings).items(), key=rank_key
                )
                other_idfs = Query(
                    parsed.tokens, [(token, count, 2 * idf, postings) for token, count, idf, postings in parsed.terms], parsed.norm
                )
                k = stream[-1][1]
                assert scorer.top_k(other_idfs, k) == sorted(tfidf_scores(index, other_idfs).items(), key=rank_key)[:k]
                assert scorer._slots.keys() == before.keys()
                assert all(scorer._slots[token] is slot for token, slot in before.items())

        check()
        assert len(events) == 6 and min(events.values()) >= 100, events

    def test_a_slot_read_looks_nothing_up(self):
        """With the index's own postings recording every get(unit), each
        query is served three times in a row: every lookup keeps the rank
        rule, every serving ranks the same, and the third looks nothing up
        (the second filled every slot it took)."""
        reads = []

        @settings(derandomize=True, max_examples=100, deadline=None)
        @given(st.data())
        def check(data):
            corpus, stream = draw_query_stream(data)
            for granularity in ("sentence", "document"):
                index = build_index(corpus, granularity)
                lookups = []
                index.postings = {token: RecordingPostings(token, postings, lookups) for token, postings in index.postings.items()}
                scorer = IndexScorer(index)
                for text, k in stream:
                    parsed = parse_query(index, text)
                    expected = sorted(tfidf_scores(index, parsed).items(), key=rank_key)[:k]
                    rank_of, top_rank = token_ranks(index, parsed)
                    for _ in range(2):
                        lookups.clear()
                        assert scorer.top_k(parsed, k) == expected
                        for token, ident in lookups:
                            assert rank_of[token] <= top_rank[ident], (token, ident)
                    lookups.clear()
                    assert scorer.top_k(parsed, k) == expected
                    assert lookups == []
                    reads.append(bool(expected))

        check()
        assert sum(reads) >= 300, sum(reads)


def draw_tiled_stream(data):
    """draw_query_stream's queries over its corpus with every page copied 2
    to 4 times, as the 8x world tiles its pages. Every copy tags its page
    ids alike ("_za", "_zb", ...), so the tag tokens share one idf and each
    unit of one copy ties its counterparts' cosines exactly."""
    corpus, stream = draw_query_stream(data)
    copies = data.draw(st.integers(min_value=2, max_value=4))
    pages = {
        f"{page_id}_z{tag}": [text for _, text in doc.sentences]
        for tag in "abcd"[:copies]
        for page_id, doc in corpus.documents.items()
    }
    return make_corpus(pages), stream


class ReadingScorer(IndexScorer):
    """Replays every slot read (a _cosines call with a slot's array of
    dots) against the k best cosines before it: counts the reads, the
    reads that stop before the slot's end, and the cosines a read adds
    below the k-th best the read started from, or below the k-th best as
    the read runs (its heap, updated by each cosine in the order the read
    adds them). A cosine within the stop rule's slack of either counts as
    reaching it."""

    def __init__(self, index):
        super().__init__(index)
        self.k = None
        self.counts = Counter()

    def top_k(self, query, k):
        self.k = k
        return super().top_k(query, k)

    def _cosines(self, scores, query_norm, units, dots, *args, **kwargs):
        before = list(scores.values())
        super()._cosines(scores, query_norm, units, dots, *args, **kwargs)
        if not isinstance(dots, array):
            return
        best = sorted(before)[-self.k :]
        best = [0.0] * (self.k - len(best)) + best
        start = best[0]
        for score in list(scores.values())[len(before) :]:
            reach = score * (1.0 + 2 * _BOUND_SLACK)
            self.counts["below the start"] += reach < start
            self.counts["below the running k-th best"] += reach < best[0]
            if score > best[0]:
                heapq.heapreplace(best, score)
        self.counts["reads"] += 1
        self.counts["stopped"] += any(unit not in scores for unit in units)


class TestOrderedSlots:
    """A filled slot holds its token's units by falling dot / norm, and a
    slot read stops at the first unit that cannot reach the k-th best
    cosine so far: rankings stay exact however many units tie it."""

    def test_tied_copies_rank_as_brute_force(self):
        """Random query streams over corpora of copied pages, at both
        granularities, each query served three times in a row and the
        stream then once more: every ranking equals the full sort, many cut
        through units tying the k-th score, and no slot read scores a unit
        below the k-th best it started from or the one it has reached."""
        seen = Counter()

        @settings(derandomize=True, max_examples=150, deadline=None)
        @given(st.data())
        def check(data):
            corpus, stream = draw_tiled_stream(data)
            for granularity in ("sentence", "document"):
                index = build_index(corpus, granularity)
                scorer = ReadingScorer(index)
                for text, k in [served for served in stream for _ in range(3)] + stream:
                    parsed = parse_query(index, text)
                    scores = tfidf_scores(index, parsed)
                    assert scorer.top_k(parsed, k) == sorted(scores.items(), key=rank_key)[:k]
                    values = sorted(scores.values(), reverse=True)
                    seen["ties at the cut"] += len(values) > k and values[k - 1] == values[k]
                check_slots(scorer)
                seen.update(scorer.counts)

        check()
        assert seen["below the start"] == 0 and seen["below the running k-th best"] == 0, seen
        assert min(seen["ties at the cut"], seen["stopped"]) >= 1000 and seen["reads"] >= 2000, seen

    def test_a_unit_at_the_stop_bound_is_scored(self):
        """The stop is strict: a unit whose dot / norm * (1 + slack) equals
        query_norm times the k-th best is scored, as a unit tying the k-th
        best must be, and the walk stops at the first unit below it."""
        scorer = IndexScorer(InvertedIndex("document", 3, {}, {}, 1.0, {"a": 1.0, "b": 1.0, "c": 1.0}))
        dot = 0.75
        kth = dot * (1.0 + _BOUND_SLACK)
        scores, best = {}, [kth]
        # "c" is out of order on purpose: a read never looks past the stop.
        scorer._cosines(scores, 1.0, ["a", "b", "c"], array("d", [dot, dot / 2, dot]), best, ordered=True)
        assert scores == {"a": dot} and best == [kth]


def reference_dot(weighted, ident):
    """The generic loop tfidf_dots unrolls."""
    dot = 0.0
    for weight, idf, postings in weighted:
        tf = postings.get(ident)
        if tf is not None:
            dot += weight * tf * idf
    return dot


def reference_cosines(weighted, query_norm, norms, units):
    """The cosine IndexScorer takes of each generic-loop dot."""
    scores = {}
    for ident in units:
        dot = reference_dot(weighted, ident)
        norm = norms.get(ident, 0.0)
        if dot != 0.0 and norm != 0.0:
            scores[ident] = dot / (query_norm * norm)
    return scores


def kernel_cosines(weighted, query_norm, norms, units):
    """The cosines of tfidf_dots(len(weighted)) through IndexScorer's one
    dot-to-cosine helper."""
    scores = {}
    scorer = IndexScorer(InvertedIndex("document", len(norms), {}, {}, 1.0, norms))
    scorer._cosines(scores, query_norm, units, tfidf_dots(len(weighted))(weighted, units))
    return scores


def hex_items(scores):
    return [(ident, score.hex()) for ident, score in scores.items()]


KERNEL_UNITS = [f"u{i}" for i in range(8)]


class TestCosineKernel:
    """util.tfidf_dots(n), and the cosines IndexScorer makes of its dots,
    against the generic loop, bit for bit."""

    @pytest.mark.parametrize("width", range(13))
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(data=st.data())
    def test_bits_of_the_generic_loop(self, width, data):
        """Counts up to 5, tfs up to 10**15, units holding no query token
        ("u7" is in no postings) and units with no norm."""
        weighted = []
        for _ in range(width):
            count = data.draw(st.integers(min_value=1, max_value=5))
            idf = data.draw(st.floats(min_value=1.0, max_value=12.0))
            postings = data.draw(
                st.dictionaries(
                    st.sampled_from(KERNEL_UNITS[:7]), st.integers(min_value=1, max_value=10**15), max_size=7
                )
            )
            weighted.append((count * idf, idf, postings))
        norms = data.draw(
            st.dictionaries(st.sampled_from(KERNEL_UNITS), st.floats(min_value=1.0, max_value=1e6), max_size=8)
        )
        units = data.draw(st.lists(st.sampled_from(KERNEL_UNITS), unique=True))
        query_norm = data.draw(st.floats(min_value=1.0, max_value=100.0))
        expected = reference_cosines(weighted, query_norm, norms, units)
        assert hex_items(kernel_cosines(weighted, query_norm, norms, units)) == hex_items(expected)
        # A unit with no norm keeps its dot; one in no postings has 0.0.
        dots = tfidf_dots(width)(weighted, units)
        assert len(dots) == len(units)
        assert [dots[units.index(ident)] / (query_norm * norms[ident]) for ident in expected] == list(expected.values())

    def test_repeated_query_token(self):
        """"zeta" counted 5 times: the bits of the loop's expression order."""
        corpus = make_corpus({"A": ["zeta beta."], "P0": ["other."]})
        for granularity in ("sentence", "document"):
            index = build_index(corpus, granularity)
            query = parse_query(index, "zeta zeta zeta zeta zeta beta")
            weighted = [(count * idf, idf, postings) for _, count, idf, postings in query.terms if postings]
            units = list(index.norms) + ["no such unit"]
            cosines = kernel_cosines(weighted, query.norm, index.norms, units)
            assert hex_items(cosines) == hex_items(reference_cosines(weighted, query.norm, index.norms, units))
            assert hex_items(cosines) == hex_items({ident: tfidf_scores(index, query)[ident] for ident in cosines})

    def test_built_once_per_width(self):
        assert tfidf_dots(6) is tfidf_dots(6)
        assert tfidf_dots(0)([], ["a"]) == [0.0]
        # The terms must number exactly the width.
        with pytest.raises(ValueError):
            tfidf_dots(2)([(1.0, 1.0, {"a": 1})], ["a"])
