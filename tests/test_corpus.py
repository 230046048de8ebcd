import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claimlab.corpus import (
    Corpus,
    Document,
    IndexScorer,
    SentenceId,
    build_index,
    display_title,
    document_to_dump_line,
    ingest_corpus,
    parse_dump_line,
    parse_query,
    rank_key,
    tokenize,
    top_k_scored,
)

from conftest import make_corpus, tfidf_scores, write_jsonl


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
            ([1, 2], "page id must be a non-empty string"),
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
        again = parse_dump_line(document_to_dump_line(doc))
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
        corpus.add(Document("A", ((0, "a zero."), (2, "a two."))))
        assert corpus.get_sentence(SentenceId("B", 0)) is None
        corpus.add(Document("B", ((0, "b zero."), (1, ""))))
        corpus.add(Document("C", ()))
        assert corpus.get_sentence(SentenceId("A", 2)) == "a two."
        assert corpus.get_sentence(SentenceId("B", 0)) == "b zero."
        assert corpus.get_sentence(SentenceId("B", 1)) == ""
        assert corpus.get_sentence(SentenceId("A", 1)) is None
        assert corpus.get_sentence(SentenceId("C", 0)) is None
        assert corpus.get_sentence(SentenceId("D", 0)) is None
        with pytest.raises(ValueError):
            corpus.add(Document("A", ((0, "replacement."),)))
        assert corpus.get_sentence(SentenceId("A", 0)) == "a zero."

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


class CountingScorer(IndexScorer):
    """Records every unit it scores: top_k scores through scores()."""

    def __init__(self, index):
        super().__init__(index)
        self.scored = set()

    def scores(self, query, units):
        self.scored.update(units)
        return super().scores(query, units)


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

        @settings(max_examples=200, deadline=None)
        @given(st.data())
        def check(data):
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
            query_words = (
                data.draw(st.lists(st.sampled_from(COMMON_WORDS), max_size=3))
                + data.draw(st.lists(st.sampled_from(RARE_WORDS + ["unseen"]), min_size=1, max_size=3))
            )
            query = " ".join(data.draw(st.permutations(query_words)))
            k = data.draw(st.integers(min_value=1, max_value=8))

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
