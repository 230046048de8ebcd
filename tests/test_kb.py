import pytest

from claimlab.kb import EntityRecord, KnowledgeBase, link_entities

from conftest import make_kb, write_jsonl


class TestLinking:
    def test_two_mentions_in_order(self, tv_kb):
        mentions = link_entities("Stan Beeman is only in shows on BBC.", tv_kb)
        assert [m.entity_id for m in mentions] == ["P02", "N02"]
        assert mentions[0].surface == "Stan Beeman"
        assert mentions[1].surface == "BBC"
        assert mentions[0].start < mentions[1].start

    def test_no_matches(self, tv_kb):
        assert link_entities("Absolutely nothing linked here.", tv_kb) == []

    def test_longest_alias_wins(self, tv_kb):
        mentions = link_entities("The Big Bang Theory premiered on CBS.", tv_kb)
        assert mentions[0].entity_id == "S01"
        assert mentions[0].surface == "The Big Bang Theory"

    def test_shorter_alias_used_when_longer_absent(self, tv_kb):
        mentions = link_entities("Fans of Big Bang gathered.", tv_kb)
        assert mentions[0].entity_id == "S01"
        assert mentions[0].surface == "Big Bang"

    def test_case_sensitive(self, tv_kb):
        assert link_entities("the big bang theory aired.", tv_kb) == []

    def test_token_boundary_alignment(self, tv_kb):
        # "BBCx" is one token; the alias "BBC" must not match inside it.
        assert link_entities("BBCx said so.", tv_kb) == []

    def test_surface_matches_span(self, tv_kb):
        text = "Johnny Galecki acted in The Big Bang Theory on CBS."
        for mention in link_entities(text, tv_kb):
            assert text[mention.start : mention.end] == mention.surface

    def test_alias_collision_lowest_entity_id(self):
        kb = make_kb(
            [
                EntityRecord("E2", "Mercury", ("Mercury",), (), ()),
                EntityRecord("E1", "Mercury", ("Mercury",), (), ()),
            ]
        )
        mentions = link_entities("Mercury rises.", kb)
        assert mentions[0].entity_id == "E1"

    def test_alias_split_as_the_scanner_splits(self):
        # Lowercasing turns U+0130 into "i" plus a combining dot, which
        # the lowercasing tokenizer splits off; the alias is two tokens.
        kb = make_kb(
            [
                EntityRecord("E1", "Bob Smith", ("Bob Smith",), (), ()),
                EntityRecord("E2", "\u0130zmir Rovers", ("\u0130zmir Rovers",), (), ()),
            ]
        )
        mentions = link_entities("Bob Smith played for \u0130zmir Rovers.", kb)
        assert [(m.entity_id, m.surface) for m in mentions] == [("E1", "Bob Smith"), ("E2", "\u0130zmir Rovers")]


class TestSiblings:
    def test_shared_parent(self, tv_kb):
        assert "S02" in tv_kb.siblings("S01")
        assert "S01" in tv_kb.siblings("S02")

    def test_no_parents_empty(self):
        kb = make_kb([EntityRecord("E1", "Lonely", ("Lonely",), (), ())])
        assert kb.siblings("E1") == set()

    def test_self_excluded(self, tv_kb):
        assert "S01" not in tv_kb.siblings("S01")

    def test_sole_child_has_no_siblings(self, tv_kb):
        assert tv_kb.siblings("S03") == set()

    def test_unknown_entity_error(self, tv_kb):
        with pytest.raises(KeyError, match="NOPE"):
            tv_kb.siblings("NOPE")


class TestLoading:
    def test_load_normalizes(self, tmp_path):
        path = write_jsonl(
            tmp_path / "kb.jsonl",
            [
                {"id": "A", "name": "Alpha Prime", "aliases": ["AP"], "parents": ["A"], "relations": ["A", "B"]},
                {"id": "B", "name": "Beta", "aliases": ["Beta"], "parents": [], "relations": []},
            ],
        )
        kb = KnowledgeBase.load(path)
        record = kb.require("A")
        assert record.canonical_name in record.aliases
        assert "A" not in record.parent_ids  # self-loop dropped
        assert record.relation_ids == ("B",)

    def test_duplicate_id_rejected(self, tmp_path):
        path = write_jsonl(
            tmp_path / "kb.jsonl",
            [
                {"id": "A", "name": "One", "aliases": [], "parents": [], "relations": []},
                {"id": "A", "name": "Two", "aliases": [], "parents": [], "relations": []},
            ],
        )
        with pytest.raises(ValueError, match="kb.jsonl:2: repeated key 'A', first on line 1"):
            KnowledgeBase.load(path)

    def test_empty_name_rejected(self, tmp_path):
        path = write_jsonl(
            tmp_path / "kb.jsonl",
            [{"id": "A", "name": "", "aliases": [], "parents": [], "relations": []}],
        )
        with pytest.raises(ValueError, match="kb.jsonl:1: entity 'A': name must be a non-empty string, got ''"):
            KnowledgeBase.load(path)

    @pytest.mark.parametrize("field", ["aliases", "parents", "relations"])
    def test_list_field_given_as_string_rejected(self, tmp_path, field):
        row = {"id": "E1", "name": "Alpha Dog", "aliases": [], "parents": [], "relations": []}
        path = write_jsonl(tmp_path / "kb.jsonl", [{**row, field: "Alf"}])
        with pytest.raises(ValueError, match=f"'E1': {field} must be a list"):
            KnowledgeBase.load(path)
