"""Local knowledge base: alias-dictionary entity linking and sibling lookup.

The KB file is JSON lines, one entity per line:
{"id": ..., "name": ..., "aliases": [...], "parents": [...], "relations": [...]}

Linking is a deterministic longest-match scan over the claim's tokens,
case-sensitive on the original text and aligned to token boundaries. It
stands in for a neural linker and sits behind a small surface
(link_entities) so a stronger one can be swapped in.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Union

from .corpus import token_spans
from .util import read_jsonl


@dataclass(frozen=True)
class EntityRecord:
    entity_id: str
    canonical_name: str
    aliases: tuple[str, ...]
    parent_ids: tuple[str, ...]
    relation_ids: tuple[str, ...]


@dataclass(frozen=True)
class EntityMention:
    entity_id: str
    start: int
    end: int
    surface: str


def _entity_record(obj: dict) -> tuple[str, EntityRecord]:
    """One KB row as (entity id, record); the name leads the aliases."""
    eid = str(obj["id"])
    name = obj["name"]
    if not isinstance(name, str) or not name:
        raise ValueError(f"entity {eid!r}: name must be a non-empty string, got {name!r}")
    for key in ("aliases", "parents", "relations"):
        values = obj.get(key, [])
        if not isinstance(values, list):
            raise ValueError(f"entity {eid!r}: {key} must be a list, got {values!r}")
        if not all(isinstance(value, str) for value in values):
            raise ValueError(f"entity {eid!r}: {key} must be strings, got {values!r}")
    aliases = obj.get("aliases", [])
    return eid, EntityRecord(
        entity_id=eid,
        canonical_name=name,
        aliases=tuple(aliases if name in aliases else [name, *aliases]),
        parent_ids=tuple(p for p in obj.get("parents", []) if p != eid),
        relation_ids=tuple(r for r in obj.get("relations", []) if r != eid),
    )


class KnowledgeBase:
    def __init__(self, entities: dict[str, EntityRecord]):
        self.entities = entities

        # alias -> owning entity; collisions resolve to the lowest id.
        alias_owner: dict[str, str] = {}
        for eid in sorted(self.entities):
            for alias in self.entities[eid].aliases:
                if alias and alias not in alias_owner:
                    alias_owner[alias] = eid

        # first token -> (alias, token count, owner), longest alias first,
        # split by the same token_spans the scanner reads claims with.
        self._alias_by_first_token: dict[str, list[tuple[str, int, str]]] = {}
        for alias, eid in alias_owner.items():
            spans = token_spans(alias)
            if spans:
                self._alias_by_first_token.setdefault(spans[0][2], []).append((alias, len(spans), eid))
        for entries in self._alias_by_first_token.values():
            entries.sort(key=lambda item: (-len(item[0]), item[0]))

        self._children_of: dict[str, set[str]] = {}
        for eid, record in self.entities.items():
            for parent in record.parent_ids:
                self._children_of.setdefault(parent, set()).add(eid)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "KnowledgeBase":
        return cls(read_jsonl(path, _entity_record))

    def require(self, entity_id: str) -> EntityRecord:
        record = self.entities.get(entity_id)
        if record is None:
            raise KeyError(f"unknown entity {entity_id!r}")
        return record

    def siblings(self, entity_id: str) -> set[str]:
        """Entities sharing at least one parent, the entity itself excluded."""
        record = self.require(entity_id)
        out: set[str] = set()
        for parent in record.parent_ids:
            out.update(self._children_of.get(parent, ()))
        out.discard(entity_id)
        return out

    def aliases_starting_with(self, token: str) -> list[tuple[str, int, str]]:
        return self._alias_by_first_token.get(token, [])


def link_entities(text: str, kb: KnowledgeBase) -> list[EntityMention]:
    """Longest-match alias scan, left to right, non-overlapping spans."""
    spans = token_spans(text)
    mentions: list[EntityMention] = []
    i = 0
    while i < len(spans):
        start = spans[i][0]
        for alias, token_count, entity_id in kb.aliases_starting_with(spans[i][2]):
            j = i + token_count - 1
            if j < len(spans) and text[start : spans[j][1]] == alias:
                mentions.append(EntityMention(entity_id, start, spans[j][1], alias))
                i = j + 1
                break  # entries are longest-first
        else:
            i += 1
    return mentions
