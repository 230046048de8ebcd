"""Tiled worlds: k renamed copies of one generated toy world.

`claimlab.worldgen` cannot grow past its name pools, so the benchmark
builds its larger corpus here, from outside the program. Every name
token (each space-separated word of a page title) gets a letter-only
per-copy tag appended, so "Alice Fenwick" becomes "Alicezb Fenwickzb"
in copy 1. A letter-only tag never splits off as a separate token under
the corpus tokenizer. Claim ids are offset per copy; the KB root
parents (the rows that other rows name as parents) are shared by all
copies, so sibling substitution can cross copies.
"""

from __future__ import annotations

import json
import re
import string

from claimlab.corpus import parse_dump_line
from claimlab.worldgen import World, WorldConfig, build_world

# Claim ids of copy c are the base ids plus c * COPY_ID_STRIDE; the base
# world uses ids 1000-2999 and synthetic claims add 10,000,000.
COPY_ID_STRIDE = 100_000


def copy_tag(copy: int) -> str:
    """Letter-only tag of one copy: 0 -> "za", 1 -> "zb", 26 -> "zba"."""
    digits = ""
    while True:
        copy, rest = divmod(copy, 26)
        digits = string.ascii_lowercase[rest] + digits
        if copy == 0:
            return "z" + digits


def copy_of_claim(claim_id: int) -> int:
    return claim_id // COPY_ID_STRIDE


def _renamer(name_tokens: set[str], tag: str):
    pattern = re.compile(r"\b(?:" + "|".join(sorted(map(re.escape, name_tokens), key=len, reverse=True)) + r")\b")
    return lambda text: pattern.sub(lambda m: m.group() + tag, text)


def _copy_claim(row: dict, copy: int, rename) -> dict:
    offset = copy * COPY_ID_STRIDE
    evidence = [
        [[ann + offset, ev + offset * 10, None if page is None else rename(page), line]
         for ann, ev, page, line in group]
        for group in row["evidence"]
    ]
    return {**row, "id": row["id"] + offset, "claim": rename(row["claim"]), "evidence": evidence}


def tiled_world(seed: int, copies: int) -> World:
    """`copies` renamed copies of build_world(WorldConfig(seed)).

    Raises ValueError when a gold sentence does not resolve or an alias
    or page title collides across copies.
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
    base = build_world(WorldConfig(seed=seed))
    name_tokens = {token for page in base.pages for token in page["id"].split()}
    roots = {parent for row in base.kb_rows for parent in row["parents"]}

    pages, kb_rows, train_rows, dev_rows = [], [], [], []
    kb_rows.extend(row for row in base.kb_rows if row["id"] in roots)
    for copy in range(copies):
        tag = copy_tag(copy)
        rename = _renamer(name_tokens, tag)

        def entity(eid: str) -> str:
            return eid if eid in roots else f"{eid}-{tag}"

        for page in base.pages:
            pages.append({"id": rename(page["id"]), "lines": rename(page["lines"])})
        for row in base.kb_rows:
            if row["id"] in roots:
                continue
            kb_rows.append(
                {
                    "id": entity(row["id"]),
                    "name": rename(row["name"]),
                    "aliases": [rename(alias) for alias in row["aliases"]],
                    "parents": [entity(p) for p in row["parents"]],
                    "relations": [entity(r) for r in row["relations"]],
                }
            )
        train_rows.extend(_copy_claim(row, copy, rename) for row in base.train_rows)
        dev_rows.extend(_copy_claim(row, copy, rename) for row in base.dev_rows)

    world = World(pages=pages, kb_rows=kb_rows, train_rows=train_rows, dev_rows=dev_rows)
    _check(world)
    return world


def _check(world: World) -> None:
    titles = [page["id"] for page in world.pages]
    if len(set(titles)) != len(titles):
        raise ValueError("page titles collide across copies")
    aliases = [alias for row in world.kb_rows for alias in {row["name"], *row["aliases"]}]
    if len(set(aliases)) != len(aliases):
        raise ValueError("KB aliases collide across copies")
    texts = {page["id"]: parse_dump_line(json.dumps(page)).line_texts() for page in world.pages}
    for row in world.train_rows + world.dev_rows:
        for group in row["evidence"]:
            for _, _, page, line in group:
                if page is not None and not texts.get(page, {}).get(line):
                    raise ValueError(f"claim {row['id']}: gold sentence {page!r}:{line} does not resolve")
