"""Deterministic toy-world generator for desk-scale experiments.

Builds a small wiki-style universe of people, sitcoms, broadcasters and
towns, plus labeled claims over it. Refuted claims name a broadcaster
unrelated to the person, and the refuting evidence never mentions it,
so purely lexical rankers get pulled toward the distractor's page.
Supported claims restate their evidence closely enough that every
training regime resolves them.

The same world files drive unit fixtures, the robustness experiment,
and the runnable scripts; everything derives from one seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Union

from .util import check_fields, write_jsonl

_FIRST_NAMES = (
    "Alice", "Bruno", "Clara", "Derek", "Elena",
    "Felix", "Greta", "Hassan", "Ingrid", "Jonas",
)
_LAST_NAMES = (
    "Fenwick", "Okafor", "Marsh", "Valdez", "Holm",
    "Iqbal", "Keller", "Navarro", "Ostrow", "Pruitt",
)
_SHOW_NAMES = (
    "Halcyon", "Westwind", "Nightfall", "Daybreak", "Stonegate",
    "Riverbend", "Foxglove", "Thornfield", "Silverlake", "Copperhill",
    "Brightwater", "Mistral", "Larkspur", "Wildwood", "Starling",
    "Harborview", "Cloudbreak", "Summerton", "Winterhale", "Mapleshade",
    "Oakhurst", "Pinecrest", "Fernway", "Juniper", "Marigold",
    "Bluebell", "Crestline", "Driftwood", "Emberly", "Fallowfield",
    "Gladstone", "Hollybrook", "Ironwood", "Jasperton", "Kingsmead",
    "Lavender", "Meadowlark", "Northgate", "Overlook", "Primrose",
    "Quillford", "Rosewood", "Sagebrush", "Tidewater", "Umberley",
    "Violetta", "Whitmore", "Yellowtree", "Zephyrine", "Ashgrove",
    "Birchwood", "Cedarfall", "Dovetail", "Elderberry", "Firefly",
    "Goldcrest", "Hazelwood", "Islewood", "Jackdaw", "Kestrel",
)
_NETWORK_NAMES = ("GBC", "NTV", "Astra", "Orbit", "Pinnacle", "Meridian", "Vista", "Zenith")
_TOWN_PREFIXES = ("Green", "Stone", "Mill", "Ash", "Bar", "Cold", "Dun", "East")
_TOWN_SUFFIXES = ("ford", "bury", "brook", "mouth", "stead", "wick", "holt", "combe", "leigh")

# Allowed range of each entity count; the upper ends are the name pools.
# Refuted claims name a network other than the person's own, so two are needed.
_COUNT_BOUNDS = {
    "n_persons": (1, len(_FIRST_NAMES) * len(_LAST_NAMES)),
    "n_shows": (1, len(_SHOW_NAMES)),
    "n_networks": (2, len(_NETWORK_NAMES)),
    "n_towns": (1, len(_TOWN_PREFIXES) * len(_TOWN_SUFFIXES)),
}


def _career_on_show_page(person_index: int, fraction: float) -> bool:
    # Striped assignment: deterministic and evenly interleaved.
    return (person_index * 17) % 100 < 100 * fraction


@dataclass(frozen=True)
class WorldConfig:
    seed: int = 13
    n_persons: int = 60
    n_shows: int = 60
    n_networks: int = 8
    n_towns: int = 72
    train_supported: int = 50
    train_supported_single: int = 5
    train_refuted: int = 20
    train_refuted_single: int = 5
    train_nei: int = 20
    dev_supported: int = 40
    dev_supported_single: int = 6
    dev_refuted: int = 36
    dev_refuted_single: int = 6
    dev_nei: int = 38
    # Fraction of persons whose career is documented on their show's page
    # rather than their own; their supported claims carry show-page gold,
    # which balances how strongly majority-class training can reward the
    # title-span signal. Dev two-entity supported claims use the others.
    show_gold_person_fraction: float = 0.2

    def __post_init__(self):
        """Reject configs the generator cannot honour, naming the field:
        first a value of the wrong type (util.check_fields), then one out
        of range."""
        check_fields(WorldConfig, vars(self))
        for name, (low, high) in _COUNT_BOUNDS.items():
            value = getattr(self, name)
            if not low <= value <= high:
                raise ValueError(f"{name} must be between {low} and {high}, got {value}")
        # Claim counts are the train_* and dev_* fields.
        for name in (f.name for f in fields(self) if f.name.startswith(("train_", "dev_"))):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        # A NaN fails both comparisons.
        if not 0.0 <= self.show_gold_person_fraction <= 1.0:
            raise ValueError(f"show_gold_person_fraction must be between 0 and 1, got {self.show_gold_person_fraction}")
        if self.n_shows > self.n_persons:
            raise ValueError(f"n_shows must not exceed n_persons ({self.n_persons}): every show needs a star")
        # Person i stars in show i % n_shows; only a show's first person is
        # named on its page, so later persons need their career on their own.
        for i in range(self.n_shows, self.n_persons):
            if _career_on_show_page(i, self.show_gold_person_fraction):
                raise ValueError(f"n_persons must be at most {i} when n_shows is {self.n_shows}")
        if self.dev_supported and all(
            _career_on_show_page(i, self.show_gold_person_fraction) for i in range(self.n_persons)
        ):
            raise ValueError(f"n_persons ({self.n_persons}) leaves no person page to hold dev_supported gold")


@dataclass
class World:
    pages: list[dict]          # dump-format rows
    kb_rows: list[dict]
    train_rows: list[dict]
    dev_rows: list[dict]


def _person_names(n: int) -> list[str]:
    names = [f"{first} {last}" for last in _LAST_NAMES for first in _FIRST_NAMES]
    return names[:n]


def _town_names(n: int) -> list[str]:
    names = [f"{pre}{suf}" for pre in _TOWN_PREFIXES for suf in _TOWN_SUFFIXES]
    return names[:n]


def _page(page_id: str, sentences: list[str]) -> dict:
    lines = "\n".join(f"{i}\t{text}" for i, text in enumerate(sentences))
    return {"id": page_id, "lines": lines}


def _shuffled_page(
    page_id: str, roles: list[tuple[str, str]], rng: random.Random
) -> tuple[dict, dict[str, int]]:
    """Page of the (role, sentence) pairs in shuffled order, plus a map
    from sentence role to its line index.

    Line order is shuffled per page so position carries no signal.
    """
    rng.shuffle(roles)
    line_of = {role: i for i, (role, _) in enumerate(roles)}
    return _page(page_id, [text for _, text in roles]), line_of


def _person_page(
    name: str, index: int, show: str, town: str, career_on_show_page: bool, rng: random.Random
) -> tuple[dict, dict[str, int]]:
    """Person page and its role lines. When the person's career is
    documented on the show's page instead, no sentence states the role."""
    pronoun = "He" if index % 2 else "She"
    year = 1940 + (index % 45)
    roles = [
        ("bio", f"{name} is an actor from {town}."),
        ("mate", f"{pronoun} met the cast of {show} in {town}."),
        ("filmed", f"{pronoun} filmed the {show} finale near {town}."),
        ("praised", f"Critics praised the {show} cast in reviews."),
        ("born", f"{pronoun} was born in {year} near {town}."),
        ("works", f"{pronoun} works on independent shows these days."),
    ]
    if career_on_show_page:
        roles.append(("tour", f"{pronoun} tours with a theatre company each winter."))
    else:
        roles.append(("starred", f"{pronoun} starred in {show} for many years."))
    return _shuffled_page(name, roles, rng)


def _show_page(
    show: str, star: str, star_line: bool, network: str, rng: random.Random
) -> tuple[dict, dict[str, int]]:
    roles = [
        ("hot1", f"{show} is the popular hit sitcom in reruns."),
        ("hot2", f"The popular hit sitcom {show} is loved."),
        ("hot3", f"Fans call {show} the popular hit sitcom."),
        ("hot4", f"Critics rank the popular hit sitcom {show} first."),
        ("hot5", f"Viewers adore the popular hit sitcom {show}."),
        ("airs", f"{show} airs on {network} in the evening."),
    ]
    if star_line:
        roles.insert(0, ("stars", f"{star} starred in {show} for {network}."))
    else:
        roles.insert(0, ("origin", f"{show} began as a radio play years ago."))
    return _shuffled_page(show, roles, rng)


def _network_page(network: str, rng: random.Random) -> dict:
    sentences = [
        f"{network} is a national broadcaster of news.",
        f"Shows on {network} are only in reruns now.",
        f"Shows on {network} are only in prime time.",
        f"New shows on {network} are only in spring.",
        f"Night shows on {network} are only in winter.",
        f"Top shows on {network} are only in cities.",
        f"{network} broadcasts the evening news for the nation.",
    ]
    rng.shuffle(sentences)
    return _page(network, sentences)


def _town_page(town: str) -> dict:
    return _page(
        town,
        [
            f"{town} is a town in the green hills.",
            f"Markets in {town} open at dawn each day.",
            f"{town} holds a lantern festival every spring.",
        ],
    )


def _entity(entity_id: str, name: str, parent: str, relations: list[str]) -> dict:
    return {"id": entity_id, "name": name, "aliases": [name], "parents": [parent], "relations": relations}


def _claim_row(claim_id: int, label: str, text: str, page: Optional[str], line: Optional[int]) -> dict:
    """The one shape of a claim row; an NEI claim's gold is (None, None)."""
    return {
        "id": claim_id,
        "label": label,
        "claim": text,
        "evidence": [[[claim_id, claim_id * 10, page, line]]],
    }


def build_world(config: WorldConfig = WorldConfig()) -> World:
    """Build the world's pages, KB rows and claims from config.seed.

    Person i is on show i % n_shows, and show j airs on network
    j % n_networks. Since n_shows <= n_persons, show j's star (its first
    person) is person j. The rng draws the person, show and network
    pages in that order, then each claim kind's persons, train before dev.
    """
    rng = random.Random(config.seed)
    n_persons, n_shows, n_networks = config.n_persons, config.n_shows, config.n_networks
    persons = _person_names(n_persons)
    shows = list(_SHOW_NAMES[:n_shows])
    networks = list(_NETWORK_NAMES[:n_networks])
    towns = _town_names(config.n_towns)

    all_names = persons + shows + networks + towns
    if len(set(all_names)) != len(all_names):
        raise AssertionError("world name pools collide")

    fraction = config.show_gold_person_fraction
    on_show_page = [_career_on_show_page(i, fraction) for i in range(n_persons)]

    pages = []
    person_lines: list[dict[str, int]] = []
    show_lines: list[dict[str, int]] = []
    for i, person in enumerate(persons):
        page, line_of = _person_page(
            person, i, shows[i % n_shows], towns[i % len(towns)], on_show_page[i], rng
        )
        pages.append(page)
        person_lines.append(line_of)
    for j, show in enumerate(shows):
        page, line_of = _show_page(show, persons[j], on_show_page[j], networks[j % n_networks], rng)
        pages.append(page)
        show_lines.append(line_of)
    for network in networks:
        pages.append(_network_page(network, rng))
    for town in towns:
        pages.append(_town_page(town))

    kb_rows = []
    for i, person in enumerate(persons):
        kb_rows.append(_entity(f"P{i:03d}", person, "OCC_ACTOR", [f"S{i % n_shows:03d}"]))
    for j, show in enumerate(shows):
        cast = [f"P{i:03d}" for i in range(j, n_persons, n_shows)]
        kb_rows.append(_entity(f"S{j:03d}", show, "GENRE_SITCOM", cast + [f"N{j % n_networks}"]))
    for n, network in enumerate(networks):
        aired = [f"S{j:03d}" for j in range(n, n_shows, n_networks)]
        kb_rows.append(_entity(f"N{n}", network, "ORG_BROADCASTER", aired))
    kb_rows.append({"id": "OCC_ACTOR", "name": "Stage Actor", "aliases": [], "parents": [], "relations": []})
    kb_rows.append({"id": "GENRE_SITCOM", "name": "Television Sitcom", "aliases": [], "parents": [], "relations": []})
    kb_rows.append({"id": "ORG_BROADCASTER", "name": "Broadcast Network", "aliases": [], "parents": [], "relations": []})

    # Each claim kind maps person i to (label, text, gold page, gold line).
    def supported(i: int) -> tuple:
        show = shows[i % n_shows]
        text = f"{persons[i]} starred in the popular hit sitcom {show}."
        if on_show_page[i]:
            return "SUPPORTS", text, show, show_lines[i % n_shows]["stars"]
        return "SUPPORTS", text, persons[i], person_lines[i]["starred"]

    def supported_single(i: int) -> tuple:
        return "SUPPORTS", f"{persons[i]} is an actor.", persons[i], person_lines[i]["bio"]

    def refuted(i: int) -> tuple:
        # A network other than the person's own, so the claim names an unrelated entity.
        own = i % n_shows % n_networks
        others = networks[:own] + networks[own + 1 :]
        network = others[i % len(others)]
        text = f"{persons[i]} is only in shows on {network}."
        return "REFUTES", text, persons[i], person_lines[i]["works"]

    def refuted_single(i: int) -> tuple:
        wrong_year = 2001 + (i % 9)
        return "REFUTES", f"{persons[i]} was born in {wrong_year}.", persons[i], person_lines[i]["born"]

    def nei(i: int) -> tuple:
        return "NOT ENOUGH INFO", f"{persons[i]} is widely respected by critics.", None, None

    everyone = range(n_persons)
    # Dev two-entity supported claims stick to persons with person-page
    # gold so the adversarial set derived from them has one shape.
    person_gold = [i for i in everyone if not on_show_page[i]]

    def claim_rows(first_id: int, plan: list[tuple]) -> list[dict]:
        """Rows for each (kind, count, person pool) step of the plan; a
        kind draws all of its persons before the next kind draws."""
        rows = []
        for kind, count, pool in plan:
            for i in [pool[rng.randrange(len(pool))] for _ in range(count)]:
                rows.append(_claim_row(first_id + len(rows), *kind(i)))
        return rows

    train_rows = claim_rows(1000, [
        (supported, config.train_supported, everyone),
        (supported_single, config.train_supported_single, everyone),
        (refuted, config.train_refuted, everyone),
        (refuted_single, config.train_refuted_single, everyone),
        (nei, config.train_nei, everyone),
    ])
    dev_rows = claim_rows(2000, [
        (supported, config.dev_supported, person_gold),
        (supported_single, config.dev_supported_single, everyone),
        (refuted, config.dev_refuted, everyone),
        (refuted_single, config.dev_refuted_single, everyone),
        (nei, config.dev_nei, everyone),
    ])
    return World(pages=pages, kb_rows=kb_rows, train_rows=train_rows, dev_rows=dev_rows)


def write_world(world: World, out_dir: Union[str, Path]) -> dict[str, Path]:
    """Write corpus/, kb.jsonl, train.jsonl, dev.jsonl under out_dir."""
    out_dir = Path(out_dir)
    paths = {
        "corpus": out_dir / "corpus",
        "kb": out_dir / "kb.jsonl",
        "train": out_dir / "train.jsonl",
        "dev": out_dir / "dev.jsonl",
    }
    write_jsonl(paths["corpus"] / "pages.jsonl", world.pages)
    for key, rows in (("kb", world.kb_rows), ("train", world.train_rows), ("dev", world.dev_rows)):
        write_jsonl(paths[key], rows)
    return paths
