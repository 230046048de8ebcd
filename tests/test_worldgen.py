import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import claimlab
from claimlab.claims import Label, load_claims
from claimlab.corpus import ingest_corpus
from claimlab.kb import KnowledgeBase, link_entities
from claimlab.util import sha256_files
from claimlab.worldgen import WorldConfig, build_world, write_world


def test_default_world_shape(tmp_path):
    config = WorldConfig()
    world = build_world(config)
    paths = write_world(world, tmp_path)
    corpus = ingest_corpus(paths["corpus"])
    assert len(corpus) == config.n_persons + config.n_shows + config.n_networks + config.n_towns
    train = load_claims(paths["train"])
    dev = load_claims(paths["dev"])
    assert len(train) == 100
    assert len(dev) == 126
    kb = KnowledgeBase.load(paths["kb"])
    assert len(kb.entities) == config.n_persons + config.n_shows + config.n_networks + 3


def test_world_is_deterministic():
    first = build_world(WorldConfig(seed=9))
    second = build_world(WorldConfig(seed=9))
    assert json.dumps(first.pages) == json.dumps(second.pages)
    assert first.train_rows == second.train_rows
    assert first.dev_rows == second.dev_rows


def test_gold_evidence_resolves_and_claims_link(tmp_path):
    paths = write_world(build_world(WorldConfig()), tmp_path)
    corpus = ingest_corpus(paths["corpus"])
    kb = KnowledgeBase.load(paths["kb"])
    for claim in load_claims(paths["train"]) + load_claims(paths["dev"]):
        for group in claim.evidence_groups:
            for sid in group:
                assert corpus.get_sentence(sid) is not None, claim
        if claim.label is not Label.NOT_ENOUGH_INFO and "sitcom" in claim.text:
            assert len(link_entities(claim.text, kb)) == 2


def test_dev_two_entity_supported_have_person_page_gold(tmp_path):
    paths = write_world(build_world(WorldConfig()), tmp_path)
    dev = load_claims(paths["dev"])
    for claim in dev:
        if claim.label is Label.SUPPORTED and "sitcom" in claim.text:
            gold_page = claim.evidence_groups[0][0].page_id
            assert claim.text.startswith(gold_page)


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"n_persons": 0}, "n_persons"),
        ({"n_persons": 200}, "n_persons"),
        ({"n_shows": 0}, "n_shows"),
        ({"n_shows": 120}, "n_shows"),
        ({"n_networks": 1}, "n_networks"),
        ({"n_networks": 9}, "n_networks"),
        ({"n_towns": 0}, "n_towns"),
        ({"n_towns": 73}, "n_towns"),
        ({"n_persons": 59}, "n_shows"),
        ({"n_persons": 66}, "n_persons"),
        ({"n_persons": 2, "n_shows": 2}, "n_persons"),
        ({"train_supported": -3}, "train_supported"),
        ({"dev_nei": -1}, "dev_nei"),
        ({"show_gold_person_fraction": -0.5}, "show_gold_person_fraction"),
        ({"show_gold_person_fraction": float("nan")}, "show_gold_person_fraction"),
        ({"show_gold_person_fraction": float("inf")}, "show_gold_person_fraction"),
        # Types are checked first: a string seed would build another world.
        ({"seed": "1"}, "seed must be an integer"),
        ({"dev_nei": True}, "dev_nei must be an integer"),
        ({"n_towns": 2.5}, "n_towns must be an integer"),
        ({"show_gold_person_fraction": "0.2"}, "show_gold_person_fraction must be a number"),
    ],
)
def test_unhonourable_config_rejected(overrides, field):
    with pytest.raises(ValueError, match=field):
        WorldConfig(**overrides)


def test_make_world_script_rejects_unhonourable_config(tmp_path):
    """The script reports the offending field and exits 1, writing nothing."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_world.py"
    env = {**os.environ, "PYTHONPATH": str(Path(claimlab.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, str(script), "--persons", "0", "--out", str(tmp_path / "w")],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 1
    assert "n_persons" in result.stderr
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize(
    "config, digest",
    [
        (WorldConfig(), "a7c6c2fa9a043afdef6de898dc71c90c605083296bada0cd29a9c04fc28d0ac6"),
        (WorldConfig(seed=1), "4c0eb297f70b7083cc7a98dda694ef72ccbf38b417334e4c063cfb42be492a39"),
        (
            WorldConfig(
                seed=2, n_shows=40, n_networks=3, n_towns=20, show_gold_person_fraction=0.0
            ),
            "ac36a811e89fc8336a8f68812633536bf9b5f82c1f68a6fc294221367f0ddf9b",
        ),
    ],
)
def test_world_bytes_pinned(tmp_path, config, digest):
    """The generator's output is fixed byte for byte across versions and Pythons."""
    paths = write_world(build_world(config), tmp_path)
    files = [paths["corpus"] / "pages.jsonl", paths["kb"], paths["train"], paths["dev"]]
    assert sha256_files(files) == digest
