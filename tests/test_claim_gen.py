import pytest

from claimlab.claim_gen import (
    generate_augmentation_set,
    generate_false_claim,
    synthetic_to_claim,
)
from claimlab.claims import Label, load_claims, save_claims
from claimlab.kb import link_entities

from conftest import make_claim


@pytest.fixture
def galecki_claim():
    return make_claim(
        10,
        Label.SUPPORTED,
        "Johnny Galecki acted in The Big Bang Theory on CBS.",
        [[("Johnny_Galecki", 1)]],
    )


def test_second_entity_replaced_with_sibling(tv_kb, galecki_claim):
    synthetic = generate_false_claim(galecki_claim, tv_kb, rng_seed=0)
    assert synthetic is not None
    # The Big Bang Theory's only sibling in the fixture KB is Friends.
    assert synthetic.text == "Johnny Galecki acted in Friends on CBS."
    assert synthetic.label is Label.REFUTED
    assert synthetic.replaced_entity_id == "S01"
    assert synthetic.replacement_entity_id == "S02"
    assert synthetic.evidence == galecki_claim.evidence


def test_single_entity_claim_yields_none(tv_kb):
    claim = make_claim(11, Label.SUPPORTED, "Johnny Galecki is an actor.", [[("Johnny_Galecki", 0)]])
    assert generate_false_claim(claim, tv_kb, rng_seed=0) is None


def test_second_entity_without_siblings_yields_none(tv_kb):
    claim = make_claim(
        12, Label.SUPPORTED, "Stan Beeman is in The Americans.", [[("Stan_Beeman", 0)]]
    )
    assert generate_false_claim(claim, tv_kb, rng_seed=0) is None


def test_non_supported_claim_rejected(tv_kb, galecki_claim):
    refuted = make_claim(13, Label.REFUTED, galecki_claim.text, [[("Johnny_Galecki", 1)]])
    with pytest.raises(ValueError):
        generate_false_claim(refuted, tv_kb, rng_seed=0)


def test_text_identical_outside_replaced_span(tv_kb, galecki_claim):
    synthetic = generate_false_claim(galecki_claim, tv_kb, rng_seed=3)
    mention = link_entities(galecki_claim.text, tv_kb)[1]
    assert synthetic.text[: mention.start] == galecki_claim.text[: mention.start]
    assert synthetic.text.endswith(galecki_claim.text[mention.end :])


class TestAugmentationSet:
    def make_claims(self):
        rows = [
            make_claim(1, Label.SUPPORTED, "Johnny Galecki acted in The Big Bang Theory on CBS.", [[("J", 0)]]),
            make_claim(2, Label.SUPPORTED, "Johnny Galecki is an actor.", [[("J", 1)]]),
            make_claim(3, Label.REFUTED, "Stan Beeman is only in shows on BBC.", [[("S", 0)]]),
            make_claim(4, Label.NOT_ENOUGH_INFO, "Stan Beeman is respected."),
            make_claim(5, Label.SUPPORTED, "Stan Beeman stars in The Americans.", [[("S", 1)]]),
        ]
        return rows

    def test_only_eligible_supported_claims_yield(self, tv_kb):
        synthetics = generate_augmentation_set(self.make_claims(), tv_kb, seed=1)
        # claim 1: two mentions with a sibling; claim 2: single mention;
        # claim 5: second entity has no sibling; 3 and 4 are not supported.
        assert [s.source_claim_id for s in synthetics] == [1]

    def test_empty_input(self, tv_kb):
        assert generate_augmentation_set([], tv_kb, seed=1) == []

    def test_same_seed_identical(self, tv_kb):
        first = generate_augmentation_set(self.make_claims(), tv_kb, seed=9)
        second = generate_augmentation_set(self.make_claims(), tv_kb, seed=9)
        assert first == second

    def test_yield_bounded_by_multi_mention_supported(self, tv_kb):
        claims = self.make_claims()
        synthetics = generate_augmentation_set(claims, tv_kb, seed=2)
        eligible = sum(
            1
            for c in claims
            if c.label is Label.SUPPORTED and len(link_entities(c.text, tv_kb)) >= 2
        )
        assert len(synthetics) <= eligible


def test_round_trip_file(tmp_path, tv_kb, galecki_claim):
    synthetics = generate_augmentation_set([galecki_claim], tv_kb, seed=5)
    path = tmp_path / "synthetic.jsonl"
    save_claims(path, map(synthetic_to_claim, synthetics))
    loaded = load_claims(path)
    assert len(loaded) == 1
    claim = loaded[0]
    assert claim.label is Label.REFUTED
    assert claim.extra["source_claim_id"] == galecki_claim.claim_id
    assert claim.extra["replaced"] == "S01"
    assert claim.evidence_groups() == galecki_claim.evidence_groups()
    assert claim.claim_id != galecki_claim.claim_id


def test_synthetic_to_claim_offsets_id(tv_kb, galecki_claim):
    synthetic = generate_false_claim(galecki_claim, tv_kb, rng_seed=0)
    claim = synthetic_to_claim(synthetic)
    assert claim.claim_id == galecki_claim.claim_id + 10_000_000
    assert claim.label is Label.REFUTED
