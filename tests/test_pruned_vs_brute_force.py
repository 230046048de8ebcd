"""The whole pipeline, pruned, against its brute-force definition.

Every ranker the stages call is exact but pruned: `IndexScorer.top_k`
(MaxScore, per-token slots, best-first slot reads) for document
retrieval and negative sampling, and `selection.rank_candidates` (the
held pass and the best-first ceiling walk) for evidence selection. Each
layer has its own unit tests; this one runs `run_experiment` twice per
generated world and compares the bundles byte for byte:

- once as the package runs it;
- once with `IndexScorer.top_k` replaced by `top_k_scored` over
  `scores()` of every unit sharing a token with the query, and
  `rank_candidates` replaced by `selection_vectors` of every candidate,
  on an extractor and claim of its own, and then `top_k` per model.

The pruned side must compute fewer selection vectors than the reference
side, so the two sides cannot silently run the same path.
"""

from pathlib import Path

import pytest

from claimlab import experiment as experiment_module
from claimlab.corpus import IndexScorer, top_k_scored
from claimlab.experiment import ExperimentConfig, run_experiment
from claimlab.features import FeatureExtractor
from claimlab.selection import top_k
from claimlab.worldgen import WorldConfig, build_world, write_world

from conftest import record_computed


def brute_top_k(self, query, k):
    """top_k_scored over the cosine of every unit sharing a token with the query."""
    units = dict.fromkeys(unit for _, _, _, postings in query.terms for unit in postings)
    return top_k_scored(self.scores(query, list(units)), k)


def brute_rank_candidates(models, extractor, claim, candidate_pages, corpus, k):
    """Each model's top_k over the selection vector of every candidate
    sentence, each computed on an extractor of its own."""
    documents = [corpus.documents[page] for page in dict.fromkeys(candidate_pages) if page in corpus.documents]
    own = FeatureExtractor(extractor.index)
    full = own.selection_vectors(own.prepare_claim(claim.text), [(doc, doc.candidate_positions) for doc in documents])
    return [top_k(model, full, k) for model in models]


def bundle_bytes(out_dir):
    out_dir = Path(out_dir)
    return {path.relative_to(out_dir).as_posix(): path.read_bytes() for path in sorted(out_dir.rglob("*")) if path.is_file()}


def counted_run(monkeypatch, config):
    """The bundle files of one run and the selection vectors it computed."""
    computed = record_computed(monkeypatch)
    run_experiment(config)
    return bundle_bytes(config.out_dir), len(computed)


@pytest.mark.parametrize(
    "world_seed, overrides",
    [
        (2, {}),
        (3, {"k_sentences": 1}),
        (4, {"k_sentences": 10}),
        (13, {"regimes": ("ref", "sr")}),
    ],
)
def test_pruned_pipeline_equals_brute_force(tmp_path, monkeypatch, world_seed, overrides):
    world = tmp_path / "world"
    write_world(build_world(WorldConfig(seed=world_seed)), world)
    settings = dict(
        corpus=str(world / "corpus"),
        train_claims=str(world / "train.jsonl"),
        dev_claims=str(world / "dev.jsonl"),
        kb=str(world / "kb.jsonl"),
        seed=1,
        **overrides,
    )
    pruned, pruned_finished = counted_run(monkeypatch, ExperimentConfig(out_dir=str(tmp_path / "pruned"), **settings))

    monkeypatch.setattr(IndexScorer, "top_k", brute_top_k)
    monkeypatch.setattr(experiment_module, "rank_candidates", brute_rank_candidates)
    brute, brute_finished = counted_run(monkeypatch, ExperimentConfig(out_dir=str(tmp_path / "brute"), **settings))

    assert sorted(pruned) == sorted(brute)
    assert len(pruned) > 10
    for name in sorted(pruned):
        assert pruned[name] == brute[name], name
    assert 0 < pruned_finished < brute_finished
