"""Count the selection vectors a run computes, by wrapping the feature layer.

    PYTHONHASHSEED=0 PYTHONPATH=src python scripts/count_finished.py --seed 1

Prints, for bench's verify-8x stream on the given world seed (one pass,
each claim served as bench/workload.py serves it), the vectors finished
per served claim against the candidates per claim, the bound sigmoids
ranking takes per served claim (`util.sigmoid` calls through
`selection`), and the size of the extractor's page records after the
pass (set-up and pass together: the pages built and their (page, token)
entries) and the units that hold a stored pair side (negation cues and
numerals); then, for the default
run on the same world seed (experiment seed 1, 6 epochs, learning rate
0.05, k_docs 20), the vectors finished in each stage, and the
`FeatureExtractor.prepare_claim` calls in each stage against the distinct
claim texts prepared. A vector is finished when `FeatureExtractor.finish`
computes it, for a sentence its claim's memo lacks; a call that returns
the memo's vector computes nothing. The counts are exact and repeat from
run to run.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import tempfile
from collections import Counter
from pathlib import Path

from claimlab import experiment, selection
from claimlab.features import FeatureExtractor
from claimlab.worldgen import WorldConfig, build_world, write_world

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tiling  # noqa: E402
import workload  # noqa: E402


def per_stage(counts: Counter) -> str:
    return ", ".join(f"{name} {count}" for name, count in counts.items())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1, help="WorldConfig seed")
    args = parser.parse_args()

    stage = ["outside a stage"]
    finished: Counter = Counter()
    prepared: Counter = Counter()
    texts: set[str] = set()
    sigmoids = [0]
    finish, prepare_claim, stage_of = FeatureExtractor.finish, FeatureExtractor.prepare_claim, experiment._stage
    sigmoid = selection.sigmoid

    def counting_finish(self, claim, candidate):
        if candidate[0][0] not in claim.vectors:
            finished[stage[-1]] += 1
        return finish(self, claim, candidate)

    def counting_sigmoid(z):
        sigmoids[0] += 1
        return sigmoid(z)

    def counting_prepare_claim(self, claim_text):
        prepared[stage[-1]] += 1
        texts.add(claim_text)
        return prepare_claim(self, claim_text)

    @contextlib.contextmanager
    def named_stage(name):
        stage.append(name)
        try:
            with stage_of(name):
                yield
        finally:
            stage.pop()

    FeatureExtractor.finish = counting_finish
    FeatureExtractor.prepare_claim = counting_prepare_claim
    selection.sigmoid = counting_sigmoid
    experiment._stage = named_stage
    with tempfile.TemporaryDirectory() as work:
        paths = write_world(tiling.tiled_world(args.seed, workload.VERIFY_COPIES), Path(work) / "tiled")
        server, stream = workload.setup_verify(paths, args.seed)
        finished.clear()
        sigmoids[0] = 0
        candidates = 0
        for claim in stream:
            server.verify(claim)
            pages = dict.fromkeys(server.loaded.retriever.retrieve(claim.text))
            candidates += sum(len(server.loaded.corpus.documents[page].candidate_positions) for page in pages)
        served = finished.pop(stage[-1])
        print(f"verify-8x world seed {args.seed}: {len(stream)} claims served, {served} vectors finished, "
              f"{served / len(stream):.4f} per claim of {candidates / len(stream):.1f} candidates")
        print(f"verify-8x world seed {args.seed}: {sigmoids[0]} bound sigmoids taken, "
              f"{sigmoids[0] / len(stream):.4f} per served claim")
        pages = server.loaded.extractor._pages.values()
        print(f"verify-8x world seed {args.seed}: page store after the pass, {len(pages)} pages built, "
              f"{sum(len(store) for _, store, _, _ in pages)} (page, token) entries")
        print(f"verify-8x world seed {args.seed}: pair sides after the pass, "
              f"{sum(side is not None for _, _, _, sides in pages for side in sides)} units hold one")

        world = Path(work) / "world"
        write_world(build_world(WorldConfig(seed=args.seed)), world)
        config = experiment.ExperimentConfig(
            corpus=str(world / "corpus"),
            train_claims=str(world / "train.jsonl"),
            dev_claims=str(world / "dev.jsonl"),
            kb=str(world / "kb.jsonl"),
            out_dir=str(Path(work) / "bundle"),
            seed=1,
            epochs=6,
            learning_rate=0.05,
            k_docs=20,
        )
        prepared.clear()
        texts.clear()
        experiment.run_experiment(config)
        print(f"default run on world seed {args.seed}: vectors finished per stage {per_stage(finished)}; "
              f"{sum(finished.values())} in all")
        print(f"default run on world seed {args.seed}: prepare_claim calls per stage {per_stage(prepared)}; "
              f"{sum(prepared.values())} for {len(texts)} claim texts")


if __name__ == "__main__":
    main()
