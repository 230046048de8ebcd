"""Count the selection vectors a run computes, by wrapping the feature layer.

    PYTHONHASHSEED=0 PYTHONPATH=src python scripts/count_finished.py --seed 1

Prints, for bench's verify-8x stream on the given world seed (one pass,
each claim served as bench/workload.py serves it), the vectors finished
(`FeatureExtractor.finish` calls) per served claim against the candidates
per claim; then, for the default run on the same world seed (experiment
seed 1, 6 epochs, learning rate 0.05, k_docs 20), the vectors finished
in each stage. The counts are exact and repeat from run to run.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import tempfile
from collections import Counter
from pathlib import Path

from claimlab import experiment
from claimlab.features import FeatureExtractor
from claimlab.worldgen import WorldConfig, build_world, write_world

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tiling  # noqa: E402
import workload  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1, help="WorldConfig seed")
    args = parser.parse_args()

    stage = ["outside a stage"]
    finished: Counter = Counter()
    finish, stage_of = FeatureExtractor.finish, experiment._stage

    def counting_finish(self, claim, sentence):
        finished[stage[-1]] += 1
        return finish(self, claim, sentence)

    @contextlib.contextmanager
    def named_stage(name):
        stage.append(name)
        try:
            with stage_of(name):
                yield
        finally:
            stage.pop()

    FeatureExtractor.finish = counting_finish
    experiment._stage = named_stage
    with tempfile.TemporaryDirectory() as work:
        paths = write_world(tiling.tiled_world(args.seed, workload.VERIFY_COPIES), Path(work) / "tiled")
        server, stream = workload.setup_verify(paths, args.seed)
        finished.clear()
        candidates = 0
        for claim in stream:
            server.verify(claim)
            pages = dict.fromkeys(server.loaded.retriever.retrieve(claim.text))
            candidates += sum(len(server.loaded.corpus.documents[page].candidate_positions) for page in pages)
        served = finished.pop(stage[-1])
        print(f"verify-8x world seed {args.seed}: {len(stream)} claims served, {served} vectors finished, "
              f"{served / len(stream):.4f} per claim of {candidates / len(stream):.1f} candidates")

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
        experiment.run_experiment(config)
        print(f"default run on world seed {args.seed}: vectors finished per stage "
              + ", ".join(f"{name} {count}" for name, count in finished.items())
              + f"; {sum(finished.values())} in all")


if __name__ == "__main__":
    main()
