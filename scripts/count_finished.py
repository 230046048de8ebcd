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
0.05, k_docs 20), the vectors finished and the claims prepared in each
stage that reads claims through the extractor, from the run's stage log
(`run_experiment(config, stage_log)`), and the claim preparations
(`parse_query` calls through `features`) against the distinct claim
texts parsed; it exits with an error if the log's totals are not the
finishes and parses it counted itself. A vector is finished when `FeatureExtractor.finish`
computes it, for a sentence its claim's memo lacks; a call that returns
the memo's vector computes nothing. The counts are exact and repeat from
run to run.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from claimlab import experiment, features, selection
from claimlab.features import FeatureExtractor
from claimlab.worldgen import WorldConfig, build_world, write_world

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tiling  # noqa: E402
import workload  # noqa: E402


# The stages of a run that read claims through the extractor.
CLAIM_STAGES = ("train-selector", "select", "train-nli", "verdict")


def per_stage(log: list[dict], field: str) -> tuple[str, int]:
    """The stage log's field as per-stage increments over CLAIM_STAGES, and
    its total by the end of the run, which no other stage may add to."""
    increments, before = {}, 0
    for row in log:
        increments[row["stage"]] = row[field] - before
        before = row[field]
    if sum(increments[name] for name in CLAIM_STAGES) != before:
        raise SystemExit(f"a stage outside {CLAIM_STAGES} added {field}: {increments}")
    return ", ".join(f"{name} {increments[name]}" for name in CLAIM_STAGES), before


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1, help="WorldConfig seed")
    args = parser.parse_args()

    finished = [0]
    parsed: list[str] = []
    sigmoids = [0]
    finish, parse_query, sigmoid = FeatureExtractor.finish, features.parse_query, selection.sigmoid

    def counting_finish(self, claim, candidate):
        if candidate[0][0] not in claim.vectors:
            finished[0] += 1
        return finish(self, claim, candidate)

    def counting_sigmoid(z):
        sigmoids[0] += 1
        return sigmoid(z)

    def counting_parse_query(index, text):
        parsed.append(text)
        return parse_query(index, text)

    FeatureExtractor.finish = counting_finish
    features.parse_query = counting_parse_query
    selection.sigmoid = counting_sigmoid
    with tempfile.TemporaryDirectory() as work:
        paths = write_world(tiling.tiled_world(args.seed, workload.VERIFY_COPIES), Path(work) / "tiled")
        server, stream = workload.setup_verify(paths, args.seed)
        finished[0] = 0
        sigmoids[0] = 0
        candidates = 0
        for claim in stream:
            server.verify(claim)
            pages = dict.fromkeys(server.loaded.retriever.retrieve(claim.text))
            candidates += sum(len(server.loaded.corpus.documents[page].candidate_positions) for page in pages)
        served = finished[0]
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
        finished[0] = 0
        parsed.clear()
        stage_log = Path(work) / "stages.jsonl"
        experiment.run_experiment(config, stage_log)
        log = [json.loads(line) for line in stage_log.read_text(encoding="utf-8").splitlines()]
        vectors, total = per_stage(log, "vectors_finished")
        if total != finished[0]:
            raise SystemExit(f"the stage log counts {total} vectors finished, FeatureExtractor.finish {finished[0]}")
        print(f"default run on world seed {args.seed}: vectors finished per stage {vectors}; {total} in all")
        claims, total = per_stage(log, "claims_prepared")
        if total != len(parsed):
            raise SystemExit(f"the stage log counts {total} claims prepared, parse_query {len(parsed)}")
        print(f"default run on world seed {args.seed}: claims prepared per stage {claims}; "
              f"{total} for {len(set(parsed))} claim texts")


if __name__ == "__main__":
    main()
