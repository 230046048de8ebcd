"""Distraction-robustness experiment over the generated toy world.

Trains every selection regime on the fixture corpus, evaluates each on
the original dev claims and on the synthetic adversarial claims, and
checks the directional orderings over several seeds (as
claimlab.evaluation.orderings defines them):
  a) refuted-only training makes no more refuted mistakes than baseline,
  b) supported-only makes no more supported mistakes than baseline,
  c) aggregating the two single-sided models matches or beats baseline
     recall on dev,
  d-e) augmented training matches or beats baseline on the adversarial
     claims, in recall and in refuted mistakes.
An ordering over a set with no verifiable claim prints n/a and is not
counted as passing.
"""

from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from claimlab.evaluation import format_report_row, orderings
from claimlab.experiment import ExperimentConfig, run_experiment
from claimlab.worldgen import WorldConfig, build_world, write_world

_OUTCOMES = {True: "ok", False: "VIOLATED", None: "n/a"}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=None, help="artifact directory (default: temp)")
    parser.add_argument("--world-seed", type=int, default=13)
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated experiment seeds")
    parser.add_argument("--epochs", type=int, default=6)
    parser.add_argument("--learning-rate", type=float, default=0.05)
    args = parser.parse_args()

    out = args.out or Path(tempfile.mkdtemp(prefix="robustness-"))
    world_dir = out / "world"
    paths = write_world(build_world(WorldConfig(seed=args.world_seed)), world_dir)

    seeds = [int(s) for s in args.seeds.split(",")]
    checks: dict[str, int] = {}
    for seed in seeds:
        config = ExperimentConfig(
            corpus=str(paths["corpus"]),
            train_claims=str(paths["train"]),
            dev_claims=str(paths["dev"]),
            kb=str(paths["kb"]),
            out_dir=str(out / f"seed{seed}"),
            seed=seed,
            epochs=args.epochs,
            learning_rate=args.learning_rate,
        )
        report = run_experiment(config)

        print(f"=== seed {seed}")
        for row in report["rows"]:
            print(format_report_row(row))

        outcomes = orderings(report)
        for key, ok in outcomes.items():
            checks[key] = checks.get(key, 0) + (ok is True)
        print("orderings:", " ".join(f"{k}={_OUTCOMES[ok]}" for k, ok in outcomes.items()))

    print()
    print(f"seeds passing each ordering (of {len(seeds)}):", checks)
    print(f"artifacts under {out}")


if __name__ == "__main__":
    main()
