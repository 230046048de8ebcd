"""Generate a deterministic toy world (corpus, KB, claims) for experiments."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from claimlab.worldgen import WorldConfig, build_world, write_world


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--persons", type=int, default=60)
    parser.add_argument("--shows", type=int, default=60)
    parser.add_argument("--networks", type=int, default=8)
    parser.add_argument("--towns", type=int, default=72)
    args = parser.parse_args()

    try:
        config = WorldConfig(
            seed=args.seed,
            n_persons=args.persons,
            n_shows=args.shows,
            n_networks=args.networks,
            n_towns=args.towns,
        )
    except ValueError as exc:
        sys.exit(f"error: {exc}")
    world = build_world(config)
    paths = write_world(world, args.out)
    print(f"world written under {args.out}")
    print(f"  corpus: {paths['corpus']} ({len(world.pages)} pages)")
    print(f"  kb:     {paths['kb']} ({len(world.kb_rows)} entities)")
    print(f"  train:  {paths['train']} ({len(world.train_rows)} claims)")
    print(f"  dev:    {paths['dev']} ({len(world.dev_rows)} claims)")


if __name__ == "__main__":
    main()
