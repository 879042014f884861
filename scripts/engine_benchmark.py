#!/usr/bin/env python3
"""Compare the exhaustive and propositional engines on random transition
systems of growing size, verifying they agree while timing both.

Usage:
    python scripts/engine_benchmark.py
    python scripts/engine_benchmark.py --sizes 4,8,12 --trials 20 --seed 7
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from boolsynth import check_essp, check_ssp, family_types
from conftest import random_ts


@dataclass
class Config:
    sizes: list[int] = field(default_factory=lambda: [4, 6, 8, 10])
    trials: int = 10
    seed: int = 0


def parse_args(argv: list[str] | None = None) -> Config:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default="4,6,8,10",
        help="comma-separated maximum state counts to benchmark",
    )
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    return Config(
        sizes=[int(s) for s in args.sizes.split(",")],
        trials=args.trials,
        seed=args.seed,
    )


def main(argv: list[str] | None = None) -> int:
    config = parse_args(argv)
    types = list(family_types())
    print(
        f"{'max states':<11} {'checks':<7} {'exhaustive':<11} {'sat':<9} "
        "disagreements"
    )
    for size in config.sizes:
        rng = random.Random(config.seed + size)
        subjects = [
            random_ts(rng, max_states=size, max_events=4)
            for _ in range(config.trials)
        ]
        timings = {"exhaustive": 0.0, "sat": 0.0}
        verdicts: dict[str, list] = {"exhaustive": [], "sat": []}
        checks = 0
        for engine in ("exhaustive", "sat"):
            started = time.monotonic()
            for ts in subjects:
                for tau in types:
                    for checker in (check_ssp, check_essp):
                        result = checker(ts, tau, engine=engine)
                        verdicts[engine].append(
                            (result.outcome, result.counterexample)
                        )
            timings[engine] = time.monotonic() - started
        checks = len(verdicts["exhaustive"])
        disagreements = sum(
            left != right
            for left, right in zip(verdicts["exhaustive"], verdicts["sat"])
        )
        print(
            f"{size:<11} {checks:<7} {timings['exhaustive']:<11.3f} "
            f"{timings['sat']:<9.3f} {disagreements}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
