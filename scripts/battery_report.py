#!/usr/bin/env python3
"""Decide state separation and event/state separation for the four built-in
example systems across net types, and print the verdict table.

Usage:
    python scripts/battery_report.py                  # 5 family types
    python scripts/battery_report.py --all-types      # all 255 usable types
    python scripts/battery_report.py --type nop,set,swap,free
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from boolsynth import NetType, all_net_types, check_essp, check_ssp, family_types
from conftest import build_battery


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--all-types", action="store_true", help="sweep all 255 usable net types"
    )
    group.add_argument(
        "--type", metavar="SPEC", help="a single comma-separated net type"
    )
    parser.add_argument(
        "--engine", default="auto", choices=("auto", "exhaustive", "sat")
    )
    args = parser.parse_args(argv)
    if args.all_types:
        types = list(all_net_types())
    elif args.type:
        types = [NetType.from_spec(args.type)]
    else:
        types = family_types()
    battery = build_battery()
    started = time.monotonic()
    print(f"{'type':<34} {'example':<8} {'ssp':<4} {'essp':<5} counterexample")
    tallies = {("yes", "yes"): 0, ("yes", "no"): 0, ("no", "yes"): 0, ("no", "no"): 0}
    for tau in types:
        for name, ts in battery.items():
            ssp = check_ssp(ts, tau, engine=args.engine)
            essp = check_essp(ts, tau, engine=args.engine)
            tallies[(ssp.outcome, essp.outcome)] += 1
            cex = ssp.counterexample or essp.counterexample
            print(
                f"{tau.spec():<34} {name:<8} {ssp.outcome:<4} {essp.outcome:<5} "
                f"{cex if cex is not None else '-'}"
            )
    elapsed = time.monotonic() - started
    print(
        f"\n{len(types)} types x {len(battery)} examples in {elapsed:.2f}s; "
        "verdict counts (ssp, essp): "
        + ", ".join(f"{k}={v}" for k, v in tallies.items())
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
