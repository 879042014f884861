#!/usr/bin/env python3
"""Build hardness instances from one-in-three formulas and time the target
decision per family type, cross-checking every answer against the
brute-force formula solver.

Usage:
    python scripts/reduction_experiment.py                   # built-in formulas
    python scripts/reduction_experiment.py --cnf formula.cnf
    python scripts/reduction_experiment.py --enumerate 5     # also list regions
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from boolsynth import (
    PHI_SAT,
    PHI_UNSAT,
    CubicCnf,
    Family,
    build_instance,
    enumerate_inhibiting_regions,
    extract_model,
    grade,
    solve_atom,
    solve_one_in_three,
    verify_inhibiting_region,
)
from boolsynth.fileformats import parse_cnf


@dataclass
class Config:
    formulas: list[tuple[str, CubicCnf]]
    enumerate_limit: int = 0


def parse_args(argv: list[str] | None = None) -> Config:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--cnf", metavar="FILE", help="read the formula from a cnf13 file"
    )
    parser.add_argument(
        "--enumerate",
        type=int,
        default=0,
        metavar="N",
        help="also enumerate and verify N inhibiting regions per type",
    )
    args = parser.parse_args(argv)
    if args.cnf:
        formulas = [(args.cnf, parse_cnf(Path(args.cnf).read_text()))]
    else:
        formulas = [("phi-sat", PHI_SAT), ("phi-unsat", PHI_UNSAT)]
    return Config(formulas=formulas, enumerate_limit=args.enumerate)


def main(argv: list[str] | None = None) -> int:
    config = parse_args(argv)
    for label, cnf in config.formulas:
        oracle = solve_one_in_three(cnf)
        print(
            f"\n== {label}: {len(cnf.clauses)} clauses, "
            f"{len(cnf.variables)} variables, "
            f"brute-force: {'model ' + str(sorted(oracle)) if oracle else 'UNSAT'}"
        )
        for family in (Family.FREE, Family.USED):
            inst = build_instance(cnf, family)
            header = (
                f"  family={family.name.lower():<4} "
                f"states={len(inst.ts.states)} events={len(inst.ts.events)} "
                f"grade={grade(inst.ts)}"
            )
            print(header)
            for tau in family.types():
                started = time.monotonic()
                region = solve_atom(inst.ts, tau, inst.target_atom, engine="sat")
                elapsed = time.monotonic() - started
                if region is None:
                    agrees = oracle is None
                    print(
                        f"    {tau.spec():<34} uninhibitable  "
                        f"{elapsed:7.2f}s  oracle-agrees={agrees}"
                    )
                else:
                    verified = verify_inhibiting_region(inst, tau, region).ok
                    model = extract_model(inst, region)
                    agrees = oracle is not None and cnf.is_model(model)
                    print(
                        f"    {tau.spec():<34} model={sorted(model)!s:<18} "
                        f"{elapsed:7.2f}s  verified={verified} "
                        f"oracle-agrees={agrees}"
                    )
                if config.enumerate_limit and region is not None:
                    regions = enumerate_inhibiting_regions(
                        inst.ts,
                        tau,
                        inst.roles.target_event,
                        inst.roles.target_state,
                        limit=config.enumerate_limit,
                        engine="sat",
                    )
                    models = {frozenset(extract_model(inst, r)) for r in regions}
                    print(
                        f"      {len(regions)} regions enumerated, "
                        f"{len(models)} distinct models"
                    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
