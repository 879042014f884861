"""Command-line front end.

Exit codes form a stable contract across all commands and engines:

* 0 — the queried property holds / the requested artifact was produced
* 1 — the property fails (a counterexample or ``UNSAT`` is printed)
* 2 — usage, file, or parse errors
* 3 — inconclusive within the given resource budget
* 4 — internal error: engine failure, self-verification mismatch, or a
  falsified construction guarantee (these should never happen)
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from . import fileformats as ff
from .interactions import NetType
from .nets import SynthesisError, is_isomorphic, reachability_graph, synthesize
from .reduction import (
    FalsificationError,
    build_instance,
    extract_model,
    solve_one_in_three,
    verify_inhibiting_region,
)
from .regions import Family, Region
from .solving import (
    CheckResult,
    EngineError,
    assign_witnesses,
    check_essp,
    check_feasibility,
    check_ssp,
)

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ff.FormatError(f"cannot read {path}: {exc.strerror}") from None


def _write_out(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ff.FormatError(f"cannot write {path}: {exc.strerror}") from None


def _emit_witnesses(
    path: str, subject, tau: NetType, result: CheckResult
) -> None:
    """Write the witness file of a check by the one witness path: one record
    per pooled region that settles a requirement no earlier one settles, in
    the order of its first requirement, written by ``ff.format_witnesses``
    from the coverage tracker's masks (``solving.assign_witnesses``)."""
    want_ssp = result.property_name in ("ssp", "feasible")
    want_essp = result.property_name in ("essp", "feasible")
    rows = assign_witnesses(
        subject, tau, result.regions, want_ssp=want_ssp, want_essp=want_essp
    )
    _write_out(ff.format_witnesses(subject, rows), path)


def _cmd_check(args: argparse.Namespace) -> int:
    subject = ff.parse_subject(_read(args.ts_file))
    tau = NetType.from_spec(args.type)
    checker = {
        "ssp": check_ssp,
        "essp": check_essp,
        "feasible": check_feasibility,
    }[args.property]
    result = checker(subject, tau, engine=args.engine, budget=args.budget)
    if args.witness:
        _emit_witnesses(args.witness, subject, tau, result)
    if result.outcome == "yes":
        print(f"{args.property}: yes")
        return EXIT_HOLDS
    return _report_unheld(args.property, result)


def _report_unheld(property_name: str, result: CheckResult) -> int:
    """Print a "no" verdict with its counterexample, or an "inconclusive"
    one with its reason; returns the exit code."""
    if result.outcome == "no":
        print(f"{property_name}: no")
        assert result.counterexample is not None
        print(f"counterexample: {ff.format_atom(result.counterexample)}")
        return EXIT_FAILS
    print(f"{property_name}: inconclusive ({result.reason})")
    return EXIT_INCONCLUSIVE


def _cmd_synth(args: argparse.Namespace) -> int:
    subject = ff.parse_ts(_read(args.ts_file))
    tau = NetType.from_spec(args.type)
    result = check_feasibility(
        subject, tau, engine=args.engine, budget=args.budget
    )
    if result.outcome != "yes":
        return _report_unheld("feasible", result)
    net = synthesize(subject, tau, result.regions)
    if is_isomorphic(reachability_graph(net), subject) is None:
        reachable = subject.reachable_states()
        unreachable = next((s for s in subject.states if s not in reachable), None)
        why = "" if unreachable is None else (
            f": input state {unreachable!r} is unreachable from its initial state"
        )
        print(
            "internal error: synthesized net's reachability graph is not "
            f"isomorphic to the input{why}",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    _write_out(ff.format_net(net), args.output)
    return EXIT_HOLDS


def _cmd_rg(args: argparse.Namespace) -> int:
    net = ff.parse_net(_read(args.net_file))
    _write_out(ff.format_ts(reachability_graph(net)), args.output)
    return EXIT_HOLDS


def _cmd_iso(args: argparse.Namespace) -> int:
    first = ff.parse_ts(_read(args.ts_a))
    second = ff.parse_ts(_read(args.ts_b))
    mapping = is_isomorphic(first, second)
    if mapping is None:
        print("not isomorphic")
        return EXIT_FAILS
    print("isomorphic")
    return EXIT_HOLDS


def _cmd_reduce(args: argparse.Namespace) -> int:
    cnf = ff.parse_cnf(_read(args.cnf_file))
    family = Family.FREE if args.sigma == 1 else Family.USED
    if args.family is not None:
        family = Family(args.family)
    instance = build_instance(cnf, family)
    if args.union:
        # gadget parts plus the role block, so the file stays interpretable
        text = ff.format_union(instance.union) + ff.format_roles(instance)
    else:
        text = ff.format_instance(instance)
    _write_out(text, args.output)
    return EXIT_HOLDS


def _cmd_solve13(args: argparse.Namespace) -> int:
    cnf = ff.parse_cnf(_read(args.cnf_file))
    model = solve_one_in_three(cnf)
    if model is None:
        print("UNSAT")
        return EXIT_FAILS
    print(" ".join(sorted(model)))
    return EXIT_HOLDS


def _infer_extract_type(family: Family, region: Region) -> NetType:
    used = frozenset(region.signature.values())
    for candidate in family.types():
        if used <= candidate.interactions:
            return candidate
    return family.base_type


def _cmd_extract(args: argparse.Namespace) -> int:
    records = ff.parse_witnesses(_read(args.witness_file))
    instance = ff.parse_instance(_read(args.instance_file))
    target = instance.target_atom
    relevant = []
    for record in records:
        if record.atoms:
            if target in record.atoms:
                relevant.append(record.region)
        else:
            try:
                if record.region.inhibits(target.event, target.state):
                    relevant.append(record.region)
            except KeyError:
                continue
    if not relevant:
        print(
            "no witness record inhibits "
            f"{target.event} at {target.state}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    override = NetType.from_spec(args.type) if args.type else None
    for region in relevant:
        tau = override or _infer_extract_type(instance.family, region)
        report = verify_inhibiting_region(instance, tau, region)
        if not report.ok:
            print("witness fails the construction's forced-shape checks:",
                  file=sys.stderr)
            for violation in report.violations:
                print(f"  {violation}", file=sys.stderr)
            return EXIT_INTERNAL
        model = extract_model(instance, region)
        print(" ".join(sorted(model)))
    return EXIT_HOLDS


@functools.cache  # parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolsynth",
        description=(
            "Decide state/event separation for boolean net types, "
            "synthesize nets from transition systems, and generate "
            "hardness instances from one-in-three formulas."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_engine_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--engine",
            choices=("exhaustive", "sat", "auto"),
            default="auto",
            help="decision engine (auto: exhaustive up to 16 states)",
        )
        p.add_argument(
            "--budget",
            type=float,
            default=None,
            metavar="SECONDS",
            help="soft time budget; exceeding it exits 3 (inconclusive)",
        )

    p_check = sub.add_parser("check", help="decide ssp / essp / feasibility")
    p_check.add_argument("property", choices=("ssp", "essp", "feasible"))
    p_check.add_argument("ts_file")
    p_check.add_argument("--type", required=True, metavar="LIST",
                         help="net type, e.g. nop,set,swap,free")
    add_engine_flags(p_check)
    p_check.add_argument("--witness", metavar="PATH",
                         help="write per-requirement witness records here")
    p_check.set_defaults(func=_cmd_check)

    p_synth = sub.add_parser("synth", help="synthesize a net (self-verified)")
    p_synth.add_argument("ts_file")
    p_synth.add_argument("--type", required=True, metavar="LIST")
    add_engine_flags(p_synth)
    p_synth.add_argument("-o", "--output", metavar="PATH", default=None)
    p_synth.set_defaults(func=_cmd_synth)

    p_rg = sub.add_parser("rg", help="reachability graph of a net")
    p_rg.add_argument("net_file")
    p_rg.add_argument("-o", "--output", metavar="PATH", default=None)
    p_rg.set_defaults(func=_cmd_rg)

    p_iso = sub.add_parser("iso", help="isomorphism of two transition systems")
    p_iso.add_argument("ts_a")
    p_iso.add_argument("ts_b")
    p_iso.set_defaults(func=_cmd_iso)

    p_reduce = sub.add_parser(
        "reduce", help="compile a one-in-three formula to an instance"
    )
    p_reduce.add_argument("cnf_file")
    group = p_reduce.add_mutually_exclusive_group(required=True)
    group.add_argument("--sigma", type=int, choices=(1, 2))
    group.add_argument("--family", choices=("free", "used"))
    p_reduce.add_argument("--union", action="store_true",
                          help="write the gadget parts instead of gluing them")
    p_reduce.add_argument("-o", "--output", metavar="PATH", default=None)
    p_reduce.set_defaults(func=_cmd_reduce)

    p_solve = sub.add_parser("solve13", help="one-in-three satisfiability")
    p_solve.add_argument("cnf_file")
    p_solve.set_defaults(func=_cmd_solve13)

    p_extract = sub.add_parser(
        "extract", help="recover a model from an inhibiting witness"
    )
    p_extract.add_argument("witness_file")
    p_extract.add_argument("instance_file")
    p_extract.add_argument("--type", metavar="LIST", default=None,
                           help="verify against this type (default: inferred)")
    p_extract.set_defaults(func=_cmd_extract)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (EngineError, FalsificationError, SynthesisError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ff.FormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
