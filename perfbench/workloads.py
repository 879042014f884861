"""The four benchmark workloads.

Each workload function takes the seed, a scratch directory and the nets
``draw_nets`` found for it, generates its inputs there, and returns the ops
of one pass. An op is one CLI command or one library decision; its ``run``
is the only timed code. Each timed run's outcome is reduced to its
``fingerprint`` at once and dropped. ``check`` is the full oracle for the
op's outcome, run on an untimed rerun after the timed passes, whose
fingerprint must match theirs.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import boolsynth as bs
from boolsynth import cli
from boolsynth import fileformats as ff

import generators as gen
from generators import EFFECT

#: The five family types, in the order of ``boolsynth.family_types()``.
FAMILY_SPECS = (
    "nop,set,swap,free", "nop,set,swap,used", "nop,set,res,swap,used",
    "nop,set,swap,used,free", "nop,set,res,swap,used,free",
)
#: Random nets each workload draws before its set-up: (type, places, low,
#: high). 128 reachable markings is one of the commonest sizes of the
#: 10-place nets; the sweep nets sit on both sides of the 16-state cutoff.
NET_SHAPES = {
    "synth": tuple((FAMILY_SPECS[k % 5], 10, 128, 128) for k in range(40)),
    "sweep": tuple(
        (FAMILY_SPECS[k % 5], places, low, high)
        for k, (places, low, high) in enumerate(
            ((4, 8, 10), (5, 10, 12), (5, 10, 12), (6, 17, 24), (6, 24, 32), (7, 32, 48))
        )
    ),
}


def draw_nets(name: str, seed: int) -> list:
    """The net recipes of a workload, searched for with the benchmark's
    own reachability count; run once, before the timed set-up."""
    rng = random.Random(f"nets/{seed}")
    return [gen.search_net(rng, *shape) for shape in NET_SHAPES.get(name, ())]


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    fingerprint: Callable[[Any], Any]
    regions: Callable[[Any], int]


@dataclass
class Workload:
    ops: list[Op]
    inputs: dict = field(default_factory=dict)
    # Checks over the fingerprints of a whole pass, returning (op index,
    # message) per failure.
    pass_check: Callable[[list], list[tuple[int, str]]] = lambda prints: []


# ------------------------------------------------------------------ helpers


def _cli(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run() -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    return run


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"


def _span(values) -> str:
    values = list(values)
    return f"{min(values)}-{max(values)}" if values else "-"


def _admissible(subject, support: dict, signature: dict) -> bool:
    """Region definition checked arc by arc with the local ``EFFECT``."""
    return all(
        EFFECT[signature[arc.event].value][support[arc.source]] == support[arc.target]
        for arc in subject.arcs
    )


def requirements(subject, want_ssp: bool, want_essp: bool) -> set:
    """Every separation requirement of ``subject``, as atom keys."""
    found = set()
    if want_ssp:
        for member in getattr(subject, "members", (subject,)):
            states = member.states
            for i in range(len(states)):
                for j in range(i + 1, len(states)):
                    found.add(("sp", states[i], states[j]))
    if want_essp:
        enabled = {(arc.source, arc.event) for arc in subject.arcs}
        for event in subject.events:
            for state in subject.states:
                if (state, event) not in enabled:
                    found.add(("essp", event, state))
    return found


def _atom_key(atom) -> tuple:
    if isinstance(atom, bs.StatePairAtom):
        return ("sp", atom.first, atom.second)
    return ("essp", atom.event, atom.state)


def _is_one_in_three(cnf, model) -> bool:
    return all(sum(v in model for v in clause) == 1 for clause in cnf.clauses)


# ----------------------------------------------------------------- hardness


def hardness(seed: int, work: Path, nets: list) -> Workload:
    """Target-atom decisions on glued one-in-three instances."""
    rng = random.Random(seed)
    formulas = [("phi_sat", bs.PHI_SAT), ("phi_unsat", bs.PHI_UNSAT)]
    # m = 3 is always satisfiable, m = 4 and 5 never (a model takes m/3
    # variables). The counts keep the 50th and 75th percentile ops inside
    # groups of similar cost, so seeds move them little.
    for m, count in ((3, 12), (4, 11), (5, 3)):
        for k in range(count):
            formulas.append((f"m{m}.{k}", gen.cubic_formula(rng, m)))
    ops = []
    for label, cnf in formulas:
        for family in (bs.Family.FREE, bs.Family.USED):
            tau = family.base_type
            ops.append(_hardness_op(f"{label}/{tau.spec()}", cnf, family, tau))
    return Workload(ops, {"clauses": _span(len(c.clauses) for _, c in formulas)})


def _hardness_op(label, cnf, family, tau) -> Op:
    def run():
        instance = bs.build_instance(cnf, family)
        region = bs.solve_atom(instance.ts, tau, instance.target_atom, engine="sat")
        if region is None:
            return instance, None, None, None
        report = bs.verify_inhibiting_region(instance, tau, region)
        return instance, region, report.ok, bs.extract_model(instance, region)

    def check(outcome) -> Optional[str]:
        instance, region, verified, model = outcome
        m = len(cnf.clauses)
        if math.comb(m, m // 3) > 100_000:
            return f"{m} clauses is too many for the brute-force oracle"
        oracle = bs.solve_one_in_three(cnf)
        if (region is None) != (oracle is None):
            return f"decision {region is not None} but oracle says {oracle is not None}"
        if region is not None:
            if not verified:
                return "region fails verify_inhibiting_region"
            if not _is_one_in_three(cnf, model):
                return f"extracted {sorted(model)} is not a one-in-three model"
            if not _admissible(instance.ts, region.support, region.signature):
                return "region is not admissible"
        return None

    def fingerprint(outcome):
        _, region, verified, model = outcome
        key = region.key() if region is not None else None
        return key, verified, tuple(sorted(model)) if model is not None else None

    return Op(label, run, check, fingerprint, lambda o: int(o[1] is not None))


# ------------------------------------------------------------------ witness


def witness(seed: int, work: Path, nets: list) -> Workload:
    """``check feasible --engine sat --witness`` on gadget unions."""
    rng = random.Random(seed)
    unions = {}
    for label, cnf in (("phi_sat", bs.PHI_SAT), ("phi_unsat", bs.PHI_UNSAT)):
        cnf_path = work / f"{label}.cnf"
        cnf_path.write_text(ff.format_cnf(cnf))
        for family in ("free", "used"):
            if label == "phi_unsat" and family == "used":
                continue
            path = work / f"{label}_{family}.ts"
            code, _ = _cli(["reduce", "--family", family, "--union", "-o", str(path), str(cnf_path)])()
            if code != 0:
                raise RuntimeError(f"reduce exited {code} on {label}/{family}")
            unions[(label, family)] = ff.parse_subject(path.read_text())
    full = unions[("phi_unsat", "free")]
    tau_free = bs.Family.FREE.base_type
    ops = [
        _witness_op(
            "phi_unsat/free", work / "phi_unsat_free.ts", full, tau_free,
            1, "counterexample: essp k h_0_2",
        )
    ]
    subjects = [full]
    # Every part of the PHI_SAT union is feasible (a region of the whole
    # union restricts to a region of any subset of its members), so these
    # must all exit 0 with a witness file covering every requirement.
    # Each part takes one of a few fixed recipes of gadget kinds from the
    # members around one clause, so seeds change which members meet, not
    # how many of each kind or how tightly they share events.
    for k, (recipe, family) in enumerate(PARTS):
        union = unions[("phi_sat", family)]
        index = {member.name: n for n, member in enumerate(union.members)}
        gadgets = _clause_gadgets(rng.randrange(len(bs.PHI_SAT.clauses)))
        picked = sorted(
            index[name] for kind, count in recipe.items() for name in rng.sample(gadgets[kind], count)
        )
        part = bs.TsUnion(tuple(union.members[i] for i in picked))
        path = work / f"part{k}.ts"
        path.write_text(ff.format_union(part))
        tau = bs.Family(family).base_type
        label = f"part{k}/{family}/{len(part.states)}"
        ops.append(_witness_op(label, path, part, tau, 0, "feasible: yes"))
        subjects.append(part)
    return Workload(
        ops,
        {
            "states": _span(len(s.states) for s in subjects),
            "events": _span(len(s.events) for s in subjects),
            "arcs": _span(len(s.arcs) for s in subjects),
        },
    )


#: Gadget kinds per part: 20, 30, 39 and 49 states.
PART_RECIPES = (
    {"anchor": 1, "small": 1, "guard": 1},
    {"anchor": 2, "big": 1},
    {"anchor": 2, "guard": 1, "big": 1},
    {"anchor": 2, "guard": 1, "big": 1, "small": 2},
)
#: (recipe, family) of each part. The counts put the 50th and 75th
#: percentile ops inside a group of like parts, not between two groups.
PARTS = tuple(
    (recipe, ("free", "used")[j % 2])
    for recipe, count in zip(PART_RECIPES, (6, 6, 12, 15))
    for j in range(count)
)


def _clause_gadgets(i: int) -> dict[str, list[str]]:
    """Members of the ``build_union`` gadgets that share events with clause
    ``i``, by kind, under the names ``build_union`` gives them."""
    return {
        "anchor": [f"H{4 * i + a}" for a in range(4)],
        "big": [f"T{i}_0"],
        "small": [f"T{i}_{a}" for a in (1, 2, 3)],
        "guard": [f"G{i}"] + [f"D{3 * i + a}" for a in range(3)],
    }


def _witness_op(label, ts_path: Path, subject, tau, exit_code: int, expect: str) -> Op:
    wit_path = ts_path.with_suffix(".wit")
    argv = [
        "check", "feasible", "--type", tau.spec(), "--engine", "sat",
        "--witness", str(wit_path), str(ts_path),
    ]

    def check(outcome) -> Optional[str]:
        code, out = outcome
        if code != exit_code or expect not in out:
            return f"exit {code} with {out.strip()!r}, expected {exit_code} and {expect!r}"
        records = ff.parse_witnesses(wit_path.read_text())
        settled = set()
        for record in records:
            sup = record.region.support
            sig = record.region.signature
            if not _admissible(subject, sup, sig):
                return "witness region is not admissible"
            for atom in record.atoms:
                key = _atom_key(atom)
                if key[0] == "sp":
                    ok = sup[key[1]] != sup[key[2]]
                else:
                    ok = EFFECT[sig[key[1]].value][sup[key[2]]] is None
                if not ok:
                    return f"witness region does not settle {key}"
                settled.add(key)
        if exit_code == 0 and settled != requirements(subject, True, True):
            return "witness file does not settle every requirement"
        return None

    def fingerprint(outcome):
        return outcome, _digest(wit_path)

    def regions(outcome) -> int:
        return sum(line == "region" for line in wit_path.read_text().splitlines())

    return Op(label, _cli(argv), check, fingerprint, regions)


# -------------------------------------------------------------------- synth


def synth(seed: int, work: Path, nets: list) -> Workload:
    """``synth`` -> ``rg`` -> ``iso`` on reachability graphs of random nets."""
    ops = []
    graphs = []
    for k, recipe in enumerate(nets):
        tau = bs.NetType.from_spec(recipe.spec)
        graph = gen.net_graph(recipe)
        graphs.append(graph)
        source = work / f"net{k}.ts"
        source.write_text(ff.format_ts(graph))
        net_path, back = work / f"net{k}.net", work / f"net{k}.back.ts"
        label = f"net{k}/{tau.spec()}/{len(graph.states)}"
        ops.append(_synth_op(f"{label}/synth",
                             ["synth", "--type", tau.spec(), "-o", str(net_path), str(source)],
                             "", net_path))
        ops.append(_synth_op(f"{label}/rg", ["rg", "-o", str(back), str(net_path)], "", back))
        ops.append(_synth_op(f"{label}/iso", ["iso", str(source), str(back)], "isomorphic\n", None))
    return Workload(
        ops,
        {
            "states": _span(len(g.states) for g in graphs),
            "events": _span(len(g.events) for g in graphs),
            "arcs": _span(len(g.arcs) for g in graphs),
        },
    )


def _synth_op(label, argv, expect_out: str, output: Optional[Path]) -> Op:
    def check(outcome) -> Optional[str]:
        code, out = outcome
        if code != 0 or out != expect_out:
            return f"exit {code} with {out!r}, expected 0 and {expect_out!r}"
        return None

    def fingerprint(outcome):
        return outcome, _digest(output) if output is not None else None

    def regions(outcome) -> int:
        if argv[0] != "synth":
            return 0
        return len(ff.parse_net(output.read_text()).places)

    return Op(label, _cli(argv), check, fingerprint, regions)


# -------------------------------------------------------------------- sweep

_CONFTEST = Path(__file__).resolve().parent.parent / "tests" / "conftest.py"
_oracle_module = None


def _oracle():
    """The brute-force separation oracle of the test suite, loaded once,
    and only by the checks: it imports pytest."""
    global _oracle_module
    if _oracle_module is None:
        spec = importlib.util.spec_from_file_location("boolsynth_test_oracle", _CONFTEST)
        _oracle_module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(_oracle_module)
    return _oracle_module


#: The four-example battery of the test suite (``build_battery`` in
#: ``tests/conftest.py``): a line into a two-cycle, a two-step line, a line
#: into a terminal self-loop, a three-step line.
BATTERY = {
    "a1": (("s0", "a", "s1"), ("s1", "a", "s2"), ("s2", "a", "s1")),
    "a2": (("s0", "a", "s1"), ("s1", "a", "s2")),
    "a3": (("s0", "a", "s1"), ("s1", "a", "s2"), ("s2", "a", "s2")),
    "a4": (("s0", "a", "s1"), ("s1", "a", "s2"), ("s2", "a", "s3")),
}
#: (ssp, essp) verdict tallies of the battery over 255 types.
BATTERY_TALLIES = {("yes", "yes"): 96, ("yes", "no"): 96, ("no", "yes"): 414, ("no", "no"): 414}

# Systems up to this many states also go through the brute-force oracle.
ORACLE_MAX_STATES = 6


def sweep(seed: int, work: Path, nets: list) -> Workload:
    """``check_ssp`` + ``check_essp`` with ``engine="auto"`` over net types."""
    rng = random.Random(seed)
    types = tuple(bs.all_net_types())
    subjects = [
        (name, bs.TransitionSystem.build("s0", list(arcs), name=name.upper()), types)
        for name, arcs in BATTERY.items()
    ]
    # Sizes straddle the 16-state cutoff of the auto engine rule and are
    # the same for every seed; each system gets its own sample of types.
    # The eight 16-state systems give 48 ops, the slowest ones, so the 99th
    # percentile op falls in the middle of that group, not at its edge.
    sizes = (5, 6, 8, 10, 12, 13, 14, 14, 15, 15) + (16,) * 8 + (17, 17, 18, 18, 20, 20, 22, 24, 24)
    for k, n in enumerate(sizes):
        ts = gen.random_system(rng, n, 3)
        subjects.append((f"sys{k}/{n}", ts, rng.sample(types, 3)))
    for k, recipe in enumerate(nets):
        ts = gen.net_graph(recipe)
        subjects.append((f"rg{k}/{len(ts.states)}", ts, rng.sample(types, 6)))
    ops = []
    for name, ts, taus in subjects:
        for tau in taus:
            for prop, checker in (("ssp", "check_ssp"), ("essp", "check_essp")):
                ops.append(_sweep_op(f"{name}/{tau.spec()}/{prop}", ts, tau, prop, checker))
    battery_ops = [i for i, op in enumerate(ops) if op.label.split("/")[0] in BATTERY]

    def pass_check(prints) -> list[tuple[int, str]]:
        tallies: dict = {}
        for i in battery_ops[::2]:
            key = (prints[i][0], prints[i + 1][0])
            tallies[key] = tallies.get(key, 0) + 1
        if tallies != BATTERY_TALLIES:
            return [(i, f"battery tallies {tallies}") for i in battery_ops]
        return []

    return Workload(
        ops,
        {
            "states": _span(len(ts.states) for _, ts, _ in subjects),
            "events": _span(len(ts.events) for _, ts, _ in subjects),
            "arcs": _span(len(ts.arcs) for _, ts, _ in subjects),
        },
        pass_check,
    )


def _sweep_op(label, ts, tau, prop, checker) -> Op:
    def run():
        return getattr(bs, checker)(ts, tau, engine="auto")

    def check(result) -> Optional[str]:
        if result.outcome not in ("yes", "no"):
            return f"outcome {result.outcome}"
        reference = getattr(bs, checker)(ts, tau, engine="sat")
        mine = (result.outcome, result.counterexample)
        if mine != (reference.outcome, reference.counterexample):
            return f"{mine} but the sat engine gives {(reference.outcome, reference.counterexample)}"
        for region in result.regions:
            if not _admissible(ts, region.support, region.signature):
                return "pooled region is not admissible"
        if len(ts.states) <= ORACLE_MAX_STATES:
            oracle = _oracle()
            found = (oracle.oracle_ssp if prop == "ssp" else oracle.oracle_essp)(ts, tau)
            cex = result.counterexample
            if cex is not None:
                cex = _atom_key(cex)[1:]
            if found != cex:
                return f"counterexample {cex} but the brute-force oracle gives {found}"
        return None

    def fingerprint(result):
        return result.outcome, result.counterexample, result.engine, len(result.regions)

    return Op(label, run, check, fingerprint, lambda result: len(result.regions))
