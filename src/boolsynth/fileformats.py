"""Line-oriented text formats for every value the tooling passes around.

Every format but the instance roles is read through one tokenizer,
``_token_lines``: lines are numbered as ``str.splitlines`` cuts them
(``\\r\\n`` too), ``#`` starts a comment that runs to the end of the line,
and the rest splits on any run of whitespace. Parsers skip lines with no
tokens, a formula also its lines before the header whose first token starts
with ``c``, and are strict about structure. Instance files carry ``# role``
comments, which ``parse_instance`` scans for itself.

Formats
-------
transition system   ``ts <name>`` / ``init <state>`` / ``arc <s> <e> <s'>``
union               several ``ts`` blocks in one file
net                 ``net <name>`` / ``type <i,...>`` / ``place <p> <bit>``
                    / ``transition <t>`` / ``flow <p> <t> <interaction>``
witnesses           ``region`` / ``sup <s> <bit>``* / ``sig <e> <i>``*
                    / ``atom sp <s> <s'>`` | ``atom essp <e> <s>``
formula             ``p cnf13 <m>`` then m lines of three variable names
instance            transition-system format plus ``# role`` metadata

Witness text is written one way: ``format_witnesses`` writes the masks
of ``solving.assign_witnesses`` (what ``check --witness`` emits), with no
atom object per requirement, and ``parse_witnesses`` reads it back as
``WitnessRecord`` values (what ``extract`` reads).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .interactions import Interaction, NetType, parse_interaction
from .nets import BooleanNet
from .reduction import CubicCnf, GadgetInstance, build_instance
from .regions import Region, parse_family
from .solving import Atom, EventStateAtom, StatePairAtom, collector_paused
from .ts import DIGIT_BITS, Subject, TransitionSystem, TsUnion


class FormatError(ValueError):
    """Malformed input text; the message carries the line number."""


def _token_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) per line, comments cut. A plain iterator, not a
    generator function: ``map`` splits the lines with no Python frame each."""
    lines = text.splitlines()
    if "#" in text:
        lines = (raw.split("#", 1)[0] for raw in lines)
    return enumerate(map(str.split, lines), start=1)


def _before_header(text: str, number: int, kind: str) -> FormatError:
    """Line ``number`` precedes the first ``kind`` header; quote it as written."""
    line = text.splitlines()[number - 1].split("#", 1)[0].strip()
    return _fail(number, f"expected a {kind!r} header before {line!r}")


def _fail(number: int, message: str) -> FormatError:
    return FormatError(f"line {number}: {message}")


# ------------------------------------------------------------------ ts text


def format_ts(ts: TransitionSystem) -> str:
    lines = [f"ts {ts.name}" if ts.name else "ts"]
    lines.append(f"init {ts.initial}")
    for arc in ts.arcs:
        lines.append(f"arc {arc.source} {arc.event} {arc.target}")
    return "\n".join(lines) + "\n"


def format_union(union: TsUnion) -> str:
    return "".join(format_ts(member) for member in union.members)


def _close_ts(
    number: int, name: str, initial: Optional[str], arcs: list[tuple[str, str, str]]
) -> TransitionSystem:
    """The system of the block whose ``ts`` header is on line ``number``."""
    if initial is None:
        raise _fail(number, "transition system lacks an 'init' line")
    try:
        return TransitionSystem.build(initial=initial, arcs=arcs, name=name)
    except ValueError as exc:
        raise _fail(number, str(exc)) from None


def parse_subject(text: str) -> Subject:
    """One ``ts`` block parses to a transition system, several to a union.

    Member state names are kept verbatim unless two members collide, in
    which case every state of every member is prefixed ``<memberIndex>:``.
    A block is closed, and its errors raised, before the next header is
    read.
    """
    members: list[TransitionSystem] = []
    header: Optional[int] = None  # line of the open block's header
    name = ""
    initial: Optional[str] = None
    arcs: list[tuple[str, str, str]] = []
    for number, tokens in _token_lines(text):
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "ts":
            if header is not None:
                members.append(_close_ts(header, name, initial, arcs))
            if len(tokens) > 2:
                raise _fail(number, "'ts' takes at most a name")
            header, initial, arcs = number, None, []
            name = tokens[1] if len(tokens) == 2 else ""
        elif header is None:
            raise _before_header(text, number, "ts")
        elif kind == "init":
            if len(tokens) != 2:
                raise _fail(number, "'init' takes exactly one state")
            if initial is not None:
                raise _fail(number, "duplicate 'init' line")
            initial = tokens[1]
        elif kind == "arc":
            if len(tokens) != 4:
                raise _fail(number, "'arc' takes source, event, target")
            arcs.append((tokens[1], tokens[2], tokens[3]))
        else:
            raise _fail(number, f"unknown item {kind!r}")
    if header is None:
        raise FormatError("no 'ts' block found")
    members.append(_close_ts(header, name, initial, arcs))
    if len(members) == 1:
        return members[0]
    states = [state for member in members for state in member.states]
    if len(set(states)) != len(states):
        members = [
            TransitionSystem.build(
                initial=f"{idx}:{member.initial}",
                arcs=[
                    (f"{idx}:{a.source}", a.event, f"{idx}:{a.target}")
                    for a in member.arcs
                ],
                states=(f"{idx}:{s}" for s in member.states),
                events=member.events,
                name=member.name,
            )
            for idx, member in enumerate(members)
        ]
    return TsUnion(tuple(members))


def parse_ts(text: str) -> TransitionSystem:
    subject = parse_subject(text)
    if isinstance(subject, TsUnion):
        raise FormatError("expected a single transition system, found a union")
    return subject


def parse_union(text: str) -> TsUnion:
    return TsUnion(parse_subject(text).members)


# ----------------------------------------------------------------- net text


def format_net(net: BooleanNet) -> str:
    lines = [f"net {net.name}" if net.name else "net"]
    lines.append(f"type {net.net_type.spec()}")
    for place in net.places:
        lines.append(f"place {place} {net.initial_marking[place]}")
    for transition in net.transitions:
        lines.append(f"transition {transition}")
    for place in net.places:
        for transition in net.transitions:
            interaction = net.flow[(place, transition)]
            lines.append(f"flow {place} {transition} {interaction.value}")
    return "\n".join(lines) + "\n"


def parse_net(text: str) -> BooleanNet:
    lines = _token_lines(text)
    for header_number, tokens in lines:
        if tokens:
            break
    else:
        raise FormatError("no 'net' header found")
    if tokens[0] != "net":
        raise _before_header(text, header_number, "net")
    if len(tokens) > 2:
        raise _fail(header_number, "'net' takes at most a name")
    name = tokens[1] if len(tokens) == 2 else ""
    net_type: Optional[NetType] = None
    places: dict[str, int] = {}
    transitions: dict[str, None] = {}
    flow: dict[tuple[str, str], tuple[int, Interaction]] = {}  # (line, interaction)
    for number, tokens in lines:
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "type":
            if net_type is not None:
                raise _fail(number, "duplicate 'type' line")
            try:
                net_type = NetType.from_spec(" ".join(tokens[1:]))
            except ValueError as exc:
                raise _fail(number, str(exc)) from None
        elif kind == "place":
            if len(tokens) != 3 or tokens[2] not in ("0", "1"):
                raise _fail(number, "'place' takes a name and a 0/1 bit")
            if tokens[1] in places:
                raise _fail(number, f"duplicate place {tokens[1]!r}")
            places[tokens[1]] = int(tokens[2])
        elif kind == "transition":
            if len(tokens) != 2:
                raise _fail(number, "'transition' takes exactly one name")
            if tokens[1] in transitions:
                raise _fail(number, f"duplicate transition {tokens[1]!r}")
            transitions[tokens[1]] = None
        elif kind == "flow":
            if len(tokens) != 4:
                raise _fail(number, "'flow' takes place, transition, interaction")
            key = (tokens[1], tokens[2])
            if key in flow:
                raise _fail(number, f"duplicate flow entry {key!r}")
            try:
                flow[key] = (number, parse_interaction(tokens[3]))
            except ValueError as exc:
                raise _fail(number, str(exc)) from None
        else:
            raise _fail(number, f"unknown item {kind!r}")
    if net_type is None:
        raise _fail(header_number, "net lacks a 'type' line")
    for (place, transition), (number, _) in flow.items():
        if place not in places:
            raise _fail(number, f"flow names undeclared place {place!r}")
        if transition not in transitions:
            raise _fail(number, f"flow names undeclared transition {transition!r}")
    try:
        return BooleanNet(
            net_type=net_type,
            places=tuple(places),
            transitions=tuple(transitions),
            flow={key: interaction for key, (_, interaction) in flow.items()},
            initial_marking=places,
            name=name,
        )
    except ValueError as exc:
        raise _fail(header_number, str(exc)) from None


# ------------------------------------------------------------- witness text


@dataclass(frozen=True)
class WitnessRecord:
    """A region paired with the separation requirements it settles."""

    region: Region
    atoms: tuple[Atom, ...] = ()


def format_witnesses(subject: Subject, rows: Iterable[tuple]) -> str:
    """The witness text of ``solving.assign_witnesses``' rows over
    ``subject``: per entry, a ``region`` line, its ``sup`` and ``sig`` lines
    in the region's own order, then one ``atom`` line per requirement of its
    pair rows and then of its inhibition rows, names in position order."""
    states, events = subject.states, subject.events
    sup = functools.cache(lambda state: (f"sup {state} 0\n", f"sup {state} 1\n"))
    sig = functools.cache(lambda event, i: f"sig {event} {i.value}\n")
    width = f"0{len(states)}b"

    def atom_lines(prefix: str, mask: int) -> str:
        """An ``atom`` line, ``prefix`` and a name, per state of ``mask``."""
        bits = format(mask, width).encode().translate(DIGIT_BITS)
        return prefix + ("\n" + prefix).join(itertools.compress(states, bits)) + "\n"

    parts: list[str] = []
    for region, pair_rows, inhibition_rows in rows:
        support = region.support
        parts.append("region\n")
        parts += map(tuple.__getitem__, map(sup, support), support.values())
        parts += itertools.starmap(sig, region.signature.items())
        for i, partners in pair_rows:
            parts.append(atom_lines(f"atom sp {states[i]} ", partners))
        for e, newly in inhibition_rows:
            parts.append(atom_lines(f"atom essp {events[e]} ", newly))
    return "".join(parts)


@collector_paused
def parse_witnesses(text: str) -> list[WitnessRecord]:
    """The records of a witness text, read in one scan."""
    blocks: list[tuple[dict, dict, list]] = []  # support, signature, atoms
    support: Optional[dict[str, int]] = None  # of the open block, if any
    signature: dict[str, Interaction] = {}
    atoms: list[Atom] = []
    for number, tokens in _token_lines(text):
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "region":
            if len(tokens) != 1:
                raise _fail(number, "'region' takes no arguments")
            support, signature, atoms = {}, {}, []
            blocks.append((support, signature, atoms))
        elif support is None:
            raise _fail(number, f"expected a 'region' header before {kind!r}")
        elif kind == "sup":
            if len(tokens) != 3 or tokens[2] not in ("0", "1"):
                raise _fail(number, "'sup' takes a state and a 0/1 bit")
            if tokens[1] in support:
                raise _fail(number, f"duplicate support entry {tokens[1]!r}")
            support[tokens[1]] = int(tokens[2])
        elif kind == "atom":
            if len(tokens) == 4 and tokens[1] == "sp":
                atoms.append(StatePairAtom(tokens[2], tokens[3]))
            elif len(tokens) == 4 and tokens[1] == "essp":
                atoms.append(EventStateAtom(tokens[2], tokens[3]))
            else:
                raise _fail(number, "'atom' takes 'sp <s> <s'>' or 'essp <e> <s>'")
        elif kind == "sig":
            if len(tokens) != 3:
                raise _fail(number, "'sig' takes an event and an interaction")
            if tokens[1] in signature:
                raise _fail(number, f"duplicate signature entry {tokens[1]!r}")
            try:
                signature[tokens[1]] = parse_interaction(tokens[2])
            except ValueError as exc:
                raise _fail(number, str(exc)) from None
        else:
            raise _fail(number, f"unknown item {kind!r}")
    return [
        WitnessRecord(Region(support, signature), tuple(atoms))
        for support, signature, atoms in blocks
    ]


# ------------------------------------------------------------- formula text


def format_cnf(cnf: CubicCnf) -> str:
    lines = [f"p cnf13 {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join(clause))
    return "\n".join(lines) + "\n"


def parse_cnf(text: str) -> CubicCnf:
    clauses: list[tuple[str, str, str]] = []
    expected: Optional[int] = None
    for number, tokens in _token_lines(text):
        if not tokens:
            continue
        # Before the header a "p" line is the header and a "c" line a DIMACS
        # comment; after it, either is a clause.
        if expected is None:
            if tokens[0].startswith("c"):
                continue
            if tokens[0] != "p":
                raise _fail(number, "clause before the 'p cnf13' header")
            if len(tokens) != 3 or tokens[1] != "cnf13":
                raise _fail(number, "header must read 'p cnf13 <clauses>'")
            try:
                expected = int(tokens[2])
            except ValueError:
                raise _fail(number, "clause count must be an integer") from None
            continue
        if len(tokens) != 3:
            raise _fail(number, "each clause names exactly three variables")
        clauses.append((tokens[0], tokens[1], tokens[2]))
    if expected is None:
        raise FormatError("missing 'p cnf13' header")
    if len(clauses) != expected:
        raise FormatError(
            f"header announced {expected} clauses, found {len(clauses)}"
        )
    try:
        return CubicCnf(tuple(clauses))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


# ------------------------------------------------------------ instance text


def format_roles(instance: GadgetInstance) -> str:
    """The ``# role`` block naming an instance's formula, family and
    event roles."""
    roles = instance.roles
    pairs: list[tuple[str, str]] = [
        ("family", instance.family.value),
        ("k", roles.target_event),
        ("target", roles.target_state),
        ("m", roles.sync_event),
        ("z", roles.shift_event),
        ("v", " ".join(roles.flip_events)),
        ("w", " ".join(roles.hold_events)),
        ("a", " ".join(roles.occ_events)),
        ("q", " ".join(roles.pad_events)),
        ("y", " ".join(roles.clause_events)),
        ("p", " ".join(roles.slot_events)),
        ("u", " ".join(roles.unique_events)),
        ("variables", " ".join(roles.variables)),
    ]
    pairs.extend(
        (f"clause_{index}", " ".join(clause))
        for index, clause in enumerate(instance.cnf.clauses)
    )
    return "".join(f"# role {name} = {value}\n" for name, value in pairs)


def format_instance(instance: GadgetInstance) -> str:
    return format_ts(instance.ts) + format_roles(instance)


def parse_instance(text: str) -> GadgetInstance:
    """Rebuild a generated instance from its file.

    The roles name the formula and family; the instance is regenerated from
    those and checked arc-for-arc against the file, so a tampered or
    hand-edited file is rejected rather than trusted.
    """
    roles: dict[str, list[str]] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        body = line.lstrip("#").strip()
        if not (line.startswith("#") and body.startswith("role ")):
            continue
        tokens = body.split()
        if len(tokens) < 3 or tokens[2] != "=":
            raise _fail(number, "role lines read '# role <name> = <values>'")
        roles[tokens[1]] = tokens[3:]
    if "family" not in roles or len(roles["family"]) != 1:
        raise FormatError("instance lacks a '# role family = ...' line")
    family = parse_family(roles["family"][0])
    clauses: list[tuple[str, str, str]] = []
    index = 0
    while f"clause_{index}" in roles:
        clause = roles[f"clause_{index}"]
        if len(clause) != 3:
            raise FormatError(f"role clause_{index} must name three variables")
        clauses.append((clause[0], clause[1], clause[2]))
        index += 1
    if not clauses:
        raise FormatError("instance lacks '# role clause_<i> = ...' lines")
    try:
        cnf = CubicCnf(tuple(clauses))
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    instance = build_instance(cnf, family)
    written = parse_ts(text)
    rebuilt = instance.ts
    if (
        written.initial != rebuilt.initial
        or set(written.states) != set(rebuilt.states)
        or set(written.arcs) != set(rebuilt.arcs)
    ):
        raise FormatError(
            "instance file does not match the regenerated construction"
        )
    return instance


__all__ = [
    "FormatError",
    "WitnessRecord",
    "format_ts",
    "format_union",
    "format_net",
    "format_witnesses",
    "format_cnf",
    "format_instance",
    "format_roles",
    "parse_ts",
    "parse_union",
    "parse_subject",
    "parse_net",
    "parse_witnesses",
    "parse_cnf",
    "parse_instance",
]
