"""Seeded input generators for the benchmark workloads.

Every generator draws only from the ``random.Random`` it is handed, so one
workload seed always yields the same inputs. The program under test sees
only what these functions produce: formula objects, transition systems, or
the text files written from them.

Random nets are searched for before the workload's set-up, as plain data,
with the benchmark's own reachability count (``reachable``): how many nets
a seed draws before one fits is the generator's luck, not the program's
cost. The set-up then builds only the nets that were kept.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional

import boolsynth as bs

# Draws of random nets before giving up on a state-count range.
NET_DRAWS = 20_000

# The definition of the eight interactions, kept apart from the program's
# own table: (image of 0, image of 1), None where undefined.
EFFECT = {
    "nop": (0, 1), "inp": (None, 0), "out": (1, None), "set": (1, 1),
    "res": (0, 0), "swap": (1, 0), "used": (None, 1), "free": (0, None),
}


class NetRecipe(NamedTuple):
    """A random boolean net as plain data."""

    spec: str  # the net type
    places: int
    flow: tuple  # per transition: ((place, interaction name), ...) without nop
    marking: int  # bit k is the token count of place k
    states: int  # reachable markings


def cubic_formula(rng: random.Random, m: int) -> bs.CubicCnf:
    """A cubic monotone formula over ``m`` variables and ``m`` clauses.

    Three copies of every variable go into a slot list, which is shuffled
    and cut into triples until no triple repeats a variable (rejection
    sampling keeps the draw uniform over slot assignments).
    """
    slots = [f"x{i}" for i in range(m) for _ in range(3)]
    while True:
        rng.shuffle(slots)
        clauses = tuple(tuple(slots[3 * k : 3 * k + 3]) for k in range(m))
        if all(len(set(clause)) == 3 for clause in clauses):
            return bs.CubicCnf(clauses)


def reachable(places: int, flow: tuple, marking: int, limit: int) -> Optional[tuple[int, int]]:
    """(reachable markings, transitions that fire) of a net, or None once
    more than ``limit`` markings are found. Each transition is compiled to
    bit masks from ``EFFECT``: the places that must hold a token or be
    empty, and those it sets, clears or flips."""
    compiled = []
    for arcs in flow:
        need1 = need0 = set_ = clear = flip = 0
        for place, name in arcs:
            bit = 1 << place
            low, high = EFFECT[name]
            if low is None:
                need1 |= bit
            if high is None:
                need0 |= bit
            if (low, high) == (1, 0):
                flip |= bit
            elif (low, high) != (0, 1):
                image = high if low is None else low
                if image:
                    set_ |= bit
                else:
                    clear |= bit
        compiled.append((need1, need0, set_, ~clear, flip))
    seen = {marking}
    frontier = [marking]
    fired = set()
    while frontier:
        current = frontier.pop()
        for index, (need1, need0, set_, keep, flip) in enumerate(compiled):
            if current & need1 != need1 or current & need0:
                continue
            fired.add(index)
            successor = ((current | set_) & keep) ^ flip
            if successor not in seen:
                seen.add(successor)
                if len(seen) > limit:
                    return None
                frontier.append(successor)
    return len(seen), len(fired)


def search_net(rng: random.Random, spec: str, places: int, low: int, high: int) -> NetRecipe:
    """A random net of type ``spec`` with as many transitions as places,
    all of which fire, and ``low`` to ``high`` reachable markings; other
    nets are redrawn. Every transition touches one to three places with a
    non-``nop`` interaction of the type."""
    active = [name for name in EFFECT if name in spec.split(",") and name != "nop"]
    for _ in range(NET_DRAWS):
        flow = tuple(
            tuple(
                (place, rng.choice(active))
                for place in sorted(rng.sample(range(places), rng.randint(1, 3)))
            )
            for _ in range(places)
        )
        marking = rng.getrandbits(places)
        found = reachable(places, flow, marking, high)
        if found is not None and found[0] >= low and found[1] == places:
            return NetRecipe(spec, places, flow, marking, found[0])
    raise RuntimeError(f"no {places}-place net of type {spec} reached {low}..{high} states")


def build_net(recipe: NetRecipe) -> bs.BooleanNet:
    """The program's net for a recipe."""
    place_names = tuple(f"p{k}" for k in range(recipe.places))
    transition_names = tuple(f"t{k}" for k in range(len(recipe.flow)))
    flow = {(p, t): bs.Interaction.NOP for p in place_names for t in transition_names}
    for transition, arcs in zip(transition_names, recipe.flow):
        for place, name in arcs:
            flow[(place_names[place], transition)] = bs.Interaction(name)
    marking = {p: (recipe.marking >> k) & 1 for k, p in enumerate(place_names)}
    tau = bs.NetType.from_spec(recipe.spec)
    return bs.BooleanNet(tau, place_names, transition_names, flow, marking)


def net_graph(recipe: NetRecipe) -> bs.TransitionSystem:
    """The program's reachability graph of a recipe, which must have as
    many states as the benchmark's own count."""
    graph = bs.reachability_graph(build_net(recipe))
    if len(graph.states) != recipe.states:
        raise RuntimeError(
            f"reachability_graph gives {len(graph.states)} states, expected {recipe.states}"
        )
    return graph


def random_system(rng: random.Random, states: int, events: int) -> bs.TransitionSystem:
    """A deterministic transition system with exactly ``states`` states,
    all reachable from ``s0``: a random spanning tree plus extra arcs, each
    free (state, event) slot filled with probability 0.35."""
    names = [f"s{k}" for k in range(states)]
    labels = [f"e{k}" for k in range(events)]
    arcs: list[tuple[str, str, str]] = []
    used: set[tuple[str, str]] = set()
    for k in range(1, states):
        free = [
            (source, event)
            for source in names[:k]
            for event in labels
            if (source, event) not in used
        ]
        source, event = rng.choice(free)
        used.add((source, event))
        arcs.append((source, event, names[k]))
    for source in names:
        for event in labels:
            if (source, event) not in used and rng.random() < 0.35:
                used.add((source, event))
                arcs.append((source, event, rng.choice(names)))
    present = {event for _, event, _ in arcs}
    return bs.TransitionSystem.build(
        "s0", arcs, states=names, events=[e for e in labels if e in present]
    )
