"""Shared test utilities: independent brute-force oracles and corpus data.

The evaluators and closures here deliberately avoid the package's
class-based relation storage so they can serve as second opinions.
"""

from __future__ import annotations

import random
from pathlib import Path

from epimachine.logic import And, Atom, Box, EquivRelation, Not, PointedKripkeModel, Top
from epimachine.machine import FiniteConfiguration, blank_config, parse_machine

MACHINE_DIR = Path(__file__).resolve().parent.parent / "machines"


def load(name):
    return parse_machine((MACHINE_DIR / f"{name}.tm").read_text())


def two_marks_config(spec):
    """Tape with 1s on cells 1 and 2 and the head on 3, in a machine's start state."""
    return FiniteConfiguration((-1, 3), (0, 0, 1, 1, 0), 3, spec.start)


def blank(spec):
    return blank_config(spec.start)


# --- brute-force relation closure (fixpoint iteration, no union-find) ---


def naive_closure_pairs(pairs, universe):
    out = {(w, w) for w in universe}
    out |= {(x, y) for x, y in pairs}
    out |= {(y, x) for x, y in pairs}
    changed = True
    while changed:
        changed = False
        for x, y in list(out):
            for y2, z in list(out):
                if y == y2 and (x, z) not in out:
                    out.add((x, z))
                    changed = True
    return frozenset(out)


# --- brute-force model checking over raw pair sets ---


def model_pairs(model):
    return {agent: set(rel.pairs()) for agent, rel in model.relations.items()}


def brute_eval(worlds, pairs_by_agent, valuation, world, formula):
    if isinstance(formula, Top):
        return True
    if isinstance(formula, Atom):
        return world in valuation
    if isinstance(formula, Not):
        return not brute_eval(worlds, pairs_by_agent, valuation, world, formula.sub)
    if isinstance(formula, And):
        return brute_eval(
            worlds, pairs_by_agent, valuation, world, formula.left
        ) and brute_eval(worlds, pairs_by_agent, valuation, world, formula.right)
    if isinstance(formula, Box):
        successors = [t for (s, t) in pairs_by_agent[formula.agent] if s == world]
        return all(
            brute_eval(worlds, pairs_by_agent, valuation, t, formula.sub)
            for t in successors
        )
    raise TypeError(formula)


def brute_sat_set(model, formula):
    pairs = model_pairs(model)
    return frozenset(
        w
        for w in model.worlds
        if brute_eval(model.worlds, pairs, model.valuation, w, formula)
    )


def brute_component(model):
    """Worlds reachable from the point, by repeated passes over every
    relation's explicit pair set."""
    pairs = set().union(*(rel.pairs() for rel in model.relations.values()))
    seen = {model.point}
    grown = True
    while grown:
        grown = False
        for x, y in pairs:
            if x in seen and y not in seen:
                seen.add(y)
                grown = True
    return frozenset(seen)


# --- random models built from partitions ---


def random_partition_model(rng: random.Random, agents, fragments=1):
    """A model made of ``fragments`` disjoint parts of 1-8 worlds. Each
    agent's classes mix singletons with classes of 2-5 worlds, and no class
    crosses from one part to another, so the parts are disconnected."""
    worlds = []
    classes = {agent: [] for agent in agents}
    for f in range(fragments):
        part = [f"f{f}w{i}" for i in range(rng.randint(1, 8))]
        worlds += part
        for agent in agents:
            rest = rng.sample(part, len(part))
            while rest:
                size = rng.choice((1, 1, 2, 3, 4, 5))
                classes[agent].append(rest[:size])
                del rest[:size]
    relations = {agent: EquivRelation(worlds, cls) for agent, cls in classes.items()}
    valuation = {w for w in worlds if rng.random() < 0.5}
    return PointedKripkeModel(frozenset(worlds), relations, valuation, rng.choice(worlds))


# --- random machine configurations ---


def random_config(rng: random.Random, states, max_width=12):
    width = rng.randint(1, max_width)
    lo = rng.randint(-6, 6 - (width - 1))
    hi = lo + width - 1
    tape = tuple(rng.randint(0, 1) for _ in range(width))
    head = rng.randint(lo, hi)
    return FiniteConfiguration((lo, hi), tape, head, rng.choice(list(states)))


def padded_variant(rng: random.Random, config: FiniteConfiguration):
    """Same configuration class, window padded with random blanks."""
    left = rng.randint(0, 4)
    right = rng.randint(0, 4)
    lo, hi = config.window
    tape = (0,) * left + config.tape + (0,) * right
    return FiniteConfiguration((lo - left, hi + right), tape, config.head, config.state)
