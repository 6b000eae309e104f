"""Encoding machine configurations as pointed Kripke models and decoding
them back.

A configuration becomes a chain of cell worlds (with generous blank margins
on both sides), one detached symbol world per 1-cell, and one head world
attached through the relation of the current state. The atom p holds
exactly at even absolute positions, which is what makes the cell chain
walkable and the end cells recognizable. Every relation of an encoding
pairs disjoint worlds, so the encoder writes its classes down directly, and
it refuses a cell span above ``MAX_SPAN`` before building anything.

Decoding works on the connected component of the designated world and
anchors absolute position 0 at that world. The component is walked once per
model, by the model's shared checker, so decode and the runner's statistics
share it. Under the compiled program the new point is always the descendant
of the previous position-0 cell, so absolute head positions survive updates
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .logic import (
    SYMBOL,
    TAPE_A,
    TAPE_B,
    EquivRelation,
    Evaluator,
    PointedKripkeModel,
    state_agent,
    world_label,
)
from .machine import HALTED, MAX_SPAN, FiniteConfiguration, Halted
from .program import cell_formula, digit_formula, head_formula, leftmost_formula, rightmost_formula

DEFAULT_PADDING = 5


@dataclass(frozen=True)
class Malformed:
    """Decode failure: the component is not a valid encoded configuration."""

    reason: str


@dataclass(frozen=True)
class EncodedModel:
    """Encoder output: the model plus position/world bookkeeping."""

    model: PointedKripkeModel
    cells: Mapping[int, str]
    symbols: Mapping[int, str]
    head_world: str
    ceil_u: int

    def __post_init__(self):
        object.__setattr__(self, "cells", dict(self.cells))
        object.__setattr__(self, "symbols", dict(self.symbols))


def ceil_even(window: tuple[int, int]) -> int:
    """max(|k|, |k'|) rounded up to the nearest even integer."""
    lo, hi = window
    if lo > hi:
        raise ValueError(f"empty window [{lo}, {hi}]")
    bound = max(abs(lo), abs(hi))
    return bound if bound % 2 == 0 else bound + 1


def _build_tape_model(
    lo: int,
    hi: int,
    ones: Iterable[int],
    head: int,
    state: str,
    states: tuple[str, ...],
):
    """Model for cells lo..hi with the given 1-positions, head, and state."""
    if not lo <= 0 <= hi:
        raise ValueError("cell range must contain position 0")
    if not lo <= head <= hi:
        raise ValueError("head outside the cell range")
    cells = {j: f"c[{j}]" for j in range(lo, hi + 1)}
    symbols = {j: f"s[{j}]" for j in sorted(ones)}
    if any(j not in cells for j in symbols):
        raise ValueError("symbol outside the cell range")
    head_world = f"h[{head}]"
    worlds = frozenset([*cells.values(), *symbols.values(), head_world])

    pairs = {
        TAPE_A: [(cells[j], cells[j + 1]) for j in range(lo, hi) if j % 2 == 0],
        TAPE_B: [(cells[j], cells[j + 1]) for j in range(lo, hi) if j % 2 == 1],
        SYMBOL: [(cells[j], symbols[j]) for j in symbols],
    }
    for q in states:
        pairs[state_agent(q)] = [(cells[head], head_world)] if q == state else []

    valuation = {cells[j] for j in cells if j % 2 == 0}
    valuation |= {symbols[j] for j in symbols if j % 2 == 0}
    if head % 2 == 0:
        valuation.add(head_world)

    # Each relation's generator pairs are disjoint, so they are its classes
    # of two; every other world is alone in its class.
    relations = {}
    for agent, agent_pairs in pairs.items():
        paired = {w for pair in agent_pairs for w in pair}
        singletons = zip(worlds - paired)
        relations[agent] = EquivRelation(worlds, [*agent_pairs, *singletons])
    model = PointedKripkeModel(worlds, relations, valuation, cells[0])
    return model, cells, symbols, head_world


def encode(
    config: FiniteConfiguration, states: Sequence[str], padding: int = DEFAULT_PADDING
) -> EncodedModel:
    """Pointed-model encoding of a configuration.

    Cells span -(u+padding)..(u+padding) where u is the even-rounded window
    bound, so the head starts well clear of the ends. The padding must be
    odd: the extreme cells need odd positions for the end-cell formulas.
    A span above ``MAX_SPAN`` raises ValueError before anything is built.
    """
    if padding % 2 == 0 or padding < 3:
        raise ValueError("padding must be an odd integer >= 3")
    states = tuple(states)
    if config.state not in states:
        raise ValueError(f"configuration state {config.state!r} not in the state set")
    span = ceil_even(config.window) + padding
    if span > MAX_SPAN:
        raise ValueError(f"cell span {span} exceeds the limit of {MAX_SPAN} (cells -span..span)")
    model, cells, symbols, head_world = _build_tape_model(
        -span, span, config.one_positions(), config.head, config.state, states
    )
    return EncodedModel(model, cells, symbols, head_world, span - padding)


def component_of_point(model: PointedKripkeModel) -> frozenset:
    """Worlds reachable from the point under the union of all relations,
    found once per model by its shared checker."""
    return Evaluator.of(model).component()


@dataclass(frozen=True)
class TapeReading:
    """Successful structural analysis of the point's component."""

    component: frozenset
    chain: tuple
    positions: Mapping[object, int]
    head_position: int
    head_state: str
    ones: tuple[int, ...]

    def config(self) -> FiniteConfiguration:
        lo = self.positions[self.chain[0]]
        hi = self.positions[self.chain[-1]]
        marks = set(self.ones)
        tape = tuple(1 if j in marks else 0 for j in range(lo, hi + 1))
        return FiniteConfiguration((lo, hi), tape, self.head_position, self.head_state)


def _analyze(model: PointedKripkeModel, states: tuple[str, ...]):
    component = component_of_point(model)
    ev = Evaluator.of(model)
    cells = component & ev.sat_set(cell_formula())
    if model.point not in cells:
        return Malformed("point is not a cell")

    left_ends = list(cells & ev.sat_set(leftmost_formula()))
    if len(left_ends) != 1:
        return Malformed(
            "no leftmost cell" if not left_ends else "multiple leftmost cells"
        )
    right_ends = list(cells & ev.sat_set(rightmost_formula()))
    if len(right_ends) != 1:
        return Malformed(
            "no rightmost cell" if not right_ends else "multiple rightmost cells"
        )

    # Walk the chain left to right. From a p-cell the right neighbor is its
    # a-partner, from a non-p-cell its b-partner; both classes must have
    # exactly two members along the way.
    chain = [left_ends[0]]
    visited = {left_ends[0]}
    current = left_ends[0]
    while current != right_ends[0]:
        relation = TAPE_A if current in model.valuation else TAPE_B
        partners = model.relations[relation].class_of(current) - {current}
        if len(partners) != 1:
            return Malformed(f"alternation violated at {world_label(current)}")
        nxt = next(iter(partners))
        if nxt not in cells:
            return Malformed(f"tape relation leaves the cells at {world_label(current)}")
        if nxt in visited:
            return Malformed(f"cell chain cycles at {world_label(nxt)}")
        chain.append(nxt)
        visited.add(nxt)
        current = nxt
    if visited != cells:
        return Malformed("cells outside the tape chain")

    anchor = chain.index(model.point)
    positions = {w: i - anchor for i, w in enumerate(chain)}

    heads = [(positions[w], q) for q in states for w in cells & ev.sat_set(head_formula(q))]
    if not heads:
        return HALTED
    if len(heads) > 1:
        return Malformed("multiple heads")

    ones = tuple(sorted(positions[w] for w in cells & ev.sat_set(digit_formula(1))))
    return TapeReading(component, tuple(chain), positions, heads[0][0], heads[0][1], ones)


def decode(model: PointedKripkeModel, states: Sequence[str]):
    """Configuration represented by the point's component.

    Returns HALTED when the component is a well-formed tape with no head
    world, and Malformed (with a reason) when the cell chain itself is
    broken. Worlds outside the point's component never matter.
    """
    reading = _analyze(model, tuple(states))
    if isinstance(reading, (Halted, Malformed)):
        return reading
    return reading.config()


def validate_encoding(model: PointedKripkeModel, states: Sequence[str]) -> tuple[bool, str]:
    """Whether the point's component is exactly an encoded configuration.

    Decodes, rebuilds the tape model the decoded configuration prescribes
    over the same cell span, and checks that the decode-induced world
    mapping is an isomorphism. Differences in world naming and in blank
    margin width are exactly what the comparison is insensitive to.
    """
    states = tuple(states)
    reading = _analyze(model, states)
    if isinstance(reading, Malformed):
        return False, reading.reason
    if reading is HALTED:
        return False, "no head world"

    config = reading.config()
    lo, hi = config.window
    expected, exp_cells, exp_symbols, exp_head = _build_tape_model(
        lo, hi, reading.ones, reading.head_position, reading.head_state, states
    )

    mapping = {}
    for world, position in reading.positions.items():
        mapping[world] = exp_cells[position]

    for position in reading.ones:
        cell = reading.chain[position - lo]
        partners = model.relations[SYMBOL].class_of(cell) - {cell}
        partners -= set(reading.positions)
        if len(partners) != 1:
            return False, f"symbol attachment at position {position} is not a single world"
        mapping[next(iter(partners))] = exp_symbols[position]

    head_cell = reading.chain[reading.head_position - lo]
    head_rel = model.relations[state_agent(reading.head_state)]
    head_partners = head_rel.class_of(head_cell) - {head_cell}
    if len(head_partners) != 1:
        return False, "head attachment is not a single world"
    mapping[next(iter(head_partners))] = exp_head

    if set(mapping) != set(reading.component):
        return False, (
            f"component has {len(reading.component)} worlds, "
            f"expected {len(mapping)}"
        )

    if model.agents != expected.agents:
        return False, "agent universe mismatch"
    for agent in model.agents:
        actual = model.relations[agent].restricted(reading.component)
        image = {frozenset(mapping[w] for w in cls) for cls in actual.classes()}
        if image != set(expected.relations[agent].classes()):
            return False, f"relation {agent.token} differs from the encoding"

    actual_valuation = {mapping[w] for w in reading.component & model.valuation}
    if actual_valuation != set(expected.valuation):
        return False, "valuation differs from the encoding"
    if mapping[model.point] != expected.point:
        return False, "point differs from the encoding"
    return True, "ok"
