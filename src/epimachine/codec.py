"""Encoding machine configurations as pointed Kripke models and decoding
them back.

A configuration becomes a chain of cell worlds (with generous blank margins
on both sides), one detached symbol world per 1-cell, and one head world
attached through the relation of the current state. The atom p holds
exactly at even absolute positions, which is what makes the cell chain
walkable and the end cells recognizable. Every relation of an encoding
pairs disjoint worlds, so the encoder writes the model's integer core down
directly: the cells as its ``chain``, which states the tape relations, and
the symbol and state blocks; the core names its worlds only when they are
read. It refuses a cell span above ``MAX_SPAN`` before building anything.

Decoding works on the connected component of the designated world and
anchors absolute position 0 at that world, on world numbers. The model's
shared checker finds that component once (``Evaluator.component``), so
decode, ``validate_encoding`` and the runner's statistics share it, and
decode reads its cells as a tape once. The encoder numbers the cells
first, in tape order, and keeps them as the core's ``chain``, as does the
update of a chain whose children continue it; on such a core the checker
takes the component from the chain, and the tape is read by a few mask
comparisons. Only a core that fails them, or has no chain, has its cells
walked one by one. ``validate_encoding`` maps the component onto the core
the encoder would build. Under the compiled program the new point is always
the descendant of the previous position-0 cell, so absolute head positions
survive updates exactly.
"""

from __future__ import annotations

import functools
import itertools
from typing import Mapping, Sequence

from ._value import Value, _set
from .logic import (
    SYMBOL,
    TAPE_A,
    TAPE_B,
    Evaluator,
    Plan,
    PointedKripkeModel,
    _alternate,
    _bits_of,
    _Core,
    _mask_of,
    _mask_of_bits,
    _tape_blocks,
    state_agent,
    world_label,
)
from .machine import HALTED, MAX_SPAN, FiniteConfiguration
from .program import cell_formula, digit_formula, head_formula, leftmost_formula, rightmost_formula

DEFAULT_PADDING = 5


class Malformed(Value):
    """Decode failure: the component is not a valid encoded configuration."""

    _fields = ("reason",)

    def __init__(self, reason: str):
        _set(self, "reason", reason)


class EncodedModel(Value):
    """Encoder output: the model plus position/world bookkeeping. An encoding
    the encoder builds holds the model and ``ceil_u``; ``cells``,
    ``symbols`` and ``head_world`` are read off the model's core when first
    read."""

    _fields = ("model", "cells", "symbols", "head_world", "ceil_u")

    def __init__(
        self,
        model: PointedKripkeModel,
        cells: Mapping[int, str],
        symbols: Mapping[int, str],
        head_world: str,
        ceil_u: int,
    ):
        _set(self, "model", model)
        _set(self, "cells", dict(cells))
        _set(self, "symbols", dict(symbols))
        _set(self, "head_world", head_world)
        _set(self, "ceil_u", ceil_u)

    @classmethod
    def _of_model(cls, model: PointedKripkeModel, ceil_u: int) -> "EncodedModel":
        encoded = object.__new__(cls)
        _set(encoded, "model", model)
        _set(encoded, "ceil_u", ceil_u)
        return encoded

    @functools.cached_property
    def cells(self) -> dict:
        core = self.model._numbered()
        lo = -core.point  # the point is cell 0
        return dict(zip(range(lo, lo + core.chain[0]), core.names))

    @functools.cached_property
    def symbols(self) -> dict:
        core = self.model._numbered()
        return {cell - core.point: core.names[world] for cell, world in core.blocks[SYMBOL]}

    @functools.cached_property
    def head_world(self) -> str:
        return self.model._numbered().names[-1]


def ceil_even(window: tuple[int, int]) -> int:
    """max(|k|, |k'|) rounded up to the nearest even integer."""
    lo, hi = window
    if lo > hi:
        raise ValueError(f"empty window [{lo}, {hi}]")
    bound = max(abs(lo), abs(hi))
    return bound if bound % 2 == 0 else bound + 1


def _tape_names(lo: int, hi: int, ones: tuple[int, ...], head: int) -> tuple:
    """The world names of an encoding, in chain order."""
    return (*map("c[{}]".format, range(lo, hi + 1)), *map("s[{}]".format, ones), f"h[{head}]")


def _build_tape_model(
    lo: int,
    hi: int,
    ones: tuple[int, ...],
    head: int,
    state: str,
    states: tuple[str, ...],
) -> _Core:
    """Core of the model for cells lo..hi with the given 1-positions (in
    increasing order), head, and state, which numbers the worlds in chain
    order: the cells from lo, then the symbol worlds in position order, then
    the head world, and keeps the cells as its ``chain``. Its worlds are
    named when first read."""
    if not lo <= 0 <= hi:
        raise ValueError("cell range must contain position 0")
    if not lo <= head <= hi:
        raise ValueError("head outside the cell range")
    if ones and not lo <= ones[0] <= ones[-1] <= hi:
        raise ValueError("symbol outside the cell range")
    cells = hi - lo + 1
    size = cells + len(ones) + 1

    # Each relation's generator pairs are disjoint, so they are its blocks;
    # a pairs cell k with k + 1 where lo + k is even, b where it is odd.
    a = lo % 2
    blocks = _tape_blocks(cells, a)
    blocks[SYMBOL] = tuple(zip([j - lo for j in ones], range(cells, size - 1)))
    for q, agent in _state_agents(states):
        blocks[agent] = ((head - lo, size - 1),) if q == state else ()
    # p holds at the even positions: the cells where the a pairs start, and
    # the symbol and head worlds of even cells
    values = _alternate(cells, a) | _mask_of_bits(bytes([j % 2 == 0 for j in (*ones, head)])) << cells
    names = functools.partial(_tape_names, lo, hi, ones, head)
    return _Core(size, names, blocks, values, -lo, (cells, a))


@functools.lru_cache(maxsize=64)
def _state_agents(states: tuple) -> tuple:
    """Each state of ``states`` with its agent."""
    return tuple(zip(states, map(state_agent, states)))


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
    core = _build_tape_model(-span, span, config.one_positions(), config.head, config.state, states)
    return EncodedModel._of_model(PointedKripkeModel._of_core(core), span - padding)


def component_of_point(model: PointedKripkeModel) -> frozenset:
    """Worlds reachable from the point under the union of all relations,
    found once per model by its shared checker."""
    ev = Evaluator.of(model)
    return frozenset(ev.members(ev.component()))


def _analyze(model: PointedKripkeModel, states: tuple[str, ...]):
    """Read the point's component, which the model's shared checker finds,
    as a tape: Malformed, HALTED, or the decoded configuration and the
    chain cells' world numbers in chain order."""
    ev = Evaluator.of(model)
    masks = ev.run(_decoder_plan(states))
    return _read(ev, masks[0] & ev.component(), masks, states)


@functools.lru_cache(maxsize=64)
def _decoder_plan(states: tuple) -> Plan:
    """The decoder's plan: the cell, end, digit-1 and head formulas of
    ``states``, compiled once per state tuple."""
    fixed = (cell_formula(), leftmost_formula(), rightmost_formula(), digit_formula(1))
    return Plan(fixed + tuple(map(head_formula, states)))


def _read(ev: Evaluator, cells: int, masks: list, states: tuple):
    """Read ``cells`` as a tape, given the decoder's root ``masks``: Malformed,
    HALTED, or the configuration and the chain. A Malformed reason names
    the world where the reading fails.

    On a core with a tape ``chain`` of c cells the tape is read by mask
    comparisons: the cells are exactly 0..c-1, the ends are 0 and c-1, and
    the cells hold p exactly where the ``a`` pairs start, so the walk below
    would go 0, 1, .., c-1. When a comparison fails the cells are walked
    one by one, and that walk words any Malformed reason."""
    core = ev._core
    _, leftmost, rightmost, one, *heads = masks
    if not cells >> core.point & 1:
        return Malformed("point is not a cell")

    left_ends = cells & leftmost
    if left_ends.bit_count() != 1:
        return Malformed("no leftmost cell" if not left_ends else "multiple leftmost cells")
    right_ends = cells & rightmost
    if right_ends.bit_count() != 1:
        return Malformed("no rightmost cell" if not right_ends else "multiple rightmost cells")
    left_end = left_ends.bit_length() - 1
    right_end = right_ends.bit_length() - 1

    n = core.size
    if core.chain is not None:
        c, parity = core.chain
        if left_end == 0 and right_end == c - 1 and cells == (1 << c) - 1:
            if not (core.valuation ^ _alternate(c, parity)) & cells:
                return _configuration(range(c), cells, one, heads, states, core.point, n)

    # Walk the chain left to right. From a p-cell the right neighbor is its
    # a-partner, from a non-p-cell its b-partner; both must be the other
    # member of a block of exactly two along the way.
    is_cell = _bits_of(cells, n)
    values = _bits_of(core.valuation, n)
    tape = [(ev._owner(agent), core.blocks[agent]) for agent in (TAPE_B, TAPE_A)]  # by p
    chain = [left_end]
    visited = bytearray(n)
    visited[left_end] = 1
    current = left_end
    while current != right_end:
        owner, blocks = tape[values[current]]
        i = owner[current]
        block = () if i is None else blocks[i]
        if len(block) != 2:
            return Malformed(f"alternation violated at {world_label(core.names[current])}")
        first, second = block
        nxt = second if first == current else first
        if not is_cell[nxt]:
            return Malformed(f"tape relation leaves the cells at {world_label(core.names[current])}")
        if visited[nxt]:
            return Malformed(f"cell chain cycles at {world_label(core.names[nxt])}")
        chain.append(nxt)
        visited[nxt] = 1
        current = nxt
    if len(chain) != cells.bit_count():  # every visited world is a cell
        return Malformed("cells outside the tape chain")
    return _configuration(chain, cells, one, heads, states, core.point, n)


def _configuration(chain, cells: int, one: int, heads: list, states: tuple, point: int, n: int):
    """HALTED, Malformed or the configuration and ``chain``, given the cells
    in chain order and the decoder's digit-1 and head masks."""
    heads = [(q, cells & head) for q, head in zip(states, heads) if cells & head]
    if not heads:
        return HALTED
    if len(heads) > 1 or heads[0][1].bit_count() > 1:
        return Malformed("multiple heads")
    head_state, head = heads[0]

    anchor = chain.index(point)
    symbols = tuple(map(_bits_of(cells & one, n).__getitem__, chain))
    config = FiniteConfiguration(
        (-anchor, len(chain) - 1 - anchor),
        symbols,
        chain.index(head.bit_length() - 1) - anchor,
        head_state,
    )
    return config, chain


def decode(model: PointedKripkeModel, states: Sequence[str]):
    """Configuration represented by the point's component.

    Returns HALTED when the component is a well-formed tape with no head
    world, and Malformed (with a reason) when the cell chain itself is
    broken. Worlds outside the point's component never matter.
    """
    reading = _analyze(model, tuple(states))
    return reading[0] if isinstance(reading, tuple) else reading


def validate_encoding(model: PointedKripkeModel, states: Sequence[str]) -> tuple[bool, str]:
    """Whether the point's component is exactly an encoded configuration.

    Decodes, builds the core the encoder gives the decoded configuration
    over the same cell span, and checks that the decode-induced map of world
    numbers is an isomorphism onto it. World names and numbering and the
    blank margin width are exactly what the comparison is insensitive to.
    """
    states = tuple(states)
    reading = _analyze(model, states)
    if isinstance(reading, Malformed):
        return False, reading.reason
    if reading is HALTED:
        return False, "no head world"

    config, chain = reading
    ev = Evaluator.of(model)
    core, component = ev._core, ev.component()
    lo, hi = config.window
    ones = config.one_positions()
    expected = _build_tape_model(lo, hi, ones, config.head, config.state, states)

    def attached(agent, world, skip):
        """The worlds of ``world``'s block of ``agent`` that are not in ``skip``."""
        i = ev._owner(agent)[world]
        return [] if i is None else [w for w in core.blocks[agent][i] if w not in skip]

    # world number -> expected number: the cells in chain order, then the
    # symbol worlds in position order, then the head world
    mapping = {world: k for k, world in enumerate(chain)}
    cells = set(chain)
    for k, position in enumerate(ones, start=len(chain)):
        symbol = attached(SYMBOL, chain[position - lo], cells)
        if len(symbol) != 1:
            return False, f"symbol attachment at position {position} is not a single world"
        mapping[symbol[0]] = k
    head_cell = chain[config.head - lo]
    head = attached(state_agent(config.state), head_cell, (head_cell,))
    if len(head) != 1:
        return False, "head attachment is not a single world"
    mapping[head[0]] = expected.size - 1

    if _mask_of(mapping, core.size) != component:
        return False, f"component has {component.bit_count()} worlds, expected {len(mapping)}"

    if core.blocks.keys() != expected.blocks.keys():
        return False, "agent universe mismatch"
    # no expected number is given twice, so the map is one-to-one; when it is
    # onto, two partitions agree iff their blocks do
    onto = len(mapping) == expected.size
    for agent in sorted(core.blocks, key=lambda a: a.token):
        image = (frozenset(mapping[w] for w in block if component >> w & 1) for block in core.blocks[agent])
        if not onto or {b for b in image if len(b) > 1} != set(map(frozenset, expected.blocks[agent])):
            return False, f"relation {agent.token} differs from the encoding"

    valued = itertools.compress(itertools.count(), _bits_of(component & core.valuation, 0))
    if _mask_of(map(mapping.__getitem__, valued), expected.size) != expected.valuation:
        return False, "valuation differs from the encoding"
    if mapping[core.point] != expected.point:
        return False, "point differs from the encoding"
    return True, "ok"
