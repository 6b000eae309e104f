"""Precondition formula builders and the compiler from a machine
description to the update program that emulates it.

The compiled program has five action families:

* ``cell:*``   designated actions, one per cell-classifying formula; they
  copy the tape cells and carry the point.
* ``grow:*``   boundary actions that extend the tape by two cells per side
  each step. Two modes exist: ``repaired`` (default) uses constant atom
  postconditions so the fresh cells attach with the right atom parity;
  ``faithful`` uses plain paired actions whose descendants provably detach
  from the tape (kept for regression purposes).
* ``copy``     copies every symbol world not under the head.
* ``write:q:i`` one per transition; its descendant becomes the symbol world
  of the head cell when the transition writes 1 (it stays detached when the
  transition writes 0).
* ``mount:q:i`` one per transition; its descendant is the new head world,
  attached at the destination cell through the relation of the target state.

An action's role is read from its id: the family is the part before the
first colon and the detail the rest (``ActionRole.of``). The role tags of an
exported program are exactly that split, so an imported program may leave
them out but may not contradict its ids.

Equal formulas are one object, interned in ``logic``; the builders are
cached only to save rebuilding them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from .action import EpistemicProgram, build_program, export_program, import_program
from .logic import (
    P,
    SYMBOL,
    TAPE_A,
    TAPE_B,
    Agent,
    Formula,
    box,
    conj,
    diamond,
    disj,
    disj_all,
    neg,
    state_agent,
    agent_universe,
)
from .machine import MachineSpec

GROWTH_MODES = ("repaired", "faithful")


# ---------------------------------------------------------------------------
# formula builders


@lru_cache(maxsize=None)
def cell_formula() -> Formula:
    """Holds exactly at tape-cell worlds."""
    return conj(disj(diamond(TAPE_A, P), diamond(TAPE_B, P)), diamond(TAPE_A, neg(P)))


@lru_cache(maxsize=None)
def symbol_world_formula() -> Formula:
    """Holds exactly at the detached worlds marking a 1 on some cell."""
    return conj(neg(cell_formula()), diamond(SYMBOL, cell_formula()))


@lru_cache(maxsize=None)
def digit_formula(digit: int) -> Formula:
    """Cell whose symbol is ``digit``."""
    if digit == 1:
        return conj(cell_formula(), diamond(SYMBOL, neg(cell_formula())))
    if digit == 0:
        return conj(cell_formula(), neg(diamond(SYMBOL, neg(cell_formula()))))
    raise ValueError(f"digit must be 0 or 1, got {digit!r}")


@lru_cache(maxsize=None)
def head_formula(state: str) -> Formula:
    """Cell under the head while the machine is in ``state``."""
    return conj(cell_formula(), diamond(state_agent(state), neg(cell_formula())))


def _flank_formula(head: Formula, first: Agent, second: Agent) -> Formula:
    # Which tape relation reaches the head cell from a neighbor depends on
    # the neighbor's atom value, hence the case split on p.
    reach = disj(conj(P, diamond(first, head)), conj(neg(P), diamond(second, head)))
    return conj(cell_formula(), neg(head), reach)


@lru_cache(maxsize=None)
def left_of_head_formula(state: str) -> Formula:
    """Cell immediately left of the head while the machine is in ``state``."""
    return _flank_formula(head_formula(state), TAPE_A, TAPE_B)


@lru_cache(maxsize=None)
def right_of_head_formula(state: str) -> Formula:
    """Cell immediately right of the head while the machine is in ``state``."""
    return _flank_formula(head_formula(state), TAPE_B, TAPE_A)


@lru_cache(maxsize=None)
def head_reading_formula(state: str, digit: int) -> Formula:
    """Head cell in ``state`` whose own symbol is ``digit``."""
    return conj(digit_formula(digit), diamond(state_agent(state), neg(cell_formula())))


@lru_cache(maxsize=None)
def left_of_head_reading_formula(state: str, digit: int) -> Formula:
    """Cell left of the head in ``state`` while the head cell reads ``digit``."""
    return _flank_formula(head_reading_formula(state, digit), TAPE_A, TAPE_B)


@lru_cache(maxsize=None)
def right_of_head_reading_formula(state: str, digit: int) -> Formula:
    """Cell right of the head in ``state`` while the head cell reads ``digit``."""
    return _flank_formula(head_reading_formula(state, digit), TAPE_B, TAPE_A)


@lru_cache(maxsize=None)
def far_from_head_formula(states: tuple[str, ...]) -> Formula:
    """Cell at distance at least two from the head, whatever the state."""
    terms = [
        conj(
            neg(head_formula(q)),
            neg(left_of_head_formula(q)),
            neg(right_of_head_formula(q)),
        )
        for q in states
    ]
    return conj(cell_formula(), *terms)


@lru_cache(maxsize=None)
def rightmost_formula() -> Formula:
    """The right end of the tape; only an odd-index end cell satisfies it."""
    return conj(cell_formula(), box(TAPE_B, neg(P)))


@lru_cache(maxsize=None)
def leftmost_formula() -> Formula:
    return conj(cell_formula(), box(TAPE_A, neg(P)))


@lru_cache(maxsize=None)
def penultimate_right_formula() -> Formula:
    return conj(cell_formula(), neg(rightmost_formula()), diamond(TAPE_A, rightmost_formula()))


@lru_cache(maxsize=None)
def penultimate_left_formula() -> Formula:
    return conj(cell_formula(), neg(leftmost_formula()), diamond(TAPE_B, leftmost_formula()))


@lru_cache(maxsize=None)
def interior_far_formula(states: tuple[str, ...]) -> Formula:
    """Far from the head and not an end cell."""
    return conj(far_from_head_formula(states), neg(rightmost_formula()), neg(leftmost_formula()))


@lru_cache(maxsize=None)
def symbol_copy_formula(states: tuple[str, ...]) -> Formula:
    """Symbol world whose cell is not under the head (the copy action)."""
    any_head = disj_all(*[head_formula(q) for q in states])
    return conj(symbol_world_formula(), neg(diamond(SYMBOL, any_head)))


# ---------------------------------------------------------------------------
# precondition kinds

# Each kind's builder and the parameters it takes, in builder argument
# order: a machine state, a digit, or the whole state set.
_KINDS: dict[str, tuple[Callable[..., Formula], tuple[str, ...]]] = {
    "cell": (cell_formula, ()),
    "symbol": (symbol_world_formula, ()),
    "far": (far_from_head_formula, ("states",)),
    "rightmost": (rightmost_formula, ()),
    "leftmost": (leftmost_formula, ()),
    "penultimate-right": (penultimate_right_formula, ()),
    "penultimate-left": (penultimate_left_formula, ()),
    "interior": (interior_far_formula, ("states",)),
    "digit": (digit_formula, ("digit",)),
    "head": (head_formula, ("state",)),
    "left-of": (left_of_head_formula, ("state",)),
    "right-of": (right_of_head_formula, ("state",)),
    "head-reading": (head_reading_formula, ("state", "digit")),
    "left-of-reading": (left_of_head_reading_formula, ("state", "digit")),
    "right-of-reading": (right_of_head_reading_formula, ("state", "digit")),
}


@dataclass(frozen=True)
class PreconditionKind:
    """One of the fifteen expressible cell/symbol properties, possibly
    parameterized by a machine state and a digit."""

    name: str
    state: str | None = None
    digit: int | None = None

    def __post_init__(self):
        if self.name not in _KINDS:
            raise ValueError(f"unknown precondition kind {self.name!r}")
        params = _KINDS[self.name][1]
        if (self.state is not None) != ("state" in params):
            raise ValueError(f"kind {self.name!r} and state parameter do not match")
        if (self.digit is not None) != ("digit" in params):
            raise ValueError(f"kind {self.name!r} and digit parameter do not match")


def _kinds_taking(*params: str) -> list[str]:
    """Names of the kinds whose parameters, the state set aside, are ``params``."""
    return [n for n, (_, p) in _KINDS.items() if tuple(x for x in p if x != "states") == params]


def all_kinds(states: Sequence[str]) -> tuple[PreconditionKind, ...]:
    """Every kind, instantiated over the given states and both digits."""
    kinds = [PreconditionKind(n) for n in _kinds_taking()]
    kinds += [PreconditionKind(n, digit=i) for i in (0, 1) for n in _kinds_taking("digit")]
    for q in states:
        kinds += [PreconditionKind(n, state=q) for n in _kinds_taking("state")]
        kinds += [
            PreconditionKind(n, state=q, digit=i)
            for i in (0, 1)
            for n in _kinds_taking("state", "digit")
        ]
    return tuple(kinds)


def precondition(kind: PreconditionKind, states: Sequence[str]) -> Formula:
    """Formula for a precondition kind; ``states`` is the machine state set."""
    builder, params = _KINDS[kind.name]
    args = {"state": kind.state, "digit": kind.digit, "states": tuple(states)}
    return builder(*(args[p] for p in params))


# ---------------------------------------------------------------------------
# compilation


@dataclass(frozen=True)
class ActionRole:
    """Family tag for a compiled action (cell, grow, copy, write, mount)."""

    family: str
    detail: str = ""

    @classmethod
    def of(cls, action: str) -> ActionRole:
        """The role an action id names: family before the first colon,
        detail after it (``cell:h:q0:1`` is ``("cell", "h:q0:1")``)."""
        family, _, detail = action.partition(":")
        return cls(family, detail)


@dataclass(frozen=True)
class CompiledProgram:
    """An update program plus the growth mode it was built with."""

    program: EpistemicProgram
    growth_mode: str
    machine: str

    @property
    def roles(self) -> dict[str, ActionRole]:
        return {a: ActionRole.of(a) for a in self.program.actions}

    def designated_formulas(self) -> dict[str, Formula]:
        return {a: self.program.pre[a] for a in sorted(self.program.designated)}

    def actions_in_family(self, family: str) -> tuple[str, ...]:
        return tuple(a for a in self.program.actions if ActionRole.of(a).family == family)


def cell_action_ids(states: Sequence[str]) -> tuple[str, ...]:
    """Identifiers of the designated cell-copy family, in id order."""
    ids = ["cell:R", "cell:L", "cell:mid"]
    for q in states:
        for i in (0, 1):
            ids += [f"cell:h:{q}:{i}", f"cell:l:{q}:{i}", f"cell:r:{q}:{i}"]
    return tuple(sorted(ids))


def compile_program(spec: MachineSpec, growth_mode: str = "repaired") -> CompiledProgram:
    """Compile a machine into its update program.

    One product update of an encoded configuration with the result performs
    one machine step: the designated cell actions copy the tape, the grow
    actions lengthen it, the copy action moves the symbols, and the
    write/mount actions realize the applicable transition.
    """
    if growth_mode not in GROWTH_MODES:
        raise ValueError(f"growth_mode must be one of {GROWTH_MODES}")
    states = tuple(spec.states)
    agents = agent_universe(states)

    pre: dict[str, Formula] = {}
    post: dict[str, bool] = {}
    pairs: dict[Agent, list[tuple[str, str]]] = {agent: [] for agent in agents}

    # designated cell-copy family: one action per cell-classifying formula
    pre["cell:R"] = rightmost_formula()
    pre["cell:L"] = leftmost_formula()
    pre["cell:mid"] = interior_far_formula(states)
    for q in states:
        for i in (0, 1):
            pre[f"cell:h:{q}:{i}"] = head_reading_formula(q, i)
            pre[f"cell:l:{q}:{i}"] = left_of_head_reading_formula(q, i)
            pre[f"cell:r:{q}:{i}"] = right_of_head_reading_formula(q, i)
    designated = cell_action_ids(states)

    # the tape structure is copied by relating cell actions pairwise; the
    # leftmost action stays a-isolated and the rightmost b-isolated so the
    # end-cell formulas keep holding after the update
    a_members = sorted(a for a in designated if a != "cell:L")
    b_members = sorted(a for a in designated if a != "cell:R")
    pairs[TAPE_A] += itertools.combinations(a_members, 2)
    pairs[TAPE_B] += itertools.combinations(b_members, 2)

    # symbol transfer, skipping the head cell
    pre["copy"] = symbol_copy_formula(states)
    attach_targets = sorted(
        a for a in designated if not a.startswith("cell:h:")
    )
    pairs[SYMBOL] += [(target, "copy") for target in attach_targets]

    # one write and one mount action per defined transition
    for (q, i) in sorted(spec.transitions):
        target, written, move = spec.transitions[(q, i)]
        write_id = f"write:{q}:{i}"
        pre[write_id] = head_reading_formula(q, i)
        if written == 1:
            pairs[SYMBOL].append((write_id, f"cell:h:{q}:{i}"))

        # the mount fires where the cell action of the head's destination
        # does; the cell ids' side letters h/l/r are the lower-cased moves
        mount_id = f"mount:{q}:{i}"
        destination = f"cell:{move.lower()}:{q}:{i}"
        pre[mount_id] = pre[destination]
        pairs[state_agent(target)].append((destination, mount_id))

    # boundary growth
    if growth_mode == "repaired":
        for detail in ("R1", "R2"):
            pre[f"grow:{detail}"] = rightmost_formula()
        for detail in ("L1", "L2"):
            pre[f"grow:{detail}"] = leftmost_formula()
        post["grow:R1"] = True
        post["grow:L1"] = True
        post["grow:R2"] = False
        post["grow:L2"] = False
        pairs[TAPE_B].append(("cell:R", "grow:R1"))
        pairs[TAPE_A].append(("grow:R1", "grow:R2"))
        pairs[TAPE_A].append(("cell:L", "grow:L1"))
        pairs[TAPE_B].append(("grow:L1", "grow:L2"))
    else:
        pre["grow:R"] = rightmost_formula()
        pre["grow:PR"] = penultimate_right_formula()
        pre["grow:L"] = leftmost_formula()
        pre["grow:PL"] = penultimate_left_formula()
        pairs[TAPE_A] += [("grow:PR", "grow:R"), ("cell:L", "grow:PL")]
        pairs[TAPE_B] += [("cell:R", "grow:PR"), ("grow:PL", "grow:L")]

    program = build_program(pre.keys(), pairs, pre, post, designated)
    return CompiledProgram(program, growth_mode, spec.name)


def export_compiled(compiled: CompiledProgram) -> str:
    meta = {"growth_mode": compiled.growth_mode, "machine": compiled.machine}
    return export_program(compiled.program, roles=compiled.roles, meta=meta)


def import_compiled(text: str) -> CompiledProgram:
    """Inverse of ``export_compiled``. Role tags may be left out; a tag
    that disagrees with its action id is refused."""
    program, extras = import_program(text)
    for action, tag in extras["roles"].items():
        if ActionRole(tag.get("family"), tag.get("detail", "")) != ActionRole.of(action):
            raise ValueError(f"role tag {tag} of action {action!r} disagrees with its id")
    return CompiledProgram(program, extras["growth_mode"], extras["machine"])
