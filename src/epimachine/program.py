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

Equal formulas are one object, interned in ``logic``; the builders are
cached only to save rebuilding them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from .action import EpistemicProgram, build_program
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

_KIND_NAMES = (
    "cell",
    "symbol",
    "digit",
    "head",
    "left-of",
    "right-of",
    "head-reading",
    "left-of-reading",
    "right-of-reading",
    "far",
    "rightmost",
    "leftmost",
    "penultimate-right",
    "penultimate-left",
    "interior",
)
_STATE_KINDS = ("head", "left-of", "right-of", "head-reading", "left-of-reading", "right-of-reading")
_DIGIT_KINDS = ("digit", "head-reading", "left-of-reading", "right-of-reading")


@dataclass(frozen=True)
class PreconditionKind:
    """One of the fifteen expressible cell/symbol properties, possibly
    parameterized by a machine state and a digit."""

    name: str
    state: str | None = None
    digit: int | None = None

    def __post_init__(self):
        if self.name not in _KIND_NAMES:
            raise ValueError(f"unknown precondition kind {self.name!r}")
        if (self.state is not None) != (self.name in _STATE_KINDS):
            raise ValueError(f"kind {self.name!r} and state parameter do not match")
        if (self.digit is not None) != (self.name in _DIGIT_KINDS):
            raise ValueError(f"kind {self.name!r} and digit parameter do not match")


def all_kinds(states: Sequence[str]) -> tuple[PreconditionKind, ...]:
    """Every kind, instantiated over the given states and both digits."""
    kinds = [PreconditionKind(n) for n in ("cell", "symbol", "far", "rightmost", "leftmost", "penultimate-right", "penultimate-left", "interior")]
    kinds += [PreconditionKind("digit", digit=i) for i in (0, 1)]
    for q in states:
        kinds += [PreconditionKind(n, state=q) for n in ("head", "left-of", "right-of")]
        for i in (0, 1):
            kinds += [
                PreconditionKind(n, state=q, digit=i)
                for n in ("head-reading", "left-of-reading", "right-of-reading")
            ]
    return tuple(kinds)


def precondition(kind: PreconditionKind, states: Sequence[str]) -> Formula:
    """Formula for a precondition kind; ``states`` is the machine state set."""
    states = tuple(states)
    if kind.name == "cell":
        return cell_formula()
    if kind.name == "symbol":
        return symbol_world_formula()
    if kind.name == "digit":
        return digit_formula(kind.digit)
    if kind.name == "head":
        return head_formula(kind.state)
    if kind.name == "left-of":
        return left_of_head_formula(kind.state)
    if kind.name == "right-of":
        return right_of_head_formula(kind.state)
    if kind.name == "head-reading":
        return head_reading_formula(kind.state, kind.digit)
    if kind.name == "left-of-reading":
        return left_of_head_reading_formula(kind.state, kind.digit)
    if kind.name == "right-of-reading":
        return right_of_head_reading_formula(kind.state, kind.digit)
    if kind.name == "far":
        return far_from_head_formula(states)
    if kind.name == "rightmost":
        return rightmost_formula()
    if kind.name == "leftmost":
        return leftmost_formula()
    if kind.name == "penultimate-right":
        return penultimate_right_formula()
    if kind.name == "penultimate-left":
        return penultimate_left_formula()
    if kind.name == "interior":
        return interior_far_formula(states)
    raise AssertionError(kind)


# ---------------------------------------------------------------------------
# compilation


@dataclass(frozen=True)
class ActionRole:
    """Family tag for a compiled action (cell, grow, copy, write, mount)."""

    family: str
    detail: str = ""


@dataclass(frozen=True)
class CompiledProgram:
    """An update program plus role tags and the growth mode it was built with."""

    program: EpistemicProgram
    roles: Mapping[str, ActionRole]
    growth_mode: str
    machine: str

    def __post_init__(self):
        object.__setattr__(self, "roles", dict(self.roles))

    def designated_formulas(self) -> dict[str, Formula]:
        return {a: self.program.pre[a] for a in sorted(self.program.designated)}

    def actions_in_family(self, family: str) -> tuple[str, ...]:
        return tuple(a for a in self.program.actions if self.roles[a].family == family)


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
    roles: dict[str, ActionRole] = {}
    pairs: dict[Agent, list[tuple[str, str]]] = {agent: [] for agent in agents}

    # designated cell-copy family: one action per cell-classifying formula
    pre["cell:R"] = rightmost_formula()
    pre["cell:L"] = leftmost_formula()
    pre["cell:mid"] = interior_far_formula(states)
    roles["cell:R"] = ActionRole("cell", "R")
    roles["cell:L"] = ActionRole("cell", "L")
    roles["cell:mid"] = ActionRole("cell", "mid")
    for q in states:
        for i in (0, 1):
            pre[f"cell:h:{q}:{i}"] = head_reading_formula(q, i)
            pre[f"cell:l:{q}:{i}"] = left_of_head_reading_formula(q, i)
            pre[f"cell:r:{q}:{i}"] = right_of_head_reading_formula(q, i)
            for side in ("h", "l", "r"):
                roles[f"cell:{side}:{q}:{i}"] = ActionRole("cell", f"{side}:{q}:{i}")
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
    roles["copy"] = ActionRole("copy")
    attach_targets = sorted(
        a for a in designated if not a.startswith("cell:h:")
    )
    pairs[SYMBOL] += [(target, "copy") for target in attach_targets]

    # one write and one mount action per defined transition
    for (q, i) in sorted(spec.transitions):
        target, written, move = spec.transitions[(q, i)]
        write_id = f"write:{q}:{i}"
        pre[write_id] = head_reading_formula(q, i)
        roles[write_id] = ActionRole("write", f"{q}:{i}")
        if written == 1:
            pairs[SYMBOL].append((write_id, f"cell:h:{q}:{i}"))

        mount_id = f"mount:{q}:{i}"
        if move == "H":
            pre[mount_id] = head_reading_formula(q, i)
            destination = f"cell:h:{q}:{i}"
        elif move == "L":
            pre[mount_id] = left_of_head_reading_formula(q, i)
            destination = f"cell:l:{q}:{i}"
        else:
            pre[mount_id] = right_of_head_reading_formula(q, i)
            destination = f"cell:r:{q}:{i}"
        roles[mount_id] = ActionRole("mount", f"{q}:{i}")
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
        grow_details = ("R1", "R2", "L1", "L2")
    else:
        pre["grow:R"] = rightmost_formula()
        pre["grow:PR"] = penultimate_right_formula()
        pre["grow:L"] = leftmost_formula()
        pre["grow:PL"] = penultimate_left_formula()
        pairs[TAPE_A] += [("grow:PR", "grow:R"), ("cell:L", "grow:PL")]
        pairs[TAPE_B] += [("cell:R", "grow:PR"), ("grow:PL", "grow:L")]
        grow_details = ("R", "PR", "L", "PL")
    for detail in grow_details:
        roles[f"grow:{detail}"] = ActionRole("grow", detail)

    program = build_program(pre.keys(), pairs, pre, post, designated)
    return CompiledProgram(program, roles, growth_mode, spec.name)


def export_compiled(compiled: CompiledProgram) -> str:
    from .action import export_program

    meta = {"growth_mode": compiled.growth_mode, "machine": compiled.machine}
    return export_program(compiled.program, roles=compiled.roles, meta=meta)


def import_compiled(text: str) -> CompiledProgram:
    from .action import import_program

    program, extras = import_program(text)
    roles = {
        action: ActionRole(entry["family"], entry.get("detail", ""))
        for action, entry in extras.get("roles", {}).items()
    }
    if set(roles) != set(program.actions):
        raise ValueError("compiled program document must tag every action")
    return CompiledProgram(program, roles, extras["growth_mode"], extras["machine"])
