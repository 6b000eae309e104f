"""Binary-alphabet Turing machines: file parsing, the direct step/run
simulator used as the reference oracle, and configuration equivalence.

Tapes are handled through finite windows that contain the head; cells
outside the window are blank (0). Two configurations are equivalent when
they agree after trimming to the smallest such window, so window padding is
immaterial while absolute cell positions are not.
"""

from __future__ import annotations

import itertools
from typing import Mapping

from ._value import Value, _set

MOVES = ("L", "H", "R")
_MOVE_OFFSET = {"L": -1, "H": 0, "R": 1}
_RESERVED_STATE_NAMES = {"a", "b", "1"}
_BAD_NAME_CHARS = set("[]<>()~&|:#\"")

# Largest cell span the encoder builds: cells run from -span to span, about
# 2 * span worlds. Corpus, CI and benchmark runs stay below 300. The parser
# holds an ``input`` tape to the same bound before building its window.
MAX_SPAN = 10_000


class Halted(Value):
    """Marker for an undefined transition."""

    def __repr__(self):
        return "HALTED"


HALTED = Halted()


class MachineFormatError(ValueError):
    """Malformed machine description; carries the source line when known."""

    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


def _check_state_name(name: str) -> None:
    if not name or name in _RESERVED_STATE_NAMES:
        raise ValueError(f"state name {name!r} is reserved or empty")
    bad = set(name) & _BAD_NAME_CHARS
    if bad or any(ch.isspace() for ch in name):
        raise ValueError(f"state name {name!r} contains forbidden characters")


class MachineSpec(Value):
    """Machine description over tape alphabet {0, 1} with blank 0.

    ``transitions`` maps (state, read symbol) to (state, written symbol,
    move). A missing entry halts the machine; a declared ``halt`` state must
    have no outgoing transitions.
    """

    _fields = ("name", "states", "start", "halt", "transitions")

    def __init__(
        self,
        name: str,
        states: tuple[str, ...],
        start: str,
        halt: str | None,
        transitions: Mapping[tuple[str, int], tuple[str, int, str]],
    ):
        _set(self, "name", name)
        _set(self, "states", tuple(states))
        _set(self, "start", start)
        _set(self, "halt", halt)
        _set(self, "transitions", dict(transitions))
        if not self.states:
            raise ValueError("machine needs at least one state")
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state names")
        for state in self.states:
            _check_state_name(state)
        if self.start not in self.states:
            raise ValueError(f"start state {self.start!r} not declared")
        if self.halt is not None and self.halt not in self.states:
            raise ValueError(f"halt state {self.halt!r} not declared")
        for (state, symbol), (target, written, move) in self.transitions.items():
            if state not in self.states:
                raise ValueError(f"transition from unknown state {state!r}")
            if target not in self.states:
                raise ValueError(f"transition to unknown state {target!r}")
            if symbol not in (0, 1) or written not in (0, 1):
                raise ValueError("tape symbols must be 0 or 1")
            if move not in MOVES:
                raise ValueError(f"unknown move {move!r}")
            if self.halt is not None and state == self.halt:
                raise ValueError(f"halt state {self.halt!r} has an outgoing transition")

    def transition(self, state: str, symbol: int):
        return self.transitions.get((state, symbol))


class FiniteConfiguration(Value):
    """Finite tape window, head position inside it, and control state."""

    _fields = ("window", "tape", "head", "state")

    def __init__(self, window: tuple[int, int], tape: tuple[int, ...], head: int, state: str):
        window = tuple(window)
        tape = tuple(tape)
        _set(self, "window", window)
        _set(self, "tape", tape)
        _set(self, "head", head)
        _set(self, "state", state)
        lo, hi = window
        if lo > hi:
            raise ValueError(f"empty window [{lo}, {hi}]")
        if len(tape) != hi - lo + 1:
            raise ValueError("tape length does not match the window")
        if not lo <= head <= hi:
            raise ValueError(f"head {head} outside window [{lo}, {hi}]")
        if tape.count(0) + tape.count(1) != len(tape):  # each symbol equals 0 or 1
            raise ValueError("tape symbols must be 0 or 1")
        _set(self, "_ones", tuple(itertools.compress(range(lo, hi + 1), tape)))

    def symbol_at(self, position: int) -> int:
        lo, hi = self.window
        if lo <= position <= hi:
            return self.tape[position - lo]
        return 0

    def read_symbol(self) -> int:
        return self.tape[self.head - self.window[0]]

    def one_positions(self) -> tuple[int, ...]:
        return self._ones  # made once, by the constructor

    def tape_text(self) -> str:
        return "".join(str(s) for s in self.tape)


def blank_config(state: str, head: int = 0) -> FiniteConfiguration:
    """All-blank window around ``head``, matching the file-format default."""
    return FiniteConfiguration((head - 1, head + 1), (0, 0, 0), head, state)


def step(spec: MachineSpec, config: FiniteConfiguration):
    """One transition; HALTED when none is defined for (state, read symbol).

    The window grows by one blank cell when the head walks off an end, so
    the head always stays inside the window.
    """
    entry = spec.transition(config.state, config.read_symbol())
    if entry is None:
        return HALTED
    target, written, move = entry
    lo, hi = config.window
    tape = list(config.tape)
    tape[config.head - lo] = written
    head = config.head + _MOVE_OFFSET[move]
    if head < lo:
        tape.insert(0, 0)
        lo -= 1
    elif head > hi:
        tape.append(0)
        hi += 1
    return FiniteConfiguration((lo, hi), tuple(tape), head, target)


class OracleTrace(Value):
    _fields = ("configs", "halted", "steps")

    def __init__(self, configs: tuple[FiniteConfiguration, ...], halted: bool, steps: int):
        _set(self, "configs", configs)
        _set(self, "halted", halted)
        _set(self, "steps", steps)


def run_oracle(spec: MachineSpec, config: FiniteConfiguration, max_steps: int) -> OracleTrace:
    """Iterate ``step`` up to ``max_steps`` times.

    ``halted`` reports whether the final configuration has no applicable
    transition, so a 0-step trace already reflects an immediately stuck
    machine.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    configs = [config]
    while len(configs) - 1 < max_steps:
        result = step(spec, configs[-1])
        if result is HALTED:
            break
        configs.append(result)
    last = configs[-1]
    halted = spec.transition(last.state, last.read_symbol()) is None
    return OracleTrace(tuple(configs), halted, len(configs) - 1)


def normalize(config: FiniteConfiguration) -> FiniteConfiguration:
    """Smallest-window representative containing the head and all 1 cells."""
    marks = config.one_positions()
    lo = min((config.head, *marks))
    hi = max((config.head, *marks))
    start = config.window[0]  # the new window lies inside the old one
    tape = config.tape[lo - start : hi - start + 1]
    return FiniteConfiguration((lo, hi), tape, config.head, config.state)


def configs_equivalent(left: FiniteConfiguration, right: FiniteConfiguration) -> bool:
    """Same tape content, head position, and state, ignoring blank padding:
    ``normalize(left) == normalize(right)`` without building either."""
    return (
        left.head == right.head
        and left.state == right.state
        and left.one_positions() == right.one_positions()
    )


def integer(text: str) -> int:
    """An optional ``-`` then ASCII digits, unlike ``int``."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"malformed integer {text!r}")
    return int(text)


def parse_machine(text: str) -> tuple[MachineSpec, FiniteConfiguration]:
    """Parse the line-oriented machine format.

    Returns the machine and the initial configuration from the optional
    ``input``/``head`` lines. Without ``input`` the tape is blank around the
    head; the window always contains the head and cell 0 of any input.
    """
    name = None
    states = None
    start = None
    halt = None
    transitions: dict = {}
    input_symbols = None
    head = None
    head_line = None
    seen = set()  # directives read so far, each allowed once

    def fail(message, line):
        raise MachineFormatError(message, line)

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0]
        if key in seen:
            fail(f"duplicate {key} line", lineno)
        if key != "trans":  # a trans line is checked per (state, symbol) pair
            seen.add(key)
        if key == "machine":
            if len(tokens) != 2:
                fail("expected: machine <name>", lineno)
            name = tokens[1]
        elif key == "states":
            if len(tokens) < 2:
                fail("expected: states <name>...", lineno)
            states = tokens[1:]
        elif key == "start":
            if len(tokens) != 2:
                fail("expected: start <state>", lineno)
            start = tokens[1]
        elif key == "halt":
            if len(tokens) != 2:
                fail("expected: halt <state>", lineno)
            halt = tokens[1]
        elif key == "trans":
            if len(tokens) != 7 or tokens[3] != "->":
                fail("expected: trans <q> <0|1> -> <q'> <0|1> <L|H|R>", lineno)
            state, read_tok, target, write_tok, move = (
                tokens[1],
                tokens[2],
                tokens[4],
                tokens[5],
                tokens[6],
            )
            if read_tok not in ("0", "1") or write_tok not in ("0", "1"):
                fail("tape symbol must be 0 or 1", lineno)
            if move not in MOVES:
                fail(f"malformed move token {move!r}", lineno)
            trans_key = (state, int(read_tok))
            if trans_key in transitions:
                fail(f"duplicate transition for ({state}, {read_tok})", lineno)
            transitions[trans_key] = (target, int(write_tok), move)
        elif key == "input":
            for tok in tokens[1:]:
                if tok not in ("0", "1"):
                    fail(f"input symbol must be 0 or 1, got {tok!r}", lineno)
            input_symbols = [int(tok) for tok in tokens[1:]]
        elif key == "head":
            if len(tokens) != 2:
                fail("expected: head <integer>", lineno)
            try:
                head = integer(tokens[1])
            except ValueError:
                fail(f"malformed head position {tokens[1]!r}", lineno)
            head_line = lineno
        else:
            fail(f"unknown directive {key!r}", lineno)

    if name is None:
        fail("missing machine line", None)
    if states is None:
        fail("missing states line", None)
    if start is None:
        fail("missing start line", None)

    try:
        spec = MachineSpec(name, tuple(states), start, halt, transitions)
    except ValueError as exc:
        raise MachineFormatError(str(exc)) from None

    head = 0 if head is None else head
    if input_symbols is None:
        initial = blank_config(spec.start, head)
    else:
        if abs(head) > MAX_SPAN:
            fail(f"head {head} lies more than {MAX_SPAN} cells from cell 0", head_line)
        lo = min(0, head)
        hi = max(len(input_symbols) - 1, head)
        tape = tuple(
            input_symbols[j] if 0 <= j < len(input_symbols) else 0 for j in range(lo, hi + 1)
        )
        initial = FiniteConfiguration((lo, hi), tape, head, spec.start)
    return spec, initial
