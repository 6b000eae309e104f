"""Binary-alphabet Turing machines: file parsing, the direct step/run
simulator used as the reference oracle, and configuration equivalence.

Tapes are handled through finite windows that contain the head; cells
outside the window are blank (0). Two configurations are equivalent when
they agree after trimming to the smallest such window, so window padding is
immaterial while absolute cell positions are not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

MOVES = ("L", "H", "R")
_MOVE_OFFSET = {"L": -1, "H": 0, "R": 1}
_RESERVED_STATE_NAMES = {"a", "b", "1"}
_BAD_NAME_CHARS = set("[]<>()~&|:#\"")

# Largest cell span the encoder builds: cells run from -span to span, about
# 2 * span worlds. Corpus, CI and benchmark runs stay below 300. The parser
# holds an ``input`` tape to the same bound before building its window.
MAX_SPAN = 10_000


@dataclass(frozen=True)
class Halted:
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


@dataclass(frozen=True)
class MachineSpec:
    """Machine description over tape alphabet {0, 1} with blank 0.

    ``transitions`` maps (state, read symbol) to (state, written symbol,
    move). A missing entry halts the machine; a declared ``halt`` state must
    have no outgoing transitions.
    """

    name: str
    states: tuple[str, ...]
    start: str
    halt: str | None
    transitions: Mapping[tuple[str, int], tuple[str, int, str]]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "transitions", dict(self.transitions))
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


@dataclass(frozen=True)
class FiniteConfiguration:
    """Finite tape window, head position inside it, and control state."""

    window: tuple[int, int]
    tape: tuple[int, ...]
    head: int
    state: str

    def __post_init__(self):
        object.__setattr__(self, "window", tuple(self.window))
        object.__setattr__(self, "tape", tuple(self.tape))
        lo, hi = self.window
        if lo > hi:
            raise ValueError(f"empty window [{lo}, {hi}]")
        if len(self.tape) != hi - lo + 1:
            raise ValueError("tape length does not match the window")
        if not lo <= self.head <= hi:
            raise ValueError(f"head {self.head} outside window [{lo}, {hi}]")
        if any(symbol not in (0, 1) for symbol in self.tape):
            raise ValueError("tape symbols must be 0 or 1")

    def symbol_at(self, position: int) -> int:
        lo, hi = self.window
        if lo <= position <= hi:
            return self.tape[position - lo]
        return 0

    def read_symbol(self) -> int:
        return self.tape[self.head - self.window[0]]

    def one_positions(self) -> tuple[int, ...]:
        lo = self.window[0]
        return tuple(lo + i for i, s in enumerate(self.tape) if s == 1)

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


@dataclass(frozen=True)
class OracleTrace:
    configs: tuple[FiniteConfiguration, ...]
    halted: bool
    steps: int


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
    tape = tuple(config.symbol_at(j) for j in range(lo, hi + 1))
    return FiniteConfiguration((lo, hi), tape, config.head, config.state)


def configs_equivalent(left: FiniteConfiguration, right: FiniteConfiguration) -> bool:
    """Same tape content, head position, and state, ignoring blank padding."""
    return normalize(left) == normalize(right)


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

    def fail(message, line):
        raise MachineFormatError(message, line)

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0]
        if key == "machine":
            if len(tokens) != 2:
                fail("expected: machine <name>", lineno)
            if name is not None:
                fail("duplicate machine line", lineno)
            name = tokens[1]
        elif key == "states":
            if len(tokens) < 2:
                fail("expected: states <name>...", lineno)
            if states is not None:
                fail("duplicate states line", lineno)
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
            if input_symbols is not None:
                fail("duplicate input line", lineno)
            for tok in tokens[1:]:
                if tok not in ("0", "1"):
                    fail(f"input symbol must be 0 or 1, got {tok!r}", lineno)
            input_symbols = [int(tok) for tok in tokens[1:]]
        elif key == "head":
            if len(tokens) != 2:
                fail("expected: head <integer>", lineno)
            try:
                head = int(tokens[1])
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
