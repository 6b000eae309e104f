"""Checks made apart from the program under test.

The machine texts are parsed here with a parser of the benchmark's own and
run on a plain tape simulator, so a lock-step run of ``epimachine`` is
compared against a computation that shares no code with
``epimachine.machine``. The satisfaction-set evaluator below likewise shares
no code with ``epimachine.logic.Evaluator``; it only reads the model's
worlds, valuation and relation classes.
"""

from __future__ import annotations

import json

MOVE = {"L": -1, "H": 0, "R": 1}

# Known facts about the corpus, checked on the emulated (decoded) runs:
# machine -> (steps before halting, ones on the tape when halted); None
# leaves the step count unchecked.
HALT_FACTS = {
    "bb2": (6, 4),  # Rado 1962
    "bb3": (None, 6),  # Lin & Rado 1965
    "bb4": (107, 13),  # Brady 1983
}


class RefMachine:
    """A machine text read by the benchmark's own parser."""

    def __init__(self, text: str):
        self.name = None
        self.start = None
        self.table = {}
        ones = []
        self.head = 0
        for raw in text.splitlines():
            tokens = raw.split("#", 1)[0].split()
            if not tokens:
                continue
            key = tokens[0]
            if key == "machine":
                self.name = tokens[1]
            elif key == "start":
                self.start = tokens[1]
            elif key == "trans":
                state, read, _, target, write, move = tokens[1:7]
                self.table[(state, int(read))] = (target, int(write), MOVE[move])
            elif key == "input":
                ones = [i for i, tok in enumerate(tokens[1:]) if tok == "1"]
            elif key == "head":
                self.head = int(tokens[1])
        self.ones = frozenset(ones)

    def run(self, cap: int):
        """Configurations (state, head, ones) after 0..n steps, and whether
        the run stopped because no transition applied (n < cap)."""
        state, head, ones = self.start, self.head, set(self.ones)
        configs = [(state, head, frozenset(ones))]
        while len(configs) <= cap:
            entry = self.table.get((state, 1 if head in ones else 0))
            if entry is None:
                return configs, True
            state, write, move = entry
            if write:
                ones.add(head)
            else:
                ones.discard(head)
            head += move
            configs.append((state, head, frozenset(ones)))
        last_state, last_head, last_ones = configs[-1]
        stuck = (last_state, 1 if last_head in last_ones else 0) not in self.table
        return configs, stuck


def config_of(decoded):
    """(state, head, ones) of a decoded FiniteConfiguration, from its raw fields."""
    lo = decoded.window[0]
    ones = frozenset(lo + i for i, symbol in enumerate(decoded.tape) if symbol == 1)
    return decoded.state, decoded.head, ones


def config_of_json(side):
    lo = side["window"][0]
    ones = frozenset(lo + i for i, ch in enumerate(side["tape"]) if ch == "1")
    return side["state"], side["head"], ones


def expected_run(ref: RefMachine, cap: int):
    """What a correct lock-step run to ``cap`` shows: the configuration at
    each entry index, a halt index (one past the last configuration) or
    None, and the stop reason."""
    configs, stuck = ref.run(cap)
    if stuck and len(configs) <= cap:
        return configs, len(configs), "halted"
    return configs, None, "step-cap"


def check_run(op, trace, halted, problems):
    """Compare a StepTrace with the reference and the known facts."""
    configs, halt_index, stop = expected_run(op.ref, op.cap)
    entries = trace.entries
    if trace.stop_reason != stop:
        problems.append(f"stop reason {trace.stop_reason!r}, expected {stop!r}")
        return
    expected_len = len(configs) + (1 if halt_index is not None else 0)
    if len(entries) != expected_len:
        problems.append(f"{len(entries)} entries, expected {expected_len}")
        return
    for entry in entries:
        if entry.index < len(configs):
            if entry.decoded is halted or not hasattr(entry.decoded, "window"):
                problems.append(f"step {entry.index}: decoded {entry.decoded!r}")
                return
            if config_of(entry.decoded) != configs[entry.index]:
                problems.append(f"step {entry.index}: decoded configuration differs")
                return
        elif entry.decoded is not halted:
            problems.append(f"step {entry.index}: expected the halt, got {entry.decoded!r}")
            return
        if not entry.match:
            problems.append(f"step {entry.index}: the runner reports a mismatch")
            return
    check_facts(op, configs, halt_index, problems)


def check_facts(op, configs, halt_index, problems):
    name = op.ref.name
    if name == "march":
        for n, (_, head, ones) in enumerate(configs):
            if head != n or ones != frozenset(range(n)):
                problems.append(f"march step {n}: head {head}, ones {sorted(ones)}")
                return
    if name in HALT_FACTS and halt_index is not None:
        steps, ones = HALT_FACTS[name]
        if steps is not None and halt_index - 1 != steps:
            problems.append(f"{name} halted after {halt_index - 1} steps, expected {steps}")
        if len(configs[-1][2]) != ones:
            problems.append(f"{name} halted with {len(configs[-1][2])} ones, expected {ones}")


def check_properties(trace, reencode, problems):
    """Determinism and, without re-encoding, the growth law, on every step."""
    for entry in trace.entries:
        if len(entry.applicable) != 1:
            problems.append(f"step {entry.index}: designated actions {entry.applicable}")
            return
    if not reencode:
        cells = [entry.stats.cells for entry in trace.entries]
        for n in range(1, len(cells)):
            if cells[n] - cells[n - 1] != 4:
                problems.append(f"step {n}: tape grew by {cells[n] - cells[n - 1]} cells")
                return


def check_renders(op, trace, json_text, dots, problems):
    """One DOT node line per world, the point marked once, and a trace JSON
    that parses and agrees with the reference."""
    for entry, dot in zip(trace.entries, dots):
        lines = dot.splitlines()
        nodes = sum(1 for line in lines if " [label=" in line and " -- " not in line)
        if nodes != len(entry.model.worlds):
            problems.append(f"step {entry.index}: {nodes} DOT nodes for {len(entry.model.worlds)} worlds")
            return
        if dot.count("peripheries=2") != 1:
            problems.append(f"step {entry.index}: the point is not marked exactly once")
            return
    if len(dots) != len(trace.entries):
        problems.append(f"{len(dots)} DOT texts for {len(trace.entries)} steps")
        return
    doc = json.loads(json_text)
    configs, halt_index, stop = expected_run(op.ref, op.cap)
    if doc["stop_reason"] != stop or len(doc["steps"]) != len(trace.entries):
        problems.append("trace JSON disagrees on the stop reason or the step count")
        return
    for step in doc["steps"]:
        n = step["n"]
        for side in (step["decoded"], step["oracle"]):
            if n < len(configs):
                good = isinstance(side, dict) and config_of_json(side) == configs[n]
            else:
                good = side == "halted"
            if not good:
                problems.append(f"trace JSON step {n} disagrees with the reference")
                return


def step_signature(trace):
    """What two repetitions of one run must agree on. Plain values only: each
    round imports the package afresh, so its classes differ between rounds."""
    return tuple(
        (repr(entry.decoded), entry.applicable, tuple(vars(entry.stats).values()))
        for entry in trace.entries
    )


class SetEvaluator:
    """Bottom-up satisfaction sets over one model, keyed by formula identity."""

    def __init__(self, model):
        self.model = model
        self.memo = {}

    def sat(self, formula):
        key = id(formula)
        hit = self.memo.get(key)
        if hit is not None:
            return hit[1]
        kind = type(formula).__name__
        model = self.model
        if kind == "Top":
            result = model.worlds
        elif kind == "Atom":
            result = model.valuation
        elif kind == "Not":
            result = model.worlds - self.sat(formula.sub)
        elif kind == "And":
            result = self.sat(formula.left) & self.sat(formula.right)
        elif kind == "Box":
            inner = self.sat(formula.sub)
            result = frozenset(
                w for cls in model.relations[formula.agent].classes() if cls <= inner for w in cls
            )
        else:
            raise TypeError(f"not a formula: {formula!r}")
        # keep the formula alive so its id cannot be reused by another one
        self.memo[key] = (formula, result)
        return result


def deep_check(trace, program, problems):
    """Recount each update with the benchmark's own evaluator.

    Returns the worlds each product update creates (the sum over actions of
    the worlds satisfying its precondition in the model it was applied to),
    checks that exactly the one reported designated action holds at every
    point, and, where the trace keeps the product itself, that it has that
    many worlds.
    """
    entries = trace.entries
    created = []
    for n, entry in enumerate(entries):
        ev = SetEvaluator(entry.model)
        holds = [a for a in sorted(program.designated) if entry.model.point in ev.sat(program.pre[a])]
        if tuple(holds) != entry.applicable:
            problems.append(f"step {n}: designated actions {holds}, runner says {entry.applicable}")
            return created
        if n + 1 < len(entries):
            created.append(sum(len(ev.sat(program.pre[a])) for a in program.actions))
            if not trace.reencode and created[-1] != len(entries[n + 1].model.worlds):
                problems.append(f"step {n + 1}: product has {len(entries[n + 1].model.worlds)} worlds, expected {created[-1]}")
                return created
    return created
