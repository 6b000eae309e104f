"""Emulation loop, lock-step verification against the direct simulator, and
trace/graph exports; the command line interface that drives them is
``cli``.

One emulation step is one product update of the current model with the
compiled program. Each step is decoded and compared against the direct
simulator; the trace records both sides together with model statistics so
divergences are data, not surprises.

One generator produces the run, yielding each step as it is built, and the
stop reason is read off the last step: its decode (halted or malformed), the
step cap, or the designated actions applicable at its point, which are the
ones the next update would choose from. ``emulate`` keeps every step;
``verify_lockstep`` folds each step into its report as it comes, and the
``emulate`` command prints and writes each step as it comes, so both hold
one step's model at a time.

A run reuses the program ``compile_program`` keeps on the spec, and reads
the stats of each encoding off the encoder (``encoded_stats``). Every
model of a ``repaired`` run is a tape chain (``_Core.chain``): the encoder
numbers the cells first, in tape order, and each update keeps them first.
So the checker takes each component from the chain, which decode and the
stats share, and decode reads the tape by mask comparisons; a component is
walked, once, only on a core without a chain through the point, or whose
chain's blocks meet a world outside them.
Each kept model runs one plan, the program's, and decode and stats read
their formulas from that run; a product model about to be re-encoded runs
only the decoder's plan. Every model is its integer core, built by the
encoder or from the parent's by the update, and the checker, decode, stats,
the next update and the DOT export read that core, so no model is numbered
twice and nothing on a run names a model's relations or valuation. A core
names its worlds when first read, and nothing on a run reads them.

Product worlds are ``(parent, action)`` pairs. Step-1 and re-encoded parents
are encoder names and stay as they are. From step 2 on each parent is
labelled by its rank k, its position among the step's worlds in name order
(among that step's DOT nodes), so the child is ``(k, action)`` and ids stay
one pair deep however long the run. The loop only asks the update to rank
a product parent; each product's core makes its name order when it is
first read (``_Core.order``): the first product after an encoding sorts its
names, and every later one builds its order from its parent's and the
lineage its namer keeps, without a sort of names. The ranks are taken from
the order only when a child's name is read, so a plain run names no world,
and the DOT export reads the order to rank its nodes. ``emulate`` keeps
every step, so it makes no order that nobody reads; the streaming runs make
each ranked product's order as its step is made, so no step holds a chain
of its ancestors' lineage. The naming rules themselves live in ``logic``
(sort keys and labels) and ``action`` (ranks and orders); the loop decides
only when to rank.
"""

from __future__ import annotations

import itertools
import json
import time
from pathlib import Path

from ._value import Value, _set
from .action import _RANK, DeterminismViolation, applicable_designated, product_update
from .codec import DEFAULT_PADDING, EncodedModel, Malformed, decode, encode
from .logic import Evaluator, PointedKripkeModel, _bits_of, _name_order, _plain_parts, _ranks, world_label
from .machine import (
    HALTED,
    FiniteConfiguration,
    MachineSpec,
    configs_equivalent,
    normalize,
    parse_machine,
    step,
)
from .program import CompiledProgram, cell_formula, compile_program


class ModelStats(Value):
    _fields = ("worlds", "component_worlds", "cells", "detached")

    def __init__(self, worlds: int, component_worlds: int, cells: int, detached: int):
        _set(self, "worlds", worlds)
        _set(self, "component_worlds", component_worlds)
        _set(self, "cells", cells)
        _set(self, "detached", detached)


def model_stats(model: PointedKripkeModel) -> ModelStats:
    ev = Evaluator.of(model)
    component = ev.component()
    cells = (ev.mask(cell_formula()) & component).bit_count()
    worlds, reached = ev._core.size, component.bit_count()
    return ModelStats(worlds, reached, cells, worlds - reached)


def encoded_stats(encoded: EncodedModel) -> ModelStats:
    """``model_stats`` of an encoding, which is one component by
    construction, its cells its core's ``chain``."""
    core = encoded.model._numbered()
    return ModelStats(core.size, core.size, core.chain[0], 0)


class StepEntry(Value):
    """One emulation step: decoded state, oracle state, and model metrics."""

    _fields = ("index", "decoded", "oracle", "applicable", "stats", "match", "model")
    _unshown = ("model",)

    def __init__(
        self,
        index: int,
        decoded: object,  # FiniteConfiguration | Halted | Malformed
        oracle: object,  # FiniteConfiguration | Halted
        applicable: tuple[str, ...],
        stats: ModelStats,
        match: bool,
        model: PointedKripkeModel,
    ):
        _set(self, "index", index)
        _set(self, "decoded", decoded)
        _set(self, "oracle", oracle)
        _set(self, "applicable", applicable)
        _set(self, "stats", stats)
        _set(self, "match", match)
        _set(self, "model", model)


class StepTrace(Value):
    """A whole emulation run; unlike the other records it is mutable and
    therefore unhashable."""

    _fields = ("machine", "mode", "reencode", "padding", "entries", "stop_reason", "error")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        machine: str,
        mode: str,
        reencode: bool,
        padding: int,
        entries: list[StepEntry],
        stop_reason: str,
        error: str | None = None,
    ):
        self.machine = machine
        self.mode = mode
        self.reencode = reencode
        self.padding = padding
        self.entries = entries
        self.stop_reason = stop_reason
        self.error = error


class RunReport(Value):
    _fields = (
        "machine", "mode", "steps", "first_divergence", "halt_agreement", "stop_reason", "wall_time"
    )

    def __init__(
        self,
        machine: str,
        mode: str,
        steps: int,
        first_divergence: int | None,
        halt_agreement: bool,
        stop_reason: str,
        wall_time: float,
    ):
        _set(self, "machine", machine)
        _set(self, "mode", mode)
        _set(self, "steps", steps)
        _set(self, "first_divergence", first_divergence)
        _set(self, "halt_agreement", halt_agreement)
        _set(self, "stop_reason", stop_reason)
        _set(self, "wall_time", wall_time)

    def ok(self) -> bool:
        return (
            self.first_divergence is None
            and self.halt_agreement
            and self.stop_reason in ("halted", "step-cap")
        )


def _entries_match(decoded, oracle) -> bool:
    if decoded is HALTED and oracle is HALTED:
        return True
    if isinstance(decoded, FiniteConfiguration) and isinstance(oracle, FiniteConfiguration):
        return configs_equivalent(decoded, oracle)
    return False


def _stop_of(entry: StepEntry, max_steps: int) -> tuple[str, str | None] | None:
    """Why the run stops after ``entry``, as ``(stop_reason, error)``, or None
    if it goes on. The next update would choose from ``entry.applicable``, so
    it is undefined or non-deterministic when that holds zero or several."""
    if isinstance(entry.decoded, Malformed):
        return "malformed", entry.decoded.reason
    if entry.decoded is HALTED:
        return "halted", None
    if entry.index == max_steps:
        return "step-cap", None
    if not entry.applicable:
        return "undefined-update", "no designated action applicable at the point"
    if len(entry.applicable) > 1:
        core = entry.model._numbered()
        violation = DeterminismViolation(core.names[core.point], entry.applicable)
        return "determinism-violation", str(violation)
    return None


def _steps(spec, initial, max_steps, mode, reencode, padding, compiled, kept=False):
    """Yield each step's entry as it is built, the last one being the first
    for which ``_stop_of`` names a stop reason. Unless the consumer keeps
    every step (``kept``), each ranked product's name order is made as its
    step is made, which drops the source's hold on its parent's order."""
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    if compiled is None:
        compiled = compile_program(spec, mode)
    elif compiled.machine != spec.name or compiled.growth_mode != mode:
        raise ValueError(
            f"program compiled for machine {compiled.machine!r} in mode {compiled.growth_mode!r},"
            f" not for machine {spec.name!r} in mode {mode!r}"
        )
    program = compiled.program
    states = tuple(spec.states)

    # the checker slot is emptied however the run ends, also when the
    # consumer stops early or fails, so it keeps no model alive
    try:
        encoded = encode(initial, states, padding)
        model = encoded.model
        oracle_state: object = initial
        # step 0 records the encoded start model; each later step first updates
        for index in range(max_steps + 1):
            if index:
                ranked = encoded is None  # a product parent is ranked by its name order
                model = product_update(model, program, _RANK if ranked else None)
                if ranked and not kept:
                    model._numbered().order  # made now, so no chain of lineage builds up
                encoded = None
                if oracle_state is not HALTED:
                    oracle_state = step(spec, oracle_state)
            if index and reencode:
                decoded = decode(model, states)
                if isinstance(decoded, FiniteConfiguration):
                    encoded = encode(normalize(decoded), states, padding)
                    model = encoded.model
                applicable = applicable_designated(model, program)
            else:  # the program's plan first: decode reads from its run
                applicable = applicable_designated(model, program)
                decoded = decode(model, states)

            entry = StepEntry(
                index,
                decoded,
                oracle_state,
                tuple(applicable),
                model_stats(model) if encoded is None else encoded_stats(encoded),
                _entries_match(decoded, oracle_state),
                model,
            )
            yield entry
            if _stop_of(entry, max_steps):
                break
    finally:
        Evaluator.release()


def emulate(
    spec: MachineSpec,
    initial: FiniteConfiguration,
    max_steps: int,
    mode: str = "repaired",
    reencode: bool = False,
    padding: int = DEFAULT_PADDING,
    compiled: CompiledProgram | None = None,
) -> StepTrace:
    """Run the update loop for up to ``max_steps`` steps.

    The loop stops at a halted or malformed decode, an undefined update, a
    determinism violation, or the step cap; the trace says which. With
    ``reencode`` each decoded configuration is normalized and re-encoded
    before the next update, which discards detached worlds and re-pads.
    ``compiled`` is the program of ``spec`` in ``mode``, by default the one
    ``compile_program`` keeps on the spec.
    """
    entries = list(_steps(spec, initial, max_steps, mode, reencode, padding, compiled, kept=True))
    stop_reason, error = _stop_of(entries[-1], max_steps)
    return StepTrace(spec.name, mode, reencode, padding, entries, stop_reason, error)


def verify_lockstep(
    spec: MachineSpec,
    initial: FiniteConfiguration,
    max_steps: int,
    mode: str = "repaired",
    reencode: bool = False,
    padding: int = DEFAULT_PADDING,
) -> RunReport:
    """Run emulation and direct simulation side by side and summarize, one
    step at a time: only the current step's model is kept."""
    started = time.perf_counter()
    first_divergence = oracle_halt = None
    for entry in _steps(spec, initial, max_steps, mode, reencode, padding, None):
        if first_divergence is None and not entry.match:
            first_divergence = entry.index
        if oracle_halt is None and entry.oracle is HALTED:
            oracle_halt = entry.index
    elapsed = time.perf_counter() - started
    decoded_halt = entry.index if entry.decoded is HALTED else None  # a halt ends the run
    return RunReport(
        spec.name,
        mode,
        entry.index,
        first_divergence,
        decoded_halt == oracle_halt,
        _stop_of(entry, max_steps)[0],
        elapsed,
    )


# ---------------------------------------------------------------------------
# exports


def _quote(text: str) -> str:
    if '"' in text or "\\" in text:
        text = text.replace("\\", "\\\\").replace('"', '\\"')
    return '"' + text + '"'


def export_dot(model: PointedKripkeModel) -> str:
    """Undirected graph text: one node per world, one edge per non-reflexive
    pair, labeled by the relation index, read off the model's core. Nodes,
    classes and members are put in ``world_sort_key`` order of their names,
    as ``_name_order`` gives it.
    Plain names and pairs of plain names are keyed and labelled in bulk, the
    recursive ``world_sort_key`` and ``world_label`` read any other, and the
    nodes and the edges are written by one format map each; a relation with
    a block of three or more members is first expanded into its pairs."""
    core = model._numbered()
    names = core.names
    order = _name_order(core)
    parts = _plain_parts(names)
    if parts is None:
        labels = list(map(world_label, names))
    else:
        labels = parts[0] if len(parts) == 1 else list(map("({},{})".format, *parts))
    labels = list(map(labels.__getitem__, order))  # by rank
    text = "".join(labels)
    if '"' in text or "\\" in text:  # as ``_quote`` escapes
        labels = [label.replace("\\", "\\\\").replace('"', '\\"') for label in labels]
    values = _bits_of(core.valuation, core.size)
    truths = map((" ¬p", " p").__getitem__, map(values.__getitem__, order))
    lines = ["graph model {", "  node [shape=circle];"]
    lines += map('  "{0}" [label="{0}{1}"];'.format, labels, truths)
    rank = _ranks(order)
    point = 2 + rank[core.point]  # its line ends in '"];'
    lines[point] = lines[point][:-2] + ", peripheries=2];"
    node = list(map('"{}"'.format, labels))
    for agent in sorted(core.blocks, key=lambda a: a.token):
        suffix = f" [label={_quote(agent.token)}];"
        blocks = core.blocks[agent]
        # blocks are disjoint, so their sorted rank lists sort by least rank
        ranks = sorted(map(sorted, map(map, itertools.repeat(rank.__getitem__), blocks)))
        if set(map(len, blocks)) != {2}:  # a larger block's pairs, in rank order
            ranks = [pair for members in ranks for pair in itertools.combinations(members, 2)]
        if ranks:
            lows, highs = zip(*ranks)
            lines += map(
                "  {} -- {}{}".format,
                map(node.__getitem__, lows),
                map(node.__getitem__, highs),
                itertools.repeat(suffix),
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _config_json(config: FiniteConfiguration) -> dict:
    return {
        "state": config.state,
        "head": config.head,
        "window": list(config.window),
        "tape": config.tape_text(),
    }


def _side_json(value) -> object:
    if value is HALTED:
        return "halted"
    if isinstance(value, Malformed):
        return "malformed"
    return _config_json(value)


def _step_json(entry: StepEntry) -> dict:
    return {
        "n": entry.index,
        "decoded": _side_json(entry.decoded),
        "oracle": _side_json(entry.oracle),
        "applicable": list(entry.applicable),
        "worlds": entry.stats.worlds,
        "component_worlds": entry.stats.component_worlds,
        "cells": entry.stats.cells,
        "detached": entry.stats.detached,
        "match": entry.match,
    }


def _trace_json(trace: StepTrace, steps: list[dict]) -> str:
    """The trace document with ``steps`` as its step records; of ``trace``
    only the run's settings and stop reason are read, not its entries."""
    doc = {
        "machine": trace.machine,
        "mode": trace.mode,
        "reencode": trace.reencode,
        "padding": trace.padding,
        "stop_reason": trace.stop_reason,
        "error": trace.error,
        "steps": steps,
    }
    return json.dumps(doc, indent=2) + "\n"


def export_trace_json(trace: StepTrace) -> str:
    """Deterministic JSON rendering of a trace, fixed key order."""
    return _trace_json(trace, [_step_json(entry) for entry in trace.entries])


def load_machine(path: str | Path) -> tuple[MachineSpec, FiniteConfiguration]:
    return parse_machine(Path(path).read_text(encoding="utf-8"))
