"""Emulation loop, lock-step verification against the direct simulator, and
trace/graph exports, plus the command line interface.

One emulation step is one product update of the current model with the
compiled program. Each step is decoded and compared against the direct
simulator; the trace records both sides together with model statistics so
divergences are data, not surprises.

Product worlds are ``(parent, action)`` pairs. From step 2 on the loop renames
each one ``(k, action)``, with k the index of the parent among the previous
step's sorted worlds (its position among that step's DOT nodes), so ids stay
one pair deep however long the run. Step-1 and re-encoded parents are encoder
names and stay as they are. The rename is one-to-one, so it maps the
relations the update built rather than building them again.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .action import DeterminismViolation, applicable_designated, product_update
from .codec import DEFAULT_PADDING, Malformed, component_of_point, decode, encode
from .logic import Evaluator, PointedKripkeModel, sorted_worlds, world_label
from .machine import (
    HALTED,
    FiniteConfiguration,
    MachineSpec,
    configs_equivalent,
    normalize,
    parse_machine,
    run_oracle,
    step,
)
from .program import GROWTH_MODES, CompiledProgram, cell_formula, compile_program, export_compiled


@dataclass(frozen=True)
class ModelStats:
    worlds: int
    component_worlds: int
    cells: int
    detached: int


def model_stats(model: PointedKripkeModel) -> ModelStats:
    component = component_of_point(model)
    cells = len(component & Evaluator.of(model).sat_set(cell_formula()))
    return ModelStats(len(model.worlds), len(component), cells, len(model.worlds) - len(component))


@dataclass(frozen=True)
class StepEntry:
    """One emulation step: decoded state, oracle state, and model metrics."""

    index: int
    decoded: object  # FiniteConfiguration | Halted | Malformed
    oracle: object  # FiniteConfiguration | Halted
    applicable: tuple[str, ...]
    stats: ModelStats
    match: bool
    model: PointedKripkeModel = field(repr=False)


@dataclass
class StepTrace:
    machine: str
    mode: str
    reencode: bool
    padding: int
    entries: list[StepEntry]
    stop_reason: str
    error: str | None = None


@dataclass(frozen=True)
class RunReport:
    machine: str
    mode: str
    steps: int
    first_divergence: int | None
    halt_agreement: bool
    stop_reason: str
    wall_time: float

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


def flatten_ids(updated: PointedKripkeModel, previous: PointedKripkeModel) -> PointedKripkeModel:
    """``updated``, the product update of ``previous``, with each world
    ``(parent, action)`` whose parent is a pair renamed ``(k, action)``, k the
    parent's index in ``sorted_worlds(previous.worlds)``. Left as it is when
    ``previous`` is an encoded model, whose worlds are names, not pairs."""
    if not isinstance(previous.point, tuple):
        return updated
    index = {w: k for k, w in enumerate(sorted_worlds(previous.worlds))}
    rename = {w: (index[w[0]], w[1]) for w in updated.worlds}
    worlds = frozenset(rename.values())
    relations = {agent: rel.renamed(rename, worlds) for agent, rel in updated.relations.items()}
    valuation = frozenset(rename[w] for w in updated.valuation)
    return PointedKripkeModel(worlds, relations, valuation, rename[updated.point])


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
    ``compiled`` is the program of ``spec`` in ``mode`` when the caller has
    already compiled it.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    if compiled is None:
        compiled = compile_program(spec, mode)
    program = compiled.program
    states = tuple(spec.states)

    model = encode(initial, states, padding).model
    oracle_state: object = initial
    entries: list[StepEntry] = []
    stop_reason = "step-cap"
    error = None

    # step 0 records the encoded start model; each later step first updates
    for index in range(max_steps + 1):
        if index:
            try:
                updated = product_update(model, program)
            except DeterminismViolation as exc:
                stop_reason = "determinism-violation"
                error = str(exc)
                break
            if updated is None:
                stop_reason = "undefined-update"
                error = "no designated action applicable at the point"
                break
            model = flatten_ids(updated, model)
            if oracle_state is not HALTED:
                oracle_state = step(spec, oracle_state)
        decoded = decode(model, states)
        if index and reencode and isinstance(decoded, FiniteConfiguration):
            model = encode(normalize(decoded), states, padding).model

        entries.append(
            StepEntry(
                index,
                decoded,
                oracle_state,
                tuple(applicable_designated(model, program)),
                model_stats(model),
                _entries_match(decoded, oracle_state),
                model,
            )
        )
        if isinstance(decoded, Malformed):
            stop_reason = "malformed"
            error = decoded.reason
            break
        if decoded is HALTED:
            stop_reason = "halted"
            break

    Evaluator.release()
    return StepTrace(spec.name, mode, reencode, padding, entries, stop_reason, error)


def verify_lockstep(
    spec: MachineSpec,
    initial: FiniteConfiguration,
    max_steps: int,
    mode: str = "repaired",
    reencode: bool = False,
    padding: int = DEFAULT_PADDING,
) -> RunReport:
    """Run emulation and direct simulation side by side and summarize."""
    started = time.perf_counter()
    trace = emulate(spec, initial, max_steps, mode, reencode, padding)
    elapsed = time.perf_counter() - started

    first_divergence = None
    for entry in trace.entries:
        if not entry.match:
            first_divergence = entry.index
            break
    decoded_halt = next((e.index for e in trace.entries if e.decoded is HALTED), None)
    oracle_halt = next((e.index for e in trace.entries if e.oracle is HALTED), None)
    return RunReport(
        spec.name,
        mode,
        len(trace.entries) - 1,
        first_divergence,
        decoded_halt == oracle_halt,
        trace.stop_reason,
        elapsed,
    )


# ---------------------------------------------------------------------------
# exports


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(model: PointedKripkeModel) -> str:
    """Undirected graph text: one node per world, one edge per non-reflexive
    pair, labeled by the relation index. Nodes, classes and members are put
    in ``sorted_worlds`` order here, whatever order the relations keep."""
    lines = ["graph model {", "  node [shape=circle];"]
    rank = {world: k for k, world in enumerate(sorted_worlds(model.worlds))}
    for world in rank:
        label = world_label(world) + (" p" if world in model.valuation else " ¬p")
        attrs = [f"label={_quote(label)}"]
        if world == model.point:
            attrs.append("peripheries=2")
        lines.append(f"  {_quote(world_label(world))} [{', '.join(attrs)}];")
    for agent in sorted(model.relations, key=lambda a: a.token):
        for cls in sorted(model.relations[agent].classes(), key=lambda c: min(map(rank.get, c))):
            members = sorted(cls, key=rank.get)
            for i, left in enumerate(members):
                for right in members[i + 1 :]:
                    lines.append(
                        f"  {_quote(world_label(left))} -- {_quote(world_label(right))}"
                        f" [label={_quote(agent.token)}];"
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


def export_trace_json(trace: StepTrace) -> str:
    """Deterministic JSON rendering of a trace, fixed key order."""
    steps = []
    for entry in trace.entries:
        steps.append(
            {
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
        )
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


# ---------------------------------------------------------------------------
# command line interface


def load_machine(path: str | Path) -> tuple[MachineSpec, FiniteConfiguration]:
    return parse_machine(Path(path).read_text(encoding="utf-8"))


def _describe(value) -> str:
    if value is HALTED:
        return "halted"
    if isinstance(value, Malformed):
        return f"malformed ({value.reason})"
    return (
        f"state={value.state} head={value.head} "
        f"window=[{value.window[0]},{value.window[1]}] tape={value.tape_text()}"
    )


def _cmd_emulate(args) -> int:
    spec, initial = load_machine(args.machine)
    compiled = compile_program(spec, args.mode)
    trace = emulate(spec, initial, args.steps, args.mode, args.reencode, args.padding, compiled)
    for entry in trace.entries:
        flag = "ok" if entry.match else "MISMATCH"
        print(
            f"step {entry.index}: {_describe(entry.decoded)} | oracle {_describe(entry.oracle)}"
            f" | worlds={entry.stats.worlds} component={entry.stats.component_worlds}"
            f" cells={entry.stats.cells} detached={entry.stats.detached} [{flag}]"
        )
    print(f"stopped: {trace.stop_reason}" + (f" ({trace.error})" if trace.error else ""))
    if args.trace:
        Path(args.trace).write_text(export_trace_json(trace), encoding="utf-8")
        print(f"trace written to {args.trace}")
    if args.dot_dir:
        directory = Path(args.dot_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for entry in trace.entries:
            (directory / f"step_{entry.index:03d}.dot").write_text(
                export_dot(entry.model), encoding="utf-8"
            )
        print(f"dot files written to {directory}")
    if args.emit_program:
        Path(args.emit_program).write_text(export_compiled(compiled), encoding="utf-8")
        print(f"program written to {args.emit_program}")
    return 0


def _cmd_oracle(args) -> int:
    spec, initial = load_machine(args.machine)
    trace = run_oracle(spec, initial, args.steps)
    for index, config in enumerate(trace.configs):
        print(f"step {index}: {_describe(config)}")
    print("halted" if trace.halted else f"step cap reached at {trace.steps}")
    return 0


def _cmd_verify(args) -> int:
    spec, initial = load_machine(args.machine)
    report = verify_lockstep(spec, initial, args.steps, args.mode, args.reencode, args.padding)
    print(
        f"machine={report.machine} mode={report.mode} steps={report.steps} "
        f"stop={report.stop_reason} wall={report.wall_time:.3f}s"
    )
    if report.first_divergence is not None:
        print(f"first divergence at step {report.first_divergence}")
    print(f"halt agreement: {'yes' if report.halt_agreement else 'no'}")
    if report.ok():
        print("verdict: emulation matches the direct simulation")
        return 0
    print("verdict: FAILED")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="epimachine",
        description="Emulate binary Turing machines by product update of pointed Kripke models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("machine", help="machine description file")
        p.add_argument("--steps", type=int, default=50, help="step cap (default 50)")

    def add_update_opts(p):
        p.add_argument(
            "--mode",
            choices=GROWTH_MODES,
            default="repaired",
            help="tape growth mode; 'faithful' is the literal paired-action "
            "construction (known boundary defect, kept for regression runs)",
        )
        p.add_argument(
            "--reencode",
            action="store_true",
            help="decode and re-encode after each step (fresh padding, drops detached worlds)",
        )
        p.add_argument(
            "--padding",
            type=int,
            default=DEFAULT_PADDING,
            help="blank cells beyond the even window bound (odd, default 5)",
        )

    p_emulate = sub.add_parser("emulate", help="run the update loop and print each step")
    add_common(p_emulate)
    add_update_opts(p_emulate)
    p_emulate.add_argument("--trace", help="write the step trace as JSON")
    p_emulate.add_argument("--dot-dir", help="write one DOT file per step model")
    p_emulate.add_argument("--emit-program", help="write the compiled program as JSON")

    p_oracle = sub.add_parser("oracle", help="print the direct simulation trajectory")
    add_common(p_oracle)

    p_verify = sub.add_parser(
        "verify", help="exit 0 iff emulation and direct simulation agree"
    )
    add_common(p_verify)
    add_update_opts(p_verify)

    args = parser.parse_args(argv)
    try:
        if args.command == "emulate":
            return _cmd_emulate(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        return _cmd_verify(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
