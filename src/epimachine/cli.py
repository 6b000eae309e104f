"""The command line interface: ``emulate``, ``oracle`` and ``verify``.

It reads machines, runs and exports through ``runner``, and reports a
refused input as ``error: ...`` with exit 2. The package does not import
this module, so only a command pays for compiling it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import runner
from .codec import DEFAULT_PADDING, Malformed
from .machine import HALTED, integer, run_oracle
from .program import GROWTH_MODES, export_compiled


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
    """Print each step, and write its DOT file, as the step is built; the
    trace keeps each step's JSON record, not its model, until the run ends.
    The files written after the run are checked, and the program's text
    rendered, before it starts; the DOT directory is made once step 0 is
    built."""
    spec, initial = runner.load_machine(args.machine)
    compiled = runner.compile_program(spec, args.mode)
    for path in [Path(target) for target in (args.trace, args.emit_program) if target]:
        if not path.parent.is_dir():
            raise NotADirectoryError(f"cannot write {path}: no directory {path.parent}")
        if path.is_dir():
            raise IsADirectoryError(f"cannot write {path}: it is a directory")
    program_text = export_compiled(compiled) if args.emit_program else None
    directory = Path(args.dot_dir) if args.dot_dir else None
    records = []
    run = runner._steps(spec, initial, args.steps, args.mode, args.reencode, args.padding, compiled)
    for entry in run:
        if directory and not entry.index:
            directory.mkdir(parents=True, exist_ok=True)
        flag = "ok" if entry.match else "MISMATCH"
        print(
            f"step {entry.index}: {_describe(entry.decoded)} | oracle {_describe(entry.oracle)}"
            f" | worlds={entry.stats.worlds} component={entry.stats.component_worlds}"
            f" cells={entry.stats.cells} detached={entry.stats.detached} [{flag}]"
        )
        if args.trace:
            records.append(runner._step_json(entry))
        if directory:
            (directory / f"step_{entry.index:03d}.dot").write_text(
                runner.export_dot(entry.model), encoding="utf-8"
            )
    stop_reason, error = runner._stop_of(entry, args.steps)
    print(f"stopped: {stop_reason}" + (f" ({error})" if error else ""))
    if args.trace:
        trace = runner.StepTrace(spec.name, args.mode, args.reencode, args.padding, [], stop_reason, error)
        Path(args.trace).write_text(runner._trace_json(trace, records), encoding="utf-8")
        print(f"trace written to {args.trace}")
    if directory:
        print(f"dot files written to {directory}")
    if args.emit_program:
        Path(args.emit_program).write_text(program_text, encoding="utf-8")
        print(f"program written to {args.emit_program}")
    return 0


def _cmd_oracle(args) -> int:
    spec, initial = runner.load_machine(args.machine)
    trace = run_oracle(spec, initial, args.steps)
    for index, config in enumerate(trace.configs):
        print(f"step {index}: {_describe(config)}")
    print("halted" if trace.halted else f"step cap reached at {trace.steps}")
    return 0


def _cmd_verify(args) -> int:
    spec, initial = runner.load_machine(args.machine)
    report = runner.verify_lockstep(spec, initial, args.steps, args.mode, args.reencode, args.padding)
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
        p.add_argument("--steps", type=integer, default=50, help="step cap (default 50)")

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
            type=integer,
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
    except (OSError, RecursionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
