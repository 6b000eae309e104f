"""Lock-step emulation benchmark for epimachine.

    python3 bench/run.py                      # every workload, untraced and traced
    python3 bench/run.py --workload grow --seed 3 --trace 0

One run repeats whole rounds of lock-step runs for at least ``--seconds``
(by default ``run_seconds`` from BENCHMARK.json), at least 49 runs and at
least three rounds, setting the workload up afresh (import, parse, compile,
encode) SETUPS_PER_ROUND times before each round. Every run is checked
against the benchmark's own tape simulator and known facts, outside the
timed path. A fixed reference kernel (``calibrate.py``) is timed between
set-ups and operations, and each time is scaled by the kernel samples
nearest to it to a host of reference speed. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``). The exit code is 0 only when every check held.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from reference import check_properties, check_renders, check_run, deep_check, step_signature
from tracing import Tracer, layer_metrics
from workloads import BENCH_DIR, WORKLOADS, make_workload

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MIN_ROUNDS = 3
SETUPS_PER_ROUND = 4  # fresh set-ups timed before each round; the round uses the last
# Fewest lock-step runs per run. At least 40 make a tail percentile exist;
# 49 make it fall inside one operation's runs on the seven-operation
# workloads (p79 is the 39th of 49: the 4th of the 7 runs of the 6th
# cheapest operation), not on the edge between two operations of near cost.
MIN_RUNS = 49
TAIL_BEYOND = 10  # runs that must lie beyond the reported tail percentile
END_TO_END = (
    "setup_s",
    "run_s",
    "steps_per_s",
    "worlds_per_s",
    "verdict_p50_ms",
    "verdict_tail_ms",
    "peak_rss_mb",
)


def set_up(workload, tracer):
    """Import the package afresh, parse, compile and encode every machine.

    Returns the elapsed time, the package and per machine (spec, initial
    configuration, program).
    """
    for name in [m for m in sys.modules if m == "epimachine" or m.startswith("epimachine.")]:
        del sys.modules[name]
    if tracer:
        tracer.run = "setup"
    started = time.perf_counter()
    em = importlib.import_module("epimachine")
    if tracer is None:
        api = {
            "parse_machine": em.machine.parse_machine,
            "compile_program": em.program.compile_program,
            "encode": em.codec.encode,
        }
    else:
        api = tracer.install(em)
    machines = []
    for text in workload.texts:
        spec, initial = api["parse_machine"](text)
        compiled = api["compile_program"](spec)
        api["encode"](initial, spec.states)
        machines.append((spec, initial, compiled.program))
    return time.perf_counter() - started, em, machines


def tail(values):
    """Highest whole percentile with at least TAIL_BEYOND values beyond it
    (nearest rank): (percentile, value)."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1]
    raise ValueError(f"{n} runs are too few for a tail percentile")


def id_depth(world):
    depth = 0
    while isinstance(world, tuple):
        world, depth = world[0], depth + 1
    return depth


def probe(em, tracer, workload, machines, kept):
    """Untimed per-layer probes over the last round: every program
    precondition through ``logic.sat_set`` on every kept step model, and the
    (world, action) pairs the round's product updates examined."""
    tracer.run = "probe"
    sat_set = tracer.wrap("logic.sat_set", em.logic.sat_set)
    for i, trace in kept:
        program = machines[workload.ops[i].machine][2]
        for entry in trace.entries:
            for action in program.actions:
                sat_set(entry.model, program.pre[action])
    models = [entry.model for _, trace in kept for entry in trace.entries]
    lasts = [trace.entries[-1].stats for _, trace in kept]
    return {
        "action.product_update.pairs": (count_pairs(em, tracer.updates), "count"),
        "logic.id_depth.max": (max(id_depth(m.point) for m in models), "count"),
        "model.worlds.peak": (max(len(m.worlds) for m in models), "count"),
        "model.component_share": (
            sum(s.component_worlds for s in lasts) / sum(s.worlds for s in lasts),
            "ratio",
        ),
        "model.kept_worlds": (
            max(sum(len(e.model.worlds) for e in trace.entries) for _, trace in kept),
            "count",
        ),
    }


def count_pairs(em, updates):
    """Replay the recorded ``action.product_update`` calls with the model
    checker it looks up, ``action.Evaluator``, replaced by one that counts
    its outermost ``check`` calls: each is one (world, action) precondition
    the update examined. Reads 0 if the update no longer checks through it."""
    count = 0

    class CountingEvaluator(em.action.Evaluator):
        depth = 0

        def check(self, world, formula):
            nonlocal count
            count += self.depth == 0
            self.depth += 1
            try:
                return super().check(world, formula)
            finally:
                self.depth -= 1

    original = em.action.Evaluator
    em.action.Evaluator = CountingEvaluator
    try:
        for model, program in updates:
            try:
                em.action.product_update(model, program)
            except em.action.DeterminismViolation:
                pass
    finally:
        em.action.Evaluator = original
    return count


def run_workload(args):
    if not (SRC / "epimachine" / "__init__.py").is_file():
        print(f"error: no epimachine package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        workload = make_workload(args.workload, args.seed, ROOT)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None

    ops = workload.ops
    rng = random.Random(args.seed)
    order = list(range(len(ops)))
    min_rounds = max(MIN_ROUNDS, math.ceil(MIN_RUNS / len(ops)))
    setup_times = []  # scaled, as every time below
    round_times = []
    speeds = []  # kernel samples, seconds
    first_seen = {}  # op index -> step signature of its first run
    created = {}  # op index -> worlds created by each product update
    samples = []  # (op index, seconds, product updates)
    failures = []
    kept = []
    rounds = 0
    started = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - started < args.seconds:
        # One kernel sample before the round's first set-up and one right
        # after each set-up and each operation.
        kernels = [calibrate.sample()]
        # Set-ups before every round spread the set-ups over the run.
        round_setups = []
        for _ in range(SETUPS_PER_ROUND):
            gc.collect()
            elapsed, em, machines = set_up(workload, tracer)
            kernels.append(calibrate.sample())
            round_setups.append(elapsed)
        if not Path(em.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"error: epimachine was imported from {em.__file__}", file=sys.stderr)
            return 2
        emulate = em.runner.emulate
        export_dot = em.runner.export_dot
        export_trace_json = em.runner.export_trace_json
        halted = em.machine.HALTED
        rng.shuffle(order)
        kept = []
        round_ops = []  # (op index, seconds, product updates)
        if tracer:
            tracer.updates = []
        for i in order:
            op = ops[i]
            spec, initial, program = machines[op.machine]
            if tracer:
                tracer.run = f"{rounds}.{i}"
            # Start each run from an empty young generation, so the collector
            # does not charge one run for garbage the checks left behind.
            gc.collect()
            t0 = time.perf_counter()
            trace = emulate(spec, initial, op.cap, reencode=op.reencode)
            if op.render:
                json_text = export_trace_json(trace)
                dots = [export_dot(entry.model) for entry in trace.entries]
            elapsed = time.perf_counter() - t0
            kernels.append(calibrate.sample())

            problems = []
            check_run(op, trace, halted, problems)
            check_properties(trace, op.reencode, problems)
            if op.render and not problems:
                check_renders(op, trace, json_text, dots, problems)
            signature = step_signature(trace)
            if i not in first_seen:
                first_seen[i] = signature
                created[i] = deep_check(trace, program, problems) if not problems else []
            elif signature != first_seen[i]:
                problems.append("differs from the first repetition of the same run")
            if problems:
                failures.append(f"{op.label} (round {rounds}): {problems[0]}")
            round_ops.append((i, elapsed, len(trace.entries) - 1))
            if tracer:
                kept.append((i, trace))
            del trace
        speeds.extend(kernels)
        scaled = calibrate.scaled(round_setups + [sec for _, sec, _ in round_ops], kernels)
        setup_times.extend(scaled[:SETUPS_PER_ROUND])
        op_times = scaled[SETUPS_PER_ROUND:]
        samples.extend((i, sec, n) for (i, _, n), sec in zip(round_ops, op_times))
        round_times.append(sum(op_times))
        rounds += 1

    attempted = len(samples)
    failed = len(failures)
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)

    print(f"workload {workload.name}: seed {args.seed}, {'traced' if tracer else 'untraced'}")
    print(
        f"host: python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
        f"load1 {os.getloadavg()[0]:.2f}"
    )
    print(f"operations: attempted {attempted}, failed {failed} ({rounds} rounds of {len(ops)} runs)")
    print(
        f"host speed: the reference kernel took {min(speeds) * 1e3:.1f}/{statistics.median(speeds) * 1e3:.1f}/"
        f"{max(speeds) * 1e3:.1f} ms (min/median/max of {len(speeds)}); times are scaled "
        f"to a host where it takes {calibrate.REFERENCE_S * 1e3:g} ms"
    )

    op_seconds = [sec for _, sec, _ in samples]
    total = sum(op_seconds)
    if tracer:
        shapes = probe(em, tracer, workload, machines, kept)
        metrics = layer_metrics(tracer, rounds, len(setup_times))
        metrics.update(shapes)
        pairs = metrics["action.product_update.pairs"][0]
        worlds = metrics["action.product_update.worlds"][0]
        metrics["action.product_update.yield"] = (worlds / pairs if pairs else 0.0, "ratio")
        scale = calibrate.REFERENCE_S / statistics.median(speeds)
        for name, (value, unit) in metrics.items():
            if unit in ("s", "ms"):
                metrics[name] = (value * scale, unit)
        metrics["traced.run_s"] = (statistics.median(round_times), "s")
        path = BENCH_DIR / "out" / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
        notes = {"traced.run_s": "median traced round; minus an untraced run_s it is the tracing overhead"}
    else:
        steps = sum(n for _, _, n in samples)
        worlds = sum(sum(created[i]) for i, _, _ in samples)
        pct, tail_s = tail(op_seconds)
        # Median per operation first: a workload's operations differ in cost
        # by up to 100x, so a median over all runs would jump from one
        # operation to the next as the number of rounds changes.
        per_op = {}
        for i, sec, _ in samples:
            per_op.setdefault(i, []).append(sec)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (statistics.median(round_times), "s"),
            "steps_per_s": (steps / total, "steps/s"),
            "worlds_per_s": (worlds / total, "worlds/s"),
            "verdict_p50_ms": (statistics.median(statistics.median(v) for v in per_op.values()) * 1e3, "ms"),
            "verdict_tail_ms": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        notes = {
            "setup_s": f"median of {len(setup_times)} set-ups",
            "run_s": f"median round of {len(ops)} runs, over {rounds} rounds",
            "verdict_tail_ms": f"p{pct} of {attempted} runs",
        }
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args):
    """Every workload in its own fresh process, untraced then traced."""
    summary = {}
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
            sys.stdout.write(done.stdout)
            # A failed check exits 1 but still prints its result line.
            lines = done.stdout.strip().splitlines()
            try:
                summary[name, trace] = json.loads(lines[-1])
            except (IndexError, ValueError):
                ok = False
    print("\nsummary (untraced end-to-end metrics; overhead from the traced run)")
    combined = {}
    for name in WORKLOADS:
        plain, traced = summary.get((name, 0)), summary.get((name, 1))
        if plain is None:
            print(f"{name}: no result")
            continue
        print(f"{name}: attempted {plain['attempted']}, failed {plain['failed']}")
        for metric in END_TO_END:
            entry = plain["metrics"][metric]
            combined[f"{name}.{metric}"] = entry
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
        if traced is not None:
            overhead = traced["metrics"]["traced.run_s"]["value"] / plain["metrics"]["run_s"]["value"] - 1
            print(f"  tracing overhead on run_s = {overhead:+.1%}")
    correct = ok and all(r["correct"] for r in summary.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in summary.values()),
        "failed": sum(r["failed"] for r in summary.values()),
        "metrics": combined,
    }))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("all",) + WORKLOADS, default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        try:
            args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        except (OSError, ValueError, KeyError) as exc:
            parser.error(f"no --seconds and no run_seconds in BENCHMARK.json: {exc}")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
