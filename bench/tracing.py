"""Spans recorded from outside the program, around calls into its layers.

For a traced run the benchmark replaces the layer functions at the names
through which ``epimachine.runner`` calls them (and the set-up functions the
benchmark calls itself) with wrappers that record one span per call: name,
start, end, parent span and run id. Spans stay in memory and are written
once, as JSON lines, when the run ends. Nothing in the package changes.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

# (module, function) pairs wrapped inside epimachine.runner, by the name the
# runner looks them up under.
RUNNER_LAYERS = (
    ("action", "product_update"),
    ("action", "applicable_designated"),
    ("codec", "decode"),
    ("codec", "encode"),
    ("runner", "model_stats"),
    ("machine", "step"),
    ("program", "compile_program"),
    ("runner", "emulate"),
    ("runner", "export_dot"),
    ("runner", "export_trace_json"),
)


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []  # [name, start, end, parent, run]
        self.stack = []
        self.run = "setup"
        self.counts = defaultdict(int)
        self.updates = []  # (model, program) of each product update, for a replay

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counts = self.counts

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.run]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == "action.product_update":
                self.updates.append(args[:2])
                if result is not None:
                    counts["worlds", span[4]] += len(result.worlds)
            elif name == "runner.export_dot":
                counts["dot_bytes", span[4]] += len(result.encode("utf-8"))
            return result

        return traced

    def install(self, em):
        """Wrap the layers of a freshly imported package; returns the wrapped
        set-up functions the benchmark calls directly."""
        runner = em.runner
        for module, function in RUNNER_LAYERS:
            setattr(runner, function, self.wrap(f"{module}.{function}", getattr(runner, function)))
        return {
            "parse_machine": self.wrap("machine.parse_machine", em.machine.parse_machine),
            "compile_program": runner.compile_program,
            "encode": runner.encode,
        }

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": name,
                    "start": round(start - self.origin, 9),
                    "end": round(end - self.origin, 9),
                    "parent": parent,
                    "run": run,
                }
                out.write(json.dumps(record) + "\n")


def layer_metrics(tracer, rounds, setups):
    """Per-layer figures for one pass: one set-up plus one round of runs.

    Span totals from the set-ups are divided by the number of set-ups, those
    from the timed loop by the number of rounds; the probes run once. Each
    figure then describes the same fixed amount of work whatever the run
    length.
    """
    def share(run):
        return {"probe": 1, "setup": 1 / setups}.get(run, 1 / rounds)

    total = defaultdict(float)
    calls = defaultdict(float)
    child = defaultdict(float)
    update_ms = []
    for name, start, end, parent, run in tracer.spans:
        total[name] += (end - start) * share(run)
        calls[name] += share(run)
        if parent is not None:
            child[parent] += (end - start)
        if name == "action.product_update" and run != "setup":
            update_ms.append((end - start) * 1e3)
    emulate_self = sum(
        (end - start - child[i]) * share(run)
        for i, (name, start, end, parent, run) in enumerate(tracer.spans)
        if name == "runner.emulate"
    )
    counts = tracer.counts

    def per_pass(key):
        return sum(value * share(run) for (name, run), value in counts.items() if name == key)

    deciles = statistics.quantiles(update_ms, n=10) if len(update_ms) > 1 else [0.0] * 9
    return {
        "action.product_update.s": (total["action.product_update"], "s"),
        "action.product_update.calls": (round(calls["action.product_update"]), "count"),
        "action.product_update.p50_ms": (statistics.median(update_ms) if update_ms else 0.0, "ms"),
        "action.product_update.p90_ms": (deciles[8], "ms"),
        "action.product_update.worlds": (round(per_pass("worlds")), "count"),
        "action.applicable_designated.s": (total["action.applicable_designated"], "s"),
        "codec.decode.s": (total["codec.decode"], "s"),
        "codec.decode.calls": (round(calls["codec.decode"]), "count"),
        "codec.encode.s": (total["codec.encode"], "s"),
        "codec.encode.calls": (round(calls["codec.encode"]), "count"),
        "runner.model_stats.s": (total["runner.model_stats"], "s"),
        "runner.emulate.self_s": (emulate_self, "s"),
        "machine.step.s": (total["machine.step"], "s"),
        "machine.parse_machine.s": (total["machine.parse_machine"], "s"),
        "program.compile_program.s": (total["program.compile_program"], "s"),
        "runner.export_dot.s": (total["runner.export_dot"], "s"),
        "runner.export_dot.bytes": (round(per_pass("dot_bytes")), "bytes"),
        "runner.export_trace_json.s": (total["runner.export_trace_json"], "s"),
        "logic.sat_set.s": (total["logic.sat_set"], "s"),
    }
