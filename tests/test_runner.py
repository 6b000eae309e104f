import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import epimachine
from epimachine import runner
from epimachine.action import product_update
from epimachine.codec import component_of_point, decode, encode
from epimachine.logic import (
    TAPE_A,
    EquivRelation,
    Evaluator,
    PointedKripkeModel,
    make_model,
    sorted_worlds,
)
from epimachine.machine import HALTED, FiniteConfiguration, parse_machine, run_oracle, step
from epimachine.program import compile_program
from epimachine.runner import (
    emulate,
    export_dot,
    export_trace_json,
    main,
    model_stats,
    verify_lockstep,
)

from helpers import MACHINE_DIR, blank, load, two_marks_config


def test_emulate_one_step_matches_oracle(flip_machine):
    spec, config = flip_machine
    trace = emulate(spec, config, 1)
    assert len(trace.entries) == 2
    first = trace.entries[1]
    expected = step(spec, config)
    assert first.match
    assert first.decoded.head == expected.head
    assert first.decoded.state == expected.state
    # the new point descends from the previous position-0 cell
    assert first.model.point == ("c[0]", "cell:mid")
    # repaired growth adds exactly four cells to the component
    assert first.stats.cells == trace.entries[0].stats.cells + 4


def test_emulate_zero_steps(flip_machine):
    spec, config = flip_machine
    trace = emulate(spec, config, 0)
    assert len(trace.entries) == 1
    assert trace.stop_reason == "step-cap"
    assert trace.entries[0].match
    with pytest.raises(ValueError):
        emulate(spec, config, -1)


def test_emulate_empty_machine_halts_at_first_update():
    spec, initial = parse_machine("machine m\nstates q0\nstart q0\n")
    trace = emulate(spec, initial, 5)
    assert trace.stop_reason == "halted"
    assert trace.entries[1].decoded is HALTED
    assert trace.entries[1].oracle is HALTED
    assert trace.entries[1].match


def test_faithful_mode_detaches_growth_descendants(flip_machine):
    spec, config = flip_machine
    trace = emulate(spec, config, 1, mode="faithful")
    entry = trace.entries[1]
    component = component_of_point(entry.model)
    grow_worlds = [w for w in entry.model.worlds if w[1].startswith("grow:")]
    assert len(grow_worlds) == 4
    assert all(w not in component for w in grow_worlds)
    assert entry.stats.detached >= 4
    # no growth reaches the tape: the component keeps its 19 cells
    assert entry.stats.cells == trace.entries[0].stats.cells
    assert entry.match  # the copied tape itself is still correct


def test_faithful_mode_divergence_regression():
    spec, initial = load("march")
    report = verify_lockstep(spec, initial, 20, mode="faithful")
    # frozen snapshot: the head reaches the static boundary after 7 steps
    assert report.first_divergence == 7
    assert report.stop_reason == "malformed"
    assert not report.ok()


def test_march_machine_repaired_mode_keeps_up():
    spec, initial = load("march")
    report = verify_lockstep(spec, initial, 20, mode="repaired")
    assert report.ok()
    assert report.steps == 20
    assert report.stop_reason == "step-cap"


def test_verify_busy_beavers_halt_in_lockstep():
    for name, halt_step in (("bb2", 7), ("bb3", 15)):
        spec, initial = load(name)
        report = verify_lockstep(spec, initial, 50)
        assert report.ok(), report
        assert report.stop_reason == "halted"
        assert report.steps == halt_step


def test_reencode_discards_junk_and_stays_bounded():
    spec, initial = load("bb3")
    trace = emulate(spec, initial, 50, reencode=True)
    assert trace.stop_reason == "halted"
    assert all(entry.match for entry in trace.entries)
    for entry in trace.entries[:-1]:  # final halted model is not re-encoded
        assert entry.stats.detached == 0


def test_determinism_violation_surfaces(flip_machine, monkeypatch):
    spec, config = flip_machine
    # two identical designated actions force a violation at the first update
    from epimachine.action import build_program
    from epimachine.logic import TOP
    from epimachine import runner

    program = build_program(
        ("x", "y"),
        {agent: () for agent in encode(config, spec.states).model.agents},
        {"x": TOP, "y": TOP},
        None,
        ("x", "y"),
    )
    stub = type("Stub", (), {"program": program})
    monkeypatch.setattr(runner, "compile_program", lambda *_args, **_kw: stub)
    trace = emulate(spec, config, 3)
    assert trace.stop_reason == "determinism-violation"
    assert trace.error


def test_model_stats_counts(flip_encoded):
    stats = model_stats(flip_encoded.model)
    assert stats.worlds == 22
    assert stats.component_worlds == 22
    assert stats.cells == 19
    assert stats.detached == 0


def test_export_dot_singleton():
    model = make_model({"w"}, {TAPE_A: ()}, set(), "w")
    text = export_dot(model)
    assert text == export_dot(model)  # deterministic
    assert '"w" [label="w ¬p", peripheries=2];' in text
    assert "--" not in text


def test_export_dot_flip_edges(flip_encoded):
    text = export_dot(flip_encoded.model)
    assert '"c[0]" -- "c[1]" [label="a"];' in text
    assert '"c[1]" -- "c[2]" [label="b"];' in text
    assert '"c[2]" -- "s[2]" [label="1"];' in text
    assert '"c[3]" -- "h[3]" [label="q:q0"];' in text
    assert text.count("peripheries=2") == 1


def test_export_trace_json_round_trip(flip_machine):
    spec, config = flip_machine
    trace = emulate(spec, config, 0)
    doc = json.loads(export_trace_json(trace))
    assert len(doc["steps"]) == 1
    assert doc["machine"] == "flip"

    full = emulate(spec, config, 10)
    doc = json.loads(export_trace_json(full))
    assert doc["stop_reason"] == "halted"
    last = doc["steps"][-1]
    assert last["decoded"] == "halted" and last["oracle"] == "halted" and last["match"]
    for entry, step_doc in zip(full.entries, doc["steps"]):
        assert step_doc["n"] == entry.index
        assert step_doc["worlds"] == entry.stats.worlds
        assert step_doc["cells"] == entry.stats.cells
        assert step_doc["detached"] == entry.stats.detached
        assert step_doc["match"] == entry.match
        assert step_doc["applicable"] == list(entry.applicable)
        if isinstance(entry.decoded, FiniteConfiguration):
            assert step_doc["decoded"]["state"] == entry.decoded.state
            assert step_doc["decoded"]["head"] == entry.decoded.head
            assert step_doc["decoded"]["window"] == list(entry.decoded.window)
            assert step_doc["decoded"]["tape"] == entry.decoded.tape_text()


def test_cli_oracle_and_verify(capsys):
    flip_path = str(MACHINE_DIR / "flip.tm")
    assert main(["oracle", flip_path, "--steps", "3"]) == 0
    out = capsys.readouterr().out
    assert "halted" in out

    assert main(["verify", flip_path, "--steps", "10"]) == 0
    march_path = str(MACHINE_DIR / "march.tm")
    assert main(["verify", march_path, "--steps", "20", "--mode", "faithful"]) == 1
    assert main(["verify", march_path, "--steps", "10"]) == 0


def test_cli_emulate_writes_artifacts(tmp_path, capsys):
    flip_path = str(MACHINE_DIR / "flip.tm")
    trace_file = tmp_path / "trace.json"
    dot_dir = tmp_path / "dots"
    program_file = tmp_path / "program.json"
    code = main(
        [
            "emulate",
            flip_path,
            "--steps",
            "5",
            "--trace",
            str(trace_file),
            "--dot-dir",
            str(dot_dir),
            "--emit-program",
            str(program_file),
        ]
    )
    assert code == 0
    capsys.readouterr()
    doc = json.loads(trace_file.read_text())
    assert doc["machine"] == "flip"
    dots = sorted(dot_dir.glob("step_*.dot"))
    assert len(dots) == len(doc["steps"])
    assert dots[0].read_text().startswith("graph model {")
    from epimachine.program import import_compiled

    compiled = import_compiled(program_file.read_text())
    assert compiled.machine == "flip"


def test_cli_reports_file_errors(tmp_path, capsys):
    assert main(["oracle", str(tmp_path / "missing.tm"), "--steps", "1"]) == 2
    bad = tmp_path / "bad.tm"
    bad.write_text("machine m\nstates s\n")
    assert main(["verify", str(bad)]) == 2
    flip_path = str(MACHINE_DIR / "flip.tm")
    assert main(["verify", flip_path, "--padding", "4"]) == 2
    assert main(["verify", flip_path, "--padding", "7", "--steps", "5"]) == 0


def test_emulate_checks_each_model_once(monkeypatch):
    built = []
    original = Evaluator.__init__

    def counting_init(self, model):
        built.append(model)
        original(self, model)

    monkeypatch.setattr(Evaluator, "__init__", counting_init)
    spec, initial = load("march")
    emulate(spec, initial, 10)
    # the start model plus one per update
    assert len(built) == 11
    built.clear()
    spec, initial = load("bb2")
    trace = emulate(spec, initial, 50, reencode=True)
    assert len(trace.entries) == 8
    # the start model, then the decoded and the re-encoded model of each of
    # the 7 updates, except that the final, halted one is not re-encoded
    assert len(built) == 14


def test_python_dash_m_runs_the_cli():
    src = Path(epimachine.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "epimachine", "verify", str(MACHINE_DIR / "bb2.tm")],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "verdict: emulation matches the direct simulation" in result.stdout
    assert "RuntimeWarning" not in result.stderr


@pytest.mark.parametrize("name", ("flip", "increment", "bb2", "bb3"))
@pytest.mark.parametrize("start", (two_marks_config, blank))
def test_flat_ids_match_the_nested_product(name, start):
    """A plain update loop keeps the nested (parent, action) ids beside
    ``emulate``; mapping each flat (k, action) back through the previous
    step's sorted worlds gives exactly the nested model."""
    spec, _ = load(name)
    config = start(spec)
    states = tuple(spec.states)
    program = compile_program(spec).program
    trace = emulate(spec, config, 16)
    nested = encode(config, states).model
    assert trace.entries[0].model == nested
    to_nested = {w: w for w in nested.worlds}
    for previous, entry in zip(trace.entries, trace.entries[1:]):
        nested = product_update(nested, program)
        parents = sorted_worlds(previous.model.worlds)
        to_nested = {
            (k, action): (to_nested[parents[k] if isinstance(k, int) else k], action)
            for k, action in entry.model.worlds
        }
        model = entry.model
        assert len(to_nested) == len(nested.worlds)
        assert frozenset(to_nested.values()) == nested.worlds
        assert frozenset(to_nested[w] for w in model.valuation) == nested.valuation
        assert to_nested[model.point] == nested.point
        for agent, relation in model.relations.items():
            classes = {frozenset(to_nested[w] for w in cls) for cls in relation.classes()}
            assert classes == set(nested.relations[agent].classes()), (entry.index, agent)
        assert decode(nested, states) == entry.decoded, entry.index
        assert model_stats(nested) == entry.stats, entry.index
    assert trace.stop_reason == "halted"


def test_world_ids_stay_one_pair_deep():
    spec, initial = load("march")
    trace = emulate(spec, initial, 40)
    assert len(trace.entries) == 41
    for entry in trace.entries:
        for world in entry.model.worlds:
            parts = world if isinstance(world, tuple) else ()
            assert not any(isinstance(part, tuple) for part in parts), (entry.index, world)


def test_bb4_halts_in_lockstep_with_reencoding():
    spec, initial = load("bb4")
    report = verify_lockstep(spec, initial, 200, reencode=True)
    assert report.ok(), report
    assert report.stop_reason == "halted"
    # 107 transitions, then the halt state has none: the 108th update is headless
    assert report.steps == 108
    oracle = run_oracle(spec, initial, 200)
    assert oracle.halted and oracle.steps == 107
    assert sum(oracle.configs[-1].tape) == 13


def test_emulate_releases_the_checker_slot(flip_machine):
    spec, config = flip_machine
    emulate(spec, config, 3)
    assert Evaluator._last is None


def test_cli_emulate_compiles_once(tmp_path, monkeypatch, capsys):
    calls = []
    original = runner.compile_program

    def counting_compile(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(runner, "compile_program", counting_compile)
    program_file = tmp_path / "program.json"
    flip_path = str(MACHINE_DIR / "flip.tm")
    assert main(["emulate", flip_path, "--steps", "3", "--emit-program", str(program_file)]) == 0
    capsys.readouterr()
    assert len(calls) == 1
    assert program_file.read_text().startswith("{")


def test_dot_does_not_depend_on_class_order():
    spec, initial = load("bb2")
    trace = emulate(spec, initial, 3)
    for entry in trace.entries:
        model = entry.model
        relations = {
            agent: EquivRelation(model.worlds, reversed(rel.classes()))
            for agent, rel in model.relations.items()
        }
        reordered = PointedKripkeModel(model.worlds, relations, model.valuation, model.point)
        assert reordered == model
        assert export_dot(reordered) == export_dot(model), entry.index


def test_dot_files_do_not_depend_on_hash_seed(tmp_path):
    src = Path(epimachine.__file__).resolve().parents[1]
    renders = []
    for seed in ("1", "2"):
        directory = tmp_path / f"seed{seed}"
        result = subprocess.run(
            [
                sys.executable, "-m", "epimachine", "emulate", str(MACHINE_DIR / "bb2.tm"),
                "--steps", "3", "--dot-dir", str(directory),
            ],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        renders.append({path.name: path.read_bytes() for path in directory.iterdir()})
    assert sorted(renders[0]) == [f"step_{n:03d}.dot" for n in range(4)]
    assert renders[0] == renders[1]


def test_emulate_walks_each_component_once(monkeypatch):
    walks = 0
    original = Evaluator.component

    def counting_component(self):
        nonlocal walks
        walks += self._component is None
        return original(self)

    monkeypatch.setattr(Evaluator, "component", counting_component)
    spec, initial = load("march")
    emulate(spec, initial, 10)
    # decode and stats of one model share one walk: the start model plus one
    # per update
    assert walks == 11


def test_verify_stops_at_once_on_a_far_head(tmp_path, capsys):
    far = tmp_path / "far.tm"
    far.write_text("machine far\nstates r\nstart r\nhead 100000000\ntrans r 0 -> r 1 R\n")
    started = time.perf_counter()
    assert main(["verify", str(far)]) == 2
    assert time.perf_counter() - started < 5
    assert "cell span 100000007 exceeds" in capsys.readouterr().err
