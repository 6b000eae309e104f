"""Evaluation plans: every root of a plan, run once per model, against the
brute-force checker, and the mechanism that makes a plan cheap."""

import pytest

from epimachine import logic
from epimachine.codec import component_of_point
from epimachine.logic import And, Atom, Box, Evaluator, Not, Plan, Top, restricted_model
from epimachine.program import (
    GROWTH_MODES,
    cell_formula,
    compile_program,
    digit_formula,
    head_formula,
    leftmost_formula,
    rightmost_formula,
)
from epimachine.runner import emulate

from helpers import brute_sat_set, load

CORPUS = ("flip", "increment", "bb2", "bb3", "march", "bb4")


# Above this many worlds only the point's component is judged by brute
# force: in faithful mode without re-encoding the model doubles each step
# (8216 worlds at step 12), and the component, a generated submodel, gives
# every world in it the truths it has in the whole model.
BRUTE_WORLDS = 300


@pytest.mark.parametrize("reencode", [False, True])
@pytest.mark.parametrize("mode", GROWTH_MODES)
@pytest.mark.parametrize("name", CORPUS)
def test_program_plan_matches_bruteforce_on_every_step_model(monkeypatch, name, mode, reencode):
    """Every root, and every node of the plan's DAG, negations included,
    read back from the one run of the plan."""
    spec, initial = load(name)
    compiled = compile_program(spec, mode)
    plan = compiled.program.plan
    assert set(plan.roots) == set(compiled.program.pre.values())
    nodes = _dag_nodes(plan.roots)
    assert any(type(node) is Not and node not in plan.roots for node in nodes)
    trace = emulate(spec, initial, 12, mode=mode, reencode=reencode, compiled=compiled)
    runs = []
    original = Evaluator._run

    def counting_run(self, ran):
        runs.append(ran)
        return original(self, ran)

    monkeypatch.setattr(Evaluator, "_run", counting_run)
    for entry in trace.entries:
        model = entry.model
        judged = model
        if len(model.worlds) > BRUTE_WORLDS:
            judged = restricted_model(model, component_of_point(model))
        ev = Evaluator(model)
        memo: dict = {}
        for root, mask in zip(plan.roots, ev.run(plan)):
            expected = brute_sat_set(judged, root, memo)
            assert frozenset(ev.members(mask)) & judged.worlds == expected, (entry.index, root)
        for node in nodes:
            expected = brute_sat_set(judged, node, memo)
            assert frozenset(ev.members(ev.mask(node))) & judged.worlds == expected, (entry.index, node)
        assert runs == [plan], entry.index
        runs.clear()


def _dag_nodes(roots):
    seen = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node not in seen:
            seen[node] = None
            stack += [value for value in vars(node).values() if isinstance(value, logic.Formula)]
    return seen


def test_bb4_plan_has_one_step_per_distinct_node_that_is_not_a_negation():
    spec, _ = load("bb4")
    program = compile_program(spec).program
    nodes = _dag_nodes(program.pre.values())
    expected = sum(type(node) in (And, Box, Atom, Top) for node in nodes)
    assert expected == 221
    assert len(program.plan.steps) == expected
    assert len(nodes) - expected == sum(type(node) is Not for node in nodes)
    assert program.plan is program.plan


def test_negations_fold_into_operands():
    inner = Box(logic.TAPE_A, logic.P)
    plan = Plan((Not(Not(Not(inner))), inner, Not(logic.TOP)))
    once, twice = Not(inner), Not(Not(inner))
    assert plan.operands == {
        logic.P: (0, False),
        inner: (1, False),
        once: (1, True),
        twice: (1, False),
        Not(twice): (1, True),
        logic.TOP: (2, False),
        Not(logic.TOP): (2, True),
    }
    assert plan.outputs == ((1, True), (1, False), (2, True))


def test_no_checker_runs_a_plan_twice(monkeypatch):
    runs = []
    original = Evaluator._run

    def counting_run(self, plan):
        runs.append((self, plan))  # holds both, so their ids stay unique
        return original(self, plan)

    monkeypatch.setattr(Evaluator, "_run", counting_run)
    spec, initial = load("bb2")
    program = compile_program(spec)
    trace = emulate(spec, initial, 8, compiled=program)
    pairs = [(id(ev), id(plan)) for ev, plan in runs]
    assert len(pairs) == len(set(pairs))
    # the checker of each step's model runs the program's plan
    checkers = [ev for ev, plan in runs if plan is program.program.plan]
    assert [id(ev.model) for ev in checkers] == [id(entry.model) for entry in trace.entries]


def test_steps_follow_the_left_operand_before_the_right():
    left = Box(logic.TAPE_A, logic.P)
    right = logic.diamond(logic.TAPE_B, logic.TOP)
    plan = Plan((And(left, right),))
    assert plan.steps == (
        (0, logic._ATOM, 0, 0),
        (1, logic._BOX, logic.TAPE_A, 0),
        (2, logic._TOP, 0, 0),
        (3, logic._BOX_NOT, logic.TAPE_B, 2),
        (4, logic._AND_NOT, 1, 3),
    )
    assert plan.outputs == ((4, False),)
    assert plan.agents == (logic.TAPE_A, logic.TAPE_B)


def _plans_by_model(monkeypatch):
    """Each model's ``Evaluator._run`` plans in call order, by model id; the
    dict holds each model, so its id stays unique."""
    runs: dict = {}
    original = Evaluator._run

    def counting_run(self, plan):
        runs.setdefault(id(self.model), [self.model]).append(plan)
        return original(self, plan)

    monkeypatch.setattr(Evaluator, "_run", counting_run)
    return runs


def _decoder_roots(spec):
    fixed = (cell_formula(), leftmost_formula(), rightmost_formula(), digit_formula(1))
    return fixed + tuple(map(head_formula, spec.states))


@pytest.mark.parametrize("name", CORPUS)
def test_a_plain_step_model_runs_the_programs_plan_alone(monkeypatch, name):
    runs = _plans_by_model(monkeypatch)
    spec, initial = load(name)
    program = compile_program(spec).program
    trace = emulate(spec, initial, 20)
    for entry in trace.entries:
        assert runs[id(entry.model)][1:] == [program.plan], entry.index
    assert len(runs) == len(trace.entries)


@pytest.mark.parametrize("name", ["bb2", "bb4"])
def test_a_reencoded_step_runs_the_decoders_plan_then_the_programs(monkeypatch, name):
    runs = _plans_by_model(monkeypatch)
    spec, initial = load(name)
    program = compile_program(spec).program
    trace = emulate(spec, initial, 200, reencode=True)
    halted = trace.entries[-1]
    assert trace.stop_reason == "halted"
    # the encoded models: the start model and each re-encoded one
    for entry in trace.entries[:-1]:
        assert runs.pop(id(entry.model))[1:] == [program.plan], entry.index
    # the halted product model is kept as it is, so both plans run on it
    assert [plan.roots for plan in runs.pop(id(halted.model))[1:]] == [
        _decoder_roots(spec),
        program.plan.roots,
    ]
    # each product model that was re-encoded
    assert len(runs) == len(trace.entries) - 2
    for _, *plans in runs.values():
        assert [plan.roots for plan in plans] == [_decoder_roots(spec)]
