"""The per-program tables the update reads: each agent's class table is its
relation's own block index, and the program's branching shapes, kept by a
branching parent's actions, hold only the agents under which two of those
actions share a class, are grouped only under agents that index two or more
of those actions, are made once per program, give the cores that a fresh
program gives, and are freed with their program."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epimachine import action
from epimachine.action import applicable_designated, build_program, product_update
from epimachine.codec import encode
from epimachine.logic import Evaluator
from epimachine.program import GROWTH_MODES, compile_program

from helpers import generated_machine, load, random_partition_model
from test_action import AGENTS, _random_partition_program


def _copy(program):
    """The same program with no shapes made yet."""
    return build_program(
        program.actions, program.relation_pairs, program.pre, program.post, program.designated
    )


def _core(model):
    core = model._numbered()
    return core.size, core.names, core.blocks, core.valuation, core.point


def _shapes(program):
    """The program's branching shapes, by the parent's actions."""
    return program._layout()[4]


def _counting(monkeypatch):
    """The action tuples ``action._shape`` is called for, from now on."""
    made = []
    shape = action._shape

    def counting(kids, action_classes):
        made.append(kids)
        return shape(kids, action_classes)

    monkeypatch.setattr(action, "_shape", counting)
    return made


def _assert_tables_hold_only_block_members(program):
    """Each agent's class table is its relation's own index, which maps the
    block members alone to their block's position; so the tables grow with
    the blocks, not with agents times actions."""
    for agent, class_of in program._layout()[3].items():
        relation = program.relations[agent]
        assert class_of is relation.index
        assert class_of == {a: i for i, block in enumerate(relation.blocks()) for a in block}


CORPUS = ("flip", "increment", "bb2", "bb3", "march", "bb4")


@pytest.mark.parametrize("mode", GROWTH_MODES)
@pytest.mark.parametrize("name", CORPUS)
def test_class_tables_hold_only_block_members(name, mode):
    spec, _ = load(name)
    _assert_tables_hold_only_block_members(compile_program(spec, mode).program)


def test_class_tables_of_a_large_program_hold_only_block_members():
    _assert_tables_hold_only_block_members(compile_program(generated_machine(400)[0]).program)


@given(st.randoms(use_true_random=False))
@settings(max_examples=100)
def test_class_tables_of_random_programs_hold_only_block_members(rng):
    _assert_tables_hold_only_block_members(_random_partition_program(rng))


def _assert_shapes_hold_only_groups(program):
    """Each shape lists, in agent order, exactly the agents under which two
    of the parent's actions share a class, each with those actions' offsets
    grouped by class."""
    assert _shapes(program)
    agents = list(program.relations)
    for kids, shape in _shapes(program).items():
        assert len(kids) > 1
        expected = []
        for agent in agents:
            groups: dict = {}
            for offset, a in enumerate(kids):
                groups.setdefault(program.relations[agent].class_of(a), []).append(offset)
            groups = [tuple(g) for g in groups.values() if len(g) > 1]
            if groups:
                expected.append((agent, tuple(groups)))
        assert list(shape) == expected
        assert all(groups for _, groups in shape)


def _cores(models, program_of, updates):
    """The cores of up to ``updates`` chained updates from each model, each
    update by the program ``program_of()`` gives."""
    cores = []
    for model in models:
        for _ in range(updates):
            program = program_of()
            if len(applicable_designated(model, program)) != 1:
                break
            model = product_update(model, program)
            cores.append(_core(model))
    return cores


@given(st.randoms(use_true_random=False), st.integers(1, 3))
@settings(max_examples=200)
def test_warm_shapes_give_the_cores_of_a_fresh_program(rng, fragments):
    """Random partition programs, whose classes mix lone actions with
    classes of 2-4 actions, over models whose classes mix singletons with
    classes of 2-5 worlds; the second update of each chain reads a product."""
    program = _random_partition_program(rng)
    models = [random_partition_model(rng, AGENTS, fragments) for _ in range(3)]
    cold = _cores(models, lambda: _copy(program), 2)
    _cores(models, lambda: program, 2)
    assert _cores(models, lambda: program, 2) == cold
    if _shapes(program):
        _assert_shapes_hold_only_groups(program)


def test_a_faithful_run_builds_each_shape_once(monkeypatch):
    """In faithful mode bb4's model doubles every step, with many branching
    parents; a second run with the same program builds no shape and gives
    the same cores, and every shape holds only agents with a group."""
    made = _counting(monkeypatch)
    spec, initial = load("bb4")
    program = _copy(compile_program(spec, "faithful").program)
    start = [encode(initial, spec.states).model]
    first = _cores(start, lambda: program, 8)
    assert len(first) == 8 and made
    assert sorted(made) == sorted(_shapes(program))
    _assert_shapes_hold_only_groups(program)
    count = len(made)
    assert _cores(start, lambda: program, 8) == first
    assert len(made) == count
    assert _cores(start, lambda: _copy(program), 8) == first


def test_a_large_machine_builds_one_shape_per_branching_tuple(monkeypatch):
    """20 steps of a 400-state machine build each branching parent's shape
    once, however many agents and parents share it."""
    made = _counting(monkeypatch)
    spec, initial = generated_machine(400)
    program = _copy(compile_program(spec).program)
    model = encode(initial, spec.states).model
    for _ in range(20):
        if len(applicable_designated(model, program)) != 1:
            break
        model = product_update(model, program)
    assert made
    assert len(made) == len(set(made)) == len(_shapes(program))
    _assert_shapes_hold_only_groups(program)


def test_shapes_group_only_where_an_agent_can_group(monkeypatch):
    """Over 20 steps of a 400-state machine, ``_shape`` groups a parent's
    actions only under agents whose class table holds two or more of them,
    as an action in no block is alone in its class; so it makes fewer
    ``_group`` calls than shapes times agents."""
    shape, group = action._shape, action._group
    kids_of_shape: list = []  # the actions of the shape being made, if any
    calls = []

    def shaping(kids, action_classes):
        kids_of_shape.append(kids)
        try:
            return shape(kids, action_classes)
        finally:
            kids_of_shape.pop()

    def grouping(parents, kids, first, slot, class_of):
        if kids_of_shape:
            calls.append(sum(a in class_of for a in kids_of_shape[-1]))
        return group(parents, kids, first, slot, class_of)

    monkeypatch.setattr(action, "_shape", shaping)
    monkeypatch.setattr(action, "_group", grouping)
    spec, initial = generated_machine(400)
    program = _copy(compile_program(spec).program)
    model = encode(initial, spec.states).model
    for _ in range(20):
        if len(applicable_designated(model, program)) != 1:
            break
        model = product_update(model, program)
    assert calls and min(calls) >= 2
    assert len(calls) < len(_shapes(program)) * len(program.relations)


class _Marker:
    """A weakly referable object, put among a program's shapes."""


def test_shapes_are_freed_with_their_program():
    spec, initial = load("bb4")
    program = _copy(compile_program(spec, "faithful").program)
    model = encode(initial, spec.states).model
    for _ in range(6):
        model = product_update(model, program)
    shapes = _shapes(program)
    assert shapes
    marker = _Marker()
    shapes["marker"] = marker
    refs = weakref.ref(program), weakref.ref(marker)
    del program, shapes, marker
    Evaluator.release()
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
