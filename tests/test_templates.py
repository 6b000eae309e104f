"""The per-program class tables the update reads: each agent's table holds
only the actions of its relation's blocks, and its child groups of a lone
branching parent, kept as templates of child offsets, give the cores that
empty ones give when filled as the update meets them, and are freed with
their program."""

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
    """The same program with empty templates."""
    return build_program(
        program.actions, program.relation_pairs, program.pre, program.post, program.designated
    )


def _core(model):
    core = model._numbered()
    return core.size, core.names, core.blocks, core.masks, core.valuation, core.point


def _templates(program):
    """Each agent's lone-parent template dict."""
    return [lone for _, _, lone in program._layout()[3].values()]


def _assert_tables_hold_only_block_members(program):
    """Each agent's block positions are those of its relation's block
    members alone, and its one-action roots are those among them; so the
    tables grow with the blocks, not with agents times actions."""
    roots = program._layout()[1]
    for agent, table in program._layout()[3].items():
        class_of, single = table[0], table[1]
        blocks = program.relations[agent].blocks()
        assert class_of == {a: i for i, block in enumerate(blocks) for a in block}
        assert single == {r: class_of[r[0]] for r in roots if len(r) == 1 and r[0] in class_of}


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
def test_warm_templates_give_the_cores_of_empty_ones(rng, fragments):
    """Random partition programs, whose classes mix lone actions with
    classes of 2-4 actions, over models whose classes mix singletons with
    classes of 2-5 worlds; the second update of each chain reads a product."""
    program = _random_partition_program(rng)
    models = [random_partition_model(rng, AGENTS, fragments) for _ in range(3)]
    cold = _cores(models, lambda: _copy(program), 2)
    _cores(models, lambda: program, 2)
    assert _cores(models, lambda: program, 2) == cold


def test_a_faithful_run_fills_the_templates_once(monkeypatch):
    """In faithful mode bb4's model doubles every step, with many branching
    parents; a second run with the same program makes no template and gives
    the same cores."""
    made = []
    template = action._template

    def counting(kids_of, class_of):
        made.append(kids_of)
        return template(kids_of, class_of)

    monkeypatch.setattr(action, "_template", counting)
    spec, initial = load("bb4")
    program = _copy(compile_program(spec, "faithful").program)
    start = [encode(initial, spec.states).model]
    first = _cores(start, lambda: program, 8)
    assert len(first) == 8 and made
    assert len(made) == sum(map(len, _templates(program)))
    count = len(made)
    assert _cores(start, lambda: program, 8) == first
    assert len(made) == count
    assert _cores(start, lambda: _copy(program), 8) == first


class _Marker:
    """A weakly referable object, put among a program's templates."""


def test_templates_are_freed_with_their_program():
    spec, initial = load("bb4")
    program = _copy(compile_program(spec, "faithful").program)
    model = encode(initial, spec.states).model
    for _ in range(6):
        model = product_update(model, program)
    templates = _templates(program)
    assert any(templates)
    marker = _Marker()
    templates[0]["marker"] = marker
    refs = weakref.ref(program), weakref.ref(marker)
    del program, templates, marker
    Evaluator.release()
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
