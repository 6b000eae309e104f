"""The update's child groups of a lone branching parent, and of a pair block
with a branching member, kept per program as templates of child offsets:
filled as the update meets them, they give the cores that empty ones give,
and they are freed with their program."""

import gc
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from epimachine import action
from epimachine.action import applicable_designated, build_program, product_update
from epimachine.codec import encode
from epimachine.logic import Evaluator
from epimachine.program import compile_program

from helpers import load, random_partition_model
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
    """Each agent's lone-parent and pair-block template dicts."""
    return [t for _, _, lone, pairs in program._layout()[3].values() for t in (lone, pairs)]


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
