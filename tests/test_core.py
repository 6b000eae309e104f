"""The integer core a model is built with, by the encoder or the update,
against the core rebuilt from the model's named parts: the program plan's
root sets, the component, the decode and the stats at every step, and the
update's core on random partition models. No step model is numbered twice."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epimachine import logic
from epimachine.action import applicable_designated, product_update
from epimachine.codec import component_of_point, decode
from epimachine.logic import TAPE_A, EquivRelation, Evaluator, PointedKripkeModel, make_model
from epimachine.program import GROWTH_MODES, compile_program
from epimachine.runner import emulate, model_stats

from helpers import load, random_partition_model
from test_designated import AGENTS, _random_program

# (machine, step cap): march runs 30 steps, every other machine to its halt
RUNS = [("flip", 200), ("increment", 200), ("bb2", 200), ("bb3", 200), ("march", 30), ("bb4", 200)]
# In faithful mode without re-encoding the model doubles each step (8216
# worlds at step 12, 65558 at bb3's halt), so those runs stop at step 12.
FAITHFUL_PLAIN_CAP = 12


def _rebuilt(model):
    """The same model built from its named parts, so its core is built
    anew, on first use, from the world set's order."""
    return PointedKripkeModel(model.worlds, model.relations, model.valuation, model.point)


def _root_sets(model, plan):
    ev = Evaluator.of(model)
    return [frozenset(ev.members(mask)) for mask in ev.run(plan)]


def _assert_cores_agree(model, program, states=None):
    core = model._numbered()
    assert len(core.names) == len(model.worlds) and frozenset(core.names) == model.worlds
    rebuilt = _rebuilt(model)
    assert "_core" not in vars(rebuilt)
    assert _root_sets(model, program.plan) == _root_sets(rebuilt, program.plan)
    assert component_of_point(model) == component_of_point(rebuilt)
    if states is not None:
        assert decode(model, states) == decode(rebuilt, states)
        assert model_stats(model) == model_stats(rebuilt)


@pytest.mark.parametrize("reencode", [False, True])
@pytest.mark.parametrize("mode", GROWTH_MODES)
@pytest.mark.parametrize("name, cap", RUNS)
def test_every_step_core_matches_the_core_of_its_named_parts(name, cap, mode, reencode):
    spec, initial = load(name)
    if mode == "faithful" and not reencode:
        cap = min(cap, FAITHFUL_PLAIN_CAP)
    program = compile_program(spec, mode).program
    trace = emulate(spec, initial, cap, mode=mode, reencode=reencode)
    assert len(trace.entries) > 1
    for entry in trace.entries:
        _assert_cores_agree(entry.model, program, spec.states)


@given(st.randoms(use_true_random=False), st.integers(1, 3))
@settings(max_examples=200)
def test_update_core_matches_the_core_of_its_named_parts(rng, fragments):
    """Classes of 2-5 worlds in the model and of 2-4 actions in the program
    give product classes larger than pairs; the second update reads a core
    the first one built."""
    model = random_partition_model(rng, AGENTS, fragments)
    _, designate = _random_program(rng, "any")
    program = designate([])
    for _ in range(2):
        assume(len(applicable_designated(model, program)) == 1)
        model = product_update(model, program)
        _assert_cores_agree(model, program)


def test_no_step_model_is_numbered_twice(monkeypatch):
    """Every step model comes with its core, and nothing on the run reads a
    named relation's index."""
    rebuilt = indexed = 0
    of_named = logic._Core.of_named.__func__
    index = EquivRelation.index.fget

    def counting_of_named(cls, model):
        nonlocal rebuilt
        rebuilt += 1
        return of_named(cls, model)

    def counting_index(self):
        nonlocal indexed
        indexed += self._index is None
        return index(self)

    monkeypatch.setattr(logic._Core, "of_named", classmethod(counting_of_named))
    monkeypatch.setattr(EquivRelation, "index", property(counting_index))
    spec, initial = load("march")
    assert emulate(spec, initial, 20).stop_reason == "step-cap"
    spec, initial = load("bb4")
    assert emulate(spec, initial, 200, reencode=True).stop_reason == "halted"
    assert (rebuilt, indexed) == (0, 0)
    # the counters count: a model built from named parts is numbered on first
    # use, and its relations' indexes are built when read
    model = make_model({"w", "v"}, {TAPE_A: [("w", "v")]}, {"w"}, "w")
    Evaluator(model)
    model.successors(TAPE_A, "w")
    assert (rebuilt, indexed) == (1, 1)
