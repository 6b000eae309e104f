"""The integer core a model is built with, by the encoder or the update,
against the core rebuilt from the model's named parts: the program plan's
root sets, the component, the decode and the stats at every step, and the
update's core on random partition models. Every core states each relation
as its blocks alone, and the checker's block masks are those blocks'. No
step model is numbered twice, and none is named on a run. Every step's DOT
and encoding verdict agree with its rebuild's, and ``validate_encoding``
refuses broken encodings with the reasons recorded in
``golden/validate_mutations.json``, which ``PYTHONPATH=src python
tests/test_core.py`` writes anew."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epimachine import logic, runner
from epimachine.action import applicable_designated, product_update
from epimachine.codec import component_of_point, decode, encode, validate_encoding
from epimachine.logic import (
    SYMBOL,
    TAPE_A,
    TAPE_B,
    EquivRelation,
    Evaluator,
    PointedKripkeModel,
    _block_mask,
    make_model,
    state_agent,
)
from epimachine.machine import FiniteConfiguration
from epimachine.program import GROWTH_MODES, compile_program
from epimachine.runner import emulate, export_dot, model_stats

from helpers import load, random_config, random_partition_model
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


def _assert_blocks_alone(model):
    """The core states each relation once, as its blocks; the checker's
    block masks are those of every relation the ``chain`` does not state,
    one per block in block order."""
    core = model._numbered()
    assert not hasattr(core, "masks")
    stated = () if core.chain is None else (TAPE_A, TAPE_B)
    masks = {agent: list(map(_block_mask, bs)) for agent, bs in core.blocks.items() if agent not in stated}
    assert Evaluator.of(model)._block_masks() == masks


@pytest.mark.parametrize("reencode", [False, True])
@pytest.mark.parametrize("mode", GROWTH_MODES)
@pytest.mark.parametrize("name, cap", RUNS)
def test_every_step_core_states_its_relations_as_blocks_alone(name, cap, mode, reencode):
    spec, initial = load(name)
    if mode == "faithful" and not reencode:
        cap = min(cap, FAITHFUL_PLAIN_CAP)
    for entry in emulate(spec, initial, cap, mode=mode, reencode=reencode).entries:
        _assert_blocks_alone(entry.model)
        _assert_blocks_alone(_rebuilt(entry.model))


@given(st.randoms(use_true_random=False), st.integers(1, 3))
@settings(max_examples=100)
def test_a_random_model_and_its_updates_state_their_relations_as_blocks_alone(rng, fragments):
    """The model is numbered from its named parts, its updates by the
    update."""
    model = random_partition_model(rng, AGENTS, fragments)
    _, designate = _random_program(rng, "any")
    program = designate([])
    _assert_blocks_alone(model)
    for _ in range(2):
        assume(len(applicable_designated(model, program)) == 1)
        model = product_update(model, program)
        _assert_blocks_alone(model)


def test_no_step_model_is_numbered_twice(monkeypatch):
    """Every step model comes with its core, and nothing on the run reads a
    named relation's index. The programs' class tables are their relations'
    own indexes, so the programs are compiled, and their indexes built,
    before the count starts."""
    march, bb4 = load("march"), load("bb4")
    for spec, _ in (march, bb4):
        compile_program(spec).program.plan
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
    assert emulate(*march, 20).stop_reason == "step-cap"
    assert emulate(*bb4, 200, reencode=True).stop_reason == "halted"
    assert (rebuilt, indexed) == (0, 0)
    # the counters count: a model built from named parts is numbered on first
    # use, and its relations' indexes are built when read
    model = make_model({"w", "v"}, {TAPE_A: [("w", "v")]}, {"w"}, "w")
    Evaluator(model)
    model.successors(TAPE_A, "w")
    assert (rebuilt, indexed) == (1, 1)


def test_a_run_names_nothing(monkeypatch):
    """Every step model holds its core alone, after ``emulate`` and inside
    ``verify_lockstep``: nothing on a run names its worlds, relations,
    valuation or point."""
    runs = [("march", 20, False), ("bb4", 200, True)]
    kept = []
    for name, cap, reencode in runs:
        spec, initial = load(name)
        trace = emulate(spec, initial, cap, reencode=reencode)
        assert trace.stop_reason == ("halted" if reencode else "step-cap")
        kept += [entry.model for entry in trace.entries]
    assert all(vars(model).keys() == {"_core"} for model in kept)

    built = []

    def keeping(build, model_of):
        def wrapped(*args):
            out = build(*args)
            built.append(model_of(out))
            return out

        return wrapped

    monkeypatch.setattr(runner, "product_update", keeping(runner.product_update, lambda model: model))
    monkeypatch.setattr(runner, "encode", keeping(runner.encode, lambda encoded: encoded.model))
    for name, cap, reencode in runs:
        spec, initial = load(name)
        assert runner.verify_lockstep(spec, initial, cap, reencode=reencode).ok()
    assert len(built) > len(kept)  # re-encoded steps build two models
    assert all(vars(model).keys() == {"_core"} for model in built)
    # the check checks: reading a view names it
    model = kept[-1]
    assert model.worlds == frozenset(model._numbered().names)
    assert vars(model).keys() == {"_core", "worlds"}


@pytest.mark.parametrize("reencode", [False, True])
@pytest.mark.parametrize("mode", GROWTH_MODES)
@pytest.mark.parametrize("name, cap", RUNS)
def test_every_step_renders_and_validates_as_its_named_parts(name, cap, mode, reencode):
    spec, initial = load(name)
    if mode == "faithful" and not reencode:
        cap = min(cap, FAITHFUL_PLAIN_CAP)
    trace = emulate(spec, initial, cap, mode=mode, reencode=reencode)
    for entry in trace.entries:
        rebuilt = _rebuilt(entry.model)
        assert export_dot(entry.model) == export_dot(rebuilt)
        assert validate_encoding(entry.model, spec.states) == validate_encoding(rebuilt, spec.states)


MUTATIONS = ("drop tape pair", "flip valuation", "re-point", "second symbol world", "second head cell")
MUTATION_SEEDS = range(40)
MUTATION_REASONS = Path(__file__).resolve().parent / "golden" / "validate_mutations.json"


def _named(model, worlds=None, blocks=None, valuation=None, point=None):
    """``model`` built from named parts, with the parts given replaced;
    ``blocks`` maps an agent to the blocks of its new relation."""
    worlds = model.worlds if worlds is None else worlds
    blocks = {agent: rel.blocks() for agent, rel in model.relations.items()} | (blocks or {})
    relations = {agent: EquivRelation.from_blocks(worlds, bs) for agent, bs in blocks.items()}
    valuation = model.valuation if valuation is None else valuation
    return PointedKripkeModel(worlds, relations, valuation, model.point if point is None else point)


def _mutants(seed, states):
    """The encoding of a random configuration with at least one 1, drawn
    from ``seed``, broken in each of the ways ``MUTATIONS`` names."""
    rng = random.Random(seed)
    config = random_config(rng, states)
    tape = list(config.tape)
    tape[rng.randrange(len(tape))] = 1
    config = FiniteConfiguration(config.window, tape, config.head, config.state)
    encoded = encode(config, states)
    model, cells = encoded.model, encoded.cells

    # a tape pair that cuts the head off the point, or holds the point when
    # the head is on it; a pair from an even position is an a-pair
    head = config.head
    lo, hi = (-1, 1) if head == 0 else (min(0, head), max(0, head))
    j = rng.randrange(lo, hi)
    agent = TAPE_A if j % 2 == 0 else TAPE_B
    pair = frozenset((cells[j], cells[j + 1]))
    dropped = [block for block in model.relations[agent].blocks() if block != pair]
    yield _named(model, blocks={agent: dropped})

    world = rng.choice(sorted(model.worlds))
    yield _named(model, valuation=model.valuation ^ {world})

    odd = rng.choice([k for k in cells if k % 2])
    yield _named(model, point=cells[odd])

    one = cells[rng.choice(sorted(encoded.symbols))]
    extra = "s[extra]"
    worlds = model.worlds | {extra}
    blocks = [block | {extra} if one in block else block for block in model.relations[SYMBOL].blocks()]
    valuation = model.valuation | ({extra} if rng.random() < 0.5 else set())
    yield _named(model, worlds=worlds, blocks={SYMBOL: blocks}, valuation=valuation)

    other = cells[rng.choice([k for k in cells if k != head])]
    agent = state_agent(config.state)
    blocks = [block | {other} for block in model.relations[agent].blocks()]
    yield _named(model, blocks={agent: blocks})


def _mutation_reasons():
    """Each mutation's reasons, one per seed."""
    spec, _ = load("bb3")
    reasons = {mutation: [] for mutation in MUTATIONS}
    for seed in MUTATION_SEEDS:
        for mutation, model in zip(MUTATIONS, _mutants(seed, spec.states)):
            ok, reason = validate_encoding(model, spec.states)
            assert not ok, (seed, mutation)
            reasons[mutation].append(reason)
    return reasons


def test_broken_encodings_are_refused_with_the_recorded_reasons():
    assert _mutation_reasons() == json.loads(MUTATION_REASONS.read_text(encoding="utf-8"))


if __name__ == "__main__":
    MUTATION_REASONS.parent.mkdir(exist_ok=True)
    MUTATION_REASONS.write_text(json.dumps(_mutation_reasons(), indent=1) + "\n", encoding="utf-8")
