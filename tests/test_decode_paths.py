"""Decode reads the point's component off the cell chain when it can. A
first reading of every cell world as one tape that holds puts every cell in
the point's component, so decode walks nothing; when every other world also
shares a symbol or state block with a cell, the component is the whole model
and the checker keeps it. After a failed first reading decode walks the
component and reads its cells. On every model below, ``decode``,
``validate_encoding`` and the component a fresh checker gives equal those
given after the component was walked first, ``Malformed`` reasons included,
and decode walks exactly when it must."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epimachine.codec import Malformed, decode, encode, validate_encoding
from epimachine.logic import SYMBOL, TAPE_A, TAPE_B, Evaluator, make_model, state_agent
from epimachine.program import GROWTH_MODES, cell_formula
from epimachine.runner import emulate

from helpers import brute_component, load, random_config, random_partition_model
from test_core import FAITHFUL_PLAIN_CAP, MUTATION_SEEDS, RUNS, _mutants

STATES = ("q0", "q1")
AGENTS = (TAPE_A, TAPE_B, SYMBOL, *map(state_agent, STATES))


class _Counting(Evaluator):
    """A checker that counts its component walks."""

    __slots__ = ("walks",)

    def __init__(self, model):
        super().__init__(model)
        self.walks = 0

    def component(self):
        self.walks += self._component is None
        return super().component()


def _read(model, states, walk_first):
    """decode, validate_encoding and the component on a fresh checker, which
    walks the component first if ``walk_first``; then the walks decode made,
    whether decode left the component found, and the walks made in all."""
    Evaluator.release()
    ev = _Counting.of(model)  # the checker decode and validate_encoding share
    try:
        if walk_first:
            ev.component()
        decoded = decode(model, states)
        decode_walks, found = ev.walks, ev._component is not None
        verdict = validate_encoding(model, states)
        return (decoded, verdict, ev.component()), (decode_walks, found, ev.walks)
    finally:
        Evaluator.release()


def _assert_paths_agree(model, states):
    """The fresh reading equals the walked one, and the fresh checker's
    decode walks iff a cell lies outside the component or the cells do not
    read as a tape. Without a walk it finds the component only when that is
    the whole model, and always when the model is an exact encoding. Returns
    whether the fresh checker walked at all."""
    fresh, (decode_walks, found, walks) = _read(model, states, False)
    walked, _ = _read(model, states, True)
    assert fresh == walked
    decoded, (valid, _), component = fresh
    cell = Evaluator.of(model).mask(cell_formula())
    full = (1 << model._numbered().size) - 1
    assert decode_walks == (cell & component != cell or isinstance(decoded, Malformed))
    if not decode_walks:
        assert found <= (component == full)
        assert found or not valid or component != full  # an exact encoding is found
    assert walks == (decode_walks or not found)
    return walks


@pytest.mark.parametrize("reencode", [False, True])
@pytest.mark.parametrize("mode", GROWTH_MODES)
@pytest.mark.parametrize("name, cap", RUNS)
def test_every_step_model_reads_alike_either_way(name, cap, mode, reencode):
    spec, initial = load(name)
    if mode == "faithful" and not reencode:
        cap = min(cap, FAITHFUL_PLAIN_CAP)
    trace = emulate(spec, initial, cap, mode=mode, reencode=reencode)
    walks = [_assert_paths_agree(entry.model, spec.states) for entry in trace.entries]
    if mode == "repaired":
        # only the steps with a detached world walk: none re-encoded, and
        # without re-encoding bb4's first is step 6
        detached = [e.index for e in trace.entries if e.stats.detached]
        assert [e.index for e, walked in zip(trace.entries, walks) if walked] == detached
        assert not (reencode and detached)
        assert name != "bb4" or reencode or detached[0] == 6


def test_broken_encodings_read_alike_either_way():
    """The mutations of ``test_core``, whose reasons are recorded."""
    spec, _ = load("bb3")
    for seed in MUTATION_SEEDS:
        for model in _mutants(seed, spec.states):
            _assert_paths_agree(model, spec.states)


def _mask(model, worlds):
    core = model._numbered()
    return sum(1 << k for k, w in enumerate(core.names) if w in worlds)


@given(st.randoms(use_true_random=False), st.integers(1, 3))
@settings(max_examples=200)
def test_random_partition_models_read_alike_either_way(rng, fragments):
    model = random_partition_model(rng, AGENTS, fragments)
    _assert_paths_agree(model, STATES)
    assert _read(model, STATES, False)[0][2] == _mask(model, brute_component(model))


@given(st.randoms(use_true_random=False), st.integers(1, 3), st.sampled_from((TAPE_A, TAPE_B, SYMBOL)))
@settings(max_examples=200)
def test_encodings_with_extra_worlds_read_alike_either_way(rng, fragments, agent):
    """An encoding beside random partition fragments, one of its worlds
    linked or not to a fragment world under ``agent`` or a state relation:
    detached fragments, fragments hung on a cell or on a symbol or head
    world, and tape blocks of three or more."""
    encoded = encode(random_config(rng, STATES), STATES)
    tape, junk = encoded.model, random_partition_model(rng, AGENTS, fragments)
    pairs = {
        a: {p for m in (tape, junk) for p in m.relations[a].pairs() if p[0] != p[1]} for a in AGENTS
    }
    if rng.random() < 0.7:
        link = rng.choice((agent, *map(state_agent, STATES)))
        pairs[link].add((rng.choice(sorted(tape.worlds)), rng.choice(sorted(junk.worlds))))
    valuation = tape.valuation | junk.valuation
    model = make_model(tape.worlds | junk.worlds, pairs, valuation, tape.point)
    _assert_paths_agree(model, STATES)


def test_an_encoding_is_read_without_a_walk_and_a_detached_world_is_walked_by_validation():
    rng = random.Random(3)
    encoded = encode(random_config(rng, STATES), STATES)
    assert _read(encoded.model, STATES, False)[1] == (0, True, 0)
    tape = encoded.model
    pairs = {a: {p for p in tape.relations[a].pairs() if p[0] != p[1]} for a in AGENTS}
    detached = make_model(tape.worlds | {"x"}, pairs, tape.valuation, tape.point)
    (decoded, verdict, _), walks = _read(detached, STATES, False)
    assert walks == (0, False, 1) and verdict == (True, "ok")
    assert decoded == decode(tape, STATES)
