"""The checker is the one finder of the point's component, and decode
reads the cells of that component as a tape once. On a core whose tape
chain holds the point the component is the chain and the blocks that meet
it, when those blocks meet no other world; any other core is walked. On
every model below, ``decode``, ``validate_encoding`` and the component a
fresh checker gives equal those given after the component was walked first,
``Malformed`` reasons included, the component is the brute-force one where
checked, and a fresh checker walks exactly when it must."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epimachine import codec, runner
from epimachine.codec import Malformed, decode, encode, validate_encoding
from epimachine.logic import (
    SYMBOL,
    TAPE_A,
    TAPE_B,
    Evaluator,
    PointedKripkeModel,
    _Core,
    make_model,
    state_agent,
)
from epimachine.program import GROWTH_MODES
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

    def _walk(self):
        self.walks += 1
        return super()._walk()


def _read(model, states, walk_first):
    """decode, validate_encoding and the component on a fresh checker, whose
    component is walked first if ``walk_first``; then the walks decode made
    and the walks made in all."""
    Evaluator.release()
    ev = _Counting.of(model)  # the checker decode and validate_encoding share
    try:
        if walk_first:
            ev._component = ev._walk()
        decoded = decode(model, states)
        decode_walks = ev.walks
        verdict = validate_encoding(model, states)
        return (decoded, verdict, ev.component()), (decode_walks, ev.walks)
    finally:
        Evaluator.release()


def _must_walk(core):
    """Whether a fresh checker must walk ``core``'s component: it has no
    chain through the point, or the chain and the blocks that meet it are
    not every world and a second pass adds one."""
    if core.chain is None or core.point >= core.chain[0]:
        return True
    blocks = [set(b) for agent, bs in core.blocks.items() if agent not in (TAPE_A, TAPE_B) for b in bs]

    def attached(worlds):
        return worlds.union(*(b for b in blocks if b & worlds))

    reach = attached(set(range(core.chain[0])))
    return len(reach) != core.size and attached(reach) != reach


def _assert_paths_agree(model, states):
    """The fresh reading equals the walked one, and the fresh checker is
    walked, once and by decode, iff ``_must_walk``. Returns whether it was
    walked."""
    fresh, (decode_walks, walks) = _read(model, states, False)
    walked, _ = _read(model, states, True)
    assert fresh == walked
    assert decode_walks == walks == _must_walk(model._numbered())
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
        # every step model is a chain core whose blocks close: none is walked
        assert not any(walks)


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
    assert _read(model, STATES, False)[0][2] == _mask(model, brute_component(model))


def test_an_encoding_is_read_without_a_walk_and_a_detached_world_is_walked_by_decode():
    rng = random.Random(3)
    encoded = encode(random_config(rng, STATES), STATES)
    assert _read(encoded.model, STATES, False)[1] == (0, 0)
    tape = encoded.model
    pairs = {a: {p for p in tape.relations[a].pairs() if p[0] != p[1]} for a in AGENTS}
    detached = make_model(tape.worlds | {"x"}, pairs, tape.valuation, tape.point)
    (decoded, verdict, _), walks = _read(detached, STATES, False)
    assert walks == (1, 1) and verdict == (True, "ok")
    assert decoded == decode(tape, STATES)


def _grown(core, **parts):
    """``core`` with one more world, named ``x``, its ``chain`` kept, and
    some parts replaced."""
    fields = {"size": core.size + 1, "_names": (*core.names, "x"), "blocks": dict(core.blocks)}
    fields.update(valuation=core.valuation, point=core.point)
    fields.update(parts)
    return PointedKripkeModel._of_core(_Core(*fields.values(), chain=core.chain))


def test_a_chain_core_is_walked_only_when_its_blocks_do_not_close():
    """Encodings with one more world: detached, on a cell, on the head world
    (two passes from the chain), and with the point moved to the head world,
    off the chain. Only the last two are walked; each component is the
    brute-force one."""
    rng = random.Random(4)
    for _ in range(20):
        config = random_config(rng, STATES)
        core = encode(config, STATES).model._numbered()
        head, agent = core.size - 1, state_agent(config.state)
        other = next(a for a in AGENTS[3:] if a is not agent)
        models = {
            False: [
                _grown(core),
                _grown(core, blocks={**core.blocks, other: ((rng.randrange(core.chain[0]), core.size),)}),
            ],
            True: [
                _grown(core, blocks={**core.blocks, other: ((head, core.size),)}),
                _grown(core, point=head),
            ],
        }
        for walked, group in models.items():
            for model in group:
                assert _assert_paths_agree(model, STATES) == walked
                assert _read(model, STATES, False)[0][2] == _mask(model, brute_component(model))


@pytest.mark.parametrize("reencode", [False, True])
@pytest.mark.parametrize("mode", GROWTH_MODES)
@pytest.mark.parametrize("name, cap", RUNS)
def test_a_run_walks_only_its_faithful_products_and_reads_each_tape_once(
    monkeypatch, name, cap, mode, reencode
):
    """On the run's own checkers: no step of a ``repaired`` run is walked,
    each ``faithful`` product is walked once, and each decode reads one
    tape."""
    walked, reads, decodes, products = [], [], [], []
    walk, read, decoding, update = Evaluator._walk, codec._read, runner.decode, runner.product_update

    def counting_walk(self):
        walked.append(self.model)
        return walk(self)

    def counting_read(*args):
        reads.append(args)
        return read(*args)

    def counting_decode(*args):
        decodes.append(args)
        return decoding(*args)

    def keeping_update(*args):
        products.append(update(*args))
        return products[-1]

    monkeypatch.setattr(Evaluator, "_walk", counting_walk)
    monkeypatch.setattr(codec, "_read", counting_read)
    monkeypatch.setattr(runner, "decode", counting_decode)
    monkeypatch.setattr(runner, "product_update", keeping_update)
    spec, initial = load(name)
    if mode == "faithful" and not reencode:
        cap = min(cap, FAITHFUL_PLAIN_CAP)
    trace = emulate(spec, initial, cap, mode=mode, reencode=reencode)
    assert len(products) == len(trace.entries) - 1
    assert list(map(id, walked)) == (list(map(id, products)) if mode == "faithful" else [])
    assert len(reads) == len(decodes) == len(trace.entries)
