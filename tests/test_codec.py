import random

import pytest

from hypothesis import given
from hypothesis import strategies as st

from epimachine.codec import (
    MAX_SPAN,
    Malformed,
    ceil_even,
    component_of_point,
    decode,
    encode,
    validate_encoding,
)
from epimachine.logic import (
    SYMBOL,
    TAPE_A,
    TAPE_B,
    eval_formula,
    make_model,
    s5_defect,
    sat_set,
    state_agent,
)
from epimachine.machine import HALTED, FiniteConfiguration, configs_equivalent
from epimachine.program import (
    digit_formula,
    head_formula,
    leftmost_formula,
    rightmost_formula,
)

from epimachine.runner import emulate

from helpers import brute_component, brute_sat_set, load, random_config, random_partition_model


def test_ceil_even_examples():
    assert ceil_even((-1, 3)) == 4
    assert ceil_even((-2, 2)) == 2
    assert ceil_even((0, 1)) == 2
    with pytest.raises(ValueError):
        ceil_even((1, 0))


def test_encode_flip_configuration(flip_machine, flip_encoded):
    spec, config = flip_machine
    enc = flip_encoded
    assert enc.ceil_u == 4
    assert set(enc.cells) == set(range(-9, 10))
    assert set(enc.symbols) == {1, 2}
    assert len(enc.model.worlds) == 22
    assert enc.model.point == enc.cells[0]
    assert s5_defect(enc.model) is None
    # atom holds exactly at even positions
    for j, world in enc.cells.items():
        assert (world in enc.model.valuation) == (j % 2 == 0)
    for j, world in enc.symbols.items():
        assert (world in enc.model.valuation) == (j % 2 == 0)


def test_encode_blank_configuration():
    config = FiniteConfiguration((0, 0), (0,), 0, "q0")
    enc = encode(config, ("q0", "q1"))
    assert enc.ceil_u == 0
    assert set(enc.cells) == set(range(-5, 6))
    assert not enc.symbols
    assert len(enc.model.worlds) == 12


def test_encode_validates_inputs(flip_machine):
    spec, config = flip_machine
    with pytest.raises(ValueError):
        encode(config, spec.states, padding=4)  # even padding breaks end parity
    with pytest.raises(ValueError):
        encode(config, spec.states, padding=1)
    with pytest.raises(ValueError):
        encode(config, ("other",))  # state not in the state set


def test_flip_model_satisfaction_examples(flip_machine, flip_encoded):
    spec, _ = flip_machine
    model = flip_encoded.model
    cells = flip_encoded.cells
    assert eval_formula(model, cells[3], head_formula("q0"))
    assert eval_formula(model, cells[2], digit_formula(1))
    assert sat_set(model, rightmost_formula()) == {cells[9]}
    assert sat_set(model, leftmost_formula()) == {cells[-9]}
    # second opinion from the pair-scanning evaluator
    assert brute_sat_set(model, rightmost_formula()) == {cells[9]}
    assert brute_sat_set(model, leftmost_formula()) == {cells[-9]}


def test_decode_inverts_encode(flip_machine, flip_encoded):
    spec, config = flip_machine
    decoded = decode(flip_encoded.model, spec.states)
    assert isinstance(decoded, FiniteConfiguration)
    assert configs_equivalent(decoded, config)
    ok, reason = validate_encoding(flip_encoded.model, spec.states)
    assert ok, reason


def test_encode_tape_structure_invariants():
    rng = random.Random(29)
    states = ("q0", "q1")
    for _ in range(25):
        config = random_config(rng, states)
        enc = encode(config, states)
        model = enc.model
        cells = set(enc.cells.values())
        positions = sorted(enc.cells)
        for relation in (model.relations[TAPE_A], model.relations[TAPE_B]):
            for cell in cells:
                assert len(relation.class_of(cell)) <= 2
        for left, right in zip(positions, positions[1:]):
            left_world, right_world = enc.cells[left], enc.cells[right]
            assert (left_world in model.valuation) != (right_world in model.valuation)
        # end cells sit on odd positions, so the end formulas can hold there
        assert positions[0] % 2 == 1 and positions[-1] % 2 == 1
        assert sat_set(model, leftmost_formula()) == {enc.cells[positions[0]]}
        assert sat_set(model, rightmost_formula()) == {enc.cells[positions[-1]]}


def test_decode_inverts_encode_randomized():
    rng = random.Random(17)
    states = ("q0", "q1", "q2")
    for _ in range(60):
        config = random_config(rng, states)
        enc = encode(config, states)
        decoded = decode(enc.model, states)
        assert isinstance(decoded, FiniteConfiguration)
        assert configs_equivalent(decoded, config)
        ok, reason = validate_encoding(enc.model, states)
        assert ok, reason


def test_decode_keeps_absolute_positions():
    config = FiniteConfiguration((2, 5), (1, 0, 0, 1), 3, "q0")
    enc = encode(config, ("q0",))
    decoded = decode(enc.model, ("q0",))
    assert decoded.head == 3
    assert decoded.symbol_at(2) == 1 and decoded.symbol_at(5) == 1
    assert decoded.symbol_at(3) == 0


def _rebuild(model, worlds=None, pairs=None, valuation=None, point=None):
    base_pairs = {
        agent: {(x, y) for (x, y) in rel.pairs() if x != y}
        for agent, rel in model.relations.items()
    }
    if pairs:
        for agent, extra in pairs.items():
            base_pairs[agent] = base_pairs[agent] | set(extra)
    return make_model(
        worlds if worlds is not None else model.worlds,
        base_pairs,
        valuation if valuation is not None else model.valuation,
        point if point is not None else model.point,
    )


def test_decode_headless_model_is_halted(flip_machine, flip_encoded):
    spec, _ = flip_machine
    enc = flip_encoded
    head = enc.head_world
    keep = enc.model.worlds - {head}
    headless = make_model(
        keep,
        {
            agent: {(x, y) for (x, y) in rel.pairs() if head not in (x, y) and x != y}
            for agent, rel in enc.model.relations.items()
        },
        enc.model.valuation - {head},
        enc.model.point,
    )
    assert decode(headless, spec.states) is HALTED
    ok, reason = validate_encoding(headless, spec.states)
    assert not ok and reason == "no head world"


def test_decode_point_atom_flip_is_malformed(flip_machine, flip_encoded):
    spec, _ = flip_machine
    enc = flip_encoded
    flipped = _rebuild(enc.model, valuation=enc.model.valuation - {enc.cells[0]})
    result = decode(flipped, spec.states)
    assert isinstance(result, Malformed)


def test_decode_point_must_be_a_cell(flip_machine, flip_encoded):
    spec, _ = flip_machine
    enc = flip_encoded
    repointed = _rebuild(enc.model, point=enc.symbols[1])
    result = decode(repointed, spec.states)
    assert isinstance(result, Malformed)
    assert result.reason == "point is not a cell"


def test_decode_oversized_tape_class_is_malformed(flip_machine, flip_encoded):
    spec, _ = flip_machine
    enc = flip_encoded
    # merging two a-classes produces a 4-element class along the chain
    broken = _rebuild(enc.model, pairs={TAPE_A: {(enc.cells[1], enc.cells[3])}})
    result = decode(broken, spec.states)
    assert isinstance(result, Malformed)
    assert "alternation" in result.reason
    ok, reason = validate_encoding(broken, spec.states)
    assert not ok and "alternation" in reason


def test_decode_tape_partner_outside_the_cells_is_malformed(flip_machine, flip_encoded):
    spec, _ = flip_machine
    enc = flip_encoded
    # c[1] is a non-p cell, so its right neighbour is its b-partner; make
    # that the symbol world of cell 2, which is no cell, instead of c[2]
    pairs = {
        agent: {(x, y) for (x, y) in rel.pairs() if x != y}
        for agent, rel in enc.model.relations.items()
    }
    pairs[TAPE_B] -= {(enc.cells[1], enc.cells[2]), (enc.cells[2], enc.cells[1])}
    pairs[TAPE_B].add((enc.cells[1], enc.symbols[2]))
    broken = make_model(enc.model.worlds, pairs, enc.model.valuation, enc.model.point)
    result = decode(broken, spec.states)
    assert result == Malformed("tape relation leaves the cells at c[1]")


def test_decode_cells_off_the_chain_are_malformed(flip_machine, flip_encoded):
    spec, _ = flip_machine
    enc = flip_encoded
    # a closed ring of four cells, none of them an end cell, hung on the
    # chain through the symbol relation: in the component, never walked
    ring = ["r0", "r1", "r2", "r3"]
    bigger = _rebuild(
        enc.model,
        worlds=enc.model.worlds | set(ring),
        pairs={
            TAPE_A: {("r0", "r1"), ("r2", "r3")},
            TAPE_B: {("r1", "r2"), ("r3", "r0")},
            SYMBOL: {(enc.cells[5], "r0")},
        },
        valuation=enc.model.valuation | {"r0", "r2"},
    )
    assert set(ring) <= component_of_point(bigger)
    result = decode(bigger, spec.states)
    assert result == Malformed("cells outside the tape chain")


def test_decode_two_heads_is_malformed(flip_machine, flip_encoded):
    spec, _ = flip_machine
    enc = flip_encoded
    extra = "h[extra]"
    doubled = _rebuild(
        enc.model,
        worlds=enc.model.worlds | {extra},
        pairs={state_agent("q1"): {(enc.cells[5], extra)}},
    )
    result = decode(doubled, spec.states)
    assert isinstance(result, Malformed)
    assert result.reason == "multiple heads"


def test_decode_ignores_disconnected_fragments(flip_machine, flip_encoded):
    spec, config = flip_machine
    enc = flip_encoded
    junk = {"x1", "x2", "x3"}
    bigger = _rebuild(
        enc.model,
        worlds=enc.model.worlds | junk,
        pairs={TAPE_A: {("x1", "x2")}, SYMBOL: {("x2", "x3")}},
        valuation=enc.model.valuation | {"x1"},
    )
    decoded = decode(bigger, spec.states)
    assert configs_equivalent(decoded, config)
    ok, reason = validate_encoding(bigger, spec.states)
    assert ok, reason


def test_validate_encoding_catches_double_symbol_attachment(flip_machine, flip_encoded):
    spec, config = flip_machine
    enc = flip_encoded
    extra = "s[extra]"
    doubled = _rebuild(
        enc.model,
        worlds=enc.model.worlds | {extra},
        pairs={SYMBOL: {(enc.cells[1], extra)}},
    )
    # the decoded configuration is unchanged, but the component is no longer
    # a clean encoding
    assert configs_equivalent(decode(doubled, spec.states), config)
    ok, reason = validate_encoding(doubled, spec.states)
    assert not ok


def test_component_of_point(flip_encoded):
    model = flip_encoded.model
    assert component_of_point(model) == model.worlds


@given(st.randoms(use_true_random=False), st.integers(1, 4))
def test_component_of_point_matches_pair_search(rng, fragments):
    agents = (TAPE_A, TAPE_B, SYMBOL, state_agent("q0"))
    model = random_partition_model(rng, agents, fragments)
    assert component_of_point(model) == brute_component(model)


def test_encode_refuses_an_oversized_span(flip_machine):
    spec, _ = flip_machine
    far = FiniteConfiguration((MAX_SPAN - 2, MAX_SPAN), (0, 0, 0), MAX_SPAN - 1, spec.start)
    with pytest.raises(ValueError, match=f"cell span {MAX_SPAN + 5} exceeds"):
        encode(far, spec.states)


CORPUS = ("flip", "increment", "bb2", "bb3", "march", "bb4")


@pytest.mark.parametrize("name", CORPUS)
def test_validate_encoding_holds_iff_decode_gives_a_configuration(name):
    """On every step model of a corpus run, product models included, the
    point's component is an exact encoding iff it decodes to a
    configuration. Faithful runs double the model every step, so they stop
    at 8 steps."""
    spec, initial = load(name)
    runs = [("repaired", False, 40), ("repaired", True, 40), ("faithful", False, 8)]
    for mode, reencode, steps in runs:
        for entry in emulate(spec, initial, steps, mode=mode, reencode=reencode).entries:
            valid, reason = validate_encoding(entry.model, spec.states)
            decoded = decode(entry.model, spec.states)
            assert valid == isinstance(decoded, FiniteConfiguration), (mode, reencode, entry.index)
            assert valid or reason != "ok"
