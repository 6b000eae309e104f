"""Designated actions read off the plan's root masks, and the product update
that lists each precondition's worlds once, against brute-force truth."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epimachine.action import (
    DeterminismViolation,
    applicable_designated,
    build_program,
    product_update,
)
from epimachine.logic import P, TAPE_A, TAPE_B, TOP, box, conj, neg
from epimachine.program import compile_program
from epimachine.runner import emulate

from helpers import blank, brute_sat_set, load, random_partition_model, two_marks_config

CORPUS = ("flip", "increment", "bb2", "bb3")
AGENTS = (TAPE_A, TAPE_B)


def _brute_designated(model, program, memo):
    return [
        a for a in sorted(program.designated) if model.point in brute_sat_set(model, program.pre[a], memo)
    ]


def _brute_worlds(model, program, memo):
    return {(w, a) for a in program.actions for w in brute_sat_set(model, program.pre[a], memo)}


@pytest.mark.parametrize(
    "mode, reencode, cap", [("repaired", False, 40), ("repaired", True, 40), ("faithful", False, 8)]
)
@pytest.mark.parametrize("start", (two_marks_config, blank))
@pytest.mark.parametrize("name", CORPUS)
def test_designated_and_update_worlds_match_bruteforce_on_step_models(name, start, mode, reencode, cap):
    """On every step model: the applicable designated actions are those whose
    precondition holds at the point, and the update's worlds are the (w, a)
    with w satisfying pre(a), also for the preconditions that hold nowhere."""
    spec, _ = load(name)
    program = compile_program(spec, mode).program
    trace = emulate(spec, start(spec), cap, mode=mode, reencode=reencode)
    for entry in trace.entries:
        memo = {}
        expected = _brute_designated(entry.model, program, memo)
        assert list(entry.applicable) == expected, entry.index
        assert applicable_designated(entry.model, program) == expected, entry.index
        if len(expected) == 1:
            updated = product_update(entry.model, program)
            assert updated.worlds == _brute_worlds(entry.model, program, memo), entry.index
            assert updated.point == (entry.model.point, expected[0])


_FORMULAS = [TOP, neg(TOP), conj(P, neg(P)), P, neg(P), box(TAPE_A, P), neg(box(TAPE_B, neg(P)))]


def _random_program(rng, shape):
    """A program like ``test_action``'s random partition programs: relations
    mixing lone actions with classes of 2-4 actions, random preconditions
    (some false everywhere) and postconditions. The preconditions come
    first; ``designate``, given the actions whose precondition holds at the
    point, draws the designated set by ``shape`` and builds the program."""
    actions = [f"act{i}" for i in range(rng.randint(1, 7))]
    pairs = {}
    for agent in AGENTS:
        rest = rng.sample(actions, len(actions))
        pairs[agent] = []
        while rest:
            size = rng.choice((1, 2, 3, 4))
            pairs[agent] += zip(rest[: size - 1], rest[1:size])
            del rest[:size]
    pre = {a: rng.choice(_FORMULAS) for a in actions}
    post = {a: rng.random() < 0.5 for a in actions if rng.random() < 0.5}

    def designate(holding):
        failing = [a for a in actions if a not in holding]
        if shape == "nowhere":
            chosen = rng.sample(failing, rng.randint(1, len(failing))) if failing else []
        elif shape == "twice":
            assume(len(holding) >= 2)
            chosen = rng.sample(holding, 2) + rng.sample(failing, rng.randint(0, len(failing)))
        else:
            chosen = rng.sample(actions, rng.randint(1, len(actions)))
        assume(chosen)
        return build_program(actions, pairs, pre, post, chosen)

    return pre, designate


@given(st.randoms(use_true_random=False), st.integers(1, 3), st.sampled_from(("nowhere", "twice", "any")))
@settings(max_examples=200)
def test_designated_sets_that_apply_nowhere_or_twice(rng, fragments, shape):
    model = random_partition_model(rng, AGENTS, fragments)
    pre, designate = _random_program(rng, shape)
    memo = {}
    holding = [a for a in sorted(pre) if model.point in brute_sat_set(model, pre[a], memo)]
    program = designate(holding)
    expected = _brute_designated(model, program, memo)
    assert applicable_designated(model, program) == expected
    if shape == "nowhere":
        assert expected == []
    if shape == "twice":
        assert len(expected) >= 2
    if not expected:
        assert product_update(model, program) is None
    elif len(expected) > 1:
        with pytest.raises(DeterminismViolation) as caught:
            product_update(model, program)
        assert caught.value.actions == tuple(expected)
        assert caught.value.point == model.point
    else:
        updated = product_update(model, program)
        assert updated.worlds == _brute_worlds(model, program, memo)
        assert updated.point == (model.point, expected[0])
