import random

import pytest

from epimachine.machine import (
    HALTED,
    MAX_SPAN,
    FiniteConfiguration,
    MachineFormatError,
    MachineSpec,
    configs_equivalent,
    normalize,
    parse_machine,
    run_oracle,
    step,
)

from helpers import load, padded_variant, random_config

FLIP_TEXT = """
machine flip
states q q'
start q
trans q 0 -> q' 1 L
trans q 1 -> q 0 R
"""


def test_parse_flip_machine():
    spec, initial = parse_machine(FLIP_TEXT)
    assert spec.transitions == {
        ("q", 0): ("q'", 1, "L"),
        ("q", 1): ("q", 0, "R"),
    }
    assert spec.start == "q" and spec.halt is None
    # no input line: blank window around the default head position
    assert initial == FiniteConfiguration((-1, 1), (0, 0, 0), 0, "q")


def test_parse_input_and_head():
    spec, initial = parse_machine(
        "machine m\nstates s\nstart s\ninput 0 1 1 0\nhead 3\n"
    )
    assert initial.window == (0, 3)
    assert initial.tape == (0, 1, 1, 0)
    assert initial.head == 3


def test_parse_head_outside_input_extends_window():
    _, initial = parse_machine("machine m\nstates s\nstart s\ninput 1\nhead -2\n")
    assert initial.window == (-2, 0)
    assert initial.tape == (0, 0, 1)


@pytest.mark.parametrize("head", [MAX_SPAN + 1, -MAX_SPAN - 1, 10**8])
def test_parse_far_head_with_input_refused_before_the_window(head):
    text = f"machine m\nstates s\nstart s\ninput 1\nhead {head}\n"
    with pytest.raises(MachineFormatError, match=f"line 5: head {head} lies more than") as info:
        parse_machine(text)
    assert info.value.line == 5


def test_parse_head_at_the_span_limit_with_input():
    _, initial = parse_machine(f"machine m\nstates s\nstart s\ninput 1\nhead {MAX_SPAN}\n")
    assert initial.window == (0, MAX_SPAN)


def test_parse_comments_and_blank_lines():
    spec, _ = parse_machine("# header\nmachine m # name\n\nstates s\nstart s\n")
    assert spec.name == "m"


def test_parse_halt_state_with_transition_rejected():
    text = "machine m\nstates q qh\nstart q\nhalt qh\ntrans qh 0 -> qh 0 H\n"
    with pytest.raises(MachineFormatError):
        parse_machine(text)


def test_parse_empty_transition_table_halts_immediately():
    spec, initial = parse_machine("machine m\nstates q\nstart q\n")
    assert step(spec, initial) is HALTED
    trace = run_oracle(spec, initial, 10)
    assert trace.halted and trace.steps == 0


@pytest.mark.parametrize(
    "text",
    [
        "states s\nstart s\n",  # missing machine
        "machine m\nstart s\n",  # missing states
        "machine m\nstates s\n",  # missing start
        "machine m\nstates s\nstart other\n",  # unknown start
        "machine m\nstates s\nstart s\ntrans s 2 -> s 0 R\n",  # bad symbol
        "machine m\nstates s\nstart s\ntrans s 0 -> s 0 X\n",  # bad move
        "machine m\nstates s\nstart s\ntrans s 0 -> t 0 R\n",  # unknown target
        "machine m\nstates s\nstart s\ntrans s 0 -> s 0 R\ntrans s 0 -> s 1 L\n",  # dup
        "machine m\nstates s\nstart s\nwat 1\n",  # unknown directive
        "machine m\nstates s s\nstart s\n",  # duplicate state names
        "machine m\nstates a\nstart a\n",  # reserved state name
    ],
)
def test_parse_rejects_malformed_text(text):
    with pytest.raises(MachineFormatError):
        parse_machine(text)


def test_step_flip_transitions():
    spec, _ = parse_machine(FLIP_TEXT)
    on_zero = step(spec, FiniteConfiguration((0, 2), (0, 0, 0), 1, "q"))
    assert on_zero == FiniteConfiguration((0, 2), (0, 1, 0), 0, "q'")
    on_one = step(spec, FiniteConfiguration((0, 2), (0, 1, 0), 1, "q"))
    assert on_one == FiniteConfiguration((0, 2), (0, 0, 0), 2, "q")


def test_step_grows_window_when_head_leaves():
    spec, _ = parse_machine(FLIP_TEXT)
    left = step(spec, FiniteConfiguration((0, 0), (0,), 0, "q"))
    assert left == FiniteConfiguration((-1, 0), (0, 1), -1, "q'")
    right = step(spec, FiniteConfiguration((0, 0), (1,), 0, "q"))
    assert right == FiniteConfiguration((0, 1), (0, 0), 1, "q")


def test_run_oracle_zero_steps():
    spec, initial = parse_machine(FLIP_TEXT)
    trace = run_oracle(spec, initial, 0)
    assert trace.configs == (initial,)
    assert trace.steps == 0
    assert not trace.halted  # a transition is defined for (q, 0)
    with pytest.raises(ValueError):
        run_oracle(spec, initial, -1)


def test_busy_beaver_two_state_snapshot():
    spec, initial = load("bb2")
    trace = run_oracle(spec, initial, 100)
    assert trace.halted
    # frozen regression values from this oracle
    assert trace.steps == 6
    assert sum(trace.configs[-1].tape) == 4
    assert trace.configs[-1].state == "H"


def test_busy_beaver_three_state_snapshot():
    spec, initial = load("bb3")
    trace = run_oracle(spec, initial, 100)
    assert trace.halted
    # frozen regression values from this oracle
    assert trace.steps == 14
    assert sum(trace.configs[-1].tape) == 6


def test_increment_machine():
    spec, initial = load("increment")
    trace = run_oracle(spec, initial, 100)
    assert trace.halted
    final = trace.configs[-1]
    # 111 + 1 = 1000, least significant bit on the right end
    assert final.window == (-1, 2)
    assert final.tape == (1, 0, 0, 0)
    assert final.state == "done"
    assert trace.steps == 4


def test_normalize_examples():
    all_blank = FiniteConfiguration((-2, 2), (0, 0, 0, 0, 0), 0, "q")
    assert normalize(all_blank) == FiniteConfiguration((0, 0), (0,), 0, "q")
    wide = FiniteConfiguration((-5, 5), tuple(1 if j == 2 else 0 for j in range(-5, 6)), 0, "q")
    assert normalize(wide).window == (0, 2)
    minimal = FiniteConfiguration((0, 2), (1, 0, 1), 1, "q")
    assert normalize(minimal) == minimal


def test_configs_equivalent_examples():
    base = FiniteConfiguration((0, 2), (0, 1, 0), 1, "q")
    padded = FiniteConfiguration((-3, 5), (0, 0, 0, 0, 1, 0, 0, 0, 0), 1, "q")
    assert configs_equivalent(base, padded)
    moved = FiniteConfiguration((0, 2), (0, 1, 0), 0, "q")
    assert not configs_equivalent(base, moved)
    restated = FiniteConfiguration((0, 2), (0, 1, 0), 1, "q'")
    assert not configs_equivalent(base, restated)
    shifted = FiniteConfiguration((1, 3), (0, 1, 0), 2, "q")
    assert not configs_equivalent(base, shifted)  # positions are absolute


def test_normalize_idempotent_and_equivalence_properties():
    rng = random.Random(3)
    states = ("q", "q'")
    for _ in range(100):
        config = random_config(rng, states)
        norm = normalize(config)
        assert normalize(norm) == norm
        assert configs_equivalent(config, config)
        variant = padded_variant(rng, config)
        assert configs_equivalent(config, variant)
        assert configs_equivalent(variant, config)


def test_step_respects_configuration_equivalence():
    spec, _ = parse_machine(FLIP_TEXT)
    rng = random.Random(5)
    for _ in range(100):
        config = random_config(rng, spec.states)
        variant = padded_variant(rng, config)
        left = step(spec, config)
        right = step(spec, variant)
        if left is HALTED or right is HALTED:
            assert left is HALTED and right is HALTED
        else:
            assert configs_equivalent(left, right)


def test_step_local_change_invariants():
    spec, _ = parse_machine(FLIP_TEXT)
    rng = random.Random(9)
    for _ in range(100):
        config = random_config(rng, spec.states)
        result = step(spec, config)
        if result is HALTED:
            continue
        lo, hi = result.window
        assert lo <= result.head <= hi
        assert abs(result.head - config.head) <= 1
        old_width = config.window[1] - config.window[0]
        assert 0 <= (hi - lo) - old_width <= 1
        changed = [
            j
            for j in range(min(lo, config.window[0]), max(hi, config.window[1]) + 1)
            if result.symbol_at(j) != config.symbol_at(j)
        ]
        assert len(changed) <= 1


def test_machine_spec_validation():
    with pytest.raises(ValueError):
        MachineSpec("m", ("q",), "q", None, {("q", 0): ("nope", 0, "R")})
    with pytest.raises(ValueError):
        MachineSpec("m", (), "q", None, {})
    with pytest.raises(ValueError):
        MachineSpec("m", ("q",), "q", "q", {("q", 1): ("q", 1, "H")})
