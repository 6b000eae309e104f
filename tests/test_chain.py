"""Chain-ordered step models. Every update of the corpus, bb4, ``march``
and seeded random machines, in both growth modes, plain and re-encoded, at
padding 3, 5 and 7, is made twice: as the run makes it, and from the same
parent with its ``chain`` cleared, which numbers the children parent by
parent. Both children are the same model by names, with the same decode,
stats, applicable actions and carried name order; every ``repaired`` step
model is a chain core and every ``faithful`` product is not. A chain core
whose tape does not read decodes to the ``Malformed`` reason of the same
core without its chain."""

import itertools
import random

import pytest

from epimachine import runner
from epimachine.action import DeterminismViolation, applicable_designated, build_program, product_update
from epimachine.codec import Malformed, decode, encode
from epimachine.logic import (
    TAPE_A,
    TAPE_B,
    TOP,
    P,
    PointedKripkeModel,
    _bits_of,
    _Core,
    _tape_blocks,
    box,
    conj,
    neg,
    state_agent,
)
from epimachine.machine import MAX_SPAN, FiniteConfiguration, configs_equivalent, parse_machine, run_oracle
from epimachine.program import GROWTH_MODES, compile_program
from epimachine.runner import emulate, model_stats

from helpers import load, random_config
from test_core import RUNS

# seeded random machines, each with one transition left undefined; the
# first ones the direct simulation runs for at least RANDOM_STEPS steps
RANDOM_MACHINES = 12
RANDOM_STEPS = 10
RANDOM_CAP = 40
# faithful models double each step, so the plain faithful runs stop here
FAITHFUL_CAP = 8


def _random_machine(seed):
    """A machine of 1-3 working states with one table entry undefined, L, H
    and R moves and a short input, drawn from ``seed``."""
    rng = random.Random(seed)
    states = "ABC"[: rng.randint(1, 3)]
    pairs = [(q, s) for q in states for s in (0, 1)]
    lines = [f"machine random{seed}", f"states {' '.join(states)} H", "start A", "halt H"]
    for q, s in sorted(rng.sample(pairs, len(pairs) - 1)):
        lines.append(f"trans {q} {s} -> {rng.choice(states + 'H')} {rng.randint(0, 1)} {rng.choice('LHR')}")
    lines.append("input " + " ".join(str(rng.randint(0, 1)) for _ in range(4)))
    lines.append(f"head {rng.randrange(4)}")
    return parse_machine("\n".join(lines) + "\n")


def _random_machines():
    seeds = itertools.count()
    while True:
        machine = _random_machine(next(seeds))
        if run_oracle(*machine, RANDOM_STEPS).steps >= RANDOM_STEPS:
            yield machine


MACHINES = [(name, cap, load(name)) for name, cap in RUNS] + [
    (spec.name, RANDOM_CAP, (spec, initial))
    for spec, initial in itertools.islice(_random_machines(), RANDOM_MACHINES)
]


def _unchained(model):
    """``model`` with its core's ``chain`` cleared, names and order kept."""
    core = model._numbered()
    copy = _Core(core.size, core._names, core.blocks, core.valuation, core.point)
    copy.order = core.order
    return PointedKripkeModel._of_core(copy)


def _by_names(model):
    """The model by world names: size, each relation's blocks, valuation,
    point and the carried name order."""
    core = model._numbered()
    names = core.names
    blocks = {agent: {frozenset(map(names.__getitem__, b)) for b in bs} for agent, bs in core.blocks.items()}
    valuation = {name for name, bit in zip(names, _bits_of(core.valuation, core.size)) if bit}
    order = None if core.order is None else [names[k] for k in core.order]
    return core.size, blocks, valuation, names[core.point], order


def _assert_chain_holds(core):
    """A chain core's ``a`` and ``b`` blocks are its pairs (k, k + 1), by parity."""
    size, parity = core.chain
    pairs = [(k, k + 1) for k in range(size - 1)]
    assert list(core.blocks[TAPE_A]) == pairs[parity::2]
    assert list(core.blocks[TAPE_B]) == pairs[1 - parity :: 2]


def _reading(model, program, states):
    return decode(model, states), model_stats(model), applicable_designated(model, program)


@pytest.mark.parametrize("padding", [3, 5, 7])
@pytest.mark.parametrize("reencode", [False, True])
@pytest.mark.parametrize("mode", GROWTH_MODES)
def test_a_chain_child_is_the_parent_by_parent_child_renumbered(monkeypatch, mode, reencode, padding):
    update = runner.product_update
    children = []  # (parent had a chain, child's chain) of each update

    def twice(model, program, names=None):
        """The update, made a second time from the parent without its chain;
        the run updates only where one designated action applies."""
        plain = update(_unchained(model), program, names)
        child = update(model, program, names)
        children.append((model._numbered().chain is not None, child._numbered().chain))
        assert _by_names(child) == _by_names(plain)
        states = states_of[id(program)]
        assert _reading(child, program, states) == _reading(plain, program, states)
        if child._numbered().chain is not None:
            _assert_chain_holds(child._numbered())
        return child

    monkeypatch.setattr(runner, "product_update", twice)
    states_of = {}
    for name, cap, (spec, initial) in MACHINES:
        if mode == "faithful" and not reencode:
            cap = min(cap, FAITHFUL_CAP)
        states_of[id(compile_program(spec, mode).program)] = tuple(spec.states)
        trace = emulate(spec, initial, cap, mode=mode, reencode=reencode, padding=padding)
        assert len(trace.entries) > 1, name
        for entry in trace.entries:
            # a faithful run's chain cores are its encodings
            encoding = not entry.index or reencode and isinstance(entry.decoded, FiniteConfiguration)
            chain = entry.model._numbered().chain
            assert (chain is not None) == (mode == "repaired" or encoding)
            if chain is not None:
                _assert_chain_holds(entry.model._numbered())
    # every repaired product continues its parent's chain, and no faithful
    # product does
    assert children
    assert all(had for had, _ in children) == (mode == "repaired" or reencode)
    assert all((chain is not None) == (mode == "repaired") for _, chain in children)


def _bare_chain(rng):
    """A core of ``a`` and ``b`` only: a chain of 1-12 cells of either
    parity, 0-2 worlds off it, a random valuation and point."""
    c, parity = rng.randint(1, 12), rng.randint(0, 1)
    size = c + rng.randint(0, 2)
    names = tuple(f"w{k}" for k in range(size))
    valuation = rng.getrandbits(size)
    core = _Core(size, names, _tape_blocks(c, parity), valuation, rng.randrange(size), (c, parity))
    return PointedKripkeModel._of_core(core)


_TAPE_FORMULAS = [P, neg(P), TOP, neg(TOP), box(TAPE_A, neg(P)), box(TAPE_B, neg(P)), conj(P, box(TAPE_B, P))]


def _tape_program(rng):
    """A program over ``a`` and ``b`` that often copies a chain: actions on
    p and on non-p cells, mostly sharing their classes, and 0-4 more with
    random preconditions, classes and postconditions. Now and then the
    first two get random preconditions too, so a cell may have no child."""
    actions = ["t0", "t1", *(f"x{i}" for i in range(rng.randint(0, 4)))]
    pre = {a: rng.choice(_TAPE_FORMULAS) for a in actions}
    if rng.random() < 0.8:
        pre.update(t0=P, t1=neg(P))
    pairs = {TAPE_A: [], TAPE_B: []}
    for agent in pairs:
        if rng.random() < 0.8:
            pairs[agent].append(("t0", "t1"))
        for _ in range(rng.randint(0, 3)):
            pairs[agent].append(tuple(rng.sample(actions, 2)))
    post = {a: rng.random() < 0.5 for a in actions if rng.random() < 0.3}
    return build_program(actions, pairs, pre, post, rng.sample(actions, rng.randint(1, len(actions))))


def test_random_programs_update_a_bare_chain_alike_either_way():
    """Random programs over ``a`` and ``b`` (``_tape_program``), up to
    three updates each, from the chain core and from it without its chain.
    Some children continue the chain, and some do not."""
    chained = unchained = 0
    for seed in range(600):
        rng = random.Random(seed)
        model = _bare_chain(rng)
        program = _tape_program(rng)
        for _ in range(3):
            try:
                child = product_update(model, program)
            except DeterminismViolation:
                break
            plain = product_update(_unchained(model), program)
            if child is None:
                assert plain is None
                break
            assert _by_names(child) == _by_names(plain)
            if child._numbered().chain is not None:
                _assert_chain_holds(child._numbered())
                chained += 1
            else:
                unchained += model._numbered().chain is not None
            model = child
    assert chained >= 50 and unchained >= 50


def test_interior_tape_children_in_two_classes_are_numbered_parent_by_parent():
    """A 4-cell chain whose tape actions ``e0``, ``u``, ``v``, ``e3`` each
    apply at one cell, with ``e0 ~a u``, ``u ~b v`` and ``v ~a e3``: the
    interior children ``u`` and ``v`` lie in two ``a`` classes, so the
    update numbers the children parent by parent and gives no chain, and
    the child is the one the parent without its chain has."""
    names = tuple(f"w{k}" for k in range(4))
    core = _Core(4, names, _tape_blocks(4, 0), 0b0101, 0, (4, 0))  # p at cells 0 and 2
    model = PointedKripkeModel._of_core(core)
    # cells 0 and 3 are alone in their b classes, and p tells them apart
    pre = {
        "e0": conj(P, box(TAPE_B, P)),
        "u": conj(neg(P), neg(box(TAPE_B, neg(P)))),
        "v": conj(P, neg(box(TAPE_B, P))),
        "e3": conj(neg(P), box(TAPE_B, neg(P))),
    }
    pairs = {TAPE_A: [("e0", "u"), ("v", "e3")], TAPE_B: [("u", "v")]}
    program = build_program(pre, pairs, pre, None, ("e0",))
    child = product_update(model, program)
    plain = product_update(_unchained(model), program)
    assert child._numbered().names == plain._numbered().names == tuple(zip(names, ("e0", "u", "v", "e3")))
    assert child._numbered().chain is None
    assert child._numbered().blocks == plain._numbered().blocks
    assert _by_names(child) == _by_names(plain)


def _with(core, **parts):
    """A copy of ``core`` with some parts replaced, its ``chain`` kept."""
    fields = {name: getattr(core, name) for name in ("size", "_names", "blocks", "valuation", "point")}
    fields.update(parts)
    return _Core(*fields.values(), chain=core.chain)


def _broken(rng, core, states):
    """``core`` with a flipped p bit on a random cell or on an end cell,
    and with a second head. A flipped bit takes cells out of 0..c-1 or
    moves an end. No world past c - 1 can be a cell, as a cell needs an
    ``a`` or ``b`` partner and a chain core's only such blocks are its
    pairs, so the cells of a broken chain core lie inside 0..c-1."""
    c = core.chain[0]
    for k in (rng.randrange(c), 0, c - 1, rng.randrange(1, c - 1)):
        yield _with(core, valuation=core.valuation ^ 1 << k)
    # a second head world, on another cell, under a state relation
    state = state_agent(rng.choice(states))
    other = rng.choice([k for k in range(c) if k != core.point])
    blocks = dict(core.blocks)
    blocks[state] = (*blocks[state], (other, core.size))
    names = (*core.names, "h[extra]")
    yield _with(core, size=core.size + 1, _names=names, blocks=blocks)


def test_a_broken_chain_core_decodes_to_the_reason_of_the_core_without_its_chain():
    """Encodings of random configurations and the step models of plain
    runs, each broken in the ways ``_broken`` lists."""
    cores = []
    rng = random.Random(5)
    spec, initial = load("bb3")
    states = tuple(spec.states)
    for _ in range(20):
        cores.append(encode(random_config(rng, states), states).model._numbered())
    for entry in emulate(spec, initial, 20).entries:
        cores.append(entry.model._numbered())
    reasons = set()
    for core in cores:
        assert core.chain is not None
        for broken in _broken(rng, core, states):
            chained = decode(PointedKripkeModel._of_core(broken), states)
            plain = decode(_unchained(PointedKripkeModel._of_core(broken)), states)
            assert chained == plain
            if isinstance(chained, Malformed):
                reasons.add(chained.reason)
    # the breaks reach the walk's reasons, not only one of them
    assert {"multiple heads", "no leftmost cell", "no rightmost cell"} <= reasons
    assert any(reason.startswith("tape relation leaves the cells") for reason in reasons)
    assert "point is not a cell" in reasons


def test_an_intact_chain_core_is_read_without_a_walk(monkeypatch):
    """The chain's mask comparisons read an encoding and every product of
    a ``repaired`` run; the walk reads none of them."""
    from epimachine import codec

    walked = []
    owner = codec.Evaluator._owner

    def counting(self, agent):
        walked.append(agent)
        return owner(self, agent)

    monkeypatch.setattr(codec.Evaluator, "_owner", counting)
    spec, initial = load("march")
    for reencode in (False, True):
        trace = emulate(spec, initial, 40, reencode=reencode)
        assert trace.stop_reason == "step-cap"
        assert all(entry.match for entry in trace.entries)
    config = FiniteConfiguration((-3, 3), (1, 0, 1, 1, 0, 0, 1), 2, spec.start)
    assert configs_equivalent(decode(encode(config, spec.states).model, spec.states), config)
    assert walked == []


def test_a_plain_run_at_the_span_limit_stays_a_chain():
    """A head at 9990 walking right, 3 plain steps: every step model is a
    chain core, the chains growing past ``2 * MAX_SPAN + 1`` cells, every
    step agrees with the direct simulation, and no module keeps a table of
    masks."""
    from epimachine import codec, logic

    lines = ["machine edge", "states r", "start r", "head 9990", "trans r 0 -> r 1 R", "trans r 1 -> r 1 R"]
    spec, initial = parse_machine("\n".join(lines) + "\n")
    trace = emulate(spec, initial, 3)
    assert trace.stop_reason == "step-cap" and all(entry.match for entry in trace.entries)
    cores = [entry.model._numbered() for entry in trace.entries]
    assert [core.chain[0] for core in cores] == [19995, 19999, 20003, 20007] and 20007 > 2 * MAX_SPAN + 1
    tables = [value for module in (codec, logic) for value in vars(module).values() if type(value) is list]
    assert not any(type(item) is int for table in tables for item in table)
