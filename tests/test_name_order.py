"""The name order a plain run carries on each step core, against a sort of
the names: at every step the order is the ``world_sort_key`` order, and the
names read late are the names an eager rank naming gives. ``export_dot``,
which reads that order and renders in bulk, writes what a world-by-world
renderer writes, on runner steps and on random models of every kind of
name. A plain run names no world, and keeps no chain of cores alive."""

import gc
import itertools
import operator
import random
import weakref
from array import array

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epimachine import action, runner
from epimachine.action import _rank_text, applicable_designated, product_update
from epimachine.codec import DEFAULT_PADDING
from epimachine.logic import EquivRelation, PointedKripkeModel, world_sort_key
from epimachine.program import GROWTH_MODES, compile_program
from epimachine.runner import emulate, export_dot

from helpers import load, random_partition_model, reference_dot
from test_core import FAITHFUL_PLAIN_CAP, RUNS
from test_designated import AGENTS, _random_program


def _plain_trace(name, cap, mode):
    spec, initial = load(name)
    if mode == "faithful":
        cap = min(cap, FAITHFUL_PLAIN_CAP)
    return spec, emulate(spec, initial, cap, mode=mode)


def _eager_names(trace, program):
    """Each step's names as the run made them when it named every product
    and ranked it by a sort of its names: the update of step i + 1 maps
    each parent to its rank among step i's sorted names."""
    model = trace.entries[0].model
    names = [model._numbered().names]
    for i in range(1, len(trace.entries)):
        ranks = None
        if i > 1:
            ranks = {w: k for k, w in enumerate(sorted(names[-1], key=world_sort_key))}
        model = product_update(model, program, ranks)
        names.append(model._numbered().names)
    return names


def _is_named(model):
    return type(model._numbered()._names) is tuple


@pytest.mark.parametrize("mode", GROWTH_MODES)
@pytest.mark.parametrize("name, cap", RUNS)
def test_the_carried_order_is_the_sorted_order_and_names_read_late_are_the_ranked_names(
    name, cap, mode
):
    spec, trace = _plain_trace(name, cap, mode)
    program = compile_program(spec, mode).program
    entries = trace.entries
    assert len(entries) > 2
    assert not any(_is_named(entry.model) for entry in entries)
    # the first product gets its order as the second is built, every later
    # one from the update that built it
    carried = [entry.model._numbered().order for entry in entries]
    assert carried[0] is None
    assert all(order is not None for order in carried[1:])
    for entry, order, eager in zip(entries, carried, _eager_names(trace, program)):
        names = entry.model._numbered().names
        assert names == eager
        if order is not None:
            assert order == sorted(range(len(names)), key=lambda k: world_sort_key(names[k]))


@given(st.randoms(use_true_random=False), st.integers(1, 3))
@settings(max_examples=200)
def test_an_update_given_its_parents_order_keeps_its_childrens_order(rng, fragments):
    """Random programs of up to 7 actions, whose shared preconditions put a
    parent's actions out of action order, on random partition models with
    few or many branching parents; the second update reads the order the
    first one kept."""
    model = random_partition_model(rng, AGENTS, fragments)
    _, designate = _random_program(rng, "any")
    program = designate([])
    names = model._numbered().names
    order = sorted(range(len(names)), key=lambda k: world_sort_key(names[k]))
    for _ in range(2):
        assume(len(applicable_designated(model, program)) == 1)
        ranks = {names[k]: r for r, k in enumerate(order)}
        expected = product_update(model, program, ranks)._numbered().names
        model = product_update(model, program, order)
        core = model._numbered()
        assert core.names == expected
        names, order = core.names, core.order
        assert order == sorted(range(len(names)), key=lambda k: world_sort_key(names[k]))


@given(st.integers(0, 2**32), st.integers(1, 400), st.sampled_from((0.02, 0.5)))
@settings(max_examples=150)
def test_a_child_order_is_the_sort_of_the_childrens_names(seed, size, branching):
    """``_child_order`` on random lineages against a sort of the children's
    names (parent's rank, action): parents with no child or several at the
    rate ``branching``, the children numbered parent by parent, a few of
    them then moved to the front and a few to the end, as a chain moves
    its cells' children, and the rest cut into a few pieces put in random
    order, so a parent's children may stand apart."""
    rng = random.Random(seed)
    counts = [rng.choice((0, 2, 3)) if rng.random() < branching else 1 for _ in range(size)]
    actions = [f"a{k}" for k in range(5)]
    children = [(p, a) for p in range(size) for a in rng.sample(actions, counts[p])]
    assume(children)
    moved = rng.sample(range(len(children)), min(6, len(children)))
    front = [children[i] for i in moved[:3]]
    back = [children[i] for i in moved[3:]]
    rest = [child for i, child in enumerate(children) if i not in moved]
    cuts = sorted(rng.sample(range(len(rest) + 1), min(3, len(rest) + 1)))
    pieces = [rest[i:j] for i, j in zip([0, *cuts], [*cuts, len(rest)])]
    rng.shuffle(pieces)
    children = front + [child for piece in pieces for child in piece] + back
    parent_of = array("I", [p for p, _ in children])
    action_of = [a for _, a in children]
    order = rng.sample(range(size), size)
    rank = {p: r for r, p in enumerate(order)}
    expected = sorted(range(len(children)), key=lambda c: (str(rank[parent_of[c]]), action_of[c]))
    assert action._child_order(order, parent_of, action_of) == expected


def test_a_runs_text_order_fits_every_size():
    """One table fitted to sizes that grow by a few (inserted) and by many
    (sorted anew), that shrink by a few and by many, and that stay; each
    list given out stays as it was given while later sizes are fitted."""
    sizes = (5, 6, 9, 17, 16, 10, 11, 0, 1, 120, 127, 135, 135, 112, 1000, 1040, 1100, 3, 12)
    given = [_rank_text(size) for size in sizes]
    assert given == [sorted(range(size), key=str) for size in sizes]


def test_plain_runs_advanced_in_turn_name_each_step_as_alone():
    """Every ranked update reads the ranks' text order from one table that
    it fits to its parent's size; two runs of different sizes, stepped in
    turn, refit it at every step and still give each step the names and
    the order it gets in a run of its own."""
    runs = [("march", 30), ("bb4", 60)]
    alone, steps = [], []
    for name, cap in runs:
        spec, initial = load(name)
        alone.append([entry.model for entry in emulate(spec, initial, cap).entries])
        steps.append(runner._steps(spec, initial, cap, "repaired", False, DEFAULT_PADDING, None))
    together = [[], []]
    for entries in itertools.zip_longest(*steps):
        for models, entry in zip(together, entries):
            if entry is not None:
                models.append(entry.model)
    assert list(map(len, together)) == list(map(len, alone)) == [31, 61]
    for run, models in zip(alone, together):
        for own, stepped in zip(run, models):
            assert stepped._numbered().order == own._numbered().order
            assert stepped._numbered().names == own._numbered().names


@pytest.mark.parametrize("mode", GROWTH_MODES)
@pytest.mark.parametrize("name, cap", RUNS)
def test_every_plain_step_renders_as_the_reference(name, cap, mode):
    _, trace = _plain_trace(name, cap, mode)
    for entry in trace.entries:
        assert export_dot(entry.model) == reference_dot(entry.model)


NAME_KINDS = ("text", "int", "pair", "nested", "escaped", "mixed")


def _name(kind, rng, i):
    """The ``i``th name of ``kind``; ``mixed`` takes any of the others, and
    ints as text, so that an int and its text, which sort as equals, may
    both be names."""
    if kind == "mixed":
        kind = rng.choice(NAME_KINDS[:-1] + ("digits",))
    if kind == "text":
        return f"w{i}"
    if kind == "int":
        return i // 2
    if kind == "digits":
        return str(i // 2)
    if kind == "pair":
        return (rng.choice((i, f"c[{i}]")), rng.choice("ab"))
    if kind == "nested":
        return ((i, "a"), rng.choice(("b", ("c", i))))
    return rng.choice(('q"', "q\\", 'say "hi" \\ ', "plain")) + str(i)


def _random_named_model(rng, kind):
    """A model of 1-14 worlds named by ``kind``; each agent's classes have
    1-2 worlds, or 1-5, so with blocks of three or more."""
    worlds = list(dict.fromkeys(_name(kind, rng, i) for i in range(rng.randint(1, 14))))
    relations = {}
    for agent in AGENTS:
        rest = rng.sample(worlds, len(worlds))
        sizes = rng.choice(((1, 2, 2), (1, 2, 3, 4, 5)))
        classes = []
        while rest:
            size = rng.choice(sizes)
            classes.append(rest[:size])
            del rest[:size]
        relations[agent] = EquivRelation(worlds, classes)
    valuation = {w for w in worlds if rng.random() < 0.5}
    return PointedKripkeModel(frozenset(worlds), relations, valuation, rng.choice(worlds))


@given(st.randoms(use_true_random=False), st.sampled_from(NAME_KINDS))
@settings(max_examples=300)
def test_a_random_model_renders_as_the_reference(rng, kind):
    model = _random_named_model(rng, kind)
    expected = reference_dot(model)
    assert export_dot(model) == expected
    assert model._numbered().order is None  # the export keeps no order


def test_a_plain_run_names_nothing(monkeypatch):
    """``emulate`` and ``verify_lockstep`` without re-encoding leave every
    step core unnamed, the first product after the encoding included."""
    runs = [("march", 30), ("bb4", 200)]
    kept = []
    for name, cap in runs:
        spec, initial = load(name)
        kept += [entry.model for entry in emulate(spec, initial, cap).entries]
    assert not any(map(_is_named, kept))

    built = []

    def keeping(*args):
        out = product_update(*args)
        built.append(out)
        return out

    monkeypatch.setattr(runner, "product_update", keeping)
    steps = 0
    for name, cap in runs:
        spec, initial = load(name)
        report = runner.verify_lockstep(spec, initial, cap)
        assert report.ok()
        steps += report.steps
    assert len(built) == steps == len(kept) - len(runs)
    assert not any(map(_is_named, built))
    # the check checks: reading a name makes them all
    assert built[-1].worlds and _is_named(built[-1])


def test_a_chain_of_plain_steps_keeps_no_chain_of_cores():
    """40 plain runner steps whose names nobody reads, looked at while the
    run waits at its last step: each child's namer holds its parent's order,
    not its parent's core, so only that step's core remains."""
    spec, initial = load("bb4")
    cores = []
    run = runner._steps(spec, initial, 40, "repaired", False, DEFAULT_PADDING, None)
    for entry in run:
        cores.append(weakref.ref(entry.model._numbered()))
        if entry.index == 40:
            break
    gc.collect()
    assert len(cores) == 41
    assert [core() is not None for core in cores] == [False] * 40 + [True]
    assert cores[-1]() is entry.model._numbered()
    assert not _is_named(entry.model)
    run.close()


def test_a_kept_run_can_be_read_late_and_in_any_order():
    """A plain ``emulate`` run keeps every step and makes no order till one
    is read. The last of 1200 steps, read first, names its worlds and
    renders its DOT file through the chain of 1199 unread orders above it,
    which is made in a loop, so under the default recursion limit. Then
    every step's order is the sort of its names, and its names are the
    names an eager rank naming gives, as ``_eager_names`` makes them but
    one step at a time, each step dropped once checked."""
    spec, initial = load("march")
    program = compile_program(spec, "repaired").program
    entries = emulate(spec, initial, 1200).entries
    assert len(entries) == 1201
    assert not any(type(entry.model._numbered()._order) is list for entry in entries)
    last = entries[-1].model
    assert last._numbered().names and export_dot(last) == reference_dot(last)

    # the run holds millions of objects and no cycle, so the checks below
    # run without the cyclic collector, which would walk them all again
    # and again
    gc.disable()
    try:
        _assert_eager(entries, program)
    finally:
        gc.enable()


def _assert_eager(entries, program):
    """Every step's order is the sort of its names, and its names are the
    eager ones; each entry is dropped once checked."""
    model, ranks = entries[0].model, None
    for i, entry in enumerate(entries):
        if i:
            model = product_update(model, program, ranks)
        eager = model._numbered().names
        core = entry.model._numbered()
        names = core._names if type(core._names) is tuple else core._names()
        assert names == eager
        if i:
            # every product name is a pair of plain names, which
            # ``world_sort_key`` sorts by the text of each part
            parents, actions = zip(*names)
            assert set(map(type, parents + actions)) <= {int, str}
            keys = list(zip(map(str, parents), actions))
            order = core.order
            ordered = list(map(keys.__getitem__, order))
            assert len(order) == len(keys) and all(map(operator.lt, ordered, ordered[1:]))
            ranks = {eager[k]: r for r, k in enumerate(order)}
        entries[i] = None


def test_a_kept_run_that_reads_no_name_makes_no_order(monkeypatch):
    """``emulate`` keeps every step, so with no name read it makes no
    order: it neither builds one, nor sorts names, nor fits a rank text."""
    calls = []
    for name in ("_child_order", "_sorted_order", "_rank_text"):

        def counting(*args, _name=name, _real=getattr(action, name)):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(action, name, counting)
    spec, initial = load("march")
    trace = emulate(spec, initial, 200)
    assert len(trace.entries) == 201 and calls == []
    assert trace.entries[-1].model._numbered().order and calls


def test_a_streamed_plain_run_keeps_no_chain_of_unread_lineage(monkeypatch):
    """40 plain runner steps consumed as ``verify_lockstep`` consumes them,
    looked at while the run waits at its last step: each ranked product's
    order is made as its step is made, which drops its source's hold on its
    parent's order, so of the order sources and the lineages (each namer's
    parent numbers) the updates made, only the last step's may remain."""
    sources, lineages = [], []

    def keeping(*args):
        out = product_update(*args)
        core = out._numbered()
        if core._order is not None:
            sources.append(weakref.ref(core._order))
        lineages.append(weakref.ref(core._names.args[1]))
        return out

    monkeypatch.setattr(runner, "product_update", keeping)
    spec, initial = load("bb4")
    run = runner._steps(spec, initial, 40, "repaired", False, DEFAULT_PADDING, None)
    for entry in run:
        if entry.index == 40:
            break
    gc.collect()
    # the first product, an encoding's child, is not ranked
    assert len(lineages) == 40 and len(sources) == 39
    assert [ref() is not None for ref in lineages] == [False] * 39 + [True]
    assert not any(ref() is not None for ref in sources[:-1])
    assert entry.model._numbered()._names.args[1] is lineages[-1]()
    run.close()
