"""World names made when first read. An encoding's and a product's names,
read late, are the names the encoder and the update gave every world as
they built it; a re-encoded run never makes them; and a chain of updates
that reads no name keeps no chain of cores alive."""

import gc
import random
import sys
import threading
import weakref

import pytest

from epimachine import codec, logic, runner
from epimachine.action import product_update
from epimachine.codec import MAX_SPAN, _build_tape_model, encode
from epimachine.logic import SYMBOL, TAPE_A, TAPE_B, PointedKripkeModel, sat_set, state_agent
from epimachine.machine import FiniteConfiguration
from epimachine.program import compile_program
from epimachine.runner import emulate

from helpers import load
from test_core import _assert_cores_agree


def _eager_tape_model(lo, hi, ones, head, state, states):
    """The encoder's core parts as the encoder built them when it named
    every world at once: names, blocks and valuation, then the cells,
    symbols and head world by name."""
    cells = {j: f"c[{j}]" for j in range(lo, hi + 1)}
    symbols = {j: f"s[{j}]" for j in sorted(ones)}
    head_world = f"h[{head}]"
    names = (*cells.values(), *symbols.values(), head_world)
    number = {name: k for k, name in enumerate(names)}
    pairs = {TAPE_A: [], TAPE_B: [], SYMBOL: [(cells[j], symbols[j]) for j in symbols]}
    for j in range(lo, hi):
        pairs[TAPE_A if j % 2 == 0 else TAPE_B].append((cells[j], cells[j + 1]))
    for q in states:
        pairs[state_agent(q)] = [(cells[head], head_world)] if q == state else []
    blocks = {agent: [(number[x], number[y]) for x, y in ps] for agent, ps in pairs.items()}
    positions = [*cells, *symbols, head]
    valuation = sum(1 << k for k, j in enumerate(positions) if j % 2 == 0)
    return names, blocks, valuation, cells, symbols, head_world


def _is_named(model):
    return type(model._numbered()._names) is tuple


def _assert_core_is_eager(core, lo, hi, ones, head, state, states):
    names, blocks, valuation, *_ = _eager_tape_model(lo, hi, ones, head, state, states)
    assert core.size == len(names)
    assert core.names == names
    assert {agent: list(bs) for agent, bs in core.blocks.items()} == blocks
    assert (core.valuation, core.point) == (valuation, -lo)


def _config(rng, bound, states):
    """A random configuration whose window reaches out to ``bound``."""
    lo, hi = sorted((rng.randint(-bound, bound), rng.choice((-bound, bound))))
    tape = tuple(rng.random() < 0.3 for _ in range(hi - lo + 1))
    return FiniteConfiguration((lo, hi), tuple(map(int, tape)), rng.randint(lo, hi), rng.choice(states))


# each growth of the tables is followed by smaller spans
BOUNDS = (30, 4, 90, 12, 0, 250, 60, 7, 400, 1)


@pytest.mark.parametrize("padding", [3, 5, 7])
def test_an_encoding_read_late_has_the_eager_names(monkeypatch, padding):
    """A fresh pair table, so the spans below grow it from nothing."""
    monkeypatch.setattr(logic, "_PAIRS", [])
    spec, _ = load("bb4")
    program = compile_program(spec, "repaired").program
    rng = random.Random(padding)
    for bound in BOUNDS:
        config = _config(rng, bound, spec.states)
        encoded = encode(config, spec.states, padding)
        assert not _is_named(encoded.model)
        span = encoded.ceil_u + padding
        ones = config.one_positions()
        _, _, _, cells, symbols, head_world = _eager_tape_model(
            -span, span, ones, config.head, config.state, spec.states
        )
        assert (encoded.cells, encoded.symbols, encoded.head_world) == (cells, symbols, head_world)
        eager = codec.EncodedModel(encoded.model, cells, symbols, head_world, encoded.ceil_u)
        assert encoded == eager and repr(encoded) == repr(eager)
        _assert_core_is_eager(
            encoded.model._numbered(), -span, span, ones, config.head, config.state, spec.states
        )
        _assert_cores_agree(encoded.model, program, spec.states)
    assert len(logic._PAIRS) == 2 * (400 + padding)


def test_a_tape_core_of_either_parity_has_the_eager_names(monkeypatch):
    """Windows from a decode, as ``validate_encoding`` builds them: ``lo``
    of both parities, including a chain longer than any encoding's, which
    grows the shared pair table like any other."""
    monkeypatch.setattr(logic, "_PAIRS", [])
    spec, _ = load("bb3")
    program = compile_program(spec, "repaired").program
    rng = random.Random(1)
    longest = 0
    for bound in BOUNDS:
        lo, hi = -rng.randint(0, bound), rng.randint(0, bound)
        longest = max(longest, hi - lo)
        ones = tuple(j for j in range(lo, hi + 1) if rng.random() < 0.3)
        head, state = rng.randint(lo, hi), rng.choice(spec.states)
        core = _build_tape_model(lo, hi, ones, head, state, spec.states)
        model = PointedKripkeModel._of_core(core)
        _assert_core_is_eager(core, lo, hi, ones, head, state, spec.states)
        _assert_cores_agree(model, program, spec.states)
    assert len(logic._PAIRS) == longest
    lo, hi = -MAX_SPAN - 2, MAX_SPAN + 1
    core = _build_tape_model(lo, hi, (lo, 0, hi), 0, spec.start, spec.states)
    _assert_core_is_eager(core, lo, hi, (lo, 0, hi), 0, spec.start, spec.states)
    assert len(logic._PAIRS) == hi - lo


def test_chains_fitted_in_threads_slice_true_pairs(monkeypatch):
    """4 threads, switched every microsecond, each fitting chains of 3..400
    cells to one fresh pair table: a table once handed out is never
    changed, so every pair sliced from it is (k, k + 1)."""
    pairs = [(k, k + 1) for k in range(400)]
    expected = {
        cells: {TAPE_A: tuple(pairs[cells % 2 : cells - 1 : 2]), TAPE_B: tuple(pairs[1 - cells % 2 : cells - 1 : 2])}
        for cells in range(3, 401)
    }
    wrong = []

    def fit():
        for cells in range(3, 401):
            if logic._tape_blocks(cells, cells % 2) != expected[cells]:
                wrong.append(cells)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            monkeypatch.setattr(logic, "_PAIRS", [])
            threads = [threading.Thread(target=fit) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert logic._PAIRS == pairs[: len(logic._PAIRS)]


@pytest.mark.parametrize("mapped", [False, True])
def test_product_names_read_back_as_parent_and_action(mapped):
    """Each child reads back as (w, a), or (names[w], a) under a map of the
    parents. The first parent is an encoding whose names are unread; the
    later ones are products. A ``repaired`` parent's tape chain continues
    in its children, which come first, in tape order, and the other
    children after them, parent by parent; a ``faithful`` product breaks
    the chain, and its children are numbered parent by parent."""
    spec, initial = load("bb4")
    for mode, steps in (("repaired", 8), ("faithful", 6)):
        program = compile_program(spec, mode).program
        tape = program.relations[TAPE_A].index.keys() | program.relations[TAPE_B].index.keys()
        models = [encode(initial, spec.states).model]
        maps = []
        for _ in range(steps):
            parent = models[-1]
            names = None
            if mapped:
                names = {w: ("n", k) for k, w in enumerate(reversed(parent._numbered().names))}
            maps.append(names)
            models.append(product_update(parent, program, names))
        assert not _is_named(models[-1])
        assert _is_named(models[0]) == mapped  # a map is made from the names
        for parent, child, names in zip(models, models[1:], maps):
            label = {w: w if names is None else names[w] for w in parent._numbered().names}
            read = child._numbered().names
            assert len(read) == child._numbered().size == len(set(read))
            assert set(read) == {
                (label[w], a) for a in program.actions for w in sat_set(parent, program.pre[a])
            }
            number = {name: k for k, name in enumerate(label.values())}
            parents = [number[w] for w, _ in read]
            chain = child._numbered().chain
            assert (chain is None) == (mode == "faithful")
            if chain is None:
                assert parents == sorted(parents)
                continue
            # the chain: the parent's cells' tape children, in tape order
            size, parity = chain
            cells = parent._numbered().chain[0]
            assert parents[:size] == sorted(parents[:size])
            assert set(parents[:size]) == set(range(cells))
            assert [a in tape for _, a in read] == [True] * size + [False] * (len(read) - size)
            pairs = [(k, k + 1) for k in range(size - 1)]
            blocks = child._numbered().blocks
            assert list(blocks[TAPE_A]) == pairs[parity::2]
            assert list(blocks[TAPE_B]) == pairs[1 - parity :: 2]
            # the rest, parent by parent
            assert parents[size:] == sorted(parents[size:])


def test_a_reencoded_run_makes_no_names(monkeypatch):
    """No step core of a re-encoded run builds its names, after ``emulate``
    and inside ``verify_lockstep``, and no encoding its cells, symbols or
    head world."""
    runs = [("bb4", 200, "halted"), ("march", 30, "step-cap")]
    for name, cap, stop in runs:
        spec, initial = load(name)
        trace = emulate(spec, initial, cap, reencode=True)
        assert trace.stop_reason == stop
        assert not any(_is_named(entry.model) for entry in trace.entries)

    built = []
    encodings = []

    def keeping(build, kept):
        def wrapped(*args):
            out = build(*args)
            kept.append(out)
            return out

        return wrapped

    monkeypatch.setattr(runner, "product_update", keeping(runner.product_update, built))
    monkeypatch.setattr(runner, "encode", keeping(runner.encode, encodings))
    for name, cap, _ in runs:
        spec, initial = load(name)
        assert runner.verify_lockstep(spec, initial, cap, reencode=True).ok()
    models = built + [encoded.model for encoded in encodings]
    assert len(built) == 108 + 30
    assert not any(map(_is_named, models))
    assert not any(vars(encoded).keys() - {"model", "ceil_u"} for encoded in encodings)
    # the check checks: reading a name makes them all
    assert encodings[-1].head_world == "h[30]"
    assert _is_named(encodings[-1].model)


def test_a_chain_of_unread_updates_keeps_no_chain_of_cores():
    """40 updates whose names nobody reads: each product parent is named as
    the next update reads it, so no core holds an earlier one. The last
    child and the model the checker slot holds are all that remain."""
    spec, initial = load("bb4")
    program = compile_program(spec, "repaired").program
    model = encode(initial, spec.states).model
    cores = [weakref.ref(model._numbered())]
    for _ in range(40):
        model = product_update(model, program)
        cores.append(weakref.ref(model._numbered()))
    gc.collect()
    assert sum(core() is not None for core in cores) <= 2
    assert cores[-1]() is model._numbered()
