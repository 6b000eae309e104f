import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epimachine.action import (
    DeterminismViolation,
    applicable_designated,
    build_program,
    export_program,
    identity_program,
    import_program,
    product_update,
)
from epimachine.logic import (
    P,
    TAPE_A,
    TAPE_B,
    TOP,
    PointedKripkeModel,
    box,
    conj,
    make_model,
    neg,
    s5_defect,
)
from epimachine.program import compile_program, export_compiled, import_compiled

from helpers import brute_sat_set, load, random_partition_model

AGENTS = (TAPE_A, TAPE_B)


def _two_world_model():
    return make_model(
        {"u", "v"},
        {TAPE_A: {("u", "v")}, TAPE_B: set()},
        {"u"},
        "u",
    )


def _random_instance(rng):
    worlds = [f"w{i}" for i in range(rng.randint(1, 6))]
    model = make_model(
        worlds,
        {
            agent: {(rng.choice(worlds), rng.choice(worlds)) for _ in range(4)}
            for agent in AGENTS
        },
        {w for w in worlds if rng.random() < 0.5},
        rng.choice(worlds),
    )
    formulas = [TOP, P, neg(P), box(TAPE_A, P), neg(box(TAPE_B, neg(P)))]
    actions = [f"act{i}" for i in range(rng.randint(1, 4))]
    pre = {a: rng.choice(formulas) for a in actions}
    pre[actions[0]] = TOP  # keep the update defined
    pairs = {
        agent: {(rng.choice(actions), rng.choice(actions)) for _ in range(2)}
        for agent in AGENTS
    }
    program = build_program(actions, pairs, pre, None, (actions[0],))
    return model, program


def test_identity_program_reproduces_model():
    model = _two_world_model()
    program = identity_program(model.agents)
    assert program.agents == model.agents
    assert applicable_designated(model, program) == ["id"]
    updated = product_update(model, program)
    assert updated.worlds == {("u", "id"), ("v", "id")}
    assert updated.point == ("u", "id")
    assert updated.valuation == {("u", "id")}
    assert updated.relations[TAPE_A].class_of(("u", "id")) == {("u", "id"), ("v", "id")}
    assert updated.relations[TAPE_B].class_of(("u", "id")) == {("u", "id")}


def test_undefined_when_point_falsifies_designated_preconditions():
    model = _two_world_model()
    program = build_program(
        ("only",), {a: () for a in AGENTS}, {"only": neg(P)}, None, ("only",)
    )
    # p holds at the point, so the single designated action does not apply
    assert applicable_designated(model, program) == []
    assert product_update(model, program) is None


def test_determinism_violation_is_an_error():
    model = _two_world_model()
    program = build_program(
        ("x", "y"),
        {a: () for a in AGENTS},
        {"x": TOP, "y": TOP},
        None,
        ("x", "y"),
    )
    assert applicable_designated(model, program) == ["x", "y"]
    with pytest.raises(DeterminismViolation):
        product_update(model, program)


def test_agent_universe_must_match():
    model = _two_world_model()
    program = identity_program({TAPE_A})
    with pytest.raises(ValueError):
        product_update(model, program)


def test_product_worlds_and_relations_match_definitions():
    rng = random.Random(23)
    for _ in range(60):
        model, program = _random_instance(rng)
        updated = product_update(model, program)
        # world set: every (world, action) pair whose precondition holds
        from epimachine.logic import eval_formula

        expected_worlds = {
            (w, a)
            for w in model.worlds
            for a in program.actions
            if eval_formula(model, w, program.pre[a])
        }
        assert updated.worlds == expected_worlds
        # componentwise relation definition, expanded pair by pair
        for agent in AGENTS:
            expected_pairs = {
                (x, y)
                for x in expected_worlds
                for y in expected_worlds
                if model.relations[agent].related(x[0], y[0])
                and program.relations[agent].related(x[1], y[1])
            }
            assert updated.relations[agent].pairs() == expected_pairs
        # without postconditions the atom is copied from the parent world
        assert updated.valuation == {
            (w, a) for (w, a) in expected_worlds if w in model.valuation
        }
        assert s5_defect(updated) is None


def test_world_count_equals_sum_of_sat_set_sizes():
    from epimachine.logic import sat_set

    rng = random.Random(31)
    for _ in range(40):
        model, program = _random_instance(rng)
        updated = product_update(model, program)
        total = sum(len(sat_set(model, program.pre[a])) for a in program.actions)
        assert len(updated.worlds) == total


def test_postconditions_override_copied_atom():
    model = _two_world_model()
    program = build_program(
        ("flip_on", "flip_off"),
        {a: () for a in AGENTS},
        {"flip_on": neg(P), "flip_off": P},
        {"flip_on": True, "flip_off": False},
        ("flip_off",),
    )
    updated = product_update(model, program)
    assert updated.worlds == {("v", "flip_on"), ("u", "flip_off")}
    assert updated.valuation == {("v", "flip_on")}


def test_product_update_is_deterministic():
    model = _two_world_model()
    program = identity_program(model.agents)
    first = product_update(model, program)
    second = product_update(model, program)
    assert first == second


def test_build_program_validations():
    pre = {"x": TOP}
    with pytest.raises(ValueError):
        build_program(("x",), {TAPE_A: ()}, pre, None, ())  # empty designated
    with pytest.raises(ValueError):
        build_program(("x",), {TAPE_A: ()}, pre, None, ("y",))  # foreign designated
    with pytest.raises(ValueError):
        build_program(("x", "y"), {TAPE_A: ()}, pre, None, ("x",))  # missing pre
    with pytest.raises(ValueError):
        build_program(("x",), {TAPE_A: (("x", "z"),)}, pre, None, ("x",))  # foreign pair
    with pytest.raises(ValueError):
        build_program(("x",), {TAPE_A: ()}, pre, {"x": 1}, ("x",))  # non-bool post


def test_export_import_round_trip_hand_built():
    program = build_program(
        ("go", "stay"),
        {TAPE_A: (("go", "stay"),), TAPE_B: ()},
        {"go": P, "stay": neg(P)},
        {"go": True},
        ("go",),
    )
    text = export_program(program)
    back, extras = import_program(text)
    assert back == program
    assert extras["roles"] == {}
    assert export_program(back) == text


def test_export_import_round_trip_compiled():
    spec, _ = load("flip")
    compiled = compile_program(spec)
    text = export_compiled(compiled)
    back = import_compiled(text)
    assert back.program == compiled.program
    assert back.growth_mode == compiled.growth_mode
    assert back.roles == compiled.roles
    assert export_compiled(back) == text


def test_import_accepts_pre_closed_relations():
    import json

    program = build_program(
        ("go", "stay"),
        {TAPE_A: (("go", "stay"),), TAPE_B: ()},
        {"go": P, "stay": neg(P)},
        None,
        ("go",),
    )
    doc = json.loads(export_program(program))
    doc["relations"]["a"] = {
        "closed": True,
        "pairs": sorted(map(list, program.relations[TAPE_A].pairs())),
    }
    back, _ = import_program(json.dumps(doc))
    assert back.relations == program.relations


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_import_refuses_a_postcondition_that_is_not_a_boolean(value):
    """bb2's ``grow:L2`` sets p false; a value that is not a JSON boolean,
    such as the string "false", is refused, not read as its truth value."""
    import json

    spec, _ = load("bb2")
    doc = json.loads(export_compiled(compile_program(spec)))
    (entry,) = [e for e in doc["actions"] if e["id"] == "grow:L2"]
    assert entry["post"] is False
    entry["post"] = value
    with pytest.raises(ValueError, match="postconditions must assign a constant boolean"):
        import_program(json.dumps(doc))


@pytest.mark.parametrize("pair", [["go", "stay", "go"], ["go"], [], "gs", {"go": "stay"}])
def test_import_refuses_a_relation_pair_that_is_not_two_ids(pair):
    import json

    program = build_program(("go", "stay"), {TAPE_A: (), TAPE_B: ()}, {"go": P, "stay": neg(P)}, None, ("go",))
    doc = json.loads(export_program(program))
    doc["relations"]["b"]["pairs"] = [["go", "stay"], pair]
    with pytest.raises(ValueError, match=r"relation b: pair .* is not two action ids"):
        import_program(json.dumps(doc))


def test_applicable_designated_on_flip_model(flip_machine, flip_encoded):
    spec, _ = flip_machine
    compiled = compile_program(spec)
    # the point is three cells from the head and not an end cell
    assert applicable_designated(flip_encoded.model, compiled.program) == ["cell:mid"]


def test_updated_relations_stay_equivalences_for_compiled_programs():
    from epimachine.codec import encode

    spec, initial = load("bb2")
    compiled = compile_program(spec)
    model = encode(initial, spec.states).model
    for _ in range(3):
        model = product_update(model, compiled.program)
        assert s5_defect(model) is None


@pytest.mark.parametrize(("mode", "steps"), [("repaired", 30), ("faithful", 8)])
@pytest.mark.parametrize("name", ["bb3", "bb4", "march"])
def test_compiled_updates_group_children_by_parent_class_then_action_class(name, mode, steps):
    """At every step, each agent's child blocks are the children grouped by
    the parent's class, then by the action's class, both read from the
    relations' ``class_of``: the product update's definition."""
    from epimachine.codec import encode

    spec, initial = load(name)
    program = compile_program(spec, mode).program
    model = encode(initial, spec.states).model
    for step in range(steps):
        if len(applicable_designated(model, program)) != 1:
            break
        child = product_update(model, program)
        for agent, relation in model.relations.items():
            groups: dict = {}
            for w, a in child.worlds:
                key = relation.class_of(w), program.relations[agent].class_of(a)
                groups.setdefault(key, set()).add((w, a))
            expected = {frozenset(g) for g in groups.values() if len(g) > 1}
            assert set(child.relations[agent].blocks()) == expected
        model = child
    assert step > 4


def _random_partition_program(rng):
    """A program whose relations mix lone actions with classes of 2-4
    actions, with random preconditions and postconditions."""
    actions = [f"act{i}" for i in range(rng.randint(1, 7))]
    pairs = {}
    for agent in AGENTS:
        rest = rng.sample(actions, len(actions))
        pairs[agent] = []
        while rest:
            size = rng.choice((1, 2, 3, 4))
            pairs[agent] += zip(rest[: size - 1], rest[1:size])
            del rest[:size]
    formulas = [TOP, TOP, P, neg(P), box(TAPE_A, P), neg(box(TAPE_B, neg(P)))]
    pre = {a: rng.choice(formulas) for a in actions}
    pre["act0"] = TOP  # keep the update defined
    post = {a: rng.random() < 0.5 for a in actions if rng.random() < 0.5}
    return build_program(actions, pairs, pre, post, ("act0",))


@given(st.randoms(use_true_random=False), st.integers(1, 3))
@settings(max_examples=200)
def test_product_update_matches_the_pairwise_definition(rng, fragments):
    """Models of 1-3 disconnected parts whose classes mix singletons and
    blocks, so product worlds are related both through parent blocks and as
    siblings under one parent that is alone in its class."""
    model = random_partition_model(rng, AGENTS, fragments)
    program = _random_partition_program(rng)
    updated = product_update(model, program)
    expected_worlds = {
        (w, a) for a in program.actions for w in brute_sat_set(model, program.pre[a])
    }
    assert updated.worlds == expected_worlds
    for agent in AGENTS:
        expected_pairs = {
            (x, y)
            for x in expected_worlds
            for y in expected_worlds
            if model.relations[agent].related(x[0], y[0])
            and program.relations[agent].related(x[1], y[1])
        }
        assert updated.relations[agent].pairs() == expected_pairs
        assert all(len(block) > 1 for block in updated.relations[agent].blocks())
    assert updated.valuation == {
        (w, a) for (w, a) in expected_worlds if program.post.get(a, w in model.valuation)
    }
    assert updated.point == (model.point, "act0")
    assert s5_defect(updated) is None


def _split_instance(rng, fragments):
    """A random partition model with a fixed part u ~a v ~b x, p true at u
    and x only, and a program whose preconditions split the worlds into six
    cells by p, [a]p, [b]p and [a]~p. The cells of u and v get one action
    each, unrelated under a, and the cell of x none, so two related parents
    with one child each carry unrelated actions, and a childless parent is
    related to a parent with one child. Each other cell gets no action, one
    or two, so the random part also has branching parents. The relations
    join random actions, and the one designated action is one of the
    point's. Also returns each world's actions."""
    base = random_partition_model(rng, AGENTS, fragments)
    witness = {TAPE_A: {("u", "v")}, TAPE_B: {("v", "x")}}
    model = make_model(
        base.worlds | {"u", "v", "x"},
        {agent: base.relations[agent].pairs() | witness[agent] for agent in AGENTS},
        base.valuation | {"u", "x"},
        base.point,
    )
    a_p, b_p, a_not_p = box(TAPE_A, P), box(TAPE_B, P), box(TAPE_A, neg(P))
    cells = [  # (precondition, action count): u, x and v lie in the first three
        (conj(P, conj(b_p, neg(a_p))), 1),
        (conj(P, conj(neg(b_p), a_p)), 0),
        (conj(neg(P), neg(a_not_p)), 1),
        (conj(P, conj(b_p, a_p)), rng.choice((0, 1, 2))),
        (conj(P, conj(neg(b_p), neg(a_p))), rng.choice((0, 1, 2))),
        (conj(neg(P), a_not_p), rng.choice((0, 1, 2))),
    ]
    pre = {}
    for cell, count in cells:
        for _ in range(count):
            pre[f"act{len(pre)}"] = cell
    sat = {cell: brute_sat_set(model, cell) for cell, _ in cells}
    kids = {w: [a for a in pre if w in sat[pre[a]]] for w in model.worlds}
    assert (kids["u"], kids["x"], kids["v"]) == (["act0"], [], ["act1"])
    pairs = {}
    for agent in AGENTS:
        rest = rng.sample(list(pre), len(pre))
        pairs[agent] = []
        while rest:
            size = rng.choice((1, 2, 3))
            pairs[agent] += zip(rest[: size - 1], rest[1:size])
            del rest[:size]
    pairs[TAPE_A] = [pair for pair in pairs[TAPE_A] if "act1" not in pair]  # act1 alone under a
    point = rng.choice(sorted(w for w in model.worlds if kids[w]))
    model = PointedKripkeModel(model.worlds, model.relations, model.valuation, point)
    post = {a: rng.random() < 0.5 for a in pre if rng.random() < 0.5}
    program = build_program(pre, pairs, pre, post, (rng.choice(kids[point]),))
    return model, program, kids


@given(st.randoms(use_true_random=False), st.integers(1, 3))
@settings(max_examples=200)
def test_split_update_matches_the_pairwise_definition(rng, fragments):
    """Preconditions that split the worlds: every example has two related
    parents with one child each whose actions are unrelated, so their
    children are not related, and a childless parent related to a parent
    with one child."""
    model, program, kids = _split_instance(rng, fragments)
    updated = product_update(model, program)
    expected_worlds = {(w, a) for w in model.worlds for a in kids[w]}
    assert updated.worlds == expected_worlds
    for agent in AGENTS:
        expected_pairs = {
            (x, y)
            for x in expected_worlds
            for y in expected_worlds
            if model.relations[agent].related(x[0], y[0])
            and program.relations[agent].related(x[1], y[1])
        }
        assert updated.relations[agent].pairs() == expected_pairs
    assert updated.valuation == {
        (w, a) for (w, a) in expected_worlds if program.post.get(a, w in model.valuation)
    }
    (designated,) = program.designated
    assert updated.point == (model.point, designated)
    assert s5_defect(updated) is None


@given(st.randoms(use_true_random=False), st.integers(1, 3))
@settings(max_examples=200)
def test_named_update_is_the_pair_update_renamed(rng, fragments):
    """With ``names`` the child of w by a is (names[w], a) and nothing else
    changes: not the relations, valuation or point, nor an undefined or
    nondeterministic update."""
    model = random_partition_model(rng, AGENTS, fragments)
    program = _random_partition_program(rng)
    if rng.random() < 0.5:  # designated sets that may apply nowhere or twice
        designated = rng.sample(program.actions, rng.randint(1, len(program.actions)))
        program = build_program(
            program.actions, program.relation_pairs, program.pre, program.post, designated
        )
    worlds = sorted(model.worlds)
    names = dict(zip(worlds, rng.sample(range(len(worlds)), len(worlds))))  # shuffled ints
    try:
        expected = product_update(model, program)
    except DeterminismViolation as exc:
        with pytest.raises(DeterminismViolation) as caught:
            product_update(model, program, names)
        assert (caught.value.point, caught.value.actions) == (exc.point, exc.actions)
        return
    named = product_update(model, program, names)
    if expected is None:
        assert named is None
        return

    def rename(world):
        return (names[world[0]], world[1])

    assert named.worlds == set(map(rename, expected.worlds))
    for agent in AGENTS:
        assert set(named.relations[agent].classes()) == {
            frozenset(map(rename, cls)) for cls in expected.relations[agent].classes()
        }
    assert named.valuation == set(map(rename, expected.valuation))
    assert named.point == rename(expected.point)
