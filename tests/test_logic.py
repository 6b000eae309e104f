import copy
import gc
import pickle
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epimachine.logic import (
    P,
    TAPE_A,
    TAPE_B,
    SYMBOL,
    TOP,
    Agent,
    And,
    Box,
    EquivRelation,
    Evaluator,
    Formula,
    FormulaSyntaxError,
    Not,
    Plan,
    PointedKripkeModel,
    box,
    closure,
    diamond,
    disj,
    equivalence_defect,
    eval_formula,
    format_formula,
    is_equivalence,
    make_model,
    neg,
    parse_formula,
    restricted_model,
    s5_defect,
    sat_set,
    state_agent,
)

from helpers import (
    brute_eval,
    brute_sat_set,
    model_pairs,
    naive_closure_pairs,
    random_partition_model,
)

AGENTS = (TAPE_A, TAPE_B, SYMBOL, state_agent("q0"))


# --- closure ---


def test_closure_singleton_reflexive():
    assert closure((), {"w"}).pairs() == {("w", "w")}


def test_closure_symmetric_reflexive():
    rel = closure({("x", "y")}, {"x", "y", "z"})
    assert rel.pairs() == {
        ("x", "x"),
        ("y", "y"),
        ("z", "z"),
        ("x", "y"),
        ("y", "x"),
    }


def test_closure_transitive_clique():
    rel = closure({("x", "y"), ("y", "z")}, {"x", "y", "z"})
    expected = {(u, v) for u in "xyz" for v in "xyz"}
    assert rel.pairs() == expected


def test_closure_rejects_foreign_members():
    with pytest.raises(ValueError):
        closure({("x", "nope")}, {"x"})


@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)),
        max_size=12,
    )
)
def test_closure_matches_fixpoint_iteration(pairs):
    universe = set(range(8))
    assert closure(pairs, universe).pairs() == naive_closure_pairs(pairs, universe)


@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7)),
        max_size=12,
    )
)
def test_closure_idempotent(pairs):
    universe = set(range(8))
    once = closure(pairs, universe)
    assert closure(once.pairs(), universe) == once


def test_equivalence_defect_reports():
    assert equivalence_defect({("x", "x"), ("y", "y")}, {"x", "y"}) is None
    assert equivalence_defect({("x", "x"), ("x", "q")}, {"x"}) == "pair member outside universe: (x, q)"
    assert "reflexive" in equivalence_defect(set(), {"x"})
    assert "symmetric" in equivalence_defect({("x", "x"), ("y", "y"), ("x", "y")}, {"x", "y"})
    full = {(u, v) for u in "xy" for v in "xy"} | {("z", "z"), ("y", "z"), ("z", "y")}
    assert "transitive" in equivalence_defect(full, {"x", "y", "z"})
    assert not is_equivalence(full, {"x", "y", "z"})


def test_s5_defect_names_the_relation_of_overlapping_blocks():
    """``from_blocks`` takes its blocks unchecked; two that overlap make a
    relation that is not transitive."""
    worlds = frozenset("xyz")
    relation = EquivRelation.from_blocks(worlds, [{"x", "y"}, {"y", "z"}])
    model = PointedKripkeModel(worlds, {TAPE_A: relation}, set(), "x")
    assert s5_defect(model).startswith("relation a: not transitive at ")


def test_relation_restriction():
    rel = closure({("x", "y"), ("y", "z")}, {"x", "y", "z", "w"})
    cut = rel.restricted({"x", "y", "w"})
    assert cut == closure({("x", "y")}, {"x", "y", "w"}) and cut != cut.blocks()
    assert cut.class_of("x") == {"x", "y"}
    assert cut.class_of("w") == {"w"}


# --- random models for semantic properties ---


def _random_model(rng):
    worlds = [f"w{i}" for i in range(rng.randint(1, 8))]
    pairs = {
        agent: {
            (rng.choice(worlds), rng.choice(worlds)) for _ in range(rng.randint(0, 6))
        }
        for agent in AGENTS
    }
    valuation = {w for w in worlds if rng.random() < 0.5}
    return make_model(worlds, pairs, valuation, rng.choice(worlds))


def _random_formula(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([TOP, P])
    pick = rng.random()
    if pick < 0.3:
        return Not(_random_formula(rng, depth - 1))
    if pick < 0.6:
        return And(_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))
    return Box(rng.choice(AGENTS), _random_formula(rng, depth - 1))


def test_eval_matches_bruteforce_on_random_models():
    rng = random.Random(7)
    for _ in range(150):
        model = _random_model(rng)
        formula = _random_formula(rng)
        pairs = model_pairs(model)
        for world in model.worlds:
            expected = brute_eval(model.worlds, pairs, model.valuation, world, formula)
            assert eval_formula(model, world, formula) == expected


def test_shared_checker_keeps_models_apart():
    # both models name their worlds w0, w1, ..., so sets served for the wrong
    # model would show as wrong answers
    rng = random.Random(19)
    for _ in range(60):
        m1, m2 = _random_model(rng), _random_model(rng)
        for formula in [_random_formula(rng) for _ in range(3)]:
            expected1, expected2 = brute_sat_set(m1, formula), brute_sat_set(m2, formula)
            assert sat_set(m1, formula) == expected1
            assert sat_set(m2, formula) == expected2
            assert sat_set(m1, formula) == expected1
            for world in m1.worlds:
                assert eval_formula(m1, world, formula) == (world in expected1)
                assert eval_formula(m2, m2.point, formula) == (m2.point in expected2)
            assert sat_set(m2, formula) == expected2


def test_t_axiom_and_diamond_on_equivalence_models():
    rng = random.Random(11)
    for _ in range(80):
        model = _random_model(rng)
        formula = _random_formula(rng, depth=2)
        for agent in AGENTS:
            boxed = box(agent, formula)
            spotted = diamond(agent, formula)
            for world in model.worlds:
                if eval_formula(model, world, boxed):
                    assert eval_formula(model, world, formula)
                cls = model.successors(agent, world)
                assert eval_formula(model, world, spotted) == any(
                    eval_formula(model, other, formula) for other in cls
                )


def test_eval_validates_inputs():
    model = make_model({"w"}, {TAPE_A: ()}, set(), "w")
    assert eval_formula(model, "w", TOP)
    with pytest.raises(ValueError):
        eval_formula(model, "nope", TOP)
    with pytest.raises(ValueError):
        eval_formula(model, "w", box(TAPE_B, TOP))


def test_the_printer_and_the_plan_refuse_what_is_not_a_formula():
    for build in (format_formula, lambda root: Plan((root,))):
        with pytest.raises(TypeError, match="not a formula: 7"):
            build(7)


def test_the_printer_refuses_text_in_place_of_a_formula():
    with pytest.raises(TypeError, match="not a formula: 'p'"):
        format_formula("p")


def test_the_printer_refuses_text_under_a_negation():
    with pytest.raises(TypeError, match="not a formula: 'p'"):
        format_formula(Not("p"))


def test_the_printer_refuses_text_as_an_operand():
    with pytest.raises(TypeError, match="not a formula: 'q'"):
        format_formula(And(TOP, "q"))


def test_sat_set_not_top_is_empty():
    model = make_model({"u", "v"}, {TAPE_A: {("u", "v")}}, {"u"}, "u")
    assert sat_set(model, neg(TOP)) == frozenset()
    assert sat_set(model, P) == {"u"}


def test_restricted_model():
    model = make_model(
        {"u", "v", "x"}, {TAPE_A: {("u", "v")}, TAPE_B: ()}, {"u", "x"}, "u"
    )
    sub = restricted_model(model, {"u", "v"})
    assert sub.worlds == {"u", "v"}
    assert sub.valuation == {"u"}
    with pytest.raises(ValueError):
        restricted_model(model, {"v", "x"})


def test_model_refuses_parts_outside_its_worlds():
    worlds = frozenset({"u", "v"})
    relation = closure({("u", "v")}, set(worlds))
    assert relation.universe == worlds and relation.universe is not worlds
    model = PointedKripkeModel(worlds, {TAPE_A: relation}, {"u"}, "v")
    assert model.relations[TAPE_A] is relation
    with pytest.raises(ValueError, match="point x is not a world"):
        PointedKripkeModel(worlds, {TAPE_A: relation}, {"u"}, "x")
    with pytest.raises(ValueError, match="valuation contains non-worlds"):
        PointedKripkeModel(worlds, {TAPE_A: relation}, {"u", "x"}, "u")
    for other in ({"u"}, {"u", "v", "x"}):
        with pytest.raises(ValueError, match="relation a not over the world set"):
            PointedKripkeModel(worlds, {TAPE_A: closure((), other)}, (), "u")


# --- parsing and printing ---


def test_parse_trivia():
    assert parse_formula("T") is TOP
    assert parse_formula("p") is P
    assert parse_formula("(p & [a]~p)") == And(P, Box(TAPE_A, Not(P)))


def test_parse_sugar_desugars():
    assert parse_formula("<a>p") == Not(Box(TAPE_A, Not(P)))
    assert parse_formula("(p | T)") == Not(And(Not(P), Not(TOP)))
    assert parse_formula("[q:fetch]p") == Box(state_agent("fetch"), P)


def test_parse_whitespace_tolerant():
    assert parse_formula(" ( p &  [ a ] ~p ) ") == And(P, Box(TAPE_A, Not(P)))


@pytest.mark.parametrize(
    "text, position",
    [
        ("", 0),
        ("(p &", 4),
        ("(p ! T)", 3),
        ("[x]p", 1),
        ("p p", 2),
        ("<a p", 3),
        ("~", 1),
    ],
)
def test_parse_errors_carry_positions(text, position):
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula(text)
    assert err.value.position == position


formula_strategy = st.recursive(
    st.sampled_from([TOP, P]),
    lambda sub: st.one_of(
        sub.map(Not),
        st.tuples(sub, sub).map(lambda lr: And(*lr)),
        st.tuples(st.sampled_from(AGENTS), sub).map(lambda af: Box(*af)),
        st.tuples(st.sampled_from(AGENTS), sub).map(lambda af: diamond(*af)),
        st.tuples(sub, sub).map(lambda lr: disj(*lr)),
    ),
    max_leaves=25,
)


@given(formula_strategy)
@settings(max_examples=200)
def test_format_parse_round_trip(formula):
    assert parse_formula(format_formula(formula)) == formula


def test_a_formula_nested_past_the_recursion_limit_round_trips():
    """Every operator and sugar form, nested 20,000 levels on both sides of
    each binary node."""
    formula = P
    wraps = [
        Not,
        lambda f: And(f, P),
        lambda f: And(TOP, f),
        lambda f: Box(TAPE_A, f),
        lambda f: diamond(SYMBOL, f),
        lambda f: disj(f, TOP),
        lambda f: disj(P, f),
    ]
    for depth in range(20_000):
        formula = wraps[depth % len(wraps)](formula)
    text = format_formula(formula)
    assert text.count("(") == text.count(")") > 10_000
    assert parse_formula(text) is formula


def test_agent_tokens():
    assert Agent.from_token("a") is not None
    assert Agent.from_token("q:loop").state == "loop"
    with pytest.raises(ValueError):
        Agent.from_token("q:")
    with pytest.raises(ValueError):
        Agent.from_token("zz")


def test_equal_agents_are_one_object():
    assert Agent("q", "A") is state_agent("A")
    assert Agent.from_token("q:A") is state_agent("A")
    assert Agent("a") is TAPE_A and Agent.from_token("1") is SYMBOL
    assert hash(state_agent("A")) == object.__hash__(state_agent("A"))
    assert state_agent("A") == Agent("q", "A") and state_agent("A") != state_agent("B")
    assert sorted([state_agent("B"), TAPE_B, state_agent("A"), SYMBOL, TAPE_A]) == [
        SYMBOL,
        TAPE_A,
        TAPE_B,
        state_agent("A"),
        state_agent("B"),
    ]
    assert repr(state_agent("A")) == "Agent('q:A')"


def test_copies_of_an_agent_are_the_agent():
    agent = state_agent("copied")
    assert copy.copy(agent) is agent
    assert copy.deepcopy(agent) is agent
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(agent, protocol)) is agent
    assert pickle.loads(pickle.dumps(Box(agent, P))) is Box(agent, P)


@pytest.mark.parametrize(
    "kind, state, message",
    [
        ("z", "", "unknown agent kind 'z'"),
        ("q", "", "state agent requires a state name"),
        ("a", "x", "agent 'a' does not carry a state name"),
    ],
)
def test_invalid_agents_are_refused(kind, state, message):
    with pytest.raises(ValueError, match=message):
        Agent(kind, state)
    with pytest.raises(ValueError, match=message):
        Agent(kind, state)  # a refused agent is not remembered


def test_equiv_relation_partition_validation():
    with pytest.raises(ValueError):
        EquivRelation({"x", "y"}, [{"x"}])
    with pytest.raises(ValueError):
        EquivRelation({"x", "y"}, [{"x", "y"}, {"y"}])


@given(formula_strategy)
@settings(max_examples=200)
def test_parse_returns_the_interned_node(formula):
    assert parse_formula(format_formula(formula)) is formula


def test_copies_of_a_formula_are_the_formula():
    formula = diamond(TAPE_A, And(P, Not(TOP)))
    assert copy.copy(formula) is formula
    assert copy.deepcopy(formula) is formula
    assert pickle.loads(pickle.dumps(formula)) is formula
    assert Not(Box(Agent("a"), Not(And(P, Not(TOP))))) is formula


def test_interning_does_not_keep_formulas_alive():
    ref = weakref.ref(Box(state_agent("unused"), Not(P)))
    gc.collect()
    assert ref() is None


def test_equiv_relation_rejects_foreign_members():
    with pytest.raises(ValueError, match="classes do not partition the universe"):
        EquivRelation({"x"}, [{"x", "y"}])
    with pytest.raises(ValueError, match="classes are not disjoint"):
        EquivRelation({"x", "y", "z"}, [{"x", "y"}, {"y", "z"}])


@given(st.randoms(use_true_random=False), st.lists(formula_strategy, min_size=1, max_size=4))
@settings(max_examples=200)
def test_bitmask_checker_matches_bruteforce(rng, formulas):
    model = random_partition_model(rng, AGENTS)
    ev = Evaluator(model)
    for formula in formulas:
        expected = brute_sat_set(model, formula)
        assert type(ev.sat_set(formula)) is frozenset
        assert ev.sat_set(formula) == expected
        assert sat_set(model, formula) == expected
        for world in model.worlds:
            assert ev.check(world, formula) == (world in expected)
            assert eval_formula(model, world, formula) == (world in expected)


def _negated(formula, count):
    for _ in range(count):
        formula = Not(formula)
    return formula


@given(
    st.randoms(use_true_random=False),
    st.lists(
        st.tuples(st.one_of(formula_strategy, st.sampled_from([TOP, P])), st.integers(0, 3)),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=200)
def test_one_plan_of_many_roots_matches_bruteforce(rng, drawn):
    """Each root is wrapped in 0-3 extra negations, and Top and p stand under
    negation as roots of their own; later one-off questions to the same
    checker, about the roots and every node inside them, agree too."""
    roots = [_negated(formula, count) for formula, count in drawn]
    roots += [Not(TOP), Not(Not(Not(P)))]
    model = random_partition_model(rng, AGENTS, fragments=rng.randint(1, 3))
    ev = Evaluator(model)
    memo: dict = {}
    for root, mask in zip(roots, ev.run(Plan(roots))):
        assert frozenset(ev.members(mask)) == brute_sat_set(model, root, memo)
    nodes = list(roots)
    for node in nodes:
        nodes += [value for value in vars(node).values() if isinstance(value, Formula)]
    for node in nodes:
        expected = brute_sat_set(model, node, memo)
        assert ev.sat_set(node) == expected
        assert all(ev.check(world, node) == (world in expected) for world in model.worlds)
    # new formulas over the roots run plans whose memoized steps are skipped
    for left, right in zip(roots, roots[1:] + roots[:1]):
        for node in (And(left, Not(right)), Box(rng.choice(AGENTS), Not(left)), disj(left, right)):
            assert ev.sat_set(node) == brute_sat_set(model, node, memo)


@given(st.randoms(use_true_random=False), st.integers(1, 12))
@settings(max_examples=200)
def test_partition_with_and_without_singletons_agree(rng, size):
    """Only blocks, the classes of two or more, are stored: a partition
    given in full and one given as its blocks alone are the same relation."""
    universe = [f"w{i}" for i in range(size)]
    rest = rng.sample(universe, size)
    classes = []
    while rest:
        cut = rng.choice((1, 1, 2, 3, 4))
        classes.append(frozenset(rest[:cut]))
        del rest[:cut]
    blocks = [cls for cls in classes if len(cls) > 1]
    full = EquivRelation(universe, rng.sample(classes, len(classes)))
    sparse = EquivRelation.from_blocks(universe, blocks)
    assert set(full.blocks()) == set(sparse.blocks()) == set(blocks)
    assert len(full.classes()) == len(sparse.classes()) == len(classes)
    assert set(full.classes()) == set(sparse.classes()) == set(classes)
    assert full.pairs() == sparse.pairs()
    for w in universe:
        assert full.class_of(w) == sparse.class_of(w)
        assert (w in sparse.index) == (len(sparse.class_of(w)) > 1)
    keep = rng.sample(universe, rng.randint(0, size))
    assert full.restricted(keep) == sparse.restricted(keep)
    assert set(full.restricted(keep).classes()) == {cls & set(keep) for cls in classes} - {frozenset()}
    assert all(len(block) > 1 for block in sparse.restricted(keep).blocks())
    with pytest.raises(ValueError, match="element outside universe"):
        sparse.class_of("outside")
    assert full == sparse
    assert hash(full) == hash(sparse)
    assert repr(full) == repr(sparse) == f"EquivRelation({size} elements, {len(classes)} classes)"


@given(
    st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=24),
    st.data(),
)
def test_closure_with_repeated_and_reflexive_pairs_matches_bruteforce(pairs, data):
    repeats = data.draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    reflexive = data.draw(st.lists(st.integers(0, 11).map(lambda w: (w, w)), max_size=6))
    listed = data.draw(st.permutations(pairs + repeats + reflexive))
    universe = set(range(12))
    assert closure(listed, universe).pairs() == naive_closure_pairs(listed, universe)


@pytest.mark.parametrize(
    "pairs",
    [
        [("x", "y"), ("y", "z"), ("z", "nope")],
        [("x", "y"), ("nope", "x")],
        [("x", "y"), ("y", "x"), ("nope", "nope")],
    ],
)
def test_closure_rejects_a_foreign_member_after_merging(pairs):
    with pytest.raises(ValueError, match="outside universe"):
        closure(pairs, {"x", "y", "z"})
