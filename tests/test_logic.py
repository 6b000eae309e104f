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
    FormulaSyntaxError,
    Not,
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
    assert "reflexive" in equivalence_defect(set(), {"x"})
    assert "symmetric" in equivalence_defect({("x", "x"), ("y", "y"), ("x", "y")}, {"x", "y"})
    full = {(u, v) for u in "xy" for v in "xy"} | {("z", "z"), ("y", "z"), ("z", "y")}
    assert "transitive" in equivalence_defect(full, {"x", "y", "z"})
    assert not is_equivalence(full, {"x", "y", "z"})


def test_relation_restriction():
    rel = closure({("x", "y"), ("y", "z")}, {"x", "y", "z", "w"})
    cut = rel.restricted({"x", "y", "w"})
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


def test_agent_tokens():
    assert Agent.from_token("a") is not None
    assert Agent.from_token("q:loop").state == "loop"
    with pytest.raises(ValueError):
        Agent.from_token("q:")
    with pytest.raises(ValueError):
        Agent.from_token("zz")


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
