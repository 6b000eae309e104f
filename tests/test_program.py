import itertools
import json

import pytest

from epimachine.codec import encode
from epimachine.logic import (
    P,
    SYMBOL,
    TAPE_A,
    TAPE_B,
    Evaluator,
    Formula,
    box,
    closure,
    conj,
    diamond,
    disj,
    neg,
    parse_formula,
    sat_set,
    state_agent,
)
from epimachine.machine import FiniteConfiguration, parse_machine
from epimachine.program import (
    GROWTH_MODES,
    ActionRole,
    PreconditionKind,
    all_kinds,
    cell_action_ids,
    cell_formula,
    compile_program,
    digit_formula,
    export_compiled,
    far_from_head_formula,
    head_formula,
    head_reading_formula,
    import_compiled,
    interior_far_formula,
    left_of_head_formula,
    left_of_head_reading_formula,
    leftmost_formula,
    penultimate_left_formula,
    penultimate_right_formula,
    precondition,
    right_of_head_formula,
    right_of_head_reading_formula,
    rightmost_formula,
    symbol_copy_formula,
    symbol_world_formula,
)

from helpers import MACHINE_DIR, brute_sat_set, generated_machine, load


def test_formula_shapes():
    cell = conj(disj(diamond(TAPE_A, P), diamond(TAPE_B, P)), diamond(TAPE_A, neg(P)))
    assert cell_formula() == cell
    assert rightmost_formula() == conj(cell, box(TAPE_B, neg(P)))
    assert leftmost_formula() == conj(cell, box(TAPE_A, neg(P)))
    assert symbol_world_formula() == conj(neg(cell), diamond(SYMBOL, cell))
    assert digit_formula(1) == conj(cell, diamond(SYMBOL, neg(cell)))
    assert digit_formula(0) == conj(cell, neg(diamond(SYMBOL, neg(cell))))
    hq = conj(cell, diamond(state_agent("q0"), neg(cell)))
    assert head_formula("q0") == hq
    assert left_of_head_formula("q0") == conj(
        cell,
        neg(hq),
        disj(conj(P, diamond(TAPE_A, hq)), conj(neg(P), diamond(TAPE_B, hq))),
    )
    assert right_of_head_formula("q0") == conj(
        cell,
        neg(hq),
        disj(conj(P, diamond(TAPE_B, hq)), conj(neg(P), diamond(TAPE_A, hq))),
    )
    # digit substitution applies to the head subformula, keeping the
    # leading cell conjunct of the flank formulas
    hq1 = conj(digit_formula(1), diamond(state_agent("q0"), neg(cell)))
    assert head_reading_formula("q0", 1) == hq1
    assert left_of_head_reading_formula("q0", 1) == conj(
        cell,
        neg(hq1),
        disj(conj(P, diamond(TAPE_A, hq1)), conj(neg(P), diamond(TAPE_B, hq1))),
    )
    assert penultimate_right_formula() == conj(
        cell, neg(rightmost_formula()), diamond(TAPE_A, rightmost_formula())
    )
    assert penultimate_left_formula() == conj(
        cell, neg(leftmost_formula()), diamond(TAPE_B, leftmost_formula())
    )


def test_digit_one_conjunct_parses_from_grammar():
    text = "<1>~((<a>p | <b>p) & <a>~p)"
    assert parse_formula(text) == digit_formula(1).right


def test_precondition_kinds_cover_all_builders():
    states = ("q0", "q1")
    kinds = all_kinds(states)
    names = {k.name for k in kinds}
    assert len(names) == 15
    for kind in kinds:
        formula = precondition(kind, states)
        assert formula is precondition(kind, states)  # builders share objects
    assert precondition(PreconditionKind("rightmost"), states) == rightmost_formula()
    assert precondition(
        PreconditionKind("head-reading", state="q0", digit=0), states
    ) == head_reading_formula("q0", 0)
    with pytest.raises(ValueError):
        PreconditionKind("head")  # missing state parameter
    with pytest.raises(ValueError):
        PreconditionKind("cell", state="q0")


def _positions(enc, worlds):
    back = {w: j for j, w in enc.cells.items()}
    return {back[w] for w in worlds}


def test_flip_model_satisfaction_sets(flip_machine, flip_encoded):
    spec, _ = flip_machine
    model = flip_encoded.model
    enc = flip_encoded
    states = spec.states

    assert sat_set(model, cell_formula()) == frozenset(enc.cells.values())
    assert sat_set(model, symbol_world_formula()) == frozenset(enc.symbols.values())
    assert _positions(enc, sat_set(model, digit_formula(1))) == {1, 2}
    assert _positions(enc, sat_set(model, digit_formula(0))) == set(range(-9, 10)) - {1, 2}
    assert sat_set(model, head_formula("q0")) == {enc.cells[3]}
    assert sat_set(model, head_formula("q1")) == frozenset()
    assert sat_set(model, left_of_head_formula("q0")) == {enc.cells[2]}
    assert sat_set(model, right_of_head_formula("q0")) == {enc.cells[4]}
    assert sat_set(model, head_reading_formula("q0", 0)) == {enc.cells[3]}
    assert sat_set(model, head_reading_formula("q0", 1)) == frozenset()
    assert sat_set(model, left_of_head_reading_formula("q0", 0)) == {enc.cells[2]}
    assert sat_set(model, right_of_head_reading_formula("q0", 0)) == {enc.cells[4]}
    assert _positions(enc, sat_set(model, far_from_head_formula(states))) == set(
        range(-9, 10)
    ) - {2, 3, 4}
    assert sat_set(model, rightmost_formula()) == {enc.cells[9]}
    assert sat_set(model, leftmost_formula()) == {enc.cells[-9]}
    assert sat_set(model, penultimate_right_formula()) == {enc.cells[8]}
    assert sat_set(model, penultimate_left_formula()) == {enc.cells[-8]}
    assert _positions(enc, sat_set(model, interior_far_formula(states))) == set(
        range(-8, 9)
    ) - {2, 3, 4}


def test_all_kinds_match_bruteforce_on_flip_model(flip_machine, flip_encoded):
    spec, _ = flip_machine
    model = flip_encoded.model
    for kind in all_kinds(spec.states):
        formula = precondition(kind, spec.states)
        assert sat_set(model, formula) == brute_sat_set(model, formula), kind


def test_symbol_copy_skips_the_head_cell(flip_machine):
    spec, _ = flip_machine
    # put a mark under the head so the skip clause matters
    config = FiniteConfiguration((-1, 3), (0, 0, 1, 1, 1), 3, "q0")
    enc = encode(config, spec.states)
    copied = sat_set(enc.model, symbol_copy_formula(spec.states))
    assert copied == {enc.symbols[1], enc.symbols[2]}


def test_designated_family_partitions_cell_worlds(flip_machine, flip_encoded):
    spec, _ = flip_machine
    compiled = compile_program(spec)
    model = flip_encoded.model
    ev = Evaluator(model)
    phi = compiled.designated_formulas()
    cells = set(flip_encoded.cells.values())
    for world in model.worlds:
        hits = [a for a, f in phi.items() if ev.check(world, f)]
        if world in cells:
            assert len(hits) == 1, (world, hits)
        else:
            assert hits == [], (world, hits)


def test_compile_flip_structure(flip_machine):
    spec, _ = flip_machine
    compiled = compile_program(spec)
    program = compiled.program

    assert len(program.designated) == 15  # 3 + 6 * |Q|
    assert program.designated == frozenset(cell_action_ids(spec.states))
    assert compiled.actions_in_family("write") == ("write:q0:0", "write:q0:1")
    assert compiled.actions_in_family("mount") == ("mount:q0:0", "mount:q0:1")
    assert compiled.actions_in_family("copy") == ("copy",)
    assert set(compiled.actions_in_family("grow")) == {
        "grow:L1",
        "grow:L2",
        "grow:R1",
        "grow:R2",
    }

    # writes: only the 1-writing transition links its symbol descendant
    assert ("write:q0:0", "cell:h:q0:0") in program.relation_pairs[SYMBOL]
    assert all(
        "write:q0:1" not in pair for pair in program.relation_pairs[SYMBOL]
    )

    # mounts: the L-move lands on the left-of-head action under the target
    # state's relation, the R-move on the right-of-head action
    assert program.relation_pairs[state_agent("q1")] == (("cell:l:q0:0", "mount:q0:0"),)
    assert program.relation_pairs[state_agent("q0")] == (("cell:r:q0:1", "mount:q0:1"),)

    # mount preconditions are the destination-cell formulas
    assert program.pre["mount:q0:0"] == left_of_head_reading_formula("q0", 0)
    assert program.pre["mount:q0:1"] == right_of_head_reading_formula("q0", 1)
    assert program.pre["write:q0:0"] == head_reading_formula("q0", 0)

    # the end-cell actions stay isolated in their own tape relation
    a_pairs = program.relation_pairs[TAPE_A]
    b_pairs = program.relation_pairs[TAPE_B]
    assert all("cell:L" not in pair for pair in a_pairs if "grow:L1" not in pair)
    assert all("cell:R" not in pair for pair in b_pairs if "grow:R1" not in pair)

    # symbol transfer attaches to every designated action except the head ones
    copy_targets = {x for (x, y) in program.relation_pairs[SYMBOL] if y == "copy"}
    assert copy_targets == {
        a for a in program.designated if not a.startswith("cell:h:")
    }


def test_compile_growth_modes(flip_machine):
    spec, _ = flip_machine
    repaired = compile_program(spec, "repaired")
    assert repaired.program.post == {
        "grow:R1": True,
        "grow:L1": True,
        "grow:R2": False,
        "grow:L2": False,
    }
    assert ("cell:R", "grow:R1") in repaired.program.relation_pairs[TAPE_B]
    assert ("grow:R1", "grow:R2") in repaired.program.relation_pairs[TAPE_A]
    assert ("cell:L", "grow:L1") in repaired.program.relation_pairs[TAPE_A]
    assert ("grow:L1", "grow:L2") in repaired.program.relation_pairs[TAPE_B]

    faithful = compile_program(spec, "faithful")
    assert faithful.program.post == {}
    assert faithful.program.pre["grow:PR"] == penultimate_right_formula()
    assert faithful.program.pre["grow:PL"] == penultimate_left_formula()
    assert ("grow:PR", "grow:R") in faithful.program.relation_pairs[TAPE_A]
    assert ("cell:L", "grow:PL") in faithful.program.relation_pairs[TAPE_A]
    assert ("cell:R", "grow:PR") in faithful.program.relation_pairs[TAPE_B]
    assert ("grow:PL", "grow:L") in faithful.program.relation_pairs[TAPE_B]

    with pytest.raises(ValueError):
        compile_program(spec, "other")


def test_write_and_mount_preconditions_single_out_one_world(flip_machine, flip_encoded):
    spec, _ = flip_machine
    compiled = compile_program(spec)
    model = flip_encoded.model
    enc = flip_encoded
    # the machine reads (q0, 0): only that transition's actions fire
    assert sat_set(model, compiled.program.pre["write:q0:0"]) == {enc.cells[3]}
    assert sat_set(model, compiled.program.pre["write:q0:1"]) == frozenset()
    assert sat_set(model, compiled.program.pre["mount:q0:0"]) == {enc.cells[2]}
    assert sat_set(model, compiled.program.pre["mount:q0:1"]) == frozenset()


def test_compile_is_deterministic(flip_machine):
    spec, _ = flip_machine
    from epimachine.program import export_compiled

    assert export_compiled(compile_program(spec)) == export_compiled(compile_program(spec))


def _count_nodes_and_structures(formulas):
    """Formula objects reachable from ``formulas``, and their distinct
    structures, compared field by field rather than with ``==``."""
    nodes = {}
    stack = list(formulas)
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(v for v in vars(node).values() if isinstance(v, Formula))
    shapes = {}

    def shape(node):
        if id(node) not in shapes:
            fields = (shape(v) if isinstance(v, Formula) else v for v in vars(node).values())
            shapes[id(node)] = (type(node).__name__, *fields)
        return shapes[id(node)]

    return len(nodes), len({shape(node) for node in nodes.values()})


@pytest.mark.parametrize(
    "name, distinct", [("flip", 177), ("bb3", 323), ("bb4", 396), ("march", 104)]
)
def test_compiled_preconditions_hold_one_node_per_formula(name, distinct):
    spec, _ = load(name)
    nodes, structures = _count_nodes_and_structures(compile_program(spec).program.pre.values())
    assert structures == distinct
    assert nodes == distinct


def test_uncached_wrappers_return_interned_nodes():
    assert neg(cell_formula()) is neg(cell_formula())
    assert diamond(TAPE_A, neg(P)) is diamond(TAPE_A, neg(P))
    assert disj(P, cell_formula()) is disj(P, cell_formula())
    assert conj(P, box(TAPE_B, P), P) is conj(P, box(TAPE_B, P), P)
    assert parse_formula("<a>~p") is cell_formula().right


@pytest.mark.parametrize("mode", ["repaired", "faithful"])
@pytest.mark.parametrize("name", ["flip", "increment", "bb2", "bb3", "march", "bb4"])
def test_compiled_round_trip_and_roles_read_from_ids(name, mode):
    spec, _ = load(name)
    compiled = compile_program(spec, mode)
    text = export_compiled(compiled)
    assert export_compiled(import_compiled(text)) == text
    for action in compiled.program.actions:
        assert compiled.roles[action] == ActionRole.of(action)
    tags = {entry["id"]: entry["role"] for entry in json.loads(text)["actions"]}
    assert tags == {a: {"family": r.family, "detail": r.detail} for a, r in compiled.roles.items()}


def test_role_of_splits_the_id_at_its_first_colon():
    assert ActionRole.of("cell:h:q0:1") == ActionRole("cell", "h:q0:1")
    assert ActionRole.of("grow:R1") == ActionRole("grow", "R1")
    assert ActionRole.of("copy") == ActionRole("copy", "")


def test_import_compiled_without_role_tags(flip_machine):
    spec, _ = flip_machine
    compiled = compile_program(spec)
    doc = json.loads(export_compiled(compiled))
    for entry in doc["actions"]:
        del entry["role"]
    back = import_compiled(json.dumps(doc))
    assert back.program == compiled.program
    assert back.roles == compiled.roles


@pytest.mark.parametrize(
    "action, tag",
    [
        ("write:q0:1", {"family": "mount", "detail": "q0:1"}),
        ("cell:h:q0:1", {"family": "cell", "detail": "h:q0:0"}),
        ("copy", {"family": "copy", "detail": "x"}),
        ("grow:R1", {"detail": "R1"}),
    ],
)
def test_import_compiled_refuses_a_role_tag_that_contradicts_its_id(flip_machine, action, tag):
    spec, _ = flip_machine
    doc = json.loads(export_compiled(compile_program(spec)))
    (entry,) = [e for e in doc["actions"] if e["id"] == action]
    entry["role"] = tag
    with pytest.raises(ValueError, match=f"action {action!r} disagrees with its id"):
        import_compiled(json.dumps(doc))


@pytest.mark.parametrize("mode", ["bogus", "", None, "Repaired"])
def test_import_compiled_refuses_an_unknown_growth_mode(flip_machine, mode):
    spec, _ = flip_machine
    doc = json.loads(export_compiled(compile_program(spec)))
    doc["growth_mode"] = mode
    with pytest.raises(ValueError, match=f"growth mode {mode!r} is not one of"):
        import_compiled(json.dumps(doc))


def test_precondition_calls_the_builder_of_its_kind():
    states = ("q0", "q1")
    cases = [
        (PreconditionKind("far"), far_from_head_formula(states)),
        (PreconditionKind("interior"), interior_far_formula(states)),
        (PreconditionKind("digit", digit=1), digit_formula(1)),
        (PreconditionKind("head", state="q1"), head_formula("q1")),
        (PreconditionKind("right-of", state="q0"), right_of_head_formula("q0")),
        (
            PreconditionKind("left-of-reading", state="q1", digit=0),
            left_of_head_reading_formula("q1", 0),
        ),
    ]
    for kind, formula in cases:
        assert precondition(kind, states) is formula
    with pytest.raises(ValueError, match="unknown precondition kind"):
        PreconditionKind("nowhere")


# --- tape classes stated by chains ---

# every machine file, bb4 as the benchmark ships it, and generated machines
# with 10 and 20 working states
MACHINE_FILES = sorted(MACHINE_DIR.glob("*.tm")) + [MACHINE_DIR.parent / "bench" / "bb4.tm"]


def _spec(source):
    if isinstance(source, int):
        return generated_machine(source)[0]
    return parse_machine(source.read_text())[0]


def _source_id(source):
    return f"gen{source}" if isinstance(source, int) else f"{source.parent.name}/{source.stem}"


def _all_pairs_generators(program, agent, isolated):
    """``agent``'s generator pairs with the cell actions' class listed as
    every pair of its members instead of a chain; ``isolated`` is the cell
    action outside that class."""
    cells = sorted(a for a in program.designated if a != isolated)
    others = [pair for pair in program.relation_pairs[agent] if not set(pair) <= set(cells)]
    return list(itertools.combinations(cells, 2)) + others


@pytest.mark.parametrize("mode", GROWTH_MODES)
@pytest.mark.parametrize("source", MACHINE_FILES + [10, 20], ids=_source_id)
def test_chain_generators_close_to_the_all_pairs_relations(source, mode):
    program = compile_program(_spec(source), mode).program
    for agent, isolated in ((TAPE_A, "cell:L"), (TAPE_B, "cell:R")):
        chain = [p for p in program.relation_pairs[agent] if "cell:" in p[0] and "cell:" in p[1]]
        assert len(chain) == len(program.designated) - 2
        expected = closure(_all_pairs_generators(program, agent, isolated), program.actions)
        assert program.relations[agent] == expected
        assert program.relations[agent].class_of("cell:mid") == program.designated - {isolated}
    for agent, relation in program.relations.items():
        assert relation == closure(program.relation_pairs[agent], program.actions)


@pytest.mark.parametrize("mode", GROWTH_MODES)
def test_relations_list_fewer_pairs_than_the_program_has_actions(mode):
    program = compile_program(_spec(20), mode).program
    assert len(program.actions) > 200
    for agent, pairs in program.relation_pairs.items():
        assert len(pairs) < len(program.actions), agent


@pytest.mark.parametrize("mode", GROWTH_MODES)
@pytest.mark.parametrize("source", [MACHINE_DIR / "march.tm", 10], ids=_source_id)
def test_an_all_pairs_export_imports_to_equal_relations(source, mode):
    compiled = compile_program(_spec(source), mode)
    program = compiled.program
    doc = json.loads(export_compiled(compiled))
    for agent, isolated in ((TAPE_A, "cell:L"), (TAPE_B, "cell:R")):
        all_pairs = sorted(_all_pairs_generators(program, agent, isolated))
        doc["relations"][agent.token]["pairs"] = [list(pair) for pair in all_pairs]
    back = import_compiled(json.dumps(doc)).program
    assert len(back.relation_pairs[TAPE_A]) > len(program.actions)
    assert back.relations == program.relations
    assert back.pre == program.pre and back.designated == program.designated


@pytest.mark.parametrize("name", ["flip", "march", "bb4"])
def test_a_spec_is_compiled_once_per_growth_mode(name):
    spec, _ = load(name)
    compiled = {mode: compile_program(spec, mode) for mode in GROWTH_MODES}
    for mode in GROWTH_MODES:
        assert compile_program(spec, mode) is compiled[mode]
        assert compiled[mode].growth_mode == mode
    assert compiled["repaired"] is not compiled["faithful"]
    assert compiled["repaired"].program != compiled["faithful"].program
    assert compile_program(spec) is compiled["repaired"]
    # a fresh parse of the same file is compiled anew, to an equal program
    fresh, _ = load(name)
    for mode in GROWTH_MODES:
        again = compile_program(fresh, mode)
        assert again is not compiled[mode]
        assert export_compiled(again) == export_compiled(compiled[mode])
    # the kept programs are no fields: the spec compares and prints as before
    assert fresh == spec
    assert "_compiled" not in repr(spec)


def test_an_unknown_growth_mode_is_refused_before_anything_is_kept():
    spec, _ = load("flip")
    with pytest.raises(ValueError, match="growth_mode"):
        compile_program(spec, "wild")
    assert "wild" not in vars(spec).get("_compiled", {})
