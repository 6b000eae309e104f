"""The refusals no other test reaches: a malformed machine file stops the
CLI with exit status 2 and its message, malformed formula text is refused
where it goes wrong, and the package's constructors and builders refuse
inputs outside their domain with their own messages."""

import json
import re

import pytest

from epimachine.action import build_program, export_program, import_program, product_update
from epimachine.codec import _build_tape_model, encode, validate_encoding
from epimachine.logic import (
    P,
    TAPE_A,
    TAPE_B,
    TOP,
    EquivRelation,
    FormulaSyntaxError,
    PointedKripkeModel,
    make_model,
    neg,
    parse_formula,
    state_agent,
)
from epimachine.machine import FiniteConfiguration, MachineSpec, parse_machine
from epimachine.program import (
    PreconditionKind,
    compile_program,
    digit_formula,
    export_compiled,
    import_compiled,
)
from epimachine.cli import main
from epimachine.runner import export_dot

HEAD = "machine m\nstates q\nstart q\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("machine\nstates q\nstart q\n", "line 1: expected: machine <name>"),
        ("machine m n\nstates q\nstart q\n", "line 1: expected: machine <name>"),
        ("machine m\nstates\nstart q\n", "line 2: expected: states <name>..."),
        ("machine m\nstates q\nstart\n", "line 3: expected: start <state>"),
        ("machine m\nstates q r\nstart q r\n", "line 3: expected: start <state>"),
        (HEAD + "halt\n", "line 4: expected: halt <state>"),
        (HEAD + "halt q q\n", "line 4: expected: halt <state>"),
        (HEAD + "head\n", "line 4: expected: head <integer>"),
        (HEAD + "head 1 2\n", "line 4: expected: head <integer>"),
        (HEAD + "trans q 0 q 1 R\n", "line 4: expected: trans <q> <0|1> -> <q'> <0|1> <L|H|R>"),
        (HEAD + "trans q 0 => q 1 R\n", "line 4: expected: trans <q> <0|1> -> <q'> <0|1> <L|H|R>"),
        (HEAD + "input 0 2\n", "line 4: input symbol must be 0 or 1, got '2'"),
        ("machine m\nstates q[\nstart q[\n", "state name 'q[' contains forbidden characters"),
        (HEAD + "halt z\n", "halt state 'z' not declared"),
        (HEAD + "trans z 0 -> q 1 R\n", "transition from unknown state 'z'"),
    ],
)
def test_a_malformed_machine_file_exits_2_with_its_message(tmp_path, capsys, text, message):
    path = tmp_path / "bad.tm"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("$", "unexpected character '$'", 0),
        ("(p & p", "expected ')'", 6),
        ("[]p", "empty agent token", 1),
    ],
)
def test_malformed_formula_text_is_refused_where_it_goes_wrong(text, message, position):
    with pytest.raises(FormulaSyntaxError, match=re.escape(f"{message} (at position {position})")) as info:
        parse_formula(text)
    assert info.value.position == position


@pytest.mark.parametrize(
    "window, tape, head, message",
    [
        ((1, 0), (), 0, "empty window [1, 0]"),
        ((0, 2), (0, 0), 0, "tape length does not match the window"),
        ((0, 1), (0, 2), 0, "tape symbols must be 0 or 1"),
    ],
)
def test_a_configuration_refuses_a_malformed_window(window, tape, head, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        FiniteConfiguration(window, tape, head, "q")


@pytest.mark.parametrize(
    "transitions, message",
    [
        ({("q", 2): ("q", 0, "R")}, "tape symbols must be 0 or 1"),
        ({("q", 0): ("q", 2, "R")}, "tape symbols must be 0 or 1"),
        ({("q", 0): ("q", 1, "X")}, "unknown move 'X'"),
    ],
)
def test_a_machine_refuses_other_symbols_and_moves(transitions, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        MachineSpec("m", ("q",), "q", None, transitions)


def test_a_program_refuses_a_postcondition_on_an_unknown_action():
    with pytest.raises(ValueError, match="postcondition on unknown action"):
        build_program(("x",), {}, {"x": TOP}, {"y": True}, ("x",))


@pytest.mark.parametrize(
    "post, designated, message",
    [
        ({"y": True, "w": False}, ("x",), "postcondition on unknown action 'w', 'y'"),
        ({"x": 1}, ("x",), "postconditions must assign a constant boolean: action 'x' assigns 1"),
        ({"x": "true"}, ("x",), "action 'x' assigns 'true'"),
        (None, ("x", "halt"), "designated actions must be actions, not 'halt'"),
        (None, ("z", "x", "halt"), "designated actions must be actions, not 'halt', 'z'"),
    ],
)
def test_a_program_refusal_names_the_entry(post, designated, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build_program(("x",), {}, {"x": TOP}, post, designated)


def _updated(names):
    """Two worlds u (p) and v (~p) linked under ``a``, updated by one
    always-applicable action ``go`` with ``names``."""
    model = make_model({"u", "v"}, {TAPE_A: [("u", "v")]}, {"u"}, "u")
    program = build_program(("go",), {TAPE_A: ()}, {"go": TOP}, None, ("go",))
    return product_update(model, program, names)


def test_an_update_refuses_a_names_map_without_a_parent_world():
    with pytest.raises(ValueError, match=re.escape("names gives world v no label")):
        _updated({"u": 0})
    with pytest.raises(ValueError, match=re.escape("names gives world u no label")):
        _updated({"w": 0})


def test_an_update_refuses_a_names_map_that_gives_two_worlds_one_label():
    """Both children would be named (0, 'go'), one world to the model."""
    with pytest.raises(ValueError, match=re.escape("names gives worlds u and v one label 0")):
        _updated({"u": 0, "v": 0})
    assert _updated({"u": 0, "v": 1}).worlds == {(0, "go"), (1, "go")}


def test_formula_builders_refuse_other_digits_and_unmatched_parameters():
    with pytest.raises(ValueError, match="digit must be 0 or 1, got 2"):
        digit_formula(2)
    with pytest.raises(ValueError, match="kind 'digit' and digit parameter do not match"):
        PreconditionKind("digit")


@pytest.mark.parametrize(
    "lo, hi, ones, head, message",
    [
        (1, 3, (), 1, "cell range must contain position 0"),
        (-2, 2, (), 3, "head outside the cell range"),
        (-2, 2, (-3,), 0, "symbol outside the cell range"),
        (-2, 2, (0, 3), 0, "symbol outside the cell range"),
    ],
)
def test_the_tape_builder_refuses_positions_outside_its_cells(lo, hi, ones, head, message):
    with pytest.raises(ValueError, match=message):
        _build_tape_model(lo, hi, ones, head, "q", ("q",))


def test_validation_refuses_a_model_over_other_agents():
    """A well-formed tape whose model has a state relation more than the
    states it is checked against."""
    spec, initial = parse_machine("machine m\nstates q z\nstart q\n")
    model = encode(initial, spec.states).model
    assert validate_encoding(model, spec.states) == (True, "ok")
    assert validate_encoding(model, ("q",)) == (False, "agent universe mismatch")


def test_validation_refuses_a_second_world_in_the_head_block():
    """The head cell's state block holds the head world and one more."""
    spec, initial = parse_machine("machine m\nstates q\nstart q\ninput 1 0\nhead 1\n")
    model = encode(initial, spec.states).model
    agent, extra = state_agent("q"), "h[extra]"
    worlds = model.worlds | {extra}
    blocks = {other: relation.blocks() for other, relation in model.relations.items()}
    blocks[agent] = [block | {extra} for block in blocks[agent]]
    relations = {other: EquivRelation.from_blocks(worlds, bs) for other, bs in blocks.items()}
    model = PointedKripkeModel(worlds, relations, model.valuation, model.point)
    assert validate_encoding(model, spec.states) == (False, "head attachment is not a single world")


def test_a_model_refuses_an_unknown_agent():
    model = make_model({"w"}, {}, (), "w")
    with pytest.raises(ValueError, match="unknown agent index q:z"):
        model.relation(state_agent("z"))


def test_dot_escapes_a_backslash_in_an_edge_label():
    """A state name may hold a backslash; its relation's edge label doubles
    it."""
    spec, initial = parse_machine("machine m\nstates q\\x\nstart q\\x\n")
    assert spec.states == ("q\\x",)
    text = export_dot(encode(initial, spec.states).model)
    edges = [line for line in text.splitlines() if line.endswith('[label="q:q\\\\x"];')]
    assert edges == ['  "c[0]" -- "h[0]" [label="q:q\\\\x"];']


def _program_doc() -> dict:
    """The exported document of a two-action program: ``go`` on p, ``stay``
    on ~p, linked under ``a``."""
    relations = {TAPE_A: (("go", "stay"),), TAPE_B: ()}
    program = build_program(("go", "stay"), relations, {"go": P, "stay": neg(P)}, None, ("go",))
    return json.loads(export_program(program))


def test_an_imported_program_refuses_a_repeated_action_id():
    """The last entry's precondition would win: ``go`` would import on ~p."""
    doc = _program_doc()
    doc["actions"].append({"id": "go", "pre": "~p"})
    with pytest.raises(ValueError, match=re.escape("action id 'go' is listed twice")):
        import_program(json.dumps(doc))


@pytest.mark.parametrize("action", [7, None, ["go"]])
def test_an_imported_program_refuses_an_action_id_that_is_not_a_string(action):
    doc = _program_doc()
    doc["actions"][0]["id"] = action
    doc["designated"] = [action]
    with pytest.raises(ValueError, match=re.escape(f"action id {action!r} is not a string")):
        import_program(json.dumps(doc))


@pytest.mark.parametrize("text", [None, 1, ["p"]])
def test_an_imported_program_refuses_a_precondition_that_is_not_formula_text(text):
    doc = _program_doc()
    if text is None:
        del doc["actions"][1]["pre"]
    else:
        doc["actions"][1]["pre"] = text
    message = f"action 'stay': precondition {text!r} is not formula text"
    with pytest.raises(ValueError, match=re.escape(message)):
        import_program(json.dumps(doc))


@pytest.mark.parametrize("spec", [[["go", "stay"]], "pairs", None])
def test_an_imported_program_refuses_a_relation_that_is_not_an_object(spec):
    doc = _program_doc()
    doc["relations"]["a"] = spec
    with pytest.raises(ValueError, match=re.escape(f"relation a: {spec!r} is not an object")):
        import_program(json.dumps(doc))


@pytest.mark.parametrize("key, kind", [("actions", "list"), ("designated", "list"), ("relations", "dict")])
def test_an_imported_program_refuses_a_document_without_a_part(key, kind):
    doc = _program_doc()
    del doc[key]
    with pytest.raises(ValueError, match=re.escape(f"program document: {key} must be a {kind}, not None")):
        import_program(json.dumps(doc))


def test_an_imported_program_refuses_actions_that_are_not_a_list():
    doc = _program_doc()
    doc["actions"] = {entry["id"]: entry for entry in doc["actions"]}
    message = f"program document: actions must be a list, not {doc['actions']!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        import_program(json.dumps(doc))


@pytest.mark.parametrize("entry", ["go", ["go", "p"], None])
def test_an_imported_program_refuses_an_action_entry_that_is_not_an_object(entry):
    doc = _program_doc()
    doc["actions"][1] = entry
    with pytest.raises(ValueError, match=re.escape(f"action entry {entry!r} is not an object")):
        import_program(json.dumps(doc))


@pytest.mark.parametrize("role", ["cell", ["cell", "mid"]])
def test_an_imported_program_refuses_a_role_that_is_not_an_object(role):
    doc = _program_doc()
    doc["actions"][1]["role"] = role
    with pytest.raises(ValueError, match=re.escape(f"action 'stay': role {role!r} is not an object")):
        import_program(json.dumps(doc))


def test_an_imported_program_refuses_designated_actions_that_are_not_a_list():
    """A string would be read as its characters."""
    doc = _program_doc()
    doc["designated"] = "go"
    with pytest.raises(ValueError, match=re.escape("program document: designated must be a list, not 'go'")):
        import_program(json.dumps(doc))


@pytest.mark.parametrize("pairs", [None, "go stay", {"go": "stay"}])
def test_an_imported_program_refuses_a_relation_without_a_list_of_pairs(pairs):
    doc = _program_doc()
    if pairs is None:
        del doc["relations"]["a"]["pairs"]
    else:
        doc["relations"]["a"]["pairs"] = pairs
    message = f"relation a: {doc['relations']['a']!r} is not an object with a list of pairs"
    with pytest.raises(ValueError, match=re.escape(message)):
        import_program(json.dumps(doc))


@pytest.mark.parametrize("doc", [[], "program", 7, None])
def test_an_imported_program_refuses_a_document_that_is_not_an_object(doc):
    with pytest.raises(ValueError, match=re.escape(f"program document {doc!r} is not an object")):
        import_program(json.dumps(doc))


def test_an_imported_program_refuses_a_relation_pair_member_that_is_not_a_string():
    """A list member would make the pair unhashable."""
    doc = _program_doc()
    doc["relations"]["a"]["pairs"] = [["go", ["b"]]]
    with pytest.raises(ValueError, match=re.escape("relation a: pair ['go', ['b']] is not two action ids")):
        import_program(json.dumps(doc))


def test_an_imported_program_refuses_a_designated_entry_that_is_not_a_string():
    """A list entry would be unhashable."""
    doc = _program_doc()
    doc["designated"] = ["go", ["stay"]]
    with pytest.raises(ValueError, match=re.escape("designated entry ['stay'] is not an action id")):
        import_program(json.dumps(doc))


def test_an_imported_program_refuses_a_designated_id_that_is_no_action_by_name():
    doc = _program_doc()
    doc["designated"] = ["go", "halt"]
    with pytest.raises(ValueError, match=re.escape("designated actions must be actions, not 'halt'")):
        import_program(json.dumps(doc))


@pytest.mark.parametrize("value", [1, "false", None])
def test_an_imported_program_refuses_a_postcondition_that_is_not_a_boolean_by_name(value):
    doc = _program_doc()
    doc["actions"][1]["post"] = value
    message = f"postconditions must assign a constant boolean: action 'stay' assigns {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        import_program(json.dumps(doc))


def _compiled_doc() -> dict:
    spec, _ = parse_machine(HEAD + "trans q 0 -> q 1 R\n")
    return json.loads(export_compiled(compile_program(spec)))


@pytest.mark.parametrize(
    "key, message", [("growth_mode", "growth mode None"), ("machine", "machine name None")]
)
def test_an_imported_compiled_program_refuses_a_document_without_its_mode_or_machine(key, message):
    doc = _compiled_doc()
    del doc[key]
    with pytest.raises(ValueError, match=re.escape(message)):
        import_compiled(json.dumps(doc))


def test_an_imported_compiled_program_refuses_a_machine_name_that_is_not_a_string():
    doc = _compiled_doc()
    doc["machine"] = 7
    with pytest.raises(ValueError, match=re.escape("machine name 7 is not a string")):
        import_compiled(json.dumps(doc))
