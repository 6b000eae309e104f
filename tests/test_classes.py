"""The contract of the package's value classes: equality and hashing by
field values, immutability, constructor defaults, repr text and agent order."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from epimachine.codec import Malformed
from epimachine.logic import SYMBOL, TAPE_A, TAPE_B, PointedKripkeModel, make_model, state_agent
from epimachine.machine import HALTED, FiniteConfiguration, Halted, MachineSpec
from epimachine.program import ActionRole, PreconditionKind
from epimachine.runner import ModelStats, RunReport, StepEntry, StepTrace


def _config():
    return FiniteConfiguration((-1, 1), [0, 1, 0], 0, "q0")


def _model():
    return make_model({"w", "v"}, {TAPE_A: [("w", "v")]}, {"w"}, "w")


def _entry():
    return StepEntry(1, _config(), HALTED, ("cell:mid",), ModelStats(5, 4, 3, 1), True, _model())


# name -> (builder of a fresh object, whether the class is hashable); two
# calls of a builder give equal fields but no shared field objects
BUILDERS = {
    "FiniteConfiguration": (_config, True),
    "MachineSpec": (lambda: MachineSpec("m", ["s"], "s", None, {("s", 0): ("s", 1, "R")}), False),
    "Malformed": (lambda: Malformed("no head world"), True),
    "ModelStats": (lambda: ModelStats(5, 4, 3, 1), True),
    "StepEntry": (_entry, False),
    "RunReport": (lambda: RunReport("m", "repaired", 3, None, True, "halted", 0.5), True),
    "ActionRole": (lambda: ActionRole("cell", "h:q0:1"), True),
    "PreconditionKind": (lambda: PreconditionKind("head-reading", state="q0", digit=1), True),
    "PointedKripkeModel": (_model, False),
    "Halted": (Halted, True),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_equal_fields_give_equal_objects(name):
    build, hashable = BUILDERS[name]
    left, right = build(), build()
    assert left is not right
    assert left == right and not left != right
    if hashable:
        assert hash(left) == hash(right)
        assert len({left, right}) == 1
    else:
        with pytest.raises(TypeError):
            hash(left)


@pytest.mark.parametrize("name", BUILDERS)
def test_objects_of_different_classes_are_never_equal(name):
    build, _ = BUILDERS[name]
    obj = build()
    for other_name, (other_build, _) in BUILDERS.items():
        if other_name != name:
            assert obj != other_build()
    assert obj != tuple(vars(obj).values())
    assert obj != object()


@pytest.mark.parametrize("name", BUILDERS)
def test_fields_cannot_be_assigned_or_deleted(name):
    build, _ = BUILDERS[name]
    obj = build()
    for field in [*vars(obj), "extra"]:
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        if field != "extra":
            with pytest.raises(AttributeError):
                delattr(obj, field)
    assert obj == build()


def test_changed_fields_give_unequal_objects():
    assert FiniteConfiguration((-1, 1), (0, 1, 0), 0, "q0") != FiniteConfiguration(
        (-1, 1), (0, 1, 0), 0, "q1"
    )
    assert ModelStats(5, 4, 3, 1) != ModelStats(5, 4, 3, 2)
    assert Malformed("a") != Malformed("b")
    assert ActionRole("cell", "R") != ActionRole("cell", "L")


@pytest.mark.parametrize("name", [n for n, (_, hashable) in BUILDERS.items() if hashable])
def test_copies_and_pickles_are_equal(name):
    obj = BUILDERS[name][0]()
    assert copy.copy(obj) == obj
    assert copy.deepcopy(obj) == obj
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(obj, protocol)) == obj


def test_constructors_normalise_their_fields():
    config = _config()
    assert config.tape == (0, 1, 0) and type(config.window) is tuple
    model = _model()
    assert type(model.worlds) is frozenset and type(model.valuation) is frozenset
    assert type(model.relations) is dict
    spec = BUILDERS["MachineSpec"][0]()
    assert spec.states == ("s",) and type(spec.transitions) is dict


def test_constructor_defaults_and_keywords():
    assert ActionRole("copy").detail == ""
    assert ActionRole(family="copy") == ActionRole("copy", "")
    kind = PreconditionKind("cell")
    assert kind.state is None and kind.digit is None
    assert PreconditionKind(name="digit", digit=0) == PreconditionKind("digit", None, 0)
    trace = StepTrace("m", "repaired", False, 5, [], "halted")
    assert trace.error is None
    assert StepTrace(
        machine="m", mode="repaired", reencode=False, padding=5, entries=[], stop_reason="halted"
    ) == trace
    with pytest.raises(TypeError):
        ModelStats(1, 2, 3)
    with pytest.raises(TypeError):
        ActionRole("cell", "R", "extra")


def test_constructor_checks_still_hold():
    with pytest.raises(ValueError, match="head 5 outside window"):
        FiniteConfiguration((0, 1), (0, 0), 5, "q")
    with pytest.raises(ValueError, match="unknown precondition kind"):
        PreconditionKind("nowhere")
    with pytest.raises(ValueError, match="is not a world"):
        PointedKripkeModel({"w"}, {}, set(), "v")
    with pytest.raises(ValueError, match="start state"):
        MachineSpec("m", ("s",), "t", None, {})


def test_step_trace_stays_mutable_and_unhashable():
    trace = StepTrace("m", "repaired", False, 5, [], "halted")
    trace.stop_reason = "step-cap"
    trace.error = "late"
    assert trace == StepTrace("m", "repaired", False, 5, [], "step-cap", "late")
    with pytest.raises(TypeError):
        hash(trace)


def test_repr_text():
    assert repr(_config()) == (
        "FiniteConfiguration(window=(-1, 1), tape=(0, 1, 0), head=0, state='q0')"
    )
    assert repr(Malformed("no head world")) == "Malformed(reason='no head world')"
    assert repr(ModelStats(5, 4, 3, 1)) == (
        "ModelStats(worlds=5, component_worlds=4, cells=3, detached=1)"
    )
    # the step's model is left out
    assert repr(_entry()) == (
        "StepEntry(index=1, decoded=FiniteConfiguration(window=(-1, 1), tape=(0, 1, 0),"
        " head=0, state='q0'), oracle=HALTED, applicable=('cell:mid',),"
        " stats=ModelStats(worlds=5, component_worlds=4, cells=3, detached=1), match=True)"
    )
    assert repr(RunReport("m", "repaired", 3, None, True, "halted", 0.5)) == (
        "RunReport(machine='m', mode='repaired', steps=3, first_divergence=None,"
        " halt_agreement=True, stop_reason='halted', wall_time=0.5)"
    )
    assert repr(StepTrace("m", "lazy", True, 7, [], "halted")) == (
        "StepTrace(machine='m', mode='lazy', reencode=True, padding=7, entries=[],"
        " stop_reason='halted', error=None)"
    )
    assert repr(HALTED) == "HALTED"


def test_model_stats_fields_are_instance_attributes_in_order():
    stats = ModelStats(5, 4, 3, 1)
    assert list(vars(stats)) == ["worlds", "component_worlds", "cells", "detached"]
    assert tuple(vars(stats).values()) == (5, 4, 3, 1)


def test_agents_sort_by_kind_then_state():
    agents = [state_agent("b"), TAPE_B, state_agent("B"), SYMBOL, state_agent("a"), TAPE_A]
    assert sorted(agents) == sorted(agents, key=lambda agent: (agent.kind, agent.state))
    assert TAPE_A < TAPE_B <= TAPE_B and state_agent("b") > state_agent("a") >= state_agent("a")
    with pytest.raises(TypeError):
        TAPE_A < "a"


def test_importing_the_package_builds_no_dataclasses():
    # -S: no site hooks, so only the package and the stdlib modules it
    # imports are loaded
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys, epimachine; print('dataclasses' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
