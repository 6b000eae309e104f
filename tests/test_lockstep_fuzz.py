"""Lock-step agreement on machines drawn at random: 3-4 working states
with partial tables (an undefined entry halts), stay moves, up to 8 input
cells and the head within 12 cells of cell 0, each run 30 steps in
``repaired`` mode, plain and re-encoded, at padding 3 and 5. Every step
must match the direct simulation, the emulation must halt at the step the
simulation does, and every decoded step model must validate as an
encoding."""

from hypothesis import given, settings
from hypothesis import strategies as st

from epimachine.codec import validate_encoding
from epimachine.machine import HALTED, FiniteConfiguration, parse_machine
from epimachine.runner import emulate

STEPS = 30


@st.composite
def machine_texts(draw) -> str:
    states = "ABCD"[: draw(st.integers(3, 4))]
    # about one entry in ten halts: it is left undefined, or it goes to H
    entries = st.sampled_from((None, "H", *states * 6))
    lines = ["machine fuzz", f"states {' '.join(states)} H", "start A", "halt H"]
    for state in states:
        for symbol in (0, 1):
            target = draw(entries)
            if target is not None:
                written, move = draw(st.integers(0, 1)), draw(st.sampled_from("LHR"))
                lines.append(f"trans {state} {symbol} -> {target} {written} {move}")
    bits = draw(st.lists(st.integers(0, 1), max_size=8))
    if bits:
        lines.append("input " + " ".join(map(str, bits)))
    lines.append(f"head {draw(st.integers(-12, 12))}")
    return "\n".join(lines) + "\n"


@given(machine_texts())
@settings(max_examples=150, deadline=None)
def test_a_random_machine_agrees_in_lock_step_and_validates_at_every_step(text):
    spec, initial = parse_machine(text)
    for reencode in (False, True):
        for padding in (3, 5):
            trace = emulate(spec, initial, STEPS, reencode=reencode, padding=padding)
            assert trace.stop_reason in ("halted", "step-cap"), (reencode, padding, trace.error)
            assert all(entry.match for entry in trace.entries), (reencode, padding)
            oracle_halts = [entry.index for entry in trace.entries if entry.oracle is HALTED]
            decoded_halts = [entry.index for entry in trace.entries if entry.decoded is HALTED]
            assert decoded_halts == oracle_halts[:1], (reencode, padding)
            for entry in trace.entries:
                if isinstance(entry.decoded, FiniteConfiguration):
                    verdict = validate_encoding(entry.model, spec.states)
                    assert verdict == (True, "ok"), (reencode, padding, entry.index, verdict)
