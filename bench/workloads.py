"""The benchmark's workloads: which lock-step runs one round holds.

A round is a fixed list of operations; a run repeats whole rounds. One
operation is one lock-step run of one machine from its start configuration
to its halt or its step cap (on ``inspect`` also rendering that run).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from reference import RefMachine

BENCH_DIR = Path(__file__).resolve().parent
CORPUS = ("flip", "increment", "bb2", "bb3")
CORPUS_CAP = 20  # every corpus machine halts within 16 updates

# fleet: machines per working-state count (1..4), and the step cap
FLEET_PER_SIZE = 12
FLEET_CAP = 6
FLEET_INPUT = 4


@dataclass(frozen=True)
class Op:
    machine: int  # index into the workload's machine texts
    ref: RefMachine
    cap: int
    reencode: bool
    render: bool = False

    @property
    def label(self) -> str:
        return f"{self.ref.name}@{self.cap}"


@dataclass(frozen=True)
class Workload:
    name: str
    texts: tuple[str, ...]
    ops: tuple[Op, ...]


def machine_text(root: Path, name: str) -> str:
    path = BENCH_DIR / "bb4.tm" if name == "bb4" else root / "machines" / f"{name}.tm"
    return path.read_text(encoding="utf-8")


def fixed_workload(root, name, runs, reencode, render=False) -> Workload:
    """Workload over named machines; ``runs`` lists (machine, cap)."""
    names = sorted({machine for machine, _ in runs})
    texts = tuple(machine_text(root, n) for n in names)
    refs = {n: RefMachine(t) for n, t in zip(names, texts)}
    ops = tuple(Op(names.index(m), refs[m], cap, reencode, render) for m, cap in runs)
    return Workload(name, texts, ops)


def fleet_text(rng: random.Random, index: int, working: int) -> str:
    """A random machine: ``working`` states plus halt state H, a table with
    one of its 2 * ``working`` entries left undefined, L/H/R moves, and a
    short input."""
    states = "ABCD"[:working]
    pairs = [(q, s) for q in states for s in (0, 1)]
    defined = sorted(rng.sample(pairs, len(pairs) - 1))
    lines = [f"machine fleet{index:03d}", f"states {' '.join(states)} H", "start A", "halt H"]
    for q, s in defined:
        target = rng.choice(states + "H")
        lines.append(f"trans {q} {s} -> {target} {rng.randint(0, 1)} {rng.choice('LHR')}")
    bits = [rng.randint(0, 1) for _ in range(FLEET_INPUT)]
    lines.append("input " + " ".join(map(str, bits)))
    lines.append(f"head {rng.randrange(FLEET_INPUT)}")
    return "\n".join(lines) + "\n"


def tape_bound(config) -> int:
    """Largest |cell| among the head and the 1s, rounded up to even: the
    encoder sizes its tape from this."""
    _, head, ones = config
    bound = max(abs(cell) for cell in (head, *ones))
    return bound + bound % 2


def fleet_workload(seed: int) -> Workload:
    """Equal numbers of machines with 1, 2, 3 and 4 working states.

    A machine is kept only if the reference runs it for the whole step cap
    with its head and 1s inside the cells the input's encoding already
    spans. Every run then does the same number of updates on a tape of the
    same length, so the seed changes which machines run but hardly how much
    work a round holds.
    """
    rng = random.Random(seed)
    texts = []
    while len(texts) < 4 * FLEET_PER_SIZE:
        text = fleet_text(rng, len(texts), 1 + len(texts) % 4)
        configs, _ = RefMachine(text).run(FLEET_CAP)
        bound = tape_bound(configs[0])
        if len(configs) == FLEET_CAP + 1 and all(tape_bound(c) == bound for c in configs):
            texts.append(text)
    texts = tuple(texts)
    ops = tuple(Op(i, RefMachine(t), FLEET_CAP, True) for i, t in enumerate(texts))
    return Workload("fleet", texts, ops)


def make_workload(name: str, seed: int, root: Path) -> Workload:
    if name == "grow":
        runs = [(m, CORPUS_CAP) for m in CORPUS] + [("march", 12), ("march", 20), ("bb4", 18)]
        return fixed_workload(root, name, runs, reencode=False)
    if name == "reencode":
        runs = [(m, CORPUS_CAP) for m in CORPUS] + [("march", 25), ("march", 50), ("bb4", 200)]
        return fixed_workload(root, name, runs, reencode=True)
    if name == "inspect":
        runs = [("march", 6), ("march", 12), ("bb3", CORPUS_CAP)]
        return fixed_workload(root, name, runs, reencode=False, render=True)
    if name == "fleet":
        return fleet_workload(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("grow", "reencode", "fleet", "inspect")
