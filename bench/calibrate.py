"""A fixed pure-Python reference computation that measures host speed.

On a shared host the same code runs up to 1.5 times faster or slower for
stretches of seconds to minutes, and process CPU time drifts with the wall
clock. A run therefore times this kernel between its set-ups and
operations, and reports every time scaled to a host on which the kernel
takes ``REFERENCE_S``, by the kernel samples taken nearest to it.

The kernel shares no code with ``epimachine`` and does the kinds of work a
lock-step run does: a recursive model checker with a memo keyed by formula
identity and world, over worlds whose ids are nested tuples, followed by a
product-style update that sorts worlds, groups them by relation class and
builds frozensets. Garbage collection is off while it runs, so the size of
the heap the program under test leaves behind does not change its time.
"""

from __future__ import annotations

import gc
import statistics
import time

# Kernel time that defines the reference host: about what one pass took on
# the sandbox of the README's figures in its slower stretches. Scaled times
# are seconds on a host of that speed.
REFERENCE_S = 0.025
WORLDS = 400
DEPTH = 6
EXPECTED = 2028  # what kernel() returns; checks that it did its work
REACH = 2  # kernel samples on either side of a time that give its host speed


class Atom:
    __slots__ = ()


class Not:
    __slots__ = ("sub",)

    def __init__(self, sub):
        self.sub = sub


class And:
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left, self.right = left, right


class Box:
    __slots__ = ("agent", "sub")

    def __init__(self, agent, sub):
        self.agent, self.sub = agent, sub


def diamond(agent, sub):
    return Not(Box(agent, Not(sub)))


def nested(i):
    world = i
    for level in range(DEPTH):
        world = (world, level + i % 3)
    return world


class Checker:
    def __init__(self, classes, valuation):
        self.classes = classes  # agent -> world -> its class (a tuple)
        self.valuation = valuation
        self.memo = {}

    def check(self, world, formula):
        key = (id(formula), world)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        if isinstance(formula, Atom):
            value = world in self.valuation
        elif isinstance(formula, Not):
            value = not self.check(world, formula.sub)
        elif isinstance(formula, And):
            value = self.check(world, formula.left) and self.check(world, formula.right)
        else:
            value = all(self.check(other, formula.sub) for other in self.classes[formula.agent][world])
        self.memo[key] = value
        return value


def kernel():
    """One pass; returns the worlds the update created plus the relation
    groups it formed."""
    worlds = [nested(i) for i in range(WORLDS)]
    valuation = frozenset(w for i, w in enumerate(worlds) if i % 3 == 0)
    classes = {}
    for agent, width in ((0, 2), (1, 3), (2, 5)):
        table = {}
        for start in range(0, WORLDS, width):
            cls = tuple(worlds[start:start + width])
            for w in cls:
                table[w] = cls
        classes[agent] = table
    p = Atom()
    cell = And(diamond(0, p), diamond(1, Not(p)))
    pres = [
        And(cell, diamond(2, p)),
        And(cell, Not(diamond(2, p))),
        And(Not(cell), diamond(1, cell)),
        diamond(0, And(p, diamond(2, Not(cell)))),
        And(diamond(1, p), diamond(2, p)),
        Not(And(diamond(0, p), cell)),
    ]
    checker = Checker(classes, valuation)
    parents = sorted(worlds)
    created = [(w, a) for a, pre in enumerate(pres) for w in parents if checker.check(w, pre)]
    groups = {}
    for agent in classes:
        for world in created:
            key = (classes[agent][world[0]][0], world[1] % 2)
            groups.setdefault((agent, key), []).append(world)
    return len(frozenset(created)) + len({k: frozenset(v) for k, v in groups.items()})


def sample():
    """Seconds one kernel pass takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        result = kernel()
        elapsed = time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
    if result != EXPECTED:
        raise RuntimeError(f"calibration kernel returned {result}, expected {EXPECTED}")
    return elapsed


def scaled(times, kernels):
    """Each of ``times`` scaled to a host of reference speed.

    ``kernels`` holds one sample before the first time and one after each,
    so ``times[j]`` lies between ``kernels[j]`` and ``kernels[j + 1]``. The
    median of the REACH samples on either side gives the host's speed.
    """
    return [
        sec * REFERENCE_S / statistics.median(kernels[max(0, j + 1 - REACH):j + 1 + REACH])
        for j, sec in enumerate(times)
    ]
