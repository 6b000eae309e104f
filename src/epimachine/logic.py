"""Modal language over a single atom, finite S5 Kripke models, and a
set-at-a-time model checker.

The language has one propositional atom ``p`` and one box operator per
relation index. Disjunction and the diamond are derived operators, not AST
nodes; nodes are interned, so equal formulas are one object. Relations are
equivalence relations, stored as their classes, in no particular order,
with an index from each element to its class; a build checks the partition
in one pass over that index, and a one-to-one rename maps both without a
rebuild. The checker numbers a model's worlds once and keeps satisfaction
sets as integer bitmasks.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

World = Hashable


def world_sort_key(world):
    """Total order over world identifiers, including nested pair identifiers."""
    if isinstance(world, tuple):
        return (1, tuple(world_sort_key(part) for part in world))
    return (0, str(world))


def sorted_worlds(worlds: Iterable[World]) -> list:
    return sorted(worlds, key=world_sort_key)


def world_label(world) -> str:
    """Readable form of a (possibly pair-structured) world identifier."""
    if isinstance(world, tuple):
        return "(" + ",".join(world_label(part) for part in world) + ")"
    return str(world)


# ---------------------------------------------------------------------------
# relation indices

_RESERVED_KINDS = ("a", "b", "1")


@dataclass(frozen=True, order=True)
class Agent:
    """Relation index: one of the two tape-structure indices ``a``/``b``, the
    symbol index ``1``, or one index per machine state."""

    kind: str
    state: str = ""

    def __post_init__(self):
        if self.kind not in ("a", "b", "1", "q"):
            raise ValueError(f"unknown agent kind {self.kind!r}")
        if self.kind == "q" and not self.state:
            raise ValueError("state agent requires a state name")
        if self.kind != "q" and self.state:
            raise ValueError(f"agent {self.kind!r} does not carry a state name")

    @property
    def token(self) -> str:
        return f"q:{self.state}" if self.kind == "q" else self.kind

    @staticmethod
    def from_token(token: str) -> "Agent":
        if token in _RESERVED_KINDS:
            return Agent(token)
        if token.startswith("q:") and len(token) > 2:
            return Agent("q", token[2:])
        raise ValueError(f"unknown agent token {token!r}")

    def __repr__(self):
        return f"Agent({self.token!r})"


TAPE_A = Agent("a")
TAPE_B = Agent("b")
SYMBOL = Agent("1")


def state_agent(name: str) -> Agent:
    return Agent("q", name)


def agent_universe(states: Iterable[str]) -> frozenset:
    """The full index set for a machine: a, b, 1 plus one index per state."""
    return frozenset({TAPE_A, TAPE_B, SYMBOL} | {state_agent(q) for q in states})


# ---------------------------------------------------------------------------
# formulas


_NODES = weakref.WeakValueDictionary()  # (class, *fields) -> the one node


class Formula:
    """Base class for formula AST nodes, interned on class and fields."""

    __slots__ = ()

    def __new__(cls, *fields):
        return _NODES.setdefault((cls, *fields), object.__new__(cls))

    def __reduce__(self):
        """Copies and unpickled nodes are built through ``__new__``, so interned."""
        return type(self), tuple(vars(self).values())


@dataclass(frozen=True, eq=False)
class Top(Formula):
    pass


@dataclass(frozen=True, eq=False)
class Atom(Formula):
    pass


@dataclass(frozen=True, eq=False)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True, eq=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Box(Formula):
    agent: Agent
    sub: Formula


TOP = Top()
P = Atom()


def neg(formula: Formula) -> Formula:
    return Not(formula)


def conj(first: Formula, *rest: Formula) -> Formula:
    out = first
    for f in rest:
        out = And(out, f)
    return out


def disj(left: Formula, right: Formula) -> Formula:
    """Derived disjunction: ~(~left & ~right)."""
    return Not(And(Not(left), Not(right)))


def disj_all(first: Formula, *rest: Formula) -> Formula:
    out = first
    for f in rest:
        out = disj(out, f)
    return out


def box(agent: Agent, sub: Formula) -> Formula:
    return Box(agent, sub)


def diamond(agent: Agent, sub: Formula) -> Formula:
    """Derived diamond: ~[i]~sub."""
    return Not(Box(agent, Not(sub)))


class FormulaSyntaxError(ValueError):
    """Malformed formula text; ``position`` is the offending char offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_AGENT_NAME_STOP = set(" \t\n]>")


def parse_formula(text: str) -> Formula:
    """Parse ``T | p | ~f | (f & g) | (f | g) | [i]f | <i>f`` with agent
    tokens ``a``, ``b``, ``1``, ``q:<name>``. Sugar desugars on the way in."""
    formula, pos = _parse(text, _skip_ws(text, 0))
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise FormulaSyntaxError("unexpected trailing input", pos)
    return formula


def _skip_ws(text, pos):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse(text, pos):
    pos = _skip_ws(text, pos)
    if pos >= len(text):
        raise FormulaSyntaxError("unexpected end of input", pos)
    ch = text[pos]
    if ch == "T":
        return TOP, pos + 1
    if ch == "p":
        return P, pos + 1
    if ch == "~":
        sub, end = _parse(text, pos + 1)
        return Not(sub), end
    if ch == "[":
        agent, end = _parse_agent(text, pos + 1, "]")
        sub, end = _parse(text, end)
        return Box(agent, sub), end
    if ch == "<":
        agent, end = _parse_agent(text, pos + 1, ">")
        sub, end = _parse(text, end)
        return diamond(agent, sub), end
    if ch == "(":
        left, end = _parse(text, pos + 1)
        end = _skip_ws(text, end)
        if end >= len(text) or text[end] not in "&|":
            raise FormulaSyntaxError("expected '&' or '|'", end)
        op = text[end]
        right, end = _parse(text, end + 1)
        end = _skip_ws(text, end)
        if end >= len(text) or text[end] != ")":
            raise FormulaSyntaxError("expected ')'", end)
        combined = And(left, right) if op == "&" else disj(left, right)
        return combined, end + 1
    raise FormulaSyntaxError(f"unexpected character {ch!r}", pos)


def _parse_agent(text, pos, close):
    start = _skip_ws(text, pos)
    end = start
    while end < len(text) and text[end] not in _AGENT_NAME_STOP:
        end += 1
    token = text[start:end]
    if not token:
        raise FormulaSyntaxError("empty agent token", start)
    end = _skip_ws(text, end)
    if end >= len(text) or text[end] != close:
        raise FormulaSyntaxError(f"expected {close!r}", end)
    try:
        agent = Agent.from_token(token)
    except ValueError as exc:
        raise FormulaSyntaxError(str(exc), start) from None
    return agent, end + 1


def format_formula(formula: Formula) -> str:
    """Render a formula in the parse grammar; ``parse_formula`` inverts this."""
    if isinstance(formula, Top):
        return "T"
    if isinstance(formula, Atom):
        return "p"
    if isinstance(formula, Not):
        sub = formula.sub
        if isinstance(sub, Box) and isinstance(sub.sub, Not):
            return f"<{sub.agent.token}>{format_formula(sub.sub.sub)}"
        if isinstance(sub, And) and isinstance(sub.left, Not) and isinstance(sub.right, Not):
            left = format_formula(sub.left.sub)
            right = format_formula(sub.right.sub)
            return f"({left} | {right})"
        return "~" + format_formula(sub)
    if isinstance(formula, And):
        return f"({format_formula(formula.left)} & {format_formula(formula.right)})"
    if isinstance(formula, Box):
        return f"[{formula.agent.token}]{format_formula(formula.sub)}"
    raise TypeError(f"not a formula: {formula!r}")


# ---------------------------------------------------------------------------
# equivalence relations


class EquivRelation:
    """Equivalence relation on a finite universe: a partition, in build order."""

    __slots__ = ("_universe", "_classes", "_index")

    def __init__(self, universe: Iterable, classes: Iterable[Iterable]):
        self._universe = frozenset(universe)
        parts = tuple(filter(None, map(frozenset, classes)))
        index = {x: i for i, cls in enumerate(parts) for x in cls}
        if len(index) != sum(map(len, parts)):
            raise ValueError("classes are not disjoint")
        if index.keys() != self._universe:
            raise ValueError("classes do not partition the universe")
        self._classes = parts
        self._index = index

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple], universe: Iterable) -> "EquivRelation":
        universe = frozenset(universe)
        parent = {w: w for w in universe}

        def find(x):
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        for x, y in pairs:
            if x not in parent or y not in parent:
                raise ValueError(f"pair member outside universe: ({x!r}, {y!r})")
            parent[find(x)] = find(y)
        groups: dict = {}
        for w in universe:
            groups.setdefault(find(w), []).append(w)
        return cls(universe, groups.values())

    @property
    def universe(self) -> frozenset:
        return self._universe

    def classes(self) -> tuple:
        return self._classes

    @property
    def index(self) -> Mapping:
        """Each element's position in ``classes()``; read it, do not change it."""
        return self._index

    def renamed(self, rename: Mapping, universe: frozenset) -> "EquivRelation":
        """The same partition under ``rename``, a one-to-one map of the
        universe onto ``universe``; a bijection keeps a partition one, so the
        classes and the index are mapped, not checked again."""
        out = object.__new__(EquivRelation)
        out._universe = universe
        get = rename.__getitem__
        out._classes = tuple([frozenset(map(get, cls)) for cls in self._classes])
        out._index = {rename[x]: i for x, i in self._index.items()}
        return out

    def class_of(self, x) -> frozenset:
        try:
            return self._classes[self._index[x]]
        except KeyError:
            raise ValueError(f"element outside universe: {x!r}") from None

    def related(self, x, y) -> bool:
        return self.class_of(x) is self.class_of(y)

    def pairs(self) -> frozenset:
        """Explicit pair set, reflexive pairs included."""
        out = set()
        for cls in self._classes:
            out.update(itertools.product(cls, cls))
        return frozenset(out)

    def restricted(self, keep: Iterable) -> "EquivRelation":
        keep = frozenset(keep)
        classes = [cls & keep for cls in self._classes if cls & keep]
        return EquivRelation(self._universe & keep, classes)

    def __eq__(self, other):
        if not isinstance(other, EquivRelation):
            return NotImplemented
        return self._universe == other._universe and set(self._classes) == set(other._classes)

    def __hash__(self):
        return hash((self._universe, frozenset(self._classes)))

    def __repr__(self):
        return f"EquivRelation({len(self._universe)} elements, {len(self._classes)} classes)"


def closure(pairs: Iterable[tuple], universe: Iterable) -> EquivRelation:
    """Smallest equivalence relation on ``universe`` containing ``pairs``.

    Raises ValueError when a pair member is outside the universe.
    """
    return EquivRelation.from_pairs(pairs, universe)


def equivalence_defect(pairs: Iterable[tuple], universe: Iterable) -> str | None:
    """None when ``pairs`` is an equivalence relation on ``universe``, else a
    description of the first defect found."""
    universe = frozenset(universe)
    pair_set = set(pairs)
    for x, y in pair_set:
        if x not in universe or y not in universe:
            return f"pair member outside universe: ({world_label(x)}, {world_label(y)})"
    for w in universe:
        if (w, w) not in pair_set:
            return f"not reflexive at {world_label(w)}"
    successors: dict = {}
    for x, y in pair_set:
        if (y, x) not in pair_set:
            return f"not symmetric at ({world_label(x)}, {world_label(y)})"
        successors.setdefault(x, set()).add(y)
    for x, ys in successors.items():
        for y in ys:
            for z in successors.get(y, ()):
                if (x, z) not in pair_set:
                    return f"not transitive at ({world_label(x)}, {world_label(z)})"
    return None


def is_equivalence(pairs: Iterable[tuple], universe: Iterable) -> bool:
    return equivalence_defect(pairs, universe) is None


# ---------------------------------------------------------------------------
# pointed Kripke models


@dataclass(frozen=True)
class PointedKripkeModel:
    """Finite Kripke model with equivalence relations and a designated world.

    Immutable after construction; evaluation never mutates the model.
    """

    worlds: frozenset
    relations: Mapping[Agent, EquivRelation]
    valuation: frozenset
    point: World

    def __post_init__(self):
        object.__setattr__(self, "worlds", frozenset(self.worlds))
        object.__setattr__(self, "valuation", frozenset(self.valuation))
        object.__setattr__(self, "relations", dict(self.relations))
        if self.point not in self.worlds:
            raise ValueError(f"point {world_label(self.point)} is not a world")
        if not self.valuation <= self.worlds:
            raise ValueError("valuation contains non-worlds")
        for agent, relation in self.relations.items():
            if relation.universe != self.worlds:
                raise ValueError(f"relation {agent.token} not over the world set")

    @property
    def agents(self) -> frozenset:
        return frozenset(self.relations)

    def relation(self, agent: Agent) -> EquivRelation:
        try:
            return self.relations[agent]
        except KeyError:
            raise ValueError(f"unknown agent index {agent.token}") from None

    def successors(self, agent: Agent, world: World) -> frozenset:
        return self.relation(agent).class_of(world)


def make_model(
    worlds: Iterable,
    relation_pairs: Mapping[Agent, Iterable[tuple]],
    valuation: Iterable,
    point: World,
) -> PointedKripkeModel:
    """Build a model from generator pairs; each relation is closed."""
    worlds = frozenset(worlds)
    relations = {ag: closure(ps, worlds) for ag, ps in relation_pairs.items()}
    return PointedKripkeModel(worlds, relations, frozenset(valuation), point)


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


class Evaluator:
    """Set-at-a-time model checker for one model.

    The worlds are numbered once, and a satisfaction set is an ``int`` whose
    bit k is set iff world k satisfies the formula: ``Not`` and ``And`` cost
    one integer operation each, and ``Box`` clears from its inner set every
    class of the agent with more than one member that the inner set does not
    contain (a world alone in its class satisfies [i]f iff it satisfies f).
    Sets are memoized on the formula node, which interning makes one object
    per distinct formula; ``sat_set`` turns one into a frozenset when asked.
    """

    __slots__ = ("model", "_worlds", "_bit", "_full", "_masks", "_sets", "_blocks", "_component")
    _last: "Evaluator | None" = None

    def __init__(self, model: PointedKripkeModel):
        self.model = model
        self._worlds = tuple(model.worlds)
        self._bit = {w: 1 << k for k, w in enumerate(self._worlds)}
        self._full = (1 << len(self._worlds)) - 1
        self._masks: dict = {}
        self._sets: dict = {}
        self._blocks: dict = {}  # agent -> masks of its classes of two or more worlds
        self._component = None

    @classmethod
    def of(cls, model: PointedKripkeModel) -> "Evaluator":
        """The checker of ``model``, shared while no other model is checked:
        update, decode, applicability and stats check one model in turn."""
        ev = Evaluator._last
        if ev is None or ev.model is not model:
            ev = Evaluator._last = cls(model)
        return ev

    @classmethod
    def release(cls) -> None:
        """Empty the slot, so the last checked model's sets can be freed."""
        Evaluator._last = None

    def check(self, world: World, formula: Formula) -> bool:
        return self._mask(formula) & self._bit.get(world, 0) != 0

    def sat_set(self, formula: Formula) -> frozenset:
        hit = self._sets.get(formula)
        if hit is None:
            mask = self._mask(formula)
            # binary digits lowest bit first, as bytes 0/1 to select worlds by
            bits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES) if mask else b""
            hit = self._sets[formula] = frozenset(itertools.compress(self._worlds, bits))
        return hit

    def component(self) -> frozenset:
        """Worlds reachable from the point under the union of all relations,
        walked once per checker; the walk enters each (relation, class) pair
        at most once."""
        if self._component is None:
            links: dict = {}  # world -> its classes of two or more worlds
            for relation in self.model.relations.values():
                for cls in relation.classes():
                    if len(cls) > 1:
                        for world in cls:
                            if world in links:
                                links[world].append(cls)
                            else:
                                links[world] = [cls]
            seen = {self.model.point}
            frontier = [self.model.point]
            entered = set()
            for world in frontier:
                for cls in links.get(world, ()):
                    if cls not in entered:
                        entered.add(cls)
                        for other in cls:
                            if other not in seen:
                                seen.add(other)
                                frontier.append(other)
            self._component = frozenset(seen)
        return self._component

    def _mask(self, formula: Formula) -> int:
        hit = self._masks.get(formula)
        if hit is not None:
            return hit
        kind = type(formula)
        if kind is And:
            value = self._mask(formula.left) & self._mask(formula.right)
        elif kind is Not:
            value = self._full ^ self._mask(formula.sub)
        elif kind is Box:
            value = inner = self._mask(formula.sub)
            for block in self._blocks_of(formula.agent):
                if inner & block != block:
                    value &= ~block
        elif kind is Atom:
            value = sum(map(self._bit.__getitem__, self.model.valuation))
        elif kind is Top:
            value = self._full
        else:
            raise TypeError(f"not a formula: {formula!r}")
        self._masks[formula] = value
        return value

    def _blocks_of(self, agent: Agent) -> list:
        blocks = self._blocks.get(agent)
        if blocks is None:
            bit = self._bit
            classes = self.model.relation(agent).classes()
            blocks = [sum(map(bit.__getitem__, cls)) for cls in classes if len(cls) > 1]
            self._blocks[agent] = blocks
        return blocks


def eval_formula(model: PointedKripkeModel, world: World, formula: Formula) -> bool:
    """Truth of ``formula`` at ``world``; ValueError on unknown world/agent."""
    if world not in model.worlds:
        raise ValueError(f"unknown world {world_label(world)}")
    return Evaluator.of(model).check(world, formula)


def sat_set(model: PointedKripkeModel, formula: Formula) -> frozenset:
    """All worlds of ``model`` satisfying ``formula``."""
    return Evaluator.of(model).sat_set(formula)


def s5_defect(model: PointedKripkeModel) -> str | None:
    """None when every relation is an equivalence relation on the worlds."""
    for agent in sorted(model.relations, key=lambda a: a.token):
        defect = equivalence_defect(model.relations[agent].pairs(), model.worlds)
        if defect is not None:
            return f"relation {agent.token}: {defect}"
    return None


def restricted_model(model: PointedKripkeModel, keep: Iterable, point: World | None = None) -> PointedKripkeModel:
    """Submodel induced on ``keep``; the point must survive or be re-given."""
    keep = frozenset(keep) & model.worlds
    new_point = model.point if point is None else point
    if new_point not in keep:
        raise ValueError("point not in the retained world set")
    relations = {ag: rel.restricted(keep) for ag, rel in model.relations.items()}
    return PointedKripkeModel(keep, relations, model.valuation & keep, new_point)
