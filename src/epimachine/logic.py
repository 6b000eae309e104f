"""Modal language over a single atom, finite S5 Kripke models, and a
set-at-a-time model checker.

The language has one propositional atom ``p`` and one box operator per
relation index. Disjunction and the diamond are derived operators, not AST
nodes; nodes are interned, so equal formulas are one object. Relations are
equivalence relations stored as their blocks only, the classes of two or
more members, in no particular order, with an index from each block member
to its block built when read; every other member is alone in its class and
costs nothing, so the work on a relation follows the worlds it links, not
its universe. The public constructor checks a full partition in one pass;
partitions the package builds itself skip the check. Relation indices are
interned like formula nodes, so an index hashes by identity. Each model has
one integer core: its worlds numbered 0..n-1 and named when first read,
each relation's blocks as number tuples alone, the valuation as one
mask. A model the encoder or the update builds is its core alone, and its
worlds, relations, valuation and point are named from the core when first
read; a model built from named parts numbers its worlds on first use. A
core whose worlds 0..c-1 are a tape chain says so (``_Core.chain``), which
states its ``a`` and ``b`` relations, and the checker runs a box over
either by shifts. The checker reads the core and keeps satisfaction sets
as integer bitmasks. It evaluates plans: a plan, compiled once for a tuple
of root formulas, has one step per distinct node that is not a negation,
with each chain of negations folded into its operand's parity, and runs as
one flat pass per model; the checker keeps each pass's slot masks and reads
any node of the plan from them, negations included.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from typing import Hashable, Iterable, Mapping

from ._value import Value, _set

World = Hashable


def world_sort_key(world):
    """Total order over world identifiers, including nested pair identifiers."""
    if isinstance(world, tuple):
        return (1, tuple(map(world_sort_key, world)))
    return (0, str(world))


def sorted_worlds(worlds: Iterable[World]) -> list:
    return sorted(worlds, key=world_sort_key)


def world_label(world) -> str:
    """Readable form of a (possibly pair-structured) world identifier."""
    if isinstance(world, tuple):
        return "(" + ",".join(map(world_label, world)) + ")"
    return str(world)


def _plain_parts(names) -> list | None:
    """The text of every name, as one list, when no name is a tuple, or of
    each part, as two lists, when every name is a pair of plain names; None
    for any other names. Sorting by the zipped parts is sorting by
    ``world_sort_key``, and each name's label is its text or ``(x,y)``."""
    tuples = sum(map(isinstance, names, itertools.repeat(tuple)))
    if not tuples:
        return [list(map(str, names))]
    if tuples == len(names) and set(map(len, names)) == {2}:
        parts = list(zip(*names))
        if not any(map(isinstance, itertools.chain(*parts), itertools.repeat(tuple))):
            return [list(map(str, part)) for part in parts]
    return None


def _name_order(core) -> list:
    """The name order ``core`` keeps or makes (``_Core.order``), or else its
    world numbers sorted by their names (``_sorted_order``). Names not yet
    made are made for the sort, and the core keeps neither them nor the
    order."""
    order = core.order
    if order is None:
        order = _sorted_order(core._names if type(core._names) is tuple else core._names())
    return order


def _sorted_order(names: tuple) -> list:
    """The numbers 0..len-1 of ``names`` sorted by the names: by the bulk
    keys of ``_plain_parts`` when it has them, by ``world_sort_key``
    otherwise."""
    parts = _plain_parts(names)
    keys = list(map(world_sort_key, names)) if parts is None else list(zip(*parts))
    return sorted(range(len(names)), key=keys.__getitem__)


# ---------------------------------------------------------------------------
# relation indices

_RESERVED_KINDS = ("a", "b", "1")


_AGENTS = weakref.WeakValueDictionary()  # (kind, state) -> the one agent


@functools.total_ordering
class Agent(Value):
    """Relation index: one of the two tape-structure indices ``a``/``b``, the
    symbol index ``1``, or one index per machine state.

    Interned on (kind, state), so equal agents are one object and compare
    and hash by identity; copies and unpickled agents are the interned one
    too. Agents order by (kind, state).
    """

    __slots__ = ("kind", "state", "__weakref__")
    _fields = ("kind", "state")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, kind: str, state: str = ""):
        agent = _AGENTS.get((kind, state))
        if agent is None:
            if kind not in ("a", "b", "1", "q"):
                raise ValueError(f"unknown agent kind {kind!r}")
            if kind == "q" and not state:
                raise ValueError("state agent requires a state name")
            if kind != "q" and state:
                raise ValueError(f"agent {kind!r} does not carry a state name")
            agent = object.__new__(cls)
            _set(agent, "kind", kind)
            _set(agent, "state", state)
            _AGENTS[kind, state] = agent
        return agent

    def __reduce__(self):
        return Agent, (self.kind, self.state)

    def __lt__(self, other):
        if other.__class__ is Agent:
            return (self.kind, self.state) < (other.kind, other.state)
        return NotImplemented

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


class Formula(Value):
    """Base class for formula AST nodes, interned on class and fields, so
    nodes compare and hash by identity."""

    __slots__ = ("__weakref__",)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @classmethod
    def _intern(cls, *fields):
        """The one node of ``cls`` with these fields; a new node's fields are
        set once, here."""
        key = (cls, *fields)
        node = _NODES.get(key)
        if node is None:
            node = _NODES[key] = object.__new__(cls)
            for name, value in zip(cls._fields, fields):
                _set(node, name, value)
        return node

    def __reduce__(self):
        """Copies and unpickled nodes are built through ``__new__``, so interned."""
        return type(self), self._values()

    @property
    def __dict__(self):
        """The fields by name, so ``vars`` reads a node's slots."""
        return dict(zip(self._fields, self._values()))


class Top(Formula):
    __slots__ = ()

    def __new__(cls):
        return cls._intern()


class Atom(Formula):
    __slots__ = ()

    def __new__(cls):
        return cls._intern()


class Not(Formula):
    __slots__ = _fields = ("sub",)

    def __new__(cls, sub: Formula):
        return cls._intern(sub)


class And(Formula):
    __slots__ = _fields = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        return cls._intern(left, right)


class Box(Formula):
    __slots__ = _fields = ("agent", "sub")

    def __new__(cls, agent: Agent, sub: Formula):
        return cls._intern(agent, sub)


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
    tokens ``a``, ``b``, ``1``, ``q:<name>``. Sugar desugars on the way in.
    The parser keeps its open operators on an explicit stack, so a formula
    may nest to any depth."""
    formula, pos = _parse(text)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise FormulaSyntaxError("unexpected trailing input", pos)
    return formula


def _skip_ws(text, pos):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse(text):
    """The formula at the start of ``text`` and the position after it."""
    # each open operator waiting for an operand: (Not,), (Box, agent),
    # (diamond, agent), ("(",) before its left operand, or (op, left) before
    # its right operand, op being "&" or "|"
    pending: list = []
    pos = 0
    while True:
        pos = _skip_ws(text, pos)
        if pos >= len(text):
            raise FormulaSyntaxError("unexpected end of input", pos)
        ch = text[pos]
        if ch == "T" or ch == "p":
            formula = TOP if ch == "T" else P
            pos += 1
        elif ch == "~":
            pending.append((Not,))
            pos += 1
            continue
        elif ch == "[" or ch == "<":
            agent, pos = _parse_agent(text, pos + 1, "]" if ch == "[" else ">")
            pending.append((Box if ch == "[" else diamond, agent))
            continue
        elif ch == "(":
            pending.append(("(",))
            pos += 1
            continue
        else:
            raise FormulaSyntaxError(f"unexpected character {ch!r}", pos)
        # apply the operators the operand completes, innermost first
        while pending:
            top = pending[-1]
            if top[0] == "(":
                pos = _skip_ws(text, pos)
                if pos >= len(text) or text[pos] not in "&|":
                    raise FormulaSyntaxError("expected '&' or '|'", pos)
                pending[-1] = (text[pos], formula)
                pos += 1
                break
            pending.pop()
            if top[0] == "&" or top[0] == "|":
                pos = _skip_ws(text, pos)
                if pos >= len(text) or text[pos] != ")":
                    raise FormulaSyntaxError("expected ')'", pos)
                formula = (And if top[0] == "&" else disj)(top[1], formula)
                pos += 1
            elif top[0] is Not:
                formula = Not(formula)
            else:
                formula = top[0](top[1], formula)
        else:
            return formula, pos


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
    """Render a formula in the parse grammar; ``parse_formula`` inverts this.
    Pieces wait on an explicit stack, so a formula may nest to any depth;
    text waits as a 1-tuple, so a ``str`` in place of a formula is refused
    like any other non-formula."""
    out = []
    stack = [formula]  # (text,) to write and formulas to render, last first
    while stack:
        item = stack.pop()
        if type(item) is tuple:
            out.append(item[0])
            continue
        if isinstance(item, Top):
            out.append("T")
        elif isinstance(item, Atom):
            out.append("p")
        elif isinstance(item, Not):
            sub = item.sub
            if isinstance(sub, Box) and isinstance(sub.sub, Not):
                stack += sub.sub.sub, (f"<{sub.agent.token}>",)
            elif isinstance(sub, And) and isinstance(sub.left, Not) and isinstance(sub.right, Not):
                stack += (")",), sub.right.sub, (" | ",), sub.left.sub, ("(",)
            else:
                stack += sub, ("~",)
        elif isinstance(item, And):
            stack += (")",), item.right, (" & ",), item.left, ("(",)
        elif isinstance(item, Box):
            stack += item.sub, (f"[{item.agent.token}]",)
        else:
            raise TypeError(f"not a formula: {item!r}")
    return "".join(out)


# ---------------------------------------------------------------------------
# equivalence relations


class EquivRelation:
    """Equivalence relation on a finite universe, stored as its blocks: the
    classes of two or more members, in no particular order, with an index
    from each block member to its block. Any other member of the universe is
    alone in its class, and nothing is stored for it, so a relation that
    links few worlds costs little whatever the size of its universe.

    The constructor checks that ``classes`` partition ``universe``;
    ``from_blocks`` takes the blocks of a partition the package built itself
    and checks nothing. The index is built when first read.
    """

    __slots__ = ("_universe", "_blocks", "_index")

    def __init__(self, universe: Iterable, classes: Iterable[Iterable]):
        universe = frozenset(universe)
        parts = tuple(filter(None, map(frozenset, classes)))
        index = {x: i for i, cls in enumerate(parts) for x in cls}
        if len(index) != sum(map(len, parts)):
            raise ValueError("classes are not disjoint")
        if index.keys() != universe:
            raise ValueError("classes do not partition the universe")
        self._universe = universe
        self._blocks = tuple(cls for cls in parts if len(cls) > 1)
        self._index = None

    @classmethod
    def from_blocks(cls, universe: Iterable, blocks: Iterable[Iterable]) -> "EquivRelation":
        """The relation whose classes of two or more members are ``blocks``.

        Unchecked: the blocks must be disjoint subsets of ``universe`` with
        at least two members each.
        """
        out = object.__new__(cls)
        out._universe = frozenset(universe)
        out._blocks = tuple(map(frozenset, blocks))
        out._index = None
        return out

    @property
    def universe(self) -> frozenset:
        return self._universe

    def blocks(self) -> tuple:
        """The stored classes: those of two or more members."""
        return self._blocks

    def classes(self) -> tuple:
        """The full partition: the blocks, then one singleton class per other
        member of the universe, built on each call."""
        index = self.index
        return self.blocks() + tuple(frozenset((x,)) for x in self._universe if x not in index)

    @property
    def index(self) -> Mapping:
        """Each block member's position in ``blocks()``, built on first read;
        a member of the universe that is not a key is alone in its class.
        Read it, do not change it."""
        if self._index is None:
            self._index = {x: i for i, block in enumerate(self.blocks()) for x in block}
        return self._index

    def class_of(self, x) -> frozenset:
        i = self.index.get(x)
        if i is not None:
            return self.blocks()[i]
        if x in self._universe:
            return frozenset((x,))
        raise ValueError(f"element outside universe: {x!r}")

    def related(self, x, y) -> bool:
        return self.class_of(x) == self.class_of(y)

    def pairs(self) -> frozenset:
        """Explicit pair set, reflexive pairs included."""
        out = {(x, x) for x in self._universe}
        for block in self.blocks():
            out.update(itertools.product(block, block))
        return frozenset(out)

    def restricted(self, keep: Iterable) -> "EquivRelation":
        keep = frozenset(keep)
        parts = [block & keep for block in self.blocks()]
        return EquivRelation.from_blocks(self._universe & keep, [b for b in parts if len(b) > 1])

    def __eq__(self, other):
        if not isinstance(other, EquivRelation):
            return NotImplemented
        return self._universe == other._universe and set(self.blocks()) == set(other.blocks())

    def __hash__(self):
        return hash((self._universe, frozenset(self.blocks())))

    def __repr__(self):
        count = len(self.blocks()) + len(self._universe) - sum(map(len, self.blocks()))
        return f"EquivRelation({len(self._universe)} elements, {count} classes)"


def closure(pairs: Iterable[tuple], universe: Iterable) -> EquivRelation:
    """Smallest equivalence relation on ``universe`` containing ``pairs``.

    Raises ValueError when a pair member is outside the universe.

    Classes are merged as member lists, the smaller into the larger, and a
    pair whose members already share a class costs two lookups, so the
    work is linear in the pairs listed, however redundant they are.
    """
    universe = frozenset(universe)
    members: dict = {}  # pair member -> the member list of its class so far
    for x, y in pairs:
        mx = members.get(x)
        my = members.get(y)
        if mx is not None and mx is my:
            continue
        if x not in universe or y not in universe:
            raise ValueError(f"pair member outside universe: ({x!r}, {y!r})")
        if x == y:
            continue
        if mx is None:
            mx = members[x] = [x]
        if my is None:
            my = members[y] = [y]
        if len(mx) < len(my):
            mx, my = my, mx
        mx.extend(my)
        for w in my:
            members[w] = mx
    blocks = {id(group): group for group in members.values()}
    return EquivRelation.from_blocks(universe, blocks.values())


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


class PointedKripkeModel(Value):
    """Finite Kripke model with equivalence relations and a designated world.

    Immutable after construction; evaluation never mutates the model. A
    model the encoder or the update builds holds only its integer core
    (``_Core``); ``worlds``, ``relations``, ``valuation`` and ``point`` are
    views named from it when first read. A model built from named parts
    holds them, shadowing the views, and gets its core on first use.
    """

    _fields = ("worlds", "relations", "valuation", "point")

    def __init__(
        self,
        worlds: frozenset,
        relations: Mapping[Agent, EquivRelation],
        valuation: frozenset,
        point: World,
    ):
        worlds = frozenset(worlds)
        relations = dict(relations)
        valuation = frozenset(valuation)
        _set(self, "worlds", worlds)
        _set(self, "relations", relations)
        _set(self, "valuation", valuation)
        _set(self, "point", point)
        if point not in worlds:
            raise ValueError(f"point {world_label(point)} is not a world")
        if not valuation <= worlds:
            raise ValueError("valuation contains non-worlds")
        for agent, relation in relations.items():
            if relation.universe is not worlds and relation.universe != worlds:
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

    @functools.cached_property
    def worlds(self) -> frozenset:
        return frozenset(self._core.names)

    @functools.cached_property
    def relations(self) -> dict:
        names, worlds = self._core.names, self.worlds
        return {
            agent: EquivRelation.from_blocks(worlds, (map(names.__getitem__, b) for b in blocks))
            for agent, blocks in self._core.blocks.items()
        }

    @functools.cached_property
    def valuation(self) -> frozenset:
        names = self._core.names
        return frozenset(itertools.compress(names, _bits_of(self._core.valuation, len(names))))

    @functools.cached_property
    def point(self) -> World:
        return self._core.names[self._core.point]

    @classmethod
    def _of_core(cls, core: "_Core") -> "PointedKripkeModel":
        """The model of ``core`` alone; unchecked, as the package built the
        core."""
        model = object.__new__(cls)
        _set(model, "_core", core)
        return model

    def _numbered(self) -> "_Core":
        """The model's core, built from the named parts on first use."""
        core = self.__dict__.get("_core")
        if core is None:
            core = _Core.of_named(self)
            _set(self, "_core", core)
        return core


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _bits_of(mask: int, size: int) -> bytes:
    """The first ``size`` bits of ``mask``, lowest first, one byte 0 or 1 each."""
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES).ljust(size, b"\0")


def _mask_of_bits(bits) -> int:
    """The mask whose bit k is ``bits[k]``, each 0 or 1, in one pass."""
    return int(bits[::-1].translate(_DIGITS), 2)


def _mask_of(indices: Iterable[int], size: int) -> int:
    """The mask of ``indices``, each below ``size``, in one pass."""
    bits = bytearray(size)
    for k in indices:
        bits[k] = 1
    return _mask_of_bits(bits)


def _block_mask(block: tuple) -> int:
    """The mask of a block's distinct world numbers. The members are set
    relative to the lowest one and shifted up once, so only the result is
    a large integer."""
    low = min(block)
    mask = 0
    for k in block:
        mask |= 1 << k - low
    return mask << low


def _alternate(size: int, parity: int) -> int:
    """The mask of the numbers k < ``size`` with k % 2 == ``parity``."""
    even = int.from_bytes(b"\x55" * (size // 8 + 1), "little") & ((1 << size) - 1)
    return even if parity == 0 else even ^ ((1 << size) - 1)


class _Core:
    """A model's worlds numbered 0..size-1: their names in that order, each
    relation's blocks as tuples of world numbers, its only statement, the
    valuation as one mask (bit k for world k) and the point as a number.
    Whoever builds a core gives the names either as a tuple or as a namer,
    a callable that makes the tuple when ``names`` is first read. ``order``,
    when known, lists the world numbers in ``world_sort_key`` order of their
    names; a product of a ranked update holds instead its order source
    (``action._Ordering``), which makes the list when ``order`` is first
    read, and the core then keeps the list alone. ``chain``, when given, is
    (c, parity) for a core whose worlds 0..c-1 are a tape chain: the ``a``
    blocks are exactly the pairs (k, k + 1) with k % 2 == parity and
    k + 1 < c, the ``b`` blocks the other such pairs, as ``_tape_blocks``
    gives them. A core refers to no other model or core."""

    __slots__ = ("size", "_names", "blocks", "valuation", "point", "_order", "chain", "__weakref__")

    def __init__(self, size: int, names, blocks: Mapping, valuation: int, point: int, chain=None):
        self.size = size
        self._names = names
        self.blocks = blocks
        self.valuation = valuation
        self.point = point
        self._order = None
        self.chain = chain

    @property
    def names(self) -> tuple:
        names = self._names
        if type(names) is not tuple:
            names = self._names = names()
        return names

    @property
    def order(self) -> list | None:
        order = self._order
        if order is not None and type(order) is not list:
            order = self._order = order()
        return order

    @order.setter
    def order(self, order: list | None) -> None:
        self._order = order

    @classmethod
    def of_named(cls, model: PointedKripkeModel) -> "_Core":
        """The core of a model built from named parts, its worlds numbered in
        the world set's iteration order."""
        names = tuple(model.worlds)
        position = {w: k for k, w in enumerate(names)}.__getitem__
        blocks = {
            agent: tuple(tuple(map(position, block)) for block in relation.blocks())
            for agent, relation in model.relations.items()
        }
        valuation = _mask_of(map(position, model.valuation), len(names))
        return cls(len(names), names, blocks, valuation, position(model.point))


# the order ranked last and its ranks, which are never changed
_RANKED: tuple = (None, None)


def _ranks(order) -> list:
    """Each number's position in ``order``, a permutation of 0..len-1 given
    as a list or by an order source, which makes it. The last order ranked
    keeps its ranks for its next reader: a step's DOT export and its
    child's namer rank one order."""
    global _RANKED
    if type(order) is not list:
        order = order()
    ranked, ranks = _RANKED
    if ranked is not order:
        ranks = [0] * len(order)
        for r, k in enumerate(order):
            ranks[k] = r
        _RANKED = (order, ranks)
    return ranks


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


# plan step operations; ``_AND_NOT`` is x & ~y, ``_NOR`` is ~x & ~y, and
# ``_BOX_NOT`` is [x]~y
_AND_NOT, _NOR, _BOX_NOT, _BOX, _AND, _ATOM, _TOP = range(7)


class Plan:
    """The evaluation order of a tuple of root formulas, compiled once and
    run by a checker once per model.

    One pass over the roots' DAG gives one step per distinct node that is
    not a negation (an ``And``, ``Box``, ``Atom`` or ``Top``), in dependency
    order. A step is (slot, operation, x, y): the slot is its position, and
    x and y are the slots of its operands (for a box, x is the agent). A
    chain of ``Not``s folds to its parity: ``operands`` maps every node of
    the DAG, negations included, to its (slot, negated) pair, and the step's
    operation absorbs the negation, so a negation costs no step and no mask.
    A plan compares and hashes by identity.
    """

    __slots__ = ("roots", "outputs", "steps", "agents", "operands")

    def __init__(self, roots: Iterable[Formula]):
        self.operands = operands = {}  # node -> (slot, negated)
        steps = []
        agents: dict = {}  # the agents of the boxes, as keys
        self.roots = tuple(roots)
        # depth first with an explicit stack, left operand before right, so
        # a node's step follows its operands' however deep the formula; a
        # node stays on the stack until its operands are done
        stack = list(reversed(self.roots))
        while stack:
            formula = stack[-1]
            if formula in operands:
                stack.pop()
                continue
            kind = type(formula)
            if kind is And:
                left = operands.get(formula.left)
                right = operands.get(formula.right)
                if left is None or right is None:
                    if right is None:
                        stack.append(formula.right)
                    if left is None:
                        stack.append(formula.left)
                    continue
                (x, x_neg), (y, y_neg) = left, right
                if x_neg and y_neg:
                    step = (_NOR, x, y)
                elif x_neg or y_neg:
                    step = (_AND_NOT, y, x) if x_neg else (_AND_NOT, x, y)
                else:
                    step = (_AND, x, y)
            elif kind is Not or kind is Box:
                sub = operands.get(formula.sub)
                if sub is None:
                    stack.append(formula.sub)
                    continue
                y, y_neg = sub
                if kind is Not:
                    operands[formula] = (y, not y_neg)
                    stack.pop()
                    continue
                agents[formula.agent] = None
                step = (_BOX_NOT if y_neg else _BOX, formula.agent, y)
            elif kind is Atom:
                step = (_ATOM, 0, 0)
            elif kind is Top:
                step = (_TOP, 0, 0)
            else:
                raise TypeError(f"not a formula: {formula!r}")
            stack.pop()
            slot = len(steps)
            steps.append((slot, *step))
            operands[formula] = (slot, False)

        self.outputs = tuple(map(operands.__getitem__, self.roots))
        self.steps = tuple(steps)
        self.agents = tuple(agents)


@functools.lru_cache(maxsize=1024)
def plan_of(roots: tuple) -> Plan:
    """The plan of ``roots``, one object for every caller that asks for
    these roots while the bounded cache holds it."""
    return Plan(roots)


class Evaluator:
    """Set-at-a-time model checker for one model.

    It reads the model's integer core, so a satisfaction set is an ``int``
    whose bit k is set iff world k satisfies the formula. The checker runs
    ``Plan``s: one flat pass over a plan's steps, each filling its slot with
    a mask. ``And`` costs one integer operation, a negation folded into an
    operand none, and ``Box`` removes from its inner set every class of the
    agent with more than one member that the inner set does not contain (a
    world alone in its class satisfies [i]f iff it satisfies f), reading
    each class as a mask that the checker makes in one pass at its first
    run (``_block_masks``); on a core with a tape ``chain``, a box over
    ``a`` or ``b`` clears its pairs by two shifts and one parity mask
    (``_tape_lefts``). The checker keeps each run, a plan with its slot
    masks, and that is its memo: ``check``, ``mask``, ``sat_set`` and
    ``run`` read a formula through a kept plan's ``operands``, negations
    included, and a plan runs only when one of its roots is in no kept
    run; a formula in none runs its one-root plan. The named methods
    (``members``, ``sat_set``, ``check``) go through the core's name list.
    The checker is the one finder of the point's component (``component``),
    which decode, validation and the runner's stats read: on a core whose
    tape chain holds the point it is taken from the chain, and any other
    core is walked.
    """

    __slots__ = (
        "model", "_core", "_full", "_tape", "_runs", "_classes", "_owners", "_position", "_component"
    )
    _last: "Evaluator | None" = None

    def __init__(self, model: PointedKripkeModel):
        self.model = model
        self._core = model._numbered()
        self._full = (1 << self._core.size) - 1
        self._tape = _tape_lefts(self._core.chain)
        self._runs: list = []  # (plan, its slot masks), in run order
        self._classes = None  # agent -> each block's mask, built at the first run
        self._owners: dict = {}  # agent -> each world's block position, or None
        self._position = None  # world name -> number, built on first use
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

    def _positions(self) -> dict:
        if self._position is None:
            self._position = {w: k for k, w in enumerate(self._core.names)}
        return self._position

    def check(self, world: World, formula: Formula) -> bool:
        mask = self.mask(formula)
        k = self._positions().get(world)
        return k is not None and mask >> k & 1 == 1

    def _kept(self, formula: Formula) -> int | None:
        """The mask of ``formula`` in the first kept run whose plan holds
        it; None if none does."""
        for plan, masks in self._runs:
            hit = plan.operands.get(formula)
            if hit is not None:
                return masks[hit[0]] ^ self._full if hit[1] else masks[hit[0]]

    def mask(self, formula: Formula) -> int:
        """The satisfaction set of ``formula`` as a bitmask."""
        hit = self._kept(formula)
        if hit is None:
            (hit,) = self._run(plan_of((formula,)))
        return hit

    def members(self, mask: int) -> Iterable[World]:
        """The worlds of ``mask``, in the checker's world order."""
        return itertools.compress(self._core.names, _bits_of(mask, 0))

    def sat_set(self, formula: Formula) -> frozenset:
        return frozenset(self.members(self.mask(formula)))

    def run(self, plan: Plan) -> list:
        """The masks of ``plan``'s roots, in root order; ``plan`` runs only
        when one of them is in no kept run."""
        for kept, masks in self._runs:
            if kept is plan:
                full = self._full
                return [masks[slot] ^ full if negated else masks[slot] for slot, negated in plan.outputs]
        if self._runs:
            roots = list(map(self._kept, plan.roots))
            if None not in roots:
                return roots
        return self._run(plan)

    def _run(self, plan: Plan) -> list:
        full = self._full
        classes = self._block_masks()
        for agent in plan.agents:
            if agent not in self._core.blocks:
                raise ValueError(f"unknown agent index {agent.token}")
        tape = self._tape
        masks = [None] * len(plan.steps)
        for slot, op, x, y in plan.steps:
            if op == _AND_NOT:
                masks[slot] = masks[x] & ~masks[y]
            elif op == _NOR:
                masks[slot] = full ^ (masks[x] | masks[y])
            elif op == _BOX_NOT or op == _BOX:
                # clear each class that meets the worlds failing the inner formula
                out = masks[y] if op == _BOX_NOT else full ^ masks[y]
                value = full ^ out
                if out:
                    if x in tape:  # the pairs (k, k + 1) with k in tape[x]
                        bad = (out | out >> 1) & tape[x]
                        value &= ~(bad | bad << 1)
                    else:
                        for block in classes[x]:
                            if out & block:
                                value &= ~block
                masks[slot] = value
            elif op == _AND:
                masks[slot] = masks[x] & masks[y]
            elif op == _ATOM:
                masks[slot] = self._core.valuation
            else:
                masks[slot] = full
        self._runs.append((plan, masks))
        return self.run(plan)

    def _block_masks(self) -> dict:
        """Per relation that the core's ``chain`` does not state, the mask of
        each of its blocks, in block order; made once per checker."""
        if self._classes is None:
            self._classes = {
                agent: [1 << b[0] | 1 << b[1] if len(b) == 2 else _block_mask(b) for b in blocks]
                for agent, blocks in self._core.blocks.items() if agent not in self._tape
            }
        return self._classes

    def _attached(self, worlds: int) -> int:
        """``worlds`` and every block of ``_block_masks`` that meets them: on
        a chain core, the symbol and state blocks of the cells."""
        reach = worlds
        for mask in itertools.chain.from_iterable(self._block_masks().values()):
            if mask & worlds:
                reach |= mask
        return reach

    def _owner(self, agent: Agent) -> list:
        """Each world's position among ``agent``'s blocks, None for a world
        alone in its class; built once per checker."""
        owner = self._owners.get(agent)
        if owner is None:
            owner = self._owners[agent] = [None] * self._core.size
            for i, block in enumerate(self._core.blocks[agent]):
                for k in block:
                    owner[k] = i
        return owner

    def component(self) -> int:
        """The mask of the worlds reachable from the point under the union of
        all relations, found once per checker. On a core whose ``chain``
        holds the point it is the chain and the blocks that meet it, when
        those blocks meet no other world: the chain's ``a`` and ``b`` blocks
        are its pairs, so the chain is connected and no world off it is in
        one. Any other core is walked (``_walk``)."""
        if self._component is None:
            chain = self._core.chain
            if chain is not None and self._core.point < chain[0]:
                reach = self._attached((1 << chain[0]) - 1)
                if reach == self._full or self._attached(reach) == reach:
                    self._component = reach
                    return reach
            self._component = self._walk()
        return self._component

    def _walk(self) -> int:
        """The point's component walked on world numbers; the walk enters
        each class of two or more worlds at most once."""
        core = self._core
        # per relation with a block: its owner list, and its blocks with
        # each entered one replaced by an empty tuple
        relations = [(self._owner(agent), list(blocks)) for agent, blocks in core.blocks.items() if blocks]
        seen = bytearray(core.size)
        seen[core.point] = 1
        frontier = [core.point]
        for world in frontier:
            for owner, blocks in relations:
                i = owner[world]
                if i is not None:
                    for other in blocks[i]:
                        if not seen[other]:
                            seen[other] = 1
                            frontier.append(other)
                    blocks[i] = ()
        return _mask_of_bits(seen)


# The cell pairs (k, k + 1) of every chain core, shared by the encoder and
# the update; a longer chain than any before replaces the table by a longer
# one, and a table once made is never changed.
_PAIRS: list = []


def _tape_blocks(cells: int, parity: int) -> dict:
    """The ``a`` and ``b`` blocks of the chain (``cells``, ``parity``),
    sliced from the pair table."""
    global _PAIRS
    pairs = _PAIRS
    if len(pairs) < cells - 1:
        k = len(pairs)
        pairs = _PAIRS = pairs + list(zip(range(k, cells - 1), range(k + 1, cells)))
    return {TAPE_A: tuple(pairs[parity : cells - 1 : 2]), TAPE_B: tuple(pairs[1 - parity : cells - 1 : 2])}


@functools.lru_cache(maxsize=64)
def _tape_lefts(chain) -> dict:
    """Per tape agent of a core's ``chain``, the mask of the left members of
    its pairs; empty for a core without one. The checkers of the cores with
    one chain share the dict, and only read it."""
    if chain is None:
        return {}
    c, parity = chain
    a = _alternate(c - 1, parity)
    return {TAPE_A: a, TAPE_B: a ^ ((1 << c - 1) - 1)}


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
