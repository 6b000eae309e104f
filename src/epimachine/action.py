"""Multi-pointed action models with precondition formulas, determinism
checking, and product update.

Actions may carry an optional constant postcondition on the single atom;
without one, the atom value of a product world is copied from its parent
world. Designated actions are the only candidates for the new point, and at
most one of them may apply at the source point.

The update numbers a product's worlds in one of two ways. When the parent's
core is a tape chain (``_Core.chain``) and the children continue it, which
the update checks in bulk on the precondition masks, the chain's children
come first, in tape order, so the product is a chain too, which states its
``a`` and ``b`` relations. Otherwise, as in faithful mode, for a malformed
model or for a program that breaks the chain, the children are numbered
parent by parent.

The update also owns the ranks that name a plain run's products: asked to
rank, it labels each parent by its position in the parent's name order,
and the child's core gets an order source (``_Ordering``), which makes the
child's name order when it is first read, from the parent's order and the
child's lineage, reading the ranks' ``str`` order from one table that it
fits to each parent's size (``_rank_text``).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
from array import array
from typing import Iterable, Mapping

from ._value import Value, _set
from .logic import (
    TAPE_A,
    TAPE_B,
    TOP,
    Agent,
    EquivRelation,
    Evaluator,
    Formula,
    Plan,
    PointedKripkeModel,
    _bits_of,
    _Core,
    _mask_of_bits,
    _ranks,
    _sorted_order,
    _tape_blocks,
    closure,
    format_formula,
    parse_formula,
    plan_of,
    world_label,
    world_sort_key,
)


class DeterminismViolation(Exception):
    """More than one designated action applies at the source point."""

    def __init__(self, point, actions):
        self.point = point
        self.actions = tuple(actions)
        super().__init__(
            f"designated actions {list(self.actions)} all apply at {world_label(point)}"
        )


class EpistemicProgram(Value):
    """Finite action model: actions, per-index equivalence relations,
    preconditions, optional atom postconditions, designated actions.

    ``relation_pairs`` keeps the generator pairs the relation closures were
    built from, so exports do not have to expand closures. ``plan``, the
    preconditions' evaluation plan, is compiled on first use and kept on the
    program, outside its fields.
    """

    _fields = ("actions", "relations", "relation_pairs", "pre", "post", "designated")

    def __init__(
        self,
        actions: tuple[str, ...],
        relations: Mapping[Agent, EquivRelation],
        relation_pairs: Mapping[Agent, tuple[tuple[str, str], ...]],
        pre: Mapping[str, Formula],
        post: Mapping[str, bool],
        designated: frozenset[str],
    ):
        _set(self, "actions", actions)
        _set(self, "relations", dict(relations))
        _set(self, "relation_pairs", dict(relation_pairs))
        _set(self, "pre", dict(pre))
        _set(self, "post", dict(post))
        _set(self, "designated", frozenset(designated))

    @property
    def agents(self) -> frozenset:
        return frozenset(self.relations)

    @property
    def plan(self) -> Plan:
        """The plan whose roots are the distinct preconditions, in action
        order; programs with the same preconditions share it."""
        return self._layout()[0]

    def _layout(self) -> tuple:
        """``plan``, each root's actions, each designated action in id order
        with its root's position, per agent its class table, which is the
        relation's own ``index`` (each block member with its block's
        position; an action in no block is a class of its own, so the tables
        grow with the blocks, not with agents times actions), the program's
        branching shapes (``_shape``), made as the update meets them, by a
        parent's actions, and its ``_Tape`` (None without ``a`` and ``b``)."""
        layout = self.__dict__.get("_plan_layout")
        if layout is None:
            by_root: dict = {}  # precondition -> its actions, in action order
            for action in self.actions:
                by_root.setdefault(self.pre[action], []).append(action)
            position = {root: i for i, root in enumerate(by_root)}
            designated = tuple((a, position[self.pre[a]]) for a in sorted(self.designated))
            roots = tuple(map(tuple, by_root.values()))
            classes = {agent: relation.index for agent, relation in self.relations.items()}
            tape = _Tape(roots, classes) if {TAPE_A, TAPE_B} <= classes.keys() else None
            layout = (plan_of(tuple(by_root)), roots, designated, classes, {}, tape)
            _set(self, "_plan_layout", layout)
        return layout


class _Tape:
    """What the update of a core with a tape ``chain`` reads of a program:
    the ``a`` and ``b`` class tables; its tape actions, those in a block of
    either, each placed first (``places``); per root, once the update
    meets it (``root``), the number of its tape actions, whether it has any
    other, and its first tape action's ``a`` and ``b`` classes; and the end
    paths (``_end_path``), made as the update meets them."""

    __slots__ = ("tables", "places", "actions", "roots", "paths")

    def __init__(self, roots: tuple, classes: dict):
        self.tables = a, b = classes[TAPE_A], classes[TAPE_B]
        self.places = dict.fromkeys(a.keys() | b.keys(), 0)
        self.actions = roots
        self.roots: list = [None] * len(roots)
        self.paths: dict = {}

    def root(self, i: int) -> tuple:
        """Root i's entry of ``roots``, made and kept."""
        actions = self.actions[i]
        tape = [action for action in actions if action in self.places]
        keys = tuple(table.get(tape[0], tape[0]) for table in self.tables) if tape else None
        self.roots[i] = len(tape), len(tape) < len(actions), keys
        return self.roots[i]


def build_program(
    actions: Iterable[str],
    relation_pairs: Mapping[Agent, Iterable[tuple[str, str]]],
    pre: Mapping[str, Formula],
    post: Mapping[str, bool] | None,
    designated: Iterable[str],
) -> EpistemicProgram:
    """Validate and close a program description into an EpistemicProgram."""
    actions = tuple(sorted(set(actions)))
    action_set = frozenset(actions)
    designated = frozenset(designated)
    post = dict(post or {})
    if not designated:
        raise ValueError("designated action set must be non-empty")
    if not designated <= action_set:
        raise ValueError(f"designated actions must be actions, not {_listed(designated - action_set)}")
    if set(pre) != set(action_set):
        missing = action_set - set(pre)
        extra = set(pre) - action_set
        raise ValueError(f"precondition map mismatch (missing={missing}, extra={extra})")
    if not set(post) <= action_set:
        raise ValueError(f"postcondition on unknown action {_listed(set(post) - action_set)}")
    for action, value in post.items():
        if not isinstance(value, bool):
            raise ValueError(
                f"postconditions must assign a constant boolean: action {action!r} assigns {value!r}"
            )
    canon_pairs = {}
    relations = {}
    for agent, pairs in relation_pairs.items():
        pair_tuple = tuple(sorted(set(tuple(p) for p in pairs)))
        canon_pairs[agent] = pair_tuple
        relations[agent] = closure(pair_tuple, action_set)
    return EpistemicProgram(actions, relations, canon_pairs, dict(pre), post, designated)


def _listed(ids) -> str:
    """The ``repr`` of each of ``ids``, in ``repr`` order, comma separated."""
    return ", ".join(sorted(map(repr, ids)))


def identity_program(agents: Iterable[Agent]) -> EpistemicProgram:
    """Single always-applicable designated action with identity relations."""
    return build_program(
        ("id",), {agent: () for agent in agents}, {"id": TOP}, None, ("id",)
    )


def _designated(masks: list, point: int, designated: tuple) -> list[str]:
    """The designated actions whose root mask holds world ``point``."""
    return [action for action, i in designated if masks[i] >> point & 1]


def applicable_designated(
    model: PointedKripkeModel, program: EpistemicProgram
) -> list[str]:
    """Designated actions whose precondition holds at the point, in action-id
    order. Length 1 means the update is defined and deterministic here."""
    plan, _, designated = program._layout()[:3]
    ev = Evaluator.of(model)
    return _designated(ev.run(plan), ev._core.point, designated)


# asks ``product_update`` to rank the parent by its own name order
_RANK = object()


def product_update(
    model: PointedKripkeModel, program: EpistemicProgram, names: Mapping | None = None
) -> PointedKripkeModel | None:
    """Product update of a pointed model with a program.

    Returns None when no designated action applies at the point (the update
    is undefined) and raises DeterminismViolation when several do. The child
    of world w by action a is (w, a), so lineage stays inspectable, or
    (names[w], a) when ``names``, a one-to-one map of the worlds, is given;
    a map that gives a world no label, or two worlds one label, is refused
    with a ValueError that names the world. ``names`` may also be the
    parent's name order, a list of its world numbers in ``world_sort_key``
    order of their names, or ``_RANK``, which asks for the parent's own
    (``_Core.order``); a first product after an encoding, which has none
    yet, gets an order source that sorts its names. Then w is labelled by
    its position k in that order, the child is (k, a), and the child's core
    gets an order source (``_Ordering``), which makes the child's name
    order when it is first read, from the parent's order and the child's
    lineage, without a sort of names. The child is its core alone, built
    from the parent's: each relation is built in one pass over the parent's
    blocks, each child block as a tuple, then a branching parent alone in
    its class adds the groups of the program's shape of its actions. Every
    child gets its number from the child-slot map, by its place parent by
    parent. The child's worlds are named when first read; an encoding
    parent and a ranked parent are left unnamed till then, any other parent
    is named now.

    A parent with a tape ``chain`` whose children continue it, as
    ``_chain_slots`` checks in bulk (every interior tape child in one ``a``
    class and one ``b`` class), gets a chain child: its slot map
    numbers the chain's children first, in tape order, and every other
    child after them, parent by parent. The chain states its ``a`` and
    ``b`` relations, so only the other relations are built. Any other
    parent's slot map is the identity, and the child has no chain.
    """
    ev = Evaluator.of(model)
    core = ev._core
    if core.blocks.keys() != program.relations.keys():
        raise ValueError("model and program use different agent universes")
    plan, root_actions, designated, action_classes, shapes, tape = program._layout()
    masks = ev.run(plan)
    chosen = _designated(masks, core.point, designated)
    if not chosen:
        return None
    if len(chosen) > 1:
        raise DeterminismViolation(core.names[core.point], chosen)

    # parent p's children are first[p].., one per action in kids[p]
    n = core.size
    kids = [()] * n
    for mask, actions in zip(masks, root_actions):
        if mask:
            low = (mask & -mask).bit_length() - 1
            if mask == 1 << low:
                kids[low] += actions
                continue
            for parent in itertools.compress(itertools.count(low), _bits_of(mask >> low, 0)):
                kids[parent] += actions
    counts = list(map(len, kids))
    first = list(itertools.accumulate(counts, initial=0))
    branching = list(itertools.compress(range(n), map((1).__lt__, counts)))
    action_of = list(itertools.chain.from_iterable(kids))
    ranked = names is _RANK or type(names) is list
    if names is _RANK:
        names = core._order
        if names is None:  # a first product after an encoding sorts its names
            names = core._order = _Ordering(core._names)
        elif type(names) is _Ordering and type(names.state) is list:
            names = names.state
    if ranked:
        # the namer holds the parent's order, or its source, not its core
        label = functools.partial(_ranks, names)
    elif names is not None:
        label = _labels(names, core.names)
    elif type(core._names) is tuple or core._names.func is _product_names:
        label = core.names  # a product is named now, so no chain of namers builds up
    else:  # an encoding's namer, which holds a few numbers
        label = core._names
    point = first[core.point] + kids[core.point].index(chosen[0])

    # the child-slot map: each child's number, by its place parent by parent
    chain, slot = None, list(range(first[-1]))
    parent_of, off_chain = [], 0  # the parents of the chain's children, and the first parent after
    tape_blocks = {}
    if core.chain is not None and tape is not None:
        numbered = _chain_slots(core.chain, masks, kids, first, action_of, branching, tape, slot)
        if numbered is not None:
            chain, parent_of, chain_actions = numbered
            off_chain = core.chain[0]
            tape_blocks = _tape_blocks(*chain)
            action_of = chain_actions + action_of[first[off_chain] :]
            point = slot[point]
    # the parents numbered parent by parent: one sort merges two runs, the
    # parents with a child, then the extra children's parents
    extra = [p for p in branching if p >= off_chain for _ in kids[p][1:]]
    parent_of += sorted([*itertools.compress(range(off_chain, n), counts[off_chain:]), *extra])

    # (w,a) ~i (v,b) iff w ~i v and a ~i b, so two product worlds share a
    # class of two or more only if their parents share a block, or they are
    # children of one parent by two actions of one program class. A pair
    # block of parents with at most one child each gives the child pair when
    # both children's actions share a class; any other block with a
    # branching parent is grouped by program class. A branching parent alone
    # in its class takes its groups from the program's shape of its actions.
    blocks, placed = {}, {}
    for agent, parent_blocks in core.blocks.items():
        if agent in tape_blocks:
            blocks[agent] = tape_blocks[agent]
            continue
        class_of = action_classes[agent]
        get = class_of.get
        out = blocks[agent] = []
        grouped = placed[agent] = set()
        for block in parent_blocks:
            if len(block) == 2:
                p, q = block
                if counts[p] < 2 and counts[q] < 2:
                    if counts[p] and counts[q]:
                        (a,), (b,) = kids[p], kids[q]
                        if get(a, a) == get(b, b):
                            out.append((slot[first[p]], slot[first[q]]))
                    continue
            grouped.update(block)
            out += _group(block, kids, first, slot, class_of)
    for parent in branching:
        shape = shapes.get(kids[parent])
        if shape is None:
            shape = shapes[kids[parent]] = _shape(kids[parent], action_classes)
        c = first[parent]
        for agent, groups in shape:
            if agent not in tape_blocks and parent not in placed[agent]:
                for offsets in groups:
                    blocks[agent].append(tuple(slot[c + k] for k in offsets))
    blocks = {agent: tuple(out) for agent, out in blocks.items()}

    inherited = map(_bits_of(core.valuation, n).__getitem__, parent_of)
    values = bytes(map(program.post.get, action_of, inherited))
    # a kept step holds its namer, so the parents' numbers take 4 bytes each
    parent_of = array("I", parent_of)
    namer = functools.partial(_product_names, label, parent_of, action_of)
    child = _Core(len(parent_of), namer, blocks, _mask_of_bits(values), point, chain)
    if ranked:
        child.order = _Ordering(names, parent_of, action_of)
    return PointedKripkeModel._of_core(child)


def _chain_slots(
    chain: tuple,
    masks: list,
    kids: list,
    first: list,
    action_of: list,
    branching: list,
    tape: _Tape,
    slot: list,
):
    """The child chain of a parent with a tape ``chain`` (c, parity), given
    the root ``masks`` and the children numbered parent by parent (parent
    p's actions ``kids[p]``, its first child ``first[p]``, each child's
    action ``action_of``): the child's chain, and the parents and actions
    of the children of the chain's cells, in their new order; the identity
    child-slot map ``slot`` (each child's number, by its place parent by
    parent) is renumbered in place. None, with ``slot`` untouched, if the
    children do not continue the chain.

    They continue it when, checked in bulk on the root masks: each interior
    cell 1..c-2 has exactly one child by a tape action, no tape action
    applies off the chain, no other action applies at two neighbouring
    cells, the interior cells' tape children all have one ``a`` class and
    one ``b`` class, and each end's tape children form the path
    ``_end_path`` gives from that pair's class under the agent that links
    the end to its neighbour. The product relations ``a`` and ``b`` then
    pair exactly the neighbours of the child chain: the left end's path
    outward-in, the interior cells' tape children, the right end's path.
    Any other children are numbered parent by parent, which is always
    right.
    """
    c, parity = chain
    if c < 3:
        return None
    cells = (1 << c) - 1
    interior = cells ^ 1 ^ 1 << c - 1
    covered = 0
    pair = None  # the a and b classes every interior tape child shares
    roots = tape.roots
    for i in itertools.compress(itertools.count(), masks):
        mask = masks[i]
        count, others, keys = roots[i] or tape.root(i)
        if count:
            if mask > cells:
                return None
            inner = mask & interior
            if inner:
                if count > 1 or inner & covered or pair is not None and keys != pair:
                    return None
                covered |= inner
                pair = keys
        if others:
            on = mask & cells
            if on & on >> 1:
                return None
    if covered != interior:
        return None

    # each end's path, linked to its neighbour by the agent of their pair
    ends = []
    for end, link in ((0, parity), (c - 1, (parity + c) % 2)):
        key = (kids[end], link, pair[link])
        path = tape.paths.get(key, ())
        if path == ():
            path = tape.paths[key] = _end_path(kids[end], tape, link, pair[link])
        if path is None:
            return None
        ends.append(path)
    left, right = ends
    m = len(left)
    size = m + c - 2 + len(right)

    # number the chain children and, after them, the chain cells' other
    # children; the children of the parents off the chain keep their numbers
    shift = m - 1  # interior cell k's child is k + shift
    actions = [None] * size
    parents = [0] * m + list(range(1, c - 1)) + [c - 1] * len(right)
    rest = size
    done = 1  # the first interior cell not yet numbered
    for cell in [0, *[p for p in branching if 0 < p < c - 1], c - 1]:
        if cell > done:  # interior cells with one child each
            slot[first[done] : first[cell]] = range(done + shift, cell + shift)
            actions[done + shift : cell + shift] = action_of[first[done] : first[cell]]
        # a tape child's number is start + step * its place
        if cell == 0:
            start, step, where = shift, -1, left
        elif cell == c - 1:
            start, step, where = c - 1 + shift, 1, right
        else:
            start, step, where = cell + shift, 0, tape.places
        i = first[cell]
        for action in kids[cell]:
            place = where.get(action)
            if place is None:
                slot[i] = rest
                rest += 1
                parents.append(cell)
                actions.append(action)
            else:
                slot[i] = start + step * place
                actions[slot[i]] = action
            i += 1
        done = cell + 1
    return (size, (parity + shift) % 2), parents, actions


def _end_path(kids: tuple, tape: _Tape, link: int, key) -> dict | None:
    """Each tape action of an end cell's actions ``kids`` with its place,
    outward, on the path that continues a chain whose neighbouring child
    has the class ``key`` in the class table of their pair's agent,
    ``tape.tables[link]``: the first is the one action in that class, and
    each next one the one action left in the class of the one before,
    under the other agent and that one in turn. None if some class holds
    no action or two. Each search runs over every action not yet placed, so
    no class of a placed action holds a third one: each link is a block of
    exactly two."""
    own = [action for action in kids if action in tape.places]
    path: dict = {}
    for place in range(len(own)):
        table = tape.tables[(link + place) % 2]
        found = [a for a in own if a not in path and table.get(a, a) == key]
        if len(found) != 1:
            return None
        path[found[0]] = place
        key = tape.tables[(link + place + 1) % 2].get(found[0], found[0])
    return path


def _labels(names: Mapping, worlds: tuple) -> list:
    """The label ``names`` gives each of ``worlds``. Refused, naming the
    world, when it gives a world no label or the label of a world before it
    in ``world_sort_key`` order; the worlds are sorted only to find that
    world."""
    if all(map(names.__contains__, worlds)):
        labels = list(map(names.__getitem__, worlds))
        if len(set(labels)) == len(labels):
            return labels
    first: dict = {}  # each label, to the first world given it; a refused map fails below
    for world in sorted(worlds, key=world_sort_key):
        if world not in names:
            raise ValueError(f"names gives world {world_label(world)} no label")
        other = first.setdefault(names[world], world)
        if other is not world:
            raise ValueError(
                f"names gives worlds {world_label(other)} and {world_label(world)} one label {names[world]!r}"
            )
    raise AssertionError("unreachable: the map was refused")


# 0..len-1 in ``str`` order, the order of the ranks that label a ranked
# update's parents, as ``_rank_text`` last fitted it to a parent's size
_TEXT: list = []


def _rank_text(size: int) -> list:
    """0..size-1 in ``str`` order, made from ``_TEXT`` and kept as it: by
    dropping the numbers past the end, by inserting the new ones when they
    are at most a sixteenth of ``size``, which is measured to beat a fresh
    sort of 24 to 5,000 numbers, else by a fresh sort. A kept list is never
    changed, so each caller reads the one it was given, whatever other runs
    fit meanwhile."""
    global _TEXT
    text = _TEXT
    if size == len(text):
        return text
    if size < len(text):
        text = list(filter(size.__gt__, text))
    elif (size - len(text)) * 16 <= size:
        text = text.copy()
        for r in range(len(text), size):
            bisect.insort(text, r, key=str)
    else:
        text = sorted(range(size), key=str)
    _TEXT = text
    return text


class _Ordering:
    """A product's order source: it makes the product's name order when
    first called and keeps it as its ``state``, which until then is the
    recipe (parent, parent_of, action_of); making the order drops the
    recipe. A product of a ranked update makes it from its parent's order,
    ``parent`` (the list, or the parent's source), and its own lineage, as
    its namer keeps it (``_child_order``). A first product after an
    encoding, whose ``parent`` is its names or namer, sorts its names. A
    chain of sources not yet made is made in a loop, the oldest first. A
    source refers to no core."""

    __slots__ = ("state", "__weakref__")

    def __init__(self, parent, parent_of: array | None = None, action_of: list | None = None):
        self.state = (parent, parent_of, action_of)

    def __call__(self) -> list:
        unmade = []  # this source and each unmade one above it, newest first
        source = self
        while type(source) is _Ordering and type(state := source.state) is tuple:
            unmade.append((source, state))
            source = state[0]
        for source, (parent, parent_of, action_of) in reversed(unmade):
            if type(parent) is _Ordering:
                parent = parent.state  # made by now
            if type(parent) is list:
                source.state = _child_order(parent, parent_of, action_of)
            else:
                source.state = _sorted_order(parent if type(parent) is tuple else parent())
        return self.state


def _child_order(order: list, parent_of: array, action_of: list) -> list:
    """The children's name order, given the parents' ``order`` and each
    child's parent and action: a child is (its parent's position in
    ``order``, its action), so the parents come in ``str`` order of their
    positions, which ``_rank_text`` lists, each with its children in action
    order. One pass over the children finds each parent's last child and
    the others, and a parent with one child stands for it; the children of
    a parent with several are sorted by action and spliced in where the
    parent stands."""
    size = len(order)
    last = [-1] * size  # each parent's last child
    extra = []  # every other child
    for child, parent in zip(_numbers(len(parent_of)), parent_of):
        if last[parent] >= 0:
            extra.append(last[parent])
        last[parent] = child
    kids: dict = {}  # each parent of several children, to them
    for child in extra:
        parent = parent_of[child]
        if parent in kids:
            kids[parent].append(child)
        else:
            kids[parent] = [child]
    for parent, children in kids.items():
        children.append(last[parent])
        children.sort(key=action_of.__getitem__)
        last[parent] = -1
    text = _rank_text(size)
    heads = list(map(last.__getitem__, map(order.__getitem__, text)))
    gaps = heads.count(-1)  # the parents with no child or with several
    if not gaps:
        return heads
    out: list = []
    start = 0
    for _ in range(gaps):
        i = heads.index(-1, start)
        out += heads[start:i]
        out += kids.get(order[text[i]], ())
        start = i + 1
    out += heads[start:]
    return out


# 0, 1, 2, ... as one list, whose numbers every made order shares; a longer
# list than any before replaces it, and a list once made is never changed
_NUMBERS: list = []


def _numbers(size: int) -> list:
    """``_NUMBERS``, at least ``size`` long."""
    global _NUMBERS
    numbers = _NUMBERS
    if len(numbers) < size:
        numbers = _NUMBERS = list(range(max(size, 2 * len(numbers))))
    return numbers


def _product_names(label, parent_of, action_of) -> tuple:
    """The names of a product's worlds, (label of the parent, action); the
    parents' labels are given, or made by the namer ``label``."""
    if callable(label):
        label = label()
    return tuple(zip(map(label.__getitem__, parent_of), action_of))


def _shape(kids: tuple, action_classes: dict) -> tuple:
    """Per agent under which two of a parent's actions ``kids`` share a
    class, the groups ``_group`` gives that parent alone: each group's child
    offsets from the parent's first child. An action in no block is alone
    in its class, so only the agents whose class table holds two or more of
    the actions are grouped."""
    shape = []
    for agent, class_of in action_classes.items():
        if sum(map(class_of.__contains__, kids)) > 1:
            groups = _group((0,), (kids,), (0,), range(len(kids)), class_of)
            if groups:
                shape.append((agent, groups))
    return tuple(shape)


def _group(parents, kids, first, slot, class_of) -> tuple:
    """Each set of two or more children of ``parents`` (one class) sharing
    a program class, each child numbered by ``slot`` from its place parent
    by parent; an action in no block of ``class_of`` is a class of its own."""
    groups: dict = {}
    for parent in parents:
        child = first[parent]
        for action in kids[parent]:
            key = class_of.get(action, action)
            if key in groups:
                groups[key].append(slot[child])
            else:
                groups[key] = [slot[child]]
            child += 1
    return tuple(tuple(group) for group in groups.values() if len(group) > 1)


# ---------------------------------------------------------------------------
# structured text export / import


def export_program(
    program: EpistemicProgram,
    roles: Mapping[str, object] | None = None,
    meta: Mapping[str, str] | None = None,
) -> str:
    """JSON document for a program: preconditions in the formula grammar,
    generator relation pairs (closures not expanded), optional role tags."""
    action_entries = []
    for action in program.actions:
        entry: dict = {"id": action, "pre": format_formula(program.pre[action])}
        if action in program.post:
            entry["post"] = program.post[action]
        if roles and action in roles:
            role = roles[action]
            entry["role"] = {"family": role.family, "detail": role.detail}
        action_entries.append(entry)
    relations = {
        agent.token: {
            "closed": False,
            "pairs": [list(pair) for pair in program.relation_pairs[agent]],
        }
        for agent in sorted(program.relation_pairs, key=lambda a: a.token)
    }
    doc = {
        "actions": action_entries,
        "designated": sorted(program.designated),
        "relations": relations,
    }
    if meta:
        doc.update(meta)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def import_program(text: str) -> tuple[EpistemicProgram, dict]:
    """Inverse of export_program.

    Returns the program plus a dict with any ``roles`` (as family/detail
    dicts) and remaining metadata keys. Stored relations marked
    ``closed: true`` are accepted; closing is idempotent. Refused: a document
    that is not an object, a missing or mistyped ``actions`` list,
    ``designated`` list or ``relations`` dict, an action entry or role that
    is not an object, an action id that is not a string or is listed twice,
    a precondition that is not formula text, a relation that is not an
    object with a list of pairs, a relation pair that is not a list of two
    string ids, a designated entry that is not a string, and a
    postcondition that is not a boolean.
    """
    doc = json.loads(text)
    if type(doc) is not dict:
        raise ValueError(f"program document {doc!r} is not an object")
    for key, kind in (("actions", list), ("designated", list), ("relations", dict)):
        if type(doc.get(key)) is not kind:
            raise ValueError(f"program document: {key} must be a {kind.__name__}, not {doc.get(key)!r}")
    pre = {}
    post = {}
    roles = {}
    for entry in doc["actions"]:
        if type(entry) is not dict:
            raise ValueError(f"action entry {entry!r} is not an object")
        action = entry.get("id")
        if type(action) is not str:
            raise ValueError(f"action id {action!r} is not a string")
        if action in pre:
            raise ValueError(f"action id {action!r} is listed twice")
        if type(entry.get("pre")) is not str:
            raise ValueError(f"action {action!r}: precondition {entry.get('pre')!r} is not formula text")
        pre[action] = parse_formula(entry["pre"])
        if "post" in entry:
            post[action] = entry["post"]  # build_program refuses a value that is not a boolean
        if "role" in entry:
            if type(entry["role"]) is not dict:
                raise ValueError(f"action {action!r}: role {entry['role']!r} is not an object")
            roles[action] = dict(entry["role"])
    relation_pairs = {}
    for token, spec in doc["relations"].items():
        if type(spec) is not dict or type(spec.get("pairs")) is not list:
            raise ValueError(f"relation {token}: {spec!r} is not an object with a list of pairs")
        for pair in spec["pairs"]:
            if type(pair) is not list or len(pair) != 2 or not all(type(x) is str for x in pair):
                raise ValueError(f"relation {token}: pair {pair!r} is not two action ids")
        relation_pairs[Agent.from_token(token)] = tuple(map(tuple, spec["pairs"]))
    for action in doc["designated"]:
        if type(action) is not str:
            raise ValueError(f"designated entry {action!r} is not an action id")
    program = build_program(pre, relation_pairs, pre, post, doc["designated"])
    extras = {
        key: value
        for key, value in doc.items()
        if key not in ("actions", "designated", "relations")
    }
    extras["roles"] = roles
    return program, extras
