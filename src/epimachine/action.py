"""Multi-pointed action models with precondition formulas, determinism
checking, and product update.

Actions may carry an optional constant postcondition on the single atom;
without one, the atom value of a product world is copied from its parent
world. Designated actions are the only candidates for the new point, and at
most one of them may apply at the source point.
"""

from __future__ import annotations

import functools
import itertools
import json
from typing import Iterable, Mapping

from ._value import Value, _set
from .logic import (
    TOP,
    Agent,
    EquivRelation,
    Evaluator,
    Formula,
    Plan,
    PointedKripkeModel,
    _bits_of,
    _block_mask,
    _Core,
    _mask_of_bits,
    _ranks,
    closure,
    format_formula,
    parse_formula,
    plan_of,
    world_label,
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
        grow with the blocks, not with agents times actions), and the
        program's branching shapes (``_shape``), made as the update meets
        them, by a parent's actions."""
        layout = self.__dict__.get("_plan_layout")
        if layout is None:
            by_root: dict = {}  # precondition -> its actions, in action order
            for action in self.actions:
                by_root.setdefault(self.pre[action], []).append(action)
            position = {root: i for i, root in enumerate(by_root)}
            designated = tuple((a, position[self.pre[a]]) for a in sorted(self.designated))
            roots = tuple(map(tuple, by_root.values()))
            classes = {agent: relation.index for agent, relation in self.relations.items()}
            layout = (plan_of(tuple(by_root)), roots, designated, classes, {})
            _set(self, "_plan_layout", layout)
        return layout


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
        raise ValueError("designated actions must be actions")
    if set(pre) != set(action_set):
        missing = action_set - set(pre)
        extra = set(pre) - action_set
        raise ValueError(f"precondition map mismatch (missing={missing}, extra={extra})")
    if not set(post) <= action_set:
        raise ValueError("postcondition on unknown action")
    for value in post.values():
        if not isinstance(value, bool):
            raise ValueError("postconditions must assign a constant boolean")
    canon_pairs = {}
    relations = {}
    for agent, pairs in relation_pairs.items():
        pair_tuple = tuple(sorted(set(tuple(p) for p in pairs)))
        canon_pairs[agent] = pair_tuple
        relations[agent] = closure(pair_tuple, action_set)
    return EpistemicProgram(actions, relations, canon_pairs, dict(pre), post, designated)


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


def product_update(
    model: PointedKripkeModel, program: EpistemicProgram, names: Mapping | None = None
) -> PointedKripkeModel | None:
    """Product update of a pointed model with a program.

    Returns None when no designated action applies at the point (the update
    is undefined) and raises DeterminismViolation when several do. The child
    of world w by action a is (w, a), so lineage stays inspectable, or
    (names[w], a) when ``names``, a one-to-one map of the worlds, is given.
    ``names`` may also be a pair (order, text): the parent's name order, a
    list of its world numbers in ``world_sort_key`` order of their names
    (``_Core.order``), and 0..len(order)-1 in ``str`` order. Then w is
    labelled by its position k in ``order``, the child is (k, a), and the
    child's core keeps its own name order, built from the parent's without
    a sort of names. The child is its core alone, built from the
    parent's: the children are numbered parent by parent, and each relation
    is built in one pass over the parent's blocks, each child block with its
    mask, then a branching parent alone in its class adds the groups of the
    program's shape of its actions. The child's worlds are named when first
    read; an encoding parent and a parent given by its order are left
    unnamed till then, any other parent is named now.
    """
    ev = Evaluator.of(model)
    core = ev._core
    if core.blocks.keys() != program.relations.keys():
        raise ValueError("model and program use different agent universes")
    plan, root_actions, designated, action_classes, shapes = program._layout()
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
            for parent in itertools.compress(itertools.count(low), _bits_of(mask >> low, 0)):
                kids[parent] += actions
    counts = list(map(len, kids))
    first = list(itertools.accumulate(counts, initial=0))
    branching = list(itertools.compress(range(n), map((1).__lt__, counts)))
    # one sort merges two runs: the parents with a child, then the extra
    # children's parents
    extra = [p for p in branching for _ in kids[p][1:]]
    parent_of = sorted([*itertools.compress(range(n), counts), *extra])
    action_of = list(itertools.chain.from_iterable(kids))
    order = None
    if type(names) is tuple:
        # the namer holds the parent's order, not its core
        label = functools.partial(_ranks, names[0])
        order = _child_order(*names, first, counts, branching, action_of)
    elif names is not None:
        label = list(map(names.__getitem__, core.names))
    elif type(core._names) is tuple or core._names.func is _product_names:
        label = core.names  # a product is named now, so no chain of namers builds up
    else:  # an encoding's namer, which holds a few numbers
        label = core._names

    # (w,a) ~i (v,b) iff w ~i v and a ~i b, so two product worlds share a
    # class of two or more only if their parents share a block, or they are
    # children of one parent by two actions of one program class. A pair
    # block of parents with at most one child each gives the child pair when
    # both children's actions share a class; any other block with a
    # branching parent is grouped by program class. A branching parent alone
    # in its class takes its groups from the program's shape of its actions.
    blocks, block_masks, placed = {}, {}, {}
    for agent, parent_blocks in core.blocks.items():
        get = action_classes[agent].get
        out = blocks[agent] = []
        out_masks = block_masks[agent] = []
        grouped = placed[agent] = set()
        for block in parent_blocks:
            if len(block) == 2:
                p, q = block
                if counts[p] < 2 and counts[q] < 2:
                    if counts[p] and counts[q]:
                        (a,), (b,) = kids[p], kids[q]
                        if get(a, a) == get(b, b):
                            c, d = first[p], first[q]
                            out.append((c, d))
                            out_masks.append(1 << c | 1 << d)
                    continue
            grouped.update(block)
            _group(block, kids, first, action_classes[agent], out, out_masks)
    for parent in branching:
        shape = shapes.get(kids[parent])
        if shape is None:
            shape = shapes[kids[parent]] = _shape(kids[parent], action_classes)
        c = first[parent]
        for agent, groups in shape:
            if parent not in placed[agent]:
                for offsets, mask in groups:
                    blocks[agent].append(tuple(map(c.__add__, offsets)))
                    block_masks[agent].append(mask << c)
    blocks = {agent: tuple(out) for agent, out in blocks.items()}

    inherited = map(_bits_of(core.valuation, n).__getitem__, parent_of)
    values = bytes(map(program.post.get, action_of, inherited))
    point = first[core.point] + kids[core.point].index(chosen[0])
    namer = functools.partial(_product_names, label, parent_of, action_of)
    child = _Core(len(parent_of), namer, blocks, block_masks, _mask_of_bits(values), point)
    child.order = order
    return PointedKripkeModel._of_core(child)


def _child_order(
    order: list, text: list, first: list, counts: list, branching: list, action_of: list
) -> list:
    """The children's name order, given the parents' ``order``: a child is
    (its parent's position in ``order``, its action), so the parents come
    in ``str`` order of their positions, which ``text`` lists, and each
    parent's children, which are numbered ``first[p]``.., in action order.
    Only a branching parent's children are sorted, and spliced in where its
    first child stands."""
    parents = list(map(order.__getitem__, text))
    heads = list(itertools.compress(map(first.__getitem__, parents), map(counts.__getitem__, parents)))
    kids = {first[p]: sorted(range(first[p], first[p + 1]), key=action_of.__getitem__) for p in branching}
    out: list = []
    start = 0
    for i in itertools.compress(itertools.count(), map(kids.__contains__, heads)):
        out += heads[start:i]
        out += kids[heads[i]]
        start = i + 1
    out += heads[start:]
    return out


def _product_names(label, parent_of, action_of) -> tuple:
    """The names of a product's worlds, (label of the parent, action); the
    parents' labels are given, or made by the namer ``label``."""
    if callable(label):
        label = label()
    return tuple(zip(map(label.__getitem__, parent_of), action_of))


def _shape(kids: tuple, action_classes: dict) -> tuple:
    """Per agent under which two of a parent's actions ``kids`` share a
    class, the groups ``_group`` gives that parent alone: each group's child
    offsets from the parent's first child, with its mask. An action in no
    block is alone in its class, so only the agents whose class table holds
    two or more of the actions are grouped."""
    shape = []
    for agent, class_of in action_classes.items():
        if sum(map(class_of.__contains__, kids)) > 1:
            out, out_masks = [], []
            _group((0,), (kids,), (0,), class_of, out, out_masks)
            if out:
                shape.append((agent, tuple(zip(out, out_masks))))
    return tuple(shape)


def _group(parents, kids, first, class_of, out, out_masks) -> None:
    """Append each set of two or more children of ``parents`` (one class)
    sharing a program class to ``out``, its mask to ``out_masks``; an action
    in no block of ``class_of`` is a class of its own."""
    groups: dict = {}
    for parent in parents:
        child = first[parent]
        for action in kids[parent]:
            key = class_of.get(action, action)
            if key in groups:
                groups[key].append(child)
            else:
                groups[key] = [child]
            child += 1
    for group in groups.values():
        if len(group) > 1:
            out.append(tuple(group))
            out_masks.append(_block_mask(group))


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
    ``closed: true`` are accepted; closing is idempotent.
    """
    doc = json.loads(text)
    pre = {}
    post = {}
    roles = {}
    actions = []
    for entry in doc["actions"]:
        action = entry["id"]
        actions.append(action)
        pre[action] = parse_formula(entry["pre"])
        if "post" in entry:
            post[action] = bool(entry["post"])
        if "role" in entry:
            roles[action] = dict(entry["role"])
    relation_pairs = {
        Agent.from_token(token): tuple((p[0], p[1]) for p in spec["pairs"])
        for token, spec in doc["relations"].items()
    }
    program = build_program(actions, relation_pairs, pre, post, doc["designated"])
    extras = {
        key: value
        for key, value in doc.items()
        if key not in ("actions", "designated", "relations")
    }
    extras["roles"] = roles
    return program, extras
