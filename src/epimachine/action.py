"""Multi-pointed action models with precondition formulas, determinism
checking, and product update.

Actions may carry an optional constant postcondition on the single atom;
without one, the atom value of a product world is copied from its parent
world. Designated actions are the only candidates for the new point, and at
most one of them may apply at the source point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping

from .logic import (
    TOP,
    Agent,
    EquivRelation,
    Evaluator,
    Formula,
    PointedKripkeModel,
    format_formula,
    parse_formula,
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


@dataclass(frozen=True)
class EpistemicProgram:
    """Finite action model: actions, per-index equivalence relations,
    preconditions, optional atom postconditions, designated actions.

    ``relation_pairs`` keeps the generator pairs the relation closures were
    built from, so exports do not have to expand closures.
    """

    actions: tuple[str, ...]
    relations: Mapping[Agent, EquivRelation]
    relation_pairs: Mapping[Agent, tuple[tuple[str, str], ...]]
    pre: Mapping[str, Formula]
    post: Mapping[str, bool]
    designated: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "relations", dict(self.relations))
        object.__setattr__(self, "relation_pairs", dict(self.relation_pairs))
        object.__setattr__(self, "pre", dict(self.pre))
        object.__setattr__(self, "post", dict(self.post))
        object.__setattr__(self, "designated", frozenset(self.designated))

    @property
    def agents(self) -> frozenset:
        return frozenset(self.relations)


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
        relations[agent] = EquivRelation.from_pairs(pair_tuple, action_set)
    return EpistemicProgram(actions, relations, canon_pairs, dict(pre), post, designated)


def identity_program(agents: Iterable[Agent]) -> EpistemicProgram:
    """Single always-applicable designated action with identity relations."""
    return build_program(
        ("id",), {agent: () for agent in agents}, {"id": TOP}, None, ("id",)
    )


def applicable_designated(
    model: PointedKripkeModel, program: EpistemicProgram
) -> list[str]:
    """Designated actions whose precondition holds at the point, in action-id
    order. Length 1 means the update is defined and deterministic here."""
    ev = Evaluator.of(model)
    return [a for a in sorted(program.designated) if ev.check(model.point, program.pre[a])]


def product_update(
    model: PointedKripkeModel, program: EpistemicProgram
) -> PointedKripkeModel | None:
    """Product update of a pointed model with a program.

    Returns None when no designated action applies at the point (the update
    is undefined) and raises DeterminismViolation when several do. New
    worlds are (parent world, action id) pairs, so lineage stays inspectable.
    """
    if model.agents != program.agents:
        raise ValueError("model and program use different agent universes")
    chosen = applicable_designated(model, program)
    if not chosen:
        return None
    if len(chosen) > 1:
        raise DeterminismViolation(model.point, chosen)

    ev = Evaluator.of(model)
    new_worlds = [(w, a) for a in program.actions for w in ev.sat_set(program.pre[a])]
    universe = frozenset(new_worlds)

    relations = {}
    for agent in model.agents:
        model_index = model.relations[agent].index
        program_index = program.relations[agent].index
        groups: dict = {}
        for world in new_worlds:
            key = (model_index[world[0]], program_index[world[1]])
            groups.setdefault(key, []).append(world)
        relations[agent] = EquivRelation(universe, groups.values())

    valuation = frozenset(
        (parent, action)
        for parent, action in new_worlds
        if program.post.get(action, parent in model.valuation)
    )
    point = (model.point, chosen[0])
    return PointedKripkeModel(universe, relations, valuation, point)


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
