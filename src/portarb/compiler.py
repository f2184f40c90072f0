"""Rule extraction from a behavior model.

Two steps per leaf behavior: inherit ancestor conditions, then conjoin the
negated source ports of everything that inhibits it (directly or through an
enclosing meta-behavior). The result is one selection rule per configured
connection, merged per (port, candidate) and rendered deterministically.
A rule is classified once, as `SelectionRule.cube`; the conflict check
decides a pair of cube rules from their literals, and only a pair with
another rule builds BDDs.
"""

from __future__ import annotations

import json
from functools import cache, cached_property

from . import bdd
from .bdd import BddManager
from .model import (
    And,
    BehaviorModel,
    BoolExpr,
    Diagnostic,
    FALSE,
    Lit,
    NetworkDescription,
    Not,
    Or,
    TRUE,
    WARNING,
    Value,
    _set,
    apply_auto_observe,
    condition_literals,
    cube_literals,
    has_errors,
    normalize,
    render_condition,
    validate,
)

# C1 warnings shown per port, each with its witness; one more counts the rest
MAX_C1_PER_PORT = 64


class SelectionRule(Value):
    """`candidate active and constraint => Select(candidate)` at `port`.

    The candidate's own positive literal is implicit and never stored in the
    constraint. `cube`, not a field, is the constraint's `model.cube_literals`,
    worked out once for the conflict check, the rule text and the arbiter."""

    _fields = ("port", "candidate", "constraint", "provenance")
    __slots__ = (*_fields, "cube")

    def __init__(self, port: str, candidate: str, constraint: BoolExpr, provenance=()) -> None:
        _set(self, "port", port)
        _set(self, "candidate", candidate)
        _set(self, "constraint", constraint)
        _set(self, "provenance", provenance)
        _set(self, "cube", cube_literals(constraint))


class RuleSet(Value):
    # no __slots__: the cached_property below keeps its value in __dict__
    _fields = ("rules",)
    _defaults = ((),)

    @cached_property
    def _by_port(self) -> dict[str, tuple[SelectionRule, ...]]:
        # grouped once: the set is frozen
        grouped: dict[str, list[SelectionRule]] = {}
        for rule in self.rules:
            grouped.setdefault(rule.port, []).append(rule)
        return {port: tuple(rules) for port, rules in grouped.items()}

    def by_port(self) -> dict[str, tuple[SelectionRule, ...]]:
        """The rules of each port, in set order; a new dict on each call."""
        return dict(self._by_port)

    def for_port(self, port: str) -> tuple[SelectionRule, ...]:
        """The rules of one port, in set order."""
        return self._by_port.get(port, ())


def _first_port(expr: BoolExpr) -> str:
    """The first literal of a normalized, non-constant expression."""
    while not isinstance(expr, Lit):
        expr = expr.child if isinstance(expr, Not) else expr.children[0]
    return expr.port


def extract_rules(model: BehaviorModel, network: NetworkDescription) -> RuleSet:
    """Compile the model into per-port selection rules.

    Assumes validate(model, network) reported no errors. For each leaf
    behavior and each configured connection (s, d), emits
    SelectionRule(port=d, candidate=s) whose constraint conjoins the leaf's
    `model.plan` condition with the negation of each of its plan's
    inhibitor sources. Rules landing on the same (port, candidate) merge by
    disjunction; conjuncts and disjuncts are ordered by first-appearance
    variable order, which keeps the output byte-stable.

    The plan's condition is normalized, so its conjuncts and the inhibitor
    negations are already normal and distinct: each constraint is built
    directly, and only real merges are normalized. Work is linear in the
    literals emitted.
    """
    appearance: dict[str, int] = {}
    negation = cache(lambda port: Not(Lit(port)))  # one `not p` per source port
    # (port, candidate) -> ([(rank, constraint)], contributors); a rank is the
    # appearance of the first literal, -1 for a constant
    collected: dict[tuple[str, str], tuple[list[tuple[int, BoolExpr]], list[str]]] = {}
    for leaf in model.leaf_behaviors():
        for conn in leaf.configuration:
            appearance.setdefault(conn.source, len(appearance))
        plan = model.plan(leaf.name)
        for port in plan.needed:
            appearance.setdefault(port, len(appearance))

        condition = plan.condition
        if condition == FALSE:
            ranked = [(-1, FALSE)]
        else:
            conjuncts = dict.fromkeys(
                condition.children if isinstance(condition, And)
                else () if condition == TRUE else (condition,)
            )
            for port in plan.inhibitor_sources:
                conjuncts[negation(port)] = None
            # stable: conjuncts sharing a first literal keep their order
            ranked = sorted(
                ((appearance[_first_port(c)], c) for c in conjuncts), key=lambda rc: rc[0]
            )
        positives = {c.port: c for _, c in ranked if isinstance(c, Lit)}

        for conn in leaf.configuration:
            own = positives.get(conn.source)
            kept = ranked if own is None else [rc for rc in ranked if rc[1] is not own]
            if not kept:
                entry = (-1, TRUE)
            elif len(kept) == 1:
                entry = kept[0]
            else:
                entry = (kept[0][0], And(tuple(c for _, c in kept)))
            entries, contributors = collected.setdefault((conn.destination, conn.source), ([], []))
            entries.append(entry)
            contributors.append(leaf.name)

    rules = []
    for (port, candidate), (entries, contributors) in collected.items():
        if len(entries) == 1:
            merged = entries[0][1]
        else:
            entries.sort(key=lambda rc: rc[0])
            merged = normalize(Or(tuple(c for _, c in entries)))
        rules.append(SelectionRule(port, candidate, merged, tuple(contributors)))
    rules.sort(key=lambda r: (r.port, r.candidate))
    return RuleSet(tuple(rules))


def rule_text(rule: SelectionRule) -> str:
    """ASCII rendering: `C and not P ... => Select(C) @ PORT`. A cube's
    `p` and `not p` pieces are joined from its literals; any other
    constraint is rendered by `render_condition`, in parentheses if an `Or`."""
    if rule.cube is None:
        rendered = render_condition(rule.constraint)
        pieces = [f"({rendered})" if isinstance(rule.constraint, Or) else rendered]
    else:
        pieces = [p if v else f"not {p}" for p, v in rule.cube]
    head = " and ".join([rule.candidate] + pieces)
    return f"{head} => Select({rule.candidate}) @ {rule.port}"


def check_conflicts(ruleset: RuleSet) -> list[Diagnostic]:
    """Warn about same-port rule pairs that can both select at once.

    Both candidates of a pair are assumed active. A pair with one
    candidate, or where one rule needs a port true (its candidate or a
    literal of its cube) and the other needs it false (a `not p` of its
    cube), is skipped. A pair of cubes (see `SelectionRule.cube`) is decided
    from their literals, with no BDD: a cube needing a port both true and
    false never selects, and two others can both select, the witness being
    the union of what they need in variable order, as a BDD search would
    return it. A pair with a non-cube rule (a disjunction, `false` or a
    nested `not`) is decided with BDDs, built when such a pair first needs
    them: the witness is the joint's `first_satisfying` assignment, the
    lowest in variable order. The variable order is fixed first, in one
    pass over the rules: each rule's candidate, then its constraint's
    literals in pre-order; so every witness is the same whichever pairs are
    skipped and whichever path decides them. Per port, the first
    MAX_C1_PER_PORT pairs with a witness each get a warning; the rest are
    counted, their witnesses unrendered, in one `... and N more` warning at
    the port.
    """
    order: list[str] = []  # every rule's ports, in rule order
    # port -> [(rule, ports it needs true, ports it needs false)]
    by_port: dict[str, list[tuple[SelectionRule, set[str], set[str]]]] = {}
    for rule in ruleset.rules:
        true, false = {rule.candidate}, set()
        if rule.cube is None:  # decided with BDDs
            order += (rule.candidate, *condition_literals(rule.constraint))
        else:
            order.append(rule.candidate)
            for port, value in rule.cube:
                order.append(port)
                (true if value else false).add(port)
            if not true.isdisjoint(false):
                continue  # never selects, so no pair of it has a witness
        by_port.setdefault(rule.port, []).append((rule, true, false))
    levels = {port: level for level, port in enumerate(dict.fromkeys(order))}

    manager: BddManager | None = None  # built for the first non-cube pair
    diagnostics: list[Diagnostic] = []
    for port, entries in sorted(by_port.items()):
        selects: list[int | None] = [None] * len(entries)
        found = 0  # pairs with a witness
        for i, (first, true_i, false_i) in enumerate(entries):
            for j in range(i + 1, len(entries)):
                second, true_j, false_j = entries[j]
                if (first.candidate == second.candidate
                        or not true_i.isdisjoint(false_j) or not false_i.isdisjoint(true_j)):
                    continue
                witness = None
                if first.cube is None or second.cube is None:
                    if manager is None:
                        manager = BddManager(levels)
                    for k in (i, j):
                        if selects[k] is None:
                            rule = entries[k][0]
                            selects[k] = manager.ite(manager.var(rule.candidate),
                                                     manager.build(rule.constraint), bdd.FALSE)
                    witness = manager.first_satisfying(manager.ite(selects[i], selects[j], bdd.FALSE))
                    if witness is None:
                        continue
                found += 1
                if found > MAX_C1_PER_PORT:
                    continue
                if witness is None:  # two cubes that no port splits
                    both_true = true_i | true_j
                    witness = [(p, p in both_true) for p in
                               sorted(both_true.union(false_i, false_j), key=levels.__getitem__)]
                shown = ", ".join([f"{p}={'true' if v else 'false'}" for p, v in witness])
                diagnostics.append(Diagnostic(
                    WARNING, "C1",
                    f"rules for {first.candidate} and {second.candidate} at {port} "
                    f"can both select: e.g. {{{shown}}}",
                    port,
                ))
        if found > MAX_C1_PER_PORT:
            diagnostics.append(Diagnostic(
                WARNING, "C1",
                f"... and {found - MAX_C1_PER_PORT} more rule pairs at {port} "
                f"can both select ({found} in all)",
                port,
            ))
    return diagnostics


def compile_model(
    model: BehaviorModel, network: NetworkDescription, auto_observe: bool
) -> tuple[list[Diagnostic], RuleSet | None, NetworkDescription]:
    """validate -> auto-observe -> extract -> conflict check.

    Returns the diagnostics, the rule set (None when validation found
    errors) and the network the rules were compiled against, which carries
    the added observer connections when `auto_observe` is set.
    """
    diagnostics = validate(model, network, auto_observe=auto_observe)
    if has_errors(diagnostics):
        return diagnostics, None, network
    if auto_observe:
        network = apply_auto_observe(model, network)
    ruleset = extract_rules(model, network)
    return diagnostics + check_conflicts(ruleset), ruleset, network


def emit_rules(ruleset: RuleSet, fmt: str = "text") -> str:
    """Render the rule set; output is byte-stable for identical inputs."""
    if fmt == "text":
        return "".join(rule_text(rule) + "\n" for rule in ruleset.rules)
    if fmt == "json":
        payload = {
            "rules": [
                {
                    "port": rule.port,
                    "candidate": rule.candidate,
                    "constraint": render_condition(rule.constraint),
                    "provenance": list(rule.provenance),
                }
                for rule in ruleset.rules
            ]
        }
        return json.dumps(payload, indent=2) + "\n"
    raise ValueError(f"unknown rule format {fmt!r}")
