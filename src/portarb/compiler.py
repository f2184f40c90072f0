"""Rule extraction from a behavior model.

Two steps per leaf behavior: inherit ancestor conditions, then conjoin the
negated source ports of everything that inhibits it (directly or through an
enclosing meta-behavior). The result is one selection rule per configured
connection, merged per (port, candidate) and rendered deterministically.
"""

from __future__ import annotations

import json
from functools import cached_property

from .bdd import AND, BddManager
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
    apply_auto_observe,
    condition_literals,
    has_errors,
    normalize,
    render_condition,
    validate,
)

_set = object.__setattr__  # sets a Value's fields past its own __setattr__

# C1 warnings shown per port, each with its witness; one more counts the rest
MAX_C1_PER_PORT = 64


class SelectionRule(Value):
    """`candidate active and constraint => Select(candidate)` at `port`.

    The candidate's own positive literal is implicit and never stored in the
    constraint."""

    _fields = __slots__ = ("port", "candidate", "constraint", "provenance")

    def __init__(
        self, port: str, candidate: str, constraint: BoolExpr, provenance: tuple[str, ...] = ()
    ) -> None:
        _set(self, "port", port)
        _set(self, "candidate", candidate)
        _set(self, "constraint", constraint)
        _set(self, "provenance", provenance)


class RuleSet(Value):
    # no __slots__: the cached_property below keeps its value in __dict__
    _fields = ("rules",)

    def __init__(self, rules: tuple[SelectionRule, ...] = ()) -> None:
        _set(self, "rules", rules)

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
    negations: dict[str, Not] = {}  # one `not p` per source port
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
                negation = negations.get(port)
                if negation is None:
                    negation = negations[port] = Not(Lit(port))
                conjuncts[negation] = None
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
    """ASCII rendering: `C and not P ... => Select(C) @ PORT`."""
    head = rule.candidate
    if rule.constraint != TRUE:
        rendered = render_condition(rule.constraint)
        if isinstance(rule.constraint, Or):
            rendered = f"({rendered})"
        head = f"{head} and {rendered}"
    return f"{head} => Select({rule.candidate}) @ {rule.port}"


def _required_literals(rule: SelectionRule) -> tuple[set[str], set[str]]:
    """Ports the rule needs true (its candidate and top-level positive
    literals) and ports it needs false (its top-level `not p`)."""
    constraint = rule.constraint
    parts = constraint.children if isinstance(constraint, And) else (constraint,)
    true = {rule.candidate}
    false = set()
    for part in parts:
        if isinstance(part, Lit):
            true.add(part.port)
        elif isinstance(part, Not) and isinstance(part.child, Lit):
            false.add(part.child.port)
    return true, false


def check_conflicts(ruleset: RuleSet) -> list[Diagnostic]:
    """Warn about same-port rule pairs that can both select at once.

    For each pair with distinct candidates, both candidates are assumed
    active and the joint constraint's BDD is searched with
    `first_satisfying`; a joint that has a witness yields a warning carrying
    it (the lowest assignment in variable order). A pair where one rule needs
    a port true (its candidate or a top-level literal) and the other needs
    it false (a top-level `not p`) cannot both select and is skipped
    without a BDD. A rule's `candidate and constraint` BDD is built only
    when a pair that needs it survives that test; the BDD alone decides
    whether there is a witness and which. Variables are registered in rule order
    before any BDD is built, so the order and every witness are the same
    whichever pairs are skipped. Per port, the first MAX_C1_PER_PORT
    pairs with a witness each get a warning; the rest are counted, their
    witnesses unrendered, in one `... and N more` warning at the port.
    """
    manager = BddManager(
        port for rule in ruleset.rules
        for port in (rule.candidate, *condition_literals(rule.constraint))
    )

    diagnostics: list[Diagnostic] = []
    for port, rules in sorted(ruleset.by_port().items()):
        required = [_required_literals(rule) for rule in rules]
        selects: list[int | None] = [None] * len(rules)
        found = 0  # pairs with a witness

        def select(i: int) -> int:
            if selects[i] is None:
                rule = rules[i]
                selects[i] = manager.combine(
                    AND, manager.var(rule.candidate), manager.build(rule.constraint)
                )
            return selects[i]

        for i, first in enumerate(rules):
            true_i, false_i = required[i]
            for j in range(i + 1, len(rules)):
                second = rules[j]
                true_j, false_j = required[j]
                if (first.candidate == second.candidate
                        or not true_i.isdisjoint(false_j) or not false_i.isdisjoint(true_j)):
                    continue
                witness = manager.first_satisfying(manager.combine(AND, select(i), select(j)))
                if witness is None:
                    continue
                found += 1
                if found > MAX_C1_PER_PORT:
                    continue
                shown = ", ".join(f"{p}={str(v).lower()}" for p, v in witness)
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
