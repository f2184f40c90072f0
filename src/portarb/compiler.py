"""Rule extraction from a behavior model.

Two steps per leaf behavior: inherit ancestor conditions, then conjoin the
negated source ports of everything that inhibits it (directly or through an
enclosing meta-behavior). The result is one selection rule per configured
connection, merged per (port, candidate) and rendered deterministically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .bdd import AND, BddManager
from .model import (
    And,
    BehaviorModel,
    BehaviorNode,
    BoolExpr,
    Diagnostic,
    Lit,
    NetworkDescription,
    Not,
    Or,
    TRUE,
    WARNING,
    apply_auto_observe,
    condition_literals,
    has_errors,
    normalize,
    render_condition,
    validate,
)


@dataclass(frozen=True)
class SelectionRule:
    """`candidate active and constraint => Select(candidate)` at `port`.

    The candidate's own positive literal is implicit and never stored in the
    constraint."""

    port: str
    candidate: str
    constraint: BoolExpr
    provenance: tuple[str, ...] = ()


@dataclass(frozen=True)
class RuleSet:
    rules: tuple[SelectionRule, ...] = ()

    def by_port(self) -> dict[str, tuple[SelectionRule, ...]]:
        grouped: dict[str, list[SelectionRule]] = {}
        for rule in self.rules:
            grouped.setdefault(rule.port, []).append(rule)
        return {port: tuple(rules) for port, rules in grouped.items()}

    def rule_for(self, port: str, candidate: str) -> SelectionRule | None:
        for rule in self.rules:
            if rule.port == port and rule.candidate == candidate:
                return rule
        return None


def inherited_condition(behavior: BehaviorNode | str, model: BehaviorModel) -> BoolExpr:
    """Conjunction of the behavior's own condition with every enclosing
    meta-behavior's condition, outermost first, trues absorbed."""
    return model.plan(behavior).condition


def effective_inhibitor_sources(
    behavior: BehaviorNode | str, model: BehaviorModel
) -> tuple[str, ...]:
    """Source ports whose activation suppresses this behavior.

    Collects every node that inhibits the behavior directly or inhibits one
    of its enclosing meta-behaviors, expands meta-behavior inhibitors to
    their descendant leaves, and returns the union of those leaves'
    configuration sources. Returned deduplicated in a deterministic order:
    the behavior's own inhibitors first, then each enclosing meta-behavior's
    going outward; within one scope, inhibitors and their leaves in
    document-walk order.
    """
    return model.plan(behavior).inhibitor_sources


def _first_literal_rank(part: BoolExpr, appearance: dict[str, int]) -> int:
    literals = condition_literals(part)
    return appearance.get(literals[0], len(appearance)) if literals else -1


def _ordered_parts(parts, appearance: dict[str, int]):
    return sorted(parts, key=lambda p: _first_literal_rank(p, appearance))


def extract_rules(model: BehaviorModel, network: NetworkDescription) -> RuleSet:
    """Compile the model into per-port selection rules.

    Assumes validate(model, network) reported no errors. For each leaf
    behavior and each configured connection (s, d), emits
    SelectionRule(port=d, candidate=s) whose constraint conjoins the
    inherited condition with the negation of every effective inhibitor
    source. Rules landing on the same (port, candidate) merge by
    disjunction; conjuncts and disjuncts are ordered by first-appearance
    variable order, which keeps the output byte-stable.
    """
    appearance: dict[str, int] = {}

    def register(port: str) -> None:
        if port not in appearance:
            appearance[port] = len(appearance)

    collected: dict[tuple[str, str], tuple[list[BoolExpr], list[str]]] = {}
    for leaf in model.leaf_behaviors():
        for conn in leaf.configuration:
            register(conn.source)
        plan = model.plan(leaf)
        condition, inhibitor_sources = plan.condition, plan.inhibitor_sources
        for port in plan.needed:
            register(port)

        conjuncts: list[BoolExpr] = []
        if isinstance(condition, And):
            conjuncts.extend(condition.children)
        elif condition != TRUE:
            conjuncts.append(condition)
        for port in inhibitor_sources:
            negated = Not(Lit(port))
            if negated not in conjuncts:
                conjuncts.append(negated)

        for conn in leaf.configuration:
            parts = [c for c in conjuncts if c != Lit(conn.source)]
            constraint = normalize(And(tuple(_ordered_parts(parts, appearance))))
            key = (conn.destination, conn.source)
            if key in collected:
                collected[key][0].append(constraint)
                collected[key][1].append(leaf.name)
            else:
                collected[key] = ([constraint], [leaf.name])

    rules = []
    for (port, candidate), (constraints, contributors) in collected.items():
        merged = normalize(Or(tuple(_ordered_parts(constraints, appearance))))
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


def check_conflicts(ruleset: RuleSet, manager: BddManager | None = None) -> list[Diagnostic]:
    """Warn about same-port rule pairs that can both select at once.

    For each pair with distinct candidates, both candidates are assumed
    active and the joint constraint is checked for satisfiability on the
    BDD; a satisfiable joint yields a warning carrying one witness
    assignment (the lowest in variable order).
    """
    if manager is None:
        manager = BddManager()
    for rule in ruleset.rules:
        manager.var(rule.candidate)
        for port in condition_literals(rule.constraint):
            manager.var(port)

    diagnostics: list[Diagnostic] = []
    for port, rules in sorted(ruleset.by_port().items()):
        # candidate active and constraint, built once per rule
        selects = [
            manager.combine(AND, manager.var(rule.candidate), manager.build(rule.constraint))
            for rule in rules
        ]
        for i, first in enumerate(rules):
            for j, second in enumerate(rules[i + 1:], start=i + 1):
                if first.candidate == second.candidate:
                    continue
                joint = manager.combine(AND, selects[i], selects[j])
                if not manager.satisfiable(joint):
                    continue
                witness = manager.first_satisfying(joint) or []
                shown = ", ".join(f"{p}={str(v).lower()}" for p, v in witness)
                diagnostics.append(Diagnostic(
                    WARNING, "C1",
                    f"rules for {first.candidate} and {second.candidate} at {port} "
                    f"can both select: e.g. {{{shown}}}",
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
