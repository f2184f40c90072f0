"""Rule extraction: inheritance, inhibitor expansion, merging, conflicts,
and deterministic rendering."""

import itertools
import json
import pickle
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from conftest import (
    EXPR_PORTS,
    MODEL_DESTINATIONS,
    MODEL_SOURCES,
    behavior_models,
    compile_fixture,
    deep_hierarchy_texts,
    expressions,
)
import portarb.compiler
from portarb import (
    And,
    BddManager,
    BehaviorModel,
    BehaviorNode,
    Component,
    Connection,
    Diagnostic,
    FIXTURE_NAMES,
    Lit,
    NetworkDescription,
    Not,
    Or,
    PeriodicSource,
    Scenario,
    apply_auto_observe,
    check_conflicts,
    compile_model,
    emit_rules,
    extract_rules,
    fixture,
    iter_run,
    load_scenario,
    parse_behavior_model,
    parse_network,
    rule_text,
    validate,
)
from portarb import bdd
from portarb.compiler import MAX_C1_PER_PORT, RuleSet, SelectionRule
from portarb.library import RESTARM_VARIANT_EXPECTED_RULES, RESTARM_VARIANT_MODEL
from portarb.model import (
    ERROR,
    FALSE,
    MAX_V3_PER_PORT,
    TRUE,
    WARNING,
    condition_literals,
    normalize,
    render_condition,
)


def _network(text):
    return parse_network(text)


SHARED_PORT_NETWORK = _network(
    '<application>'
    '<module name="S"><output>/a:o</output><output>/b:o</output><output>/c:o</output></module>'
    '<module name="D"><input>/X:i</input></module>'
    '<connection from="/a:o" to="/X:i"/>'
    '<connection from="/b:o" to="/X:i"/>'
    '<connection from="/c:o" to="/X:i"/>'
    "</application>"
)


def _by_key(ruleset):
    return {(r.port, r.candidate): r for r in ruleset.rules}


def test_inherited_condition_without_parents():
    model = parse_behavior_model(
        '<behavior name="B"><config at="/X:i">/a:o</config>'
        "<condition>not /c:o</condition></behavior>"
    )
    assert model.plan("B").condition == Not(Lit("/c:o"))


def test_inherited_condition_track_object():
    model, _, _, _ = compile_fixture("search-and-track")
    assert model.plan("Track Object").condition == Not(Lit("/collision:o"))


def test_inherited_condition_conjoins_ancestors_outermost_first():
    text = (
        '<meta_behavior name="Outer"><behavior>Inner</behavior>'
        "<condition>/c1:o</condition></meta_behavior>"
        '<meta_behavior name="Inner"><behavior>Leaf</behavior>'
        "<condition>/c2:o</condition></meta_behavior>"
        '<behavior name="Leaf"><config at="/X:i">/a:o</config>'
        "<condition>/c3:o</condition></behavior>"
    )
    model = parse_behavior_model(text)
    assert model.plan("Leaf").condition == And((Lit("/c1:o"), Lit("/c2:o"), Lit("/c3:o")))


def test_effective_inhibitor_sources_fig3():
    model, _, _, _ = compile_fixture("search-and-track")
    # Follow Face inhibits it directly; Track Object inhibits ancestor Be Curious
    assert model.plan("Look Around").inhibitor_sources == (
        "/Face/pos:o", "/Object/pos:o",
    )
    assert model.plan("Rest Arm").inhibitor_sources == ("/Object/pos:o",)
    assert model.plan("Track Object").inhibitor_sources == ()


def test_meta_inhibitor_expands_to_descendant_leaves():
    text = (
        '<meta_behavior name="Group"><behavior>A</behavior><behavior>B</behavior></meta_behavior>'
        '<behavior name="A"><config at="/X:i">/a:o</config></behavior>'
        '<behavior name="B"><config at="/X:i">/b:o</config></behavior>'
        '<behavior name="C"><config at="/X:i">/c:o</config></behavior>'
        '<meta_behavior name="Top"><behavior>Group</behavior><behavior>C</behavior></meta_behavior>'
    )
    # rewrite so Group inhibits C: C's rule must negate both leaves' sources
    text = text.replace(
        '<behavior>A</behavior><behavior>B</behavior></meta_behavior>',
        '<behavior>A</behavior><behavior>B</behavior><inhibition>C</inhibition></meta_behavior>',
    )
    model = parse_behavior_model(text)
    assert model.plan("C").inhibitor_sources == ("/a:o", "/b:o")


# Brute-force reading of inhibition and observability, straight from the
# node tree: nothing here calls into portarb beyond its types.


def _walk(nodes):
    for node in nodes:
        yield node
        yield from _walk(node.children)


def _leaves(node):
    return [node] if not node.is_meta else [x for c in node.children for x in _leaves(c)]


def _scopes(model, leaf):
    """The leaf and its enclosing meta-behaviors, innermost first."""
    parent = {c.name: n for n in _walk(model.roots) for c in n.children}
    scopes = [leaf]
    while scopes[-1].name in parent:
        scopes.append(parent[scopes[-1].name])
    return scopes


def _brute_inhibitor_sources(model, leaf):
    """Scopes from the leaf outward; per scope its inhibitors in walk order,
    each expanded to its leaves; their sources, first appearance kept."""
    sources = {}
    for scope in _scopes(model, leaf):
        for inhibitor in _walk(model.roots):
            if scope.name in inhibitor.inhibitions:
                for inhibited in _leaves(inhibitor):
                    for conn in inhibited.configuration:
                        sources.setdefault(conn.source)
    return list(sources)


def _constant(expr):
    """True or False when constants decide the expression, else None."""
    if expr in (TRUE, FALSE):
        return expr == TRUE
    if isinstance(expr, Lit):
        return None
    if isinstance(expr, Not):
        inner = _constant(expr.child)
        return None if inner is None else not inner
    values = [_constant(c) for c in expr.children]
    absorbing = isinstance(expr, Or)
    if absorbing in values:
        return absorbing
    return not absorbing if None not in values else None


def _literals(expr, out):
    """Literals left once constants are absorbed, first appearance kept."""
    if _constant(expr) is not None:
        return
    if isinstance(expr, Lit):
        out.setdefault(expr.port)
    for child in (expr.child,) if isinstance(expr, Not) else getattr(expr, "children", ()):
        _literals(child, out)


def _brute_observers(model, network):
    present = set(network.connections)
    outputs = {p for c in network.components for p in c.outputs}
    missing = {}
    for leaf in (n for n in _walk(model.roots) if not n.is_meta):
        needed = {}
        _literals(And(tuple(s.condition for s in reversed(_scopes(model, leaf)))), needed)
        needed.update(dict.fromkeys(_brute_inhibitor_sources(model, leaf)))
        for conn in leaf.configuration:
            for port in needed:
                candidate = Connection(port, conn.destination)
                if port in outputs and candidate not in present:
                    missing.setdefault(candidate)
    return list(missing)


@st.composite
def models_with_networks(draw):
    model = draw(behavior_models(max_leaves=40, max_metas=12))
    observed = draw(st.lists(st.sampled_from(EXPR_PORTS), unique=True))
    outputs = MODEL_SOURCES + tuple(observed)
    configured = {c for n in _walk(model.roots) for c in n.configuration}
    extra = draw(st.sets(st.tuples(st.sampled_from(outputs), st.sampled_from(MODEL_DESTINATIONS))))
    network = NetworkDescription(
        components=(Component("S", outputs=outputs), Component("D", inputs=MODEL_DESTINATIONS)),
        connections=tuple(sorted(configured | {Connection(s, d) for s, d in extra},
                                 key=lambda c: (c.source, c.destination))),
    )
    return model, network


# large inputs are the point here, so slow generation is expected
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(models_with_networks())
def test_indexed_inhibitors_and_observers_match_brute_force(model_and_network):
    model, network = model_and_network
    for leaf in (n for n in _walk(model.roots) if not n.is_meta):
        assert list(model.plan(leaf.name).inhibitor_sources) == (
            _brute_inhibitor_sources(model, leaf)
        )
    added = apply_auto_observe(model, network).connections[len(network.connections):]
    assert list(added) == _brute_observers(model, network)


# References for the linear extraction and the screened conflict check:
# extraction as it was with a normalize per connection and ranks recomputed
# from each part's literals, and a conflict check that builds the BDD of
# every pair.


def _reference_extract(model):
    appearance = {}

    def rank(part):
        literals = condition_literals(part)
        return appearance.get(literals[0], len(appearance)) if literals else -1

    collected = {}
    for leaf in model.leaf_behaviors():
        for conn in leaf.configuration:
            appearance.setdefault(conn.source, len(appearance))
        plan = model.plan(leaf.name)
        for port in plan.needed:
            appearance.setdefault(port, len(appearance))
        condition = plan.condition
        conjuncts = (list(condition.children) if isinstance(condition, And)
                     else [] if condition == TRUE else [condition])
        for port in plan.inhibitor_sources:
            if Not(Lit(port)) not in conjuncts:
                conjuncts.append(Not(Lit(port)))
        for conn in leaf.configuration:
            parts = [c for c in conjuncts if c != Lit(conn.source)]
            constraints, names = collected.setdefault((conn.destination, conn.source), ([], []))
            constraints.append(normalize(And(tuple(sorted(parts, key=rank)))))
            names.append(leaf.name)
    rules = [
        SelectionRule(port, candidate, normalize(Or(tuple(sorted(constraints, key=rank)))),
                      tuple(names))
        for (port, candidate), (constraints, names) in collected.items()
    ]
    return RuleSet(tuple(sorted(rules, key=lambda r: (r.port, r.candidate))))


def _reference_conflict_messages(ruleset):
    manager = BddManager()
    for rule in ruleset.rules:
        manager.var(rule.candidate)
        for port in condition_literals(rule.constraint):
            manager.var(port)
    messages = []
    for port, rules in sorted(ruleset.by_port().items()):
        selects = [manager.ite(manager.var(r.candidate), manager.build(r.constraint), bdd.FALSE)
                   for r in rules]
        for (i, first), (j, second) in itertools.combinations(enumerate(rules), 2):
            witness = manager.first_satisfying(manager.ite(selects[i], selects[j], bdd.FALSE))
            if first.candidate == second.candidate or witness is None:
                continue
            shown = ", ".join(f"{p}={str(v).lower()}" for p, v in witness)
            messages.append(f"rules for {first.candidate} and {second.candidate} at {port} "
                            f"can both select: e.g. {{{shown}}}")
    return messages


def _renamed(expr, renaming):
    if isinstance(expr, Lit):
        return Lit(renaming.get(expr.port, expr.port))
    if isinstance(expr, Not):
        return Not(_renamed(expr.child, renaming))
    if isinstance(expr, (And, Or)):
        return type(expr)(tuple(_renamed(c, renaming) for c in expr.children))
    return expr


def _renamed_node(node, renaming):
    return BehaviorNode(
        node.name,
        node.kind,
        configuration=node.configuration,
        children=tuple(_renamed_node(c, renaming) for c in node.children),
        condition=_renamed(node.condition, renaming),
        inhibitions=node.inhibitions,
    )


@st.composite
def models_naming_sources(draw):
    """Models of up to a few hundred leaves whose conditions may also name
    configured sources, so a condition can name its own leaf's candidate
    or repeat the negation an inhibitor adds. Conditions may be false or
    disjunctive, and with four sources and three destinations most
    (port, candidate) pairs merge several leaves."""
    model = draw(behavior_models(max_leaves=300, max_metas=60))
    renaming = draw(st.dictionaries(st.sampled_from(EXPR_PORTS), st.sampled_from(MODEL_SOURCES)))
    return BehaviorModel(tuple(_renamed_node(r, renaming) for r in model.roots))


_SCREEN_PORTS = MODEL_SOURCES + EXPR_PORTS[:3]
_signed = st.sampled_from(_SCREEN_PORTS).flatmap(
    lambda p: st.sampled_from((Lit(p), Not(Lit(p))))
)


@st.composite
def rule_sets(draw):
    """Rules at two ports over four candidates whose constraints conjoin
    literals, negations and disjunctions of both, naming the candidates
    too: many pairs are excluded by top-level literals, some only inside a
    disjunction, and many share positive literals. A constraint may also
    be `true`, `false`, or a conjunction of signed literals as written,
    not normalized: its literals may repeat, contradict each other or
    negate the rule's own candidate."""
    conjunct = st.one_of(_signed, st.lists(_signed, min_size=2, max_size=3).map(
        lambda cs: Or(tuple(cs))))
    constraint = st.one_of(
        st.lists(conjunct, max_size=4).map(lambda cs: normalize(And(tuple(cs)))),
        st.sampled_from((TRUE, FALSE)),
        st.lists(_signed, min_size=1, max_size=6).map(lambda cs: And(tuple(cs))),
    )
    rules = draw(st.lists(st.tuples(
        st.sampled_from(MODEL_DESTINATIONS[:2]),
        st.sampled_from(MODEL_SOURCES),
        constraint,
    ), max_size=10))
    return RuleSet(tuple(SelectionRule(*rule) for rule in sorted(rules, key=lambda r: r[:2])))


# a condition repeating the negation an inhibitor adds, on a rule no other
# leaf merges into; and two rules that collide while sharing a literal
_REPEATED_NEGATION = parse_behavior_model(
    '<behaviors>'
    '<behavior name="A"><config at="/dst0/in:i">/src0/out:o</config>'
    '<inhibition>B</inhibition></behavior>'
    '<behavior name="B"><config at="/dst0/in:i">/src1/out:o</config>'
    '<condition>not /src0/out:o and /a/out:o</condition></behavior>'
    '</behaviors>'
)


# two cubes that list their literals out of the variable order (/a:o /c:o
# /d:o /b:o /e:o): the witness follows the variable order
_CUBES_OUT_OF_ORDER = RuleSet((
    SelectionRule("/X:i", "/a:o", And((Lit("/c:o"), Not(Lit("/d:o"))))),
    SelectionRule("/X:i", "/b:o", And((Not(Lit("/d:o")), Lit("/e:o"), Lit("/c:o")))),
))


# generating models this large takes most of the time, so examples are few;
# shrinking a failure of models this large runs for many minutes, so a
# failure is reported as found
@settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow],
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
)
@given(models_naming_sources(), rule_sets())
@example(_REPEATED_NEGATION, RuleSet((
    SelectionRule("/X:i", "/a:o", Lit("/c:o")), SelectionRule("/X:i", "/b:o", Lit("/c:o")),
)))
@example(_REPEATED_NEGATION, _CUBES_OUT_OF_ORDER)
def test_linear_extraction_and_screened_conflicts_match_references(model, rules):
    ruleset = extract_rules(model, NetworkDescription())
    reference = _reference_extract(model)
    assert emit_rules(ruleset) == emit_rules(reference)
    assert ruleset == reference
    for checked in (ruleset, rules):
        assert [d.message for d in check_conflicts(checked)] == (
            _reference_conflict_messages(checked)
        )


# rule sets alone are cheap to draw: the cube and BDD paths of the conflict
# check get many more examples than the test above can give them
@settings(max_examples=300, deadline=None)
@given(rule_sets())
def test_conflict_check_on_cubes_and_disjunctions_matches_the_reference(rules):
    assert [d.message for d in check_conflicts(rules)] == _reference_conflict_messages(rules)


def test_extract_rules_matches_golden_file():
    _, _, ruleset, _ = compile_fixture("search-and-track")
    expected = fixture("search-and-track").expected_ruleset.read_text()
    assert emit_rules(ruleset) == expected
    assert len(ruleset.rules) == 5


def test_restarm_variant_reproduces_handwritten_arm_rules():
    model = parse_behavior_model(RESTARM_VARIANT_MODEL.read_text())
    network = parse_network(fixture("search-and-track").network.read_text())
    from portarb import apply_auto_observe

    ruleset = extract_rules(model, apply_auto_observe(model, network))
    assert emit_rules(ruleset) == RESTARM_VARIANT_EXPECTED_RULES.read_text()


def test_single_behavior_yields_unconstrained_rule():
    model = parse_behavior_model('<behavior name="B"><config at="/X:i">/a:o</config></behavior>')
    ruleset = extract_rules(model, SHARED_PORT_NETWORK)
    assert len(ruleset.rules) == 1
    rule = ruleset.rules[0]
    assert rule.port == "/X:i" and rule.candidate == "/a:o"
    assert rule.constraint == TRUE
    assert rule.provenance == ("B",)


def test_duplicate_port_candidate_rules_merge_by_disjunction():
    text = (
        '<behavior name="P"><config at="/X:i">/a:o</config>'
        "<condition>/b:o</condition></behavior>"
        '<behavior name="Q"><config at="/X:i">/a:o</config>'
        "<condition>/c:o</condition></behavior>"
    )
    model = parse_behavior_model(text)
    ruleset = extract_rules(model, SHARED_PORT_NETWORK)
    assert len(ruleset.rules) == 1
    rule = ruleset.rules[0]
    assert rule.constraint == Or((Lit("/b:o"), Lit("/c:o")))
    assert rule.provenance == ("P", "Q")


def test_candidate_positive_literal_is_dropped_from_constraint():
    model = parse_behavior_model(
        '<behavior name="B"><config at="/X:i">/a:o</config>'
        "<condition>/a:o and not /b:o</condition></behavior>"
    )
    ruleset = extract_rules(model, SHARED_PORT_NETWORK)
    assert ruleset.rules[0].constraint == Not(Lit("/b:o"))


def test_adding_an_inhibition_only_strengthens_constraints():
    base_text = (
        '<behaviors>'
        '<behavior name="A"><config at="/X:i">/a:o</config></behavior>'
        '<behavior name="B"><config at="/X:i">/b:o</config></behavior>'
        "</behaviors>"
    )
    stronger_text = base_text.replace(
        '<behavior name="B"><config at="/X:i">/b:o</config></behavior>',
        '<behavior name="B"><config at="/X:i">/b:o</config><inhibition>A</inhibition></behavior>',
    )
    base = extract_rules(parse_behavior_model(base_text), SHARED_PORT_NETWORK)
    stronger = extract_rules(parse_behavior_model(stronger_text), SHARED_PORT_NETWORK)
    assert {(r.port, r.candidate) for r in base.rules} == {
        (r.port, r.candidate) for r in stronger.rules
    }
    after_rules = _by_key(stronger)
    for rule in base.rules:
        after = after_rules[rule.port, rule.candidate]
        before_parts = set(
            rule.constraint.children if isinstance(rule.constraint, And)
            else () if rule.constraint == TRUE else (rule.constraint,)
        )
        after_parts = set(
            after.constraint.children if isinstance(after.constraint, And)
            else () if after.constraint == TRUE else (after.constraint,)
        )
        assert before_parts <= after_parts


def test_wrapping_in_a_true_meta_keeps_rules_bdd_equal():
    model, network, ruleset, _ = compile_fixture("search-and-track")
    wrapped_text = fixture("search-and-track").model.read_text().replace(
        '<meta_behavior name="Search and Track">',
        '<meta_behavior name="Mission">\n   <behavior>Search and Track</behavior>\n'
        "   <condition></condition>\n   <inhibition></inhibition>\n</meta_behavior>\n\n"
        '<meta_behavior name="Search and Track">',
    )
    wrapped_ruleset = extract_rules(parse_behavior_model(wrapped_text), network)
    assert {(r.port, r.candidate) for r in ruleset.rules} == {
        (r.port, r.candidate) for r in wrapped_ruleset.rules
    }
    manager = BddManager()
    wrapped_rules = _by_key(wrapped_ruleset)
    for rule in ruleset.rules:
        other = wrapped_rules[rule.port, rule.candidate]
        assert manager.build(rule.constraint) == manager.build(other.constraint)


def test_extraction_is_byte_deterministic():
    _, _, first, _ = compile_fixture("search-and-track")
    _, _, second, _ = compile_fixture("search-and-track")
    assert emit_rules(first) == emit_rules(second)
    assert emit_rules(first, "json") == emit_rules(second, "json")


def test_unconfigured_connection_gets_no_rule():
    # /collision:o -> /Arm/pos:i is in the network but in no configuration
    _, _, ruleset, _ = compile_fixture("search-and-track")
    rules = _by_key(ruleset)
    assert ("/Arm/pos:i", "/collision:o") not in rules
    assert ("/Gaze/pos:i", "/collision:o") not in rules


def test_fig3_ruleset_has_no_conflicts():
    _, _, ruleset, _ = compile_fixture("search-and-track")
    assert check_conflicts(ruleset) == []


def test_conflict_demo_warns_with_witness():
    _, _, ruleset, _ = compile_fixture("conflict-demo")
    warnings = check_conflicts(ruleset)
    assert len(warnings) == 1
    warning = warnings[0]
    assert warning.severity == WARNING and warning.location == "/Motor/cmd:i"
    assert "/Ping/cmd:o=true" in warning.message
    assert "/Pong/cmd:o=true" in warning.message


def test_conflict_warnings_are_capped_per_port():
    # twelve unconstrained candidates at /X:i: all 66 pairs can both select;
    # three at /Y:i stay under the cap
    candidates = [f"/c{i:02d}:o" for i in range(12)]
    ruleset = RuleSet(
        tuple(SelectionRule("/X:i", c, TRUE) for c in candidates)
        + tuple(SelectionRule("/Y:i", c, TRUE) for c in candidates[:3])
    )
    reference = _reference_conflict_messages(ruleset)
    assert len(reference) == 66 + 3
    warnings = check_conflicts(ruleset)
    assert {(w.severity, w.code) for w in warnings} == {(WARNING, "C1")}
    assert [w.message for w in warnings] == (
        reference[:MAX_C1_PER_PORT]
        + [f"... and {66 - MAX_C1_PER_PORT} more rule pairs at /X:i can both select (66 in all)"]
        + reference[66:]
    )
    assert [w.location for w in warnings] == ["/X:i"] * (MAX_C1_PER_PORT + 1) + ["/Y:i"] * 3


def _capped(messages):
    """Reference C1 messages with the per-port cap applied."""
    per_port = {}
    for message in messages:  # "rules for A and B at PORT can both select: ..."
        per_port.setdefault(message.split(" ", 7)[6], []).append(message)
    capped = []
    for port, shown in per_port.items():
        capped += shown[:MAX_C1_PER_PORT]
        if len(shown) > MAX_C1_PER_PORT:
            capped.append(f"... and {len(shown) - MAX_C1_PER_PORT} more rule pairs at {port} "
                          f"can both select ({len(shown)} in all)")
    return capped


def test_conflict_check_on_256_leaves_of_cube_rules_builds_no_bdd(monkeypatch):
    model_text, network_text = deep_hierarchy_texts()
    model, network = parse_behavior_model(model_text), parse_network(network_text)
    ruleset = extract_rules(model, apply_auto_observe(model, network))
    assert len(ruleset.rules) == 512
    managers = []

    class CountingManager(BddManager):
        def __init__(self, *args, **kwargs):
            managers.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(portarb.compiler, "BddManager", CountingManager)
    messages = [d.message for d in check_conflicts(ruleset)]
    assert managers == []
    reference = _reference_conflict_messages(ruleset)
    assert reference
    assert messages == _capped(reference)


def test_mutually_negating_rules_do_not_conflict():
    ruleset = RuleSet((
        SelectionRule("/X:i", "/a:o", Not(Lit("/b:o")), ("A",)),
        SelectionRule("/X:i", "/b:o", Not(Lit("/a:o")), ("B",)),
    ))
    assert check_conflicts(ruleset) == []


@pytest.mark.parametrize("second_constraint, conflicts", [
    ("cube", True),
    # not /a:o sits inside a disjunction, so only the BDD finds the
    # two rules exclusive
    ("cube_or", False),
])
def test_conflict_check_on_long_cubes(second_constraint, conflicts):
    # the apply recursed once per level: /b:o sits below 1,200 variables
    cube = tuple(Not(Lit(f"/p{i}:o")) for i in range(1200))
    constraints = {
        "cube": And(cube),
        "cube_or": And(cube + (Or((Not(Lit("/a:o")), Lit("/p0:o"))),)),
    }
    ruleset = RuleSet((
        SelectionRule("/X:i", "/a:o", And(cube)),
        SelectionRule("/X:i", "/b:o", constraints[second_constraint]),
    ))
    warnings = check_conflicts(ruleset)
    if not conflicts:
        assert warnings == []
        return
    shown = ", ".join(["/a:o=true"] + [f"/p{i}:o=false" for i in range(1200)] + ["/b:o=true"])
    assert [w.message for w in warnings] == [
        f"rules for /a:o and /b:o at /X:i can both select: e.g. {{{shown}}}"
    ]


def test_each_rule_is_classified_once(monkeypatch):
    # a rule is classified when it is made; the conflict check, the rule
    # text and the arbiter read `rule.cube`
    cube_literals = portarb.model.cube_literals
    calls = []

    def counting(constraint):
        calls.append(constraint)
        return cube_literals(constraint)

    for name, module in list(sys.modules.items()):
        if ((name == "portarb" or name.startswith("portarb."))
                and getattr(module, "cube_literals", None) is cube_literals):
            monkeypatch.setattr(module, "cube_literals", counting)
    fx = fixture("search-and-track")
    model = parse_behavior_model(fx.model.read_text())
    network = parse_network(fx.network.read_text())
    _, ruleset, network = compile_model(model, network, auto_observe=True)
    next(iter_run(load_scenario(fx.scenario), ruleset, network))
    assert len(ruleset.rules) == 5
    assert sorted(map(repr, calls)) == sorted(repr(rule.constraint) for rule in ruleset.rules)


def test_compile_walks_the_rule_literals_once(monkeypatch):
    # validate's V3 check finds the missing observer connections; the
    # compile adds those, the ones apply_auto_observe adds, with no second
    # walk over the leaves' literals
    model_text, network_text = deep_hierarchy_texts(depth=3)
    model, network = parse_behavior_model(model_text), parse_network(network_text)
    unobserved = portarb.model._unobserved_literals
    walks = []
    monkeypatch.setattr(portarb.model, "_unobserved_literals",
                        lambda *args, **kwargs: walks.append(args) or unobserved(*args, **kwargs))
    diagnostics, ruleset, augmented = compile_model(model, network, auto_observe=True)
    assert len(walks) == 1
    monkeypatch.undo()
    expected = apply_auto_observe(model, network)
    assert len(augmented.connections) > len(network.connections)
    assert augmented.connections == expected.connections
    assert augmented.windows == expected.windows
    assert ruleset == extract_rules(model, expected)
    assert diagnostics == validate(model, network, auto_observe=True) + check_conflicts(ruleset)


def _reference_observer_pairs(model, network):
    """The (source, destination) pairs auto-observe adds, one per missing
    pair, in walk order: leaves in document order, their configured
    connections, their plans' needed literals."""
    outputs = network.declared_outputs
    present = {(c.source, c.destination) for c in network.connections}
    added = []
    for leaf in model.leaf_behaviors():
        for conn in leaf.configuration:
            for port in model.plan(leaf.name).needed:
                pair = port, conn.destination
                if port in outputs and pair not in present:
                    present.add(pair)
                    added.append(pair)
    return added


def _deep_hierarchy_scenario():
    model_text, network_text = deep_hierarchy_texts()
    model, network = parse_behavior_model(model_text), parse_network(network_text)
    sources = tuple(PeriodicSource(f"leaf{k}", f"/Leaf{k:03d}/pos:o", 50 + k, k, ((0, 1000),))
                    for k in range(0, 256, 8))
    return Scenario(model, network, 1000, sources)


@pytest.mark.parametrize("name", (*FIXTURE_NAMES, "deep-hierarchy-256"))
def test_compile_and_auto_observe_agree_without_building_connections(name):
    scenario = (_deep_hierarchy_scenario() if name == "deep-hierarchy-256"
                else load_scenario(fixture(name).scenario))
    model, network = scenario.model, scenario.network
    diagnostics, ruleset, compiled = compile_model(model, network, True)
    records = sum(1 for _ in iter_run(scenario, ruleset, compiled))
    assert records > 0
    # neither the compile nor the run reads the observers as connections
    assert "connections" not in vars(compiled)
    observed = apply_auto_observe(model, network)
    assert "connections" not in vars(observed)
    assert compiled.source_masks == observed.source_masks
    assert compiled == observed
    given = len(network.connections)
    assert compiled.connections[:given] == network.connections
    added = [(c.source, c.destination) for c in compiled.connections[given:]]
    assert added == _reference_observer_pairs(model, network)
    assert [d for d in diagnostics if d.code != "C1"] == validate(model, network, auto_observe=True)
    # the derived network reads like a checked one, and observing it again adds nothing
    checked = NetworkDescription(network.components, compiled.connections, dict(network.windows))
    assert pickle.loads(pickle.dumps(observed)) == checked == observed
    assert "connections" in vars(pickle.loads(pickle.dumps(observed)))
    for port in checked.declared_inputs:
        assert observed.incoming(port) == checked.incoming(port)
    assert checked.source_masks == observed.source_masks
    assert apply_auto_observe(model, observed) == observed
    assert validate(model, observed) == []


def test_auto_observe_memory_is_set_by_the_masks_not_the_added_pairs():
    # 256 leaves: 512 given connections, 20,960 added. With a Connection
    # per added pair, the tracemalloc peak was 4.8 MB in apply_auto_observe
    # and 9.4 MB in compile_model, the model's plans built first. With one
    # mask per port and one step per (leaf, configured connection) that
    # adds any, it is 0.26 MB and 6.95 MB; compile_model's is now mostly
    # the rules and the conflict check.
    model_text, network_text = deep_hierarchy_texts()
    peaks = {}
    for name, call in (("apply_auto_observe", lambda m, n: apply_auto_observe(m, n)),
                       ("compile_model", lambda m, n: compile_model(m, n, True))):
        model, network = parse_behavior_model(model_text), parse_network(network_text)
        model.plan(model.leaf_behaviors()[0].name)  # the plans are the model's, built once
        tracemalloc.start()
        try:
            result = call(model, network)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del result
    assert peaks["apply_auto_observe"] < 1_000_000, peaks
    assert peaks["compile_model"] < 8_000_000, peaks


def _reference_v2_v3(model, network, auto_observe):
    """validate's V2 and V3 diagnostics, from a per-pair walk over
    `network.connections`."""
    diagnostics = []
    present = set(network.connections)
    outputs = network.declared_outputs
    pairs = {(c.source, c.destination) for c in network.connections}
    severity = WARNING if auto_observe else ERROR
    found = {}
    for leaf in model.leaf_behaviors():
        needed = model.plan(leaf.name).needed
        for conn in leaf.configuration:
            if conn not in present:
                diagnostics.append(Diagnostic(
                    ERROR, "V2", f"configured connection {conn} is not in the network", leaf.name))
        for port in needed:
            if port not in outputs:
                diagnostics.append(Diagnostic(
                    ERROR, "V3", f"rule literal {port!r} is not a declared output port", leaf.name))
        for conn in leaf.configuration:
            destination = conn.destination
            for port in needed:
                if port not in outputs or (port, destination) in pairs:
                    continue
                if auto_observe:
                    pairs.add((port, destination))
                count = found[destination] = found.get(destination, 0) + 1
                if count > MAX_V3_PER_PORT:
                    continue
                if auto_observe:
                    message = (f"adding observer connection {port} -> {destination} "
                               f"so {leaf.name!r} can evaluate {port}")
                else:
                    message = (f"literal {port} of {leaf.name!r} is not observable at "
                               f"{destination}: connection {port} -> {destination} "
                               "is missing (auto-observe can add it)")
                diagnostics.append(Diagnostic(severity, "V3", message, leaf.name))
    what = "observer connections to" if auto_observe else "unobservable literals at"
    for destination, count in found.items():
        if count > MAX_V3_PER_PORT:
            diagnostics.append(Diagnostic(
                severity, "V3",
                f"... and {count - MAX_V3_PER_PORT} more {what} {destination} ({count} in all)",
                destination))
    return sorted(diagnostics, key=lambda d: (d.location, d.code, d.message))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(models_with_networks(), st.booleans(), st.data())
def test_v2_and_v3_match_a_per_pair_walk(model_and_network, auto_observe, data):
    model, network = model_and_network
    # some outputs go undeclared and some connections missing, so configured
    # connections from undeclared and declared sources are missing too
    sources, sinks = network.components
    outputs = tuple(data.draw(st.sets(st.sampled_from(sources.outputs))))
    kept = data.draw(st.lists(st.booleans(), min_size=len(network.connections),
                              max_size=len(network.connections)))
    network = NetworkDescription(
        (Component("S", outputs=outputs), sinks),
        tuple(c for c, keep in zip(network.connections, kept) if keep and c.source in outputs))
    diagnostics = [d for d in validate(model, network, auto_observe) if d.code in ("V2", "V3")]
    assert diagnostics == _reference_v2_v3(model, network, auto_observe)


def test_rule_cube_is_not_a_field():
    rule = SelectionRule("/X:i", "/a:o", And((Lit("/b:o"), Not(Lit("/c:o")))), ("A",))
    assert rule.cube == [("/b:o", True), ("/c:o", False)]
    assert SelectionRule("/X:i", "/a:o", Or((Lit("/b:o"), Lit("/c:o")))).cube is None
    assert "cube" not in repr(rule)
    copy = pickle.loads(pickle.dumps(rule))
    assert copy == rule and hash(copy) == hash(rule) and copy.cube == rule.cube
    with pytest.raises(AttributeError):
        rule.cube = None


def test_rule_text_rendering():
    rule = SelectionRule("/Arm/pos:i", "/RestArm/pos:o", Not(Lit("/Object/pos:o")))
    assert rule_text(rule) == (
        "/RestArm/pos:o and not /Object/pos:o => Select(/RestArm/pos:o) @ /Arm/pos:i"
    )
    unconstrained = SelectionRule("/Y:i", "/X:o", TRUE)
    assert rule_text(unconstrained) == "/X:o => Select(/X:o) @ /Y:i"
    disjunctive = SelectionRule("/Y:i", "/X:o", Or((Lit("/a:o"), Lit("/b:o"))))
    assert rule_text(disjunctive) == "/X:o and (/a:o or /b:o) => Select(/X:o) @ /Y:i"


def _reference_rule_text(rule):
    """The text rule_text must give: `render_condition` of every
    constraint but `true`, an `Or` in parentheses."""
    head = rule.candidate
    if rule.constraint != TRUE:
        rendered = render_condition(rule.constraint)
        if isinstance(rule.constraint, Or):
            rendered = f"({rendered})"
        head = f"{head} and {rendered}"
    return f"{head} => Select({rule.candidate}) @ {rule.port}"


def _cube(literals):
    """`true`, one literal or negation, or their `And`, from (port, value)
    pairs that may repeat a port with either value."""
    parts = tuple(Lit(port) if value else Not(Lit(port)) for port, value in literals)
    return TRUE if not parts else parts[0] if len(parts) == 1 else And(parts)


_CUBES = st.lists(st.tuples(st.sampled_from(EXPR_PORTS[:3]), st.booleans()), max_size=6).map(_cube)

_A, _B = (Lit(port) for port in EXPR_PORTS[:2])


@settings(max_examples=300, deadline=None)
@given(st.one_of(_CUBES, expressions(max_leaves=8)), st.sampled_from(EXPR_PORTS))
@example(TRUE, EXPR_PORTS[0])
@example(_A, EXPR_PORTS[0])
@example(Not(_A), EXPR_PORTS[0])
@example(And((_A, _A, Not(_B))), EXPR_PORTS[0])
@example(And((_A, Not(_B), Not(_A))), EXPR_PORTS[0])  # needs /a/out:o true and false
@example(Or((_A, Not(_B))), EXPR_PORTS[0])
@example(Not(Not(_A)), EXPR_PORTS[0])
@example(And((_A, Not(And((_A, _B))))), EXPR_PORTS[0])
@example(FALSE, EXPR_PORTS[0])
def test_rule_text_matches_render_condition(constraint, candidate):
    rule = SelectionRule("/Y:i", candidate, constraint)
    assert rule_text(rule) == _reference_rule_text(rule)


def test_emit_rules_empty_and_json():
    assert emit_rules(RuleSet()) == ""
    _, _, ruleset, _ = compile_fixture("search-and-track")
    payload = json.loads(emit_rules(ruleset, "json"))
    assert [r["port"] for r in payload["rules"]] == sorted(r["port"] for r in payload["rules"])
    first = payload["rules"][0]
    assert first == {
        "port": "/Arm/pos:i",
        "candidate": "/Object/pos:o",
        "constraint": "not /collision:o",
        "provenance": ["Track Object"],
    }
    with pytest.raises(ValueError):
        emit_rules(ruleset, "yaml")
