"""Shared helpers: the compile/run pipeline over fixtures, a generated
256-leaf model, malformed model documents, and hypothesis strategies for
condition expressions and behavior models."""

import itertools
import tempfile
from collections.abc import Mapping
from pathlib import Path

import hypothesis.strategies as st
import pytest

from portarb import (
    And,
    BehaviorModel,
    BehaviorNode,
    BoolExpr,
    Connection,
    Lit,
    Not,
    Or,
    compile_model,
    fixture,
    has_errors,
    load_scenario,
    parse_behavior_model,
    parse_network,
    run,
    write_trace,
)
from portarb.model import BEHAVIOR, FALSE, META_BEHAVIOR, TRUE, FalseExpr, TrueExpr


def compile_fixture(name, auto_observe=True):
    """The library compile pipeline over a named fixture; returns
    (model, effective network, ruleset, diagnostics)."""
    fx = fixture(name)
    model = parse_behavior_model(fx.model.read_text())
    network = parse_network(fx.network.read_text())
    diagnostics, ruleset, network = compile_model(model, network, auto_observe)
    assert not has_errors(diagnostics), diagnostics
    return model, network, ruleset, diagnostics


def run_fixture(name, horizon_ms=None):
    fx = fixture(name)
    scenario = load_scenario(fx.scenario)
    _, network, ruleset, _ = compile_fixture(name)
    return run(scenario, ruleset, network=network, horizon_ms=horizon_ms)


def deep_hierarchy_texts(branching=4, depth=4):
    """(model XML, network XML) of a complete `branching`-ary tree of
    meta-behaviors `depth` levels deep: 256 leaves by default.

    There are as many input ports as leaves. Leaf k is the only source of
    /Leaf<k>/pos:o and is configured at ports k and 5k + 17 (modulo the port
    count). Sibling groups take star inhibition (the first member inhibits
    the others) and chain inhibition (each inhibits the next) in turn. The
    network holds only the configured connections, so every inhibitor
    source a leaf's rules name needs an observer connection. Every fourth
    port has a window override."""
    leaves = branching ** depth
    inputs = [f"/Port{i:03d}/pos:i" for i in range(leaves)]
    kinds: dict[str, str] = {}  # definition order: children first
    bodies: dict[str, list[str]] = {}
    inhibitions: dict[str, list[str]] = {}
    connections: dict[tuple[str, int], None] = {}  # (source, port slot)
    leaf_numbers, group_numbers = itertools.count(), itertools.count()

    def build(path):
        name = "Node" + "".join(f"-{i}" for i in path)
        if len(path) == depth:
            k = next(leaf_numbers)
            source = f"/Leaf{k:03d}/pos:o"
            slots = (k % leaves, (5 * k + 17) % leaves)
            connections.update(dict.fromkeys((source, slot) for slot in slots))
            kinds[name] = "behavior"
            bodies[name] = [f'<config at="{inputs[slot]}">{source}</config>' for slot in slots]
            return name
        children = [build(path + (i,)) for i in range(branching)]
        if next(group_numbers) % 2 == 0:
            inhibitions[children[0]] = children[1:]
        else:
            for first, second in zip(children, children[1:]):
                inhibitions[first] = [second]
        kinds[name] = "meta_behavior"
        bodies[name] = [f"<behavior>{child}</behavior>" for child in children]
        return name

    build(())
    model = ["<behaviors>"]
    for name, kind in kinds.items():
        inhibited = ", ".join(inhibitions.get(name, ()))
        model.append(f'<{kind} name="{name}">{"".join(bodies[name])}'
                     f"<inhibition>{inhibited}</inhibition></{kind}>")
    model.append("</behaviors>")
    network = ["<application>"]
    network += [f'<module name="out{k}"><output>/Leaf{k:03d}/pos:o</output></module>'
                for k in range(leaves)]
    network += [f'<module name="in{i}"><input>{port}</input></module>'
                for i, port in enumerate(inputs)]
    for source, slot in connections:
        window = ' window="250"' if slot % 4 == 0 else ""
        network.append(f'<connection from="{source}" to="{inputs[slot]}"{window}/>')
    network.append("</application>")
    return "\n".join(model) + "\n", "\n".join(network) + "\n"


# `</behaviour>` closes `<behavior>`: expat reports a mismatched tag just past its `</`
MISMATCHED_ONE = '<behavior name="A"><config at="/B:i">/C:o</config></behaviour>'
MISMATCHED_SECOND = '<define name="d">x</define><behavior name="B"></behaviour>'
DECLARATION = '<?xml version="1.0"?>'
AMPLIFIED = ('<!DOCTYPE r [<!ENTITY a "' + "x" * 1000 + '"><!ENTITY b "' + "&a;" * 1000
             + '"><!ENTITY c "' + "&b;" * 10 + '">]><r>&c;</r>')

# malformed behavior models and the start of the error each is reported with
MALFORMED_MODELS = [
    pytest.param(MISMATCHED_ONE, "mismatched tag: line 1, column 52", id="one-root"),
    pytest.param(MISMATCHED_SECOND, "mismatched tag: line 1, column 48", id="second-root"),
    pytest.param(DECLARATION + MISMATCHED_SECOND, "mismatched tag: line 1, column 69",
                 id="declaration-second-root"),
    pytest.param(f"{DECLARATION}\n{MISMATCHED_SECOND}", "mismatched tag: line 2, column 48",
                 id="declaration-line-second-root"),
    pytest.param(f'\n  <define name="d">x</define>\n  {MISMATCHED_SECOND}',
                 "mismatched tag: line 3, column 50", id="indented-second-root"),
    pytest.param(AMPLIFIED, "limit on input amplification factor", id="amplified-dtd"),
]


def trace_text(records):
    """The text write_trace writes for `records`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        write_trace(records, path)
        return path.read_text(encoding="utf-8")


def evaluate_condition(expr: BoolExpr, assignment: Mapping[str, bool]) -> bool:
    """Direct evaluation; ports missing from the assignment count as inactive."""
    if isinstance(expr, TrueExpr):
        return True
    if isinstance(expr, FalseExpr):
        return False
    if isinstance(expr, Lit):
        return bool(assignment.get(expr.port, False))
    if isinstance(expr, Not):
        return not evaluate_condition(expr.child, assignment)
    if isinstance(expr, And):
        return all(evaluate_condition(c, assignment) for c in expr.children)
    if isinstance(expr, Or):
        return any(evaluate_condition(c, assignment) for c in expr.children)
    raise TypeError(f"not a BoolExpr: {expr!r}")


# ---------------------------------------------------------------------------
# hypothesis strategies

EXPR_PORTS = tuple(f"/{c}/out:o" for c in "abcdefgh")


def port_literals(ports=EXPR_PORTS):
    return st.sampled_from(ports).map(Lit)


def expressions(max_leaves=10, max_depth=None, ports=EXPR_PORTS):
    """Conditions over `ports`: constants, literals, `not`, 2-3-way
    `and`/`or`. Without `max_depth`, at most `max_leaves` leaves but `not`
    chains of any length; with it, `max_leaves` is ignored and operators
    nest at most `max_depth` deep, so that drawing hundreds of conditions
    for one example never runs past hypothesis's depth limit."""
    base = st.one_of(st.just(TRUE), st.just(FALSE), port_literals(ports))

    def extend(kids):
        return st.one_of(
            kids.map(Not),
            st.lists(kids, min_size=2, max_size=3).map(lambda cs: And(tuple(cs))),
            st.lists(kids, min_size=2, max_size=3).map(lambda cs: Or(tuple(cs))),
        )

    if max_depth is None:
        return st.recursive(base, extend, max_leaves=max_leaves)
    strategy = base
    for _ in range(max_depth):
        strategy = st.one_of(strategy, extend(strategy))
    return strategy


# name stems: "-" is not in the alphabet, so "<stem>-<index>" is unique
_NAME_STEMS = st.text(alphabet="ABCDEFabcdef_ 0123456789", max_size=8)
# built once: a recursive strategy is costly to set up on every draw. A model
# of up to _SMALL_MODEL nodes draws its conditions from the unbounded ones;
# in a larger one, some condition almost surely runs too deep and hypothesis
# discards the whole example, so it draws them two operators deep.
_SMALL_MODEL = 64
_LEAF_CONDITIONS = expressions(max_leaves=4)
_META_CONDITIONS = expressions(max_leaves=3)
_SHALLOW_CONDITIONS = expressions(max_depth=2)
_INDEX = st.integers(0, 1 << 16)
MODEL_SOURCES = tuple(f"/src{i}/out:o" for i in range(4))
MODEL_DESTINATIONS = tuple(f"/dst{i}/in:i" for i in range(3))
_PAIRS = tuple((s, d) for s in MODEL_SOURCES for d in MODEL_DESTINATIONS)


def _pick(draw, count, size):
    """Up to `count` distinct indices below `size`, drawn without retries
    from one strategy built once; a model draws hundreds of these."""
    pool = list(range(size))
    return [pool.pop(draw(_INDEX) % len(pool)) for _ in range(min(count, size))]


@st.composite
def behavior_models(draw, max_leaves=4, max_metas=2):
    """Valid-by-construction random models: unique names, leaves with
    configuration, metas grouping earlier nodes, sibling-only inhibitions."""
    leaf_count = draw(st.integers(1, max_leaves))
    meta_count = draw(st.integers(0, max_metas))
    total = leaf_count + meta_count
    names = [f"{draw(_NAME_STEMS)}-{i}".strip() for i in range(total)]
    small = total <= _SMALL_MODEL
    leaf_conditions = _LEAF_CONDITIONS if small else _SHALLOW_CONDITIONS
    meta_conditions = _META_CONDITIONS if small else _SHALLOW_CONDITIONS

    available: list[BehaviorNode] = []
    for name in names[:leaf_count]:
        pairs = _pick(draw, 1 + draw(_INDEX) % 2, len(_PAIRS))
        available.append(BehaviorNode(
            name=name,
            kind=BEHAVIOR,
            configuration=tuple(Connection(*_PAIRS[i]) for i in pairs),
            condition=draw(leaf_conditions),
        ))

    for name in names[leaf_count:]:
        indices = sorted(_pick(draw, 1 + draw(_INDEX) % 3, len(available)))
        children = tuple(available[i] for i in indices)
        for i in reversed(indices):
            del available[i]
        available.append(BehaviorNode(
            name=name,
            kind=META_BEHAVIOR,
            children=children,
            condition=draw(meta_conditions),
        ))

    # inhibitions point at earlier siblings, so the relation stays acyclic;
    # any subset of them, one bitmask per node
    def with_inhibitions(siblings):
        out = []
        for i, node in enumerate(siblings):
            mask = draw(st.integers(0, (1 << i) - 1))
            chosen = [j for j in range(i) if mask >> j & 1]
            children = tuple(with_inhibitions(node.children)) if node.children else ()
            out.append(BehaviorNode(
                name=node.name,
                kind=node.kind,
                configuration=node.configuration,
                children=children,
                condition=node.condition,
                inhibitions=tuple(siblings[j].name for j in chosen),
            ))
        return out

    return BehaviorModel(roots=tuple(with_inhibitions(available)))
