"""Shared helpers: the compile/run pipeline over fixtures and hypothesis
strategies for condition expressions and behavior models."""

import hypothesis.strategies as st

from portarb import (
    And,
    BehaviorModel,
    BehaviorNode,
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
)
from portarb.model import BEHAVIOR, FALSE, META_BEHAVIOR, TRUE


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


# ---------------------------------------------------------------------------
# hypothesis strategies

EXPR_PORTS = tuple(f"/{c}/out:o" for c in "abcdefgh")


def port_literals():
    return st.sampled_from(EXPR_PORTS).map(Lit)


def expressions(max_leaves=10):
    base = st.one_of(st.just(TRUE), st.just(FALSE), port_literals())
    return st.recursive(
        base,
        lambda kids: st.one_of(
            kids.map(Not),
            st.lists(kids, min_size=2, max_size=3).map(lambda cs: And(tuple(cs))),
            st.lists(kids, min_size=2, max_size=3).map(lambda cs: Or(tuple(cs))),
        ),
        max_leaves=max_leaves,
    )


_NAME_ALPHABET = "ABCDEFabcdef_ 0123456789"
_names = (
    st.text(alphabet=_NAME_ALPHABET, min_size=1, max_size=10)
    .map(str.strip)
    .filter(lambda s: s)
)


# built once: a recursive strategy is costly to set up on every draw
_LEAF_CONDITIONS = expressions(max_leaves=4)
_META_CONDITIONS = expressions(max_leaves=3)
MODEL_SOURCES = tuple(f"/src{i}/out:o" for i in range(4))
MODEL_DESTINATIONS = tuple(f"/dst{i}/in:i" for i in range(3))


@st.composite
def behavior_models(draw, max_leaves=4, max_metas=2):
    """Valid-by-construction random models: unique names, leaves with
    configuration, metas grouping earlier nodes, sibling-only inhibitions."""
    leaf_count = draw(st.integers(1, max_leaves))
    meta_count = draw(st.integers(0, max_metas))
    total = leaf_count + meta_count
    names = draw(st.lists(_names, min_size=total, max_size=total, unique=True))

    available: list[BehaviorNode] = []
    for name in names[:leaf_count]:
        pair_count = draw(st.integers(1, 2))
        pairs = draw(st.lists(
            st.tuples(st.sampled_from(MODEL_SOURCES), st.sampled_from(MODEL_DESTINATIONS)),
            min_size=pair_count, max_size=pair_count, unique=True,
        ))
        available.append(BehaviorNode(
            name=name,
            kind=BEHAVIOR,
            configuration=tuple(Connection(s, d) for s, d in pairs),
            condition=draw(_LEAF_CONDITIONS),
        ))

    for name in names[leaf_count:]:
        take = draw(st.integers(1, min(3, len(available))))
        indices = draw(st.lists(
            st.integers(0, len(available) - 1), min_size=take, max_size=take, unique=True,
        ))
        children = tuple(available[i] for i in sorted(indices))
        for i in sorted(indices, reverse=True):
            del available[i]
        available.append(BehaviorNode(
            name=name,
            kind=META_BEHAVIOR,
            children=children,
            condition=draw(_META_CONDITIONS),
        ))

    # inhibitions point at earlier siblings, so the relation stays acyclic
    def with_inhibitions(siblings):
        out = []
        for i, node in enumerate(siblings):
            targets = tuple(
                s.name for s in siblings[:i] if draw(st.booleans())
            )
            children = tuple(with_inhibitions(node.children)) if node.children else ()
            out.append(BehaviorNode(
                name=node.name,
                kind=node.kind,
                configuration=node.configuration,
                children=children,
                condition=node.condition,
                inhibitions=targets,
            ))
        return out

    return BehaviorModel(roots=tuple(with_inhibitions(available)))
