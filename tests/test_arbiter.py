"""Activation windows and per-arrival arbitration decisions."""

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import compile_fixture, run_fixture
from portarb import (
    ACCEPT,
    CONSTRAINT_FALSE,
    DEFAULT_WINDOW_MS,
    FIXTURE_NAMES,
    And,
    Connection,
    DISCARD,
    Decision,
    Lit,
    NO_RULE,
    Not,
    Or,
    PortArbiter,
    SELECTED,
    RuleSet,
    SelectionRule,
    ActivationTable,
    compile_model,
    evaluate_condition,
    fixture,
    load_scenario,
    parse_behavior_model,
    parse_network,
    read_trace,
    run,
)
from portarb.arbiter import Snapshot
from portarb.model import FALSE, TRUE

ARM = "/Arm/pos:i"
ARM_CONNS = (
    Connection("/Object/pos:o", ARM),
    Connection("/RestArm/pos:o", ARM),
    Connection("/collision:o", ARM),
)
OBJ, REST, COLL = ARM_CONNS


def arm_arbiter(with_rules=True):
    if not with_rules:
        return PortArbiter(ARM, ARM_CONNS)
    _, _, ruleset, _ = compile_fixture("search-and-track")
    return PortArbiter(ARM, ARM_CONNS, ruleset)


def test_window_boundary_is_strict():
    table = ActivationTable(window_ms=1000)
    table.record(OBJ, 0)
    assert table.active(OBJ, 999) is True
    assert table.active(OBJ, 1000) is False


def test_unseen_connection_is_inactive():
    table = ActivationTable()
    assert table.active(OBJ, 12345) is False


def test_time_regression_rejected():
    table = ActivationTable()
    table.record(OBJ, 100)
    with pytest.raises(ValueError, match="regression"):
        table.record(REST, 99)


def test_window_must_be_positive():
    with pytest.raises(ValueError):
        ActivationTable(window_ms=0)


def test_unknown_connection_rejected():
    arb = arm_arbiter()
    stranger = Connection("/ghost:o", ARM)
    with pytest.raises(ValueError, match="unknown connection"):
        arb.record_arrival(stranger, 0)
    with pytest.raises(ValueError, match="unknown connection"):
        arb.decide(stranger, 0)


def test_rule_for_missing_incoming_connection_rejected():
    _, _, ruleset, _ = compile_fixture("search-and-track")
    with pytest.raises(ValueError, match="no incoming connection"):
        PortArbiter(ARM, (REST, COLL), ruleset)  # Object rule has no connection


def test_arbiter_from_ruleset_replays_fixture_traces():
    # one arbiter per port, each given the whole rule set, decides every
    # record of the fixture's trace as the simulator did
    for name in ("search-and-track", "be-curious", "conflict-demo"):
        _, network, ruleset, _ = compile_fixture(name)
        groups = ruleset.by_port()
        assert groups == ruleset.by_port() and groups is not ruleset.by_port()
        ports = sorted({conn.destination for conn in network.connections})
        arbiters = {port: PortArbiter(port, network.incoming(port), ruleset) for port in ports}
        trace = run_fixture(name)
        for record in trace.records:
            conn = Connection(record.src, record.dst)
            arb = arbiters[record.dst]
            arb.record_arrival(conn, record.t)
            decision = arb.decide(conn, record.t)
            assert arb.rule_text_for(record.src) == (None if record.rule == "-" else record.rule)
            assert (decision.outcome, decision.reason) == (record.outcome, record.reason), (
                name, record)
            assert dict(decision.assignment) == dict(record.assignment)
        # a rule whose candidate has no connection at its port is rejected
        port = min(groups)
        missing = tuple(c for c in network.incoming(port) if c.source != groups[port][0].candidate)
        with pytest.raises(ValueError, match="no incoming connection"):
            PortArbiter(port, missing, ruleset)


@pytest.mark.parametrize("long_window", (False, True))
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_stepping_api_replays_fixture_runs(name, long_window):
    # slot, arrive and verdict, the steps the simulator takes, give every
    # record of the golden trace (or, with a window longer than the run on
    # every connection, of the simulated one); afterwards each port's
    # arrival map holds exactly the slots whose bits are set
    fx = fixture(name)
    text = fx.network.read_text()
    if long_window:
        text = text.replace("/>", ' window="1000000000"/>')
    model = parse_behavior_model(fx.model.read_text())
    _, ruleset, network = compile_model(model, parse_network(text), True)
    if long_window:
        trace = run(load_scenario(fx.scenario), ruleset, network).records
    else:
        trace = read_trace(fx.expected_trace)
    arbiters = {
        port: PortArbiter(port, network.incoming(port), ruleset,
                          network.windows.get(port, DEFAULT_WINDOW_MS))
        for port in {conn.destination for conn in network.connections}
    }
    masks = dict.fromkeys(arbiters, 0)
    for record in trace:
        arb = arbiters[record.dst]
        slot = arb.slot(Connection(record.src, record.dst))
        mask = masks[record.dst] = arb.arrive(slot, record.t)
        assert arb.verdict(slot, mask) == (record.outcome, record.reason), (name, record)
        assert Snapshot(arb.sources, arb.slots, mask) == record.assignment, (name, record)
    for port, arb in arbiters.items():
        assert len(arb.activation.last_arrival) == bin(masks[port]).count("1"), port
        if long_window:
            # no arrival leaves a window longer than the run
            arrived = {record.src for record in trace if record.dst == port}
            assert masks[port] == sum(1 << arb.slots[source] for source in arrived), port


def test_probe_before_latest_arrival_rejected():
    arb = arm_arbiter()
    arb.record_arrival(OBJ, 100)
    with pytest.raises(ValueError, match="regression"):
        arb.activation_snapshot(99)
    with pytest.raises(ValueError, match="regression"):
        arb.decide(OBJ, 99)
    assert arb.decide(OBJ, 100).assignment["/Object/pos:o"] is True


def test_collision_message_is_no_rule_discard():
    arb = arm_arbiter()
    arb.record_arrival(COLL, 0)
    decision = arb.decide(COLL, 0)
    assert decision.outcome == DISCARD and decision.reason == NO_RULE


def test_object_discarded_while_collision_active():
    arb = arm_arbiter()
    arb.record_arrival(COLL, 0)
    arb.record_arrival(OBJ, 100)
    decision = arb.decide(OBJ, 100)
    assert decision.reason == CONSTRAINT_FALSE
    assert decision.assignment["/collision:o"] is True


def test_restarm_accepted_when_object_inactive():
    arb = arm_arbiter()
    arb.record_arrival(REST, 0)
    decision = arb.decide(REST, 0)
    assert decision.outcome == ACCEPT and decision.reason == SELECTED
    assert decision.assignment == {
        "/Object/pos:o": False, "/RestArm/pos:o": True, "/collision:o": False,
    }


def test_snapshot_after_all_windows_expire():
    arb = arm_arbiter()
    for conn in ARM_CONNS:
        arb.record_arrival(conn, 0)
    assert all(arb.activation_snapshot(5000).values()) is False
    assert any(arb.activation_snapshot(5000).values()) is False


def test_snapshot_mixed_freshness():
    # Object fresh, RestArm stale, collision fresh (search-and-track at t=14100)
    arb = arm_arbiter()
    arb.record_arrival(REST, 13000)
    arb.record_arrival(OBJ, 14000)
    arb.record_arrival(COLL, 14000)
    assert arb.activation_snapshot(14100) == {
        "/Object/pos:o": True, "/RestArm/pos:o": False, "/collision:o": True,
    }


def test_shared_source_port_is_active_if_any_connection_is():
    port = "/Y:i"
    first = Connection("/x:o", port)
    arb = PortArbiter(port, (first,))
    arb.record_arrival(first, 0)
    assert arb.activation_snapshot(500) == {"/x:o": True}


def test_activation_is_independent_of_rules():
    # the same arrival sequence drives identical activation with and
    # without rules, even though one arbiter discards everything
    gated = arm_arbiter(with_rules=True)
    bare = arm_arbiter(with_rules=False)
    arrivals = [(COLL, 0), (OBJ, 100), (REST, 150), (OBJ, 1300), (COLL, 2500)]
    for conn, t in arrivals:
        for arb in (gated, bare):
            arb.record_arrival(conn, t)
            arb.decide(conn, t)
        for probe in (t, t + 999, t + 1000):
            assert gated.activation_snapshot(probe) == bare.activation_snapshot(probe)
    assert all(
        bare.decide(conn, 2500).reason == NO_RULE for conn in ARM_CONNS
    )


def test_decide_is_replayable():
    def replay():
        arb = arm_arbiter()
        out = []
        for t in range(0, 3000, 100):
            for conn in ARM_CONNS:
                arb.record_arrival(conn, t)
                out.append(arb.decide(conn, t))
        return out

    assert replay() == replay()


def test_decision_invariant_accept_iff_selected():
    with pytest.raises(ValueError):
        Decision(ACCEPT, NO_RULE, {})
    with pytest.raises(ValueError):
        Decision(DISCARD, SELECTED, {})


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 5000), min_size=1, max_size=25),
    st.integers(1, 1500),
)
def test_activation_replay_matches_brute_force(times, window):
    """Replay arrivals chronologically; at each step the table must agree
    with a scan over the raw arrival prefix."""
    times = sorted(times)
    table = ActivationTable(window_ms=window)
    conn = Connection("/x:o", "/y:i")
    for i, t in enumerate(times):
        table.record(conn, t)
        prefix = times[: i + 1]
        for probe in (t, t + window - 1, t + window, t + window + 1):
            expected = any(0 <= probe - a < window for a in prefix)
            assert table.active(conn, probe) == expected


PORT = "/P:i"
SOURCE_POOL = tuple(f"/s{i}:o" for i in range(12))  # sorts s0, s1, s10, s11, s2, ...
GHOST = "/ghost:o"  # never connected to PORT
_CONSTRAINTS = st.recursive(
    st.one_of(st.just(TRUE), st.just(FALSE), st.sampled_from(SOURCE_POOL + (GHOST,)).map(Lit)),
    lambda kids: st.one_of(
        kids.map(Not),
        st.lists(kids, min_size=2, max_size=3).map(lambda cs: And(tuple(cs))),
        st.lists(kids, min_size=2, max_size=3).map(lambda cs: Or(tuple(cs))),
    ),
    max_leaves=6,
)


@st.composite
def arbitration_cases(draw):
    """One port with 1-12 sources, a window, sorted arrivals (equal times and
    exact `last + window` boundaries included) and rules for some sources;
    constraints may name sources of the pool that are not connected here."""
    sources = draw(st.permutations(SOURCE_POOL))[: draw(st.integers(1, 12))]
    window = draw(st.integers(1, 1500))
    gaps = st.one_of(
        st.sampled_from((0, 1, window - 1, window, window + 1)), st.integers(0, 2 * window)
    )
    arrivals, last, t = [], {}, 0
    for source, gap, to_boundary in draw(st.lists(
        st.tuples(st.sampled_from(sources), gaps, st.booleans()), min_size=1, max_size=40,
    )):
        if to_boundary and source in last and last[source] + window >= t:
            t = last[source] + window
        else:
            t += gap
        last[source] = t
        arrivals.append((source, t))
    rules = [
        SelectionRule(PORT, source, draw(_CONSTRAINTS))
        for source in sources if draw(st.booleans())
    ]
    return sources, window, arrivals, rules


@settings(max_examples=200, deadline=None)
@given(arbitration_cases())
def test_arbiter_matches_brute_force(case):
    """Every decision and snapshot agrees with a scan over the raw arrival
    prefix and a direct evaluation of the arriving source's rule."""
    sources, window, arrivals, rules = case
    conns = {source: Connection(source, PORT) for source in sources}
    arb = PortArbiter(PORT, conns.values(), RuleSet(tuple(rules)), window_ms=window)
    rule_of = {rule.candidate: rule for rule in rules}

    def scan(prefix, probe):
        # an arrival counts until it is `window` ms old
        return {s: any(0 <= probe - t < window for src, t in prefix if src == s) for s in sources}

    for i, (source, t) in enumerate(arrivals):
        arb.record_arrival(conns[source], t)
        decision = arb.decide(conns[source], t)
        expected = scan(arrivals[: i + 1], t)
        rule = rule_of.get(source)
        if rule is None:
            want = (DISCARD, NO_RULE)
        elif evaluate_condition(rule.constraint, expected):
            want = (ACCEPT, SELECTED)
        else:
            want = (DISCARD, CONSTRAINT_FALSE)
        assert (decision.outcome, decision.reason) == want
        assert decision.assignment == expected
        assert sorted(decision.assignment.items()) == sorted(expected.items())
    first, last = arrivals[0][1], arrivals[-1][1]
    for probe in (first - 1, last - 1):
        # a probe may not precede the port's latest arrival
        with pytest.raises(ValueError, match="regression"):
            arb.activation_snapshot(probe)
    for probe in (last, last + window - 1, last + window, last + window + 1):
        assert arb.activation_snapshot(probe) == scan(arrivals, probe)
    assert len(arb.activation.last_arrival) == bin(arb.activation_snapshot(last).mask).count("1")
