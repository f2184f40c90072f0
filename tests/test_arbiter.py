"""Activation windows and per-arrival arbitration decisions."""

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import compile_fixture, deep_hierarchy_texts, evaluate_condition, run_fixture
import portarb.arbiter
from portarb import (
    ACCEPT,
    BddManager,
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
    apply_auto_observe,
    compile_model,
    extract_rules,
    fixture,
    load_scenario,
    parse_behavior_model,
    parse_network,
    read_trace,
    rule_text,
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


def test_table_probe_before_the_latest_arrival_rejected():
    # the latest arrival is at 2000: an answer about 1500 or -5 would need
    # the arrivals the table drops
    table = ActivationTable(window_ms=1000)
    table.record("k", 0)
    table.record("k", 2000)
    for probe in (1500, 1999, -5):
        for ask in (lambda: table.active("k", probe), lambda: table.active("j", probe),
                    lambda: table.expired(probe)):
            with pytest.raises(ValueError, match="time regression: probe"):
                ask()
    assert table.active("k", 2000) is True and table.active("k", 3000) is False


def test_record_returns_the_keys_it_drops():
    table = ActivationTable(window_ms=1000)
    assert table.record(OBJ, 0) == []  # the first arrival walks the map
    assert table.record(REST, 500) is None  # no key can leave before 1000
    assert table.record(COLL, 1200) == [OBJ]
    assert list(table.last_arrival.items()) == [(REST, 500), (COLL, 1200)]
    # the probe drops nothing, and the table agrees with it
    assert table.expired(1500) == [REST]
    assert [table.active(key, 1500) for key in ARM_CONNS] == [False, False, True]
    assert list(table.last_arrival) == [REST, COLL]
    assert table.record(REST, 1600) == []  # the front arrived again
    assert table.record(OBJ, 2200) == [COLL]
    assert list(table.last_arrival.items()) == [(REST, 1600), (OBJ, 2200)]


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


def test_connection_to_another_port_rejected():
    message = "connection /Object/pos:o -> /Gaze/pos:i does not end at /Arm/pos:i"
    with pytest.raises(ValueError, match=message):
        PortArbiter(ARM, (REST, Connection("/Object/pos:o", "/Gaze/pos:i")))


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
        texts = {(rule.port, rule.candidate): rule_text(rule) for rule in ruleset.rules}
        trace = run_fixture(name)
        for record in trace.records:
            conn = Connection(record.src, record.dst)
            arb = arbiters[record.dst]
            arb.record_arrival(conn, record.t)
            decision = arb.decide(conn, record.t)
            assert record.rule == texts.get((record.dst, record.src), "-")
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


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_replay_by_connection_reuses_the_arbiters_snapshot(name, monkeypatch):
    # record_arrival, decide and activation_snapshot at the arrival's time,
    # the benchmark's replay of a trace, make one Snapshot per change of a
    # port's mask: decide hands out the arbiter's own snapshot
    _, network, ruleset, _ = compile_fixture(name)
    arbiters = {
        port: PortArbiter(port, network.incoming(port), ruleset,
                          network.windows.get(port, DEFAULT_WINDOW_MS))
        for port in {conn.destination for conn in network.connections}
    }
    trace = read_trace(fixture(name).expected_trace)
    made = []
    init = Snapshot.__init__

    def counting_init(self, *args):
        made.append(self)
        init(self, *args)

    monkeypatch.setattr(Snapshot, "__init__", counting_init)
    masks, changes = {}, 0
    for record in trace:
        arb = arbiters[record.dst]
        conn = Connection(record.src, record.dst)
        arb.record_arrival(conn, record.t)
        decision = arb.decide(conn, record.t)
        assert decision.assignment is arb.snapshot is arb.activation_snapshot(record.t)
        assert (decision.outcome, decision.reason) == (record.outcome, record.reason)
        assert decision.assignment == record.assignment, (name, record)
        mask = sum(1 << arb.slots[s] for s, active in record.assignment.items() if active)
        if masks.get(record.dst) != mask:
            masks[record.dst] = mask
            changes += 1
    monkeypatch.undo()
    assert len(made) == changes < len(trace)
    # a probe after slots expired gets a snapshot of its own
    for arb in arbiters.values():
        held = arb.snapshot
        later = arb.activation_snapshot(10**9)
        assert later is not held and not any(later.values()) and arb.snapshot is held


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


# (slot, t) arrivals at a port of four sources with window 100
EXPIRY_CASES = {
    # the front slot 0 leaves the window exactly at 100
    "front-expires-one-window-later": [(0, 0), (1, 50), (2, 100)],
    "one-ms-earlier-nothing-expires": [(0, 0), (1, 50), (2, 99)],
    # slot 0 arrives again while it is the front: slot 1 is the front from
    # then on, still in the window at 100 and out of it at 110
    "front-arrives-again": [(0, 0), (1, 10), (0, 50), (3, 100), (2, 109), (2, 110),
                            (1, 149), (3, 150)],
    # three slots leave at one arrival, the arriving front among them
    "several-expire-at-once": [(0, 0), (1, 0), (2, 0), (3, 30), (0, 100)],
    "first-arrival-at-zero": [(2, 0), (1, 99), (0, 100)],
    "first-arrival-at-a-negative-time": [(2, -250), (1, -151), (0, -150), (3, -51)],
}


@pytest.mark.parametrize("arrivals", EXPIRY_CASES.values(), ids=EXPIRY_CASES)
def test_arrive_expires_exactly_the_slots_out_of_the_window(arrivals):
    sources = tuple(f"/s{i}:o" for i in range(4))
    arb = PortArbiter("/p:i", [Connection(source, "/p:i") for source in sources], window_ms=100)
    for i, (slot, t) in enumerate(arrivals):
        # a scan over the arrival prefix: each slot's last arrival counts
        # until it is 100 ms old
        last = {s: a for s, a in arrivals[: i + 1]}
        expected = sum(1 << s for s, a in last.items() if t - a < 100)
        assert arb.arrive(slot, t) == expected, (slot, t)
        assert arb.snapshot.mask == expected
        assert set(arb.activation.last_arrival) == {s for s in range(4) if expected >> s & 1}


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


WIDE_POOL = tuple(f"/w{i:03d}:o" for i in range(100))
WIDE_GHOSTS = ("/ghost0:o", "/ghost1:o")  # never connected to PORT


@st.composite
def wide_cubes(draw, candidate, arriving):
    """A cube of up to 20 literals over the arriving sources and the pool
    (some not connected at the port), perhaps with a repeated literal, a
    contradiction and `not candidate`; as `true`, one literal or an `And`."""
    # a source that arrives is often active, any other port rarely is, and
    # a ghost never is
    literal = st.one_of(
        st.tuples(st.sampled_from(arriving), st.booleans()),
        st.tuples(st.sampled_from(WIDE_POOL), st.sampled_from((False, False, True))),
        st.tuples(st.sampled_from(WIDE_GHOSTS), st.booleans()),
    )
    literals = draw(st.lists(literal, max_size=17))
    if literals and draw(st.booleans()):
        literals.append(draw(st.sampled_from(literals)))
    if literals and draw(st.booleans()):
        port, value = draw(st.sampled_from(literals))
        literals.append((port, not value))
    if draw(st.booleans()):
        literals.append((candidate, False))
    parts = draw(st.permutations([Lit(p) if v else Not(Lit(p)) for p, v in literals]))
    if not parts:
        return TRUE
    return parts[0] if len(parts) == 1 else And(tuple(parts))


@st.composite
def wide_arbitration_cases(draw):
    """One port with 65-100 sources, so masks span several int digits, a
    window, sorted arrivals and, for the sources that arrive, rules that are
    cubes, `true`, `false`, disjunctions of cubes or nested negations."""
    sources = WIDE_POOL[: draw(st.integers(65, len(WIDE_POOL)))]
    window = draw(st.integers(1, 1500))
    # the first arrival is from the last slot, above the first two digits
    arrivals, t = [(sources[-1], 0)], 0
    for source, gap in draw(st.lists(
        st.tuples(st.sampled_from(sources),
                  st.one_of(st.integers(0, window // 8), st.just(window))),
        min_size=4, max_size=80,
    )):
        t += gap
        arrivals.append((source, t))
    rules = []
    arriving = tuple(dict.fromkeys(source for source, _ in arrivals))
    for source in arriving:
        cubes = wide_cubes(source, arriving)
        constraint = draw(st.one_of(
            cubes, st.sampled_from((None, TRUE, FALSE)),
            st.lists(cubes, min_size=2, max_size=3).map(lambda cs: Or(tuple(cs))),
            cubes.map(lambda c: Not(Not(c))),
        ))
        if constraint is not None:
            rules.append(SelectionRule(PORT, source, constraint))
    return sources, window, arrivals, rules


@settings(max_examples=100, deadline=None)
@given(wide_arbitration_cases())
def test_arbiter_on_wide_masks_matches_brute_force(case):
    """Over more than 64 sources, every verdict agrees with a direct
    evaluation of the arriving source's rule over a scan of the raw
    arrivals, and every mask with that scan."""
    sources, window, arrivals, rules = case
    arb = PortArbiter(PORT, (Connection(s, PORT) for s in sources), RuleSet(tuple(rules)),
                      window_ms=window)
    rule_of = {rule.candidate: rule for rule in rules}
    times = {source: [] for source in sources}
    for source, t in arrivals:
        times[source].append(t)
        expected = {s: any(0 <= t - a < window for a in times[s]) for s in sources}
        slot = arb.slot(Connection(source, PORT))
        mask = arb.arrive(slot, t)
        rule = rule_of.get(source)
        if rule is None:
            want = (DISCARD, NO_RULE)
        elif evaluate_condition(rule.constraint, expected):
            want = (ACCEPT, SELECTED)
        else:
            want = (DISCARD, CONSTRAINT_FALSE)
        assert arb.verdict(slot, mask) == want, (rule, source)
        assert Snapshot(arb.sources, arb.slots, mask) == expected


def test_cube_ports_build_no_bdd(monkeypatch):
    model_text, network_text = deep_hierarchy_texts()
    model, network = parse_behavior_model(model_text), parse_network(network_text)
    network = apply_auto_observe(model, network)
    ruleset = extract_rules(model, network)
    managers = []

    class CountingManager(BddManager):
        def __init__(self, *args, **kwargs):
            managers.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(portarb.arbiter, "BddManager", CountingManager)
    ports = sorted({conn.destination for conn in network.connections})
    arbiters = [PortArbiter(port, network.incoming(port), ruleset) for port in ports]
    assert len(arbiters) == 256 and len(ruleset.rules) == 512
    assert managers == []
    assert all(arb.manager is None for arb in arbiters)

    # a port with one disjunctive rule builds one manager, and a second
    # such rule shares it
    port = ports[0]
    first, second, *rest = ruleset.for_port(port)
    disjunctive = SelectionRule(port, first.candidate, Or((Lit(second.candidate), Not(Lit(GHOST)))))
    arb = PortArbiter(port, network.incoming(port), RuleSet((disjunctive, second, *rest)))
    assert managers == [arb.manager]
    both = SelectionRule(port, second.candidate, Or((Lit(first.candidate), Lit(GHOST))))
    arb = PortArbiter(port, network.incoming(port), RuleSet((disjunctive, both, *rest)))
    assert managers[1:] == [arb.manager]


def test_non_cube_decide_after_the_latest_arrival_matches_brute_force():
    # at the latest arrival's mask a rule that is not a cube reads the held
    # snapshot; once a slot has expired, `decide` asks about another mask
    a, b, c = "/a:o", "/b:o", "/c:o"
    window = 100
    rules = (
        SelectionRule(PORT, a, Or((And((Lit(b), Lit(c))), Not(Lit(c))))),
        SelectionRule(PORT, b, Or((Lit(a), Lit(GHOST)))),
        SelectionRule(PORT, c, Or((Not(Lit(a)), Lit(GHOST)))),
    )
    conns = {source: Connection(source, PORT) for source in (a, b, c)}
    arb = PortArbiter(PORT, conns.values(), RuleSet(rules), window_ms=window)
    arrivals = [(b, 0), (c, 40), (a, 60)]
    for source, t in arrivals:
        arb.record_arrival(conns[source], t)
    held = arb.snapshot
    seen = set()
    for t in range(60, 200):
        expected = {s: any(0 <= t - u < window for src, u in arrivals if src == s) for s in conns}
        for rule in rules:
            decision = arb.decide(conns[rule.candidate], t)
            if evaluate_condition(rule.constraint, expected):
                want = (ACCEPT, SELECTED)
            else:
                want = (DISCARD, CONSTRAINT_FALSE)
            assert (decision.outcome, decision.reason) == want, (rule.candidate, t)
            assert decision.assignment == expected
            seen.add((decision.assignment is held, decision.reason))
    assert arb.snapshot is held
    assert seen == {(is_held, reason) for is_held in (True, False)
                    for reason in (SELECTED, CONSTRAINT_FALSE)}


def test_non_cube_decision_after_its_arrival_makes_no_snapshot(monkeypatch):
    a, b, c = "/a:o", "/b:o", "/c:o"
    rules = (
        SelectionRule(PORT, a, Or((Lit(b), Lit(GHOST)))),
        SelectionRule(PORT, b, Not(And((Lit(a), Lit(c))))),
    )
    conns = {source: Connection(source, PORT) for source in (a, b, c)}
    arb = PortArbiter(PORT, conns.values(), RuleSet(rules), window_ms=100)
    made = []
    init = Snapshot.__init__

    def counting_init(self, *args):
        made.append(self)
        init(self, *args)

    monkeypatch.setattr(Snapshot, "__init__", counting_init)
    outcomes = set()
    for source, t in [(a, 0), (b, 10), (a, 20), (c, 30), (b, 40), (b, 150), (a, 160)]:
        slot = arb.slot(conns[source])
        before, previous = len(made), arb.snapshot
        mask = arb.arrive(slot, t)
        assert len(made) == before + (arb.snapshot is not previous)
        made_by_arrive = len(made)
        outcome = arb.verdict(slot, mask)
        decision = arb.decide(conns[source], t)
        assert len(made) == made_by_arrive
        assert decision.assignment is arb.snapshot
        assert (decision.outcome, decision.reason) == outcome
        outcomes.add(outcome)
    assert outcomes == {(ACCEPT, SELECTED), (DISCARD, NO_RULE), (DISCARD, CONSTRAINT_FALSE)}
