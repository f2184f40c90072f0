"""Scenario loading, the event loop, and trace serialization."""

import heapq
import itertools
import json
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import compile_fixture, evaluate_condition, expressions, run_fixture, trace_text
from portarb import (
    ACCEPT,
    DEFAULT_WINDOW_MS,
    FIXTURE_NAMES,
    NO_RULE,
    And,
    BehaviorModel,
    Component,
    Connection,
    Lit,
    NetworkDescription,
    Not,
    ParseError,
    RuleSet,
    Scenario,
    SelectionRule,
    fixture,
    iter_run,
    load_scenario,
    read_trace,
    rule_text,
    run,
    write_trace,
)
from portarb.model import TRUE
from portarb import simnet
from portarb.arbiter import Snapshot
from portarb.cli import EXIT_USAGE, main
from portarb.simnet import PeriodicSource, TraceRecord


def test_load_search_and_track_scenario():
    scenario = load_scenario(fixture("search-and-track").scenario)
    assert scenario.horizon_ms == 20000
    assert len(scenario.components) == 5
    face = next(s for s in scenario.components if s.name == "Face Detector")
    assert face.period_ms == 100 and face.active == ((5000, 9000),)


def _scenario_file(tmp_path, body):
    fx = fixture("conflict-demo")
    payload = {
        "model": str(fx.model),
        "network": str(fx.network),
        "horizon_ms": 1000,
        "components": [],
    }
    payload.update(body)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    return path


def test_empty_component_list_runs_to_empty_trace(tmp_path):
    path = _scenario_file(tmp_path, {})
    scenario = load_scenario(path)
    _, _, ruleset, _ = compile_fixture("conflict-demo")
    trace = run(scenario, ruleset, network=scenario.network)
    assert trace.records == ()


def test_zero_period_rejected(tmp_path):
    path = _scenario_file(tmp_path, {"components": [
        {"name": "P", "source": {"port": "/Ping/cmd:o", "period_ms": 0, "active": [[0, 100]]}},
    ]})
    with pytest.raises(ParseError, match="period_ms"):
        load_scenario(path)


def test_unknown_port_rejected(tmp_path):
    path = _scenario_file(tmp_path, {"components": [
        {"name": "P", "source": {"port": "/ghost:o", "period_ms": 100, "active": [[0, 100]]}},
    ]})
    with pytest.raises(ParseError, match="not declared"):
        load_scenario(path)


def test_overlapping_intervals_rejected(tmp_path):
    path = _scenario_file(tmp_path, {"components": [
        {"name": "P", "source": {"port": "/Ping/cmd:o", "period_ms": 100,
                                 "active": [[0, 500], [400, 900]]}},
    ]})
    with pytest.raises(ParseError, match="disjoint"):
        load_scenario(path)


@pytest.mark.parametrize("entry, message", [
    ({"sink": "/Motor/cmd:i"}, "sink of 'C' must be an object"),
    ({"sink": {"port": "/Ping/cmd:o"}}, "sink port '/Ping/cmd:o' of 'C' must be an input"),
    ({"sink": {"port": "/ghost:i"}}, "sink port '/ghost:i' is not declared in the network"),
    ({"source": ["/Ping/cmd:o"]}, "source of 'C' must be an object"),
    ({"source": {"port": "/Motor/cmd:i", "period_ms": 100}},
     "source port '/Motor/cmd:i' of 'C' must be an output"),
    ({"source": {"port": "/ghost:o", "period_ms": 100}},
     "source port '/ghost:o' is not declared in the network"),
    *(({"source": {"port": "/Ping/cmd:o", "period_ms": 100, "active": active}}, message)
      for active, message in [
          (5, "'active' must be a list of [start, end) pairs"),
          ([[0]], "bad interval [0]: expected [start, end]"),
          ([[0, 5, 9]], "bad interval [0, 5, 9]: expected [start, end]"),
          ([[0, "5"]], "bad interval [0, '5']: expected [start, end]"),
          ([[True, 5]], "bad interval [True, 5]: expected [start, end]"),
          ([7], "bad interval 7: expected [start, end]"),
          ([[-1, 5]], "bad interval [-1, 5): need 0 <= start < end"),
          ([[5, 5]], "bad interval [5, 5): need 0 <= start < end"),
      ]),
])
def test_component_entry_checks(tmp_path, entry, message):
    path = _scenario_file(tmp_path, {"components": [{"name": "C", **entry}]})
    with pytest.raises(ParseError) as info:
        load_scenario(path)
    assert str(info.value) == f"{path}: {message}"


SINK = {"sink": {"port": "/Motor/cmd:i"}}


@pytest.mark.parametrize("body, message", [
    ([], "top level must be a JSON object"),
    ("scenario", "top level must be a JSON object"),
    ({"components": {}}, "'components' must be a list"),
    ({"components": [5]}, "bad component entry 5"),
    ({"components": [SINK]}, f"bad component entry {SINK!r}"),
    ({"components": [{"name": "C", **SINK}, {"name": "C", **SINK}]},
     "duplicate component name 'C'"),
])
def test_scenario_shape_checks(tmp_path, body, message):
    if type(body) is dict:
        path = _scenario_file(tmp_path, body)
    else:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(body))
    with pytest.raises(ParseError) as info:
        load_scenario(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("name", [{"a": 1}, None, 7, ["P"], True])
def test_component_name_must_be_a_string(tmp_path, capsys, name):
    # was passed through str(): the scenario simulated with exit 0
    path = _scenario_file(tmp_path, {"components": [
        {"name": name, "sink": {"port": "/Motor/cmd:i"}},
    ]})
    message = f"{path}: component name {name!r} must be a string"
    with pytest.raises(ParseError) as info:
        load_scenario(path)
    assert str(info.value) == message
    assert main(["simulate", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("role", ["source", "sink"])
@pytest.mark.parametrize("port", [["x"], 123, None, True])
def test_component_port_must_be_a_string(tmp_path, capsys, role, port):
    # was passed through str(): ["x"] was reported as the port name "['x']"
    path = _scenario_file(tmp_path, {"components": [
        {"name": "Name", role: {"port": port, "period_ms": 100}},
    ]})
    message = f"{path}: {role} port {port!r} of 'Name' must be a string"
    with pytest.raises(ParseError) as info:
        load_scenario(path)
    assert str(info.value) == message
    assert main(["simulate", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("role", ["source", "sink"])
@pytest.mark.parametrize("port", ["bad", "", "/Ping/cmd", "/Ping cmd:o", "/Ping/cmd:o\n",
                                  "/Motor/cmd:i\n"])
def test_malformed_component_port_names_the_scenario(tmp_path, capsys, role, port):
    # check_port's error went through without the scenario's path
    path = _scenario_file(tmp_path, {"components": [
        {"name": "Name", role: {"port": port, "period_ms": 100}},
    ]})
    message = f"{path}: invalid port name {port!r}: expected /segment(/segment)*:i or :o"
    with pytest.raises(ParseError) as info:
        load_scenario(path)
    assert str(info.value) == message
    assert main(["simulate", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_component_needs_exactly_one_role(tmp_path):
    path = _scenario_file(tmp_path, {"components": [{"name": "P"}]})
    with pytest.raises(ParseError, match="source/sink"):
        load_scenario(path)


def test_missing_keys_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"model": "m.xml"}')
    with pytest.raises(ParseError, match="missing"):
        load_scenario(path)


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError, match="JSON"):
        load_scenario(path)


def _emits_at(source, t):
    """Reference: an instant emits when one of the active intervals covers it."""
    return any(start <= t < end for start, end in source.active)


def _instants(source, horizon):
    """The source's emission instants before `horizon`, in increasing order."""
    return list(itertools.chain.from_iterable(source.instant_ranges(horizon)))


def test_source_emission_schedule():
    source = PeriodicSource("S", "/a:o", period_ms=100, active=((200, 400),))
    assert [t for t in range(0, 600, 100) if _emits_at(source, t)] == [200, 300]
    assert _instants(source, 600) == [200, 300]
    assert _instants(source, 300) == [200]
    late = PeriodicSource("L", "/a:o", period_ms=30, phase_ms=70, active=((0, 100), (150, 200)))
    assert _instants(late, 1000) == [70, 160, 190]


def _wake_chain_emissions(sources, horizon):
    """Reference emission order: one wake per source per period from its
    phase, kept in a (time, insertion counter) heap; a wake emits when one
    of the source's active intervals covers it."""
    heap, seq = [], itertools.count()
    for source in sources:
        if source.phase_ms < horizon:
            heapq.heappush(heap, (source.phase_ms, next(seq), "wake", source))
    emissions = []
    while heap:
        t, _, kind, source = heapq.heappop(heap)
        if kind == "emit":
            emissions.append((t, source.port))
            continue
        if _emits_at(source, t):
            heapq.heappush(heap, (t, next(seq), "emit", source))
        if t + source.period_ms < horizon:
            heapq.heappush(heap, (t + source.period_ms, next(seq), "wake", source))
    return emissions


SCHEDULE_OUTPUTS = tuple(f"/out{i}:o" for i in range(8))
SCHEDULE_INPUTS = ("/gate:i", "/free:i")
# /out7:o has no connection; /free:i has no rules, so everything there is NO_RULE
SCHEDULE_NETWORK = NetworkDescription(
    components=(Component("out", outputs=SCHEDULE_OUTPUTS), Component("in", inputs=SCHEDULE_INPUTS)),
    connections=tuple(
        [Connection(src, "/gate:i") for src in SCHEDULE_OUTPUTS[:7]]
        + [Connection(src, "/free:i") for src in SCHEDULE_OUTPUTS[:7:2]]
    ),
)
SCHEDULE_RULES = RuleSet(tuple(SelectionRule("/gate:i", src, TRUE) for src in SCHEDULE_OUTPUTS[:7]))


@st.composite
def periodic_sources(draw):
    """1-8 sources, periods 1-60, phases 0-80, 0-3 disjoint intervals in
    [0, 220]. Periods come from a small pool and phases from a few residues,
    so same-instant emissions with equal periods and congruent but unequal
    phases are common; sources mostly have ports of their own, since the
    order of two emissions from one port does not show in the trace. Often
    a source's phase is one of the first two emission instants of an earlier
    source with a longer period, in intervals they share: there the phase
    rank, not the period, orders the two."""
    periods = draw(st.lists(st.integers(1, 60), min_size=1, max_size=3))
    residues = draw(st.lists(st.integers(0, 59), min_size=1, max_size=2))
    sources = []
    for index in range(draw(st.integers(1, 8))):
        period = draw(st.sampled_from(periods))
        residue = draw(st.sampled_from(residues)) % period
        phase = residue + period * draw(st.integers(0, (80 - residue) // period))
        bounds = sorted(draw(st.lists(st.integers(0, 220), unique=True, max_size=6)))
        bounds = bounds[:len(bounds) // 2 * 2]
        active = tuple(zip(bounds[::2], bounds[1::2]))
        longer = [s for s in sources if s.period_ms > period]
        if longer and draw(st.booleans()):
            other = draw(st.sampled_from(longer))
            shared = _instants(other, 200)[:2]  # early, so inside most horizons
            if shared:
                phase, active = draw(st.sampled_from(shared)), other.active
        port = index if draw(st.booleans()) else draw(st.integers(0, index))
        sources.append(PeriodicSource(
            f"S{index}",
            SCHEDULE_OUTPUTS[port],
            period_ms=period,
            phase_ms=phase,
            active=active,
        ))
    return sources


@settings(max_examples=300, deadline=None)
@given(
    periodic_sources(),
    st.integers(0, 200),
    st.none() | st.integers(0, 200),
)
def test_schedule_matches_the_wake_chain(sources, horizon, truncate):
    scenario = Scenario(BehaviorModel(), SCHEDULE_NETWORK, horizon, tuple(sources))
    trace = run(scenario, SCHEDULE_RULES, network=scenario.network, horizon_ms=truncate)

    end = horizon if truncate is None else min(horizon, truncate)
    expected = [
        (t, port, dst)
        for t, port in _wake_chain_emissions(sources, end)
        for dst in sorted(c.destination for c in SCHEDULE_NETWORK.connections if c.source == port)
    ]
    assert [(r.t, r.src, r.dst) for r in trace.records] == expected
    # every arrival at /gate:i is accepted and none at /free:i
    assert [(r.t, r.src, r.dst) for r in trace.records if r.outcome == ACCEPT] == [
        e for e in expected if e[2] == "/gate:i"
    ]


def test_schedule_with_the_phase_in_a_later_interval_and_a_cut_interval():
    # P's phase lies in its second interval, so its first interval is empty;
    # the horizon ends its third interval between two periods
    phased = PeriodicSource("P", SCHEDULE_OUTPUTS[0], period_ms=30, phase_ms=170,
                            active=((0, 100), (150, 260), (300, 400)))
    longer = PeriodicSource("Q", SCHEDULE_OUTPUTS[1], period_ms=50, phase_ms=20, active=((0, 400),))
    assert _instants(phased, 330) == [170, 200, 230, 320]
    scenario = Scenario(BehaviorModel(), SCHEDULE_NETWORK, 330, (phased, longer))
    emissions = [(r.t, r.src) for r in run(scenario, SCHEDULE_RULES, SCHEDULE_NETWORK) if r.dst == "/gate:i"]
    assert emissions == _wake_chain_emissions((phased, longer), 330)
    # both emit at 170 and at 320: P goes first at its phase, the longer
    # period first after it
    p, q = SCHEDULE_OUTPUTS[:2]
    assert [e for e in emissions if e[0] in (170, 320)] == [(170, p), (170, q), (320, q), (320, p)]


def test_search_and_track_phase_facts():
    trace = run_fixture("search-and-track")
    records = trace.records
    face_at_gaze = [r for r in records if r.src == "/Face/pos:o"]
    assert face_at_gaze and all(r.outcome == ACCEPT for r in face_at_gaze)
    rl_during_face = [
        r for r in records if r.src == "/RandomLook/pos:o" and 5000 <= r.t < 9000
    ]
    assert rl_during_face and all(r.reason == "CONSTRAINT_FALSE" for r in rl_during_face)
    arm_during_collision = [
        r for r in records if r.dst == "/Arm/pos:i" and 14000 <= r.t < 16000
    ]
    assert arm_during_collision
    assert all(r.outcome == "discard" for r in arm_during_collision)


def test_conservation():
    scenario = load_scenario(fixture("search-and-track").scenario)
    _, network, ruleset, _ = compile_fixture("search-and-track")
    trace = run(scenario, ruleset, network=network)
    fan_degree = {}
    for conn in network.connections:
        fan_degree[conn.source] = fan_degree.get(conn.source, 0) + 1
    expected = 0
    for source in scenario.components:
        emissions = sum(
            1 for t in range(source.phase_ms, scenario.horizon_ms, source.period_ms)
            if _emits_at(source, t)
        )
        expected += emissions * fan_degree.get(source.port, 0)
    assert len(trace.records) == expected
    accepted = sum(1 for r in trace.records if r.outcome == ACCEPT)
    discarded = sum(1 for r in trace.records if r.outcome == "discard")
    assert accepted + discarded == len(trace.records)


def test_determinism_byte_identical_runs():
    first = run_fixture("search-and-track")
    second = run_fixture("search-and-track")
    assert trace_text(first) == trace_text(second)


def test_empty_model_discards_everything_with_no_rule():
    trace = run_fixture("no-rules")
    assert len(trace.records) == 620
    assert all(r.outcome == "discard" and r.reason == NO_RULE for r in trace.records)
    assert all(r.rule == "-" for r in trace.records)


def test_horizon_truncation():
    trace = run_fixture("search-and-track", horizon_ms=5000)
    assert trace.records and all(r.t < 5000 for r in trace.records)


def test_write_trace_empty(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_trace(run_fixture("search-and-track", horizon_ms=0), path)
    assert path.read_bytes() == b""


def test_write_and_read_trace_roundtrip(tmp_path):
    trace = run_fixture("be-curious")
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(trace.records)
    assert '"outcome":"accept"' in lines[0]
    again = read_trace(path)
    assert trace_text(again) == path.read_text()
    assert all(type(r.assignment) is dict for r in again)


def test_read_trace_rejects_garbage(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text("not json at all\n")
    with pytest.raises(ParseError):
        read_trace(path)
    path.write_text('{"t": 1}\n')
    with pytest.raises(ParseError, match="expected fields"):
        read_trace(path)


@pytest.mark.parametrize("value", ('"yes"', "1", "0", "null", "[true]", '{"x":1}', '{"x":true}'))
@pytest.mark.parametrize("spaced", (False, True), ids=("layout", "spaced"))
def test_read_trace_rejects_assignment_values_that_are_not_booleans(tmp_path, value, spaced):
    # was read as given, so `explain` printed `/c:o=yes` and `/c:o active`
    good = '{"t":1,"src":"/a:o","dst":"/b:i","outcome":"accept","reason":"SELECTED","rule":"r",'
    lines = [good + '"assignment":{"/a:o":true,"/c:o":false}}',
             good + '"assignment":{"/a:o":true,"/c:o":' + value + "}}"]
    if spaced:
        lines = [json.dumps(json.loads(line)) for line in lines]
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        read_trace(path)
    assert str(exc.value) == f"{path}:2: 'assignment' values must be true or false"


@pytest.mark.parametrize("char", ("\u2028", "\u2029", "\x85"))
def test_read_trace_ends_lines_at_newlines_only(tmp_path, char):
    # JSON Lines ends a line at "\n" (or "\r\n") alone; a JSON string may
    # hold these characters raw, though str.splitlines() breaks at them
    record = TraceRecord(3, f"/a{char}:o", "/b:i", "accept", "SELECTED", f"r{char}",
                         {f"/a{char}:o": True, "/c:o": False})
    payload = record._asdict()
    layout = json.dumps(payload, ensure_ascii=False, separators=(",", ":"))
    spaced = json.dumps(payload, ensure_ascii=False)
    path = tmp_path / "trace.jsonl"
    path.write_bytes(f"{layout}\n{spaced}\r\n".encode("utf-8"))
    assert read_trace(path) == (record, record)
    path.write_bytes(f"{layout}\n{spaced}\nnot json {char} at all\n".encode("utf-8"))
    with pytest.raises(ParseError, match=r"trace\.jsonl:3: not valid JSON"):
        read_trace(path)


def test_trace_matches_expected_golden_files():
    for name in ("search-and-track", "no-rules", "be-curious", "conflict-demo"):
        trace = run_fixture(name)
        assert trace_text(trace) == fixture(name).expected_trace.read_text(), name


def test_trace_record_field_order():
    record = TraceRecord(5, "/a:o", "/b:i", "accept", "SELECTED", "r", {"/a:o": True})
    assert trace_text([record]) == (
        '{"t":5,"src":"/a:o","dst":"/b:i","outcome":"accept","reason":"SELECTED",'
        '"rule":"r","assignment":{"/a:o":true}}\n'
    )


def test_trace_record_is_a_named_tuple_with_the_dataclass_repr(tmp_path):
    payload = {"t": 5, "src": "/a:o", "dst": "/b:i", "outcome": "discard",
               "reason": "NO_RULE", "rule": "-", "assignment": {"/a:o": True, "/c:o": False}}
    record = TraceRecord(**payload)
    # the text the frozen dataclass printed
    assert repr(record) == (
        "TraceRecord(t=5, src='/a:o', dst='/b:i', outcome='discard', reason='NO_RULE', "
        "rule='-', assignment={'/a:o': True, '/c:o': False})"
    )
    assert record == tuple(payload.values())
    t, src, *_ = record
    assert (t, src) == (5, "/a:o")
    path = tmp_path / "trace.jsonl"
    write_trace([record], path)
    assert path.read_text() == _reference_line(record) + "\n"
    assert read_trace(path) == (record,)


def test_times_never_decrease():
    trace = run_fixture("search-and-track")
    times = [r.t for r in trace.records]
    assert times == sorted(times)


def _reference_line(record):
    """The trace line format as plain json.dumps writes it."""
    payload = {
        "t": record.t,
        "src": record.src,
        "dst": record.dst,
        "outcome": record.outcome,
        "reason": record.reason,
        "rule": record.rule,
        "assignment": {k: record.assignment[k] for k in sorted(record.assignment)},
    }
    return json.dumps(payload, separators=(",", ":"))


def test_trace_lines_escape_like_json_dumps(tmp_path):
    # legal port names that JSON must escape: a quote, a backslash, non-ASCII
    quote, slash, cafe = '/q"uote:o', "/back\\slash:o", "/café:o"
    dest = '/dést"\\:i'
    network = NetworkDescription(
        components=(Component("out", outputs=(quote, slash, cafe)), Component("in", inputs=(dest,))),
        connections=tuple(Connection(src, dest) for src in (quote, slash, cafe)),
        windows={dest: 150},
    )
    ruleset = RuleSet((
        SelectionRule(dest, quote, Not(Lit(slash))),
        SelectionRule(dest, cafe, TRUE),
    ))
    scenario = Scenario(BehaviorModel(), network, horizon_ms=1000, components=(
        PeriodicSource("q", quote, period_ms=70, active=((0, 800),)),
        PeriodicSource("b", slash, period_ms=110, phase_ms=5, active=((300, 600),)),
        PeriodicSource("c", cafe, period_ms=90, active=((0, 1000),)),
    ))
    trace = run(scenario, ruleset, network=scenario.network)
    assert {r.outcome for r in trace.records} == {"accept", "discard"}
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    assert path.read_text(encoding="utf-8") == "".join(
        _reference_line(r) + "\n" for r in trace.records
    )

    by_hand = TraceRecord(7, cafe, dest, "discard", "CONSTRAINT_FALSE", 'say "é" \\',
                          {cafe: True, quote: False, slash: True})
    assert trace_text([by_hand]) == _reference_line(by_hand) + "\n"


# source names that sort apart and that JSON must escape
_NAME_STEMS = ("/s", '/q"', "/b\\", "/\u00e9")


@st.composite
def _mask_steps(draw, fanin):
    """A port's masks over its fan-in: repeats, zero, all ones, one-bit
    flips, jumps to any mask and stray bits past the last slot (which a
    snapshot ignores), in any mix."""
    full = (1 << fanin) - 1
    masks, mask = [], draw(st.integers(0, full))
    steps = ("repeat", "zero", "ones", "flip", "jump", "stray")
    for step in draw(st.lists(st.sampled_from(steps), min_size=1, max_size=12)):
        if step == "zero":
            mask = 0
        elif step == "ones":
            mask = full
        elif step == "flip" and fanin:
            mask ^= 1 << draw(st.integers(0, fanin - 1))
        elif step == "jump":
            mask = draw(st.integers(0, full))
        elif step == "stray":
            mask |= 1 << fanin + draw(st.integers(0, 3))
        masks.append(mask)
    return masks


@st.composite
def snapshot_traces(draw):
    """Records over a few ports of fan-in 0 to 70, their masks interleaved
    port by port as the simulator would, some with a plain dict over the
    same names in place of the snapshot."""
    ports = []
    for p in range(draw(st.integers(1, 4))):
        fanin = draw(st.integers(0, 70))
        sources = tuple(sorted(
            f"{draw(st.sampled_from(_NAME_STEMS))}{p}.{i}:o" for i in range(fanin)
        ))
        slots = {source: slot for slot, source in enumerate(sources)}
        ports.append((f"/p{p}:i", sources, slots, draw(_mask_steps(fanin))))
    order = draw(st.permutations([p for p, port in enumerate(ports) for _ in port[3]]))
    records, taken = [], [0] * len(ports)
    for t, p in enumerate(order):
        dst, sources, slots, masks = ports[p]
        mask = masks[taken[p]]
        taken[p] += 1
        assignment = Snapshot(sources, slots, mask)
        if draw(st.integers(0, 4)) == 0:
            assignment = dict(assignment)
        outcome, reason = draw(st.sampled_from(
            (("accept", "SELECTED"), ("discard", "NO_RULE"), ("discard", "CONSTRAINT_FALSE"))
        ))
        src = sources[t % len(sources)] if sources else "/none:o"
        records.append(TraceRecord(t, src, dst, outcome, reason, f"rule {dst}", assignment))
    return records


@settings(max_examples=150, deadline=None)
@given(snapshot_traces())
def test_write_trace_matches_json_dumps_per_line(tmp_path_factory, records):
    expected = "".join(_reference_line(r) + "\n" for r in records)
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    for given_records in (records, (r for r in records)):
        write_trace(given_records, path)
        assert path.read_text(encoding="utf-8") == expected


def _recorded_writes(monkeypatch):
    """The lengths of the texts each file opened through Path.open is
    handed in write calls, in order."""
    writes = []
    real_open = simnet.Path.open

    def recording_open(self, *args, **kwargs):
        fh = real_open(self, *args, **kwargs)
        write = fh.write
        fh.write = lambda text: (writes.append(len(text)), write(text))[1]
        return fh

    monkeypatch.setattr(simnet.Path, "open", recording_open)
    return writes


def _distinct_mask_records(count, fanin=70):
    """`count` records at one port, each with a mask of its own."""
    sources = tuple(f"/s{i:02}:o" for i in range(fanin))
    slots = {source: slot for slot, source in enumerate(sources)}
    return [
        TraceRecord(t, sources[t % fanin], "/p:i", "accept", "SELECTED", "-",
                    Snapshot(sources, slots, (t * 0x9E3779B97F4A7C15) % (1 << fanin)))
        for t in range(count)
    ]


def test_trace_formatter_memory_does_not_grow_with_masks():
    records = _distinct_mask_records(1000)
    assert len({r.assignment.mask for r in records}) == len(records)
    line = simnet._TraceFormatter().line
    line(records[0])
    tracemalloc.start()
    try:
        for record in records[1:]:
            line(record)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # a text per mask would keep about 1.2 MB
    assert kept < 10_000


def test_write_trace_writes_whole_lines_in_blocks(tmp_path, monkeypatch):
    records = _distinct_mask_records(300)
    lines = [_reference_line(r) + "\n" for r in records]
    expected = "".join(lines)
    block = simnet._BLOCK_CHARS
    assert len(expected) > 3 * block and len(expected) % block
    writes = _recorded_writes(monkeypatch)
    path = tmp_path / "trace.jsonl"
    write_trace(records, path)
    assert path.read_text(encoding="utf-8") == expected
    assert len(writes) >= 4 and sum(writes) == len(expected)
    assert all(size <= block for size in writes)
    # each block but the last is as full as whole lines allow
    longest = max(map(len, lines))
    assert all(size > block - longest for size in writes[:-1]) and writes[-1] < block

    writes.clear()
    for empty in ([], iter(())):
        write_trace(empty, path)
        assert path.read_bytes() == b""
    assert writes == []


_TRACE_FIELDS = ("t", "src", "dst", "outcome", "reason", "rule", "assignment")


def _reference_read_trace(path):
    """The plain reader, json.loads on every line and then the field checks
    (names, then types in field order); read_trace must agree with it on
    every file."""
    records = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: not valid JSON: {exc}") from None
        if not isinstance(payload, dict) or set(payload) != set(_TRACE_FIELDS):
            raise ParseError(f"{path}:{lineno}: expected fields {', '.join(_TRACE_FIELDS)}")
        if type(payload["t"]) is not int:  # json.loads makes bool for true/false
            raise ParseError(f"{path}:{lineno}: 't' must be an integer")
        for key in ("src", "dst", "outcome", "reason", "rule"):
            if type(payload[key]) is not str:
                raise ParseError(f"{path}:{lineno}: {key!r} must be a string")
        if not isinstance(payload["assignment"], dict):
            raise ParseError(f"{path}:{lineno}: 'assignment' must be an object")
        if any(type(value) is not bool for value in payload["assignment"].values()):
            raise ParseError(f"{path}:{lineno}: 'assignment' values must be true or false")
        records.append(TraceRecord(**payload))
    return tuple(records)


# quotes, backslashes, a control character, non-ASCII and U+2028, which a
# JSON string may hold raw and which must not end its line
_trace_text = st.text(alphabet='/ab:o"\\\x1f\u00e9\u2028 ', max_size=6)
_trace_scalars = st.one_of(st.booleans(), st.none(), st.integers(), st.floats(), _trace_text)
_trace_t = st.one_of(
    st.integers(-5, 5000), st.integers(), st.floats(), st.booleans(), st.none(), _trace_text
)
# number texts json.loads rejects or reads differently from int()
_raw_t = st.sampled_from(("01", "-0", "1e3", "1.0", "\u0663", "1\u0663", "1_000", "0x1", "9" * 25))


@st.composite
def trace_lines(draw):
    """A trace line: in write_trace's layout, the same with string fields
    written unescaped (and perhaps an assignment that is no object), or
    rewritten (keys reordered or repeated, other separators, raw non-ASCII,
    any `t`); then perhaps broken once: `t` replaced by a raw number text,
    a character inserted, truncated or extended."""
    layout = draw(st.booleans())
    assignment = draw(st.dictionaries(
        st.one_of(st.sampled_from(("/a:o", "/b:o", "assignment")), _trace_text),
        # write_trace writes booleans; a list is a value both readers reject
        st.booleans() | st.lists(st.booleans(), max_size=1) if layout
        else _trace_scalars | st.dictionaries(_trace_text, _trace_scalars),
        max_size=4,
    ))
    payload = {
        "t": draw(st.integers(0, 5000) if layout else _trace_t),
        **{key: draw(st.sampled_from(("/a:o", "/b:i", "accept")) | _trace_text)
           for key in _TRACE_FIELDS[1:-1]},
        "assignment": assignment,
    }
    if layout and draw(st.booleans()):
        line = _reference_line(TraceRecord(**payload))
    elif layout:
        value = assignment if draw(st.booleans()) else draw(_trace_scalars)
        line = f'{{"t":{payload["t"]}' + "".join(
            f',"{key}":"{payload[key]}"' for key in _TRACE_FIELDS[1:-1]
        ) + f',"assignment":{json.dumps(value, separators=(",", ":"))}}}'
    else:
        ensure_ascii = draw(st.booleans())
        separators = draw(st.sampled_from(((",", ":"), (", ", ": "), (",", ":  "))))
        keys = draw(st.permutations(_TRACE_FIELDS)) if draw(st.booleans()) else _TRACE_FIELDS
        pairs = [(key, payload[key]) for key in keys]
        for _ in range(draw(st.integers(0, 2))):
            pairs.insert(draw(st.integers(0, len(pairs))),
                         (draw(st.sampled_from(_TRACE_FIELDS)), draw(_trace_scalars)))
        line = "{" + separators[0].join(
            json.dumps(key) + separators[1]
            + json.dumps(value, ensure_ascii=ensure_ascii, separators=separators)
            for key, value in pairs
        ) + "}"
    breakage = draw(st.sampled_from(("none", "raw t", "insert", "truncate", "extend")))
    head = '{"t":' + json.dumps(payload["t"]) + ","
    if breakage == "raw t" and line.startswith(head):
        line = '{"t":' + draw(_raw_t) + "," + line[len(head):]
    elif breakage == "insert":
        at = draw(st.integers(0, len(line)))
        char = draw(st.sampled_from((" ", "\t", "{", "}", ",", '"', "\\", "\x1f", "\u2028")))
        line = line[:at] + char + line[at:]
    elif breakage == "truncate":
        line = line[:draw(st.integers(0, len(line)))]
    elif breakage == "extend":
        line += draw(st.sampled_from((" ", ",", "x")))
    return line


def _read_outcome(reader, path):
    try:
        records = reader(path)
    except Exception as exc:  # the exception type and message must match too
        return type(exc).__name__, str(exc)
    assert all(type(r.assignment) is dict for r in records)
    # no two records share an assignment or any object or list inside one
    shared = [id(r.assignment) for r in records] + [
        id(v) for r in records for v in r.assignment.values() if isinstance(v, (dict, list))
    ]
    assert len(set(shared)) == len(shared)
    return "records", repr(records)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(trace_lines(), st.sampled_from(("", " \t"))), max_size=6),
       st.sampled_from(("\n", "\r\n")), st.booleans())
@example(lines=['{"t":1,"src":"/a:o","dst":"/b:i","outcome":"accept","reason":"",'
                '"rule":"","assignment":{"/a:o":{"b":[1]},"/b:o":[true]}}'],
         newline="\n", trailing=True)
def test_read_trace_matches_the_json_loads_reader(tmp_path_factory, lines, newline, trailing):
    # each line alone, as the first bad line ends a read; then all of them,
    # and the ones read alone without error twice over, so that assignment
    # texts repeat
    directory = tmp_path_factory.mktemp("trace")

    def compare(name, text):
        path = directory / name
        path.write_bytes(text.encode("utf-8"))
        got = _read_outcome(read_trace, path)
        assert got == _read_outcome(_reference_read_trace, path)
        return got[0] == "records"

    good = [line for i, line in enumerate(lines) if compare(f"{i}.jsonl", line + newline)]
    compare("all.jsonl", newline.join(lines) + (newline if trailing else ""))
    compare("good.jsonl", newline.join(good * 2) + (newline if trailing else ""))


WIDE_PORT = "/wide/in:i"
WIDE_OUTPUTS = tuple(f"/w{i:03d}/out:o" for i in range(128))


def _wide_port_run():
    """(scenario, ruleset, network): one port fed by 128 sources of five
    periods, some of which stop early, with a cube rule for every other
    source."""
    network = NetworkDescription(
        components=(Component("out", outputs=WIDE_OUTPUTS), Component("in", inputs=(WIDE_PORT,))),
        connections=tuple(Connection(source, WIDE_PORT) for source in WIDE_OUTPUTS),
        windows={WIDE_PORT: 250},
    )
    ruleset = RuleSet(tuple(
        SelectionRule(WIDE_PORT, source, And((Not(Lit(WIDE_OUTPUTS[(i + 64) % 128])),
                                              Lit(WIDE_OUTPUTS[i // 2]))))
        for i, source in enumerate(WIDE_OUTPUTS) if i % 2
    ))
    scenario = Scenario(BehaviorModel(), network, 1500, tuple(
        PeriodicSource(f"w{i}", source, period_ms=100 + 10 * (i % 5), phase_ms=i % 37,
                       active=((0, 400 + 9 * i),))
        for i, source in enumerate(WIDE_OUTPUTS)
    ))
    return scenario, ruleset, network


@pytest.mark.parametrize("name", FIXTURE_NAMES + ("wide-port",))
def test_records_share_a_snapshot_while_their_ports_mask_holds(name, monkeypatch):
    # one Snapshot per change of a port's mask, the first record of each
    # port included; every record's assignment is still the scan's
    if name == "wide-port":
        scenario, ruleset, network = _wide_port_run()
    else:
        scenario = load_scenario(fixture(name).scenario)
        _, network, ruleset, _ = compile_fixture(name)
    made = []
    init = Snapshot.__init__

    def counting_init(self, *args):
        made.append(self)
        init(self, *args)

    monkeypatch.setattr(Snapshot, "__init__", counting_init)
    records = list(simnet.iter_run(scenario, ruleset, network))
    monkeypatch.undo()

    masks, last_arrival, changes = {}, {}, 0
    for record in records:
        assert type(record) is TraceRecord
        sources = sorted({conn.source for conn in network.incoming(record.dst)})
        window = network.windows.get(record.dst, DEFAULT_WINDOW_MS)
        arrived = last_arrival.setdefault(record.dst, {})
        arrived[record.src] = record.t
        expected = {s: s in arrived and record.t - arrived[s] < window for s in sources}
        mask = sum(1 << slot for slot, source in enumerate(sources) if expected[source])
        fresh = Snapshot(tuple(sources), {s: slot for slot, s in enumerate(sources)}, mask)
        assert record.assignment == fresh == expected, (name, record)
        if masks.get(record.dst) != mask:
            masks[record.dst] = mask
            changes += 1
    assert len(made) == changes < len(records)
    if name != "wide-port":
        assert trace_text(records) == fixture(name).expected_trace.read_text()


# -- the whole run against a brute-force reference ---------------------------

RUN_OUTPUTS = tuple(f"/o{i}:o" for i in range(5))
RUN_INPUTS = tuple(f"/i{i}:i" for i in range(4))
# literals may also name a port that no connection reaches
RUN_LITERALS = (*RUN_OUTPUTS, "/unwired:o")
_RUN_COMPONENTS = (Component("out", outputs=RUN_OUTPUTS + ("/unwired:o",)),
                   Component("in", inputs=RUN_INPUTS))
_RUN_EXPRESSIONS = expressions(max_leaves=5, ports=RUN_LITERALS)  # built once


@st.composite
def _run_constraints(draw):
    """A rule's constraint: any expression, usually not a cube, or a cube
    of 1-4 literals that may need one port both true and false."""
    if draw(st.booleans()):
        return draw(_RUN_EXPRESSIONS)
    literals = draw(st.lists(st.tuples(st.sampled_from(RUN_LITERALS), st.booleans()),
                             min_size=1, max_size=4))
    if draw(st.booleans()):  # a contradictory cube
        port, value = literals[0]
        literals.append((port, not value))
    parts = tuple(Lit(port) if value else Not(Lit(port)) for port, value in literals)
    return parts[0] if len(parts) == 1 else And(parts)


@st.composite
def whole_runs(draw):
    """(scenario, rule set, network, horizon_ms): inputs fed by overlapping
    sets of outputs, each with a window override or the default, a
    hand-built rule set over some of the connections, and 1-6 periodic
    sources (two may share an output) whose intervals the horizon may cut.
    Most sources' periods and phases are multiples of one base, so that
    emissions often meet at one instant, where the schedule's order shows."""
    connections = []
    for port in RUN_INPUTS:
        for source in draw(st.sets(st.sampled_from(RUN_OUTPUTS), min_size=1)):
            connections.append(Connection(source, port))
    base = draw(st.integers(1, 60))
    # a window that is a multiple of the base often equals a gap between arrivals
    window = st.none() | st.integers(1, 300) | st.integers(1, 4).map(base.__mul__)
    windows = {port: w for port in RUN_INPUTS if (w := draw(window)) is not None}
    network = NetworkDescription(_RUN_COMPONENTS, tuple(connections), windows)
    rules = tuple(
        SelectionRule(conn.destination, conn.source, draw(_run_constraints()))
        for conn in connections if draw(st.integers(0, 3))
    )
    horizon = draw(st.integers(100, 500))
    sources = []
    for index in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 3)):
            period, phase = base * draw(st.integers(1, 4)), base * draw(st.integers(0, 4))
        else:
            period, phase = draw(st.integers(1, 120)), draw(st.integers(0, 150))
        if draw(st.booleans()):
            bounds = [0, horizon + 100]
        else:
            bounds = sorted(draw(st.sets(st.integers(0, horizon + 100), min_size=2, max_size=6)))
            bounds = bounds[:len(bounds) // 2 * 2]
        sources.append(PeriodicSource(
            f"S{index}",
            draw(st.sampled_from(RUN_OUTPUTS)),
            period_ms=period,
            phase_ms=phase,
            active=tuple(zip(bounds[::2], bounds[1::2])),
        ))
    scenario = Scenario(BehaviorModel(), network, horizon, tuple(sources))
    return scenario, RuleSet(rules), network, draw(st.none() | st.integers(0, horizon))


def _reference_run(scenario, ruleset, network, horizon_ms):
    """The trace's lines by brute force: every emission sorted by the module
    docstring's key, every arrival at each port kept, each record decided by
    evaluating its rule's constraint and written by json.dumps."""
    end = scenario.horizon_ms if horizon_ms is None else min(scenario.horizon_ms, horizon_ms)
    emissions = []
    for index, source in enumerate(scenario.components):
        period, phase = source.period_ms, source.phase_ms
        for t in range(phase, end, period):
            if _emits_at(source, t):
                key = (t, t - period if t != phase else -1, -phase, index)
                emissions.append((key, source.port))
    rules = {(rule.port, rule.candidate): rule for rule in ruleset.rules}
    arrivals: dict[tuple[str, str], list[int]] = {}
    lines = []
    for (t, *_), src in sorted(emissions):
        for dst in sorted(conn.destination for conn in network.connections if conn.source == src):
            arrivals.setdefault((dst, src), []).append(t)
            window = network.windows.get(dst, DEFAULT_WINDOW_MS)
            assignment = {
                conn.source: any(t - a < window for a in arrivals.get((dst, conn.source), ()))
                for conn in network.incoming(dst)
            }
            rule = rules.get((dst, src))
            if rule is None:
                outcome, reason, text = "discard", "NO_RULE", "-"
            elif evaluate_condition(rule.constraint, assignment):
                outcome, reason, text = "accept", "SELECTED", rule_text(rule)
            else:
                outcome, reason, text = "discard", "CONSTRAINT_FALSE", rule_text(rule)
            lines.append(json.dumps({
                "t": t, "src": src, "dst": dst, "outcome": outcome, "reason": reason,
                "rule": text, "assignment": dict(sorted(assignment.items())),
            }, separators=(",", ":")) + "\n")
    return lines


# two sources of one period meet after both phases: the larger phase goes
# first, and each arrival finds the other still active or not
_TIE_NETWORK = NetworkDescription(
    _RUN_COMPONENTS,
    (Connection("/o0:o", "/i0:i"), Connection("/o1:o", "/i0:i")),
    {"/i0:i": 10},
)
_TIE_RUN = (
    Scenario(BehaviorModel(), _TIE_NETWORK, 60, (
        PeriodicSource("A", "/o0:o", period_ms=10, phase_ms=0, active=((0, 60),)),
        PeriodicSource("B", "/o1:o", period_ms=10, phase_ms=20, active=((0, 45),)),
    )),
    RuleSet((SelectionRule("/i0:i", "/o0:o", Not(Lit("/o1:o"))),)),
    _TIE_NETWORK,
    55,
)


@settings(max_examples=200, deadline=None)
@given(whole_runs())
@example(_TIE_RUN)
def test_run_and_trace_match_a_brute_force_reference(tmp_path_factory, inputs):
    expected = _reference_run(*inputs)
    path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
    write_trace(iter_run(*inputs), path)
    assert path.read_text(encoding="utf-8").splitlines(keepends=True) == expected
