"""Deterministic discrete-event simulation of a publish-subscribe network.

Scripted periodic sources emit over the network's connections, per-port
arbiters decide each arrival, and every single fan-out becomes one trace
record, the run's whole output. Time is a simulated integer-millisecond
clock. Emissions are ordered by the key `(t, t - period if t != phase else
-1, -phase, source index)`: at one instant, a source emitting at its phase
(its first instant ever) goes first, in source order; then larger periods;
among equal periods, larger phases; remaining ties in source order. That is
the order in which one chain of per-period wake events per source reaches
the instant. Each source yields its keys in increasing order as the run
reaches them, and the run merges these streams, so it holds one pending key
per source and no record it has handed on: memory is set by the network,
not by the horizon. Identical inputs always produce byte-identical traces.
"""

from __future__ import annotations

import heapq
import json
import re
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple

from .arbiter import DEFAULT_WINDOW_MS, PortArbiter, Snapshot
from .compiler import RuleSet
from .model import (
    BehaviorModel,
    NetworkDescription,
    ParseError,
    Value,
    check_port,
    is_input,
    is_output,
    parse_behavior_model,
    parse_network,
    read_text,
)

_set = object.__setattr__  # sets a Value's fields past its own __setattr__


class PeriodicSource(Value):
    """Emits on `port` at phase + k*period for every k whose instant falls
    inside one of the half-open active intervals."""

    _fields = __slots__ = ("name", "port", "period_ms", "phase_ms", "active")

    def __init__(
        self,
        name: str,
        port: str,
        period_ms: int,
        phase_ms: int = 0,
        active: tuple[tuple[int, int], ...] = (),
    ) -> None:
        _set(self, "name", name)
        _set(self, "port", port)
        _set(self, "period_ms", period_ms)
        _set(self, "phase_ms", phase_ms)
        _set(self, "active", active)

    def instant_ranges(self, horizon: int) -> Iterator[range]:
        """The emission instants before `horizon` as one range per active
        interval: phase + k*period from the first such instant at or after
        the interval's start."""
        period, phase = self.period_ms, self.phase_ms
        for start, end in self.active:
            first = phase if phase >= start else start + (phase - start) % period
            yield range(first, min(end, horizon), period)


class Scenario(Value):
    """A loaded scenario file: `components` are its sources, in file order."""

    _fields = __slots__ = ("model", "network", "horizon_ms", "components")

    def __init__(
        self,
        model: BehaviorModel,
        network: NetworkDescription,
        horizon_ms: int,
        components: tuple[PeriodicSource, ...] = (),
    ) -> None:
        _set(self, "model", model)
        _set(self, "network", network)
        _set(self, "horizon_ms", horizon_ms)
        _set(self, "components", components)


class TraceRecord(NamedTuple):
    """One fan-out of one emission: who sent, where it went, what the
    arbiter did and why, and the port's activation at that instant."""

    t: int
    src: str
    dst: str
    outcome: str
    reason: str
    rule: str
    assignment: Mapping[str, bool]


class _TraceFormatter:
    """Renders records as `json.dumps(payload, separators=(",", ":"))` of
    the fields in fixed order with the assignment's keys sorted, byte for
    byte. Each string field is encoded once, and each source's two slot
    texts are made once for all ports. A snapshot's assignment text is
    kept per port, with the port's slot texts: a record with the mask of the
    port's previous record reuses its text, any other rewrites only the
    slots whose bits changed and joins them once. The state grows with the
    total fan-in and the distinct strings, not with the records or masks.
    Any other assignment goes through json.dumps."""

    def __init__(self) -> None:
        self._strings: dict[str, str] = {}
        self._pairs: dict[str, tuple[str, str]] = {}
        # id(sources) -> [sources, all-slots mask, "name":false/"name":true
        # texts, current slot texts, last mask, its text]; holding the tuple
        # keeps its id from being reused while the formatter lives
        self._ports: dict[int, list] = {}

    def _text(self, value) -> str:
        if type(value) is str:
            out = self._strings.get(value)
            if out is None:
                out = self._strings[value] = json.dumps(value)
            return out
        return json.dumps(value, separators=(",", ":"))

    def _slot_texts(self, source: str) -> tuple[str, str]:
        """`"source":false` and `"source":true`, made once per source and
        shared by every port it reaches."""
        pair = self._pairs.get(source)
        if pair is None:
            name = self._text(source)
            pair = self._pairs[source] = (f"{name}:false", f"{name}:true")
        return pair

    def _assignment(self, assignment: Mapping[str, bool]) -> str:
        if type(assignment) is not Snapshot:
            return json.dumps({k: assignment[k] for k in sorted(assignment)}, separators=(",", ":"))
        port = self._ports.get(id(assignment.sources))
        if port is None:
            # a snapshot lists its sources sorted, so slot order is key order;
            # the port starts with every slot false
            sources = assignment.sources
            names = tuple(self._slot_texts(s) for s in sources)
            slots = [false for false, _ in names]
            port = self._ports[id(sources)] = [
                sources, (1 << len(sources)) - 1, names, slots, 0, "{" + ",".join(slots) + "}"
            ]
        _, full, names, slots, last, out = port
        mask = assignment.mask
        if mask == last:
            return out
        changed = (last ^ mask) & full
        while changed:
            bit = changed & -changed
            slot = bit.bit_length() - 1
            slots[slot] = names[slot][mask >> slot & 1]
            changed ^= bit
        port[4] = mask
        out = port[5] = "{" + ",".join(slots) + "}"
        return out

    def line(self, record: TraceRecord) -> str:
        text = self._text
        t, src, dst, outcome, reason, rule, assignment = record
        return (
            f'{{"t":{t if type(t) is int else text(t)},"src":{text(src)},'
            f'"dst":{text(dst)},"outcome":{text(outcome)},'
            f'"reason":{text(reason)},"rule":{text(rule)},'
            f'"assignment":{self._assignment(assignment)}}}'
        )


class Trace(Value):
    _fields = __slots__ = ("records",)

    def __init__(self, records: tuple[TraceRecord, ...] = ()) -> None:
        _set(self, "records", records)

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)


def _schema_error(path, message: str) -> ParseError:
    return ParseError(f"{path}: {message}")


def _load_json(where, text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _schema_error(where, f"not valid JSON: {exc}") from None
    except RecursionError:  # nested deeper than Python's recursion limit
        raise _schema_error(where, "JSON nested too deeply") from None


def _require_int(path, obj, key: str, minimum: int | None = None) -> int:
    value = obj.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise _schema_error(path, f"{key!r} must be an integer")
    if minimum is not None and value < minimum:
        raise _schema_error(path, f"{key!r} must be >= {minimum}")
    return value


def _parse_intervals(path, raw) -> tuple[tuple[int, int], ...]:
    if not isinstance(raw, list):
        raise _schema_error(path, "'active' must be a list of [start, end) pairs")
    intervals: list[tuple[int, int]] = []
    for item in raw:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in item)
        ):
            raise _schema_error(path, f"bad interval {item!r}: expected [start, end]")
        start, end = item
        if start < 0 or end <= start:
            raise _schema_error(path, f"bad interval [{start}, {end}): need 0 <= start < end")
        intervals.append((start, end))
    intervals.sort()
    for (_, prev_end), (next_start, _) in zip(intervals, intervals[1:]):
        if next_start < prev_end:
            raise _schema_error(path, "active intervals must be disjoint")
    return tuple(intervals)


def load_scenario(path) -> Scenario:
    """Load a scenario file and the model/network files it references.

    Component ports are checked against the network's declarations, and
    sink entries are checked but not kept; the referenced file paths
    resolve relative to the scenario file.
    """
    path = Path(path)
    data = _load_json(path, read_text(path))
    if not isinstance(data, dict):
        raise _schema_error(path, "top level must be a JSON object")
    for key in ("model", "network", "horizon_ms", "components"):
        if key not in data:
            raise _schema_error(path, f"missing {key!r}")
    horizon_ms = _require_int(path, data, "horizon_ms", minimum=0)
    for key in ("model", "network"):
        if not isinstance(data[key], str):
            raise _schema_error(path, f"{key!r} must be a string")
        if not data[key]:
            raise _schema_error(path, f"{key!r} must not be empty")
    if not isinstance(data["components"], list):
        raise _schema_error(path, "'components' must be a list")

    model = parse_behavior_model(read_text(path.parent / data["model"]))
    network = parse_network(read_text(path.parent / data["network"]))

    components: list[PeriodicSource] = []
    names: set[str] = set()
    for entry in data["components"]:
        if not isinstance(entry, dict) or "name" not in entry:
            raise _schema_error(path, f"bad component entry {entry!r}")
        name = str(entry["name"])
        if name in names:
            raise _schema_error(path, f"duplicate component name {name!r}")
        names.add(name)
        if ("source" in entry) == ("sink" in entry):
            raise _schema_error(path, f"component {name!r} needs exactly one of source/sink")
        if "source" in entry:
            spec = entry["source"]
            if not isinstance(spec, dict):
                raise _schema_error(path, f"source of {name!r} must be an object")
            port = check_port(str(spec.get("port", "")))
            if not is_output(port):
                raise _schema_error(path, f"source port {port!r} of {name!r} must be an output")
            if port not in network.declared_outputs:
                raise _schema_error(path, f"source port {port!r} is not declared in the network")
            components.append(PeriodicSource(
                name=name,
                port=port,
                period_ms=_require_int(path, spec, "period_ms", minimum=1),
                phase_ms=_require_int(path, spec, "phase_ms", minimum=0) if "phase_ms" in spec else 0,
                active=_parse_intervals(path, spec.get("active", [])),
            ))
        else:
            spec = entry["sink"]
            if not isinstance(spec, dict):
                raise _schema_error(path, f"sink of {name!r} must be an object")
            port = check_port(str(spec.get("port", "")))
            if not is_input(port):
                raise _schema_error(path, f"sink port {port!r} of {name!r} must be an input")
            if port not in network.declared_inputs:
                raise _schema_error(path, f"sink port {port!r} is not declared in the network")

    return Scenario(model, network, horizon_ms, tuple(components))


def _schedule_keys(
    comp: PeriodicSource, at_phase: int, later: int, ranks: int, horizon: int
) -> Iterator[Iterable[int]]:
    """`t * ranks + rank` for each of `comp`'s emissions before `horizon`,
    the rank being `at_phase` at its phase and `later` after it, as one
    range per active interval (and the phase's key on its own); chained,
    strictly increasing, since the instants are. As `later < ranks`, the
    instants `range(first, stop, step)` have the keys `range(first * ranks +
    later, stop * ranks, step * ranks)`."""
    phase = comp.phase_ms
    for instants in comp.instant_ranges(horizon):
        first, step = instants.start, instants.step
        if first == phase and instants:
            yield (phase * ranks + at_phase,)
            first += step
        yield range(first * ranks + later, instants.stop * ranks, step * ranks)


def iter_run(
    scenario: Scenario,
    ruleset: RuleSet,
    network: NetworkDescription,
    horizon_ms: int | None = None,
) -> Iterator[TraceRecord]:
    """Run the scenario's sources over `network`, the one the rule set was
    compiled for (the scenario's, perhaps with observer connections added),
    and yield the trace's records in order as they are decided.

    Emissions are processed in the schedule's order (see the module
    docstring). Each fans out to every connection leaving the source port in
    lexicographic destination order; per destination the arrival is recorded
    first and then decided, so a discarded message still refreshes its
    connection's activation. `horizon_ms` can only shorten the run.
    """
    horizon = scenario.horizon_ms
    if horizon_ms is not None:
        horizon = min(horizon, horizon_ms)

    arbiters: dict[str, PortArbiter] = {}
    for port in sorted({c.destination for c in network.connections}):
        arbiters[port] = PortArbiter(
            port,
            network.incoming(port),
            ruleset,
            window_ms=network.windows.get(port, DEFAULT_WINDOW_MS),
        )

    # per source port, by destination: the connection's arbiter, its slot
    # there and the record's fixed fields
    grouped: dict[str, list] = {}
    for conn in network.connections:
        arb = arbiters[conn.destination]
        grouped.setdefault(conn.source, []).append((
            arb, arb.slot(conn), arb.sources, arb.slots,
            conn.source, conn.destination, arb.rule_text_for(conn.source) or "-",
        ))
    fanout = {
        src: tuple(sorted(entries, key=lambda e: e[5]))
        for src, entries in grouped.items()
    }

    # A key is t * 2n + the emission's rank at t among the n sources, in
    # the module docstring's order: below n, a source at its phase, by
    # index; from n, the others by (-period, -phase, index), as t - period
    # orders like -period at one t. Keys are unique, so merging the
    # sources' increasing streams gives that order; one int compares
    # faster in the merge's heap than the tuple it stands for.
    components = scenario.components
    n = len(components)
    later = sorted(range(n), key=lambda i: (-components[i].period_ms, -components[i].phase_ms, i))
    later_rank = {index: n + place for place, index in enumerate(later)}
    rank_ports = [comp.port for comp in components] + [components[i].port for i in later]
    ranks = 2 * n
    schedule = heapq.merge(*(
        chain.from_iterable(_schedule_keys(comp, index, later_rank[index], ranks, horizon))
        for index, comp in enumerate(components)
    ))
    # the compile's state: the run needs only the arbiters and the schedule
    del scenario, ruleset, network
    for key in schedule:
        t, rank = divmod(key, ranks)
        for arb, slot, sources, slots, src, dst, rule in fanout.get(rank_ports[rank], ()):
            mask = arb.arrive(slot, t)
            outcome, reason = arb.verdict(slot, mask)
            yield TraceRecord(t, src, dst, outcome, reason, rule, Snapshot(sources, slots, mask))


def run(
    scenario: Scenario,
    ruleset: RuleSet,
    network: NetworkDescription,
    horizon_ms: int | None = None,
) -> Trace:
    """The whole trace of iter_run(scenario, ruleset, network, horizon_ms),
    held in memory."""
    return Trace(tuple(iter_run(scenario, ruleset, network, horizon_ms)))


# The most characters of trace lines that write_trace hands to one write;
# the lines are ASCII, so also the most bytes
_BLOCK_CHARS = 1 << 16


def write_trace(trace: Iterable[TraceRecord], path) -> None:
    """One JSON object per record, fields in fixed order; byte-stable.
    Whole lines go out in blocks of at most _BLOCK_CHARS, one write each;
    a longer line is a block of its own."""
    line = _TraceFormatter().line
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        block: list[str] = []
        size = 0  # of the block, newlines included
        for record in trace:
            text = line(record)
            if block and size + len(text) >= _BLOCK_CHARS:
                block.append("")  # for the last line's newline
                fh.write("\n".join(block))
                block.clear()
                size = 0
            block.append(text)
            size += len(text) + 1
        if block:
            block.append("")
            fh.write("\n".join(block))


_TRACE_FIELDS = ("t", "src", "dst", "outcome", "reason", "rule", "assignment")

# The start of a line exactly as write_trace lays it out, up to the
# assignment, with every string free of escapes and control characters and
# `t` short enough that int() reads it as json does. The rest of the line is
# the assignment object's text and a closing "}".
_STRING = r'"([^"\\\x00-\x1f]*)"'
_TRACE_HEAD = (
    r'\{"t":(-?(?:0|[1-9][0-9]{0,17})),"src":' + _STRING + ',"dst":' + _STRING
    + ',"outcome":' + _STRING + ',"reason":' + _STRING + ',"rule":' + _STRING
    + ',"assignment":'
)


def read_trace(path) -> tuple[TraceRecord, ...]:
    """Parse a trace file written by write_trace, one record per line.

    The start of a line in write_trace's layout is matched by one pattern,
    and each distinct assignment text with no nested object or list is
    parsed once per file (every record gets its own dict). Any other line
    goes through json.loads and the field checks (`t` an integer, the other
    fields but the assignment strings), so both paths accept the same lines,
    give the same records and reject with the same messages.
    """
    path = Path(path)
    head = re.compile(_TRACE_HEAD).match  # compiled on first use, then cached by re
    parsed: dict[str, dict] = {}
    records: list[TraceRecord] = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        match = head(line)
        if match is not None and line.endswith("}"):
            t, src, dst, outcome, reason, rule = match.groups()
            text = line[match.end():-1]
            # the first record of a text keeps the parsed dict and later ones
            # copy it, all before the caller sees any. The copies are shallow,
            # so a text that may hold an object or a list ("[" or a second
            # "{") is not cached: its line takes the path below.
            assignment = parsed.get(text)
            if assignment is not None:
                assignment = dict(assignment)
            elif text.startswith("{") and text.find("{", 1) < 0 and "[" not in text:
                try:
                    assignment = parsed[text] = json.loads(text)
                except json.JSONDecodeError:
                    pass  # the whole line fails below, with json's message for it
            if assignment is not None:
                records.append(TraceRecord(int(t), src, dst, outcome, reason, rule, assignment))
                continue
        if not line.strip():
            continue
        payload = _load_json(f"{path}:{lineno}", line)
        if not isinstance(payload, dict) or set(payload) != set(_TRACE_FIELDS):
            raise ParseError(f"{path}:{lineno}: expected fields {', '.join(_TRACE_FIELDS)}")
        _require_int(f"{path}:{lineno}", payload, "t")
        for key in _TRACE_FIELDS[1:-1]:
            if not isinstance(payload[key], str):
                raise ParseError(f"{path}:{lineno}: {key!r} must be a string")
        if not isinstance(payload["assignment"], dict):
            raise ParseError(f"{path}:{lineno}: 'assignment' must be an object")
        records.append(TraceRecord(**payload))
    return tuple(records)
