"""Deterministic discrete-event simulation of a publish-subscribe network.

Scripted periodic sources emit over the network's connections, each
arrival is decided by its port's rule for the source, and every single
fan-out becomes one trace record, the run's whole output. Every connection
delivers at its source's emission instant, so activation is kept per
(window, source): one bit per source port and one activation table per
distinct `window=`, updated once per emission for each distinct window
among the source's destinations. A record then costs one `&` of that
table's mask with its port's sources, one compare with the port's previous
view (and a new `Snapshot` only when it changed) and one `verdict`,
whatever the fan-in. Time is a simulated integer-millisecond
clock. Emissions are ordered by the key `(t, t - period if t != phase else
-1, -phase, source index)`: at one instant, a source emitting at its phase
(its first instant ever) goes first, in source order; then larger periods;
among equal periods, larger phases; remaining ties in source order. That is
the order in which one chain of per-period wake events per source reaches
the instant. Each source yields its keys, plain ints, in increasing order
as the run reaches them; the run keeps one heap of the sources' next keys,
handles the least and replaces it with that source's next key. So it holds
one pending key per source and no record it has handed on: memory is set
by the network, not by the horizon. Identical inputs always produce
byte-identical traces.
"""

from __future__ import annotations

import collections
import heapq
import json
import re
from collections.abc import Iterable, Iterator, Mapping
from functools import cache
from itertools import chain, compress
from pathlib import Path

from .arbiter import DEFAULT_WINDOW_MS, ActivationTable, Snapshot, rule_entries, verdict
from .compiler import RuleSet, rule_text
from .model import (
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


class PeriodicSource(Value):
    """Emits on `port` at phase + k*period for every k whose instant falls
    inside one of the half-open active intervals."""

    _fields = __slots__ = ("name", "port", "period_ms", "phase_ms", "active")
    _defaults = (0, ())

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
    _defaults = ((),)


TraceRecord = collections.namedtuple("TraceRecord", "t src dst outcome reason rule assignment")
TraceRecord.__doc__ = """One fan-out of one emission: who sent, where it went, what the
arbiter did and why, and the port's activation at that instant."""


class _TraceFormatter:
    """Renders records as `json.dumps(payload, separators=(",", ":"))` of
    the fields in fixed order with the assignment's keys sorted, byte for
    byte, and a closing newline, given an int `t` and str fields up to the
    assignment, as iter_run and read_trace make them. The line and its
    newline are one string, so write_trace hands the file one write per
    line. Each string field is encoded once, and each source's two slot
    texts are made once for all ports. A snapshot's assignment text is kept
    per port (per `sources` tuple, which comes with one `slots` map), with
    the port's slot texts and each slot's position, in name order, by its
    bit: a record with the mask of the port's previous record reuses its
    text, any other rewrites only the slots whose bits changed and joins
    them once. The state grows with the total fan-in and the distinct
    strings, not with the records or masks. Any other assignment goes
    through json.dumps."""

    def __init__(self) -> None:
        text = self._text = cache(json.dumps)
        self._slot_texts = cache(lambda source: (f"{text(source)}:false", f"{text(source)}:true"))
        # id(sources) -> [sources, the mask of its bits, {bit: position},
        # "name":false/"name":true texts, current slot texts, last mask, its
        # text]; holding the tuple keeps its id from being reused while the
        # formatter lives
        self._ports: dict[int, list] = {}

    def _port(self, assignment: Snapshot) -> list:
        # a snapshot lists its sources sorted, so position order is key
        # order; the port starts with every slot false
        sources, slots = assignment.sources, assignment.slots
        position = {slots[source]: i for i, source in enumerate(sources)}
        names = tuple(self._slot_texts(s) for s in sources)
        texts = [false for false, _ in names]
        port = self._ports[id(sources)] = [
            sources, sum(1 << bit for bit in position), position, names, texts, 0,
            "{" + ",".join(texts) + "}",
        ]
        return port

    def _assignment(self, assignment: Mapping[str, bool]) -> str:
        if type(assignment) is not Snapshot:
            return json.dumps({k: assignment[k] for k in sorted(assignment)}, separators=(",", ":"))
        port = self._ports.get(id(assignment.sources)) or self._port(assignment)
        mask = assignment.mask
        if mask == port[5]:
            return port[6]
        _, full, position, names, texts, last, _ = port
        changed = (last ^ mask) & full
        while changed:
            low = changed & -changed
            bit = low.bit_length() - 1
            i = position[bit]
            texts[i] = names[i][mask >> bit & 1]
            changed ^= low
        port[5] = mask
        out = port[6] = "{" + ",".join(texts) + "}"
        return out

    def line(self, record: TraceRecord) -> str:
        text = self._text
        t, src, dst, outcome, reason, rule, assignment = record
        return (
            f'{{"t":{t},"src":{text(src)},'
            f'"dst":{text(dst)},"outcome":{text(outcome)},'
            f'"reason":{text(reason)},"rule":{text(rule)},'
            f'"assignment":{self._assignment(assignment)}}}\n'
        )


class Trace(Value):
    _fields = __slots__ = ("records",)
    _defaults = ((),)

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
        name = entry["name"]
        if not isinstance(name, str):
            raise _schema_error(path, f"component name {name!r} must be a string")
        if name in names:
            raise _schema_error(path, f"duplicate component name {name!r}")
        names.add(name)
        if ("source" in entry) == ("sink" in entry):
            raise _schema_error(path, f"component {name!r} needs exactly one of source/sink")
        role = "source" if "source" in entry else "sink"
        kind, is_kind, declared = (
            ("output", is_output, network.declared_outputs) if role == "source"
            else ("input", is_input, network.declared_inputs)
        )
        spec = entry[role]
        if not isinstance(spec, dict):
            raise _schema_error(path, f"{role} of {name!r} must be an object")
        port = spec.get("port", "")
        if not isinstance(port, str):
            raise _schema_error(path, f"{role} port {port!r} of {name!r} must be a string")
        try:
            check_port(port)
        except ParseError as exc:
            raise _schema_error(path, str(exc)) from None
        if not is_kind(port):
            raise _schema_error(path, f"{role} port {port!r} of {name!r} must be an {kind}")
        if port not in declared:
            raise _schema_error(path, f"{role} port {port!r} is not declared in the network")
        if role == "source":
            components.append(PeriodicSource(
                name=name,
                port=port,
                period_ms=_require_int(path, spec, "period_ms", minimum=1),
                phase_ms=_require_int(path, spec, "phase_ms", minimum=0) if "phase_ms" in spec else 0,
                active=_parse_intervals(path, spec.get("active", [])),
            ))

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


# bytes.translate table: a mask's binary digits as 0 and 1 bytes, which
# itertools.compress reads as selectors
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _named(names: tuple[str, ...], mask: int) -> tuple[str, ...]:
    """The names whose bits, their positions in `names`, are set in `mask`."""
    return tuple(compress(names, format(mask, "b")[::-1].encode().translate(_DIGIT_FLAGS)))


def fan_out(ruleset: RuleSet, network: NetworkDescription) -> dict[str, tuple[int, tuple, list]]:
    """What the run does for an emission, per source port connected in
    `network`: the port's global bit (declared outputs in name order); the
    `ActivationTable`s of the distinct windows of its destinations, each
    shared by every port of that window; and per destination, in order, the
    table of its window, the mask of its sources' bits, its state (its last
    view, -1 before any, that view's `Snapshot`, its sources, sorted, and
    their bits), the source's rule entry there (see `arbiter.rule_entries`;
    None: no rule), the port and the rule's text, rendered once ("-": no
    rule). The sources with no rule at a port share one such tuple. Each
    port's sources are read from its mask of them, which an auto-observed
    network holds with its observers, so no `Connection` is read."""
    bit_of = network.source_bits
    names = tuple(bit_of)
    masks = network.source_masks
    used = 0
    for mask in masks.values():
        used |= mask
    tables: dict[int, ActivationTable] = {}
    targets: dict[str, list] = {source: [] for source in _named(names, used)}
    for port in sorted(masks):
        window = network.windows.get(port, DEFAULT_WINDOW_MS)
        table = tables.get(window)
        if table is None:
            table = tables[window] = ActivationTable(window)
        rules = ruleset.for_port(port)
        texts = {rule.candidate: rule_text(rule) for rule in rules}
        mask = masks[port]
        incoming = _named(names, mask)
        bits = {source: bit_of[source] for source in incoming}
        entries, _ = rule_entries(port, rules, bits)
        state = [-1, None, incoming, bits]
        # a source with no rule here (an observer's) shares one target
        no_rule = (table, mask, state, None, port, "-")
        for source in incoming:
            entry = entries.get(source)
            targets[source].append(
                no_rule if entry is None else (table, mask, state, entry, port, texts[source]))
    return {
        source: (bit_of[source], tuple(dict.fromkeys(table for table, *_ in port_targets)),
                 port_targets)
        for source, port_targets in targets.items()
    }


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
    docstring), popped from one heap of int keys, one per source. Activation
    is kept per (window, source) (see `fan_out`): an emission first records
    its source's bit, once, in the table of each distinct window among its
    destinations, whatever their verdicts, so a discarded message still
    refreshes its source. It then fans out to every connection leaving the
    source port, in lexicographic destination order: the port's view is its
    table's mask `&` its own sources' bits, a new `Snapshot` of the view is
    made only when the view differs from the port's previous one, and
    `verdict` decides the rule over the view. So a record costs one `&`, one
    compare and the verdict, whatever the fan-in. A record's assignment is
    its port's snapshot, shared while the view holds. `horizon_ms` can only
    shorten the run.
    """
    horizon = scenario.horizon_ms
    if horizon_ms is not None:
        horizon = min(horizon, horizon_ms)

    plan = fan_out(ruleset, network)

    # A key is t * 2n + the emission's rank at t among the n sources, in
    # the module docstring's order: below n, a source at its phase, by
    # index; from n, the others by (-period, -phase, index), as t - period
    # orders like -period at one t. Keys are unique, so the heap's least key
    # is the next emission; one int compares faster than the tuple it stands
    # for. The heap holds each source's next key; a source's keys end with
    # `end`, above every emission's key, which stops the run.
    components = scenario.components
    n = len(components)
    later = sorted(range(n), key=lambda i: (-components[i].period_ms, -components[i].phase_ms, i))
    ranks = 2 * n
    end = horizon * ranks
    # per rank: the emitting source port, its `fan_out` and what gives its
    # next key
    steps: list = [None] * ranks
    heap = [end]  # so the heap is never empty
    for place, index in enumerate(later):
        comp = components[index]
        keys = chain(*_schedule_keys(comp, index, n + place, ranks, horizon), (end,))
        steps[index] = steps[n + place] = (
            comp.port, *plan.get(comp.port, (None, (), ())), keys.__next__)
        heap.append(next(keys))
    heapq.heapify(heap)
    # the compile's state: the run needs only the fan-out and the schedule
    del scenario, ruleset, network, plan
    # a record is made as the tuple it is: TraceRecord's own __new__ is one
    # more Python call per record
    new = tuple.__new__
    replace = heapq.heapreplace
    while (key := heap[0]) < end:
        t, rank = divmod(key, ranks)
        src, bit, arrived, targets, advance = steps[rank]
        for table in arrived:
            table.arrive(bit, t)
        for table, bits, state, entry, dst, rule in targets:
            view = table.mask & bits
            if view != state[0]:
                state[0] = view
                state[1] = Snapshot(state[2], state[3], view)
            snapshot = state[1]
            outcome, reason = verdict(entry, view, snapshot)
            yield new(TraceRecord, (t, src, dst, outcome, reason, rule, snapshot))
        replace(heap, advance())


def run(
    scenario: Scenario,
    ruleset: RuleSet,
    network: NetworkDescription,
    horizon_ms: int | None = None,
) -> Trace:
    """The whole trace of iter_run(scenario, ruleset, network, horizon_ms),
    held in memory."""
    return Trace(tuple(iter_run(scenario, ruleset, network, horizon_ms)))


# The trace file's buffer size; with the default 8 KiB, writing a
# wide-fanin trace took about 1.3 times as long, and reading its lines
# about 2 times
_BUFFER_BYTES = 1 << 16


def write_trace(trace: Iterable[TraceRecord], path) -> None:
    """One JSON object per record, fields in fixed order; byte-stable.
    Each line goes to the file in one write, newline included; that is what
    keeps the OS writes whole. The file's buffer flushes what it holds
    before a write that does not fit and hands a write longer than itself
    to the OS alone, so every OS write ends at a newline, and a run that
    stops leaves only whole lines."""
    line = _TraceFormatter().line
    with Path(path).open("w", encoding="utf-8", newline="\n", buffering=_BUFFER_BYTES) as fh:
        write = fh.write
        for record in trace:
            write(line(record))


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


# How many distinct assignment texts iter_trace keeps, and with a port how
# many all-false forms and other ports sharing the port's texts; a full
# cache or set starts over. A text recurs soon after it first appears,
# while its port's activation holds: on the benchmark's seed-1
# deep-hierarchy trace (7,012 lines) the text cache misses 1,647 times and
# an unbounded one 1,638. With a port, the forms leave 64 to 104 of those
# misses to json.loads, about one per key layout of another port and one
# per distinct text of the port itself.
_PARSED_TEXTS = 1 << 10


def iter_trace(path, port: str | None = None) -> Iterator[TraceRecord]:
    """The records of a trace file written by write_trace, one per line,
    read as a stream; with `port`, only the records delivered to it.

    Every line is checked, whichever port it goes to, and the lines are
    those of `read_text(path).split("\\n")`: they end at "\\n", "\\r\\n" or
    a lone "\\r" only, so a raw U+2028, U+2029 or U+0085 inside a JSON
    string, which `str.splitlines` would break at, stays in its line.
    The start of a line in write_trace's layout is matched by one pattern,
    and each distinct assignment text is parsed once while it stays in a
    bounded cache (every record gets its own dict). A line in that layout
    for another port is taken as valid by the first test that holds: its
    text is in the cache; its all-false form, the text with every '":true'
    written '":false', is that of a text json.loads has proven and that is
    json.dumps of its own dict, and the text is cached with no dict; or
    json.loads proves it, and its form is kept. When the port's own line
    has a text that another port's line proved by its form, that other
    port carries the port's texts, as wide-fanin's two ports do: its later
    texts skip the form test and are parsed and cached, so that the port
    finds them parsed. The form test is sound. The form F of such a text
    C is C with each '":true' written '":false', and a text with form F
    is F with some '":false' written '":true'. In C, a flat object whose
    values are all written true or false, the '"' of each such occurrence
    closes a key, so one value flips between true and false, or opens a
    key or is an escaped quote inside one, so only that key's characters
    change: F, and then the text, are still objects whose values are all
    written true or false, though keys may repeat. C must be json.dumps
    of its dict: there, no repeated key hides a value that is not a flag,
    which another key, so changed, would reveal. The quote matters: in
    "\\u00false" the "false" starts inside an escape. Any other line
    goes through json.loads and the field checks
    (`t` an integer, the other fields but the assignment strings, the
    assignment an object whose values are all true or false), so all paths
    accept the same lines, give the same records and reject with the same
    messages. As from `read_text`, a byte that is not UTF-8 anywhere in the
    file is the error, named by its offset, even after a bad line.
    """
    path = Path(path)
    with open(path, "rb", buffering=_BUFFER_BYTES) as fh:
        lines = _text_lines(fh, path)
        try:
            yield from _trace_records(lines, path, port)
        except ParseError:
            for _ in lines:  # decodes the rest of the file
                pass
            raise


def _text_lines(fh: Iterable[bytes], path: Path) -> Iterator[str]:
    """The lines of the binary file `fh` as `read_text(path).split("\\n")`
    has them, with their newlines translated the same way, decoded one at a
    time. A line ends at b"\\n", which no multi-byte UTF-8 sequence holds,
    so the first byte that is not UTF-8 is found where decoding the whole
    file finds it."""
    offset = 0
    for raw in fh:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text (byte {offset + exc.start})") from None
        offset += len(raw)
        if "\r" in text:
            *whole, last = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
            yield from whole
            if last:
                yield last
        else:
            yield text.rstrip("\n")


def _trace_records(lines: Iterable[str], path: Path, port: str | None) -> Iterator[TraceRecord]:
    head = re.compile(_TRACE_HEAD).match  # compiled on first use, then cached by re
    # each valid assignment text seen, with its dict or, when its form proved
    # it on another port's line, that port's name
    parsed: dict[str, dict | str] = {}
    # with a port: the all-false forms of the texts json.loads has proven on
    # other ports' lines, and the other ports that carried one of the port's
    # own texts, whose texts are parsed and cached as without a port
    forms: set[str] = set()
    shared: set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        match = head(line)
        if match is not None and line.endswith("}"):
            t, src, dst, outcome, reason, rule = match.groups()
            text = line[match.end():-1]
            other = port is not None and dst != port
            # the cache keeps a dict of its own, as the caller may change a
            # record's before the next is read; a text that is not an object
            # of true/false values takes the path below, which fails
            assignment = parsed.get(text)
            if other and assignment is not None:
                continue
            if isinstance(assignment, str):
                if len(shared) >= _PARSED_TEXTS:
                    shared.clear()
                shared.add(assignment)
                assignment = None
            if assignment is None and text.startswith("{"):
                form = None
                if other and dst not in shared:
                    form = text.replace('":true', '":false')
                    if form in forms:
                        if len(parsed) >= _PARSED_TEXTS:
                            parsed.clear()
                        parsed[text] = dst
                        continue
                try:
                    assignment = json.loads(text)
                except (json.JSONDecodeError, RecursionError):
                    pass
                if _is_flags(assignment):
                    if len(parsed) >= _PARSED_TEXTS:
                        parsed.clear()
                    parsed[text] = assignment
                    # only a text written as json.dumps writes its dict
                    # has no repeated key hiding a value that is not a flag
                    if form is not None and text == json.dumps(assignment, separators=(",", ":")):
                        if len(forms) >= _PARSED_TEXTS:
                            forms.clear()
                        forms.add(form)
                else:
                    assignment = None
            if assignment is not None:
                if not other:
                    yield TraceRecord(int(t), src, dst, outcome, reason, rule, dict(assignment))
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
        if not _is_flags(payload["assignment"]):
            raise ParseError(f"{path}:{lineno}: 'assignment' values must be true or false")
        if port is None or payload["dst"] == port:
            yield TraceRecord(**payload)


def read_trace(path) -> tuple[TraceRecord, ...]:
    """All the records of a trace file written by write_trace, in file
    order, each with an assignment dict of its own; see iter_trace."""
    return tuple(iter_trace(path))


def _is_flags(assignment) -> bool:
    """`assignment` is an object of true/false values, as a record's must be."""
    return type(assignment) is dict and set(map(type, assignment.values())) <= {bool}
