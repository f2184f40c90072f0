"""Command line front end: compile, validate, simulate, explain.

Diagnostics go to standard error, artifacts to standard output. Exit codes:
0 success, 1 validation errors (or warnings under --strict), 2 usage or
parse errors, 3 I/O errors, 4 internal errors (a defect in portarb itself,
reported on one line without a traceback).
"""

from __future__ import annotations

import argparse
import sys
from bisect import bisect_right
from collections import deque
from pathlib import Path

from .arbiter import ACCEPT, CONSTRAINT_FALSE, NO_RULE
from .bdd import BddManager
from .compiler import compile_model, emit_rules
from .model import (
    And,
    Lit,
    Not,
    ParseError,
    decimal_int,
    has_errors,
    parse_behavior_model,
    parse_condition,
    parse_network,
    read_text,
    render_condition,
)
from .simnet import iter_run, load_scenario, read_trace, write_trace

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def _print_diagnostics(diagnostics) -> None:
    """One line per diagnostic, all written to stderr in one call."""
    lines = []
    for diag in diagnostics:
        location = f" {diag.location}:" if diag.location else ""
        lines.append(f"{diag.severity}: [{diag.code}]{location} {diag.message}\n")
    sys.stderr.write("".join(lines))


def _pipeline(args):
    """Parse the model and network named on the command line and compile
    them; returns (diagnostics, ruleset or None, effective network)."""
    model = parse_behavior_model(read_text(args.model))
    network = parse_network(read_text(args.network))
    return compile_model(model, network, args.auto_observe)


def _status(diagnostics, strict: bool) -> int:
    if has_errors(diagnostics):
        return EXIT_VALIDATION
    if strict and diagnostics:
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_compile(args) -> int:
    diagnostics, ruleset, _ = _pipeline(args)
    _print_diagnostics(diagnostics)
    if has_errors(diagnostics):
        return EXIT_VALIDATION
    output = emit_rules(ruleset, args.format)
    if args.out:
        Path(args.out).write_text(output, encoding="utf-8")
    else:
        sys.stdout.write(output)
    return _status(diagnostics, args.strict)


def cmd_validate(args) -> int:
    diagnostics, _, _ = _pipeline(args)
    _print_diagnostics(diagnostics)
    return _status(diagnostics, args.strict)


def _counted(records, tally: dict[tuple[str, str], int]):
    """Pass `records` on, counting each into `tally` under its destination
    port and ACCEPT or its discard reason."""
    for record in records:
        _, _, dst, outcome, reason, _, _ = record
        key = dst, ACCEPT if outcome == ACCEPT else reason
        tally[key] = tally.get(key, 0) + 1
        yield record


def _print_summary(tally: dict[tuple[str, str], int]) -> None:
    accepted = 0
    for port in sorted({port for port, _ in tally}):
        accepts = tally.get((port, ACCEPT), 0)
        no_rule = tally.get((port, NO_RULE), 0)
        constraint_false = tally.get((port, CONSTRAINT_FALSE), 0)
        accepted += accepts
        print(
            f"{port}: {accepts} accepted, {no_rule + constraint_false} discarded "
            f"(NO_RULE {no_rule}, CONSTRAINT_FALSE {constraint_false})"
        )
    records = sum(tally.values())
    print(f"total: {accepted} accepted, {records - accepted} discarded, {records} records")


def cmd_simulate(args) -> int:
    # Simulation always auto-observes: a runnable system needs its rule
    # literals visible, and the additions surface as V3 warnings.
    scenario = load_scenario(args.scenario)
    diagnostics, ruleset, network = compile_model(
        scenario.model, scenario.network, auto_observe=True
    )
    _print_diagnostics(diagnostics)
    if ruleset is None:
        return EXIT_VALIDATION
    # the exit status is the diagnostics' alone, so they go before the run
    status = _status(diagnostics, args.strict)
    del diagnostics
    # one pass over the records, none of them kept
    tally: dict[tuple[str, str], int] = {}
    records = _counted(iter_run(scenario, ruleset, network, args.until), tally)
    del scenario, ruleset, network  # iter_run drops them once its arbiters are built
    if args.trace:
        write_trace(records, args.trace)
        print(f"wrote {sum(tally.values())} records to {args.trace}", file=sys.stderr)
    else:
        deque(records, maxlen=0)
    _print_summary(tally)
    return status


class _TraceIndex:
    """What explain needs of a trace, built once per query: the records of
    each destination port in trace order and, for a port that a failed
    `not p` names, its arrival history."""

    def __init__(self, records):
        self.by_port: dict[str, list] = {}
        for record in records:
            self.by_port.setdefault(record.dst, []).append(record)
        self._histories: dict[str, tuple] = {}

    def streak_starts(self, record, source: str) -> list:
        """Every possible first arrival of the run of `source` arrivals at
        the record's port that keeps it active at the record's time, oldest
        first; a gap between arrivals is bridged when it is shorter than
        the window. Empty if `source` never arrived there."""
        history = self._histories.get(record.dst)
        if history is None:
            history = self._histories[record.dst] = _port_history(self.by_port[record.dst])
        arrivals, lo, hi = history
        times = arrivals.get(source, ())
        k = bisect_right(times, record.t)
        if k == 0:
            return []
        starts = []
        start = times[k - 1]
        for i in range(k - 2, -1, -1):
            gap = start - times[i]
            if gap > lo:
                if gap >= hi:
                    break
                # the window may or may not exceed this gap: the run may
                # start here, or go on with the window known to exceed it
                starts.append(start)
                lo = gap
            start = times[i]
        starts.append(start)
        return starts[::-1]


def _port_history(records) -> tuple:
    """(arrival times by source, lo, hi) of the port that received `records`
    (its records in trace order): its activation window W lies in (lo, hi],
    as read from the records' assignments.

    A source true in a record at time t whose last arrival at the port was
    at a says W > t - a; false says W <= t - a. Within one arrival's run the
    gap only grows, so its last true record and first false record give the
    tightest bounds. Arrivals wait in a queue in arrival order; the ones that
    turn false are at its front (a later arrival expires later), so each
    arrival is looked at once when it expires or when its source arrives
    again, plus once at the end: O(records + sources).
    """
    arrivals: dict[str, list] = {}
    lo, hi = 0, float("inf")
    queue: deque = deque()
    prev_t, prev_assignment = None, {}  # of the previous record
    for t, src, _, _, _, _, assignment in records:
        times = arrivals.setdefault(src, [])
        if times and prev_assignment.get(src):
            lo = max(lo, prev_t - times[-1])
        times.append(t)
        queue.append((t, src))
        while queue:
            a, source = queue[0]
            current = arrivals[source][-1] == a
            if current and assignment.get(source):
                break
            queue.popleft()
            if not current:
                continue  # its source has arrived again since
            hi = min(hi, t - a)
            if prev_assignment.get(source):
                lo = max(lo, prev_t - a)
        prev_t, prev_assignment = t, assignment
    for source, times in arrivals.items():
        if prev_assignment.get(source):
            lo = max(lo, prev_t - times[-1])
    return arrivals, lo, hi


def _explain_failure(index: _TraceIndex, record) -> str:
    candidate, _, rest = record.rule.partition(" => ")
    constraint_text = candidate.partition(" and ")[2] or "true"
    try:
        constraint = parse_condition(constraint_text)
    except ParseError:
        return "constraint false"
    conjuncts = constraint.children if isinstance(constraint, And) else (constraint,)
    reasons = []
    # a literal is read as the arbiter reads a cube's; anything else over its BDD
    for part in conjuncts:
        if isinstance(part, Not) and isinstance(part.child, Lit):
            port = part.child.port
            if not record.assignment.get(port, False):
                continue
            starts = index.streak_starts(record, port)
            since = f" since {' or '.join(map(str, starts))}" if starts else ""
            reasons.append(f"constraint `{render_condition(part)}` false; {port} active{since}")
        elif isinstance(part, Lit):
            if not record.assignment.get(part.port, False):
                reasons.append(f"constraint `{render_condition(part)}` false; {part.port} inactive")
        else:
            manager = BddManager()
            if not manager.evaluate(manager.build(part), record.assignment):
                reasons.append(f"constraint `{render_condition(part)}` false")
    return "; ".join(reasons) if reasons else "constraint false"


def cmd_explain(args) -> int:
    records = read_trace(args.trace)
    if args.port is not None:
        records = [r for r in records if r.dst == args.port]
    index = _TraceIndex(records)
    matches = [r for r in records if args.at is None or r.t == args.at]
    if not matches:
        print("no records")
        return EXIT_OK
    for record in matches:
        head = f"t={record.t} {record.src} -> {record.dst}"
        if record.outcome == ACCEPT:
            print(f"{head} accepted: rule satisfied")
        elif record.reason == NO_RULE:
            print(f"{head} discarded: no rule for {record.src} at {record.dst}")
        else:
            print(f"{head} discarded: {_explain_failure(index, record)}")
        print(f"  rule: {record.rule}")
        shown = " ".join(
            f"{port}={str(value).lower()}" for port, value in sorted(record.assignment.items())
        )
        print(f"  assignment: {shown}")
    return EXIT_OK


def _time_ms(text: str) -> int:
    """--at's type: an integer in ASCII digits, as a trace's `t`."""
    try:
        return decimal_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _until_ms(text: str) -> int:
    """--until's type: an integer >= 0, as a scenario's horizon_ms."""
    value = _time_ms(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="portarb",
        description="Compile behavior models to port-arbitration rules and "
        "simulate them over a component network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compile_p = sub.add_parser("compile", help="extract selection rules from a model")
    compile_p.add_argument("model", help="behavior-description XML file")
    compile_p.add_argument("network", help="application-description XML file")
    compile_p.add_argument("--auto-observe", action="store_true",
                           help="add missing observer connections instead of failing")
    compile_p.add_argument("--format", choices=("text", "json"), default="text")
    compile_p.add_argument("--out", help="write rules to this file instead of stdout")
    compile_p.add_argument("--strict", action="store_true",
                           help="treat warnings as failures")
    compile_p.set_defaults(func=cmd_compile)

    validate_p = sub.add_parser("validate", help="check a model against a network")
    validate_p.add_argument("model")
    validate_p.add_argument("network")
    validate_p.add_argument("--auto-observe", action="store_true")
    validate_p.add_argument("--strict", action="store_true")
    validate_p.set_defaults(func=cmd_validate)

    simulate_p = sub.add_parser("simulate", help="compile and run a scenario")
    simulate_p.add_argument("scenario", help="scenario JSON file")
    simulate_p.add_argument("--trace", help="write the JSON-lines trace here")
    simulate_p.add_argument("--until", type=_until_ms, help="stop before this time (ms)")
    simulate_p.add_argument("--strict", action="store_true")
    simulate_p.set_defaults(func=cmd_simulate)

    explain_p = sub.add_parser("explain", help="show why trace records were decided")
    explain_p.add_argument("trace", help="trace file written by simulate")
    explain_p.add_argument("--at", type=_time_ms, help="only records at this time (ms)")
    explain_p.add_argument("--port", help="only records delivered to this input port")
    explain_p.set_defaults(func=cmd_explain)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:
        # last resort: repr keeps the report on one line
        print(f"error: internal: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
