"""`explain`'s `active since` times against a brute-force reading of the
trace, on random scenarios whose ports override the activation window."""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from portarb import (
    BehaviorModel,
    BehaviorNode,
    Component,
    Connection,
    NetworkDescription,
    Scenario,
    compile_model,
    read_trace,
    run,
    write_trace,
)
from portarb.arbiter import DEFAULT_WINDOW_MS
from portarb.cli import EXIT_OK, _port_history, main
from portarb.model import BEHAVIOR
from portarb.simnet import PeriodicSource

SOURCES = ("/s0:o", "/s1:o", "/s2:o")
INPUTS = ("/x:i", "/y:i")
_SINCE_RE = re.compile(r"; (\S+) active since ([0-9]+(?: or [0-9]+)*)")


def _streak_start(arrivals, window):
    start = arrivals[-1]
    for earlier in reversed(arrivals[:-1]):
        if start - earlier >= window:
            break
        start = earlier
    return start


def _feasible_windows(port_records):
    """(lo, hi] holding every window under which each record's assignment
    reads as the trace has it: a scan of every source in every record."""
    lo, hi = 0, float("inf")
    last = {}
    for record in port_records:
        last[record.src] = record.t
        for source, active in record.assignment.items():
            if source in last:
                gap = record.t - last[source]
                if active:
                    lo = max(lo, gap)
                else:
                    hi = min(hi, gap)
    return lo, hi


def _possible_starts(arrivals, lo, hi):
    """The streak start under every window in (lo, hi]; it can only change
    where the window passes one more gap between arrivals."""
    gaps = {b - a for a, b in zip(arrivals, arrivals[1:])}
    windows = {lo + 1} | {g + 1 for g in gaps if lo < g < hi}
    return sorted({_streak_start(arrivals, w) for w in windows})


@st.composite
def scenarios(draw):
    # each leaf inhibits the ones before it, so at each input L0's rule reads
    # `/s0:o and not /s1:o and not /s2:o` and L1's `/s1:o and not /s2:o`
    leaves = tuple(
        BehaviorNode(
            name=f"L{i}",
            kind=BEHAVIOR,
            configuration=tuple(Connection(s, d) for d in INPUTS),
            inhibitions=tuple(f"L{j}" for j in range(i)),
        )
        for i, s in enumerate(SOURCES)
    )
    windows = {
        port: window for port in INPUTS
        if (window := draw(st.one_of(st.none(), st.integers(1, 400)))) is not None
    }
    network = NetworkDescription(
        components=(Component("S", outputs=SOURCES), Component("D", inputs=INPUTS)),
        connections=tuple(Connection(s, d) for s in SOURCES for d in INPUTS),
        windows=windows,
    )
    horizon = draw(st.integers(1, 1500))
    sources = []
    for i, port in enumerate(SOURCES):
        bounds = sorted(draw(st.sets(st.integers(0, horizon + 50), min_size=2, max_size=4)))
        sources.append(PeriodicSource(
            name=f"S{i}",
            port=port,
            period_ms=draw(st.integers(10, 250)),
            phase_ms=draw(st.integers(0, 300)),
            active=tuple(zip(bounds[::2], bounds[1::2])),
        ))
    return Scenario(BehaviorModel(roots=leaves), network, horizon, tuple(sources))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_active_since_is_every_start_the_trace_allows(scenario):
    _, ruleset, network = compile_model(scenario.model, scenario.network, True)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        write_trace(run(scenario, ruleset, network=network), path)
        records = read_trace(path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["explain", str(path)]) == EXIT_OK
    if not records:
        return
    heads = out.getvalue().splitlines()[::3]
    assert len(heads) == len(records)
    by_port = {}
    for record in records:
        by_port.setdefault(record.dst, []).append(record)
    bounds = {port: _feasible_windows(rs) for port, rs in by_port.items()}
    assert {port: _port_history(rs)[1:] for port, rs in by_port.items()} == bounds
    for record, head in zip(records, heads):
        for source, since in _SINCE_RE.findall(head):
            arrivals = [r.t for r in by_port[record.dst] if r.src == source and r.t <= record.t]
            window = network.windows.get(record.dst, DEFAULT_WINDOW_MS)
            lo, hi = bounds[record.dst]
            assert lo < window <= hi
            starts = [int(s) for s in since.split(" or ")]
            assert _streak_start(arrivals, window) in starts
            assert starts == _possible_starts(arrivals, lo, hi), (head, lo, hi)
