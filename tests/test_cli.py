"""CLI exit codes and byte-stable outputs, driven through main()."""

import ast
import contextlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
import hypothesis.strategies as st

from portarb import (
    FIXTURE_NAMES,
    apply_auto_observe,
    fixture,
    parse_behavior_model,
    parse_network,
    read_trace,
    write_trace,
)
import portarb.cli
from portarb.cli import EXIT_INTERNAL, EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from portarb.model import MAX_NESTING_DEPTH, MAX_V3_PER_PORT
from portarb.simnet import TraceRecord

from conftest import MALFORMED_MODELS, deep_hierarchy_texts, run_fixture, trace_text

SAT = fixture("search-and-track")


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_compile_with_auto_observe(capsys):
    status = run_cli("compile", SAT.model, SAT.network, "--auto-observe")
    captured = capsys.readouterr()
    assert status == EXIT_OK
    assert captured.out == SAT.expected_ruleset.read_text()
    assert "warning" in captured.err  # the added observer connection


def test_compile_without_auto_observe_fails_validation(capsys):
    status = run_cli("compile", SAT.model, SAT.network)
    captured = capsys.readouterr()
    assert status == EXIT_VALIDATION
    assert captured.out == ""
    assert "V3" in captured.err
    assert "/collision:o" in captured.err and "/Gaze/pos:i" in captured.err


def test_compile_nonexistent_file():
    assert run_cli("compile", "/nope/model.xml", SAT.network) == EXIT_IO


def test_compile_malformed_model(tmp_path, capsys):
    bad = tmp_path / "model.xml"
    bad.write_text("<behavior name='B'>")
    assert run_cli("compile", bad, SAT.network) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", MALFORMED_MODELS)
@pytest.mark.parametrize("command", ["compile", "validate"])
def test_malformed_model_xml_exits_with_usage_and_its_place(tmp_path, capsys, command, text, message):
    bad = tmp_path / "model.xml"
    bad.write_text(text)
    assert run_cli(command, bad, SAT.network) == EXIT_USAGE
    assert f"malformed behavior model XML: {message}" in capsys.readouterr().err


def test_compile_json_to_file(tmp_path, capsys):
    out = tmp_path / "rules.json"
    status = run_cli("compile", SAT.model, SAT.network, "--auto-observe",
                     "--format", "json", "--out", out)
    assert status == EXIT_OK
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert len(payload["rules"]) == 5


def test_compile_strict_fails_on_observer_warning():
    assert run_cli("compile", SAT.model, SAT.network, "--auto-observe", "--strict") == EXIT_VALIDATION


def test_validate_clean_fixture_prints_nothing(capsys):
    fx = fixture("be-curious")
    status = run_cli("validate", fx.model, fx.network)
    captured = capsys.readouterr()
    assert status == EXIT_OK
    assert captured.out == "" and captured.err == ""


def test_validate_cross_group_inhibition(tmp_path, capsys):
    model_text = SAT.model.read_text().replace(
        "<inhibition>Look Around</inhibition>",
        "<inhibition>Look Around</inhibition><inhibition>Rest Arm</inhibition>",
    )
    bad = tmp_path / "model.xml"
    bad.write_text(model_text)
    status = run_cli("validate", bad, SAT.network)
    assert status == EXIT_VALIDATION
    assert "V1" in capsys.readouterr().err


def test_validate_conflict_demo_warns(capsys):
    fx = fixture("conflict-demo")
    assert run_cli("validate", fx.model, fx.network) == EXIT_OK
    assert "can both select" in capsys.readouterr().err
    assert run_cli("validate", fx.model, fx.network, "--strict") == EXIT_VALIDATION


@pytest.mark.parametrize("auto_observe", [True, False])
def test_validate_at_256_leaves_writes_at_most_cap_plus_one_v3_lines_per_port(
        tmp_path, capsys, auto_observe):
    model_text, network_text = deep_hierarchy_texts()
    (tmp_path / "model.xml").write_text(model_text)
    (tmp_path / "network.xml").write_text(network_text)
    flags = ["--auto-observe"] if auto_observe else []
    status = run_cli("validate", tmp_path / "model.xml", tmp_path / "network.xml", *flags)
    assert status == (EXIT_OK if auto_observe else EXIT_VALIDATION)
    severity = "warning" if auto_observe else "error"
    lines = [line for line in capsys.readouterr().err.splitlines() if "[V3]" in line]
    assert all(line.startswith(f"{severity}: [V3] ") for line in lines)
    network = parse_network(network_text)
    ports = len(network.declared_inputs)
    assert 0 < len(lines) <= ports * (MAX_V3_PER_PORT + 1)
    more = [int(re.search(r"\.\.\. and (\d+) more ", line).group(1))
            for line in lines if "... and " in line]
    assert 0 < len(more) <= ports
    if auto_observe:
        added = apply_auto_observe(parse_behavior_model(model_text), network)
        assert len(lines) - len(more) + sum(more) == len(added.connections) - len(network.connections)


def test_simulate_search_and_track(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    status = run_cli("simulate", SAT.scenario, "--trace", trace_path)
    captured = capsys.readouterr()
    assert status == EXIT_OK
    assert trace_path.read_text() == SAT.expected_trace.read_text()
    assert "/Arm/pos:i" in captured.out and "/Gaze/pos:i" in captured.out
    assert "total: 315 accepted, 325 discarded, 640 records" in captured.out
    # the arm port receives nothing while the collision burst is active
    records = read_trace(trace_path)
    assert not [r for r in records
                if r.dst == "/Arm/pos:i" and 14000 <= r.t < 16000 and r.outcome == "accept"]


def test_simulate_strict_exits_1_after_the_whole_run(tmp_path, capsys):
    # auto-observe's additions are V3 warnings, so --strict fails the run,
    # yet the trace and the summary are those of a plain run
    trace_path = tmp_path / "trace.jsonl"
    status = run_cli("simulate", SAT.scenario, "--trace", trace_path, "--strict")
    captured = capsys.readouterr()
    assert status == EXIT_VALIDATION
    assert "warning: [V3]" in captured.err
    assert trace_path.read_bytes() == SAT.expected_trace.read_bytes()
    assert "total: 315 accepted, 325 discarded, 640 records" in captured.out


def test_simulate_no_rules(capsys):
    fx = fixture("no-rules")
    status = run_cli("simulate", fx.scenario)
    captured = capsys.readouterr()
    assert status == EXIT_OK
    assert "total: 0 accepted, 620 discarded, 620 records" in captured.out
    assert "NO_RULE 300" in captured.out and "NO_RULE 320" in captured.out


def test_simulate_until_truncates(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    assert run_cli("simulate", SAT.scenario, "--trace", trace_path, "--until", 5000) == EXIT_OK
    records = read_trace(trace_path)
    assert records and all(r.t < 5000 for r in records)


def test_simulate_until_zero_runs_nothing(capsys):
    assert run_cli("simulate", SAT.scenario, "--until", 0) == EXIT_OK
    assert capsys.readouterr().out == "total: 0 accepted, 0 discarded, 0 records\n"


def test_simulate_until_must_not_be_negative(capsys):
    # was run as an empty horizon, exit 0
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", SAT.scenario, "--until", -5)
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().err.endswith("error: argument --until: must be >= 0, got -5\n")


@pytest.mark.parametrize("until", ["1_000", " 7 ", "+5", "\u0663", "5.0", ""])
def test_simulate_until_takes_ascii_decimal_digits_only(capsys, until):
    # int() read all but the last two, so "+5" ran to 5 ms
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", SAT.scenario, "--until", until)
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().err.endswith(
        f"error: argument --until: invalid int value: {until!r}\n")


def _summary(records):
    """simulate's stdout for `records`, counted without the CLI's code."""
    ports = sorted({r.dst for r in records})
    lines = []
    for port in ports:
        here = [r for r in records if r.dst == port]
        accepted = sum(r.outcome == "accept" for r in here)
        no_rule = sum(r.outcome != "accept" and r.reason == "NO_RULE" for r in here)
        constraint_false = sum(r.outcome != "accept" and r.reason == "CONSTRAINT_FALSE" for r in here)
        assert accepted + no_rule + constraint_false == len(here)
        lines.append(f"{port}: {accepted} accepted, {len(here) - accepted} discarded "
                     f"(NO_RULE {no_rule}, CONSTRAINT_FALSE {constraint_false})\n")
    accepted = sum(r.outcome == "accept" for r in records)
    lines.append(f"total: {accepted} accepted, {len(records) - accepted} discarded, "
                 f"{len(records)} records\n")
    return "".join(lines)


@pytest.mark.parametrize("until", [None, 5000], ids=["whole", "until-5000"])
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_streamed_simulate_matches_the_in_memory_run(tmp_path, capsys, name, traced, until):
    trace = run_fixture(name, horizon_ms=until)
    argv = ["simulate", fixture(name).scenario]
    if until is not None:
        argv += ["--until", until]
    trace_path = tmp_path / "trace.jsonl"
    if traced:
        argv += ["--trace", trace_path]
    capsys.readouterr()
    assert run_cli(*argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == _summary(trace.records)
    if traced:
        assert trace_path.read_text(encoding="utf-8") == trace_text(trace)
        assert captured.err.endswith(f"wrote {len(trace)} records to {trace_path}\n")
    else:
        assert not trace_path.exists() and "wrote" not in captured.err


def test_internal_error_mid_run_keeps_the_whole_lines_written(tmp_path, monkeypatch, capsys):
    iter_run = portarb.cli.iter_run

    def failing(*args):
        for count, record in enumerate(iter_run(*args)):
            if count == 500:
                raise RuntimeError("mid-run")
            yield record

    monkeypatch.setattr(portarb.cli, "iter_run", failing)
    trace_path = tmp_path / "trace.jsonl"
    assert run_cli("simulate", SAT.scenario, "--trace", trace_path) == EXIT_INTERNAL
    assert capsys.readouterr().err.endswith("error: internal: RuntimeError('mid-run')\n")
    written = trace_path.read_text(encoding="utf-8")
    # whole lines, the trace's first
    assert written and written.endswith("\n")
    assert SAT.expected_trace.read_text().startswith(written)


_STOPPED_RUN = """
import os, signal, sys
import portarb.cli

scenario, trace, stop, how = sys.argv[1:]
iter_run = portarb.cli.iter_run

def stopping(*args):
    for count, record in enumerate(iter_run(*args)):
        if count == int(stop):
            if how == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("stopped")
        yield record

portarb.cli.iter_run = stopping
sys.exit(portarb.cli.main(["simulate", scenario, "--trace", trace]))
"""


@pytest.mark.parametrize("how", ["kill", "raise"])
def test_a_stopped_simulate_leaves_whole_lines(tmp_path, how):
    # 500 of the 640 lines are several buffers' worth
    stop = 500
    trace_path = tmp_path / "trace.jsonl"
    child = subprocess.run(
        [sys.executable, "-c", _STOPPED_RUN, str(SAT.scenario), str(trace_path), str(stop), how],
        env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == (-signal.SIGKILL if how == "kill" else EXIT_INTERNAL), child.stderr
    written = trace_path.read_bytes()
    assert written.endswith(b"\n") and SAT.expected_trace.read_bytes().startswith(written)
    if how == "raise":
        # closing the file on the way out writes what its buffer held
        assert written.count(b"\n") == stop


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("name", ["be-curious", "no-rules"])  # fails at close, mid-run
def test_simulate_reports_a_failed_trace_write(capsys, name):
    assert run_cli("simulate", fixture(name).scenario, "--trace", "/dev/full") == EXIT_IO
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"


def _stretched_scenario(directory, times):
    """search-and-track run `times` times over: the horizon scaled and each
    source's active intervals repeated every 20,000 ms."""
    for name in ("model.xml", "network.xml"):
        (directory / name).write_text((SAT.model.parent / name).read_text())
    scenario = json.loads(SAT.scenario.read_text())
    span = scenario["horizon_ms"]
    assert span == 20_000
    scenario["horizon_ms"] = span * times
    for entry in scenario["components"]:
        if "source" in entry:
            active = entry["source"]["active"]
            entry["source"]["active"] = [[s + span * k, e + span * k]
                                         for k in range(times) for s, e in active]
    path = directory / f"scenario-{times}.json"
    path.write_text(json.dumps(scenario))
    return path


def test_simulate_memory_does_not_grow_with_the_horizon(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    short, long = (_stretched_scenario(tmp_path, times) for times in (1, 10))
    assert run_cli("simulate", short, "--trace", out) == EXIT_OK  # warm-up
    peaks = []
    for path in (short, long):
        tracemalloc.start()
        try:
            assert run_cli("simulate", path, "--trace", out) == EXIT_OK
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert "total: 3150 accepted, 3250 discarded, 6400 records" in capsys.readouterr().out
    # holding the 6,400 records of the long run took about 1.5 MB more
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_simulate_memory_does_not_grow_with_the_window(tmp_path, capsys):
    # a window longer than the horizon on every connection: no arrival ever
    # leaves it, so a port that kept one entry per arrival would hold them all
    out = tmp_path / "trace.jsonl"
    short, long = (_stretched_scenario(tmp_path, times) for times in (1, 10))
    network = tmp_path / "network.xml"
    network.write_text(network.read_text().replace("/>", ' window="1000000000"/>'))
    assert run_cli("simulate", short, "--trace", out) == EXIT_OK  # warm-up
    peaks = []
    for path in (short, long):
        tracemalloc.start()
        try:
            assert run_cli("simulate", path, "--trace", out) == EXIT_OK
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert "6400 records" in capsys.readouterr().out
    assert peaks[1] <= 1.5 * peaks[0], peaks


def _port_trace(path, others):
    """A trace of 100 records delivered to /p:i and, after each, `others`
    / 100 delivered to /q:i, each of those with an assignment of its own."""
    sources = tuple(f"/s{i:02}:o" for i in range(16))
    per = others // 100
    records = []
    for t in range(100):
        records.append(TraceRecord(t, sources[0], "/p:i", "accept", "SELECTED", "-",
                                   {sources[0]: True, sources[1]: t % 2 == 0}))
        for k in range(t * per, (t + 1) * per):
            mask = k * 0x9E37 % (1 << 16)  # an odd factor: distinct for every k
            records.append(TraceRecord(t, sources[1], "/q:i", "accept", "SELECTED", "-",
                                       {s: bool(mask >> i & 1) for i, s in enumerate(sources)}))
    write_trace(records, path)


def test_explain_port_memory_does_not_grow_with_other_ports(tmp_path, capsys):
    # the other port's records grow tenfold; neither they nor their
    # assignment texts, all distinct, may be held. 2,000 of them already
    # outnumber the texts the reader keeps parsed.
    short, long = tmp_path / "short.jsonl", tmp_path / "long.jsonl"
    _port_trace(short, 2_000)
    _port_trace(long, 20_000)
    argv = ("--port", "/p:i", "--at", 50)
    assert run_cli("explain", short, *argv) == EXIT_OK  # warm-up
    peaks = []
    for path in (short, long):
        tracemalloc.start()
        try:
            assert run_cli("explain", path, *argv) == EXIT_OK
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    out = capsys.readouterr().out
    assert out.count("t=50 /s00:o -> /p:i accepted: rule satisfied") == 3
    assert peaks[1] <= 1.5 * peaks[0], peaks


def _many_ports_trace(path, ports):
    """A trace of one record delivered to /p:i and then one to each of
    `ports` other ports, each with 24 long source names of its own: every
    one of those lines has a port, a key layout and a text of its own."""
    records = [TraceRecord(0, "/s:o", "/p:i", "accept", "SELECTED", "-", {"/s:o": True})]
    for k in range(ports):
        names = [f"/port{k:05}/source{i:02}/with/a/long/name:o" for i in range(24)]
        records.append(TraceRecord(1, names[0], f"/q{k:05}:i", "accept", "SELECTED", "-",
                                   {name: i % 2 == 0 for i, name in enumerate(names)}))
    write_trace(records, path)


def test_explain_port_memory_does_not_grow_with_the_number_of_other_ports(tmp_path, capsys):
    # the other ports grow tenfold, each with one line of about 1.2 KB;
    # neither those texts nor their all-false forms may be held for all of
    # them. 2,000 ports already outnumber what the reader keeps of either.
    short, long = tmp_path / "short.jsonl", tmp_path / "long.jsonl"
    _many_ports_trace(short, 2_000)
    _many_ports_trace(long, 20_000)
    argv = ("--port", "/p:i", "--at", 0)
    assert run_cli("explain", short, *argv) == EXIT_OK  # warm-up
    peaks = []
    for path in (short, long):
        tracemalloc.start()
        try:
            assert run_cli("explain", path, *argv) == EXIT_OK
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    out = capsys.readouterr().out
    assert out.count("t=0 /s:o -> /p:i accepted: rule satisfied") == 3
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_explain_object_discard(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    run_cli("simulate", SAT.scenario, "--trace", trace_path)
    capsys.readouterr()
    status = run_cli("explain", trace_path, "--port", "/Arm/pos:i", "--at", 14100)
    captured = capsys.readouterr()
    assert status == EXIT_OK
    assert "constraint `not /collision:o` false" in captured.out
    assert "/collision:o active since 14000" in captured.out
    assert "=> Select(/Object/pos:o) @ /Arm/pos:i" in captured.out
    assert "assignment:" in captured.out


def test_explain_accept_and_no_rule(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    run_cli("simulate", SAT.scenario, "--trace", trace_path)
    capsys.readouterr()
    run_cli("explain", trace_path, "--at", 14000, "--port", "/Arm/pos:i")
    captured = capsys.readouterr()
    assert "no rule for /collision:o at /Arm/pos:i" in captured.out
    run_cli("explain", trace_path, "--at", 0, "--port", "/Gaze/pos:i")
    assert "accepted: rule satisfied" in capsys.readouterr().out


def test_explain_reads_the_window_override_from_the_trace(tmp_path, capsys):
    # the arm's window is 50 ms: every arrival 100 ms earlier has expired
    for name in ("model.xml", "scenario.json"):
        (tmp_path / name).write_text((SAT.model.parent / name).read_text())
    network = SAT.network.read_text()
    plain = '<connection from="/Object/pos:o" to="/Arm/pos:i"/>'
    assert plain in network
    (tmp_path / "network.xml").write_text(
        network.replace(plain, plain.replace("/>", ' window="50"/>')))
    trace_path = tmp_path / "trace.jsonl"
    assert run_cli("simulate", tmp_path / "scenario.json", "--trace", trace_path) == EXIT_OK
    capsys.readouterr()
    assert run_cli("explain", trace_path, "--port", "/Arm/pos:i", "--at", 14100) == EXIT_OK
    out = capsys.readouterr().out
    assert "/collision:o active since 14100\n" in out
    assert "/Object/pos:o active since 14100\n" in out


def test_explain_names_each_false_conjunct(tmp_path, capsys):
    # a positive literal, a `not p` and a disjunction, each false at t=50;
    # at t=95 only the disjunction is
    rule = "/c:o and /a:o and not /b:o and (/d:o or /e:o) => Select(/c:o) @ /x:i"
    lines = [
        ('{"t":0,"src":"/b:o","dst":"/x:i","outcome":"discard","reason":"NO_RULE",'
         '"rule":"-","assignment":{"/b:o":true}}'),
        ('{"t":50,"src":"/c:o","dst":"/x:i","outcome":"discard","reason":"CONSTRAINT_FALSE",'
         f'"rule":"{rule}","assignment":{{"/a:o":false,"/b:o":true,"/c:o":true,'
         '"/d:o":false,"/e:o":false}}'),
        ('{"t":90,"src":"/a:o","dst":"/x:i","outcome":"discard","reason":"NO_RULE",'
         '"rule":"-","assignment":{"/a:o":true,"/b:o":false,"/c:o":true}}'),
        ('{"t":95,"src":"/c:o","dst":"/x:i","outcome":"discard","reason":"CONSTRAINT_FALSE",'
         f'"rule":"{rule}","assignment":{{"/a:o":true,"/b:o":false,"/c:o":true,'
         '"/d:o":false,"/e:o":false}}'),
    ]
    trace_path = tmp_path / "trace.jsonl"
    trace_path.write_text("".join(line + "\n" for line in lines))
    assert run_cli("explain", trace_path, "--port", "/x:i") == EXIT_OK
    assert capsys.readouterr().out == (
        "t=0 /b:o -> /x:i discarded: no rule for /b:o at /x:i\n"
        "  rule: -\n"
        "  assignment: /b:o=true\n"
        "t=50 /c:o -> /x:i discarded: constraint `/a:o` false; /a:o inactive; "
        "constraint `not /b:o` false; /b:o active since 0; constraint `/d:o or /e:o` false\n"
        f"  rule: {rule}\n"
        "  assignment: /a:o=false /b:o=true /c:o=true /d:o=false /e:o=false\n"
        "t=90 /a:o -> /x:i discarded: no rule for /a:o at /x:i\n"
        "  rule: -\n"
        "  assignment: /a:o=true /b:o=false /c:o=true\n"
        "t=95 /c:o -> /x:i discarded: constraint `/d:o or /e:o` false\n"
        f"  rule: {rule}\n"
        "  assignment: /a:o=true /b:o=false /c:o=true /d:o=false /e:o=false\n"
    )


def test_explain_names_an_active_source_that_never_arrived(tmp_path, capsys):
    # a hand-edited trace: /b:o is active at /x:i but no record shows it arriving
    rule = "/c:o and not /b:o => Select(/c:o) @ /x:i"
    trace_path = tmp_path / "trace.jsonl"
    trace_path.write_text(
        '{"t":50,"src":"/c:o","dst":"/x:i","outcome":"discard","reason":"CONSTRAINT_FALSE",'
        f'"rule":"{rule}","assignment":{{"/b:o":true,"/c:o":true}}}}\n')
    assert run_cli("explain", trace_path) == EXIT_OK
    assert capsys.readouterr().out == (
        "t=50 /c:o -> /x:i discarded: constraint `not /b:o` false; /b:o active\n"
        f"  rule: {rule}\n"
        "  assignment: /b:o=true /c:o=true\n"
    )


@pytest.mark.parametrize("at", ["1_000", "+14100", " 14100", "\u0661\u0664\u0661\u0660\u0660", ""])
def test_explain_at_takes_ascii_decimal_digits_only(capsys, at):
    # int() read all but the last, so "+14100" explained the records at 14100
    with pytest.raises(SystemExit) as exc:
        run_cli("explain", SAT.expected_trace, "--at", at)
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().err.endswith(f"error: argument --at: invalid int value: {at!r}\n")


def test_explain_at_a_negative_time_matches_nothing(capsys):
    assert run_cli("explain", SAT.expected_trace, "--at", -5) == EXIT_OK
    assert capsys.readouterr().out == "no records\n"


def test_explain_no_matches(tmp_path, capsys):
    trace_path = tmp_path / "empty.jsonl"
    trace_path.write_text("")
    assert run_cli("explain", trace_path) == EXIT_OK
    assert "no records" in capsys.readouterr().out


def test_explain_malformed_trace(tmp_path):
    trace_path = tmp_path / "bad.jsonl"
    trace_path.write_text("garbage\n")
    assert run_cli("explain", trace_path) == EXIT_USAGE


def test_explain_rejects_a_string_time(tmp_path, capsys):
    # a quoted `t` was read as a str and ended explain in a TypeError
    trace_path = tmp_path / "trace.jsonl"
    run_cli("simulate", SAT.scenario, "--trace", trace_path)
    lines = trace_path.read_text().splitlines(keepends=True)
    assert lines[5].startswith('{"t":')
    lines[5] = lines[5].replace('{"t":', '{"t":"', 1).replace(',"src"', '","src"', 1)
    trace_path.write_text("".join(lines))
    capsys.readouterr()
    assert run_cli("explain", trace_path, "--port", "/Arm/pos:i", "--at", 14100) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {trace_path}:6: 't' must be an integer\n"


@pytest.mark.parametrize("breakage", ["value", "t", "truncated"])
def test_explain_port_checks_the_lines_of_other_ports(tmp_path, capsys, breakage):
    # a bad record delivered to another port ends the read all the same
    lines = SAT.expected_trace.read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if i > 3 and '"dst":"/Gaze/pos:i"' in line)
    line = lines[i].rstrip("\n")
    if breakage == "value":
        line = line.replace('":false', '":0', 1)
        message = "'assignment' values must be true or false"
    elif breakage == "t":
        line = line.replace('{"t":', '{"t":"', 1).replace(',"src"', '","src"', 1)
        message = "'t' must be an integer"
    else:
        line = line[:60]
        with pytest.raises(json.JSONDecodeError) as exc:
            json.loads(line)
        message = f"not valid JSON: {exc.value}"
    lines[i] = line + "\n"
    trace_path = tmp_path / "trace.jsonl"
    trace_path.write_text("".join(lines))
    assert run_cli("explain", trace_path, "--port", "/Arm/pos:i", "--at", 14100) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {trace_path}:{i + 1}: {message}\n"


@pytest.mark.parametrize("bad, tail", [
    (b"\xff", True), (b"\xed\xa0\x80", True), (b"\xe2\x82\n", True), (b"\xe2\x82", False),
], ids=["invalid", "surrogate", "cut-at-newline", "cut-at-end"])
@pytest.mark.parametrize("port", [(), ("--port", "/Arm/pos:i")], ids=["all", "port"])
@pytest.mark.parametrize("bad_line", [False, True], ids=["good", "bad-line-first"])
def test_explain_reports_a_late_non_utf8_byte_at_its_offset(tmp_path, capsys, bad, tail, port,
                                                             bad_line):
    # more than 1 MiB in, after a line with a two-byte character and perhaps
    # a malformed line: the error names the byte's offset in the whole file,
    # and it wins over the malformed line before it
    good = SAT.expected_trace.read_bytes()
    first = good.split(b"\n", 1)[0].replace(b"/RandomLook/", "/Rand\u00f6mLook/".encode(), 1)
    head = (b"garbage\n" if bad_line else b"") + first + b"\n" + good * 7
    assert len(head) > 1 << 20
    trace_path = tmp_path / "trace.jsonl"
    trace_path.write_bytes(head + bad + (good if tail else b""))
    assert run_cli("explain", trace_path, *port) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {trace_path}: not UTF-8 text (byte {len(head)})\n"


@pytest.mark.parametrize("kind, text, message", [
    ("model", "<define>x</define>", "<define> requires a name attribute"),
    ("network", "<app/>", "expected <application> root element, got <app>"),
    ("scenario", "[]", "{path}: top level must be a JSON object"),
])
def test_parse_error_exits_2_with_one_line(tmp_path, capsys, kind, text, message):
    path = tmp_path / f"{kind}.txt"
    path.write_text(text)
    argv = {"model": ("validate", path, SAT.network), "network": ("validate", SAT.model, path),
            "scenario": ("simulate", path)}[kind]
    assert run_cli(*argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"


def test_explain_rejects_an_assignment_value_that_is_not_a_boolean(tmp_path, capsys):
    # was exit 0, printing `/c:o=yes` and reporting `/c:o active`
    trace_path = tmp_path / "trace.jsonl"
    trace_path.write_text('{"t":1,"src":"/a:o","dst":"/b:i","outcome":"accept","reason":"SELECTED",'
                          '"rule":"/c:o","assignment":{"/a:o":true,"/c:o":"yes"}}\n')
    assert run_cli("explain", trace_path) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: {trace_path}:1: 'assignment' values must be true or false\n")


@pytest.mark.parametrize("value", [5, None, ["network.xml"]], ids=["int", "null", "list"])
@pytest.mark.parametrize("key", ["model", "network"])
def test_scenario_file_reference_must_be_a_string(tmp_path, capsys, key, value):
    # was read as the path its str() gives, a file the user never named (exit 3)
    for name in ("model.xml", "network.xml"):
        (tmp_path / name).write_text((SAT.model.parent / name).read_text())
    scenario = json.loads(SAT.scenario.read_text())
    scenario[key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert run_cli("simulate", path) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {path}: {key!r} must be a string\n"


@pytest.mark.parametrize("key", ["model", "network"])
def test_scenario_file_reference_must_not_be_empty(tmp_path, capsys, key):
    # "" resolved to the scenario's own directory: "Is a directory" (exit 3)
    for name in ("model.xml", "network.xml"):
        (tmp_path / name).write_text((SAT.model.parent / name).read_text())
    scenario = json.loads(SAT.scenario.read_text())
    scenario[key] = ""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert run_cli("simulate", path) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {path}: {key!r} must not be empty\n"


@pytest.mark.parametrize("command", ["validate", "compile"])
def test_define_that_breaks_the_xml_is_a_usage_error_naming_it(tmp_path, capsys, command):
    path = tmp_path / "model.xml"
    # the reference goes on line 9 of the fixture, after its indent of 3
    text = SAT.model.read_text().replace("<condition></condition>", "<condition>${x}</condition>", 1)
    path.write_text('<define name="x">&lt;bad</define>\n' + text)
    assert run_cli(command, path, SAT.network) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: malformed behavior model XML: define 'x', substituted for ${x} at line 9, "
        "column 14: not well-formed (invalid token)\n")


def _nested_model(parens=0, nots=0, metas=0):
    """One behavior whose condition sits inside `parens` parentheses and
    `nots` negations, under a chain of `metas` nested meta-behaviors."""
    condition = "(" * parens + "not " * nots + "/RestArm/pos:o" + ")" * parens
    chain = "".join(
        f'<meta_behavior name="M{i}"><behavior>{f"M{i + 1}" if i + 1 < metas else "B"}'
        "</behavior></meta_behavior>"
        for i in range(metas)
    )
    return (f'<model>{chain}<behavior name="B"><config at="/Arm/pos:i">/Object/pos:o</config>'
            f"<condition>{condition}</condition></behavior></model>")


@pytest.mark.parametrize("shape", [{"parens": 600}, {"nots": 600}, {"metas": 1200}],
                         ids=("parens", "nots", "metas"))
def test_nesting_past_the_cap_is_a_parse_error(tmp_path, capsys, shape):
    path = tmp_path / "model.xml"
    path.write_text(_nested_model(**shape))
    assert run_cli("compile", path, SAT.network) == EXIT_USAGE
    assert "nested" in capsys.readouterr().err
    # at the cap itself the model compiles
    path.write_text(_nested_model(**{key: MAX_NESTING_DEPTH for key in shape}))
    assert run_cli("compile", path, SAT.network) == EXIT_OK


# JSON nested deeper than Python's recursion limit
_DEEP_JSON = "[" * 100_000 + "]" * 100_000


def test_scenario_nested_past_the_recursion_limit_is_a_parse_error(tmp_path, capsys):
    # json.loads raised RecursionError, an internal error (exit 4)
    for name in ("model.xml", "network.xml"):
        (tmp_path / name).write_text((SAT.model.parent / name).read_text())
    path = tmp_path / "scenario.json"
    path.write_text('{"x":' + _DEEP_JSON + "," + SAT.scenario.read_text().lstrip()[1:])
    assert run_cli("simulate", path) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {path}: JSON nested too deeply\n"


def test_trace_nested_past_the_recursion_limit_is_a_parse_error(tmp_path, capsys):
    # as for a scenario: exit 4 from a RecursionError in json.loads
    lines = SAT.expected_trace.read_text().splitlines(keepends=True)
    head = lines[2][:lines[2].index('"assignment":') + len('"assignment":')]
    lines[2] = head + _DEEP_JSON + "}\n"
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(lines))
    assert run_cli("explain", path) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {path}:3: JSON nested too deeply\n"


def _sibling_chain(n, closed):
    """`n` sibling behaviors, each inhibiting the next; the last inhibits
    the first when `closed`."""
    behaviors = "".join(
        f'<behavior name="B{i}"><config at="/Gaze/pos:i">/Face/pos:o</config>'
        f"<condition></condition><inhibition>{f'B{i + 1}' if i + 1 < n else 'B0' if closed else ''}"
        "</inhibition></behavior>"
        for i in range(n)
    )
    return f"<model>{behaviors}</model>"


@pytest.mark.parametrize("closed", [False, True], ids=("chain", "cycle"))
def test_long_sibling_inhibition_chain_compiles(tmp_path, capsys, closed):
    # the cycle check recursed once per inhibition edge
    path = tmp_path / "model.xml"
    path.write_text(_sibling_chain(1200, closed))
    status = run_cli("compile", path, SAT.network)
    err = capsys.readouterr().err
    assert "error: internal" not in err
    if closed:
        assert status == EXIT_VALIDATION
        assert err.count("[V4]") == 1
        assert "inhibition cycle among siblings: B0 -> B1 -> B2 -> " in err
        assert " -> B1199 -> B0\n" in err
    else:
        assert status == EXIT_OK
        assert "[V4]" not in err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("compile")  # missing positional arguments
    assert exc.value.code == EXIT_USAGE


def test_internal_error_is_one_line_exit_4(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded\nwhile building")

    monkeypatch.setattr(portarb.cli, "compile_model", broken)
    assert run_cli("compile", SAT.model, SAT.network, "--auto-observe") == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: internal: RecursionError(")
    assert "Traceback" not in captured.err


def test_cli_output_is_byte_stable(capsys):
    run_cli("compile", SAT.model, SAT.network, "--auto-observe")
    first = capsys.readouterr().out
    run_cli("compile", SAT.model, SAT.network, "--auto-observe")
    second = capsys.readouterr().out
    assert first == second


PACKAGE_DIR = Path(portarb.cli.__file__).resolve().parent


def _child_env():
    """The environment of a fresh interpreter that imports this package."""
    path = os.pathsep.join(filter(None, (str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def _loaded_by_cli_import(names, *flags):
    """Those of `names` in sys.modules of a fresh interpreter, started with
    `flags`, after `import portarb.cli`."""
    child = subprocess.run(
        [sys.executable, *flags, "-c",
         f"import sys, portarb.cli; print(sorted(set({sorted(names)!r}) & set(sys.modules)))"],
        env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout


def test_import_leaves_the_network_stack_out():
    # xml.sax.saxutils would pull in urllib.request and http.client
    assert _loaded_by_cli_import({"urllib.request", "http.client"}) == "[]\n"


def test_import_leaves_dataclasses_out():
    # dataclasses pulls in inspect, ast and dis, and each @dataclass execs
    # the methods it generates: together most of the start-up of a run
    assert _loaded_by_cli_import({"dataclasses", "inspect", "ast", "dis"}) == "[]\n"


def test_import_leaves_typing_out():
    # typing was about a third of a clean interpreter's import of the CLI;
    # -S skips the site hooks, which may import typing before portarb does
    assert _loaded_by_cli_import({"typing"}, "-S") == "[]\n"


def test_no_module_of_the_package_imports_dataclasses():
    importers = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.partition(".")[0] == "dataclasses" for name in names):
                importers.append(path.name)
    assert importers == []


def _defined_names(tree):
    """The names a module binds: its functions, classes, arguments, and
    the variables and attributes it assigns."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def test_no_module_of_the_package_reads_another_modules_private_attribute():
    # a name with one leading underscore is private to the module that
    # defines it; another module uses the public name instead
    reads = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = _defined_names(tree)
        reads += [
            f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and node.attr.startswith("_") and not node.attr.startswith("__")
            and node.attr not in own
        ]
    assert reads == []


INPUT_KINDS = ("model", "network", "scenario", "trace")


def _input_file(fx, kind):
    return fx.expected_trace if kind == "trace" else getattr(fx, kind)


def _write_inputs(fx, directory, kind, data):
    """The fixture's model, network, scenario and expected trace copied into
    `directory`, the file of `kind` holding `data` instead; their paths."""
    paths = {}
    for name in INPUT_KINDS:
        source = _input_file(fx, name)
        paths[name] = Path(directory) / source.name
        paths[name].write_bytes(data if name == kind else source.read_bytes())
    return paths


def _commands(kind, paths):
    """The CLI runs that read the file of `kind`."""
    model, network, scenario = paths["model"], paths["network"], paths["scenario"]
    if kind == "trace":
        return [("explain", paths["trace"])]
    if kind == "scenario":
        return [("simulate", scenario)]
    return [("compile", model, network), ("compile", model, network, "--auto-observe"),
            ("validate", model, network, "--auto-observe"), ("simulate", scenario)]


@pytest.mark.parametrize("kind", INPUT_KINDS)
def test_input_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, kind):
    # each ended as an internal error whose one line echoed the file's bytes
    data = _input_file(SAT, kind).read_bytes()
    bad = b"\xff\xfe" + data if kind in ("model", "network") else data[:20] + b"\xff" + data[20:]
    offset = 0 if kind in ("model", "network") else 20
    paths = _write_inputs(SAT, tmp_path, kind, bad)
    for argv in _commands(kind, paths):
        assert run_cli(*argv) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert captured.err == f"error: {paths[kind]}: not UTF-8 text (byte {offset})\n", argv


# -- fuzzing the four commands over mutated fixture files --------------------

_BASE = {(name, kind): _input_file(fixture(name), kind).read_bytes()
         for name in FIXTURE_NAMES for kind in INPUT_KINDS}
_NOT_UTF8 = (b"\xff", b"\xfe", b"\xc3", b"\x80", b"\xed\xa0\x80", b"\xf4\x90\x80\x80")
_WRONG_JSON = (None, True, False, 0, -1, 1.5, "", "x", [], [1], [[0]], {}, {"a": 1})
_WINDOWS = st.one_of(
    st.integers(-10**30, 10**30).map(str),
    st.text(max_size=10),
    st.sampled_from(["", "0", "-0", "1e3", "0x10", " 7 ", "1_000", "\u0663", "9" * 5000]),
)


def _replace_element(draw, text, tag, content):
    """`text` with the content of one drawn `<tag>` element replaced."""
    spans = [m.span(1) for m in re.finditer(rf"<{tag}>(.*?)</{tag}>", text, re.S)]
    if not spans:
        return text
    start, end = spans[draw(st.integers(0, len(spans) - 1))]
    return text[:start] + content + text[end:]


def _nested(draw):
    parens, nots = draw(st.integers(0, 160)), draw(st.integers(0, 160))
    return "(" * parens + "not " * nots + "/Face/pos:o" + ")" * parens


def _defines(draw, text):
    shape = draw(st.sampled_from(("self", "mutual", "doubling")))
    if shape == "self":
        defines = '<define name="x">${x}</define>'
    elif shape == "mutual":
        defines = '<define name="x">${y}</define><define name="y">${x}</define>'
    else:
        depth = draw(st.integers(1, 24))
        defines = '<define name="x0">/Face/pos:o</define>' + "".join(
            f'<define name="x{i}">${{x{i - 1}}} or ${{x{i - 1}}}</define>'
            for i in range(1, depth + 1))
        text = _replace_element(draw, text, "condition", f"${{x{depth}}}")
    first = re.search(r"<(?:meta_)?behavior name=", text)
    at = first.start() if first else 0
    return text[:at] + defines + text[at:]


def _dense_siblings(text, count):
    """`text` with `count` top-level behaviors added, each inhibiting all the
    others."""
    names = [f"D{i}" for i in range(count)]
    behaviors = "".join(
        f'<behavior name="{name}"><config at="/D:i">/D:o</config>'
        f'<inhibition>{", ".join(n for n in names if n != name)}</inhibition></behavior>'
        for name in names)
    first = re.search(r"<(?:meta_)?behavior name=", text)
    at = first.start() if first else text.rfind("</")
    return text[:at] + behaviors + text[at:]


def _wrong_json_type(draw, data):
    """The scenario with one drawn field replaced by a value of the wrong type."""
    scenario = json.loads(data)
    holders = [(scenario, key) for key in scenario]
    for entry in scenario["components"]:
        holders += [(entry, key) for key in entry]
        for spec in (entry.get("source"), entry.get("sink")):
            if isinstance(spec, dict):
                holders += [(spec, key) for key in spec]
                for interval in spec.get("active", []):
                    holders += [(interval, i) for i in range(len(interval))]
    holder, key = holders[draw(st.integers(0, len(holders) - 1))]
    holder[key] = draw(st.sampled_from(_WRONG_JSON))
    return json.dumps(scenario).encode()


@st.composite
def mutated_inputs(draw):
    """(fixture name, file kind, mutated bytes of that file)."""
    name = draw(st.sampled_from(FIXTURE_NAMES))
    kind = draw(st.sampled_from(INPUT_KINDS))
    data = _BASE[name, kind]
    mutations = ["truncate", "not-utf8"] + {
        "model": ["nesting", "inhibitors", "defines", "dense-siblings"],
        "network": ["window"],
        "scenario": ["json-type"],
        "trace": ["nesting"],
    }[kind]
    mutation = draw(st.sampled_from(mutations))
    if mutation == "truncate":
        return name, kind, data[:draw(st.integers(0, len(data)))]
    if mutation == "not-utf8":
        at = draw(st.integers(0, len(data)))
        return name, kind, data[:at] + draw(st.sampled_from(_NOT_UTF8)) + data[at:]
    if mutation == "json-type":
        return name, kind, _wrong_json_type(draw, data)
    text = data.decode()
    if mutation == "nesting" and kind == "trace":
        lines = text.splitlines(keepends=True)
        i = draw(st.integers(0, len(lines) - 1))
        rule = f"/Face/pos:o and {_nested(draw)} => Select(/Face/pos:o) @ /Gaze/pos:i"
        lines[i] = re.sub(r'"rule":"[^"]*"', lambda _: f'"rule":"{rule}"', lines[i])
        lines[i] = lines[i].replace('"outcome":"accept","reason":"SELECTED"',
                                    '"outcome":"discard","reason":"CONSTRAINT_FALSE"')
        text = "".join(lines)
    elif mutation == "nesting":
        text = _replace_element(draw, text, "condition", _nested(draw))
    elif mutation == "inhibitors":
        names = re.findall(r'name="([^"]*)"', text) + ["Ghost"]
        count = draw(st.integers(0, 3000))
        step = draw(st.integers(1, 7))
        targets = [names[k * step % len(names)] for k in range(count)]
        if draw(st.booleans()):
            targets += [f"Missing {k}" for k in range(count)]
        text = _replace_element(draw, text, "inhibition", ", ".join(targets))
    elif mutation == "defines":
        text = _defines(draw, text)
    elif mutation == "dense-siblings":
        text = _dense_siblings(text, draw(st.integers(2, 200)))
    else:  # window
        value = draw(_WINDOWS).replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")
        text = re.sub(r'<connection ((?:(?!/>).)*?)(?: window="[^"]*")?\s*/>',
                      lambda m: f'<connection {m.group(1)} window="{value}"/>', text, count=1)
    return name, kind, text.encode("utf-8", "surrogatepass")


# stderr of one run is at most this many times the bytes of the files it
# reads, plus one line's worth; one V5 per missing inhibition target writes
# about 5 bytes per byte of the target list
ERR_PER_INPUT_BYTE = 8
ONE_LINE = 1024


def _input_bytes(argv, paths):
    """Bytes of the files the CLI run `argv` reads."""
    kinds = {"explain": ("trace",), "simulate": ("scenario", "model", "network")}
    return sum(paths[k].stat().st_size for k in kinds.get(argv[0], ("model", "network")))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_inputs())
@example(("search-and-track", "model", b"\xff\xfe" + _BASE["search-and-track", "model"]))
@example(("be-curious", "trace", b"\xff\n"))
@example(("conflict-demo", "model",
          _dense_siblings(_BASE["conflict-demo", "model"].decode(), 200).encode()))
def test_cli_survives_mutated_inputs(case):
    """Whatever the mutation, each command ends in a documented exit code
    other than 4, never reports an internal error, and writes to stderr at
    most a fixed multiple of what it reads."""
    name, kind, data = case
    with tempfile.TemporaryDirectory() as directory:
        paths = _write_inputs(fixture(name), directory, kind, data)
        for argv in _commands(kind, paths):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                status = run_cli(*argv)
            assert status in (EXIT_OK, EXIT_VALIDATION, EXIT_USAGE, EXIT_IO), (argv, err.getvalue())
            assert "error: internal" not in err.getvalue()
            written, read = len(err.getvalue()), _input_bytes(argv, paths)
            assert written <= ERR_PER_INPUT_BYTE * read + ONE_LINE, (argv, written, read)
