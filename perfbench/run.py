#!/usr/bin/env python3
"""Benchmark for portarb: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload NAME from seed N under perfbench/_work/, runs one
warm-up repetition and then repeats the measured work for S seconds (at
least MIN_REPS times), checks every output against the independent oracle
in oracle.py, and prints one line per metric followed by a JSON object
{"correct", "attempted", "failed", "metrics"} as the last line.

Each timing is the best sample of the run. On a shared machine the speed
of the same code drifts between slow and fast phases lasting tens of
seconds, on each CPU separately; a median then jumps between phases, while
the best sample, which the other tenants' load can only make worse, holds
much steadier. Repetitions take turns on the CPUs for the same reason
(README.md).

--trace 0 reports the end-to-end metrics, taken from untraced repetitions.
--trace 1 alternates untraced and traced repetitions, writes the spans to
perfbench/_work/<run>/spans.jsonl and reports the per-layer metrics.
--scale smoke selects the smallest size of each workload.

Only the checkout's own src/portarb is imported, in this process and in the
child processes that run the CLI.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from oracle import Oracle, Tally, parse_trace
from spans import NoSpans, Spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

MIN_REPS = 3
STAGE_MIN_S = 0.2  # a repetition repeats set-up, run and write until each took this long
QUERIES = 4  # explain queries drawn per run
EXPLAINS_PER_REP = 4
EVALUATE_SAMPLES = 20_000  # cap on timed BddManager.evaluate calls per traced repetition

END_TO_END = {
    "setup_s": "s",
    "sim_records_per_s": "1/s",
    "trace_write_records_per_s": "1/s",
    "simulate_wall_s": "s",
    "peak_rss_mb": "MB",
    "explain_query_s": "s",
}

LAYERS = ("model", "compiler", "bdd", "arbiter", "simnet", "cli")

PER_LAYER = {
    "model.parse_s": "s",
    "model.validate_s": "s",
    "model.auto_observe_s": "s",
    "model.leaves": "count",
    "model.observer_connections_added": "count",
    "compiler.extract_s": "s",
    "compiler.check_conflicts_s": "s",
    "compiler.rules": "count",
    "compiler.rule_literals": "count",
    "compiler.conflict_pairs": "count",
    "compiler.c1_warnings": "count",
    "bdd.build_s": "s",
    "bdd.nodes": "count",
    "bdd.evaluate_ns_p50": "ns",
    "bdd.evaluate_ns_p99": "ns",
    "bdd.evaluate_samples": "count",
    "arbiter.init_s": "s",
    "arbiter.decide_us_p50": "us",
    "arbiter.decide_us_p99": "us",
    "arbiter.decide_samples": "count",
    "arbiter.snapshot_us_p50": "us",
    "arbiter.snapshot_samples": "count",
    "arbiter.fanin_max": "count",
    "arbiter.accept_ratio": "ratio",
    "arbiter.no_rule_ratio": "ratio",
    "simnet.load_scenario_s": "s",
    "simnet.run_s": "s",
    "simnet.records": "count",
    "simnet.emissions": "count",
    "simnet.write_trace_s": "s",
    "simnet.trace_bytes": "bytes",
    "simnet.read_trace_s": "s",
    "cli.explain_s": "s",
    "cli.import_s": "s",
    "cli.explain_streak_mismatches": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_pct": "%",
}

# Spans whose shortest duration in the run is a per-layer metric.
STAGE_SPANS = {
    "model.parse_s": "model.parse",
    "model.validate_s": "model.validate",
    "model.auto_observe_s": "model.auto_observe",
    "compiler.extract_s": "compiler.extract",
    "compiler.check_conflicts_s": "compiler.check_conflicts",
    "bdd.build_s": "bdd.build",
    "arbiter.init_s": "arbiter.init",
    "simnet.load_scenario_s": "simnet.load_scenario",
    "simnet.run_s": "simnet.run",
    "simnet.write_trace_s": "simnet.write_trace",
    "simnet.read_trace_s": "simnet.read_trace",
    "cli.explain_s": "cli.explain",
}

SIMULATE = "import sys; from portarb.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT = "import time; t = time.perf_counter(); import portarb; print(time.perf_counter() - t)"


def import_portarb():
    """Import portarb from this checkout's src/, never from anywhere else."""
    if not (SRC / "portarb" / "__init__.py").is_file():
        raise SystemExit(f"error: no portarb package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import portarb
    import portarb.cli
    import portarb.model

    if Path(portarb.__file__).resolve().parent != SRC / "portarb":
        raise SystemExit(f"error: imported portarb from {portarb.__file__}, not from {SRC}")
    return portarb


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tail_percentile(samples, q: float):
    """Nearest-rank percentile q, or None unless at least ten samples lie
    beyond it."""
    n = len(samples)
    if n * (1 - q) < 10:
        return None
    return sorted(samples)[math.ceil(q * n) - 1]


class Bench:
    def __init__(self, workload: str, seed: int, scale: str = "full"):
        self.pa = import_portarb()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # started while this process is still small; see spawner.py
        self.spawner = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], env=self.env,
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.workload = workload
        self.seed = seed
        self.dir = WORK / f"{workload}-s{seed}-{scale}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.spec, self.scenario_path = workloads.generate(
            workload, seed, self.dir / "input", ROOT, scale)
        self.oracle = Oracle(self.spec)
        self.tally = Tally()
        self.trace_path = self.dir / "trace.jsonl"
        self.child_trace_path = self.dir / "simulate-trace.jsonl"
        self.digest = None
        self.counts: dict[str, float] = {}  # work counts of the first repetition
        self.queries: list[tuple[int, str]] = []
        self.explain_texts: dict[tuple[int, str], str] = {}
        self.explains_run = 0
        self.streak_mismatches = 0
        self.sample_counts: dict[str, int] = {}
        self.cpus = sorted(os.sched_getaffinity(0))
        self.reps_started = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.spawner.stdin.close()
        self.spawner.wait(timeout=60)
        self.spawner.stdout.close()

    # -- one repetition ---------------------------------------------------

    def rep(self, spans):
        """Set up, run, write the trace, run `portarb simulate` as a child and
        answer explain queries. Returns timings and the in-process results."""
        pa = self.pa
        # Each CPU of a shared host has slow and fast phases of its own, so
        # repetitions take turns on the CPUs (the spawner's children too) and
        # the best sample of a run is the best over all of them.
        cpu = {self.cpus[self.reps_started % len(self.cpus)]}
        os.sched_setaffinity(0, cpu)
        os.sched_setaffinity(self.spawner.pid, cpu)
        self.reps_started += 1
        gc.collect()
        setups = []
        while sum(setups) < STAGE_MIN_S:
            t0 = time.perf_counter()
            with spans.span("simnet.load_scenario"):
                scenario = pa.load_scenario(self.scenario_path)
            with spans.span("model.validate"):
                diagnostics = pa.validate(scenario.model, scenario.network, auto_observe=True)
            with spans.span("model.auto_observe"):
                network = pa.apply_auto_observe(scenario.model, scenario.network)
            with spans.span("compiler.extract"):
                ruleset = pa.extract_rules(scenario.model, network)
            with spans.span("compiler.check_conflicts"):
                conflicts = pa.check_conflicts(ruleset)
            setups.append(time.perf_counter() - t0)
        self.tally.check(not pa.has_errors(diagnostics), "validate reported errors")

        runs, trace = [], None
        while sum(runs) < STAGE_MIN_S:
            trace = None
            gc.collect()
            t0 = time.perf_counter()
            with spans.span("simnet.run"):
                trace = pa.run(scenario, ruleset, network=network)
            runs.append(time.perf_counter() - t0)

        writes = []
        while sum(writes) < STAGE_MIN_S:
            gc.collect()
            t0 = time.perf_counter()
            with spans.span("simnet.write_trace"):
                pa.write_trace(trace, self.trace_path)
            writes.append(time.perf_counter() - t0)

        digest = sha256(self.trace_path)
        if self.digest is None:
            self.digest = digest
            self.counts = self.count(scenario, network, ruleset, conflicts, trace)
            rng = random.Random(f"queries:{self.workload}:{self.seed}")
            picks = rng.sample(trace.records, min(QUERIES, len(trace.records)))
            self.queries = list(dict.fromkeys((r.t, r.dst) for r in picks))
        self.tally.check(digest == self.digest, "trace bytes differ between repetitions")

        wall, rss_kb = self.simulate_child(spans)
        explain = [self.explain(spans) for _ in range(EXPLAINS_PER_REP)]
        timings = {"setup": setups, "run": runs, "write": writes, "records": len(trace),
                   "wall": wall, "rss_kb": rss_kb, "explain": explain}
        return timings, (network, ruleset, trace)

    def count(self, scenario, network, ruleset, conflicts, trace) -> dict:
        """Per-layer work counts; they depend only on the workload."""
        pa = self.pa
        pairs = 0
        for rules in ruleset.by_port().values():
            pairs += sum(1 for i, a in enumerate(rules) for b in rules[i + 1:]
                         if a.candidate != b.candidate)
        records = trace.records
        return {
            "model.leaves": len(scenario.model.leaf_behaviors()),
            "model.observer_connections_added": len(network.connections) - len(scenario.network.connections),
            "compiler.rules": len(ruleset.rules),
            "compiler.rule_literals": sum(
                len(pa.model.condition_literals(r.constraint)) for r in ruleset.rules),
            "compiler.conflict_pairs": pairs,
            "compiler.c1_warnings": sum(d.code == "C1" for d in conflicts),
            "arbiter.accept_ratio": sum(r.outcome == pa.ACCEPT for r in records) / len(records),
            "arbiter.no_rule_ratio": sum(r.reason == pa.NO_RULE for r in records) / len(records),
            "simnet.records": len(records),
            "simnet.emissions": len({(r.t, r.src) for r in records}),
        }

    def simulate_child(self, spans):
        """`portarb simulate <scenario> --trace <file>` in a child process
        started by the spawner; returns its wall time and peak RSS (kB)."""
        cmd = [sys.executable, "-c", SIMULATE, "simulate", str(self.scenario_path),
               "--trace", str(self.child_trace_path)]
        request = [cmd, str(self.dir), str(self.dir / "simulate.out"), str(self.dir / "simulate.err")]
        with spans.span("cli.simulate"):
            self.spawner.stdin.write(json.dumps(request) + "\n")
            self.spawner.stdin.flush()
            code, wall, rss_kb = json.loads(self.spawner.stdout.readline())
        self.tally.check(code == 0, f"portarb simulate exited with {code}")
        self.tally.check(sha256(self.child_trace_path) == self.digest,
                         "portarb simulate wrote a different trace")
        return wall, rss_kb

    def explain(self, spans):
        """Run the next explain query in process; returns (query, seconds)."""
        at, port = query = self.queries[self.explains_run % len(self.queries)]
        self.explains_run += 1
        buf = io.StringIO()
        t0 = time.perf_counter()
        with spans.span("cli.explain"), contextlib.redirect_stdout(buf):
            code = self.pa.cli.main(["explain", str(self.trace_path), "--at", str(at), "--port", port])
        elapsed = time.perf_counter() - t0
        text = self.explain_texts.setdefault(query, buf.getvalue())
        self.tally.check(code == 0 and buf.getvalue() == text,
                         f"explain --at {at} --port {port} failed or changed its answer")
        return query, elapsed

    # -- per-layer probes (traced repetitions only) ------------------------

    def probe(self, spans, results, samples):
        """Time the layers' public calls that a repetition does not isolate:
        parsing, BDD building and evaluation, per-arrival arbitration,
        trace reading and package import."""
        pa = self.pa
        network, ruleset, trace = results
        model_text = (self.dir / "input" / "model.xml").read_text(encoding="utf-8")
        network_text = (self.dir / "input" / "network.xml").read_text(encoding="utf-8")
        with spans.span("model.parse"):
            pa.parse_behavior_model(model_text)
            pa.parse_network(network_text)

        with spans.span("bdd.build"):
            manager = pa.BddManager()
            nodes_by_port: dict[str, list[int]] = {}
            for rule in ruleset.rules:
                nodes_by_port.setdefault(rule.port, []).append(manager.build(rule.constraint))
        samples["bdd.nodes"] = len(manager)

        # Evaluate every rule of the record's port against its assignment.
        calls = sum(len(nodes_by_port.get(r.dst, ())) for r in trace.records)
        stride = max(1, math.ceil(calls / EVALUATE_SAMPLES))
        clock = time.perf_counter_ns
        evaluate = samples.setdefault("evaluate", [])
        with spans.span("bdd.evaluate"):
            for record in trace.records[::stride]:
                for node in nodes_by_port.get(record.dst, ()):
                    t0 = clock()
                    manager.evaluate(node, record.assignment)
                    evaluate.append(clock() - t0)

        with spans.span("arbiter.init"):
            arbiters = {
                port: pa.PortArbiter(port, network.incoming(port), ruleset,
                                     window_ms=network.windows.get(port, pa.DEFAULT_WINDOW_MS))
                for port in sorted({c.destination for c in network.connections})
            }
        samples["fanin_max"] = max(len(a.incoming) for a in arbiters.values())
        connections = {(c.source, c.destination): c for c in network.connections}
        decide, snapshot = samples.setdefault("decide", []), samples.setdefault("snapshot", [])
        disagree = 0
        with spans.span("arbiter.replay"):
            for record in trace.records:
                arbiter = arbiters[record.dst]
                conn = connections[(record.src, record.dst)]
                t0 = clock()
                arbiter.record_arrival(conn, record.t)
                decision = arbiter.decide(conn, record.t)
                t1 = clock()
                arbiter.activation_snapshot(record.t)
                t2 = clock()
                decide.append(t1 - t0)
                snapshot.append(t2 - t1)
                disagree += (decision.outcome, decision.reason) != (record.outcome, record.reason)
        self.tally.check(disagree == 0, f"arbiter replay disagrees with the trace on {disagree} records")

        with spans.span("simnet.read_trace"):
            pa.read_trace(self.trace_path)

        with spans.span("cli.import"):
            child = subprocess.run([sys.executable, "-c", IMPORT], env=self.env, cwd=self.dir,
                                   capture_output=True, text=True, timeout=120)
        if self.tally.check(child.returncode == 0, f"import portarb exited with {child.returncode}"):
            samples.setdefault("import", []).append(float(child.stdout))

    # -- measurement loops ---------------------------------------------------

    def measure(self, seconds: float) -> dict:
        """End-to-end metrics over untraced repetitions."""
        self.rep(NoSpans())  # warm-up: fills the bytecode cache and the allocator
        reps = []
        deadline = time.perf_counter() + seconds
        while len(reps) < MIN_REPS or time.perf_counter() < deadline:
            reps.append(self.rep(NoSpans())[0])
        self.reps = len(reps)
        setups = [t for r in reps for t in r["setup"]]
        runs = [t for r in reps for t in r["run"]]
        writes = [t for r in reps for t in r["write"]]
        records = reps[0]["records"]
        self.sample_counts = {name: len(reps) for name in END_TO_END}
        self.sample_counts.update(setup_s=len(setups), sim_records_per_s=len(runs),
                                  trace_write_records_per_s=len(writes),
                                  explain_query_s=sum(len(r["explain"]) for r in reps))
        return {
            "setup_s": min(setups),
            "sim_records_per_s": records / min(runs),
            "trace_write_records_per_s": records / min(writes),
            "simulate_wall_s": min(r["wall"] for r in reps),
            "peak_rss_mb": statistics.median(r["rss_kb"] for r in reps) / 1024,
            "explain_query_s": explain_cost(reps),
        }

    def measure_traced(self, seconds: float) -> dict:
        """Per-layer metrics from traced repetitions, each paired with an
        untraced one to measure the tracing overhead."""
        spans = Spans(f"{self.workload}-s{self.seed}-{os.getpid()}")
        self.rep(NoSpans())
        untraced, traced = [], []
        samples: dict = {}
        deadline = time.perf_counter() + seconds
        while len(traced) < 2 or time.perf_counter() < deadline:
            untraced.append(self.rep(NoSpans())[0])
            with spans.span("bench.rep"):
                timings, results = self.rep(spans)
                traced.append(timings)
                self.probe(spans, results, samples)
        self.reps = len(traced)
        spans.write(self.dir / "spans.jsonl")
        self.spans_path = self.dir / "spans.jsonl"

        med = statistics.median
        metrics = {name: min(spans.durations(span)) for name, span in STAGE_SPANS.items()}
        metrics.update(self.counts)
        metrics.update({
            "bdd.nodes": samples["bdd.nodes"],
            "arbiter.fanin_max": samples["fanin_max"],
            "simnet.trace_bytes": self.trace_path.stat().st_size,
            "cli.import_s": min(samples["import"]),
        })
        for name, key, scale in (("bdd.evaluate_ns", "evaluate", 1),
                                 ("arbiter.decide_us", "decide", 1e-3),
                                 ("arbiter.snapshot_us", "snapshot", 1e-3)):
            values = samples[key]
            metrics[f"{name}_p50"] = med(values) * scale
            p99 = tail_percentile(values, 0.99)
            if p99 is not None:
                metrics[f"{name}_p99"] = p99 * scale
            metrics[f"{name.rsplit('_', 1)[0]}_samples"] = len(values)
        self_times = spans.self_times()
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = self_times.get(layer, 0.0) / len(traced)
        metrics["trace.overhead_pct"] = (rep_cost(traced) / rep_cost(untraced) - 1) * 100
        return metrics

    # -- correctness -----------------------------------------------------------

    def check_outputs(self) -> None:
        """Oracle checks on the trace (every repetition and the child wrote
        the same bytes, so one file stands for all), the explain answers,
        the compile counts and the four fixtures' golden traces."""
        records = parse_trace(self.trace_path)
        self.oracle.check_records(records, self.tally)
        for (at, port), text in self.explain_texts.items():
            self.streak_mismatches += self.oracle.check_explain(records, at, port, text, self.tally)
        added, rules = self.counts["model.observer_connections_added"], self.counts["compiler.rules"]
        self.tally.check(added == self.oracle.observers_added,
                         f"auto-observe added {added} connections, expected {self.oracle.observers_added}")
        self.tally.check(rules == len(self.oracle.rules),
                         f"{rules} rules, expected {len(self.oracle.rules)}")
        self.check_fixtures()

    def check_fixtures(self) -> None:
        pa = self.pa
        for name in pa.FIXTURE_NAMES:
            fx = pa.fixture(name)
            scenario = pa.load_scenario(fx.scenario)
            network = pa.apply_auto_observe(scenario.model, scenario.network)
            trace = pa.run(scenario, pa.extract_rules(scenario.model, network), network=network)
            out = self.dir / f"fixture-{name}.jsonl"
            pa.write_trace(trace, out)
            self.tally.check(out.read_bytes() == fx.expected_trace.read_bytes(),
                             f"fixture {name}: trace differs from expected_trace.jsonl")


def rep_cost(reps) -> float:
    """Seconds one repetition takes, from the fastest sample of each step."""
    return (min(t for r in reps for t in r["setup"]) + min(t for r in reps for t in r["run"])
            + min(t for r in reps for t in r["write"]) + min(r["wall"] for r in reps)
            + EXPLAINS_PER_REP * explain_cost(reps))


def explain_cost(reps) -> float:
    """Median over the explain queries of each query's fastest time."""
    fastest: dict = {}
    for r in reps:
        for query, t in r["explain"]:
            fastest[query] = min(t, fastest.get(query, t))
    return statistics.median(fastest.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    with Bench(args.workload, args.seed, args.scale) as bench:
        if args.trace:
            metrics = bench.measure_traced(args.seconds)
        else:
            metrics = bench.measure(args.seconds)
    bench.check_outputs()
    for path in (bench.trace_path, bench.child_trace_path):
        path.unlink()  # tens of MB each; the digest printed below identifies them
    if args.trace:
        metrics["cli.explain_streak_mismatches"] = bench.streak_mismatches
    units = PER_LAYER if args.trace else END_TO_END
    # Canonical order; a p99 with fewer than ten samples beyond it is left out.
    metrics = {name: metrics[name] for name in units if name in metrics}

    tally = bench.tally
    print(f"workload {args.workload} seed {args.seed} scale {args.scale}: "
          f"{bench.reps} repetitions, {time.perf_counter() - started:.1f} s")
    print(f"trace_sha256 {bench.digest}")
    for name, value in metrics.items():
        count = bench.sample_counts.get(name)
        suffix = f"  ({count} samples)" if count else ""
        print(f"  {name} = {value:.6g} {units[name]}{suffix}")
    print(f"error_rate = {tally.failed / tally.attempted:.6g} ({tally.failed} failed of {tally.attempted} checks)")
    if args.trace:
        print(f"spans written to {bench.spans_path}")
    for message in tally.messages:
        print(f"FAILED: {message}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
