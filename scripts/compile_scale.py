#!/usr/bin/env python3
"""Time each compile stage on the deep-hierarchy model as it grows.

Generates perfbench's deep-hierarchy workload (branching 4, as many ports
as leaves) at each requested leaf count, then times the compile stages in
process on it: parse, validate with auto-observe, auto-observe, rule
extraction and the conflict check. Prints, per size, the milliseconds of
each stage (best of `--repeat`), the microseconds per added observer
connection of validate and auto-observe, how many diagnostics validate
returns, how many C1 warnings the conflict check returns, the
milliseconds the cyclic garbage collector paused during the compile
(summed through `gc.callbacks`, best of `--repeat`), and the process's
peak RSS so far (sizes run smallest first, so it is that of the largest
size run yet). Then, on the compiled rules, it times building the run's
per-source fan-out (`arbiter.init`, ms: `simnet.fan_out`, with every
window's activation table and every port's rule entries) and the
simulation of the workload's scenario (`run`, microseconds per record),
best of `--repeat` each. The run drains `iter_run`, which `run` collects,
so no trace is held or written: at 1,024 leaves it yields over a million
records. Beside `run`, `arrive+verdict` replays the run's emissions through
a fresh fan-out with the run's own steps and nothing else: per emission,
`ActivationTable.arrive` on the table of each distinct window among the
source's destinations; per record, the port's view, a `Snapshot` when the
view changed, and `arbiter.verdict`: the part of a record's cost that is
the arbitration itself. `emissions` counts the emissions that reached a
port, and `expired/arrival` the activation bits an arrival clears, on
average, from consecutive views at each port (an arriving source that had
left the window keeps its bit, so is not counted): the sources that leave
the window, which an emission looks for only once its table's front can
have left. The emissions are kept as two arrays of 4-byte ints (source
port, time), 8 bytes per emission, and the peak RSS counts them.

Run from the repository root with the package of the tree under test:

    PYTHONPATH=src python3 scripts/compile_scale.py
    PYTHONPATH=src python3 scripts/compile_scale.py --leaves 64 256 --repeat 5

perfbench/workloads.py is only imported, never changed. At 1,024 leaves a
compile adds about 390,000 observer connections, so one repetition takes
seconds and a few hundred MB.
"""

from __future__ import annotations

import argparse
import gc
import math
import resource
import sys
import tempfile
import time
from array import array
from collections import deque
from pathlib import Path

import portarb as pa

ROOT = Path(__file__).resolve().parents[1]
STAGES = ("parse", "validate", "auto_observe", "extract", "conflicts")


def generate(workloads, leaves: int, seed: int, out_dir: Path) -> tuple[str, str]:
    """The model and network text of a deep-hierarchy model with `leaves`
    leaves; its scenario is left in `out_dir`."""
    depth = round(math.log(leaves, 4))
    if 4 ** depth != leaves:
        raise SystemExit(f"--leaves must be a power of 4, got {leaves}")
    workloads.SIZES["deep-hierarchy"]["scale"] = {
        "branching": 4, "depth": depth, "ports": leaves, "horizon_ms": 1000}
    workloads.generate("deep-hierarchy", seed, out_dir, ROOT, scale="scale")
    return ((out_dir / "model.xml").read_text(encoding="utf-8"),
            (out_dir / "network.xml").read_text(encoding="utf-8"))


class CollectorPauses:
    """A `gc.callbacks` entry that sums the collector's pauses in seconds."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start


def measure(model_text: str, network_text: str) -> tuple[dict[str, float], dict[str, int]]:
    """Seconds per stage of one compile and of the collector's pauses in
    it, and its counts."""
    times: dict[str, float] = {}
    pauses = CollectorPauses()
    gc.callbacks.append(pauses)
    try:
        t0 = time.perf_counter()
        model = pa.parse_behavior_model(model_text)
        network = pa.parse_network(network_text)
        t1 = time.perf_counter()
        diagnostics = pa.validate(model, network, auto_observe=True)
        t2 = time.perf_counter()
        augmented = pa.apply_auto_observe(model, network)
        t3 = time.perf_counter()
        ruleset = pa.extract_rules(model, augmented)
        t4 = time.perf_counter()
        conflicts = pa.check_conflicts(ruleset)
        t5 = time.perf_counter()
    finally:
        gc.callbacks.remove(pauses)
    times["gc_pause"] = pauses.seconds
    for name, start, end in zip(STAGES, (t0, t1, t2, t3, t4), (t1, t2, t3, t4, t5)):
        times[name] = end - start
    counts = {
        "given": len(network.connections),
        "added": len(augmented.connections) - len(network.connections),
        "diagnostics": len(diagnostics),
        "c1": len(conflicts),
    }
    return times, counts, ruleset, augmented


def record_emissions(scenario, ruleset, network) -> tuple[tuple[array, array], int, int]:
    """The drained run's emissions that reached a port: the source port's
    index in `network`'s sorted sources and the time; then the records and
    the activation bits cleared between consecutive views at a port, summed
    over the records. An emission's records are consecutive, in increasing
    destination order, so a record starts an emission when its (t, src)
    differs from the previous record's or its destination does not follow
    the previous one's."""
    index = {source: i for i, source in enumerate(sorted({c.source for c in network.connections}))}
    sources, times = array("i"), array("i")
    masks: dict[str, int] = {}
    records = expired = 0
    last = None
    for record in pa.iter_run(scenario, ruleset, network):
        records += 1
        if last is None or (record.t, record.src) != last[:2] or record.dst <= last[2]:
            sources.append(index[record.src])
            times.append(record.t)
        last = (record.t, record.src, record.dst)
        mask = record.assignment.mask
        expired += (masks.get(record.dst, 0) & ~mask).bit_count()
        masks[record.dst] = mask
    return (sources, times), records, expired


def measure_run(scenario, ruleset, network, emissions) -> dict[str, float]:
    """Seconds to build the run's fan-out, to replay `emissions` through a
    fresh one with the run's steps (the tables' `arrive` per emission and
    distinct window; the view, its `Snapshot` when it changed and `verdict`
    per record), and to simulate the scenario without keeping a record."""
    Snapshot, verdict = pa.arbiter.Snapshot, pa.arbiter.verdict
    t0 = time.perf_counter()
    plan = pa.simnet.fan_out(ruleset, network)
    t1 = time.perf_counter()
    steps = [plan[source] for source in sorted(plan)]
    for i, t in zip(*emissions):
        bit, arrived, targets = steps[i]
        for table in arrived:
            table.arrive(bit, t)
        for table, bits, state, entry, _, _ in targets:
            view = table.mask & bits
            if view != state[0]:
                state[0] = view
                state[1] = Snapshot(state[2], state[3], view)
            verdict(entry, view, state[1])
    t2 = time.perf_counter()
    del plan, steps  # so one fan-out is alive at a time
    t3 = time.perf_counter()
    deque(pa.iter_run(scenario, ruleset, network), maxlen=0)
    t4 = time.perf_counter()
    return {"arbiter_init": t1 - t0, "arrive_verdict": t2 - t1, "run": t4 - t3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--leaves", type=int, nargs="+", default=[64, 256, 1024])
    parser.add_argument("--repeat", type=int, default=3,
                        help="best of this many compiles per size (one at 1,024 leaves and up), "
                             "and of this many arbiter builds and runs")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    header = ("leaves", "given", "added", *(f"{s} ms" for s in STAGES),
              "validate us/conn", "auto_observe us/conn", "diagnostics", "C1", "gc pause ms",
              "arbiter.init ms", "records", "emissions", "expired/arrival", "run us/record",
              "arrive+verdict us/record",
              "peak RSS MB")
    print(" | ".join(header))
    with tempfile.TemporaryDirectory() as tmp:
        for leaves in sorted(args.leaves):
            model_text, network_text = generate(workloads, leaves, args.seed, Path(tmp) / str(leaves))
            scenario = pa.load_scenario(Path(tmp) / str(leaves) / "scenario.json")
            best: dict[str, float] = {}
            for _ in range(1 if leaves >= 1024 else args.repeat):
                times, counts, ruleset, network = measure(model_text, network_text)
                for name, seconds in times.items():
                    best[name] = min(seconds, best.get(name, seconds))
            emissions, records, expired = record_emissions(scenario, ruleset, network)
            for _ in range(args.repeat):
                for name, seconds in measure_run(scenario, ruleset, network, emissions).items():
                    best[name] = min(seconds, best.get(name, seconds))
            del ruleset, network
            added = max(counts["added"], 1)
            row = (
                f"{leaves:,}", f"{counts['given']:,}", f"{counts['added']:,}",
                *(f"{best[s] * 1e3:.1f}" for s in STAGES),
                f"{best['validate'] * 1e6 / added:.2f}",
                f"{best['auto_observe'] * 1e6 / added:.2f}",
                f"{counts['diagnostics']:,}",
                f"{counts['c1']:,}",
                f"{best['gc_pause'] * 1e3:.1f}",
                f"{best['arbiter_init'] * 1e3:.2f}",
                f"{records:,}",
                f"{len(emissions[0]):,}",
                f"{expired / max(records, 1):.2f}",
                f"{best['run'] * 1e6 / max(records, 1):.2f}",
                f"{best['arrive_verdict'] * 1e6 / max(records, 1):.2f}",
                f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f}",
            )
            print(" | ".join(row), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
