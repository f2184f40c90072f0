"""Smoke test of the benchmark at its smallest size.

    python3 -m pytest perfbench/test_smoke.py

Every workload runs at the smoke scale, untraced and traced, with no failed
check and with the metrics BENCHMARK.json names. A wrong decision planted in
a copy of a trace must be counted, so the oracle cannot pass vacuously.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from oracle import Tally, parse_trace  # noqa: E402
from spans import NoSpans  # noqa: E402

CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_smoke(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.5",
                         "--trace", str(trace), "--scale", "smoke"])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_contract_lists_the_benchmark_metrics():
    assert {w["name"] for w in CONTRACT["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smallest_size_has_no_failed_check(workload, trace):
    result = run_smoke(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    names = set(result["metrics"])
    # smoke runs are too short to put ten samples beyond a p99
    assert {n for n in expected if not n.endswith("_p99")} <= names <= set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_planted_wrong_decision_is_counted(workload):
    with run.Bench(workload, 7, "smoke") as bench:
        bench.rep(NoSpans())
    lines = bench.trace_path.read_text(encoding="utf-8").splitlines(keepends=True)

    clean = Tally()
    bench.oracle.check_records(parse_trace(bench.trace_path), clean)
    assert clean.attempted == len(lines) and clean.failed == 0

    index = next(i for i, line in enumerate(lines) if '"outcome":"accept"' in line)
    lines[index] = lines[index].replace('"outcome":"accept","reason":"SELECTED"',
                                        '"outcome":"discard","reason":"CONSTRAINT_FALSE"')
    planted = bench.dir / "planted-trace.jsonl"
    planted.write_text("".join(lines), encoding="utf-8")
    tally = Tally()
    bench.oracle.check_records(parse_trace(planted), tally)
    assert tally.failed == 1 and tally.messages[0].startswith(f"record {index} ")
