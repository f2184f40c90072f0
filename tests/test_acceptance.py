"""Acceptance criteria, one test per criterion.

Each test prints a PASS line once its assertions hold; run with
`pytest tests/test_acceptance.py -v -s` to see them. Expected values come
from the hand-derived golden files (scripts/derive_oracles.py) and from
independent oracles computed inside this module, never from the code
under test.
"""

import itertools
import random
import time

from conftest import compile_fixture, run_fixture, trace_text
from portarb import (
    ACCEPT,
    And,
    BddManager,
    Connection,
    Lit,
    NO_RULE,
    Not,
    Or,
    ActivationTable,
    check_conflicts,
    emit_rules,
    extract_rules,
    fixture,
    parse_behavior_model,
    rule_text,
)
from portarb.library import RESTARM_VARIANT_MODEL
from portarb.model import FALSE as FALSE_EXPR, TRUE as TRUE_EXPR


GOLDEN_RULES = {
    "/Object/pos:o and not /collision:o => Select(/Object/pos:o) @ /Arm/pos:i",
    "/RestArm/pos:o and not /Object/pos:o => Select(/RestArm/pos:o) @ /Arm/pos:i",
    "/Face/pos:o and not /Object/pos:o => Select(/Face/pos:o) @ /Gaze/pos:i",
    "/Object/pos:o and not /collision:o => Select(/Object/pos:o) @ /Gaze/pos:i",
    "/RandomLook/pos:o and not /Face/pos:o and not /Object/pos:o "
    "=> Select(/RandomLook/pos:o) @ /Gaze/pos:i",
}

# the three rules displayed in the running example's derivation, ASCII form
PAPER_DISPLAYED = (
    "/RandomLook/pos:o and not /Face/pos:o and not /Object/pos:o "
    "=> Select(/RandomLook/pos:o) @ /Gaze/pos:i",
    "/Object/pos:o and not /collision:o => Select(/Object/pos:o) @ /Arm/pos:i",
    # hand-written arm rule; reproduced by the Rest-Arm-condition variant model
    "/RestArm/pos:o and not /Object/pos:o and not /collision:o "
    "=> Select(/RestArm/pos:o) @ /Arm/pos:i",
)


def test_criterion_1_golden_rule_extraction():
    start = time.perf_counter()
    _, network, ruleset, _ = compile_fixture("search-and-track", auto_observe=True)
    rendered = {rule_text(r) for r in ruleset.rules}
    assert rendered == GOLDEN_RULES
    assert PAPER_DISPLAYED[0] in rendered
    assert PAPER_DISPLAYED[1] in rendered

    variant_model = parse_behavior_model(RESTARM_VARIANT_MODEL.read_text())
    variant_rules = extract_rules(variant_model, network)
    assert PAPER_DISPLAYED[2] in {rule_text(r) for r in variant_rules.rules}

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"compilation took {elapsed:.3f}s"
    print(f"\nACCEPTANCE 1 PASS: golden 5-rule extraction, displayed rules verbatim "
          f"({elapsed * 1000:.0f} ms)")


def _random_expr(rng, ports, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return Lit(rng.choice(ports))
    if roll < 0.45:
        return rng.choice((TRUE_EXPR, FALSE_EXPR))
    if roll < 0.60:
        return Not(_random_expr(rng, ports, depth - 1))
    cls = And if roll < 0.85 else Or
    width = rng.randint(2, 3)
    return cls(tuple(_random_expr(rng, ports, depth - 1) for _ in range(width)))


def _tt_eval(expr, sigma):
    if expr == TRUE_EXPR:
        return True
    if expr == FALSE_EXPR:
        return False
    if isinstance(expr, Lit):
        return sigma.get(expr.port, False)
    if isinstance(expr, Not):
        return not _tt_eval(expr.child, sigma)
    if isinstance(expr, And):
        return all(_tt_eval(c, sigma) for c in expr.children)
    return any(_tt_eval(c, sigma) for c in expr.children)


def test_criterion_2_bdd_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(20240917)
    ports = [f"/v{i}:o" for i in range(8)]
    assignments = [dict(zip(ports, bits))
                   for bits in itertools.product((False, True), repeat=len(ports))]
    manager = BddManager()
    signature_to_ref = {}
    count = 0
    for _ in range(500):
        expr = _random_expr(rng, ports, depth=4)
        node = manager.build(expr)
        signature = []
        for sigma in assignments:
            expected = _tt_eval(expr, sigma)
            assert manager.evaluate(node, sigma) == expected
            signature.append(expected)
        signature = tuple(signature)
        # canonicity: truth-table-equal expressions share one NodeRef
        if signature in signature_to_ref:
            assert signature_to_ref[signature] == node
        else:
            assert node not in set(signature_to_ref.values())
            signature_to_ref[signature] = node
        count += 1
    elapsed = time.perf_counter() - start
    assert count == 500 and elapsed < 10.0, f"{count} exprs in {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 PASS: {count} expressions, {len(assignments)} assignments each, "
          f"canonicity over {len(signature_to_ref)} distinct functions ({elapsed:.1f} s)")


def test_criterion_3_search_and_track_end_to_end():
    start = time.perf_counter()
    trace = run_fixture("search-and-track")
    assert trace_text(trace) == fixture("search-and-track").expected_trace.read_text()

    def window(lo, hi):
        return [r for r in trace.records if lo <= r.t < hi]

    # (a) face phase
    for record in window(5000, 9000):
        if record.src == "/Face/pos:o":
            assert record.outcome == ACCEPT
        if record.src == "/RandomLook/pos:o":
            assert record.outcome == "discard" and record.reason == "CONSTRAINT_FALSE"
    # (b) object phase
    for record in window(10000, 14000):
        if record.src == "/Object/pos:o":
            assert record.outcome == ACCEPT
        if record.src == "/RestArm/pos:o":
            assert record.outcome == "discard"
    # (c) collision phase: the arm accepts nothing; activation persists
    # despite discards, so RestArm stays suppressed by the discarded Object
    collision_arm = [r for r in window(14000, 16000) if r.dst == "/Arm/pos:i"]
    assert collision_arm
    assert all(r.outcome == "discard" for r in collision_arm)
    restarm = [r for r in collision_arm if r.src == "/RestArm/pos:o"]
    assert all(r.reason == "CONSTRAINT_FALSE" and r.assignment["/Object/pos:o"] for r in restarm)

    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"simulation took {elapsed:.3f}s"
    print(f"\nACCEPTANCE 3 PASS: search-and-track trace byte-identical to oracle, phases (a)-(c) hold "
          f"({elapsed * 1000:.0f} ms)")


def test_criterion_4_activation_window_boundaries():
    table = ActivationTable(window_ms=1000)
    conn = Connection("/x:o", "/y:i")
    table.record(conn, 0)
    assert table.active(conn, 999) is True
    assert table.active(conn, 1000) is False

    rng = random.Random(4242)
    sequences = 0
    for _ in range(200):
        window = rng.randint(1, 1500)
        times = sorted(rng.randint(0, 8000) for _ in range(rng.randint(1, 30)))
        replay = ActivationTable(window_ms=window)
        for i, t in enumerate(times):
            replay.record(conn, t)
            prefix = times[: i + 1]
            for probe in (t, t + window - 1, t + window, t + rng.randint(0, 2 * window)):
                brute_force = any(0 <= probe - a < window for a in prefix)
                assert replay.active(conn, probe) == brute_force, (times, window, probe)
        sequences += 1
    print(f"\nACCEPTANCE 4 PASS: strict window boundary at T, {sequences} random "
          "sequences match the brute-force replay oracle")


def test_criterion_5_at_most_one_winner():
    trace = run_fixture("search-and-track")
    winners = {}
    for record in trace.records:
        if record.outcome == ACCEPT:
            key = (record.t, record.dst)
            assert key not in winners, f"two accepts at {key}"
            winners[key] = record.src

    _, _, ruleset, _ = compile_fixture("search-and-track")
    assert check_conflicts(ruleset) == []
    _, _, conflicting, _ = compile_fixture("conflict-demo")
    assert len(check_conflicts(conflicting)) == 1
    print(f"\nACCEPTANCE 5 PASS: {len(winners)} accept instants, all single-winner; "
          "conflict checker silent on the extracted rules and flags conflict-demo")


def test_criterion_6_determinism():
    for name in ("be-curious", "search-and-track", "no-rules", "conflict-demo"):
        outputs = set()
        for _ in range(10):
            _, _, ruleset, _ = compile_fixture(name)
            trace = run_fixture(name)
            outputs.add(
                emit_rules(ruleset)
                + emit_rules(ruleset, "json")
                + trace_text(trace)
            )
        assert len(outputs) == 1, f"{name} produced {len(outputs)} distinct outputs"
    print("\nACCEPTANCE 6 PASS: 10 compile+simulate repetitions byte-identical "
          "on every fixture")


def test_criterion_7_no_rule_semantics():
    trace = run_fixture("no-rules")
    assert trace.records
    assert all(r.outcome == "discard" and r.reason == NO_RULE for r in trace.records)

    sat = run_fixture("search-and-track")
    collision_at_arm = [
        r for r in sat.records if r.src == "/collision:o" and r.dst == "/Arm/pos:i"
    ]
    assert collision_at_arm
    assert all(r.outcome == "discard" and r.reason == NO_RULE for r in collision_at_arm)
    print(f"\nACCEPTANCE 7 PASS: {len(trace.records)} no-rules records all NO_RULE; "
          f"{len(collision_at_arm)} collision messages at the arm all discarded")
