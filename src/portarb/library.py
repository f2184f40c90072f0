"""Checked-in fixtures reproducing the running example end to end.

Each fixture directory holds the behavior model, the application network,
a simulation scenario, and the expected compiler/simulator outputs. The
expected files are hand-derived (see scripts/derive_oracles.py) and are
never regenerated from the implementation under test.
"""

from __future__ import annotations

from pathlib import Path

from .model import Value

FIXTURES_DIR = Path(__file__).resolve().parent / "fixtures"

FIXTURE_NAMES = ("be-curious", "search-and-track", "no-rules", "conflict-demo")


class Fixture(Value):
    _fields = __slots__ = ("name", "model", "network", "scenario", "expected_ruleset", "expected_trace")


def fixture(name: str) -> Fixture:
    if name not in FIXTURE_NAMES:
        known = ", ".join(FIXTURE_NAMES)
        raise KeyError(f"unknown fixture {name!r}; known fixtures: {known}")
    base = FIXTURES_DIR / name
    return Fixture(
        name=name,
        model=base / "model.xml",
        network=base / "network.xml",
        scenario=base / "scenario.json",
        expected_ruleset=base / "expected_rules.txt",
        expected_trace=base / "expected_trace.jsonl",
    )


# Variant of the search-and-track model giving Rest Arm the collision
# condition, which reproduces the hand-written arm rules verbatim.
RESTARM_VARIANT_MODEL = FIXTURES_DIR / "search-and-track" / "model_restarm_collision.xml"
RESTARM_VARIANT_EXPECTED_RULES = (
    FIXTURES_DIR / "search-and-track" / "expected_rules_restarm_collision.txt"
)
