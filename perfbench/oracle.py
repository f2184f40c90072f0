"""Independent correctness oracle for the benchmark's workloads.

Imports nothing from portarb. From a workload `Spec` it derives the
selection function of every (port, candidate) pair, the observer
connections that auto-observe must add, and the exact sequence of trace
records the simulator must produce. It then rebuilds every record's
activation assignment from the arrival history, honouring per-port
windows, and checks each decision. Trace files are parsed here with the
json module, not with portarb's reader.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left

from workloads import walk

DEFAULT_WINDOW_MS = 1000


class Tally:
    """Checks attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


def parse_trace(path):
    """Trace records as dicts, one per non-empty line."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def render_assignment(assignment) -> str:
    return " ".join(f"{p}={str(v).lower()}" for p, v in sorted(assignment.items()))


_REASON_RE = re.compile(r"constraint `(not )?([^`]+)` false; (\S+) (active since (-?\d+)|active|inactive)")


class Oracle:
    def __init__(self, spec):
        nodes = list(walk(spec.roots))
        by_name = {n.name: n for n in nodes}
        parent = {c.name: n.name for n in nodes for c in n.children}
        inhibitors: dict[str, list] = {}
        for node in nodes:
            for target in node.inhibits:
                inhibitors.setdefault(target, []).append(node)

        def leaves_under(node):
            if not node.children:
                return [node]
            return [leaf for child in node.children for leaf in leaves_under(child)]

        # (port, candidate) -> alternatives, each a tuple of (port, positive)
        # literals that must all hold; the rule selects if any alternative does.
        self.rules: dict[tuple[str, str], list[tuple]] = {}
        declared = set(spec.outputs)
        connections = list(spec.connections)
        present = set(connections)
        for leaf in nodes:
            if leaf.children:
                continue
            scopes = [leaf]
            while scopes[-1].name in parent:
                scopes.append(by_name[parent[scopes[-1].name]])
            condition = [lit for scope in reversed(scopes) for lit in scope.condition]
            inhibitor_sources = [
                src
                for scope in scopes
                for inhibitor in inhibitors.get(scope.name, ())
                for inhibited_leaf in leaves_under(inhibitor)
                for src, _ in inhibited_leaf.config
            ]
            alternative = tuple(dict.fromkeys(condition + [(p, False) for p in inhibitor_sources]))
            needed = dict.fromkeys([p for p, _ in condition] + inhibitor_sources)
            for src, dst in leaf.config:
                self.rules.setdefault((dst, src), []).append(alternative)
                for port in needed:
                    if port in declared and (port, dst) not in present:
                        present.add((port, dst))
                        connections.append((port, dst))

        self.observers_added = len(connections) - len(spec.connections)
        self.windows = {dst: spec.windows.get(dst, DEFAULT_WINDOW_MS) for dst in spec.inputs}
        incoming: dict[str, set] = {}
        fanout: dict[str, list] = {}
        for src, dst in connections:
            incoming.setdefault(dst, set()).add(src)
            fanout.setdefault(src, []).append(dst)
        self.incoming = {dst: sorted(srcs) for dst, srcs in incoming.items()}

        emissions = []
        for index, source in enumerate(spec.sources):
            for start, end in source.active:
                k = max(0, -(-(start - source.phase_ms) // source.period_ms))
                t = source.phase_ms + k * source.period_ms
                while t < min(end, spec.horizon_ms):
                    emissions.append((t, index, source.port))
                    t += source.period_ms
        emissions.sort()
        self.expected = [
            (t, port, dst) for t, _, port in emissions for dst in sorted(fanout.get(port, ()))
        ]
        self.history: dict[tuple[str, str], tuple[list[int], list[int]]] = {}

    def check_records(self, records, tally: Tally) -> None:
        """One check per expected or produced record: its identity
        (t, src, dst), activation assignment, outcome, reason and whether it
        names a rule."""
        last: dict[str, dict[str, int]] = {}
        self.history = {}
        for i in range(max(len(records), len(self.expected))):
            if i >= len(records) or i >= len(self.expected):
                tally.check(False, f"{len(records)} records, expected {len(self.expected)}")
                continue
            t, src, dst = self.expected[i]
            rec = records[i]
            if (rec["t"], rec["src"], rec["dst"]) != (t, src, dst):
                tally.check(False, f"record {i}: got {rec['t']} {rec['src']} -> {rec['dst']}, "
                                   f"expected {t} {src} -> {dst}")
                continue
            window = self.windows[dst]
            seen = last.setdefault(dst, {})
            seen[src] = t
            times, indices = self.history.setdefault((src, dst), ([], []))
            times.append(t)
            indices.append(i)
            assignment = {p: p in seen and t - seen[p] < window for p in self.incoming[dst]}
            alternatives = self.rules.get((dst, src))
            if alternatives is None:
                want = ("discard", "NO_RULE")
            elif any(all(assignment.get(p, False) == pos for p, pos in alt) for alt in alternatives):
                want = ("accept", "SELECTED")
            else:
                want = ("discard", "CONSTRAINT_FALSE")
            got = (rec["outcome"], rec["reason"])
            tally.check(
                got == want and rec["assignment"] == assignment
                and (rec["rule"] == "-") == (alternatives is None),
                f"record {i} ({t} {src} -> {dst}): got {got}, expected {want}"
                + ("" if rec["assignment"] == assignment else "; assignment differs"),
            )

    def streak_start(self, port: str, dst: str, index: int) -> int | None:
        """First arrival of the burst on port -> dst that is still active at
        record `index`, bridging gaps shorter than the port's window."""
        times, indices = self.history.get((port, dst), ([], []))
        k = bisect_left(indices, index)
        if k == 0:
            return None
        start = times[k - 1]
        for earlier in reversed(times[:k - 1]):
            if start - earlier >= self.windows[dst]:
                break
            start = earlier
        return start

    def check_explain(self, records, at: int, port: str, text: str, tally: Tally) -> int:
        """Check `explain --at at --port port` output against the trace; return
        the number of `active since` times that differ from the true streak
        start (counted apart, not as failures)."""
        matches = [i for i, r in enumerate(records) if r["t"] == at and r["dst"] == port]
        lines = text.splitlines()
        problems = []
        mismatches = 0
        if len(lines) != 3 * len(matches):
            problems.append(f"{len(lines)} lines for {len(matches)} records")
        for k, i in enumerate(matches[: len(lines) // 3]):
            rec = records[i]
            head, rule_line, assignment_line = lines[3 * k: 3 * k + 3]
            prefix = f"t={rec['t']} {rec['src']} -> {rec['dst']} "
            verdict = head[len(prefix):] if head.startswith(prefix) else None
            if rule_line != f"  rule: {rec['rule']}":
                problems.append(f"record {i}: rule line {rule_line!r}")
            if assignment_line != f"  assignment: {render_assignment(rec['assignment'])}":
                problems.append(f"record {i}: assignment line differs")
            if rec["outcome"] == "accept":
                ok = verdict == "accepted: rule satisfied"
            elif rec["reason"] == "NO_RULE":
                ok = verdict == f"discarded: no rule for {rec['src']} at {rec['dst']}"
            else:
                found = _REASON_RE.findall(verdict or "")
                named = {(lit, not negated) for negated, lit, _, _, _ in found}
                alternatives = self.rules.get((rec["dst"], rec["src"]), [])
                ok = bool(found) and verdict.startswith("discarded: constraint")
                ok = ok and all(rec["assignment"].get(p, False) != pos for p, pos in named)
                if len(alternatives) == 1:
                    failing = {(p, pos) for p, pos in alternatives[0]
                               if rec["assignment"].get(p, False) != pos}
                    ok = ok and named == failing
                for negated, lit, _, _, since in found:
                    if negated and since:
                        if int(since) != self.streak_start(lit, rec["dst"], i):
                            mismatches += 1
            if not ok:
                problems.append(f"record {i}: verdict {verdict!r}")
        tally.check(not problems, f"explain --at {at} --port {port}: {'; '.join(problems[:3])}")
        return mismatches
