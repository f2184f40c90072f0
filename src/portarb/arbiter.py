"""Runtime port arbitration.

Each input port tracks when every incoming connection last delivered data;
a connection is active while the elapsed time since its last arrival stays
strictly below the port's window. Arrivals are recorded before arbitration
and regardless of its outcome, so a discarded stream still holds its
connection active.

A port gives each distinct incoming source an integer slot (sources sorted
by name) and keeps one int bitmask of the active slots. It also keeps each
active slot's last arrival time, oldest first: an arrival moves its slot to
the end, so the slots that have left the window are at the front, and the
next arrival clears their bits and drops them. A port's state is therefore
O(fan-in), whatever the window and the horizon. The port's BDD variable
order begins with its sources, so a rule is decided by one walk over the
mask. Together an arrival and its decision cost O(1) amortised plus the
length of one BDD path, whatever the fan-in.

Building a port's arbiter costs one BDD level per source and, per rule of
the port, the rule's BDD and its rendered text. A rule that is a cube of
literals and negated literals is made as one chain, one node per literal,
with no node per conjunct. An arbiter reads only its own port's rules: a
`RuleSet` groups its rules by port once, so for cube rules building all
arbiters is linear in the connections and rule literals.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterable, Iterator, Mapping

from . import compiler
from .bdd import BddManager
from .model import Connection, Value

_set = object.__setattr__  # sets a Value's fields past its own __setattr__

DEFAULT_WINDOW_MS = 1000

ACCEPT = "accept"
DISCARD = "discard"

SELECTED = "SELECTED"
NO_RULE = "NO_RULE"
CONSTRAINT_FALSE = "CONSTRAINT_FALSE"

_SELECTED = (ACCEPT, SELECTED)
_NO_RULE = (DISCARD, NO_RULE)
_CONSTRAINT_FALSE = (DISCARD, CONSTRAINT_FALSE)


class ActivationTable:
    """Last-arrival timestamps per key (a connection, or a port's slot) plus
    the activation window."""

    def __init__(self, window_ms: int = DEFAULT_WINDOW_MS):
        if window_ms <= 0:
            raise ValueError(f"window must be positive, got {window_ms}")
        self.window_ms = window_ms
        self.last_arrival: dict[Hashable, int] = {}
        self._latest: int | None = None

    def record(self, key: Hashable, t: int) -> int:
        """Store an arrival at `t`; returns the cutoff at `t` of `active`:
        the arrivals at or before it no longer count."""
        if self._latest is not None and t < self._latest:
            raise ValueError(f"time regression: arrival at {t} after {self._latest}")
        self._latest = t
        self.last_arrival[key] = t
        return t - self.window_ms

    def active(self, key: Hashable, t: int) -> bool:
        """The window rule: the key's last arrival still counts at `t`.
        Strict, so an arrival at 0 with window 1000 is inactive at 1000."""
        last = self.last_arrival.get(key)
        return last is not None and last > t - self.window_ms


class Snapshot(Mapping[str, bool]):
    """Read-only activation of one port at one instant: the port's source
    names in slot order, their slot numbers and a bitmask of active slots.
    Unknown names raise KeyError, as with a plain dict."""

    __slots__ = ("sources", "slots", "mask")

    def __init__(self, sources: tuple[str, ...], slots: Mapping[str, int], mask: int):
        self.sources = sources
        self.slots = slots
        self.mask = mask

    def __getitem__(self, name: str) -> bool:
        return bool(self.mask >> self.slots[name] & 1)

    def get(self, name, default=None):
        # Mapping.get would raise and catch KeyError for every literal that
        # has no connection at this port
        slot = self.slots.get(name)
        return default if slot is None else bool(self.mask >> slot & 1)

    def __iter__(self) -> Iterator[str]:
        return iter(self.sources)

    def __len__(self) -> int:
        return len(self.sources)

    def __repr__(self) -> str:
        return f"Snapshot({dict(self)!r})"


class Decision(Value):
    _fields = __slots__ = ("outcome", "reason", "assignment")

    def __init__(self, outcome: str, reason: str, assignment: Mapping[str, bool]) -> None:
        if (outcome == ACCEPT) != (reason == SELECTED):
            raise ValueError("accept decisions must carry reason SELECTED")
        _set(self, "outcome", outcome)
        _set(self, "reason", reason)
        _set(self, "assignment", assignment)


class PortArbiter:
    """Multiplexer gate on one input port: on each arrival, evaluates the
    arriving connection's rule BDD over the port's activation mask and
    accepts or discards. Connections without a rule are observation-only."""

    def __init__(
        self,
        port: str,
        incoming: Iterable[Connection],
        ruleset: compiler.RuleSet = compiler.RuleSet(),
        window_ms: int = DEFAULT_WINDOW_MS,
    ):
        self.port = port
        self.incoming = tuple(incoming)
        for conn in self.incoming:
            if conn.destination != port:
                raise ValueError(f"connection {conn} does not end at {port}")
        self.sources = tuple(sorted({conn.source for conn in self.incoming}))
        self._slots = {source: slot for slot, source in enumerate(self.sources)}
        self.activation = ActivationTable(window_ms)
        self._mask = 0
        self._mask_time: int | None = None
        # slot -> last arrival of each slot whose bit is set, oldest first
        self._pending: OrderedDict[int, int] = OrderedDict()
        # levels below len(sources) are the slots; any later variable names
        # a port with no connection here, which never arrives and reads false
        self.manager = BddManager(self.sources)
        self._rules: list[tuple[int, str] | None] = [None] * len(self.sources)
        for rule in ruleset.for_port(port):
            slot = self._slots.get(rule.candidate)
            if slot is None:
                raise ValueError(
                    f"rule candidate {rule.candidate} has no incoming connection at {port}"
                )
            self._rules[slot] = (self.manager.build(rule.constraint), compiler.rule_text(rule))

    def _slot(self, connection: Connection) -> int:
        slot = self._slots.get(connection.source)
        if slot is None or connection.destination != self.port:
            raise ValueError(f"unknown connection {connection} at {self.port}")
        return slot

    def record_arrival(self, connection: Connection, t: int) -> None:
        """Mark an arrival; called before decide() for the same message and
        performed whether or not the message is later accepted."""
        self._arrive(self._slot(connection), t)

    def _arrive(self, slot: int, t: int) -> int:
        """record_arrival for a slot; returns the activation mask at `t`.
        simnet.run calls it directly with slots resolved once by `_slot`."""
        cutoff = self.activation.record(slot, t)
        pending = self._pending
        mask = self._mask
        # arrivals at a port never go back in time (record checks), so the
        # front slots are the ones that leave the window first
        while pending:
            oldest = next(iter(pending))
            if pending[oldest] > cutoff:
                break
            del pending[oldest]
            mask &= ~(1 << oldest)
        pending[slot] = t
        pending.move_to_end(slot)
        mask |= 1 << slot
        self._mask = mask
        self._mask_time = t
        return mask

    def _mask_at(self, t: int) -> int:
        if t == self._mask_time:
            return self._mask
        table = self.activation
        mask = 0
        for slot in table.last_arrival:
            if table.active(slot, t):
                mask |= 1 << slot
        return mask

    def activation_snapshot(self, t: int) -> Snapshot:
        """One boolean per distinct incoming source port; a port sharing
        several connections counts active if any of them is."""
        return Snapshot(self.sources, self._slots, self._mask_at(t))

    def rule_text_for(self, source: str) -> str | None:
        slot = self._slots.get(source)
        entry = self._rules[slot] if slot is not None else None
        return entry[1] if entry is not None else None

    def decide(self, connection: Connection, t: int) -> Decision:
        """Accept or discard the message that just arrived on `connection`."""
        mask = self._mask_at(t)
        outcome, reason = self._verdict(self._slot(connection), mask)
        return Decision(outcome, reason, Snapshot(self.sources, self._slots, mask))

    def _verdict(self, slot: int, mask: int) -> tuple[str, str]:
        """(outcome, reason) for a message from `slot` under the activation
        `mask`; simnet.run calls it directly, as with `_arrive`."""
        entry = self._rules[slot]
        if entry is None:
            return _NO_RULE
        return _SELECTED if self.manager.evaluate_mask(entry[0], mask) else _CONSTRAINT_FALSE
