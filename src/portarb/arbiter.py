"""Runtime port arbitration.

Each input port tracks when every incoming connection last delivered data;
a connection is active while the elapsed time since its last arrival stays
strictly below the port's window. Arrivals are recorded before arbitration
and regardless of its outcome, so a discarded stream still holds its
connection active.

A port gives each distinct incoming source an integer slot (sources sorted
by name) and keeps one int bitmask of the active slots. Its only arrival
state is its `ActivationTable`'s map of slot -> last arrival, oldest first,
which holds exactly the slots whose bits are set: an arrival moves its slot
to the end and drops the front slots that have left the window, clearing
their bits. So a port's state is O(fan-in), whatever the window and the
horizon. The port's BDD variable order begins with its sources, so a rule is
decided by one walk over the mask, and an arrival plus its decision cost
O(1) amortised plus one BDD path, whatever the fan-in. The simulator steps a
port with `slot(connection)`, then per arrival `arrive(slot, t)`, which
gives the mask, and `verdict(slot, mask)`.

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
    """The activation window and `last_arrival`, each key's (a connection's
    or a port's slot's) last arrival, oldest first: arrivals never go back in
    time, so the keys that leave the window first are at the front."""

    def __init__(self, window_ms: int = DEFAULT_WINDOW_MS):
        if window_ms <= 0:
            raise ValueError(f"window must be positive, got {window_ms}")
        self.window_ms = window_ms
        self.last_arrival: OrderedDict[Hashable, int] = OrderedDict()
        self._latest: int | None = None

    def record(self, key: Hashable, t: int) -> int:
        """Store an arrival at `t`; returns the cutoff at `t` of `active`:
        the arrivals at or before it no longer count."""
        if self._latest is not None and t < self._latest:
            raise ValueError(f"time regression: arrival at {t} after {self._latest}")
        self._latest = t
        last_arrival = self.last_arrival
        last_arrival[key] = t
        last_arrival.move_to_end(key)
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
        self.slots = {source: slot for slot, source in enumerate(self.sources)}
        # the slots whose bits are set are the keys of activation.last_arrival
        self.activation = ActivationTable(window_ms)
        self._mask = 0
        # levels below len(sources) are the slots; any later variable names
        # a port with no connection here, which never arrives and reads false
        self.manager = BddManager(self.sources)
        self._rules: list[tuple[int, str] | None] = [None] * len(self.sources)
        for rule in ruleset.for_port(port):
            slot = self.slots.get(rule.candidate)
            if slot is None:
                raise ValueError(
                    f"rule candidate {rule.candidate} has no incoming connection at {port}"
                )
            self._rules[slot] = (self.manager.build(rule.constraint), compiler.rule_text(rule))

    def slot(self, connection: Connection) -> int:
        """The slot of `connection`'s source, for `arrive` and `verdict`."""
        slot = self.slots.get(connection.source)
        if slot is None or connection.destination != self.port:
            raise ValueError(f"unknown connection {connection} at {self.port}")
        return slot

    def arrive(self, slot: int, t: int) -> int:
        """Record an arrival from `slot` at `t`, before its verdict and
        whatever that is; returns the activation mask at `t`."""
        table = self.activation
        cutoff = table.record(slot, t)
        last_arrival = table.last_arrival
        mask = self._mask
        # the arriving slot, now last, counts at `t` and ends the loop
        while True:
            oldest = next(iter(last_arrival))
            if last_arrival[oldest] > cutoff:
                break
            del last_arrival[oldest]
            mask &= ~(1 << oldest)
        mask |= 1 << slot
        self._mask = mask
        return mask

    def verdict(self, slot: int, mask: int) -> tuple[str, str]:
        """(outcome, reason) for a message from `slot` under `mask`."""
        entry = self._rules[slot]
        if entry is None:
            return _NO_RULE
        return _SELECTED if self.manager.evaluate_mask(entry[0], mask) else _CONSTRAINT_FALSE

    def rule_text_for(self, source: str) -> str | None:
        slot = self.slots.get(source)
        entry = self._rules[slot] if slot is not None else None
        return entry[1] if entry is not None else None

    # the same steps by connection and time, for the benchmark and the tests

    def record_arrival(self, connection: Connection, t: int) -> None:
        self.arrive(self.slot(connection), t)

    def activation_snapshot(self, t: int) -> Snapshot:
        """One boolean per distinct incoming source port at `t`, which may not
        precede the latest arrival: the kept mask less the front slots expired
        by `t`. A port sharing several connections counts active if any is."""
        table = self.activation
        if table._latest is not None and t < table._latest:
            raise ValueError(f"time regression: probe at {t} after {table._latest}")
        cutoff = t - table.window_ms
        mask = self._mask
        for slot, last in table.last_arrival.items():
            if last > cutoff:
                break
            mask &= ~(1 << slot)
        return Snapshot(self.sources, self.slots, mask)

    def decide(self, connection: Connection, t: int) -> Decision:
        """Accept or discard the message that just arrived on `connection`."""
        snapshot = self.activation_snapshot(t)
        return Decision(*self.verdict(self.slot(connection), snapshot.mask), snapshot)
