"""Runtime port arbitration.

Each input port tracks when every incoming connection last delivered data;
a connection is active while the elapsed time since its last arrival stays
strictly below the port's window. Arrivals are recorded before arbitration
and regardless of its outcome, so a discarded stream still holds its
connection active.

A port's `ActivationTable` owns the window: the arrival order, the instant
its front can next leave, the drop of the keys that have left and the check
that time never goes back. An arrival before that instant walks nothing, so
a port's state is O(fan-in), whatever the window and the horizon. The
`PortArbiter` gives each distinct incoming source an integer slot (sources
sorted by name) and keeps bits: one int mask whose set bits are the table's
keys, clearing those the table drops. A rule that is a cube
(`SelectionRule.cube`: `true`, a literal, a negated literal or a
conjunction of these) is kept as two masks over the slots, the ports it
needs and the values it needs them at, and is decided by one compare of the
mask; any other rule keeps its BDD and is decided by `BddManager.evaluate`
over a `Snapshot` of the mask. So an arrival plus its decision cost O(1)
amortised, plus one BDD path for a rule that is not a cube, whatever the
fan-in. The simulator steps a port per arrival with `arrive(slot, t)`,
which gives the mask, and `verdict(slot, mask)`; the record's assignment is
the arbiter's `snapshot`, made anew only when an arrival changes the mask.

Building a port's arbiter costs, per rule of the port, one pass over a
cube's literals, or the rule's BDD. A port whose rules are all cubes builds
no BDD at all. An arbiter reads only its own port's rules: a `RuleSet`
groups its rules by port once, so for cube rules building all arbiters is
linear in the connections and rule literals.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable, Iterable, Iterator, Mapping

from . import compiler
from .bdd import BddManager
from .model import Connection, Value, _set

DEFAULT_WINDOW_MS = 1000

ACCEPT = "accept"
DISCARD = "discard"

SELECTED = "SELECTED"
NO_RULE = "NO_RULE"
CONSTRAINT_FALSE = "CONSTRAINT_FALSE"

_SELECTED = (ACCEPT, SELECTED)
_NO_RULE = (DISCARD, NO_RULE)
_CONSTRAINT_FALSE = (DISCARD, CONSTRAINT_FALSE)

# the rule entry of a cube that needs a port both true and false: no mask
# has `mask & 0 == 1`
_NEVER = (0, 1, None)


class ActivationTable:
    """The activation window and `last_arrival`, each key's (a connection's
    or a port's slot's) last arrival, oldest first: arrivals never go back in
    time, so the keys that leave the window first are at the front. `record`
    drops the front keys that have left the window. The probes, `expired`
    and `active`, answer for an instant at or after the latest arrival and
    raise ValueError for an earlier one, at which a dropped key may still
    have counted."""

    def __init__(self, window_ms: int = DEFAULT_WINDOW_MS):
        if window_ms <= 0:
            raise ValueError(f"window must be positive, got {window_ms}")
        self.window_ms = window_ms
        self.last_arrival: OrderedDict[Hashable, int] = OrderedDict()
        # both -inf until the first arrival; no key leaves the window before
        # `_expiry`: the front's, when set, and a later front arrived later
        self._latest: int | float = float("-inf")
        self._expiry: int | float = float("-inf")

    def record(self, key: Hashable, t: int) -> list[Hashable] | None:
        """Store an arrival at `t`; returns the keys it drops, which no
        longer count at `t`, or None before `_expiry`, when none can have
        left. The arriving key is last and counts, so it is never dropped."""
        if t < self._latest:
            raise ValueError(f"time regression: arrival at {t} after {self._latest}")
        self._latest = t
        last_arrival = self.last_arrival
        last_arrival[key] = t
        last_arrival.move_to_end(key)
        if t < self._expiry:
            return None
        gone = self.expired(t)
        for front in gone:
            del last_arrival[front]
        self._expiry = next(iter(last_arrival.values())) + self.window_ms
        return gone

    def expired(self, t: int) -> list[Hashable]:
        """The window rule: the keys of `last_arrival` that no longer count
        at `t`, oldest first, without dropping them. Strict, so an arrival at
        0 with window 1000 no longer counts at 1000."""
        if t < self._latest:
            raise ValueError(f"time regression: probe at {t} after {self._latest}")
        cutoff = t - self.window_ms
        gone = []
        for key, last in self.last_arrival.items():
            if last > cutoff:
                break
            gone.append(key)
        return gone

    def active(self, key: Hashable, t: int) -> bool:
        """The key's last arrival still counts at `t`."""
        return key not in self.expired(t) and key in self.last_arrival


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
    """Multiplexer gate on one input port: on each arrival, decides the
    arriving connection's rule over the port's activation mask and accepts
    or discards. A cube rule is decided by one mask compare; only another
    rule (a disjunction, `false` or a nested `not`) has a BDD, in `manager`,
    which is None on a port whose rules are all cubes. Connections without a
    rule are observation-only."""

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
        self.snapshot: Snapshot | None = None  # of `_mask`, from the first arrival on
        # a cube rule is (care, want, None): it selects when the mask's `care`
        # bits equal `want`. A bit past the slots names a port with no
        # connection here, which never arrives and reads false. Any other
        # rule is (0, 0, node), its BDD in `manager`, made for the port's
        # first such rule.
        self.manager: BddManager | None = None
        bits = dict(self.slots)
        self._rules: list[tuple[int, int, int | None] | None] = [None] * len(self.sources)
        for rule in ruleset.for_port(port):
            slot = self.slots.get(rule.candidate)
            if slot is None:
                raise ValueError(
                    f"rule candidate {rule.candidate} has no incoming connection at {port}"
                )
            if rule.cube is None:
                if self.manager is None:
                    self.manager = BddManager()
                entry = (0, 0, self.manager.build(rule.constraint))
            else:
                want = unwanted = 0  # the ports needed true, and false
                for name, value in rule.cube:
                    bit = 1 << bits.setdefault(name, len(bits))
                    if value:
                        want |= bit
                    else:
                        unwanted |= bit
                entry = (want | unwanted, want, None) if not want & unwanted else _NEVER
            self._rules[slot] = entry

    def slot(self, connection: Connection) -> int:
        """The slot of `connection`'s source, for `arrive` and `verdict`."""
        slot = self.slots.get(connection.source)
        if slot is None or connection.destination != self.port:
            raise ValueError(f"unknown connection {connection} at {self.port}")
        return slot

    def arrive(self, slot: int, t: int) -> int:
        """Record an arrival from `slot` at `t`, before its verdict and
        whatever that is; returns the activation mask at `t`."""
        mask = self._mask
        gone = self.activation.record(slot, t)
        if gone:
            for front in gone:
                mask &= ~(1 << front)
        mask |= 1 << slot
        if mask != self._mask:
            self._mask = mask
            self.snapshot = Snapshot(self.sources, self.slots, mask)
        return mask

    def verdict(self, slot: int, mask: int) -> tuple[str, str]:
        """(outcome, reason) for a message from `slot` under `mask`."""
        entry = self._rules[slot]
        if entry is None:
            return _NO_RULE
        care, want, node = entry
        if mask & care != want:
            return _CONSTRAINT_FALSE
        if node is None:
            return _SELECTED
        snapshot = self.snapshot
        if snapshot is None or snapshot.mask != mask:
            snapshot = Snapshot(self.sources, self.slots, mask)
        return _SELECTED if self.manager.evaluate(node, snapshot) else _CONSTRAINT_FALSE

    # the same steps by connection and time, for the benchmark and the tests

    def record_arrival(self, connection: Connection, t: int) -> None:
        self.arrive(self.slot(connection), t)

    def activation_snapshot(self, t: int) -> Snapshot:
        """One boolean per distinct incoming source port at `t`, which may not
        precede the latest arrival: the kept mask less the slots expired by
        `t`, which is `snapshot` itself when none has expired. A port sharing
        several connections counts active if any is."""
        mask = self._mask
        for slot in self.activation.expired(t):
            mask &= ~(1 << slot)
        if mask == self._mask and self.snapshot is not None:
            return self.snapshot
        return Snapshot(self.sources, self.slots, mask)

    def decide(self, connection: Connection, t: int) -> Decision:
        """Accept or discard the message that just arrived on `connection`."""
        snapshot = self.activation_snapshot(t)
        return Decision(*self.verdict(self.slot(connection), snapshot.mask), snapshot)
