"""Runtime port arbitration.

Each input port tracks when every incoming source port last delivered data;
a source is active at a port while the elapsed time since its last arrival
there stays strictly below the port's window. Arrivals are recorded before
arbitration and regardless of its outcome, so a discarded stream still
holds its source active.

An `ActivationTable` owns a window: the arrival order, the instant its
front can next leave, the drop of the keys that have left and the check
that time never goes back. An arrival before that instant walks nothing.
Fed int keys through `arrive`, it also keeps one int mask whose set bits
are its keys. Every connection delivers at its source's emission instant,
so at port `d` source `s` is active exactly when `t - last_emit[s] <
window[d]`: the simulator keeps activation per (window, source), one
table per distinct window over one global bit per source port, updated
once per emission for each distinct window among the source's
destinations, and a port reads its view as the table's mask `&` the bits
of its own sources. `PortArbiter` is one port over a table of its own,
with its sources' slots (sorted by name) as bits.

A port's rules become entries (`rule_entries`) over its own sources' bits.
A rule that is a cube (`SelectionRule.cube`: `true`, a literal, a negated
literal or a conjunction of these) is two masks, the bits it needs and the
values it needs them at, decided by one compare of the view; a literal
naming a port with no connection at the rule's port reads false, so it
either drops out or makes the cube never select. Any other rule keeps its
BDD and is decided by `BddManager.evaluate` over the `Snapshot` of the
view. `verdict` is the one decision, for the simulator and `PortArbiter`
alike. So a record costs one `&`, one compare and, when the view changed,
one `Snapshot`, plus one BDD path for a rule that is not a cube; an
emission adds one table update per distinct window among its destinations.

Building a port's entries costs, per rule of the port, one pass over a
cube's literals, or the rule's BDD. A port whose rules are all cubes builds
no BDD at all. A `RuleSet` groups its rules by port once, so for cube rules
building every port's entries is linear in the connections and rule
literals.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping
from functools import partial

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

# the rule entry of a cube that can never hold: no mask has `mask & 0 == 1`
_NEVER = (0, 1, None)

# A rule entry: (care, want, None) for a cube, which selects when the
# view's `care` bits equal `want`; (0, 0, evaluate) for any other rule, with
# `evaluate(snapshot)` its BDD's answer; None for a source with no rule.
RuleEntry = tuple[int, int, Callable[[Mapping[str, bool]], bool] | None]


class ActivationTable:
    """The activation window and `last_arrival`, each key's (a connection's
    or a source's bit's) last arrival, oldest first: arrivals never go back
    in time, so the keys that leave the window first are at the front.
    `record` drops the front keys that have left the window. The probes,
    `expired` and `active`, answer for an instant at or after the latest
    arrival and raise ValueError for an earlier one, at which a dropped key
    may still have counted. `mask` has bit k set for each int key k that
    came through `arrive`."""

    def __init__(self, window_ms: int = DEFAULT_WINDOW_MS):
        if window_ms <= 0:
            raise ValueError(f"window must be positive, got {window_ms}")
        self.window_ms = window_ms
        self.last_arrival: OrderedDict[Hashable, int] = OrderedDict()
        # both -inf until the first arrival; no key leaves the window before
        # `_expiry`: the front's, when set, and a later front arrived later
        self._latest: int | float = float("-inf")
        self._expiry: int | float = float("-inf")
        self.mask = 0

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

    def arrive(self, bit: int, t: int) -> int:
        """`record` an arrival of the int key `bit` at `t` and keep `mask`
        to the keys; returns it."""
        mask = self.mask
        gone = self.record(bit, t)
        if gone:
            for front in gone:
                mask &= ~(1 << front)
        mask = self.mask = mask | 1 << bit
        return mask

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
    names, sorted, each name's bit and a bitmask whose set bits are the
    active sources (bits of other sources are ignored). The bits need not
    be 0..n-1 nor follow name order. Unknown names raise KeyError, as with
    a plain dict."""

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


def rule_entries(
    port: str, rules: Iterable[compiler.SelectionRule], bits: Mapping[str, int]
) -> tuple[dict[str, RuleEntry], BddManager | None]:
    """The entry of each of `port`'s `rules` by candidate, over `bits`, the
    port's own sources' bit numbers, and the BDD manager of the rules that
    are not cubes (None if all are). A cube literal naming a port with no
    connection here reads false: needed true, the cube never selects;
    needed false, it drops out. Raises ValueError for a candidate with no
    connection at `port`."""
    entries: dict[str, RuleEntry] = {}
    manager: BddManager | None = None
    for rule in rules:
        if rule.candidate not in bits:
            raise ValueError(
                f"rule candidate {rule.candidate} has no incoming connection at {port}")
        if rule.cube is None:
            if manager is None:
                manager = BddManager()
            node = manager.build(rule.constraint)
            entries[rule.candidate] = (0, 0, partial(manager.evaluate, node))
            continue
        want = unwanted = 0  # the bits needed true, and false
        unwired = False  # a port with no connection here, which reads false, needed true
        for name, value in rule.cube:
            bit = bits.get(name)
            if bit is None:
                unwired = unwired or value
            elif value:
                want |= 1 << bit
            else:
                unwanted |= 1 << bit
        never = unwired or want & unwanted
        entries[rule.candidate] = _NEVER if never else (want | unwanted, want, None)
    return entries, manager


def verdict(entry: RuleEntry | None, mask: int, snapshot: Snapshot) -> tuple[str, str]:
    """(outcome, reason) for a message whose rule entry is `entry` (None:
    no rule) at a port whose activation is `mask`; `snapshot`, the
    `Snapshot` of `mask`, is read only by a rule that is not a cube."""
    if entry is None:
        return _NO_RULE
    care, want, evaluate = entry
    if mask & care != want:
        return _CONSTRAINT_FALSE
    if evaluate is None or evaluate(snapshot):
        return _SELECTED
    return _CONSTRAINT_FALSE


class PortArbiter:
    """Multiplexer gate on one input port, over an activation table of its
    own whose keys are the port's slots: on each arrival, decides the
    arriving connection's rule over the port's mask and accepts or
    discards. A cube rule is decided by one mask compare; only another rule
    (a disjunction, `false` or a nested `not`) has a BDD, in `manager`,
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
        # the slots whose bits are set in activation.mask are its keys
        self.activation = ActivationTable(window_ms)
        self.snapshot: Snapshot | None = None  # of the mask, from the first arrival on
        entries, self.manager = rule_entries(port, ruleset.for_port(port), self.slots)
        self._rules = [entries.get(source) for source in self.sources]

    def slot(self, connection: Connection) -> int:
        """The slot of `connection`'s source, for `arrive` and `verdict`."""
        slot = self.slots.get(connection.source)
        if slot is None or connection.destination != self.port:
            raise ValueError(f"unknown connection {connection} at {self.port}")
        return slot

    def arrive(self, slot: int, t: int) -> int:
        """Record an arrival from `slot` at `t`, before its verdict and
        whatever that is; returns the activation mask at `t`."""
        mask = self.activation.arrive(slot, t)
        if self.snapshot is None or self.snapshot.mask != mask:
            self.snapshot = Snapshot(self.sources, self.slots, mask)
        return mask

    def verdict(self, slot: int, mask: int) -> tuple[str, str]:
        """(outcome, reason) for a message from `slot` under `mask`."""
        snapshot = self.snapshot
        if snapshot is None or snapshot.mask != mask:
            snapshot = Snapshot(self.sources, self.slots, mask)
        return verdict(self._rules[slot], mask, snapshot)

    # the same steps by connection and time, for the benchmark and the tests

    def record_arrival(self, connection: Connection, t: int) -> None:
        self.arrive(self.slot(connection), t)

    def activation_snapshot(self, t: int) -> Snapshot:
        """One boolean per distinct incoming source port at `t`, which may not
        precede the latest arrival: the table's mask less the slots expired
        by `t`, which is `snapshot` itself when none has expired. A port
        sharing several connections counts active if any is."""
        held = mask = self.activation.mask
        for slot in self.activation.expired(t):
            mask &= ~(1 << slot)
        if mask == held and self.snapshot is not None:
            return self.snapshot
        return Snapshot(self.sources, self.slots, mask)

    def decide(self, connection: Connection, t: int) -> Decision:
        """Accept or discard the message that just arrived on `connection`."""
        snapshot = self.activation_snapshot(t)
        slot = self.slot(connection)
        return Decision(*verdict(self._rules[slot], snapshot.mask, snapshot), snapshot)
