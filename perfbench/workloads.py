"""Seeded workload generators.

Each generator writes a scenario (model.xml, network.xml, scenario.json)
into a directory and returns a `Spec`: the same system described in the
benchmark's own data structures. The oracle derives every selection
function from the spec, never from portarb, and the program under test sees
only the written files.

All sources of one workload share one period. At an instant where several
sources emit, they then take their turns in component order, which is what
lets the oracle predict the exact record order.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from xml.sax.saxutils import escape

WORKLOADS = ("wide-fanin", "deep-hierarchy", "bursty-long-trace")

# Sizes per workload and scale. "full" is what the benchmark measures;
# "smoke" is the smallest configuration, used by the smoke test.
SIZES = {
    "wide-fanin": {
        "full": {"sources": 128, "leaves_per_port": 32, "horizon_ms": 2000},
        "smoke": {"sources": 24, "leaves_per_port": 8, "horizon_ms": 1000},
    },
    "deep-hierarchy": {
        "full": {"branching": 4, "depth": 3, "ports": 64, "horizon_ms": 1000},
        "smoke": {"branching": 3, "depth": 2, "ports": 8, "horizon_ms": 500},
    },
    "bursty-long-trace": {
        "full": {"horizon_ms": 60_000},
        "smoke": {"horizon_ms": 5_000},
    },
}

SEARCH_AND_TRACK = Path("src") / "portarb" / "fixtures" / "search-and-track"


@dataclass
class Node:
    """A behavior (leaf, with `config`) or a meta-behavior (with `children`)."""

    name: str
    children: list["Node"] = field(default_factory=list)
    config: list[tuple[str, str]] = field(default_factory=list)  # (source, destination)
    condition: list[tuple[str, bool]] = field(default_factory=list)  # conjunction of (port, positive)
    inhibits: list[str] = field(default_factory=list)


@dataclass
class Source:
    name: str
    port: str
    period_ms: int
    phase_ms: int
    active: list[tuple[int, int]]


@dataclass
class Spec:
    roots: list[Node]
    outputs: list[str]
    inputs: list[str]
    connections: list[tuple[str, str]]
    windows: dict[str, int]
    sources: list[Source]
    horizon_ms: int


def walk(nodes):
    for node in nodes:
        yield node
        yield from walk(node.children)


def _bursts(rng, horizon, slot, burst):
    """One [start, end) burst of `burst` ms at a random offset in every
    `slot` ms of the horizon. With `burst` a multiple of the source period
    every burst holds the same number of emissions, so seeds move the
    bursts but not the amount of work."""
    out = []
    for start in range(0, horizon - slot + 1, slot):
        t = start + rng.randrange(0, slot - burst + 1)
        out.append((t, t + burst))
    return out


def _condition_text(condition):
    return " and ".join(port if positive else f"not {port}" for port, positive in condition)


def _model_xml(roots):
    chunks = []
    for node in walk(roots):
        kind = "meta_behavior" if node.children else "behavior"
        lines = [f'<{kind} name="{escape(node.name)}">']
        for child in node.children:
            lines.append(f"   <behavior>{escape(child.name)}</behavior>")
        for src, dst in node.config:
            lines.append(f'   <config at="{dst}">{src}</config>')
        lines.append(f"   <condition>{_condition_text(node.condition)}</condition>")
        lines.append(f"   <inhibition>{escape(', '.join(node.inhibits))}</inhibition>")
        lines.append(f"</{kind}>")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


def _network_xml(spec):
    lines = ['<application name="perfbench">']
    for i, port in enumerate(spec.outputs):
        lines.append(f'   <module name="out{i}"><output>{port}</output></module>')
    for i, port in enumerate(spec.inputs):
        lines.append(f'   <module name="in{i}"><input>{port}</input></module>')
    for src, dst in spec.connections:
        window = spec.windows.get(dst)
        attr = f' window="{window}"' if window is not None else ""
        lines.append(f'   <connection from="{src}" to="{dst}"{attr}/>')
    lines.append("</application>")
    return "\n".join(lines) + "\n"


def _scenario_json(spec):
    components = [
        {"name": s.name, "source": {"port": s.port, "period_ms": s.period_ms,
                                    "phase_ms": s.phase_ms,
                                    "active": [list(iv) for iv in s.active]}}
        for s in spec.sources
    ]
    components += [{"name": f"sink {port}", "sink": {"port": port}} for port in spec.inputs]
    return json.dumps({"model": "model.xml", "network": "network.xml",
                       "horizon_ms": spec.horizon_ms, "components": components}, indent=1) + "\n"


def wide_fanin(rng, sizes):
    """Two input ports, each fed by every source. Per port one group of
    configured leaves in a total priority order (each leaf inhibits all
    lower-priority siblings); the remaining sources are observation-only."""
    n = sizes["sources"]
    outputs = [f"/Src{i:03d}/pos:o" for i in range(n)]
    inputs = ["/PortA/pos:i", "/PortB/pos:i"]
    roots = []
    for port in inputs:
        tag = port[5]
        chosen = rng.sample(outputs, sizes["leaves_per_port"])
        names = [f"{tag}{i:02d}" for i in range(len(chosen))]
        leaves = [
            Node(name, config=[(src, port)], inhibits=names[i + 1:])
            for i, (name, src) in enumerate(zip(names, chosen))
        ]
        roots.append(Node(f"Group{tag}", children=leaves))
    connections = [(src, dst) for src in outputs for dst in inputs]
    sources = [
        Source(f"src{i}", port, 50, rng.randrange(0, 50, 5),
               _bursts(rng, sizes["horizon_ms"], 1000, 300))
        for i, port in enumerate(outputs)
    ]
    return Spec(roots, outputs, inputs, connections, {p: 200 for p in inputs},
                sources, sizes["horizon_ms"])


SHAPES = ("star", "chain", "none")


def _inhibit(members, shape):
    if shape == "star":
        members[0].inhibits = [m.name for m in members[1:]]
    elif shape == "chain":
        for a, b in zip(members, members[1:]):
            a.inhibits = [b.name]


def deep_hierarchy(rng, sizes):
    """A complete tree of meta-behaviors with leaves at the bottom level.
    Each sibling group gets star, chain or no inhibition: the root group is
    a chain and each lower level cycles through the three shapes. Leaf k is
    configured at the ports in slots k and 5k+17 (modulo the port count).
    The seed only names the ports and sources and places phases and bursts,
    so every seed compiles an isomorphic model and decides as many records."""
    branching, depth, n_ports = sizes["branching"], sizes["depth"], sizes["ports"]
    port_names = rng.sample(range(n_ports), n_ports)
    inputs = [f"/Port{i:02d}/pos:i" for i in port_names]
    source_names = rng.sample(range(branching ** depth), branching ** depth)
    outputs = []
    levels = []  # per level: list of sibling groups

    def build(path, level):
        if level == depth:
            k = len(outputs)
            port = f"/Leaf{source_names[k]:03d}/pos:o"
            outputs.append(port)
            slots = (k % n_ports, (5 * k + 17) % n_ports)
            return Node("Leaf" + "".join(f"-{i}" for i in path),
                        config=[(port, inputs[slot]) for slot in slots])
        children = [build(path + (i,), level + 1) for i in range(branching)]
        while len(levels) <= level:
            levels.append([])
        levels[level].append(children)
        return Node("Group" + "".join(f"-{i}" for i in path), children=children)

    root = build((), 0)
    for level, groups in enumerate(levels):
        for i, members in enumerate(groups):
            _inhibit(members, "chain" if level == 0 else SHAPES[i % 3])
    connections = [c for leaf in walk([root]) for c in leaf.config]
    sources = [
        Source(f"src{i}", port, 100, rng.randrange(0, 100, 10),
               _bursts(rng, sizes["horizon_ms"], 500, 200))
        for i, port in enumerate(outputs)
    ]
    return Spec([root], outputs, inputs, connections, {}, sources, sizes["horizon_ms"])


def search_and_track_spec(sources, horizon_ms):
    """The search-and-track fixture's model and network, transcribed by hand
    from its model.xml and network.xml."""
    gaze, arm = "/Gaze/pos:i", "/Arm/pos:i"
    look = Node("Look Around", config=[("/RandomLook/pos:o", gaze)])
    face = Node("Follow Face", config=[("/Face/pos:o", gaze)], inhibits=["Look Around"])
    rest = Node("Rest Arm", config=[("/RestArm/pos:o", arm)])
    track = Node("Track Object", config=[("/Object/pos:o", gaze), ("/Object/pos:o", arm)],
                 condition=[("/collision:o", False)], inhibits=["Rest Arm", "Be Curious"])
    curious = Node("Be Curious", children=[look, face])
    root = Node("Search and Track", children=[curious, rest, track])
    outputs = ["/Object/pos:o", "/Face/pos:o", "/RandomLook/pos:o", "/RestArm/pos:o", "/collision:o"]
    connections = [
        ("/Object/pos:o", gaze), ("/Object/pos:o", arm), ("/RestArm/pos:o", arm),
        ("/collision:o", arm), ("/Face/pos:o", gaze), ("/RandomLook/pos:o", gaze),
    ]
    return Spec([root], outputs, [gaze, arm], connections, {}, sources, horizon_ms)


def bursty_long_trace(rng, sizes, root_dir):
    """The paper's search-and-track model and network, unchanged, driven by
    fast short bursts over a long horizon."""
    horizon = sizes["horizon_ms"]
    ports = ["/collision:o", "/Object/pos:o", "/Face/pos:o", "/RandomLook/pos:o", "/RestArm/pos:o"]
    sources = [
        Source(f"src{i}", port, 10, rng.randrange(0, 10),
               _bursts(rng, horizon, 1500, 150))
        for i, port in enumerate(ports)
    ]
    return search_and_track_spec(sources, horizon), Path(root_dir) / SEARCH_AND_TRACK


def generate(workload, seed, out_dir, root_dir, scale="full"):
    """Write the workload's files into `out_dir`; return (spec, scenario path)."""
    rng = random.Random(f"{workload}:{seed}")
    sizes = SIZES[workload][scale]
    out_dir = Path(out_dir)
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    if workload == "bursty-long-trace":
        spec, fixture_dir = bursty_long_trace(rng, sizes, root_dir)
        shutil.copyfile(fixture_dir / "model.xml", out_dir / "model.xml")
        shutil.copyfile(fixture_dir / "network.xml", out_dir / "network.xml")
    else:
        spec = wide_fanin(rng, sizes) if workload == "wide-fanin" else deep_hierarchy(rng, sizes)
        (out_dir / "model.xml").write_text(_model_xml(spec.roots), encoding="utf-8")
        (out_dir / "network.xml").write_text(_network_xml(spec), encoding="utf-8")
    scenario = out_dir / "scenario.json"
    scenario.write_text(_scenario_json(spec), encoding="utf-8")
    return spec, scenario
