"""Port-arbitrated coordination: hierarchical behavior models compiled to
per-port selection rules, evaluated against timed connection activation
(a cube by one bitmask compare, any other rule over a BDD), and executed in
a deterministic simulated component network."""

from .arbiter import (
    ACCEPT,
    CONSTRAINT_FALSE,
    DEFAULT_WINDOW_MS,
    DISCARD,
    NO_RULE,
    SELECTED,
    ActivationTable,
    Decision,
    PortArbiter,
)
from .bdd import BddManager
from .compiler import (
    RuleSet,
    SelectionRule,
    check_conflicts,
    compile_model,
    emit_rules,
    extract_rules,
    rule_text,
)
from .library import FIXTURE_NAMES, FIXTURES_DIR, Fixture, fixture
from .model import (
    And,
    BehaviorModel,
    BehaviorNode,
    BoolExpr,
    Component,
    Connection,
    Diagnostic,
    FALSE,
    Lit,
    NetworkDescription,
    Not,
    Or,
    ParseError,
    TRUE,
    apply_auto_observe,
    check_port,
    has_errors,
    normalize,
    parse_behavior_model,
    parse_condition,
    parse_network,
    render_condition,
    validate,
)
from .simnet import (
    PeriodicSource,
    Scenario,
    Trace,
    TraceRecord,
    iter_run,
    load_scenario,
    read_trace,
    run,
    write_trace,
)

__version__ = "0.1.0"
