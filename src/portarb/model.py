"""Behavior-model domain types and parsers.

Ports, connections, boolean activation conditions, the hierarchical
behavior tree, the application (network) description, and structural
validation of a model against a network.
"""

from __future__ import annotations

import operator
import pyexpat  # loaded by ElementTree already, unlike its xml.parsers.expat wrapper
import re
from collections.abc import Iterator, Mapping
from functools import cached_property
from itertools import chain
from xml.etree import ElementTree


class ParseError(ValueError):
    """Malformed input: XML structure, condition syntax, or file schema."""


def read_text(path) -> str:
    """An input file's text; bytes that are not UTF-8 are a ParseError that names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None


_set = object.__setattr__  # sets a Value's fields past its own __setattr__


def _no_values(obj) -> tuple:
    return ()


def _plain_init(cls):
    """`def __init__(self, a, b, c): _set(self, "a", a) ...` over `cls._fields`,
    with `cls._defaults` as the defaults of the last fields, made by one
    `exec` so that it reads and fails like a hand-written one."""
    fields = cls._fields
    body = "".join(f"\n    _set(self, {name!r}, {name})" for name in fields)
    namespace = {"_set": _set}
    exec(f"def __init__({', '.join(('self', *fields))}):{body}", namespace)
    init = namespace["__init__"]
    init.__defaults__ = cls._defaults
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


class Value:
    """An immutable record of the fields named in `_fields`.

    Instances are equal when they are of the same class and their fields
    are equal, hash over their fields and print as `Name(field=value, ...)`.
    Each subclass lists `_fields` and declares `__slots__ = _fields` unless
    a `cached_property` needs an instance `__dict__`. A subclass that lists
    `_fields` and writes no `__init__` gets one generated, as
    `collections.namedtuple` generates `__new__`: the fields are its
    parameters in order, and `_defaults` holds the defaults of the last
    fields. A class whose `__init__` checks its input (`Connection`, `Lit`,
    `Decision`, `NetworkDescription`), makes a fresh default dict
    (`NetworkDescription`) or derives a slot that is not a field
    (`SelectionRule.cube`) writes its own and sets its slots through
    `object.__setattr__`. Assigning or deleting an attribute raises
    AttributeError; copy and pickle rebuild an instance through its
    `__init__`, with the fields as positional arguments.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # what equality and the hash compare: the tuple of the field values,
        # or the one value of a one-field class
        fields = cls._fields
        cls._values = staticmethod(operator.attrgetter(*fields) if fields else _no_values)
        # a class that inherits its fields inherits its __init__ too
        if "_fields" in vars(cls) and "__init__" not in vars(cls):
            cls.__init__ = _plain_init(cls)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


ERROR = "error"
WARNING = "warning"

BEHAVIOR = "behavior"
META_BEHAVIOR = "meta_behavior"

_PORT_RE = re.compile(r"(?:/[^/\s:]+)+:[io]")
_INT_RE = re.compile(r"-?[0-9]+")


def check_port(name: str) -> str:
    """Validate `/segment(/segment)*:(i|o)` and return the name unchanged."""
    if not isinstance(name, str) or not _PORT_RE.fullmatch(name):
        raise ParseError(
            f"invalid port name {name!r}: expected /segment(/segment)*:i or :o"
        )
    return name


def decimal_int(text: str) -> int:
    """`text` as an integer: ASCII decimal digits, perhaps after a "-". Unlike
    int(), no sign "+", "_", surrounding space or other script's digits."""
    if not _INT_RE.fullmatch(text):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def is_output(port: str) -> bool:
    return port.endswith(":o")


def is_input(port: str) -> bool:
    return port.endswith(":i")


class Connection(Value):
    """Directed data path from an output port to an input port."""

    _fields = __slots__ = ("source", "destination")

    def __init__(self, source: str, destination: str) -> None:
        check_port(source)
        check_port(destination)
        if not is_output(source):
            raise ParseError(f"connection source {source!r} must be an output port (:o)")
        if not is_input(destination):
            raise ParseError(f"connection destination {destination!r} must be an input port (:i)")
        _set(self, "source", source)
        _set(self, "destination", destination)

    def __str__(self) -> str:
        return f"{self.source} -> {self.destination}"


# ---------------------------------------------------------------------------
# Boolean condition expressions


class BoolExpr(Value):
    """Base class for condition expressions over output-port activation."""

    __slots__ = ()


class TrueExpr(BoolExpr):
    __slots__ = ()


class FalseExpr(BoolExpr):
    __slots__ = ()


class Lit(BoolExpr):
    _fields = __slots__ = ("port",)

    def __init__(self, port: str) -> None:
        check_port(port)
        if not is_output(port):
            raise ParseError(
                f"condition literal {port!r} must name an output port (:o)"
            )
        _set(self, "port", port)


class Not(BoolExpr):
    _fields = __slots__ = ("child",)


class And(BoolExpr):
    _fields = __slots__ = ("children",)


class Or(BoolExpr):
    _fields = __slots__ = ("children",)


TRUE = TrueExpr()
FALSE = FalseExpr()


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<and>&&|&)
      | (?P<or>\|\||\|)
      | (?P<not>!|¬)
      | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<port>/[^\s()!&|¬]+)
    """,
    re.VERBOSE,
)


def _tokenize_condition(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"condition syntax error at position {pos}: unexpected {text[pos]!r}"
            )
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


# Deepest nesting a model may use: `(`s and `not`s enclosing a term of one
# condition, and meta-behaviors enclosing a behavior. Parsing, the model walk
# and the passes over conditions recurse once per level, so this keeps them
# far inside Python's recursion limit; deeper input is a ParseError.
MAX_NESTING_DEPTH = 100


class _ConditionParser:
    """Recursive descent over: expr := term (OR term)*; term := factor (AND factor)*;
    factor := NOT factor | '(' expr ')' | port | 'true' | 'false'."""

    def __init__(self, text: str):
        self.tokens = _tokenize_condition(text)
        self.i = 0
        self.depth = 0

    def _peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> BoolExpr:
        if not self.tokens:
            return TRUE
        expr = self.expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(
                f"condition syntax error at position {tok[2]}: unexpected {tok[1]!r}"
            )
        return expr

    def expr(self) -> BoolExpr:
        parts = [self.term()]
        while (tok := self._peek()) is not None and (
            tok[0] == "or" or (tok[0] == "word" and tok[1] == "or")
        ):
            self._take()
            parts.append(self.term())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def term(self) -> BoolExpr:
        parts = [self.factor()]
        while (tok := self._peek()) is not None and (
            tok[0] == "and" or (tok[0] == "word" and tok[1] == "and")
        ):
            self._take()
            parts.append(self.factor())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def factor(self) -> BoolExpr:
        tok = self._peek()
        if tok is None:
            raise ParseError("condition syntax error: unexpected end of input")
        kind, value, pos = tok
        is_not = kind == "not" or (kind == "word" and value == "not")
        if is_not or kind == "lparen":
            self._take()
            self.depth += 1
            if self.depth > MAX_NESTING_DEPTH:
                raise ParseError(
                    f"condition syntax error at position {pos}: nested deeper than "
                    f"{MAX_NESTING_DEPTH} levels"
                )
            inner = self.factor() if is_not else self.expr()
            self.depth -= 1
            if is_not:
                return Not(inner)
            closing = self._peek()
            if closing is None or closing[0] != "rparen":
                raise ParseError(f"condition syntax error at position {pos}: unclosed '('")
            self._take()
            return inner
        if kind == "port":
            self._take()
            try:
                return Lit(value)
            except ParseError as exc:
                raise ParseError(f"condition syntax error at position {pos}: {exc}") from None
        if kind == "word":
            self._take()
            if value == "true":
                return TRUE
            if value == "false":
                return FALSE
            if value in ("forall", "exists"):
                raise ParseError(
                    f"condition syntax error at position {pos}: quantifier {value!r} is not "
                    "supported; conditions are propositional (and/or/not over output ports)"
                )
            raise ParseError(
                f"condition syntax error at position {pos}: unknown keyword {value!r}"
            )
        raise ParseError(
            f"condition syntax error at position {pos}: expected a port name, 'not' or '('"
        )


def parse_condition(text: str) -> BoolExpr:
    """Parse a condition; empty or whitespace-only input means unconstrained (true).

    Keyword operators `and`, `or`, `not` and symbol forms `&&`/`&`, `||`/`|`,
    `!`/`¬` are accepted. Literals must be output ports.
    """
    return _ConditionParser(text or "").parse()


def normalize(expr: BoolExpr) -> BoolExpr:
    """Flatten nested and/or, absorb constants, drop duplicate children."""
    if isinstance(expr, (TrueExpr, FalseExpr, Lit)):
        return expr
    if isinstance(expr, Not):
        child = normalize(expr.child)
        if child == TRUE:
            return FALSE
        if child == FALSE:
            return TRUE
        return Not(child)
    if isinstance(expr, (And, Or)):
        unit, zero = (TRUE, FALSE) if isinstance(expr, And) else (FALSE, TRUE)
        out: dict[BoolExpr, None] = {}  # insertion-ordered set
        for child in expr.children:
            child = normalize(child)
            if child == unit:
                continue
            if child == zero:
                return zero
            for part in child.children if isinstance(child, type(expr)) else (child,):
                out[part] = None
        if not out:
            return unit
        if len(out) == 1:
            return next(iter(out))
        return type(expr)(tuple(out))
    raise TypeError(f"not a BoolExpr: {expr!r}")


def render_condition(expr: BoolExpr) -> str:
    """Inverse of parse_condition on normalized expressions."""
    if isinstance(expr, TrueExpr):
        return "true"
    if isinstance(expr, FalseExpr):
        return "false"
    if isinstance(expr, Lit):
        return expr.port
    if isinstance(expr, Not):
        inner = render_condition(expr.child)
        if isinstance(expr.child, (And, Or)):
            inner = f"({inner})"
        return f"not {inner}"
    if isinstance(expr, And):
        parts = [
            f"({render_condition(c)})" if isinstance(c, (And, Or)) else render_condition(c)
            for c in expr.children
        ]
        return " and ".join(parts)
    if isinstance(expr, Or):
        parts = [
            f"({render_condition(c)})" if isinstance(c, Or) else render_condition(c)
            for c in expr.children
        ]
        return " or ".join(parts)
    raise TypeError(f"not a BoolExpr: {expr!r}")


def condition_literals(expr: BoolExpr) -> tuple[str, ...]:
    """Distinct literal ports in first-appearance (pre-order) order."""
    out: dict[str, None] = {}

    def visit(e: BoolExpr) -> None:
        if isinstance(e, Lit):
            out[e.port] = None
        elif isinstance(e, Not):
            visit(e.child)
        elif isinstance(e, (And, Or)):
            for c in e.children:
                visit(c)

    visit(expr)
    return tuple(out)


def cube_literals(constraint: BoolExpr) -> list[tuple[str, bool]] | None:
    """The `(port, value)` literals of a cube, in order, or None if the
    constraint is not one. A cube is `true`, a literal, a negated literal or
    an `And` of literals and negated literals, by exact type; it may repeat
    a literal or need a port both true and false."""
    parts = (constraint.children if type(constraint) is And
             else () if type(constraint) is TrueExpr else (constraint,))
    literals = []
    for part in parts:
        if type(part) is Lit:
            literals.append((part.port, True))
        elif type(part) is Not and type(part.child) is Lit:
            literals.append((part.child.port, False))
        else:
            return None
    return literals


# ---------------------------------------------------------------------------
# Behavior tree


class BehaviorNode(Value):
    """A behavior (leaf, with configuration connections) or a meta-behavior
    (group, with child nodes). Conditions constrain activation; inhibitions
    name sibling nodes this node suppresses."""

    _fields = __slots__ = ("name", "kind", "configuration", "children", "condition", "inhibitions")
    _defaults = ((), (), TRUE, ())

    @property
    def is_meta(self) -> bool:
        return self.kind == META_BEHAVIOR


class NodePlan(Value):
    """What compilation needs of one node, computed once per model.

    `condition` is the node's own condition conjoined with every ancestor's,
    outermost first. `inhibitor_sources` are the sources of the leaves under
    every node inhibiting this one or an ancestor, deduplicated: own
    inhibitors first, then each ancestor's going outward; within one scope,
    inhibitors and their leaves in document-walk order. `needed` holds the
    literals of both, in first-appearance order."""

    _fields = __slots__ = ("condition", "inhibitor_sources", "needed")


class BehaviorModel(Value):
    # no __slots__: the cached_propertys below keep their values in __dict__
    _fields = ("roots",)
    _defaults = ((),)

    def walk(self) -> Iterator[BehaviorNode]:
        """All nodes, depth-first in document order."""
        stack = list(reversed(self.roots))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaf_behaviors(self) -> tuple[BehaviorNode, ...]:
        return tuple(node for node in self.walk() if not node.is_meta)

    @cached_property
    def _plans(self) -> dict[str, NodePlan]:
        # Sources under each node first: reversed pre-order puts every node
        # after all of its descendants.
        nodes = list(self.walk())
        sources_under: dict[str, tuple[str, ...]] = {}
        for node in reversed(nodes):
            if node.is_meta:
                merged = (p for c in node.children for p in sources_under[c.name])
            else:
                merged = (conn.source for conn in node.configuration)
            sources_under[node.name] = tuple(dict.fromkeys(merged))
        inhibitors: dict[str, list[str]] = {}
        for node in nodes:
            for target in node.inhibitions:
                inhibitors.setdefault(target, []).append(node.name)
        # Then pre-order on a stack of (node, its parent's plan), so a
        # parent's plan is made before its children's.
        plans: dict[str, NodePlan] = {}
        top = NodePlan(TRUE, (), ())
        stack = [(root, top) for root in reversed(self.roots)]
        while stack:
            node, parent = stack.pop()
            own = (p for i in inhibitors.get(node.name, ()) for p in sources_under[i])
            condition = normalize(And((parent.condition, node.condition)))
            sources = tuple(dict.fromkeys((*own, *parent.inhibitor_sources)))
            needed = tuple(dict.fromkeys((*condition_literals(condition), *sources)))
            plan = plans[node.name] = NodePlan(condition, sources, needed)
            stack.extend((child, plan) for child in reversed(node.children))
        return plans

    def plan(self, name: str) -> NodePlan:
        """The named node's compilation plan; KeyError for unknown names."""
        return self._plans[name]


# ---------------------------------------------------------------------------
# Behavior XML


_DEFINE_REF_RE = re.compile(r"\$\{([^}]*)\}")
# Most characters ${...} substitution may add, both to the define values
# together and to the document; a larger expansion is rejected unbuilt.
MAX_EXPANSION_CHARS = 1 << 20
_XML_DECL_RE = re.compile(r"^\s*<\?xml[^>]*\?>")


# expat's codes for junk after the first element and for no element at all:
# how a document of several or of no top-level elements fails to parse
_FOREST_ERRORS = {
    pyexpat.errors.codes[pyexpat.errors.XML_ERROR_JUNK_AFTER_DOC_ELEMENT],
    pyexpat.errors.codes[pyexpat.errors.XML_ERROR_NO_ELEMENTS],
}


class _XmlError(Exception):
    """A document that does not parse: `args` are expat's reason and the
    line and column, counted from 1 and 0 as expat's are, in the text."""


def _parse_xml_forest(text: str) -> list[ElementTree.Element]:
    """Parse a document that may carry several top-level elements.

    A document that is not one element is parsed again, less any XML
    declaration, as the children of a `<forest>` wrapper. If that fails
    too, the `_XmlError` raised is the first parse's, unless that was junk
    after the first element or no element at all; then it is the retry's,
    at its line and column in `text`."""
    try:
        root = ElementTree.fromstring(text)
    except ElementTree.ParseError as first:
        declaration = _XML_DECL_RE.match(text)
        skipped = declaration.end() if declaration else 0
        try:
            root = ElementTree.fromstring(f"<forest>{text[skipped:]}</forest>")
        except ElementTree.ParseError as exc:
            if first.code not in _FOREST_ERRORS:
                line, column = first.position
                # ElementTree's text is the reason, then this position
                raise _XmlError(str(first).removesuffix(f": line {line}, column {column}"),
                                line, column) from None
            line, column = exc.position
            if line == 1:  # past the wrapper's start tag, after the skipped text
                column += skipped - text.rfind("\n", 0, skipped) - 1 - len("<forest>")
            line += text.count("\n", 0, skipped)
            raise _XmlError(pyexpat.ErrorString(exc.code), line, column) from None
        return list(root)
    if root.tag in ("define", BEHAVIOR, META_BEHAVIOR):
        return [root]
    return list(root)  # wrapper element of any name


def _extract_defines(elements: list[ElementTree.Element]) -> dict[str, str]:
    defines: dict[str, str] = {}
    for el in elements:
        if el.tag != "define":
            continue
        name = (el.get("name") or "").strip()
        if not name:
            raise ParseError("<define> requires a name attribute")
        if name in defines:
            raise ParseError(f"duplicate <define name={name!r}>")
        defines[name] = (el.text or "").strip()
    return defines


def _expand(text: str, defines: Mapping[str, str], limit: int) -> str:
    """Replace each ${name} that has a value; other references stay as
    written. Raises ParseError instead of building a result over `limit`."""
    size = len(text) + sum(
        len(defines.get(m.group(1), m.group(0))) - len(m.group(0))
        for m in _DEFINE_REF_RE.finditer(text)
    )
    if size > limit:
        raise ParseError(
            f"${{...}} defines expand by more than {MAX_EXPANSION_CHARS} characters"
        )
    return _DEFINE_REF_RE.sub(lambda m: defines.get(m.group(1), m.group(0)), text)


def _substitute_defines(text: str) -> list[ElementTree.Element]:
    """Pure text replacement of ${name} references, before any structural
    interpretation of the behavior elements; returns the elements of the
    substituted document. A document that substitution leaves unchanged is
    parsed once."""
    try:
        elements = _parse_xml_forest(text)
    except _XmlError as exc:
        reason, line, column = exc.args
        raise ParseError(
            f"malformed behavior model XML: {reason}: line {line}, column {column}") from None
    defines = _extract_defines(elements)
    total = sum(len(value) for value in defines.values())
    limit = total + MAX_EXPANSION_CHARS
    for _ in range(64):
        changed = False
        for key, value in defines.items():
            expanded = _expand(value, defines, limit - (total - len(value)))
            if expanded != value:
                defines[key] = expanded
                total += len(expanded) - len(value)
                changed = True
        if not changed:
            break
    substituted = _expand(text, defines, len(text) + MAX_EXPANSION_CHARS)
    for value in (*defines.values(), substituted):
        leftover = _DEFINE_REF_RE.search(value)
        if leftover:
            if leftover.group(1) in defines:
                raise ParseError("circular ${...} define references")
            raise ParseError(f"unresolved ${{{leftover.group(1)}}}")
    if substituted != text:
        try:
            elements = _parse_xml_forest(substituted)
        except _XmlError as exc:
            raise _define_error(text, defines, exc) from None
    return elements


def _define_error(text: str, defines: Mapping[str, str], error: _XmlError) -> ParseError:
    """The error of a document that parses as written but not with its
    ${...} references substituted (`error`). It names a reference whose
    substitution breaks the document: with the references before it
    substituted the document parses, and with it too it does not. The
    search halves the references, so it parses O(log references) times.
    The reference's line and column are counted in `text` as expat's are."""
    refs = list(_DEFINE_REF_RE.finditer(text))  # every one has a define here
    good, bad = 0, len(refs)  # the text parses with `good` substituted, not with `bad`
    while bad - good > 1:
        middle = (good + bad) // 2
        try:
            _parse_xml_forest(_DEFINE_REF_RE.sub(lambda m: defines[m.group(1)], text, count=middle))
            good = middle
        except _XmlError as exc:
            bad, error = middle, exc
    ref = refs[bad - 1]
    line = text.count("\n", 0, ref.start()) + 1
    column = ref.start() - text.rfind("\n", 0, ref.start()) - 1
    return ParseError(
        f"malformed behavior model XML: define {ref.group(1)!r}, substituted for "
        f"{ref.group(0)} at line {line}, column {column}: {error.args[0]}"
    )


def _parse_definition(el: ElementTree.Element, name: str):
    kind = el.tag
    configuration: list[Connection] = []
    child_refs: list[str] = []
    condition: BoolExpr | None = None
    inhibitions: dict[str, None] = {}  # insertion-ordered set
    for child in el:
        if child.tag == "config" and kind == BEHAVIOR:
            at = (child.get("at") or "").strip()
            source = (child.text or "").strip()
            if not at:
                raise ParseError(f"<config> in {name!r} requires an at attribute")
            if not source:
                raise ParseError(f"<config> in {name!r} requires a source port")
            connection = Connection(source, at)
            if connection in configuration:
                raise ParseError(f"duplicate configuration {connection} in {name!r}")
            configuration.append(connection)
        elif child.tag == BEHAVIOR and kind == META_BEHAVIOR:
            if child.get("name"):
                raise ParseError(
                    f"inline definitions are not allowed inside {name!r}; "
                    "reference behaviors by name"
                )
            ref = (child.text or "").strip()
            if not ref:
                raise ParseError(f"empty behavior reference in {name!r}")
            child_refs.append(ref)
        elif child.tag == "condition":
            if condition is not None:
                raise ParseError(f"multiple <condition> elements in {name!r}")
            try:
                condition = parse_condition(child.text or "")
            except ParseError as exc:
                raise ParseError(f"condition of {name!r}: {exc}") from None
        elif child.tag == "inhibition":
            for item in (child.text or "").split(","):
                item = item.strip()
                if item:
                    inhibitions[item] = None
        else:
            raise ParseError(f"unexpected <{child.tag}> inside <{kind} name={name!r}>")
    if kind == BEHAVIOR and not configuration:
        raise ParseError(f"behavior {name!r} must configure at least one connection")
    if kind == META_BEHAVIOR and not child_refs:
        raise ParseError(f"meta_behavior {name!r} must reference at least one behavior")
    return configuration, child_refs, condition or TRUE, inhibitions


def parse_behavior_model(xml_text: str) -> BehaviorModel:
    """Parse a behavior-description document into a BehaviorModel.

    The document holds `<define>`, `<behavior name=...>` and
    `<meta_behavior name=...>` elements (a wrapper root element is
    optional). `${name}` references are substituted textually before the
    elements are interpreted; behaviors referenced from a meta-behavior
    become its children, unreferenced definitions become roots.
    """
    elements = _substitute_defines(xml_text)

    definitions: dict[str, tuple] = {}  # in document order
    for el in elements:
        if el.tag == "define":
            continue
        if el.tag not in (BEHAVIOR, META_BEHAVIOR):
            raise ParseError(f"unexpected top-level element <{el.tag}>")
        name = (el.get("name") or "").strip()
        if not name:
            raise ParseError(f"<{el.tag}> requires a non-empty name attribute")
        if "," in name:
            raise ParseError(f"behavior name {name!r} must not contain commas")
        if name in definitions:
            raise ParseError(f"duplicate behavior name {name!r}")
        definitions[name] = (el.tag, *_parse_definition(el, name))

    referenced: dict[str, str] = {}
    for name, (_, _, child_refs, _, _) in definitions.items():
        for ref in child_refs:
            if ref not in definitions:
                raise ParseError(f"unknown behavior reference {ref!r} in {name!r}")
            if ref == name:
                raise ParseError(f"{name!r} cannot contain itself")
            if ref in referenced:
                raise ParseError(
                    f"{ref!r} is referenced by both {referenced[ref]!r} and {name!r}"
                )
            referenced[ref] = name

    built: dict[str, BehaviorNode] = {}

    def build(name: str, depth: int) -> BehaviorNode:
        # `depth` meta-behaviors enclose `name`; the check bounds the recursion
        if depth > MAX_NESTING_DEPTH:
            raise ParseError(f"{name!r} is nested in more than {MAX_NESTING_DEPTH} meta-behaviors")
        kind, configuration, child_refs, condition, inhibitions = definitions[name]
        node = BehaviorNode(
            name=name,
            kind=kind,
            configuration=tuple(configuration),
            children=tuple(build(ref, depth + 1) for ref in child_refs),
            condition=condition,
            inhibitions=tuple(inhibitions),
        )
        built[name] = node
        return node

    roots = tuple(build(name, 0) for name in definitions if name not in referenced)
    # a definition in a containment cycle is never reached from a root
    if len(built) != len(definitions):
        orphans = sorted(set(definitions) - set(built))
        raise ParseError(f"circular containment among {orphans}")
    return BehaviorModel(roots=roots)


# ---------------------------------------------------------------------------
# Application (network) description


class Component(Value):
    _fields = __slots__ = ("name", "inputs", "outputs")
    _defaults = ((), ())


class NetworkDescription(Value):
    """Components, connections and per-port `window=` overrides.

    A network that auto-observe returns keeps its added observer
    connections as one mask of sources per destination port (see
    `_with_observers`) and derives `connections`, and with it `incoming`,
    equality, hash and pickling, on first read."""

    # no __slots__: the cached_propertys below keep their values in __dict__
    _fields = ("components", "connections", "windows")
    # on an auto-observed network: the network it extends and the V3 walk's
    # steps, from which `connections` is derived
    _observers: tuple[NetworkDescription, list] | None = None

    def __init__(
        self,
        components: tuple[Component, ...] = (),
        connections: tuple[Connection, ...] = (),
        windows: Mapping[str, int] | None = None,
    ) -> None:
        _set(self, "components", components)
        _set(self, "connections", connections)
        _set(self, "windows", {} if windows is None else windows)
        declared: set[str] = set()
        for component in self.components:
            for port in component.inputs + component.outputs:
                if port in declared:
                    raise ParseError(f"port {port!r} is declared more than once")
                declared.add(port)
        seen: set[Connection] = set()
        for conn in self.connections:
            if conn.source not in self.declared_outputs:
                raise ParseError(f"connection references undeclared output port {conn.source!r}")
            if conn.destination not in self.declared_inputs:
                raise ParseError(f"connection references undeclared input port {conn.destination!r}")
            if conn in seen:
                raise ParseError(f"duplicate connection {conn}")
            seen.add(conn)
        for port, window in self.windows.items():
            if port not in self.declared_inputs:
                raise ParseError(f"window override for undeclared input port {port!r}")
            if not isinstance(window, int) or window <= 0:
                raise ParseError(f"window override for {port!r} must be a positive integer")

    @cached_property
    def declared_inputs(self) -> frozenset[str]:
        return frozenset(p for c in self.components for p in c.inputs)

    @cached_property
    def declared_outputs(self) -> frozenset[str]:
        return frozenset(p for c in self.components for p in c.outputs)

    @cached_property
    def connections(self) -> tuple[Connection, ...]:
        # __init__ sets this; a network auto-observe made derives it here:
        # the given connections, then each added pair in the walk's order
        given, steps = self._observers
        added = []
        for destination, bits, needed in steps:
            for port in _in_mask(needed, bits, self.source_bits):
                conn = object.__new__(Connection)
                _set(conn, "source", port)
                _set(conn, "destination", destination)
                added.append(conn)
        return given.connections + tuple(added)

    @cached_property
    def source_bits(self) -> dict[str, int]:
        """The global source numbering: each declared output's bit, in name
        order. The V3 walk's masks and the run's activation use it."""
        return {port: bit for bit, port in enumerate(sorted(self.declared_outputs))}

    @cached_property
    def source_masks(self) -> dict[str, int]:
        """Per destination port, the `source_bits` of the sources connected
        to it; an auto-observed network's include its observers. Read-only."""
        bit_of = self.source_bits
        masks: dict[str, int] = {}
        for conn in self.connections:
            masks[conn.destination] = masks.get(conn.destination, 0) | 1 << bit_of[conn.source]
        return masks

    @cached_property
    def _incoming(self) -> dict[str, tuple[Connection, ...]]:
        grouped: dict[str, list[Connection]] = {}
        for conn in self.connections:
            grouped.setdefault(conn.destination, []).append(conn)
        return {port: tuple(conns) for port, conns in grouped.items()}

    def incoming(self, port: str) -> tuple[Connection, ...]:
        return self._incoming.get(port, ())


def parse_network(xml_text: str) -> NetworkDescription:
    """Parse an application-description document.

    Schema: `<application> <module name> <input>..</input>* <output>..</output>*
    </module>* <connection from=".." to=".." [window="ms"]/>* </application>`.
    """
    try:
        root = ElementTree.fromstring(xml_text)
    except ElementTree.ParseError as exc:
        raise ParseError(f"malformed application XML: {exc}") from None
    if root.tag != "application":
        raise ParseError(f"expected <application> root element, got <{root.tag}>")

    components: list[Component] = []
    connection_elements = []
    for el in root:
        if el.tag == "module":
            name = (el.get("name") or "").strip()
            if not name:
                raise ParseError("<module> requires a non-empty name attribute")
            inputs: list[str] = []
            outputs: list[str] = []
            for port_el in el:
                port = (port_el.text or "").strip()
                check_port(port)
                if port_el.tag == "input":
                    if not is_input(port):
                        raise ParseError(f"port {port!r} declared as input must end with :i")
                    inputs.append(port)
                elif port_el.tag == "output":
                    if not is_output(port):
                        raise ParseError(f"port {port!r} declared as output must end with :o")
                    outputs.append(port)
                else:
                    raise ParseError(f"unexpected <{port_el.tag}> inside <module {name!r}>")
            components.append(Component(name, tuple(inputs), tuple(outputs)))
        elif el.tag == "connection":
            connection_elements.append(el)
        else:
            raise ParseError(f"unexpected <{el.tag}> inside <application>")

    connections: list[Connection] = []
    windows: dict[str, int] = {}
    for el in connection_elements:
        source = (el.get("from") or "").strip()
        destination = (el.get("to") or "").strip()
        if not source or not destination:
            raise ParseError("<connection> requires from and to attributes")
        connections.append(Connection(source, destination))
        raw_window = el.get("window")
        if raw_window is not None:
            try:
                window = decimal_int(raw_window)
            except ValueError:
                raise ParseError(f"window={raw_window!r} is not an integer") from None
            if windows.get(destination, window) != window:
                raise ParseError(f"conflicting window overrides for {destination!r}")
            windows[destination] = window
    return NetworkDescription(tuple(components), tuple(connections), windows)


# ---------------------------------------------------------------------------
# Validation


class Diagnostic(Value):
    _fields = __slots__ = ("severity", "code", "message", "location")
    _defaults = ("",)


def has_errors(diagnostics) -> bool:
    return any(d.severity == ERROR for d in diagnostics)


# V3 diagnostics shown per destination port; one more counts the rest
MAX_V3_PER_PORT = 8


def _in_mask(ports, mask: int, bit_of: Mapping[str, int]) -> list[str]:
    """The `ports` whose bits are set in `mask`, in order."""
    return [p for p in ports if (bit := bit_of.get(p)) is not None and mask >> bit & 1]


def _unobserved_literals(model: BehaviorModel, network: NetworkDescription, once: bool = False):
    """The V3 walk, with no object per missing pair: per leaf in document
    order, the mask of its plan's `needed` literals over
    `network.source_bits`, and per configured connection the bits of it
    not yet connected to the destination. With `once`, a missing (literal,
    destination) pair counts only for the first leaf that needs it.
    Returns the (leaf name, literal) pairs whose literal is not a declared
    output; per destination, the missing pairs' count and the first
    MAX_V3_PER_PORT of them as (leaf name, literal); and, with `once`, what
    `_with_observers` takes: each destination's sources with the missing
    ones added, as masks, and per (leaf, configured connection) that adds
    any, (destination, the bits it adds, the leaf's `needed`)."""
    bit_of = network.source_bits
    present = dict(network.source_masks)
    undeclared: list[tuple[str, str]] = []
    counts: dict[str, int] = {}
    shown: dict[str, list[tuple[str, str]]] = {}
    steps: list[tuple[str, int, tuple[str, ...]]] = []
    for leaf in model.leaf_behaviors():
        needed = model.plan(leaf.name).needed
        want = 0
        for port in needed:
            bit = bit_of.get(port)
            if bit is None:
                undeclared.append((leaf.name, port))
            else:
                want |= 1 << bit
        if not want:
            continue
        for conn in leaf.configuration:
            destination = conn.destination
            have = present.get(destination, 0)
            missing = want & ~have
            if not missing:
                continue
            count = counts.get(destination, 0)
            counts[destination] = count + missing.bit_count()
            if count < MAX_V3_PER_PORT:
                ports = _in_mask(needed, missing, bit_of)[:MAX_V3_PER_PORT - count]
                shown.setdefault(destination, []).extend((leaf.name, port) for port in ports)
            if once:
                present[destination] = have | missing
                steps.append((destination, missing, needed))
    return undeclared, counts, shown, present, steps


def apply_auto_observe(model: BehaviorModel, network: NetworkDescription) -> NetworkDescription:
    """The network with the connections added that make every rule literal
    visible at the port where the rule is evaluated."""
    *_, masks, steps = _unobserved_literals(model, network, once=True)
    return _with_observers(network, masks, steps)


def _with_observers(network: NetworkDescription, masks: dict[str, int], steps) -> NetworkDescription:
    """`network` with the observers of the V3 walk (`_unobserved_literals`)
    added: `masks` become its `source_masks`, and its `connections` are
    derived from `steps` on first read. Only one check is made: each
    destination is a declared input, with the error `NetworkDescription(...)`
    raises. The rest holds by construction: each added source is a declared
    output, each destination comes from a checked `Connection`, and no pair
    is in the network or repeated. Input read from a file goes through the
    checked `Connection(...)` and `NetworkDescription(...)` instead."""
    inputs = network.declared_inputs
    for destination, _, _ in steps:
        if destination not in inputs:
            raise ParseError(f"connection references undeclared input port {destination!r}")
    augmented = object.__new__(NetworkDescription)
    _set(augmented, "components", network.components)
    _set(augmented, "windows", dict(network.windows))
    # the cached_propertys' values but `connections`, which is derived
    _set(augmented, "declared_inputs", inputs)
    _set(augmented, "declared_outputs", network.declared_outputs)
    _set(augmented, "source_bits", network.source_bits)
    _set(augmented, "source_masks", masks)
    _set(augmented, "_observers", (network, steps))
    return augmented


def _sibling_cycle(members: tuple[BehaviorNode, ...], names: set[str]) -> list[str] | None:
    """The first inhibition cycle within one sibling group that a depth-first
    search closes, or None; `names` are the members'."""
    adjacency = {n.name: [t for t in n.inhibitions if t in names] for n in members}
    # depth-first along inhibition edges on an explicit stack: `path` holds
    # the names being visited (color 1), `pending` the iterator over each
    # one's remaining targets; finished names get color 2
    color: dict[str, int] = {}
    for member in members:
        if member.name in color:
            continue
        color[member.name] = 1
        path = [member.name]
        pending = [iter(adjacency[member.name])]
        while pending:
            for target in pending[-1]:
                state = color.get(target, 0)
                if state == 0:
                    color[target] = 1
                    path.append(target)
                    pending.append(iter(adjacency[target]))
                    break
                if state == 1:
                    return path[path.index(target):] + [target]
            else:
                color[path.pop()] = 2
                pending.pop()
    return None


def validate(
    model: BehaviorModel, network: NetworkDescription, auto_observe: bool = False
) -> list[Diagnostic]:
    """Check the model against the network; findings come back as diagnostics.

    V1 inhibitions stay within sibling scope; V2 configured connections exist
    in the network; V3 every rule literal is observable at each destination
    port it constrains (with auto_observe, each missing observer connection
    is reported once, as a warning instead of an error; per destination
    port, at most MAX_V3_PER_PORT of these are shown and one `... and N
    more` counts the rest); V4 sibling inhibition relations are acyclic (one
    cycle is reported per sibling group); V5 inhibition targets resolve.
    """
    return _validate(model, network, auto_observe)[0]


def _validate(
    model: BehaviorModel, network: NetworkDescription, auto_observe: bool
) -> tuple[list[Diagnostic], tuple[dict[str, int], list]]:
    """validate's diagnostics, and the observers its V3 walk found: with
    auto_observe, the masks and steps `_with_observers` takes, so a compile
    walks the rule literals once."""
    diagnostics: list[Diagnostic] = []
    names = {node.name for node in model.walk()}
    for members in chain((model.roots,), (node.children for node in model.walk())):
        siblings = {node.name for node in members}
        for node in members:
            for target in node.inhibitions:
                if target not in names:
                    diagnostics.append(Diagnostic(
                        ERROR, "V5",
                        f"inhibition target {target!r} does not exist",
                        node.name,
                    ))
                elif target not in siblings:
                    diagnostics.append(Diagnostic(
                        ERROR, "V1",
                        f"{node.name!r} may only inhibit siblings; {target!r} has a different parent",
                        node.name,
                    ))
        cycle = _sibling_cycle(members, siblings)
        if cycle:
            diagnostics.append(Diagnostic(
                ERROR, "V4",
                "inhibition cycle among siblings: " + " -> ".join(cycle),
                min(cycle),
            ))

    bit_of, given = network.source_bits, network.source_masks
    for leaf in model.leaf_behaviors():
        for conn in leaf.configuration:
            bit = bit_of.get(conn.source)
            if bit is None or not given.get(conn.destination, 0) >> bit & 1:
                diagnostics.append(Diagnostic(
                    ERROR, "V2",
                    f"configured connection {conn} is not in the network",
                    leaf.name,
                ))
    undeclared, counts, shown, masks, steps = _unobserved_literals(model, network, once=auto_observe)
    for leaf, port in undeclared:
        diagnostics.append(Diagnostic(
            ERROR, "V3", f"rule literal {port!r} is not a declared output port", leaf))
    # V3 findings per destination port: the first MAX_V3_PER_PORT are shown,
    # then one diagnostic at the port counts the rest. With auto_observe a
    # finding is an observer connection to add, named by the first leaf in
    # document order that needs it; without, one per (leaf, literal).
    severity = WARNING if auto_observe else ERROR
    what = "observer connections to" if auto_observe else "unobservable literals at"
    for destination, count in counts.items():
        for leaf, port in shown[destination]:
            if auto_observe:
                message = (f"adding observer connection {port} -> {destination} "
                           f"so {leaf!r} can evaluate {port}")
            else:
                message = (f"literal {port} of {leaf!r} is not observable at "
                           f"{destination}: connection {port} -> {destination} "
                           "is missing (auto-observe can add it)")
            diagnostics.append(Diagnostic(severity, "V3", message, leaf))
        if count > MAX_V3_PER_PORT:
            diagnostics.append(Diagnostic(
                severity, "V3",
                f"... and {count - MAX_V3_PER_PORT} more {what} {destination} "
                f"({count} in all)",
                destination,
            ))

    diagnostics.sort(key=lambda d: (d.location, d.code, d.message))
    return diagnostics, (masks, steps)
